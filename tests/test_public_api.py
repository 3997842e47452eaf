"""The names the package exports, and the names the benchmark under
``perfbench/`` imports, wraps or taps, still exist with the shapes it
uses."""

import importlib

import numpy as np
import pytest

import balsched
from balsched.fixtures import build_fixture
from balsched.homebuilding import horizon_requirement_table

# (module, attribute) pairs perfbench/tracing.py wraps in spans or counts,
# and perfbench/workloads.py imports or taps.
BENCHMARK_NAMES = [
    ("fileio", "load_instance"),
    ("fileio", "save_instance"),
    ("fileio", "render_gantt"),
    ("fileio", "export_balance_curve"),
    ("fileio", "instance_to_dict"),
    ("fixtures", "build_fixture"),
    ("core", "collect_violations"),
    ("core", "validate_instance"),
    ("core", "schedule_violations"),
    ("core", "interval_bags"),
    ("balance", "balance_verdict"),
    ("balance", "proximity"),
    ("balance", "interval_bags"),
    ("jit", "schedule_windows"),
    ("jit", "penalty_sum"),
    ("jit", "penalty_max"),
    ("homebuilding", "DETAIL_TYPES"),
    ("homebuilding", "building_requirement_table"),
    ("homebuilding", "horizon_requirement_table"),
    ("homebuilding", "team_schedule_violations"),
    ("improve", "capacity_vector"),
    ("improve", "violation_measure"),
    ("improve", "improvement_loop"),
    ("improve", "generate_correction_groups"),
    ("improve", "score_variant"),
    ("improve", "mckp_greedy"),
    ("improve", "team_schedule_violations"),
    ("cli", "main"),
    ("cli", "horizon_requirement_table"),
    ("cli", "schedule_windows"),
]


def test_every_exported_name_resolves_once():
    assert len(balsched.__all__) == len(set(balsched.__all__))
    for name in balsched.__all__:
        assert hasattr(balsched, name), name


@pytest.mark.parametrize("module, attr", BENCHMARK_NAMES)
def test_benchmark_names_exist(module, attr):
    assert hasattr(importlib.import_module(f"balsched.{module}"), attr)


def test_benchmark_wraps_the_cache_methods_on_the_class():
    methods = balsched.improve.CascadeCache.__dict__
    assert callable(methods["building_table"])
    assert callable(methods["schedule_table"])


def test_benchmark_call_of_violation_measure():
    from balsched.improve import capacity_vector, violation_measure

    kope = build_fixture("kope-1982")
    table = horizon_requirement_table(kope.project, kope.team_schedule)
    v = violation_measure(table.to_array(), capacity_vector(kope.capacity))
    assert isinstance(v, float) and v > 0
    assert violation_measure(np.zeros((3, 8)), capacity_vector({})) == 0.0
