"""The names the package exports, and the names the benchmark under
``perfbench/`` imports, wraps or taps, still exist with the shapes it
uses, and so do the attributes of results that it reads."""

import ast
import importlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

import balsched
from balsched.balance import interval_bags
from balsched.core import validate_instance
from balsched.fixtures import build_fixture
from balsched.homebuilding import horizon_requirement_table
from balsched.improve import (
    BudgetedMCKP,
    ImproveParams,
    generate_correction_groups,
    improvement_loop,
    mckp_greedy,
    score_variant,
)
from balsched.jit import schedule_windows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_names() -> list[tuple[str, str]]:
    """The (module, attribute) pairs the benchmark uses, read from its
    sources: the SPANNED and COUNTED tables of tracing.py (an attribute
    "Class.method" is a method on the class), each workload's ``taps``,
    every ``from balsched.X import ...`` and every ``balsched.X.Y``."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in itertools.chain(tree.body, *classes):
            target = node.targets[0] if isinstance(node, ast.Assign) else None
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                names.update((m, a) for m, a, _name in ast.literal_eval(node.value))
            elif isinstance(target, ast.Name) and target.id == "taps":  # a workload's
                names.update(
                    (m.removeprefix("balsched."), a) for m, a in ast.literal_eval(node.value)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("balsched."):
                names.update((node.module.removeprefix("balsched."), a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "balsched"):
                names.add((node.value.attr, node.attr))
    return sorted(names)


# The tracer's correction-group hook still imports the scoring config that
# the capacity constants replaced; no workload runs that hook (CHANGES FOUND
# 39), and the benchmark change of ROADMAP item 2 drops it.
GONE_FROM_THE_PACKAGE = {("improve", "DEFAULT_SCORE_CONFIG")}
BENCHMARK_NAMES = [name for name in _benchmark_names() if name not in GONE_FROM_THE_PACKAGE]


def test_every_exported_name_resolves_once():
    assert len(balsched.__all__) == len(set(balsched.__all__))
    for name in balsched.__all__:
        assert hasattr(balsched, name), name


def test_benchmark_names_come_from_every_kind_of_use():
    assert ("improve", "CascadeCache.schedule_table") in BENCHMARK_NAMES  # spanned
    assert ("improve", "CascadeCache.building_table") in BENCHMARK_NAMES  # counted
    assert ("balance", "interval_bags") in BENCHMARK_NAMES  # tapped
    assert ("improve", "capacity_vector") in BENCHMARK_NAMES  # imported
    assert ("improve", "team_schedule_violations") in BENCHMARK_NAMES  # read as an attribute
    # once the benchmark stops importing a name, it leaves this set
    assert GONE_FROM_THE_PACKAGE <= set(_benchmark_names())


@pytest.mark.parametrize("module, attr", BENCHMARK_NAMES)
def test_benchmark_names_exist(module, attr):
    owner = importlib.import_module(f"balsched.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer patches a method where the class defines it
    assert name in vars(owner) if classes else hasattr(owner, name)


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


def _tracing():
    """perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_hooks_read_the_results_they_are_given():
    """The tracer's hooks read attributes of the results of the calls they
    wrap: the loop trace's selections, the bags' elements, the greedy
    selection and the score. Each hook runs here on a real result."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    kope = build_fixture("kope-1982")
    project, schedule, capacity = kope.project, kope.team_schedule, kope.capacity
    result = improvement_loop(project, schedule, capacity, ImproveParams(max_iters=1))
    tracing._loop_hook(tracer, (), {}, result)
    assert tracer.counts["improve.iterations"] == 1
    assert tracer.counts["improve.applied_moves"] == len(result.trace[0].moves) > 0

    groups = generate_correction_groups(project, schedule, capacity)
    tracing._greedy_hook(tracer, (), {}, mckp_greedy(BudgetedMCKP(tuple(groups), 5.0)))
    assert tracer.counts["improve.greedy_moves"] > 0
    target, variant = result.trace[0].moves[0]
    tracing._score_hook(tracer, (), {}, score_variant(project, schedule, variant, capacity, target))
    assert tracer.counts["improve.profitable"] == 1

    demo = build_fixture("modular-demo")
    instance = validate_instance(demo.universe, demo.jobs, demo.processors, demo.grid)
    bags = interval_bags(instance, demo.schedule)
    tracing._bags_hook(tracer, (), {}, bags)
    assert tracer.counts["core.bag_elements"] == sum(b.cardinality for b in bags) > 0


def test_benchmark_reads_the_groups_bags_and_window_completions():
    """Attributes read where no hook runs on a package result: the groups
    hook (``targets``, ``variants``) and the modular workload's check
    (a bag's ``index`` and ``elements``, the window ``completions``)."""
    kope = build_fixture("kope-1982")
    groups = generate_correction_groups(kope.project, kope.team_schedule, kope.capacity)
    assert groups and all(
        isinstance(g.targets[0], str) and len(g.variants) >= 1 for g in groups
    )
    demo = build_fixture("modular-demo")
    instance = validate_instance(demo.universe, demo.jobs, demo.processors, demo.grid)
    bag = interval_bags(instance, demo.schedule)[0]
    assert bag.index == 1 and len(bag.elements) == bag.cardinality
    windows = build_fixture("jit-windows").window_jobs
    completions = schedule_windows(windows).completions
    assert all(isinstance(completions[job.id], float) for job in windows)
