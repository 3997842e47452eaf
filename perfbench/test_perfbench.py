"""Tests of the benchmark itself: generators, checks, tracing, smoke mode.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import generators  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from balsched.fileio import instance_from_dict, instance_to_dict  # noqa: E402
from balsched.fixtures import build_fixture  # noqa: E402
from balsched.homebuilding import horizon_requirement_table, team_schedule_violations  # noqa: E402


@pytest.fixture(scope="module")
def kope():
    return instance_to_dict(build_fixture("kope-1982"))


def test_synthetic_project_is_seeded_and_valid(kope):
    first = generators.synthetic_project(kope, 30, 4, seed=7)
    assert first == generators.synthetic_project(kope, 30, 4, seed=7)
    assert first != generators.synthetic_project(kope, 30, 4, seed=8)
    instance = instance_from_dict(first)
    assert team_schedule_violations(instance.team_schedule, instance.project.buildings) == []
    assert len(instance.project.buildings) == 30


def test_own_cascade_matches_the_package(kope):
    data = generators.synthetic_project(kope, 40, 5, seed=3)
    instance = instance_from_dict(data)
    table = horizon_requirement_table(instance.project, instance.team_schedule)
    block = data["homebuilding"]
    for k, detail in enumerate(("d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8")):
        ours = generators.cascade_column(block, k)
        assert ours == pytest.approx(table.column(detail), rel=1e-9, abs=1e-9)
    assert block["capacity"]["d1"] == round(0.8 * table.peak("d1")[1], 2)


def test_modular_instance_is_seeded_and_loads():
    data = generators.modular_instance(5, n_processors=3, n_types=4, interval_len=4,
                                       n_intervals=5, n_machines=2, jobs_per_machine=3)
    assert data == generators.modular_instance(5, n_processors=3, n_types=4, interval_len=4,
                                               n_intervals=5, n_machines=2, jobs_per_machine=3)
    instance = instance_from_dict(data)
    assert sum(instance.reference_profile) == 4 * 3


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([2.0, 4.0, 3.0]) == (50.0, 3.0)


def test_speed_probe_takes_its_own_time_off_and_averages_around_the_op():
    probe = speed.SpeedProbe()
    probe.mids = [1.0, 2.0, 2.5, 4.0, 9.0]
    probe.durations = [0.01, 0.02, 0.03, 0.04, 0.05]
    assert probe.inside([(1.5, 2.2), (2.4, 3.0)]) == pytest.approx(0.05)
    assert probe.level(2.1, 3.8) == pytest.approx(0.03)
    assert probe.level(6.0, 7.0) == pytest.approx(0.05)


def test_measure_with_a_probe_costs_every_op(tmp_path):
    workload = workloads.KopeImprove(str(tmp_path), seed=1, smoke=True)
    workload.prepare()
    loop = run.Loop(workload, workloads.Taps(()))
    probe = speed.SpeedProbe()
    _times, _traced, _wall, costs = loop.measure(0.5, probe=probe)
    assert loop.failed == 0 and len(costs) >= 2
    assert len(probe.durations) >= 10
    assert all(c > 0 for c in costs)


def test_kope_check_rejects_a_changed_transcript(tmp_path):
    workload = workloads.KopeImprove(str(tmp_path), seed=1, smoke=True)
    workload.prepare()
    code, stdout, _err = run.run_cli(workload.commands()[0])
    assert code == 0
    assert workload.check([stdout], {}) == []
    assert workload.final_v == pytest.approx(0.0, abs=5e-5)
    assert workload.check([stdout.replace("0.3414", "0.3415")], {}) != []


def test_written_schedule_check_finds_overlaps(kope, tmp_path):
    data = copy.deepcopy(kope)
    data["homebuilding"]["team_schedule"]["assignments"]["P2"] = [["a4", 7.0], ["a7", 11.0]]
    path = str(tmp_path / "overlap.json")
    generators.write_json(data, path)
    _v, problems, _table = workloads.written_schedule_v(path)
    assert "team P2: a4 and a7 overlap" in problems


def test_tracer_restores_every_binding():
    import balsched.cli
    import balsched.improve

    before = (balsched.improve.team_schedule_violations, balsched.cli.load_instance,
              balsched.improve.CascadeCache.__dict__["building_table"])
    tracer = tracing.Tracer()
    tracer.install()
    assert balsched.improve.team_schedule_violations is not before[0]
    tracer.close()
    after = (balsched.improve.team_schedule_violations, balsched.cli.load_instance,
             balsched.improve.CascadeCache.__dict__["building_table"])
    assert after == before


def test_smoke_mode_passes_every_check():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}
