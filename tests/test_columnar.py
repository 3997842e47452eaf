"""Columnar modular instances: job tables and window tables against the
record walks in ``tests/oracles.py``, records built only on request, and
the pinned lines of the error paths."""

import dataclasses
import json
from collections import Counter
from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched.cli import main
from balsched.core import (
    CompositeJob,
    ElementUniverse,
    Instance,
    JobTable,
    SlotLane,
    SlotSchedule,
    TimeGrid,
    ValidationError,
    collect_violations,
    interval_bags,
    makespan,
    schedule_violations,
    validate_instance,
)
from balsched.fileio import (
    InstanceFile,
    SchemaError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from balsched.fixtures import build_fixture
from balsched.jit import (
    PenaltyWeights,
    WindowJob,
    WindowTable,
    penalty_max,
    penalty_sum,
    schedule_windows,
)

from oracles import (
    record_collect_violations,
    record_interval_bags,
    record_makespan,
    record_penalty_max,
    record_penalty_sum,
    record_schedule_violations,
    record_schedule_windows,
)
from synthetic import modular_document

SMOKE = dict(n_processors=4, n_types=6, interval_len=6, n_intervals=4, n_machines=3,
             jobs_per_machine=5)


def outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        return type(exc).__name__, str(exc)


# --- random modular instances, valid and invalid ---------------------------------

def rarely(draw) -> bool:
    return draw(st.integers(0, 5)) == 0


@st.composite
def modular_cases(draw):
    """A universe, jobs, processors, a grid and a slot schedule: mostly
    valid, with each kind of defect now and then."""
    flaw = draw(st.sampled_from([None] * 8 + [
        "type twice", "idle index", "bad element", "id twice", "empty chain",
        "processor twice", "grid",
    ]))
    types = [f"e{i}" for i in range(draw(st.integers(1, 3)))] + ["idle"]
    if flaw == "type twice":
        types.insert(draw(st.integers(0, len(types))), draw(st.sampled_from(types)))
    idle_index = types.index("idle")
    if flaw == "idle index":
        idle_index = draw(st.sampled_from([-1, 0, len(types)]))
    universe = ElementUniverse(tuple(types), idle_index)
    pool = types[:-1] + (["idle", "zz", 7, ("e0",)] if flaw == "bad element" else [])
    ids = [f"j{i}" for i in range(draw(st.integers(0, 6)))]
    if ids and flaw == "id twice":
        ids.append(draw(st.sampled_from(ids)))
    jobs = [
        CompositeJob(job_id, tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))
        for job_id in ids
    ]
    if jobs and flaw == "empty chain":
        i = draw(st.integers(0, len(jobs) - 1))
        jobs[i] = CompositeJob(jobs[i].id, ())
    processors = ["P1", "P2", "P3"][:draw(st.integers(1, 3))]
    if flaw == "processor twice":
        processors.append(processors[0])
    grid = TimeGrid(*draw(st.sampled_from([(0, 2), (2, 0), (-1, 1)]))) if flaw == "grid" else (
        TimeGrid(draw(st.integers(1, 3)), draw(st.integers(1, 4))))
    lanes = {p: [] for p in processors}
    free = dict.fromkeys(processors, draw(st.integers(0, 1)))
    lengths = {job.id: len(job.chain) for job in jobs}
    placed = [job.id for job in jobs if not rarely(draw)]  # some left unplaced
    defect = draw(st.sampled_from([None] * 6 + [
        "repeat", "ghost", "negative", "late", "fraction", "bool", "past int64"]))
    if placed and defect == "repeat":
        placed.append(draw(st.sampled_from(placed)))
    if defect == "ghost":
        placed.insert(draw(st.integers(0, len(placed))), "ghost")
    for job_id in placed:
        p = draw(st.sampled_from(processors))
        lanes[p].append((job_id, free[p]))
        # a gap of -1 makes an overlap
        free[p] += lengths.get(job_id, 1) + draw(st.integers(-1 if rarely(draw) else 0, 1))
    if defect == "negative":
        p = draw(st.sampled_from(processors))
        lanes[p] = [(job_id, start - 2) for job_id, start in lanes[p]]
    if defect in ("fraction", "bool", "past int64") and placed:
        p = draw(st.sampled_from([p for p in processors if lanes[p]] or processors))
        for i in draw(st.sets(st.integers(0, len(lanes[p]) - 1), max_size=2)):
            job_id, start = lanes[p][i]
            lanes[p][i] = job_id, (start + 0.5 if defect == "fraction" else bool(start)
                                   if defect == "bool" else draw(st.sampled_from(
                                       [2**62 - 1, 2**63 - 2, 2**63, 2**70])))
    if rarely(draw):  # a lane listed out of start order
        p = draw(st.sampled_from(processors))
        lanes[p] = draw(st.permutations(lanes[p]))
    if rarely(draw):
        lanes["P9"] = []
    horizon = max(free.values(), default=0) + draw(st.integers(0, 1)) - 3 * (defect == "late")
    schedule = SlotSchedule(
        processors=tuple(p for p in lanes if not rarely(draw)),
        placements={p: tuple(lane) for p, lane in lanes.items()},
        horizon_slots=horizon,
    )
    return universe, jobs, tuple(processors), grid, schedule


@given(modular_cases())
@settings(max_examples=300, deadline=None)
def test_columnar_checks_equal_the_record_walks(case):
    universe, jobs, processors, grid, schedule = case
    expected = record_collect_violations(universe, jobs, processors, grid)
    assert collect_violations(universe, jobs, processors, grid) == expected
    try:
        table = JobTable.from_chains(universe, [j.id for j in jobs], [j.chain for j in jobs])
    except (KeyError, TypeError):
        table = None
    if table is not None:
        assert tuple(table) == tuple(jobs)
        assert collect_violations(universe, table, processors, grid) == expected
    try:
        instance = validate_instance(universe, jobs, processors, grid)
    except ValidationError as exc:
        assert exc.violations == expected and expected
        return
    assert expected == [] and dict(instance.jobs) == {j.id: j for j in jobs}
    records = {j.id: j for j in jobs}
    hand_built = Instance(universe, records, processors, grid)
    schedules = [schedule]
    document = instance_to_dict(InstanceFile(
        "modular", universe, tuple(jobs), processors, grid, schedule))
    try:
        schedules.append(instance_from_dict(document).schedule)
    except SchemaError:  # a start that is no JSON integer
        assert any(type(start) is not int for lane in schedule.placements.values()
                   for _job_id, start in lane)
    else:
        assert type(schedules[1].placements["P1"]) is SlotLane and schedules[1] == schedule
        # a lane is int64 where every start is below 2**62 in size (2**62 - 1
        # is; 2**63 - 2 fits int64 but is not; 2**63 and 2**70 do not fit)
        for lane in schedules[1].placements.values():
            small = all(-2**62 < start < 2**62 for _job_id, start in lane)
            assert lane.starts.dtype == (np.int64 if small else object)
            assert {type(start) for start in lane.starts.tolist()} <= {int}
    for inst, schedule in product((instance, hand_built), schedules):
        assert schedule_violations(inst, schedule) == record_schedule_violations(
            records, processors, schedule
        )
        assert outcome(makespan, inst, schedule) == outcome(
            record_makespan, records, schedule, grid.interval_len_slots
        )
        bags = outcome(interval_bags, inst, schedule)
        if bags[0] == "ok":
            bags = ("ok", [(b.index, b.elements, b.counts) for b in bags[1]])
        assert bags == outcome(record_interval_bags, universe, records, schedule, grid)


def test_an_instance_holds_hand_built_records_as_a_job_table():
    f = build_fixture("modular-demo")
    records = {job.id: job for job in f.jobs}
    hand_built = Instance(f.universe, records, f.processors, f.grid)
    assert hand_built.jobs.table == JobTable.of(f.universe, records.values())
    assert dict(hand_built.jobs) == records
    # the mapping's keys are the ids
    renamed = Instance(f.universe, {"k": records["a1"]}, f.processors, f.grid)
    assert renamed.jobs.table.ids == ("k",)
    instance = validate_instance(f.universe, f.jobs, f.processors, f.grid)
    moved = dataclasses.replace(instance, grid=TimeGrid(4, 3))
    assert moved.jobs is instance.jobs and moved.jobs.table is instance.jobs.table


# --- random window jobs -----------------------------------------------------------

@st.composite
def window_cases(draw):
    n = draw(st.integers(0, 8))
    machines = [draw(st.integers(1, 3)) for _ in range(n)]
    slots = draw(st.permutations([(m, machines[:i + 1].count(m)) for i, m in enumerate(machines)]))
    machines, positions = [m for m, _ in slots], [p for _, p in slots]
    if n and draw(st.integers(0, 4)) == 0:
        positions[draw(st.integers(0, n - 1))] = draw(st.integers(0, n + 1))
    ids = [f"w{i}" for i in range(n)]
    if n > 1 and draw(st.integers(0, 4)) == 0:
        ids[draw(st.integers(1, n - 1))] = ids[0]
    numbers = st.floats(-3, 6, allow_nan=False, width=32)
    jobs = []
    for job_id, m, pos in zip(ids, machines, positions):
        t1 = draw(numbers)
        jobs.append(WindowJob(
            job_id, draw(st.sampled_from([0.0, -0.0, 0.5, 1.25]) | st.floats(0, 2)),
            t1, t1 + draw(st.floats(0.125, 3)), m, pos,
        ))
    weights = PenaltyWeights(*draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                                            min_size=2, max_size=2)))
    return jobs, weights


@given(window_cases())
@settings(max_examples=300, deadline=None)
def test_window_columns_equal_the_record_walks(case):
    jobs, weights = case
    expected = outcome(record_schedule_windows, jobs)
    for given_jobs in (jobs, tuple(jobs), WindowTable.of(jobs)):
        result = outcome(schedule_windows, given_jobs)
        if result[0] == "ok":
            r = result[1]
            result = ("ok", (r.starts, r.completions, list(r.infeasible_jobs)))
            assert r.feasible == (not r.infeasible_jobs)
        assert result == expected
        if expected[0] != "ok":
            continue
        assert list(result[1][1].items()) == list(expected[1][1].items())  # the order too
        completions = expected[1][1]
        for ours, theirs in ((penalty_sum, record_penalty_sum),
                             (penalty_max, record_penalty_max)):
            value = ours(given_jobs, completions, weights)
            assert type(value) is float
            assert repr(value) == repr(theirs(jobs, completions, weights))  # -0.0 too
    if jobs:
        missing = dict(list(expected[1][1].items())[1:]) if expected[0] == "ok" else {}
        assert outcome(penalty_sum, jobs, missing, weights) == outcome(
            record_penalty_sum, jobs, missing, weights
        )


def test_window_table_refuses_as_the_first_refused_record():
    rows = dict(id=("a", "b", "c"), p=[1.0, -1.0, 1.0], t1=[0.0, 0.0, 2.0],
                t2=[1.0, 1.0, 2.0], machine=[1, 1, 1], position=[1, 2, 3])
    with pytest.raises(ValueError, match="job b: negative processing time -1.0"):
        WindowTable(**rows)
    rows["p"][1] = 1.0
    with pytest.raises(ValueError, match=r"job c: window \[2.0, 2.0\] is empty"):
        WindowTable(**rows)


def test_window_table_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"^window job columns differ in length$"):
        WindowTable(("a", "b"), [1.0], [0.0], [2.0], [1], [1])


def test_window_machines_past_int64_keep_their_values():
    big = 2**70
    jobs = [WindowJob("a", 1.0, 0.0, 2.0, big, 1), WindowJob("b", 1.0, 0.0, 2.0, 3, 1)]
    table = WindowTable.of(jobs)
    assert [machine for machine, _rows in table.sequences()] == [3, big]
    assert tuple(table) == tuple(jobs)
    assert schedule_windows(jobs).completions == {"b": 1.0, "a": 1.0}


# --- records only on request ------------------------------------------------------

def _bulk_file(tmp_path):
    doc = modular_document(1, **SMOKE)
    path = tmp_path / "bulk.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_valid_bulk_file_builds_no_job_records(tmp_path, monkeypatch):
    path = _bulk_file(tmp_path)
    built = Counter()
    for kind in (CompositeJob, WindowJob):
        init = kind.__init__

        def counted(self, *args, _init=init, _name=kind.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(kind, "__init__", counted)
    f = load_instance(path)
    assert type(f.jobs) is JobTable and type(f.window_jobs) is WindowTable
    instance = validate_instance(f.universe, f.jobs, f.processors, f.grid)
    assert instance.jobs.table is f.jobs
    runner = CliRunner()
    for command in ("validate", "evaluate", "balance"):
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 0, result.output
    assert built == Counter()
    assert f.jobs[0].id == f.jobs.ids[0]  # built on request
    assert built == Counter({"CompositeJob": 1})


def test_a_command_maps_its_placements_once(tmp_path, monkeypatch):
    path = _bulk_file(tmp_path)
    lanes = []
    of = SlotLane.of.__func__
    monkeypatch.setattr(SlotLane, "of", classmethod(
        lambda cls, pairs: lanes.append(pairs) or of(cls, pairs)))
    processors = load_instance(path).schedule.processors
    for command in ("validate", "evaluate", "balance"):
        lanes.clear()
        assert CliRunner().invoke(main, [command, str(path)]).exit_code == 0
        assert len(lanes) == len(processors)
        assert all(type(lane) is SlotLane for lane in lanes)


@pytest.mark.parametrize("starts, kind", [
    ([], np.int64), ([0, 2**62 - 1, 1 - 2**62], np.int64),
    ([3, 2**62], object), ([-(2**62), 3], object), ([2**63 - 1], object),
])
def test_a_lane_takes_an_int64_column_as_given_and_bounds_it(starts, kind):
    column = np.array(starts, dtype=np.int64)
    lane, from_ints = SlotLane(("j",) * len(starts), column), SlotLane(("j",) * len(starts), starts)
    assert lane.starts.dtype == from_ints.starts.dtype == kind
    assert (lane.starts is column) is (kind is np.int64)
    assert lane.starts.tolist() == starts and lane == from_ints
    assert {type(start) for start in lane.starts.tolist()} <= {int}


def test_table_columns_are_read_only(tmp_path):
    f = load_instance(_bulk_file(tmp_path))
    columns = [f.jobs.offsets, f.jobs.codes, f.jobs.lengths, f.schedule.placements["P01"].starts]
    columns += [getattr(f.window_jobs, name) for name in ("p", "t1", "t2", "machine", "position")]
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


def test_loaded_tables_equal_and_save_as_their_records(tmp_path):
    f = load_instance(_bulk_file(tmp_path))
    pairs = {proc: tuple(lane) for proc, lane in f.schedule.placements.items()}
    records = dataclasses.replace(f, jobs=tuple(f.jobs), window_jobs=tuple(f.window_jobs),
                                  schedule=dataclasses.replace(f.schedule, placements=pairs))
    assert records == f and f == records
    assert instance_to_dict(records) == instance_to_dict(f)
    for name, instance in (("records", records), ("loaded", f)):
        save_instance(instance, tmp_path / name)
    assert (tmp_path / "records").read_bytes() == (tmp_path / "loaded").read_bytes()


# --- the pinned lines of the error paths ------------------------------------------

def _unknown_and_duplicate(doc):
    doc["modular"]["jobs"][0]["chain"][1] = "zz"
    doc["modular"]["jobs"][2]["id"] = "j00002"


def _overlap(doc):
    doc["modular"]["schedule"]["placements"]["P01"][1][1] = 3


def _empty_window(doc):
    doc["window_jobs"][3]["t2"] = doc["window_jobs"][3]["t1"]


def _set(*path_and_value):
    """A defect that sets the value at a path into the document."""
    *path, value = path_and_value

    def defect(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return defect


EMPTY_WINDOW = "error: /window_jobs/3: job w01-004: window [4.14, 4.14] is empty"
LANES = ("modular", "schedule", "placements")


@pytest.mark.parametrize("defects, lines", [
    ([_unknown_and_duplicate], [
        "invalid: job j00001: unknown element type 'zz'",
        "invalid: job j00002: duplicate id",
    ]),
    ([_overlap], ["invalid: processor P01: jobs j00001 and j00002 overlap"]),
    ([_set(*LANES, "P03", 1, ["j00001", 9])], ["invalid: job j00001: placed more than once"]),
    ([_set(*LANES, "P03", 0, 1, -1)], ["invalid: job j00007: negative start slot -1"]),
    ([_set(*LANES, "P03", 1, 1, 20)],
     ["invalid: processor P03: job j00008 ends at slot 31 beyond horizon 24"]),
    ([_set(*LANES, "P04", 1, 0, "j99999")],
     ["invalid: processor P04: unknown job id 'j99999'"]),
    ([_set("modular", "jobs", 4, "chain", [])], ["invalid: job j00005: empty chain"]),
    ([_set("modular", "jobs", 5, "chain", 0, "idle")],
     ["invalid: job j00006: idle element in chain"]),
    # a bad instance is reported without its schedule
    ([_unknown_and_duplicate, _overlap], [
        "invalid: job j00001: unknown element type 'zz'",
        "invalid: job j00002: duplicate id",
    ]),
    ([_empty_window], [EMPTY_WINDOW]),
    # a schema error stops the run before validation
    ([_unknown_and_duplicate, _overlap, _empty_window], [EMPTY_WINDOW]),
], ids=["unknown-and-duplicate", "overlap", "placed-twice", "negative-start", "past-horizon",
        "unknown-id", "empty-chain", "idle-element", "instance-first", "empty-window", "all-four"])
@pytest.mark.parametrize("command", ["validate", "evaluate", "balance"])
def test_error_paths_keep_their_lines(tmp_path, command, defects, lines):
    doc = modular_document(1, **SMOKE)
    for defect in defects:
        defect(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [command, str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == lines


def test_a_grid_too_large_to_tally_is_one_error_line(tmp_path):
    # numpy refuses the 43.7 TiB count array at once: nothing is allocated
    doc = instance_to_dict(build_fixture("modular-demo"))
    doc["modular"]["grid"]["k"] = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["balance", str(path)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [
        "error: grid of 1000000000000 intervals is too large to tally"
    ]
