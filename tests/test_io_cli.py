"""Instance files, CSV exports, text rendering, and the command line."""

import contextlib
import dataclasses
import gc
import io
import json
import random
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched import fileio
from balsched.cli import main
from balsched.core import (
    CompositeJob, ElementUniverse, JobTable, SlotLane, SlotSchedule, TimeGrid, ValidationError,
)
from balsched.fileio import (
    InstanceFile,
    SchemaError,
    comparison_report,
    export_balance_curve,
    export_comparison_csv,
    export_requirements_csv,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    render_gantt,
    save_instance,
)
from balsched.fixtures import build_fixture, list_fixtures
from balsched.homebuilding import (
    DETAIL_TYPES,
    FLOOR_TYPES,
    RATE_BASES,
    Building,
    BuildingTable,
    BuildingType,
    Project,
    RequirementTable,
    SectionType,
    TeamSchedule,
    horizon_requirement_table,
)
from balsched.improve import ImproveParams
from balsched.jit import PenaltyWeights, WindowJob, WindowTable
from oracles import cell_gantt
from synthetic import synthetic_document


# --- schema ------------------------------------------------------------------

def test_fixture_files_round_trip_to_identical_bytes(tmp_path):
    for name in list_fixtures():
        instance = build_fixture(name)
        first = tmp_path / f"{name}.json"
        second = tmp_path / f"{name}.again.json"
        save_instance(instance, first)
        save_instance(load_instance(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert load_instance(first) == instance


def test_saved_file_is_canonical_json(tmp_path):
    path = tmp_path / "f.json"
    save_instance(build_fixture("modular-demo"), path)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["format_version"] == 1
    assert data["mode"] == "modular"
    # canonical form: keys sorted at every level
    assert list(data) == sorted(data)


def test_mode_block_exclusivity():
    base = instance_to_dict(build_fixture("modular-demo"))
    base["homebuilding"] = {"project": {}}
    with pytest.raises(SchemaError) as err:
        instance_from_dict(base)
    assert any(
        issue.startswith("/homebuilding: must not be populated")
        for issue in err.value.issues
    )


def test_schema_issues_use_pointer_paths():
    with pytest.raises(SchemaError) as err:
        instance_from_dict({"mode": "modular", "format_version": 1, "modular": {}})
    issues = err.value.issues
    assert all(issue.startswith("/modular/") for issue in issues)
    assert any("universe" in issue for issue in issues)


def test_unknown_mode_and_version():
    with pytest.raises(SchemaError) as err:
        instance_from_dict({"mode": "sideways", "format_version": 3})
    text = "; ".join(err.value.issues)
    assert "/mode" in text and "/format_version" in text


def test_invalid_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "modular",\n  "format_version": }\n')
    with pytest.raises(SchemaError) as err:
        load_instance(path)
    assert "invalid JSON at line 2" in err.value.issues[0]


def test_deeply_nested_json_is_a_schema_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SchemaError) as err:
        load_instance(path)
    assert err.value.issues == ["/: invalid JSON: nested too deeply"]


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_instance(tmp_path / "absent.json")


def _random_modular_instance(rng: random.Random) -> InstanceFile:
    n_types = rng.randint(1, 4)
    types = tuple(f"e{i}" for i in range(1, n_types + 1)) + ("idle",)
    universe = ElementUniverse(types=types, idle_index=n_types)
    jobs = []
    for j in range(rng.randint(1, 5)):
        chain = tuple(
            rng.choice(types[:-1]) for _ in range(rng.randint(1, 4))
        )
        jobs.append(CompositeJob(id=f"j{j}", chain=chain))
    processors = tuple(f"P{i}" for i in range(1, rng.randint(1, 3) + 1))
    grid = TimeGrid(interval_len_slots=rng.randint(1, 4), k=rng.randint(1, 5))
    placements = {}
    slot_cursor = {p: 0 for p in processors}
    for job in jobs:
        if rng.random() < 0.3:
            continue  # leave some jobs unplaced
        p = rng.choice(processors)
        at = slot_cursor[p] + rng.randint(0, 2)
        if at + job.length > grid.horizon_slots:
            continue
        placements.setdefault(p, []).append((job.id, at))
        slot_cursor[p] = at + job.length
    schedule = SlotSchedule(
        processors=processors,
        placements={p: tuple(v) for p, v in placements.items()},
        horizon_slots=grid.horizon_slots,
    )
    window_jobs = None
    weights = None
    if rng.random() < 0.5:
        window_jobs = tuple(
            WindowJob(
                id=f"w{i}",
                processing_time=round(rng.uniform(0.1, 1.0), 2),
                t1=round(i * 1.0, 2),
                t2=round(i * 1.0 + rng.uniform(1.0, 2.0), 2),
                machine=1,
                position=i + 1,
            )
            for i in range(rng.randint(1, 4))
        )
        weights = PenaltyWeights(
            alpha=round(rng.uniform(0, 2), 2), beta=round(rng.uniform(0, 2), 2)
        )
    reference = None
    threshold = None
    if rng.random() < 0.5:
        capacity = grid.interval_len_slots * len(processors)
        counts = [0] * len(types)
        for _ in range(capacity):
            counts[rng.randrange(len(types))] += 1
        reference = tuple(counts)
        threshold = rng.randint(0, 30)
    return InstanceFile(
        mode="modular",
        universe=universe,
        jobs=tuple(jobs),
        processors=processors,
        grid=grid,
        schedule=schedule,
        reference_profile=reference,
        proximity_threshold=threshold,
        window_jobs=window_jobs,
        penalty_weights=weights,
    )


def test_random_instances_round_trip(tmp_path):
    rng = random.Random(99)
    for i in range(200):
        instance = _random_modular_instance(rng)
        path = tmp_path / f"r{i}.json"
        save_instance(instance, path)
        again = load_instance(path)
        assert again == instance, f"instance {i} changed in flight"


def test_dict_round_trip_without_files():
    for name in list_fixtures():
        instance = build_fixture(name)
        assert instance_from_dict(instance_to_dict(instance)) == instance


def test_files_with_the_dropped_catalogue_key_still_load():
    data = instance_to_dict(build_fixture("kope-1982"))
    data["homebuilding"]["correction_groups"] = [
        {"index": 1, "targets": ["a6"], "variants": [{"kind": "none"}]}
    ]
    assert instance_from_dict(data) == build_fixture("kope-1982")


def _integral_as_ints(doc):
    """doc with every whole section-row value and team start written as a
    JSON integer."""
    block = doc["homebuilding"]
    as_int = lambda v: int(v) if v == int(v) else v  # noqa: E731
    for rows in block["section_types"].values():
        for floor, row in rows.items():
            rows[floor] = list(map(as_int, row))
    for lane in block["team_schedule"]["assignments"].values():
        lane[:] = [[b, as_int(start)] for b, start in lane]
    return doc


def _bulk_documents():
    """Parsed JSON of every fixture, of kope with whole numbers written as
    integers, of a 36-building synthetic project and of 100 random
    modular instances."""
    rng = random.Random(7)
    docs = [instance_to_dict(build_fixture(name)) for name in list_fixtures()]
    docs.append(_integral_as_ints(json.loads(json.dumps(docs[list_fixtures().index("kope-1982")]))))
    docs.append(synthetic_document(36, 4, 1))
    docs += [instance_to_dict(_random_modular_instance(rng)) for _ in range(100)]
    return [json.loads(json.dumps(doc)) for doc in docs]


def test_fast_pass_equals_the_path_tracking_readers(monkeypatch):
    docs = _bulk_documents()
    fast = [instance_from_dict(doc) for doc in docs]
    for name in ("_job_table", "_slot_lane", "_window_table", "_section_types",
                 "_building_table", "_team_lane"):  # all fall back
        monkeypatch.setattr(fileio, name, lambda *args: None)
    slow = [instance_from_dict(doc) for doc in docs]
    assert slow == fast
    # the fast passes read JSON integers as floats, as _float does
    for f in fast:
        if f.mode == "homebuilding":
            assert {type(v) for section in f.project.section_types.values()
                    for row in section.detail_matrix for v in row} == {float}
            assert {type(start) for _t, _b, start in f.team_schedule.placements()} <= {float}
    assert all(type(f.jobs) is tuple for f in slow if f.mode == "modular")
    lanes = [(s.schedule.placements, f.schedule.placements)
             for s, f in zip(slow, fast) if f.mode == "modular"]
    assert any(placements for placements, _ in lanes)
    assert all(type(lane) is tuple for placements, _ in lanes for lane in placements.values())
    assert all(type(lane) is SlotLane for _, placements in lanes for lane in placements.values())
    # Project turns the fallback's records into a table too
    assert all(type(f.project.buildings) is BuildingTable for f in slow if f.project)
    assert all(type(f.jobs) is JobTable for f in fast if f.mode == "modular")
    assert all(type(f.window_jobs) is WindowTable for f in fast if f.window_jobs)


def test_fast_pass_is_taken_on_valid_files(monkeypatch, tmp_path):
    docs = _bulk_documents()
    modular = [doc["modular"] for doc in docs if doc["mode"] == "modular"]
    assert any(block["jobs"] for block in modular)
    assert any(any(block["schedule"]["placements"].values()) for block in modular)
    assert any(doc.get("window_jobs") for doc in docs)
    homebuilding = [doc["homebuilding"] for doc in docs if doc["mode"] == "homebuilding"]
    assert any(type(v) is int for block in homebuilding for rows in block["section_types"].values()
               for row in rows.values() for v in row)
    assert any(type(start) is int for block in homebuilding
               for lane in block["team_schedule"]["assignments"].values() for _b, start in lane)
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(doc))
    expected = [instance_from_dict(doc) for doc in docs]

    def refuse(*args):
        raise AssertionError("a path-tracking reader ran on a valid file")
    for name in ("_job", "_slot", "_window_job", "_detail_row", "_building", "_start"):
        monkeypatch.setattr(fileio, name, refuse)
    assert [load_instance(path) for path in paths] == expected


def _rows(hb, section="g1"):
    return hb["section_types"][section]


def _lane(hb, team="P2"):
    return hb["team_schedule"]["assignments"][team]


# (edit of kope's homebuilding block, whether the file stays valid)
FAST_PASS_DEFECTS = {
    "int value": (lambda hb: _rows(hb)["r2"].__setitem__(0, 19), True),
    "bool value": (lambda hb: _rows(hb)["r2"].__setitem__(1, True), False),
    "int past the float range": (lambda hb: _rows(hb)["r2"].__setitem__(2, 10**400), False),
    "row of 7": (lambda hb: _rows(hb)["r3"].pop(), False),
    "row of 9": (lambda hb: _rows(hb)["r3"].append(1.0), False),
    "missing floor": (lambda hb: _rows(hb).pop("r4"), False),
    "null floor": (lambda hb: _rows(hb).__setitem__("r4", None), False),
    "extra key": (lambda hb: _rows(hb).__setitem__("r9", [1.0] * 8), True),
    "negative entry": (lambda hb: _rows(hb)["r1"].__setitem__(2, -1.0), False),
    "row no list": (lambda hb: _rows(hb).__setitem__("r5", "x"), False),
    "section type no object": (lambda hb: hb["section_types"].__setitem__("g2", []), False),
    "two bad section types": (lambda hb: (_rows(hb, "g2")["r8"].pop(),
                                          _rows(hb)["r1"].__setitem__(0, False)), False),
    "int start": (lambda hb: _lane(hb)[0].__setitem__(1, 3), True),
    "bool start": (lambda hb: _lane(hb)[0].__setitem__(1, True), False),
    "start past the float range": (lambda hb: _lane(hb)[1].__setitem__(1, -10**400), False),
    "entry no list": (lambda hb: _lane(hb).__setitem__(0, {"a4": 1.0}), False),
    "entry a string": (lambda hb: _lane(hb).__setitem__(0, "a4"), False),
    "entry of 3 items": (lambda hb: _lane(hb)[0].append(1.0), False),
    "entry of 1 item": (lambda hb: _lane(hb)[0].pop(), False),
    "non-string id": (lambda hb: _lane(hb)[0].__setitem__(0, 4), False),
    "lane no list": (lambda hb: hb["team_schedule"]["assignments"].__setitem__("P3", {}), False),
    "two bad lanes": (lambda hb: (_lane(hb, "P3")[0].__setitem__(1, None),
                                  _lane(hb)[1].__setitem__(0, None)), False),
}


@pytest.mark.parametrize("name", list(FAST_PASS_DEFECTS))
def test_fast_pass_refusals_equal_the_path_tracking_readers(monkeypatch, name):
    edit, valid = FAST_PASS_DEFECTS[name]
    doc = json.loads(json.dumps(instance_to_dict(build_fixture("kope-1982"))))
    edit(doc["homebuilding"])

    def read():
        try:
            return instance_from_dict(json.loads(json.dumps(doc)))
        except SchemaError as exc:
            return exc.issues
    fast = read()
    for fast_pass in ("_section_types", "_team_lane"):
        monkeypatch.setattr(fileio, fast_pass, lambda *args: None)
    assert read() == fast
    assert isinstance(fast, InstanceFile) is valid, fast


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, error", [
    (json.dumps(instance_to_dict(build_fixture("jit-windows"))), None),
    ('{"mode": "modular",', SchemaError),
    ('{"mode": "modular", "format_version": 1, "modular": {}}', SchemaError),
    (None, OSError),
], ids=["valid", "invalid-json", "schema-error", "missing-file"])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled, text, error):
    path = tmp_path / "f.json"
    if text is not None:
        path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            load_instance(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


amounts = st.floats(0.0, 1e4, allow_nan=False)
positive = st.floats(0.01, 60.0)


def counts_over(keys):
    """A count for some of keys, at least one of them positive."""
    return st.dictionaries(st.sampled_from(keys), st.integers(0, 30), min_size=1).filter(
        lambda counts: sum(counts.values()) >= 1
    )


@st.composite
def window_payloads(draw):
    """(window_jobs, penalty_weights), each present or None."""
    jobs = None
    if draw(st.booleans()):
        jobs = []
        for i in range(draw(st.integers(1, 4))):
            t1 = draw(amounts)
            jobs.append(WindowJob(
                id=f"w{i}", processing_time=draw(amounts), t1=t1,
                t2=t1 + draw(positive), machine=draw(st.integers(1, 3)),
                position=draw(st.integers(1, 4)),
            ))
        jobs = tuple(jobs)
    weights = draw(st.none() | st.builds(PenaltyWeights, amounts, amounts))
    return jobs, weights


@st.composite
def homebuilding_instances(draw):
    section_ids = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
    section_types = {
        sid: SectionType(sid, tuple(
            tuple(draw(st.lists(amounts, min_size=8, max_size=8))) for _ in FLOOR_TYPES
        ))
        for sid in section_ids
    }
    building_types = {
        tid: BuildingType(tid, draw(counts_over(FLOOR_TYPES)))
        for tid in ("18-floor", "22-floor")[: draw(st.integers(1, 2))]
    }
    buildings = {}
    for i in range(draw(st.integers(1, 5))):
        square = draw(st.none() | amounts)  # None: left at its default
        buildings[f"a{i}"] = Building(
            f"a{i}", draw(st.sampled_from(sorted(building_types))),
            draw(counts_over(section_ids)), draw(positive), draw(amounts),
            **({} if square is None else {"general_square": square}),
        )
    teams = tuple(f"P{i}" for i in range(draw(st.integers(2, 4))))
    lanes = {team: [] for team in teams}
    for bid in buildings:  # the first team's lane stays empty
        lanes[draw(st.sampled_from(teams[1:]))].append((bid, draw(amounts)))
    reference = None
    if draw(st.booleans()):
        details = draw(st.sampled_from([DETAIL_TYPES, ("d1", "d3")]))
        months = tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=4)))
        row = st.lists(amounts, min_size=len(details), max_size=len(details)).map(tuple)
        reference = RequirementTable(months, tuple(draw(row) for _ in months), details)
    jobs, weights = draw(window_payloads())
    return InstanceFile(
        mode="homebuilding",
        project=Project(
            section_types, building_types, buildings, draw(st.integers(1, 40)),
            draw(st.sampled_from(RATE_BASES)),
        ),
        team_schedule=TeamSchedule(teams, {t: tuple(lane) for t, lane in lanes.items()}),
        capacity=draw(st.none() | st.dictionaries(st.sampled_from(DETAIL_TYPES), amounts)),
        improve_params=draw(st.none() | st.builds(ImproveParams, amounts, st.integers(0, 20))),
        reference_requirements=reference,
        window_jobs=jobs,
        penalty_weights=weights,
    )


@given(st.randoms(use_true_random=False).map(_random_modular_instance)
       | homebuilding_instances())
@settings(max_examples=100, deadline=None)
def test_both_modes_round_trip_and_save_byte_stable(tmp_path_factory, instance):
    assert instance_from_dict(instance_to_dict(instance)) == instance
    work = tmp_path_factory.mktemp("round-trip")
    first, second = work / "first.json", work / "second.json"
    save_instance(instance, first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


# --- CSV exports ---------------------------------------------------------------

@pytest.fixture(scope="module")
def kope_table():
    f = build_fixture("kope-1982")
    return f, horizon_requirement_table(f.project, f.team_schedule)


def test_requirements_csv_layout(tmp_path, kope_table):
    _, table = kope_table
    path = tmp_path / "req.csv"
    export_requirements_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "month,d1,d2,d3,d4,d5,d6,d7,d8"
    assert len(lines) == 20
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "124.00"  # two decimals everywhere


def test_balance_curve_csv(tmp_path, kope_table):
    _, table = kope_table
    path = tmp_path / "curve.csv"
    export_balance_curve(table, 1480.0, "d1", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "month,required,capacity,violation"
    month12 = lines[12].split(",")
    assert month12 == ["12", "1934.60", "1480.00", "454.60"]
    month1 = lines[1].split(",")
    assert month1[3] == "0.00"


def test_balance_curve_rejects_unknown_detail(tmp_path, kope_table):
    _, table = kope_table
    with pytest.raises(ValueError, match="unknown detail"):
        export_balance_curve(table, 10.0, "d99", tmp_path / "x.csv")


def test_balance_curve_rejects_unbounded_capacity(tmp_path, kope_table):
    _, table = kope_table
    # an unconstrained detail has capacity +inf, which is not plottable
    with pytest.raises(ValueError, match="capacity"):
        export_balance_curve(table, float("inf"), "d2", tmp_path / "x.csv")


def test_balance_curve_rejects_negative_capacity(tmp_path, kope_table):
    _, table = kope_table
    with pytest.raises(ValueError, match="negative capacity"):
        export_balance_curve(table, -5.0, "d1", tmp_path / "x.csv")
    export_balance_curve(table, 0.0, "d1", tmp_path / "zero.csv")
    assert (tmp_path / "zero.csv").read_text().splitlines()[12] == "12,1934.60,0.00,1934.60"


# --- comparison report -----------------------------------------------------------

def test_comparison_report_complete_grid(kope_table):
    f, table = kope_table
    rows = comparison_report(table, f.reference_requirements)
    assert len(rows) == 19 * 8
    seen = {(r.month, r.detail) for r in rows}
    assert len(seen) == 152


def test_comparison_report_month1_d2(kope_table):
    f, table = kope_table
    rows = comparison_report(table, f.reference_requirements)
    row = next(r for r in rows if r.month == 1 and r.detail == "d2")
    assert row.computed == pytest.approx(124.0)
    assert row.reference == pytest.approx(122.0)
    assert row.rel_deviation == pytest.approx(2.0 / 122.0)


def test_comparison_report_matches_cells_by_detail_name(kope_table):
    f, table = kope_table
    reference = RequirementTable(months=(1,), values=((70.0,),), details=("d3",))
    (row,) = comparison_report(table, reference)
    assert (row.month, row.detail) == (1, "d3")
    assert round(row.computed, 2) == 69.67  # d1 of month 1 is 89.11
    assert row.computed == table.row(1)[2]


def test_comparison_report_names_what_the_computed_table_lacks(kope_table):
    _f, table = kope_table
    reference = RequirementTable(
        months=(1, 20, 21), values=((1.0, 1.0),) * 3, details=("d9", "d2")
    )
    with pytest.raises(ValueError, match="^computed table lacks month 20, month 21, detail d9$"):
        comparison_report(table, reference)


def test_reference_with_an_unknown_detail_is_one_schema_issue():
    data = instance_to_dict(build_fixture("kope-1982"))
    data["homebuilding"]["reference_requirements"]["details"][2] = "d9"
    with pytest.raises(SchemaError) as err:
        instance_from_dict(data)
    assert err.value.issues == [
        "/homebuilding/reference_requirements/details/2: unknown detail type"
    ]


def test_comparison_rel_deviation_edge_cases():
    table = RequirementTable(
        months=(1,), values=((0.0, 3.0),), details=("d1", "d2")
    )
    reference = RequirementTable(
        months=(1,), values=((0.0, 0.0),), details=("d1", "d2")
    )
    rows = comparison_report(table, reference)
    assert rows[0].rel_deviation == 0.0  # both sides zero
    assert rows[1].rel_deviation == float("inf")  # only the reference is zero


def test_comparison_csv_format(tmp_path, kope_table):
    f, table = kope_table
    rows = comparison_report(table, f.reference_requirements)
    path = tmp_path / "cmp.csv"
    export_comparison_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "month,detail,computed,reference,rel_deviation_pct"
    assert len(lines) == 153


# --- gantt -------------------------------------------------------------------

def test_gantt_layout(kope_table):
    f, _ = kope_table
    text = render_gantt(f.project, f.team_schedule)
    lines = text.splitlines()
    assert lines[0].startswith("team")
    assert lines[0].split() == ["team"] + [str(m) for m in range(1, 20)]
    assert len(lines) == 1 + 8  # header + teams
    assert text.endswith("\n")
    p3 = next(line for line in lines if line.startswith("P3"))
    cells = p3.split()[1:]
    # a1 spans months 1..9, a6 months 10..12
    assert cells[:9] == ["a1"] * 9
    assert cells[9:12] == ["a6"] * 3
    assert cells[12:] == ["."] * 7


def test_gantt_contested_month_goes_to_first_painter(kope_table):
    f, _ = kope_table
    lines = render_gantt(f.project, f.team_schedule).splitlines()
    p2 = next(line for line in lines if line.startswith("P2"))
    cells = p2.split()[1:]
    # a4 ends at 11.8 and a7 begins there; both round onto month 12,
    # the earlier placement keeps the cell
    assert cells[11] == "a4"
    assert cells[12] == "a7"


def test_gantt_empty_team_row(kope_table):
    f, _ = kope_table
    lines = render_gantt(f.project, f.team_schedule).splitlines()
    p1 = next(line for line in lines if line.startswith("P1"))
    assert set(p1.split()[1:]) == {"."}


@st.composite
def gantt_cases(draw):
    """(project, schedule, durations, assignments): kope's first building
    under ids of mixed widths (one may be "."), on lanes where a start may
    sit on an earlier end, past the horizon or nowhere (an empty team)."""
    kope = build_fixture("kope-1982").project
    template = kope.buildings["a1"]
    horizon = draw(st.integers(1, 30))
    ids = draw(st.lists(st.text(".ab7", min_size=1, max_size=7), max_size=12, unique=True))
    teams = [f"T{i}" for i in range(draw(st.integers(1, 4)))]
    durations, assignments, ends = {}, {}, [0.0, horizon - 0.5]
    for building_id in ids:
        durations[building_id] = draw(st.floats(0.1, 12.0) | st.sampled_from((0.5, 1.0, 6.2)))
        start = draw(st.floats(0.0, horizon + 5.0) | st.sampled_from(ends))
        ends.append(start + durations[building_id])
        assignments.setdefault(draw(st.sampled_from(teams)), []).append((building_id, start))
    buildings = {b: Building(b, template.building_type, dict(template.section_counts), d, 0.0)
                 for b, d in durations.items()}
    project = Project(kope.section_types, kope.building_types, buildings, horizon)
    schedule = TeamSchedule(tuple(teams), {t: tuple(lane) for t, lane in assignments.items()})
    return project, schedule, durations, assignments


@given(gantt_cases())
@settings(max_examples=200, deadline=None)
def test_gantt_equals_the_cell_by_cell_chart(case):
    project, schedule, durations, assignments = case
    assert render_gantt(project, schedule) == cell_gantt(
        project.horizon_months, durations, schedule.teams, assignments)


# --- CLI ---------------------------------------------------------------------

@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def emitted(tmp_path, runner):
    paths = {}
    for name in list_fixtures():
        out = tmp_path / f"{name}.json"
        result = runner.invoke(main, ["fixtures", "emit", name, "--out", str(out)])
        assert result.exit_code == 0, result.output
        paths[name] = out
    return paths


def test_cli_fixtures_list(runner):
    result = runner.invoke(main, ["fixtures", "list"])
    assert result.exit_code == 0
    assert result.output.split() == ["jit-windows", "kope-1982", "modular-demo"]


def test_cli_in_process_run_releases_captured_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["fixtures", "list"], standalone_mode=False)
    assert out.getvalue().split() == list_fixtures()
    captured = weakref.ref(out)
    del out
    gc.collect()
    assert captured() is None

def test_cli_fixtures_emit_unknown_name(runner):
    result = runner.invoke(main, ["fixtures", "emit", "nope"])
    assert result.exit_code == 2


def test_cli_validate_ok(runner, emitted):
    for path in emitted.values():
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert result.output == "OK\n"


def test_cli_validate_rejects_broken_schedule(runner, tmp_path, emitted):
    data = json.loads(emitted["kope-1982"].read_text())
    rows = data["homebuilding"]["team_schedule"]["assignments"]["P3"]
    rows[1][1] = 5.0  # a6 now starts inside a1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert "overlap" in result.output


def test_cli_refuses_a_schedule_processor_the_instance_lacks(runner, tmp_path, emitted):
    data = json.loads(emitted["modular-demo"].read_text())
    data["modular"]["schedule"]["processors"].append("ghost")
    bad = tmp_path / "ghost.json"
    bad.write_text(json.dumps(data))
    for command in ("validate", "evaluate", "balance"):
        result = runner.invoke(main, [command, str(bad)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["invalid: schedule: unknown processor 'ghost'"]


def test_cli_validate_schema_error_exit_1(runner, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"mode": "modular", "format_version": 1, "modular": {}}')
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_cli_validate_missing_file_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["validate", str(tmp_path / "absent.json")])
    assert result.exit_code == 2


def test_cli_evaluate_modular(runner, emitted):
    result = runner.invoke(main, ["evaluate", str(emitted["modular-demo"])])
    assert result.exit_code == 0
    assert "makespan: 4" in result.output


def test_cli_evaluate_windows(runner, emitted):
    result = runner.invoke(main, ["evaluate", str(emitted["jit-windows"])])
    assert result.exit_code == 0
    assert "window jobs: feasible" in result.output
    assert "penalty sum: 0.00" in result.output


def test_cli_evaluate_homebuilding(runner, emitted):
    result = runner.invoke(main, ["evaluate", str(emitted["kope-1982"])])
    assert result.exit_code == 0
    assert "d1: 1934.60 (month 12)" in result.output
    assert "team" in result.output  # gantt header


def test_cli_balance_modular(runner, emitted):
    result = runner.invoke(main, ["balance", str(emitted["modular-demo"])])
    assert result.exit_code == 0
    assert "interval deltas: 4 4 4 15" in result.output
    assert "balance: satisfied" in result.output


def test_cli_balance_homebuilding(runner, emitted):
    result = runner.invoke(main, ["balance", str(emitted["kope-1982"])])
    assert result.exit_code == 0
    assert "violated months: 11 12 13" in result.output


def test_cli_improve_writes_balanced_schedule(runner, tmp_path, emitted):
    out = tmp_path / "improved.json"
    result = runner.invoke(
        main, ["improve", str(emitted["kope-1982"]), "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "stop: balanced" in result.output
    follow_up = runner.invoke(main, ["balance", str(out)])
    assert follow_up.exit_code == 0
    assert "balance: satisfied" in follow_up.output


def test_cli_improve_out_keeps_every_other_field(runner, tmp_path, emitted):
    data = json.loads(emitted["kope-1982"].read_text())
    data["window_jobs"] = [
        {"id": "w1", "processing_time": 1.0, "t1": 0.0, "t2": 2.0}
    ]
    data["penalty_weights"] = {"alpha": 0.5, "beta": 2.0}
    source = tmp_path / "kope-windows.json"
    source.write_text(json.dumps(data))
    out = tmp_path / "improved.json"
    result = runner.invoke(main, ["improve", str(source), "--out", str(out)])
    assert result.exit_code == 0
    before, after = load_instance(source), load_instance(out)
    assert after.team_schedule != before.team_schedule
    assert after == dataclasses.replace(before, team_schedule=after.team_schedule)


def readme_transcript(command):
    """Output lines README.md shows under ``$ <command>`` in a console block."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    at = lines.index(f"$ {command}") + 1
    end = lines.index("", at)
    return lines[at:end]


def test_cli_improve_matches_readme_transcript(runner, tmp_path, emitted):
    expected = readme_transcript("balsched improve kope.json --out kope-fixed.json")
    out = tmp_path / "kope-fixed.json"
    result = runner.invoke(
        main, ["improve", str(emitted["kope-1982"]), "--out", str(out)]
    )
    assert result.exit_code == 0
    got = result.stdout.splitlines()
    assert expected[-1] == "wrote kope-fixed.json"
    assert got[-1] == f"wrote {out}"
    assert got[:-1] == expected[:-1]

@pytest.mark.parametrize(
    "key, item, value, line",
    [
        ("capacity", "d9", 5, "/homebuilding/capacity/d9: unknown detail type"),
        ("capacity", "d1", "abc", "/homebuilding/capacity/d1: expected a finite number"),
        ("capacity", "d1", float("nan"), "/homebuilding/capacity/d1: expected a finite number"),
        ("capacity", "d1", -5, "/homebuilding/capacity/d1: expected a non-negative number"),
        ("a1", "assembly_duration", float("nan"),
         "/homebuilding/buildings/a1/assembly_duration: expected a finite number"),
        ("a2", "start", float("inf"), "/homebuilding/buildings/a2/start: expected a finite number"),
        ("homebuilding", "building_types", [],
         "/homebuilding/building_types: expected an object"),
        ("team_schedule", "assignments", [],
         "/homebuilding/team_schedule/assignments: expected an object"),
        ("homebuilding", "horizon_months", 12.7,
         "/homebuilding/horizon_months: expected an integer"),
        ("homebuilding", "improve", [], "/homebuilding/improve: expected an object"),
        ("improve", "budget", -1, "/homebuilding/improve: budget must be non-negative"),
        ("improve", "max_iters", -1,
         "/homebuilding/improve: max_iters must be non-negative"),
    ],
)
def test_cli_improve_rejects_bad_numbers_with_one_error_line(
    runner, tmp_path, emitted, key, item, value, line
):
    data = json.loads(emitted["kope-1982"].read_text())
    block = data["homebuilding"]
    owner = block if key == "homebuilding" else block.get(key) or block["buildings"][key]
    owner[item] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["improve", str(bad)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: {line}"]


def test_cli_balance_accepts_zero_capacity(runner, tmp_path, emitted):
    data = json.loads(emitted["kope-1982"].read_text())
    data["homebuilding"]["capacity"] = {"d1": 0}
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(data))
    result = runner.invoke(main, ["balance", str(zero)])
    assert result.exit_code == 0
    assert "violated months: " + " ".join(map(str, range(1, 20))) in result.stdout


def test_cli_improve_treats_rounding_noise_at_zero_capacity_as_no_move(
    runner, tmp_path, emitted
):
    """A zero capacity divides by 1e-9, so V is about 1.4e13 and every
    move's profit is a few ulps of V: below the loop's relative threshold."""
    data = json.loads(emitted["kope-1982"].read_text())
    data["homebuilding"]["capacity"] = {"d1": 0}
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(data))
    result = runner.invoke(main, ["improve", str(zero)])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "iteration 1: V 14142999999999.9980 -> 14142999999999.9980 rejected; "
        "chosen: none (profit 0.0000, cost 0.00)",
        "stop: no improving selection",
        "final peak d1: 1934.60 (month 12)",
    ]


@pytest.mark.parametrize("option", ["--budget", "--max-iters"])
def test_cli_improve_rejects_negative_limits(runner, emitted, option):
    result = runner.invoke(main, ["improve", str(emitted["kope-1982"]), option, "-1"])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_improve_rejects_non_finite_budget(runner, emitted, value):
    result = runner.invoke(main, ["improve", str(emitted["kope-1982"]), "--budget", value])
    assert result.exit_code == 2
    assert "Invalid value for '--budget'" in result.stderr
    assert "stop:" not in result.output


def test_cli_improve_rejects_modular_instance(runner, emitted):
    result = runner.invoke(main, ["improve", str(emitted["modular-demo"])])
    assert result.exit_code == 1


def test_cli_improve_budget_zero_makes_no_changes(runner, emitted):
    result = runner.invoke(
        main, ["improve", str(emitted["kope-1982"]), "--budget", "0"]
    )
    assert result.exit_code == 0
    assert "stop: no improving selection" in result.output


def test_cli_improve_reports_balanced_when_the_last_allowed_iteration_balances(
    runner, emitted
):
    result = runner.invoke(main, ["improve", str(emitted["kope-1982"]), "--max-iters", "2"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        "iteration 1: V 0.7009 -> 0.3414 accepted; chosen: a3 -3d, exchange a4<->a6, "
        "a7 +3d, a9 +3d (profit 0.4191, cost 2.90)",
        "iteration 2: V 0.3414 -> 0.0000 accepted; chosen: exchange a1<->a5, "
        "exchange a2<->a7, a6 -3d, a8 +7d (profit 0.5466, cost 5.00)",
        "stop: balanced",
        "final peak d1: 1377.98 (month 10)",
    ]


def test_cli_report(runner, tmp_path, emitted):
    csv_path = tmp_path / "d1.csv"
    result = runner.invoke(
        main,
        [
            "report",
            str(emitted["kope-1982"]),
            "--detail",
            "d1",
            "--capacity",
            "1480",
            "--csv",
            str(csv_path),
        ],
    )
    assert result.exit_code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "month,required,capacity,violation"
    assert "peak d1: 1934.60 (month 12)" in result.output


def test_cli_report_unknown_detail(runner, tmp_path, emitted):
    result = runner.invoke(
        main,
        [
            "report",
            str(emitted["kope-1982"]),
            "--detail",
            "d99",
            "--capacity",
            "10",
            "--csv",
            str(tmp_path / "x.csv"),
        ],
    )
    assert result.exit_code == 1


def test_cli_report_refuses_negative_capacity(runner, tmp_path, emitted):
    csv_path = tmp_path / "x.csv"
    result = runner.invoke(
        main,
        ["report", str(emitted["kope-1982"]), "--detail", "d1", "--capacity", "-5",
         "--csv", str(csv_path)],
    )
    assert result.exit_code == 1
    assert result.stderr.splitlines() == ["error: negative capacity for detail 'd1'"]
    assert not csv_path.exists()


# --- malformed input -------------------------------------------------------------

FIXTURE_JSON = {
    name: json.dumps(instance_to_dict(build_fixture(name))) for name in list_fixtures()
}
DELETE = object()


def mutate(data, path, value):
    """Replace the value at ``path`` (a tuple of keys and indices) inside
    parsed JSON by ``value``, or remove it for DELETE."""
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    if value is DELETE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value


def mutant(name, path, value):
    """Fixture ``name`` as parsed JSON, with one value mutated."""
    data = json.loads(FIXTURE_JSON[name])
    mutate(data, path, value)
    return data


KOPE_REFERENCE_ROWS = json.loads(FIXTURE_JSON["kope-1982"])["homebuilding"][
    "reference_requirements"]["values"]


@pytest.mark.parametrize(
    "name, path, value, line",
    [
        ("modular-demo", ("modular", "jobs"), 5, "/modular/jobs: expected a list"),
        ("modular-demo", ("modular", "jobs", 0, "chain"), 5,
         "/modular/jobs/0/chain: expected a list"),
        ("modular-demo", ("modular", "reference_profile"), "233110",
         "/modular/reference_profile: expected a list"),
        ("modular-demo", ("modular", "grid", "k"), 2.7,
         "/modular/grid/k: expected an integer"),
        ("jit-windows", ("window_jobs",), 5, "/window_jobs: expected a list"),
        ("jit-windows", ("window_jobs", 1, "id"), "a1",
         "/window_jobs/1/id: duplicate id 'a1'"),
        ("kope-1982", ("homebuilding",), DELETE, "/homebuilding: missing"),
        # the next four are refused by the Project the loader builds
        ("kope-1982", ("homebuilding", "horizon_months"), 0,
         "/homebuilding: horizon_months must be positive"),
        ("kope-1982", ("homebuilding", "rate_basis"), "X",
         "/homebuilding: unknown rate basis 'X'; expected one of ('U-1', 'U')"),
        ("kope-1982", ("homebuilding", "buildings", "a1", "section_counts", "zz"), 1,
         "/homebuilding: building a1: unknown section type 'zz'"),
        ("kope-1982", ("homebuilding", "buildings", "a1", "building_type"), "nope",
         "/homebuilding: building a1: unknown building type 'nope'"),
        ("kope-1982", ("homebuilding", "building_types", "18-floor", "r2"), -1,
         "/homebuilding/building_types/18-floor: building type 18-floor: negative count for r2"),
        ("kope-1982", ("homebuilding", "team_schedule", "assignments", "P2"),
         [["a4", 7.0], ["a7", 11.8], ["a9"]],
         "/homebuilding/team_schedule/assignments/P2/2: expected [building id, start]"),
        ("kope-1982", ("homebuilding", "reference_requirements", "values"),
         KOPE_REFERENCE_ROWS[:-1],
         "/homebuilding/reference_requirements/values: expected one row per month"),
    ],
)
def test_malformed_input_is_one_schema_error(runner, tmp_path, name, path, value, line):
    data = mutant(name, path, value)
    with pytest.raises(SchemaError) as err:
        instance_from_dict(data)
    assert err.value.issues == [line]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"error: {line}"]


@pytest.mark.parametrize(
    "name, changes, issues",
    [
        ("modular-demo", {("modular", "jobs", 0, "chain"): None},
         ["/modular/jobs/0/chain: missing"]),
        ("modular-demo", {("modular", "schedule", "placements", "P2", 1, 1): 3.0},
         ["/modular/schedule/placements/P2/1: expected [job id, start slot]"]),
        ("jit-windows", {("window_jobs", 1, "machine"): True},
         ["/window_jobs/1/machine: expected an integer"]),
        ("jit-windows", {("window_jobs", 0, "t1"): 1.5},
         ["/window_jobs/0: job a1: window [1.5, 1.5] is empty"]),
        ("jit-windows", {("window_jobs", 3, "t1"): 9.0},
         ["/window_jobs/3: job a4: window [9.0, 5.0] is empty"]),
        ("modular-demo", {
            ("modular", "jobs", 0, "chain"): None,
            ("modular", "jobs", 3, "id"): 7,
            ("modular", "schedule", "placements", "P1", 1): ["a4b"],
            ("modular", "schedule", "placements", "P3", 0, 1): True,
        }, [
            "/modular/jobs/0/chain: missing",
            "/modular/jobs/3/id: expected a string",
            "/modular/schedule/placements/P1/1: expected [job id, start slot]",
            "/modular/schedule/placements/P3/0: expected [job id, start slot]",
        ]),
        # a refused entry still claims its id
        ("jit-windows", {
            ("window_jobs", 0, "t1"): 1.5,
            ("window_jobs", 1, "id"): "a1",
            ("window_jobs", 2, "processing_time"): -1,
            ("window_jobs", 3, "machine"): False,
        }, [
            "/window_jobs/0: job a1: window [1.5, 1.5] is empty",
            "/window_jobs/1/id: duplicate id 'a1'",
            "/window_jobs/2: job a3: negative processing time -1.0",
            "/window_jobs/3/machine: expected an integer",
        ]),
    ],
)
def test_a_bad_bulk_entry_reports_as_the_path_tracking_readers_do(name, changes, issues):
    data = json.loads(FIXTURE_JSON[name])
    for path, value in changes.items():
        mutate(data, path, value)
    with pytest.raises(SchemaError) as err:
        instance_from_dict(data)
    assert err.value.issues == issues


@pytest.mark.parametrize(
    "command, name, path, value, line",
    [
        ("balance", "modular-demo", ("modular", "reference_profile"), [1] * 6,
         "capacity mismatch: reference profile totals 6 but interval capacity is 9"),
        ("balance", "modular-demo", ("modular", "grid", "k"), 3,
         "grid shorter than horizon: 9 < 12"),
        *[(command, "jit-windows", ("window_jobs", 0, "position"), 9,
           "machine 1: positions must form 1..4 without gaps")
          for command in ("evaluate", "validate", "balance", "improve")],
    ],
)
def test_cli_domain_errors_are_one_error_line(
    runner, tmp_path, command, name, path, value, line
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutant(name, path, value)))
    result = runner.invoke(main, [command, str(bad)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [f"error: {line}"]


def test_cli_refuses_a_universe_of_only_the_idle_type(runner, tmp_path):
    universe = {"types": ["idle"], "idle_index": 0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutant("jit-windows", ("modular", "universe"), universe)))
    result = runner.invoke(main, ["validate", str(bad)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == ["invalid: universe: needs at least one non-idle type"]


@pytest.mark.parametrize("command", ["balance", "improve"])
def test_cli_refuses_a_homebuilding_file_without_capacity(runner, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutant("kope-1982", ("homebuilding", "capacity"), DELETE)))
    result = runner.invoke(main, [command, str(bad)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == ["error: instance has no capacity profile"]


WRITING = [
    ["improve", "@kope-1982", "--out", "{missing}"],
    ["report", "@kope-1982", "--detail", "d1", "--capacity", "1480", "--csv", "{missing}"],
    ["fixtures", "emit", "kope-1982", "--out", "{missing}"],
]


def _write_to(runner, emitted, args, target):
    argv = [str(emitted[arg[1:]]) if arg.startswith("@") else arg.format(missing=target)
            for arg in args]
    return runner.invoke(main, argv)


@pytest.mark.parametrize("args", WRITING)
def test_cli_refuses_to_write_into_a_missing_directory(runner, tmp_path, emitted, args):
    missing = tmp_path / "absent" / "out"
    result = _write_to(runner, emitted, args, missing)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [
        f"error: cannot write {missing}: No such file or directory"
    ]
    assert not missing.parent.exists()


@pytest.mark.parametrize("args", WRITING)
def test_cli_refuses_to_write_over_a_directory(runner, tmp_path, emitted, args):
    directory = tmp_path / "out"
    directory.mkdir()
    result = _write_to(runner, emitted, args, directory)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [f"error: cannot write {directory}: Is a directory"]
    assert list(directory.iterdir()) == []


REPORT = ["--detail", "d1", "--capacity", "1480", "--csv", "d1.csv"]


# "@name" stands for the emitted fixture file, "*.json" and "*.csv" for a path
# in tmp_path
@pytest.mark.parametrize(
    "args, target",
    [
        (["validate", "@kope-1982"], "validate_team_schedule"),
        (["validate", "@modular-demo"], "validate_instance"),
        (["validate", "@modular-demo"], "validate_schedule"),
        (["evaluate", "@modular-demo"], "makespan"),
        (["evaluate", "@jit-windows"], "schedule_windows"),
        (["evaluate", "@jit-windows"], "penalty_sum"),
        (["evaluate", "@kope-1982"], "horizon_requirement_table"),
        (["evaluate", "@kope-1982"], "render_gantt"),
        (["balance", "@modular-demo"], "balance_mod.balance_verdict"),
        (["balance", "@kope-1982"], "horizon_requirement_table"),
        (["balance", "@kope-1982"], "violated_months"),
        (["improve", "@kope-1982"], "improvement_loop"),
        (["improve", "@kope-1982"], "horizon_requirement_table"),
        (["improve", "@kope-1982", "--out", "out.json"], "save_instance"),
        (["report", "@kope-1982", *REPORT], "horizon_requirement_table"),
        (["report", "@kope-1982", *REPORT], "export_balance_curve"),
        (["fixtures", "list"], "fixtures_mod.list_fixtures"),
        (["fixtures", "emit", "kope-1982", "--out", "out.json"], "save_instance"),
    ],
)
def test_cli_prints_a_value_error_from_any_call_as_one_error_line(
    runner, monkeypatch, tmp_path, emitted, args, target
):
    def refuse(*_args, **_kwargs):
        raise ValueError(f"{target} refused")

    monkeypatch.setattr(f"balsched.cli.{target}", refuse)
    argv = [
        str(emitted[arg[1:]]) if arg.startswith("@")
        else str(tmp_path / arg) if arg.endswith((".json", ".csv"))
        else arg
        for arg in args
    ]
    result = runner.invoke(main, argv)
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert (result.exit_code, result.stderr) == (1, f"error: {target} refused\n")


@pytest.mark.parametrize(
    "target, error, lines",
    [
        ("load_instance", SchemaError(["/a: first", "/b: second"]),
         ["error: /a: first", "error: /b: second"]),
        ("improvement_loop", ValidationError(["first", "second"]),
         ["invalid: first", "invalid: second"]),
    ],
)
def test_cli_prints_each_issue_or_violation_of_a_refusal_on_its_own_line(
    runner, monkeypatch, emitted, target, error, lines
):
    def refuse(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(f"balsched.cli.{target}", refuse)
    result = runner.invoke(main, ["improve", str(emitted["kope-1982"])])
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == lines


def test_cli_refuses_a_document_that_is_no_object(runner, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == ["error: /: expected a JSON object"]


def test_cli_refuses_a_file_that_is_no_utf8_with_one_error_line(runner, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"mode": "\xff"}')
    result = runner.invoke(main, ["validate", str(bad)])
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [
        "error: /: invalid UTF-8 at byte 10: invalid start byte"
    ]


@pytest.mark.parametrize("command", ["validate", "evaluate", "balance", "improve"])
def test_cli_reports_an_unknown_team_and_a_negative_start(runner, tmp_path, command):
    data = json.loads(FIXTURE_JSON["kope-1982"])
    mutate(data, ("homebuilding", "team_schedule", "assignments", "P9"), [])
    mutate(data, ("homebuilding", "team_schedule", "assignments", "P3", 0, 1), -1.0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, [command, str(bad)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [
        "invalid: schedule: unknown team 'P9'",
        "invalid: building a1: negative start -1.0",
    ]


def test_cli_balance_lists_the_violating_intervals(runner, tmp_path):
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(mutant("modular-demo", ("modular", "proximity_threshold"), 4)))
    result = runner.invoke(main, ["balance", str(tight)])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "interval deltas: 4 4 4 15", "max delta: 15", "threshold: 4",
        "violating intervals: 4", "balance: violated",
    ]


def test_cli_keeps_starts_past_int64_exact(runner, tmp_path):
    data = json.loads(FIXTURE_JSON["modular-demo"])
    mutate(data, ("modular", "schedule", "horizon_slots"), 2**70)
    mutate(data, ("modular", "schedule", "placements", "P1", 1, 1), 2**69)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(data))
    result = runner.invoke(main, ["validate", str(wide)])
    assert (result.exit_code, result.stdout) == (0, "OK\n")
    result = runner.invoke(main, ["evaluate", str(wide)])
    assert result.exit_code == 0
    assert "makespan: 196765270119568550573" in result.stdout.splitlines()
    result = runner.invoke(main, ["balance", str(wide)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [
        "error: grid shorter than horizon: 12 < 1180591620717411303424"
    ]


@pytest.mark.parametrize(
    "chain, lines",
    [
        (["e1", 7], ["job a1: unknown element type '7'"]),
        (["e1", [1]], ["job a1: unknown element type '[1]'"]),
        (["e1", "idle"], ["job a1: idle element in chain"]),
        (["e1", "e9"], ["job a1: unknown element type 'e9'"]),
        # every unknown element up to the first idle one, in chain order
        ([7, "e9", "idle", [1]], [
            "job a1: unknown element type '7'",
            "job a1: unknown element type 'e9'",
            "job a1: idle element in chain",
        ]),
    ],
)
@pytest.mark.parametrize("command", ["validate", "evaluate", "balance"])
def test_cli_reports_each_bad_chain_element(runner, tmp_path, command, chain, lines):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutant("modular-demo", ("modular", "jobs", 0, "chain"), chain)))
    result = runner.invoke(main, [command, str(bad)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"invalid: {line}" for line in lines]


def json_paths(value, path=()):
    """The path of every value inside a JSON container."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from json_paths(item, path + (key,))


FIXTURE_PATHS = {
    name: list(json_paths(json.loads(text))) for name, text in FIXTURE_JSON.items()
}
REPLACEMENTS = (None, True, -1, 0, 2.5, "x", [], {}, [1], DELETE)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cli_survives_any_single_value_mutation(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(FIXTURE_PATHS)), label="fixture")
    paths = data.draw(
        st.lists(st.sampled_from(FIXTURE_PATHS[name]), min_size=1, max_size=3, unique=True),
        label="paths",
    )
    doc = json.loads(FIXTURE_JSON[name])
    # Paths into one container hold keys of one type, so they sort: inner
    # values and later list items go first, and every path still resolves.
    for path in sorted(paths, reverse=True):
        mutate(doc, path, data.draw(st.sampled_from(REPLACEMENTS), label=f"value at {path}"))
    work = tmp_path_factory.mktemp("mutant")
    instance = work / "mutant.json"
    instance.write_text(json.dumps(doc))
    runner = CliRunner()
    for args in (
        ["validate"], ["evaluate"], ["balance"], ["improve", "--max-iters", "1"],
        ["report", "--detail", "d1", "--capacity", "1480", "--csv", str(work / "d1.csv")],
    ):
        result = runner.invoke(main, [args[0], str(instance), *args[1:]])
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args[0], result.exc_info
        )
