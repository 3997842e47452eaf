"""Columnar home-building projects: building tables, the loader's fast
pass and the kernel set up from columns, against the record walks in
``tests/oracles.py``; records built only on request; and the pinned lines
of the error paths."""

import copy
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched import fileio
from balsched.cli import main
from balsched.fileio import SchemaError, instance_from_dict, instance_to_dict, load_instance
from balsched.fixtures import build_fixture
from balsched.homebuilding import (
    FLOOR_TYPES,
    Building,
    BuildingTable,
    horizon_requirement_table,
    team_schedule_violations,
)

from oracles import (
    record_horizon_table,
    record_kernel,
    record_project_check,
    record_read_buildings,
)
from synthetic import synthetic_document


def loaded(doc):
    """("ok", instance) or ("SchemaError", issues)."""
    try:
        return "ok", instance_from_dict(doc)
    except SchemaError as exc:
        return "SchemaError", exc.issues


# --- random home-building documents, valid and invalid ----------------------------

def _without(key):
    return lambda b: {k: v for k, v in b.items() if k != key}


FLAWS = {
    "not an object": lambda b: [1],
    "type missing": _without("building_type"),
    "type not a string": lambda b: {**b, "building_type": 5},
    "unknown type": lambda b: {**b, "building_type": "t9"},
    "counts not an object": lambda b: {**b, "section_counts": [1]},
    "counts null": lambda b: {**b, "section_counts": None},
    "no sections": lambda b: {**b, "section_counts": {}},
    "zero sections": lambda b: {**b, "section_counts": {"s0": 0}},
    "negative count": lambda b: {**b, "section_counts": {"s0": 2, "s1": -1}},
    "float count": lambda b: {**b, "section_counts": {"s0": 2.0}},
    "bool count": lambda b: {**b, "section_counts": {"s0": True}},
    "string count": lambda b: {**b, "section_counts": {"s0": "2"}},
    "huge count": lambda b: {**b, "section_counts": {"s0": 1, "s1": 10**400}},
    "huge negative count": lambda b: {**b, "section_counts": {"s0": 1, "s1": -10**400}},
    "unknown section": lambda b: {**b, "section_counts": {"s0": 1, "zz": 1}},
    "zero duration": lambda b: {**b, "assembly_duration": 0},
    "negative duration": lambda b: {**b, "assembly_duration": -1.5},
    "string duration": lambda b: {**b, "assembly_duration": "4"},
    "infinite duration": lambda b: {**b, "assembly_duration": float("inf")},
    "nan start": lambda b: {**b, "start": float("nan")},
    "negative start": lambda b: {**b, "start": -0.5},
    "start missing": _without("start"),
    "bool square": lambda b: {**b, "general_square": True},
    "huge square": lambda b: {**b, "general_square": 10**400},
}


@st.composite
def homebuilding_documents(draw):
    """A small home-building document whose buildings share a few section
    compositions (some listing the same counts in another order), with
    integer or float numbers and an absent, null or given square; now and
    then one or two buildings carry a flaw."""
    amount = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5]) | st.floats(0, 50)
    sections = {
        f"s{i}": {f: [draw(amount) for _ in range(8)] for f in FLOOR_TYPES}
        for i in range(draw(st.integers(2, 3)))
    }
    floors = st.dictionaries(st.sampled_from(FLOOR_TYPES), st.integers(0, 4), min_size=1)
    building_types = {
        f"t{i}": draw(floors.filter(lambda counts: sum(counts.values()) >= 1))
        for i in range(draw(st.integers(1, 2)))
    }
    mixes = [
        dict(draw(st.permutations([(s, draw(st.integers(0, 3))) for s in sections])))
        for _ in range(draw(st.integers(1, 3)))
    ]
    mixes = [mix if sum(mix.values()) else {**mix, "s0": 1} for mix in mixes]
    number = st.sampled_from([1, 2, 0.5, 3.25, 9.0]) | st.floats(0.25, 12)
    buildings = {}
    for i in range(draw(st.integers(0, 8))):
        building = {
            "building_type": draw(st.sampled_from(sorted(building_types))),
            "section_counts": dict(draw(st.sampled_from(mixes))),
            "assembly_duration": draw(number),
            "start": draw(st.sampled_from([0, 0.0, 4.5]) | st.floats(0, 20)),
        }
        square = draw(st.sampled_from(["absent", None, 12, 17.5]))
        if square != "absent":
            building["general_square"] = square
        buildings[f"b{i}"] = building
    flawed = min(len(buildings), draw(st.sampled_from([0, 0, 0, 1, 2])))
    for victim in draw(st.lists(st.sampled_from(sorted(buildings)), min_size=flawed,
                                max_size=flawed, unique=True)) if flawed else ():
        buildings[victim] = FLAWS[draw(st.sampled_from(sorted(FLAWS)))](buildings[victim])
    teams = ["P1", "P2"]
    assignments = {team: [] for team in teams}
    for building_id in buildings:
        assignments[draw(st.sampled_from(teams))].append([building_id, draw(number)])
    return {
        "format_version": 1,
        "mode": "homebuilding",
        "homebuilding": {
            "section_types": sections,
            "building_types": building_types,
            "buildings": buildings,
            "horizon_months": draw(st.integers(1, 30)),
            "rate_basis": draw(st.sampled_from(["U-1", "U"])),
            "team_schedule": {"teams": teams, "assignments": assignments},
        },
    }


def _kernel_bytes(lo, top, rate, matrix, width):
    return [a.shape for a in (lo, top, rate, matrix)], [
        a.tobytes() for a in (lo, top, rate, matrix)], width


@given(homebuilding_documents())
@settings(max_examples=300, deadline=None)
def test_columnar_buildings_equal_the_record_walks(doc):
    block = doc["homebuilding"]
    records, issues = record_read_buildings(copy.deepcopy(block))
    expected = issues or [record_project_check(block, records)]
    fast = loaded(copy.deepcopy(doc))
    with mock.patch.object(fileio, "_building_table", lambda items: None):
        slow = loaded(copy.deepcopy(doc))
    if expected != [None]:
        assert fast == slow == ("SchemaError", expected)
        return
    assert fast[0] == slow[0] == "ok"
    project, other = fast[1].project, slow[1].project
    table = project.buildings
    assert type(table) is BuildingTable and table.ids == tuple(records)
    assert (table.building_types, table.compositions) == (
        other.buildings.building_types, other.buildings.compositions)
    for name in ("type_codes", "composition_codes", "assembly_duration", "start",
                 "general_square"):
        assert getattr(table, name).tobytes() == getattr(other.buildings, name).tobytes()
    assert dict(table) == {
        b: Building(b, t, counts, duration, start, square)
        for b, (t, counts, duration, start, square) in records.items()
    }
    expected_kernel = _kernel_bytes(*record_kernel(block, records, list(records)))
    kernel = project.kernel
    assert _kernel_bytes(kernel.lo, kernel.top, kernel.rate, kernel.matrix,
                         kernel.width) == expected_kernel
    if not team_schedule_violations(fast[1].team_schedule, table):
        got = np.array(horizon_requirement_table(project, fast[1].team_schedule).values)
        assert got.tobytes() == record_horizon_table(block, records).tobytes()


# --- records only on request -------------------------------------------------------

@pytest.fixture(scope="module")
def file_288(tmp_path_factory):
    path = tmp_path_factory.mktemp("bulk") / "synth-288.json"
    path.write_text(json.dumps(synthetic_document(288, 8, 3)))
    return path


def test_a_valid_288_building_file_builds_no_building_records(file_288, tmp_path, monkeypatch):
    built = Counter()
    init = Building.__init__

    def counted(self, *args, **kwargs):
        built["Building"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(Building, "__init__", counted)
    f = load_instance(file_288)
    assert type(f.project.buildings) is BuildingTable and len(f.project.buildings) == 288
    assert team_schedule_violations(f.team_schedule, f.project.buildings) == []
    runner = CliRunner()
    for args in (["validate"], ["evaluate"], ["balance"],
                 ["report", "--detail", "d1", "--capacity", "1000", "--csv",
                  str(tmp_path / "curve.csv")]):
        result = runner.invoke(main, [args[0], str(file_288), *args[1:]])
        assert result.exit_code == 0, result.output
    assert built == Counter()
    assert f.project.buildings["b0001"].id == "b0001"  # built on request
    assert built == Counter({"Building": 1})


def test_building_columns_are_read_only(file_288):
    table = load_instance(file_288).project.buildings
    for name in ("type_codes", "composition_codes", "assembly_duration", "start",
                 "general_square"):
        column = getattr(table, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


def test_the_table_refuses_as_the_first_refused_record():
    columns = dict(ids=("a", "b", "c"), building_types=("t",) * 3,
                   section_counts=[(("s", 1),), (("s", 0),), (("s", 1),)],
                   assembly_duration=[1.0, 1.0, -1.0], start=[0.0, 0.0, 0.0],
                   general_square=[0.0] * 3)
    with pytest.raises(ValueError, match="building b: needs at least one section"):
        BuildingTable.from_columns(**columns)
    columns["section_counts"][1] = (("s", 2),)
    with pytest.raises(ValueError, match="building c: assembly_duration must be positive"):
        BuildingTable.from_columns(**columns)


def test_the_table_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"^building columns differ in length$"):
        BuildingTable.from_columns(("a", "b"), ("t",), [(("s", 1),)], [1.0], [0.0], [0.0])


def test_the_writer_emits_a_table_as_its_records():
    kope = build_fixture("kope-1982")
    records = dict(kope.project.buildings)
    assert all(type(b) is Building for b in records.values())
    assert fileio._emit(kope.project.buildings) == {
        b: fileio._record_writer(Building, skip="id")(record) for b, record in records.items()
    }


# --- the pinned lines of the error paths ------------------------------------------

def _kope_with(edit):
    doc = instance_to_dict(build_fixture("kope-1982"))
    edit(doc["homebuilding"])
    return doc


COMMANDS = [["evaluate"], ["balance"], ["report", "--detail", "d1", "--capacity", "1000"],
            ["improve"]]


@pytest.mark.parametrize("edit, line", [
    (lambda hb: hb["buildings"]["a3"]["section_counts"].update(w3=10**400),
     "error: /homebuilding/buildings/a3/section_counts/w3: integer past the float range"),
    (lambda hb: hb["building_types"]["22-floor"].update(r4=10**400),
     "error: /homebuilding/building_types/22-floor/r4: integer past the float range"),
    (lambda hb: hb.update(horizon_months=10**12),
     "error: horizon of 1000000000000 months is too large to tabulate"),
], ids=["section-count", "floor-count", "horizon"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_values_too_large_for_the_cascade_are_one_error_line(tmp_path, edit, line, command):
    # numpy refuses the 58.2 TiB table of a 10**12-month horizon at once:
    # nothing is allocated
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_kope_with(edit)))
    args = [command[0], str(path), *command[1:]]
    if command[0] == "report":
        args += ["--csv", str(tmp_path / "curve.csv")]
    result = CliRunner().invoke(main, args)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [line]


def _overflowing_end(hb):
    hb["buildings"]["a7"]["assembly_duration"] = 1.7e308
    hb["team_schedule"]["assignments"]["P2"][1][1] = 1.7e308


@pytest.mark.parametrize("command", [["validate"], *COMMANDS], ids=lambda c: c[0])
def test_a_placement_that_ends_past_the_float_range_is_one_invalid_line(tmp_path, command):
    # 1.7e308 + 1.7e308 is inf: the Gantt chart and the repair loop's
    # target test would meet it as an overflow
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_kope_with(_overflowing_end)))
    args = [command[0], str(path), *command[1:]]
    if command[0] == "report":
        args += ["--csv", str(tmp_path / "curve.csv")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == ["invalid: building a7: placement end inf is not finite"]
    assert result.stdout == ""


def test_the_fast_pass_leaves_a_huge_count_to_the_record_reader():
    doc = _kope_with(lambda hb: hb["buildings"]["a3"]["section_counts"].update(w3=10**400))
    assert fileio._building_table(doc["homebuilding"]["buildings"]) is None
    del doc["homebuilding"]["buildings"]["a3"]
    assert type(fileio._building_table(doc["homebuilding"]["buildings"])) is BuildingTable
