"""The canonical writer: save_instance against json's own layout of the
instance's dictionary form (oracles.canonical_text)."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched import fileio
from balsched.core import CompositeJob, ElementUniverse, JobTable, SlotSchedule, TimeGrid
from balsched.fileio import (
    InstanceFile,
    instance_from_dict,
    instance_to_dict,
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
)
from balsched.improve import ImproveParams
from balsched.jit import PenaltyWeights, WindowJob, WindowTable

from oracles import canonical_text
from synthetic import modular_document, synthetic_instance

@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "instance.json"


def _assert_writes_the_oracle(instance, path):
    """save_instance writes the oracle's bytes, or raises its error."""
    try:
        expected = canonical_text(instance_to_dict(instance))
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            save_instance(instance, path)
        return
    save_instance(instance, path)
    assert path.read_bytes() == expected.encode("ascii")


# --- instances the package makes and loads -------------------------------------

def _package_instances():
    small = dict(n_processors=4, n_intervals=12, n_machines=3, jobs_per_machine=6)
    built = [build_fixture(name) for name in list_fixtures()]
    return built + [instance_from_dict(json.loads(json.dumps(instance_to_dict(x))))
                    for x in built] + [
        instance_from_dict(modular_document(seed, **small)) for seed in (1, 2)
    ] + [synthetic_instance(n, teams, seed) for n, teams, seed in ((72, 16, 12), (288, 8, 3))]


def test_fixtures_and_generated_instances_write_the_oracle_bytes(monkeypatch, path):
    """Nothing in a fixture or a generated instance leaves the layouts:
    json.dumps writes no subtree."""
    instances = _package_instances()
    expected = [canonical_text(instance_to_dict(x)) for x in instances]

    def refused(*args, **kwargs):
        raise AssertionError(f"json.dumps called on {args[0]!r:.80}")

    monkeypatch.setattr(fileio.json, "dumps", refused)
    for instance, text in zip(instances, expected):
        save_instance(instance, path)
        assert path.read_text() == text


# SHA-256 of each bundled instance's saved bytes, as ``fixtures emit`` writes them
FIXTURE_DIGESTS = {
    "jit-windows": "48526a1ac1ce1471cd891738a2ff471f3fb540a4027273adabdc442f8c6d45bf",
    "kope-1982": "1a45b912f0d961321f44a03caac2d683fa70a28b73161470f9e4c3baa57fba9b",
    "modular-demo": "f82b3053b69d6a0f8e3588d0f71d86912e51f688f1790c4cb221f64680b6d937",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_a_fixture_saves_its_pinned_bytes(path, name):
    assert list_fixtures() == sorted(FIXTURE_DIGESTS)
    save_instance(build_fixture(name), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_DIGESTS[name]


# --- hand-built instances ---------------------------------------------------------

ODD_IDS = ['a"b', "c\\d", "{}", "{0}", "%s", "é", "日本", "\U0001f600", "a\nb", " ", "\x00"]
IDS = st.text(min_size=1, max_size=4) | st.sampled_from(ODD_IDS)
# finite numbers, ints where floats are allowed, and floats whose repr
# needs an exponent or all 17 digits
NUMBERS = (st.floats(0.0, 1e6) | st.integers(0, 10**6)
           | st.sampled_from([0.1, 1e-7, 1e16, 1e22, 2.0**0.5, 123456789.125]))
# what a hand-built record may also hold: json writes these itself
ODD = st.sampled_from([math.inf, math.nan, True, np.float64(2.5)])
VALUES = NUMBERS | ODD


@st.composite
def modular_files(draw):
    types = tuple(draw(st.lists(IDS, min_size=1, max_size=4, unique=True)))
    universe = ElementUniverse(types, draw(st.integers(0, len(types) - 1)))
    ids = draw(st.lists(IDS, max_size=4, unique=True))
    chains = [tuple(draw(st.lists(st.sampled_from(types), max_size=4))) for _ in ids]
    jobs = (JobTable.from_chains(universe, ids, chains) if draw(st.booleans())
            else tuple(map(CompositeJob, ids, chains)))
    processors = tuple(draw(st.lists(IDS, max_size=3, unique=True)))
    lanes = {p: tuple(draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 99)),
                                    max_size=3))) if ids else () for p in processors}
    window_jobs = None
    if draw(st.booleans()):
        window_jobs = tuple(
            WindowJob(j, draw(VALUES), t1, draw(st.sampled_from([2 * t1 + 1, math.inf])),
                      draw(st.integers(1, 3) | st.just(True)), draw(st.integers(1, 9)))
            for j, t1 in zip(draw(st.lists(IDS, max_size=4, unique=True)),
                             iter(lambda: draw(NUMBERS), None))
        )
        window_jobs = WindowTable.of(window_jobs) if draw(st.booleans()) else window_jobs
    return InstanceFile(
        mode="modular", universe=universe, jobs=jobs, processors=processors,
        grid=TimeGrid(draw(st.integers(1, 5)), draw(st.integers(1, 5))),
        schedule=SlotSchedule(processors, lanes, draw(st.integers(0, 99))),
        reference_profile=draw(st.none() | st.lists(VALUES, max_size=4).map(tuple)),
        proximity_threshold=draw(st.none() | VALUES),
        window_jobs=window_jobs,
        penalty_weights=draw(st.none() | st.builds(PenaltyWeights, VALUES, VALUES)),
    )


@st.composite
def homebuilding_files(draw):
    sections = {
        s: SectionType(s, tuple(tuple(draw(st.lists(VALUES, min_size=8, max_size=8)))
                                for _ in FLOOR_TYPES))
        for s in draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    }
    types = {
        t: BuildingType(t, {f: draw(st.integers(0, 5)) for f in FLOOR_TYPES[: draw(
            st.integers(1, 8))]} | {"r1": draw(st.integers(1, 5))})
        for t in draw(st.lists(IDS, min_size=1, max_size=2, unique=True))
    }
    buildings = [
        Building(
            b, draw(st.sampled_from(sorted(types))),
            {s: draw(st.integers(1, 3)) for s in draw(st.lists(
                st.sampled_from(sorted(sections)), min_size=1, max_size=3, unique=True))},
            draw(st.floats(0.1, 40.0) | st.integers(1, 40)), draw(VALUES), draw(VALUES),
        )
        for b in draw(st.lists(IDS, max_size=5, unique=True))
    ]
    teams = tuple(draw(st.lists(IDS, max_size=3, unique=True)))
    placed = [b.id for b in buildings]
    lane = st.lists(st.tuples(st.sampled_from(placed), VALUES), max_size=3) if placed else st.just([])
    # a team may have no lane, and a lane may name a team not in teams
    owners = draw(st.lists((st.sampled_from(teams) if teams else IDS) | IDS,
                           max_size=4, unique=True))
    assignments = {t: tuple(draw(lane)) for t in owners}
    months = tuple(draw(st.lists(st.integers(1, 30), max_size=3)))
    details = draw(st.sampled_from([DETAIL_TYPES, ("d3", "d1")]))
    reference = RequirementTable(
        months, tuple(tuple(draw(st.lists(VALUES, min_size=len(details),
                                          max_size=len(details)))) for _ in months),
        details,
    )
    project = Project(sections, types, {b.id: b for b in buildings},
                      draw(st.integers(1, 40)), draw(st.sampled_from(RATE_BASES)))
    return InstanceFile(
        mode="homebuilding", project=project,
        team_schedule=TeamSchedule(teams, assignments),
        capacity=draw(st.none() | st.dictionaries(st.sampled_from(DETAIL_TYPES),
                                                  VALUES | st.just(-math.inf))),
        improve_params=draw(st.none() | st.builds(ImproveParams, NUMBERS,
                                                  st.integers(0, 9))),
        reference_requirements=draw(st.none() | st.just(reference)),
    )


@given(modular_files() | homebuilding_files())
@settings(max_examples=150, deadline=None)
def test_save_writes_the_oracle_bytes_of_hand_built_instances(path, instance):
    _assert_writes_the_oracle(instance, path)


def _kope_with(**edits):
    kope = build_fixture("kope-1982")
    return InstanceFile(**{**{f: getattr(kope, f) for f in (
        "mode", "project", "team_schedule", "capacity", "improve_params",
        "reference_requirements")}, **edits})


def _ids_of_every_kind(name):
    """kope with each building, team, section and building type renamed."""
    kope = build_fixture("kope-1982")
    rename = {b: f"{name}{b}" for b in kope.project.buildings}
    project = kope.project
    return _kope_with(
        project=Project(
            {f"{name}{s}": SectionType(f"{name}{s}", st.detail_matrix)
             for s, st in project.section_types.items()},
            {f"{name}{t}": BuildingType(f"{name}{t}", bt.floor_counts)
             for t, bt in project.building_types.items()},
            {rename[b.id]: Building(
                rename[b.id], f"{name}{b.building_type}",
                {f"{name}{s}": n for s, n in b.section_counts.items()},
                b.assembly_duration, b.start, b.general_square)
             for b in project.buildings.values()},
            project.horizon_months,
        ),
        team_schedule=TeamSchedule(
            tuple(f"{name}{t}" for t in kope.team_schedule.teams),
            {f"{name}{t}": tuple((rename[b], s) for b, s in lane)
             for t, lane in kope.team_schedule.assignments.items()},
        ),
    )


@pytest.mark.parametrize("name", ODD_IDS)
def test_ids_are_escaped_as_json_escapes_them(path, name):
    _assert_writes_the_oracle(_ids_of_every_kind(name), path)


def test_ints_where_floats_are_allowed(path):
    kope = build_fixture("kope-1982")
    sections = {s: SectionType(s, tuple(tuple(map(round, row)) for row in st.detail_matrix))
                for s, st in kope.project.section_types.items()}
    reference = kope.reference_requirements
    _assert_writes_the_oracle(_kope_with(
        project=Project(sections, kope.project.building_types, {
            b.id: Building(b.id, b.building_type, b.section_counts, 9, 1, 17)
            for b in kope.project.buildings.values()}, 19),
        team_schedule=TeamSchedule(("P1",), {"P1": (("a1", 0), ("a2", 9.5))}),
        capacity={"d1": 1480, "d2": 0},
        improve_params=ImproveParams(5, 10),
        reference_requirements=RequirementTable(
            reference.months, tuple(tuple(map(round, r)) for r in reference.values)),
    ), path)
    jit = build_fixture("jit-windows")
    _assert_writes_the_oracle(InstanceFile(
        **{**jit.__dict__, "window_jobs": (WindowJob("w", 1, 0, 2, 1, 1),),
           "penalty_weights": PenaltyWeights(1, 2), "reference_profile": (1, 0.5),
           "proximity_threshold": 3}), path)


def test_a_building_id_given_twice_writes_its_last_row(path):
    kope = build_fixture("kope-1982")
    a1, a2 = kope.project.buildings["a1"], kope.project.buildings["a2"]
    twice = [a2, a1, Building("a2", a1.building_type, a1.section_counts, 1.5, 2.5)]
    table = BuildingTable.from_columns(
        [b.id for b in twice], [b.building_type for b in twice],
        [tuple(b.section_counts.items()) for b in twice],
        [b.assembly_duration for b in twice], [b.start for b in twice],
        [b.general_square for b in twice],
    )
    project = kope.project
    instance = _kope_with(project=Project(
        project.section_types, project.building_types, table, 19))
    assert list(instance.project.buildings.ids) == ["a2", "a1", "a2"]
    _assert_writes_the_oracle(instance, path)


def test_empty_containers(path):
    kope = build_fixture("kope-1982")
    demo = build_fixture("modular-demo")
    universe = ElementUniverse(("idle",), 0)
    _assert_writes_the_oracle(InstanceFile(
        mode="modular", universe=universe, jobs=JobTable.from_chains(universe, [], []),
        processors=(), grid=TimeGrid(1, 1), schedule=SlotSchedule((), {}, 0),
        reference_profile=(), window_jobs=WindowTable.of(()),
    ), path)
    _assert_writes_the_oracle(InstanceFile(
        mode="modular", universe=demo.universe,
        jobs=JobTable.from_chains(demo.universe, ["x", "y"], [(), ("e1",)]),
        processors=("P1",), grid=demo.grid, schedule=SlotSchedule(("P1",), {"P1": ()}, 3),
    ), path)
    _assert_writes_the_oracle(_kope_with(
        project=Project(kope.project.section_types, kope.project.building_types, {}, 19),
        team_schedule=TeamSchedule((), {}), capacity={},
        reference_requirements=RequirementTable((), (), ()),
    ), path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_are_written_as_json_writes_them(path, value):
    kope = build_fixture("kope-1982")
    a1 = kope.project.buildings["a1"]
    section = kope.project.section_types["g1"]
    _assert_writes_the_oracle(_kope_with(
        project=Project(
            {**kope.project.section_types,
             "g1": SectionType("g1", ((abs(value),) * 8,) + section.detail_matrix[1:])},
            kope.project.building_types,
            {**kope.project.buildings, "a1": Building(
                "a1", a1.building_type, a1.section_counts, a1.assembly_duration,
                abs(value), value)},
            19,
        ),
        team_schedule=TeamSchedule(("P1",), {"P1": (("a1", value),)}),
        capacity={"d1": value},
    ), path)
    jit = build_fixture("jit-windows")
    _assert_writes_the_oracle(InstanceFile(**{
        **jit.__dict__, "window_jobs": WindowTable.of([WindowJob("w", abs(value), 0.0, math.inf)]),
        "reference_profile": (value, 1.0), "proximity_threshold": value,
    }), path)


@pytest.mark.parametrize("where", ["capacity", "start", "section", "profile", "machine"])
@pytest.mark.parametrize("number", [np.int64(3), np.float32(0.5), np.float64(0.5), np.bool_(1)])
def test_numpy_scalars_take_json_rule(path, where, number):
    """A numpy float64 is a float to json; any other numpy scalar is a
    TypeError that the writer raises with json's own message."""
    kope = build_fixture("kope-1982")
    if where == "capacity":
        instance = _kope_with(capacity={"d1": number})
    elif where == "start":
        instance = _kope_with(team_schedule=TeamSchedule(("P1",), {"P1": (("a1", number),)}))
    elif where == "section":
        matrix = ((number,) + (1.0,) * 7,) + kope.project.section_types["g1"].detail_matrix[1:]
        project = kope.project
        instance = _kope_with(project=Project(
            {**project.section_types, "g1": SectionType("g1", matrix)},
            project.building_types, project.buildings, 19))
    else:
        jit = build_fixture("jit-windows")
        instance = InstanceFile(**{**jit.__dict__, "reference_profile": (1, number)} if (
            where == "profile") else {**jit.__dict__, "window_jobs": (
                WindowJob("w", 1.0, 0.0, 2.0, number, 1),)})
    _assert_writes_the_oracle(instance, path)
    if type(number) is not np.float64:
        with pytest.raises(TypeError, match="is not JSON serializable"):
            save_instance(instance, path)


def test_a_refused_value_is_given_to_json_once(monkeypatch, path):
    """A team start no layout takes sends the whole file to json once, and
    json's TypeError reaches the caller."""
    instance = _kope_with(team_schedule=TeamSchedule(("P1",), {"P1": (("a1", np.int64(3)),)}))
    dumps, calls = json.dumps, []

    def counted(value, **kwargs):
        calls.append(value)
        return dumps(value, **kwargs)

    monkeypatch.setattr(fileio.json, "dumps", counted)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        save_instance(instance, path)
    assert calls == [instance_to_dict(instance)]


@pytest.mark.parametrize("machine", [True, 1.0, 2**70, None])
def test_window_cells_outside_int64_are_written_as_their_records_hold_them(path, machine):
    """A machine that is no Python int (or past int64) leaves the table an
    object column; json writes what each record holds, and leaves out None."""
    jit = build_fixture("jit-windows")
    table = WindowTable.of([WindowJob("w", 1.0, 0.0, 2.0, machine, 1), jit.window_jobs[1]])
    assert table.machine.dtype == object
    _assert_writes_the_oracle(InstanceFile(**{**jit.__dict__, "window_jobs": table}), path)
