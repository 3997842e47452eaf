"""Monthly floor-progress cascade and detail-requirement tables."""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balsched.cli import main
from balsched.core import ValidationError
from balsched.fileio import save_instance
from balsched.fixtures import build_fixture
from balsched.homebuilding import (
    FLOOR_TYPES,
    RATE_BASES,
    Building,
    BuildingType,
    Project,
    RequirementKernel,
    RequirementTable,
    SectionType,
    TeamSchedule,
    building_requirement_table,
    detail_shares,
    floor_sequence,
    horizon_requirement_table,
    monthly_detail_requirements,
    monthly_floor_requirements,
    section_progress,
    team_schedule_violations,
    validate_team_schedule,
)

from oracles import add_at_total, double_clip_output, hand_month1_d2, unit_overlap_progress
from synthetic import synthetic_instance


@pytest.fixture(scope="module")
def kope():
    return build_fixture("kope-1982")


# --- type validation -----------------------------------------------------------

def test_section_type_row_lookup(kope):
    g1 = kope.project.section_types["g1"]
    assert g1.row("r2") == (19, 28, 21, 0, 0, 2, 2, 1)
    assert g1.matrix_array().shape == (8, 8)


def test_section_type_rejects_bad_matrix():
    with pytest.raises(ValueError):
        SectionType(id="bad", detail_matrix=((1.0,) * 8,) * 7)  # 7 rows
    with pytest.raises(ValueError):
        SectionType(id="bad", detail_matrix=((1.0,) * 7,) * 8)  # short rows


def test_building_type_total_units(kope):
    bt18 = kope.project.building_types["18-floor"]
    bt22 = kope.project.building_types["22-floor"]
    assert bt18.total_units == 20
    assert bt22.total_units == 24


def test_building_type_rejects_unknown_floor():
    with pytest.raises(ValueError):
        BuildingType(id="x", floor_counts={"r9": 1})
    with pytest.raises(ValueError):
        BuildingType(id="x", floor_counts={"r1": -1})


def test_floor_sequence_skips_zero_counts(kope):
    bt18 = kope.project.building_types["18-floor"]
    seq = floor_sequence(bt18)
    assert seq == [("r2", 1), ("r4", 11), ("r5", 5), ("r6", 1), ("r7", 1), ("r8", 1)]
    assert all(count > 0 for _, count in seq)


def test_building_field_validation(kope):
    with pytest.raises(ValueError):
        Building(
            id="b",
            building_type="18-floor",
            section_counts={"g1": 1},
            assembly_duration=0.0,
            start=0.0,
            general_square=1.0,
        )
    with pytest.raises(ValueError):
        Building(
            id="b",
            building_type="18-floor",
            section_counts={"g1": 1},
            assembly_duration=1.0,
            start=-0.5,
            general_square=1.0,
        )


def test_project_rejects_dangling_references(kope):
    proj = kope.project
    orphan = Building(
        id="b",
        building_type="not-a-type",
        section_counts={"g1": 1},
        assembly_duration=1.0,
        start=0.0,
        general_square=1.0,
    )
    with pytest.raises(ValueError):
        Project(
            section_types=proj.section_types,
            building_types=proj.building_types,
            buildings={"b": orphan},
            horizon_months=19,
        )


# --- progress calibration --------------------------------------------------------

def test_month1_first_building_g_section(kope):
    """One g-section of the first building in its opening half-month."""
    prof = monthly_floor_requirements(kope.project, kope.team_schedule, 1)
    g1 = prof.sections["g1"]
    assert g1["r2"] == pytest.approx(2.00, abs=0.01)
    assert g1["r4"] == pytest.approx(0.11, abs=0.01)
    # nothing else moves yet
    assert sum(g1.values()) == pytest.approx(g1["r2"] + g1["r4"])


def test_month2_first_building_mid_floors(kope):
    prof = monthly_floor_requirements(kope.project, kope.team_schedule, 2)
    assert prof.sections["g1"]["r4"] == pytest.approx(4.22, abs=0.01)
    assert prof.sections["g1"]["r2"] == 0.0


def test_month9_g2_sections(kope):
    prof = monthly_floor_requirements(kope.project, kope.team_schedule, 9)
    g2 = prof.sections["g2"]
    assert g2["r2"] == pytest.approx(2.71, abs=0.02)
    assert g2["r3"] == pytest.approx(5.42, abs=0.02)


def test_section_progress_before_start_is_zero(kope):
    a5 = kope.project.buildings["a5"]  # starts at 8.8
    for month in (1, 5, 8):
        prof = section_progress(kope.project, a5, month)
        assert sum(prof.values()) == 0.0


def test_section_progress_terminal_unit_never_built(kope):
    a1 = kope.project.buildings["a1"]  # 18-floor: top unit is the single r8
    total_r8 = sum(
        section_progress(kope.project, a1, m)["r8"]
        for m in range(1, kope.project.horizon_months + 1)
    )
    assert total_r8 == 0.0


def test_section_progress_conserves_rate_cap(kope):
    # a building fully inside the horizon completes exactly U-1 floor-units
    a1 = kope.project.buildings["a1"]
    total = sum(
        sum(section_progress(kope.project, a1, m).values())
        for m in range(1, kope.project.horizon_months + 1)
    )
    bt = kope.project.building_type_of(a1)
    assert total == pytest.approx(bt.total_units - 1)


def test_rate_basis_u_builds_all_units(kope):
    proj = kope.project
    full = Project(
        section_types=proj.section_types,
        building_types=proj.building_types,
        buildings=proj.buildings,
        horizon_months=proj.horizon_months,
        rate_basis="U",
    )
    a1 = full.buildings["a1"]
    total = sum(
        sum(section_progress(full, a1, m).values())
        for m in range(1, full.horizon_months + 1)
    )
    assert total == pytest.approx(full.building_type_of(a1).total_units)


def test_rate_basis_rejects_unknown():
    kope = build_fixture("kope-1982")
    proj = kope.project
    with pytest.raises(ValueError):
        Project(
            section_types=proj.section_types,
            building_types=proj.building_types,
            buildings=proj.buildings,
            horizon_months=19,
            rate_basis="U+1",
        )



@given(
    floor_counts=st.lists(
        st.integers(min_value=0, max_value=4), min_size=8, max_size=8
    ).filter(any),
    duration=st.floats(min_value=0.25, max_value=15.0),
    start=st.floats(min_value=0.0, max_value=30.0),
    horizon=st.integers(min_value=1, max_value=24),
    rate_basis=st.sampled_from(RATE_BASES),
    sections=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_closed_form_cascade_matches_unit_overlap_oracle(
    floor_counts, duration, start, horizon, rate_basis, sections
):
    matrix = tuple(
        tuple(float((i + 1) * (j + 2) % 7) for j in range(8)) for i in range(8)
    )
    building = Building(
        id="b",
        building_type="t",
        section_counts={"s": sections},
        assembly_duration=duration,
        start=start,
    )
    project = Project(
        section_types={"s": SectionType(id="s", detail_matrix=matrix)},
        building_types={
            "t": BuildingType(
                id="t", floor_counts=dict(zip(FLOOR_TYPES, floor_counts))
            )
        },
        buildings={"b": building},
        horizon_months=horizon,
        rate_basis=rate_basis,
    )
    expected = np.array([
        unit_overlap_progress(floor_counts, duration, start, month, rate_basis)
        for month in range(1, horizon + 1)
    ])
    got = np.array([
        [section_progress(project, building, month)[f] for f in FLOOR_TYPES]
        for month in range(1, horizon + 1)
    ])
    assert np.abs(got - expected).max() <= 1e-9
    table = building_requirement_table(project, building)
    assert np.abs(table - sections * expected @ np.array(matrix)).max() <= 1e-9

# --- requirement tables -----------------------------------------------------------

KOPE_IDS = tuple(f"a{i}" for i in range(1, 10))


@given(
    rate_basis=st.sampled_from(RATE_BASES),
    placements=st.lists(
        st.tuples(
            st.sampled_from(KOPE_IDS),
            st.floats(min_value=-2.0, max_value=25.0)
            | st.sampled_from((0.0, 8.8, 17.6, 17.599999999999998, 19.0, 24.5)),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_kernel_slices_equal_single_building_tables(kope, rate_basis, placements):
    """Both of kope's building types and all its section mixes, at starts
    before, inside and past the 19-month horizon. Scoring a move as a stack
    of one gives the generated profit only because of this equality."""
    project = dataclasses.replace(kope.project, rate_basis=rate_basis)
    kernel = project.kernel
    rows = np.array([kernel.row[b] for b, _start in placements])
    starts = np.array([start for _b, start in placements])
    first, stack = kernel.window(rows, starts)
    assert stack.shape == (len(placements), kernel.width, 8)
    for at, table, row, start in zip(first, stack, rows, starts):
        assert kernel.window([row], [start])[0] == at
        assert np.array_equal(table, kernel.window([row], [start])[1][0])


_EDGES = st.integers(-2, 25).map(float)


@given(
    rate_basis=st.sampled_from(RATE_BASES),
    placements=st.lists(
        st.tuples(
            st.sampled_from(KOPE_IDS),
            _EDGES  # on a month edge, one ulp either side of it, at either zero, or anywhere
            | _EDGES.map(lambda m: float(np.nextafter(m, np.inf)))
            | _EDGES.map(lambda m: float(np.nextafter(m, -np.inf)))
            | st.sampled_from((0.0, -0.0))
            | st.floats(min_value=-2.0, max_value=25.0),
        ),
        max_size=40,
    ),
    repeats=st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_kernel_total_is_the_add_at_sum_bit_for_bit(kope, rate_basis, placements, repeats):
    """The flat-cell bincount adds each cell's terms in placement order
    into +0.0, as np.add.at does, so every table keeps its bytes: for
    windows that run past the 19-month horizon and for repeated rows."""
    kernel = dataclasses.replace(kope.project, rate_basis=rate_basis).kernel
    rows = np.array([kernel.row[b] for b, _start in placements] * repeats, dtype=np.intp)
    starts = [start for _b, start in placements] * repeats
    total = kernel.total(rows, starts)
    assert total.shape == (19, 8)
    assert total.tobytes() == add_at_total(kernel.horizon, *kernel.window(rows, starts)).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_whole_synthetic_tables_are_the_add_at_sum_bit_for_bit(seed):
    instance = synthetic_instance(288, 8, seed)
    kernel = instance.project.kernel
    rows, starts = kernel.placements(instance.team_schedule)
    expected = add_at_total(kernel.horizon, *kernel.window(rows, starts))
    assert kernel.total(rows, starts).tobytes() == expected.tobytes()


@given(
    rate_basis=st.sampled_from(RATE_BASES),
    placements=st.lists(
        st.tuples(
            st.sampled_from(KOPE_IDS),
            st.floats(min_value=-2.0, max_value=25.0)
            | st.sampled_from((0.0, 0.5, 8.8, 9.999999999999998, 10.0, 18.5, 24.5))
            | st.integers(0, 18).map(lambda m: m + 1 - 2.0 ** -40),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_whole_horizon_rows_vanish_outside_their_windows(kope, rate_basis, placements):
    """A kernel row over every month of the horizon is exactly 0.0 outside
    its window and equals the window's table inside it, bit for bit."""
    project = dataclasses.replace(kope.project, rate_basis=rate_basis)
    kernel = project.kernel
    rows = np.array([kernel.row[b] for b, _start in placements])
    starts = np.array([start for _b, start in placements])
    whole = kernel.output(rows, starts, np.arange(20.0)[:, None]) @ kernel.matrix[rows]
    first, windows = kernel.window(rows, starts)
    assert kernel.width == 10  # ceil of a1's 9.0 months, plus one
    for row, at, window in zip(whole, first, windows):
        inside = row[at: at + kernel.width]
        assert inside.tobytes() == window[: len(inside)].tobytes()
        assert not row[:at].any() and not row[at + kernel.width:].any()


def test_a_window_one_month_shorter_leaves_a_cell_outside(kope):
    """The longest building, started just after a month begins, is active
    in ceil(duration) + 1 months, so the width comes from the durations."""
    project = kope.project
    kernel = project.kernel
    longest = max(project.buildings.values(), key=lambda b: b.assembly_duration)
    row, start = kernel.row[longest.id], 2 + 1 / 64
    whole = kernel.output([row], [start], np.arange(20.0)[:, None]) @ kernel.matrix[[row]]
    assert kernel.width == np.ceil(longest.assembly_duration) + 1
    assert whole[0, 2 + kernel.width - 1].any()
    assert not whole[0, 2 + kernel.width:].any()


@given(
    floor_counts=st.lists(
        st.integers(min_value=0, max_value=4), min_size=8, max_size=8
    ).filter(any),
    duration=st.floats(min_value=0.25, max_value=15.0),
    starts=st.lists(
        st.floats(min_value=-5.0, max_value=30.0)
        | st.sampled_from((-0.5, 0.0, 1.0, 24.0, 30.0)),
        min_size=1,
        max_size=6,
    ),
    horizon=st.integers(min_value=1, max_value=24),
    rate_basis=st.sampled_from(RATE_BASES),
)
# a zero-count top floor (lo > cap under "U-1"), and a one-unit ladder,
# whose rate is 0 under "U-1"
@example([2, 0, 3, 0, 1, 0, 4, 0], 6.5, [-3.0, 0.0, 2.25, 30.0], 12, "U-1")
@example([2, 0, 3, 0, 1, 0, 4, 0], 6.5, [-3.0, 0.0, 2.25, 30.0], 12, "U")
@example([1, 0, 0, 0, 0, 0, 0, 0], 2.0, [-1.0, 0.5, 3.0], 4, "U-1")
@settings(max_examples=150, deadline=None)
def test_fused_clamp_equals_the_double_clip_oracle(
    floor_counts, duration, starts, horizon, rate_basis
):
    building = Building(
        id="b", building_type="t", section_counts={"s": 1},
        assembly_duration=duration, start=0.0,
    )
    project = Project(
        section_types={"s": SectionType(id="s", detail_matrix=((1.0,) * 8,) * 8)},
        building_types={
            "t": BuildingType(id="t", floor_counts=dict(zip(FLOOR_TYPES, floor_counts)))
        },
        buildings={"b": building},
        horizon_months=horizon,
        rate_basis=rate_basis,
    )
    edges = np.arange(horizon + 1.0)
    kernel = project.kernel
    got = kernel.output(np.zeros(len(starts), dtype=int), starts, edges[:, None])
    expected = double_clip_output(floor_counts, duration, starts, edges, rate_basis)
    assert got.shape == expected.shape == (len(starts), horizon, 8)
    assert got.tobytes() == expected.tobytes()


def test_shared_compositions_keep_each_buildings_matrix():
    """Buildings with equal section counts share one combined matrix;
    equal counts listed in another order are summed in that order."""
    sections = {
        s: SectionType(id=s, detail_matrix=((v,) * 8,) * 8)
        for s, v in (("x", 0.1), ("y", 0.2), ("z", 0.3))
    }
    mixes = [
        {"x": 1, "y": 1, "z": 1}, {"z": 1, "y": 1, "x": 1}, {"x": 1, "y": 1, "z": 1},
        {"y": 3, "z": 0}, {"z": 1, "y": 1, "x": 1}, {"y": 3, "z": 0},
    ]
    buildings = {
        f"b{i}": Building(id=f"b{i}", building_type="t", section_counts=mix,
                          assembly_duration=4.0, start=0.0)
        for i, mix in enumerate(mixes)
    }
    project = Project(
        section_types=sections,
        building_types={"t": BuildingType(id="t", floor_counts={"r1": 2, "r2": 3})},
        buildings=buildings,
        horizon_months=6,
    )
    shared = project.kernel.matrix
    alone = [
        dataclasses.replace(project, buildings={b.id: b}).kernel.matrix[0]
        for b in buildings.values()
    ]
    for row, matrix in zip(shared, alone):
        assert row.tobytes() == matrix.tobytes()
    # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1: the order is kept, not sorted
    assert shared[0].tobytes() != shared[1].tobytes()


# --- one kernel per project ------------------------------------------------------

@pytest.mark.parametrize("size", [None, (72, 16, 12)], ids=["kope", "72/16"])
@pytest.mark.parametrize("command", ["improve", "evaluate", "balance"])
def test_a_command_builds_one_kernel(kope, size, command, tmp_path, monkeypatch):
    """Every step of a command reads the project's kernel, so improve, which
    tables schedules and prices menus, builds one, as evaluate and balance do."""
    save_instance(kope if size is None else synthetic_instance(*size), tmp_path / "in.json")
    built = []
    init = RequirementKernel.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RequirementKernel, "__init__", counted)
    result = CliRunner().invoke(main, [command, str(tmp_path / "in.json")])
    assert result.exit_code == 0, result.output
    assert len(built) == 1


def test_the_cached_kernel_is_invisible(kope, tmp_path):
    """Reading project.kernel changes no equality, repr or saved byte, and
    a replaced project builds its own kernel."""
    project, fresh = dataclasses.replace(kope.project), dataclasses.replace(kope.project)
    instance = dataclasses.replace(kope, project=project)

    def seen():
        path = tmp_path / "saved.json"
        save_instance(instance, path)
        return project == fresh, fresh == project, repr(project), path.read_bytes()

    before = seen()
    assert before[:2] == (True, True) and "kernel" not in vars(project)
    kernel = project.kernel
    assert project.kernel is kernel and seen() == before
    other = dataclasses.replace(project, rate_basis="U")
    assert other.kernel is not kernel
    assert other.kernel.rate.tobytes() != kernel.rate.tobytes()


@pytest.mark.parametrize("rate_basis", RATE_BASES)
def test_a_building_outside_the_project_is_tabled_on_its_own(kope, rate_basis):
    """A building the project does not hold gets the table and progress
    the kernel of the project with it added gives, bit for bit, whatever
    its duration: its window is 0.0 past its own width."""
    project = dataclasses.replace(kope.project, rate_basis=rate_basis)
    for b in project.buildings.values():
        for duration in (b.assembly_duration, 0.3, 2.7):
            new = dataclasses.replace(b, id="new", assembly_duration=duration)
            added = dataclasses.replace(project, buildings={**project.buildings, "new": new})
            kernel, row = added.kernel, added.kernel.row["new"]
            for start in (-0.5, 0.0, 3.25, 8.8, 17.6, 18.5):
                table = building_requirement_table(project, new, start)
                assert table.tobytes() == kernel.total([row], [start]).tobytes()
                for month in (1, 5, 10, 19):
                    edges = np.array([[month - 1.0], [month]])
                    units = kernel.output([row], [start], edges)[0, 0].tolist()
                    assert list(section_progress(project, new, month, start).values()) == units


def test_a_building_of_an_unknown_type_is_refused_by_name(kope):
    stranger = dataclasses.replace(kope.project.buildings["a1"], id="x", building_type="30-floor")
    for tabled in (building_requirement_table, lambda p, b: section_progress(p, b, 1)):
        with pytest.raises(ValueError, match="building x: unknown building type '30-floor'"):
            tabled(kope.project, stranger)


@pytest.fixture(scope="module")
def synthetic_288():
    return synthetic_instance(288, 8, 3)


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 288])
def test_blocked_horizon_table_is_the_placement_order_sum(synthetic_288, count):
    project = synthetic_288.project
    placements = synthetic_288.team_schedule.placements()[:count]
    assignments = {}
    for team, building_id, start in placements:
        assignments.setdefault(team, []).append((building_id, start))
    schedule = TeamSchedule(
        teams=synthetic_288.team_schedule.teams,
        assignments={team: tuple(pairs) for team, pairs in assignments.items()},
    )
    assert schedule.placements() == placements
    expected = np.zeros((project.horizon_months, 8))
    for _team, building_id, start in placements:
        expected += building_requirement_table(project, project.buildings[building_id], start)
    table = horizon_requirement_table(project, schedule)
    assert table.to_array().tobytes() == expected.tobytes()


def test_monthly_detail_vector_is_a_row_of_the_horizon_table(kope):
    table = horizon_requirement_table(kope.project, kope.team_schedule)
    for month in table.months:
        gamma = monthly_detail_requirements(kope.project, kope.team_schedule, month)
        assert gamma == table.row(month)


@pytest.mark.parametrize("months, named", [([0], "0"), ([20], "20"), ([0, 5, 20], "0, 20")])
def test_months_outside_the_horizon_are_refused(kope, months, named):
    with pytest.raises(ValueError, match=f"months outside 1..19: {named}$"):
        horizon_requirement_table(kope.project, kope.team_schedule, months)


@pytest.mark.parametrize("month", [0, 20])
def test_monthly_detail_vector_refuses_a_month_outside_the_horizon(kope, month):
    with pytest.raises(ValueError, match=f"months outside 1..19: {month}$"):
        monthly_detail_requirements(kope.project, kope.team_schedule, month)


@pytest.mark.parametrize("month", [0, -3, 25])
def test_monthly_floor_profile_refuses_a_month_outside_the_horizon(kope, month):
    with pytest.raises(ValueError, match=f"^months outside 1..19: {month}$"):
        monthly_floor_requirements(kope.project, kope.team_schedule, month)


def test_month1_detail_vector_matches_hand_composition(kope):
    gamma = monthly_detail_requirements(kope.project, kope.team_schedule, 1)
    assert gamma[1] == pytest.approx(hand_month1_d2(), abs=1e-9)
    assert len(gamma) == 8


def test_building_table_shape_and_support(kope):
    a5 = kope.project.buildings["a5"]  # active 8.8 .. 15.2
    table = building_requirement_table(kope.project, a5)
    assert table.shape == (19, 8)
    assert np.all(table[:8] == 0.0)  # months 1..8 end before 8.8
    assert table[8].sum() > 0.0  # month 9 covers [8,9)
    assert np.all(table[16:] == 0.0)  # months 17+ start after 15.2


def test_building_table_column_totals_conserve_detail_bills(kope):
    """Total demand equals the detail bill of all built floor-units."""
    proj = kope.project
    a1 = proj.buildings["a1"]
    bt = proj.building_type_of(a1)
    # expected: per section, every unit except the terminal one contributes
    units = []
    for floor, count in floor_sequence(bt):
        units.extend([floor] * count)
    units = units[:-1]
    expected = np.zeros(8)
    for section, count in a1.section_counts.items():
        matrix = proj.section_types[section].matrix_array()
        for floor in units:
            expected += count * matrix[FLOOR_TYPES.index(floor)]
    got = building_requirement_table(proj, a1).sum(axis=0)
    assert got == pytest.approx(expected)


def test_horizon_table_is_sum_of_building_tables(kope):
    """The cascade is linear in buildings."""
    proj, sched = kope.project, kope.team_schedule
    total = np.zeros((19, 8))
    for _team, bid, start in sched.placements():
        total += building_requirement_table(proj, proj.buildings[bid], start)
    table = horizon_requirement_table(proj, sched)
    assert table.to_array() == pytest.approx(total)


def test_requirement_table_accessors(kope):
    table = horizon_requirement_table(kope.project, kope.team_schedule)
    assert table.months == tuple(range(1, 20))
    assert table.row(12)[0] == pytest.approx(1934.60, abs=0.01)
    assert table.column("d1")[11] == table.row(12)[0]
    month, value = table.peak("d1")
    assert (month, round(value, 2)) == (12, 1934.60)


def test_peak_breaks_ties_on_earliest_month():
    table = RequirementTable(
        months=(1, 2, 3), values=((5.0, 0.0), (7.0, 0.0), (7.0, 1.0)),
        details=("d1", "d2"),
    )
    assert table.peak("d1") == (2, 7.0)


def test_detail_shares_basic():
    shares = detail_shares((1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert shares[0] == pytest.approx(50.0)
    assert shares[1] == pytest.approx(50.0)
    assert sum(shares) == pytest.approx(100.0)


def test_detail_shares_empty_month():
    with pytest.raises(ValueError, match="empty month"):
        detail_shares((0.0,) * 8)


def test_detail_shares_sum_to_100_on_fixture(kope):
    gamma = monthly_detail_requirements(kope.project, kope.team_schedule, 12)
    assert sum(detail_shares(gamma)) == pytest.approx(100.0)


# --- team schedules ---------------------------------------------------------------

def test_fixture_schedule_is_valid(kope):
    assert team_schedule_violations(kope.team_schedule, kope.project.buildings) == []
    assert validate_team_schedule(kope.team_schedule, kope.project.buildings)


def test_overlapping_placements_flagged(kope):
    bad = TeamSchedule(
        teams=("P1",),
        assignments={"P1": (("a1", 0.0), ("a3", 8.0))},  # a1 runs 0..9
    )
    violations = team_schedule_violations(bad, kope.project.buildings)
    assert violations == ["team P1: placements a1 and a3 overlap"]


def test_validate_team_schedule_raises_every_violation(kope):
    bad = TeamSchedule(
        teams=("P1",),
        assignments={"P1": (("a1", 0.0), ("a3", 8.0)), "P9": (("a2", 20.0),)},
    )
    violations = team_schedule_violations(bad, kope.project.buildings)
    with pytest.raises(ValidationError) as err:
        validate_team_schedule(bad, kope.project.buildings)
    assert err.value.violations == violations
    assert len(violations) == 2
    assert str(err.value) == "; ".join(violations)


def test_back_to_back_placements_allowed(kope):
    # a1 ends exactly where a3 begins; a float-tolerant boundary, no overlap
    snug = TeamSchedule(
        teams=("P1",),
        assignments={"P1": (("a1", 0.0), ("a3", 9.0))},
    )
    assert team_schedule_violations(snug, kope.project.buildings) == []


def test_duplicate_building_flagged(kope):
    dup = TeamSchedule(
        teams=("P1", "P2"),
        assignments={"P1": (("a1", 0.0),), "P2": (("a1", 10.0),)},
    )
    assert "building a1: placed more than once" in team_schedule_violations(
        dup, kope.project.buildings
    )


def test_unknown_building_flagged(kope):
    ghost = TeamSchedule(teams=("P1",), assignments={"P1": (("zz", 0.0),)})
    violations = team_schedule_violations(ghost, kope.project.buildings)
    assert violations == ["team P1: unknown building id 'zz'"]
