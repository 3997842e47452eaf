"""Correction variants, knapsack selectors, and the repair loop."""

import dataclasses
import hashlib
import json
import random
from collections.abc import Mapping
from math import ceil, floor

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import balsched.homebuilding
import balsched.improve
from balsched.cli import main
from balsched.fileio import save_instance
from balsched.fixtures import build_fixture
from balsched.homebuilding import (
    DAYS_PER_MONTH,
    DETAIL_TYPES,
    Building,
    BuildingTable,
    RequirementKernel,
    SectionType,
    TeamSchedule,
    building_requirement_table,
    horizon_requirement_table,
    team_schedule_violations,
)
from balsched.improve import (
    EXCHANGE_COST,
    NONE_VARIANT,
    RATIO_DIGITS,
    SHIFT_STEPS,
    BudgetedMCKP,
    CascadeCache,
    CorrectionGroup,
    CorrectionMenu,
    CorrectionVariant,
    ImproveParams,
    _active,
    _compose,
    _Lanes,
    _pack,
    _rounded,
    _tables,
    capacity_vector,
    generate_correction_groups,
    improvement_loop,
    max_violation,
    mckp_greedy,
    score_variant,
    violated_months,
    violation_measure,
)

from catalogue import KOPE_CATALOGUE
from oracles import (
    list_pack,
    mckp_enumerate,
    mckp_exact,
    ratio_greedy,
    rebuild_feasible,
    whole_horizon_menu,
    whole_horizon_profit,
)
from synthetic import synthetic_document, synthetic_instance


@pytest.fixture(scope="module")
def kope():
    return build_fixture("kope-1982")


def group(index, items, target="x"):
    """items: list of (profit, cost) for the non-none variants."""
    variants = [NONE_VARIANT]
    for days, (profit, cost) in enumerate(items, start=1):
        variants.append(
            CorrectionVariant(
                kind="shift_right", days=days, profit=profit, cost=cost
            )
        )
    return CorrectionGroup(index=index, targets=(target,), variants=tuple(variants))


# --- variant / group validation ----------------------------------------------

def test_none_variant_must_be_free():
    with pytest.raises(ValueError):
        CorrectionVariant(kind="none", profit=1.0)


def test_shift_needs_positive_days():
    with pytest.raises(ValueError):
        CorrectionVariant(kind="shift_left", days=0)
    with pytest.raises(ValueError):
        CorrectionVariant(kind="shift_right")


def test_exchange_needs_two_buildings():
    with pytest.raises(ValueError):
        CorrectionVariant(kind="exchange", buildings=("a",))


def test_negative_cost_rejected_negative_profit_kept():
    with pytest.raises(ValueError):
        CorrectionVariant(kind="shift_right", days=1, cost=-0.1)
    worse = CorrectionVariant(kind="shift_right", days=1, profit=-2.0, cost=0.1)
    assert worse.profit == -2.0


def test_group_first_variant_must_be_none():
    with pytest.raises(ValueError, match="first variant must be 'none'"):
        CorrectionGroup(
            index=1,
            targets=("x",),
            variants=(CorrectionVariant(kind="shift_right", days=1),),
        )


def test_records_refuse_an_unknown_kind_an_empty_group_and_a_negative_budget():
    with pytest.raises(ValueError, match=r"^unknown correction kind 'bogus'$"):
        CorrectionVariant("bogus")
    with pytest.raises(ValueError, match=r"^group 1: needs at least one variant$"):
        CorrectionGroup(1, ("a1",), ())
    with pytest.raises(ValueError, match=r"^budget must be non-negative$"):
        BudgetedMCKP((), -1.0)


def test_problem_sorts_groups_canonically():
    g2, g1 = group(2, [(1.0, 1.0)]), group(1, [(1.0, 1.0)])
    problem = BudgetedMCKP(groups=(g2, g1), budget=1.0)
    assert [g.index for g in problem.groups] == [1, 2]


# --- selectors on the recorded kope catalogue -----------------------------------

def test_catalogue_selection_budget_3():
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=3.0)
    for select in (mckp_greedy, mckp_exact):
        sel = select(problem)
        assert sel.chosen == (0, 3, 3, 0)
        assert sel.total_profit == pytest.approx(5.0)
        assert sel.total_cost == pytest.approx(3.0)


def test_catalogue_chosen_moves_are_the_14_and_21_day_shifts():
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=3.0)
    sel = mckp_greedy(problem)
    picked = [
        (g.targets[0], g.variants[j].kind, g.variants[j].days)
        for g, j in zip(problem.groups, sel.chosen)
        if g.variants[j].kind != "none"
    ]
    assert picked == [("a7", "shift_right", 14), ("a8", "shift_right", 21)]


def test_catalogue_budget_2_8_drops_to_profit_4_5():
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=2.8)
    sel = mckp_exact(problem)
    assert sel.chosen == (0, 2, 3, 0)
    assert sel.total_profit == pytest.approx(4.5)


def test_zero_budget_selects_all_none():
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=0.0)
    assert not any(mckp_greedy(problem).chosen)
    assert not any(mckp_exact(problem).chosen)


def test_big_budget_takes_max_profit_everywhere():
    total_max_cost = sum(
        max(v.cost for v in g.variants) for g in KOPE_CATALOGUE
    )
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=total_max_cost)
    sel = mckp_exact(problem)
    expected = sum(max(v.profit for v in g.variants) for g in KOPE_CATALOGUE)
    assert sel.total_profit == pytest.approx(expected)


def test_greedy_dominant_item():
    g = group(1, [(1.0, 1.0), (3.0, 1.0)])
    sel = mckp_greedy(BudgetedMCKP(groups=(g,), budget=1.0))
    assert sel.chosen == (2,)
    assert sel.total_profit == 3.0


def test_greedy_takes_free_items_first():
    g = group(1, [(0.5, 0.0), (10.0, 99.0)])
    sel = mckp_greedy(BudgetedMCKP(groups=(g,), budget=1.0))
    assert sel.chosen == (1,)



def test_greedy_ties_equal_ratios_despite_float_noise():
    # kope's a7 shifts of 3/7/14/21 days: one profit/cost ratio, whose
    # computed values differ in the last bits
    r = 0.07228158390949
    g = group(1, [(r * 0.1 * d, 0.1 * d) for d in (3, 7, 14, 21)])
    sel = mckp_greedy(BudgetedMCKP(groups=(g,), budget=5.0))
    assert sel.chosen == (1,)


# Profit/cost ratios that are equal up to float noise: a7's shift ratio at
# 3/7/14/21 days and exact halves; two ratios that round(_, 9) ties and
# np.round(_, 9) does not; free and worsening moves.
MENU_ITEMS = st.sampled_from([
    (0.07228158390949 * 0.1 * d, 0.1 * d) for d in (3, 7, 14, 21)
] + [(0.5, 1.0), (1.0, 2.0), (0.25, 0.5), (0.1223599325, 1.0), (0.122359933, 1.0),
     (0.3, 0.0), (0.0, 0.0), (-0.2, 0.3), (0.0, 2.0)])


@st.composite
def column_menus(draw):
    """A CorrectionMenu of shifts and exchanges over random groups, and a
    budget that sometimes equals a sum of its costs."""
    n_groups = draw(st.integers(0, 6))
    placed = [f"b{k}" for k in range(n_groups + 3)]
    group, kind, days, partner, profit, cost = [], [], [], [], [], []
    for g in range(n_groups):
        for _ in range(draw(st.integers(0, 5))):
            p, c = draw(MENU_ITEMS | st.tuples(
                st.floats(-1.0, 1.0, allow_nan=False), st.floats(0.0, 3.0, allow_nan=False)
            ))
            code = draw(st.sampled_from((1, 2, 3)))
            group.append(g)
            kind.append(code)
            days.append(0 if code == 3 else draw(st.sampled_from((3, 7, 14, 21))))
            partner.append(n_groups if code == 3 else -1)
            profit.append(p)
            cost.append(c)
    costs = sorted(set(cost))
    budget = draw(st.floats(0.0, 8.0) | st.sampled_from([0.0, sum(costs[:2]), sum(costs)]))
    menu = CorrectionMenu(
        placed, list(range(n_groups)), np.array(group, dtype=np.intp), np.array(kind, dtype=int),
        np.array(days, dtype=int), np.array(partner, dtype=int), np.array(profit, dtype=float),
        np.array(cost, dtype=float),
    )
    return menu, budget


@given(column_menus())
@settings(max_examples=200, deadline=None)
def test_column_greedy_equals_mckp_greedy_on_the_groups(case):
    menu, budget = case
    groups = tuple(menu.groups())
    assert [g.index for g in groups] == list(range(1, len(menu.targets) + 1))
    rows = menu.pack(budget)
    selection = menu.selection(rows)
    assert selection == mckp_greedy(BudgetedMCKP(groups=groups, budget=budget))
    assert selection.chosen == ratio_greedy(
        [[(v.profit, v.cost) for v in g.variants] for g in groups], budget
    )
    assert [menu.move(row)[1] for row in rows] == [
        g.variants[j] for g, j in zip(groups, selection.chosen) if j
    ]


#: Costs a menu can hold (shift days at DAY_COST, an exchange), a cost that
#: is float noise off one of them, and 0.
PACK_COSTS = [0.1 * d for d in SHIFT_STEPS] + [EXCHANGE_COST, 0.30000000000000004, 0.3, 0.0]
#: Ratios at 9-decimal half-way points: dyadic ones (exactly half-way) and
#: decimal ones, each also one ulp to either side.
HALF_WAYS = (st.integers(0, 2**20).map(lambda j: (2 * j + 1) / 1024)
             | st.integers(0, 10**12).map(lambda k: (k + 0.5) / 10**9))
NEAR_HALF_WAYS = HALF_WAYS.flatmap(lambda h: st.sampled_from(
    [h, float(np.nextafter(h, np.inf)), float(np.nextafter(h, -np.inf))]))


@st.composite
def pack_columns(draw):
    """(group, profit, cost, budget, floor) of a menu in group order: rows
    from MENU_ITEMS, rows whose ratios tie exactly or lie at 9-decimal
    half-way points, zero-cost rows, and budgets 0, 0.2, 5 and 50 or
    sums of the menu's costs, some less the greedy's 1e-9 slack."""
    n = draw(st.integers(0, 40))
    group = sorted(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
    ratio = draw(NEAR_HALF_WAYS)
    profit, cost = [], []
    for _ in range(n):
        c = draw(st.sampled_from(PACK_COSTS))
        p, c = draw(st.sampled_from([(ratio * c, c), (ratio, 1.0), (0.5 * c, c)])
                    | MENU_ITEMS | st.tuples(NEAR_HALF_WAYS, st.just(1.0)))
        profit.append(p)
        cost.append(c)
    budget = draw(st.sampled_from([0.0, 0.2, 5.0, 50.0]) | st.floats(0.0, 60.0)
                  | st.lists(st.sampled_from(cost or [0.0]), max_size=4).map(sum))
    budget = draw(st.sampled_from([budget, max(0.0, budget - 1e-9)]))
    floor = draw(st.sampled_from([0.0, 1e-12]))
    return (np.array(group, dtype=np.intp), np.array(profit), np.array(cost), budget, floor)


@given(pack_columns())
@settings(max_examples=300, deadline=None)
def test_pack_picks_the_rows_of_the_list_greedy(case):
    assert _pack(*case) == list_pack(*case)


@given(st.lists(
    NEAR_HALF_WAYS
    | st.floats(2.0**52 / 10**9, 1e308)
    | st.floats(-1e-307, 1e-307)
    | st.sampled_from([np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0, 2.0**52 / 10**9])
    | st.floats(allow_nan=False),
    min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_numpy_ratios_round_as_python_round(values):
    rounded = _rounded(np.array(values))
    assert rounded.tobytes() == np.array([round(v, RATIO_DIGITS) for v in values]).tobytes()


def test_exact_requires_integral_scaled_costs():
    g = group(1, [(1.0, 0.25)])
    with pytest.raises(ValueError, match="not integral at scale 10"):
        mckp_exact(BudgetedMCKP(groups=(g,), budget=1.0))
    # a finer scale fixes it
    sel = mckp_exact(BudgetedMCKP(groups=(g,), budget=1.0), cost_scale=100)
    assert sel.chosen == (1,)


def test_exact_state_cap():
    g = group(1, [(1.0, 1_000_000.0)])
    with pytest.raises(ValueError, match="instance too large for exact oracle"):
        mckp_exact(BudgetedMCKP(groups=(g,) * 4, budget=4_000_000.0))


def test_selector_determinism_under_group_permutation():
    base = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=3.0)
    shuffled = BudgetedMCKP(
        groups=tuple(reversed(KOPE_CATALOGUE)), budget=3.0
    )
    assert mckp_greedy(base) == mckp_greedy(shuffled)
    assert mckp_exact(base) == mckp_exact(shuffled)


def random_problem(rng):
    groups = []
    for index in range(1, rng.randint(2, 6) + 1):
        items = [
            (round(rng.uniform(0.0, 5.0), 2), round(rng.uniform(0.0, 3.0), 1))
            for _ in range(rng.randint(1, 4))
        ]
        groups.append(group(index, items, target=f"t{index}"))
    budget = round(rng.uniform(0.0, 6.0), 1)
    return BudgetedMCKP(groups=tuple(groups), budget=budget)


def test_greedy_never_beats_exact_and_exact_matches_enumeration():
    rng = random.Random(20260817)
    for _ in range(120):
        problem = random_problem(rng)
        greedy, exact = mckp_greedy(problem), mckp_exact(problem)
        plain = [
            [(v.profit, v.cost) for v in g.variants] for g in problem.groups
        ]
        best_profit, best_choice = mckp_enumerate(plain, problem.budget)
        assert greedy.total_profit <= exact.total_profit + 1e-9
        assert exact.total_profit == pytest.approx(best_profit)
        assert exact.chosen == best_choice
        assert greedy.total_cost <= problem.budget + 1e-9
        assert exact.total_cost <= problem.budget + 1e-9


# --- scoring and group generation -----------------------------------------------

def test_capacity_vector_defaults_to_infinity():
    cap = capacity_vector({"d1": 1480.0})
    assert cap[0] == 1480.0
    assert np.all(np.isinf(cap[1:]))
    with pytest.raises(ValueError, match="unknown detail"):
        capacity_vector({"d99": 1.0})
    assert capacity_vector({"d1": np.inf, "d2": 0.0})[:2].tolist() == [np.inf, 0.0]


@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_capacity_vector_refuses_negative_and_nan_capacities(value):
    line = f"capacity of detail 'd1' must be non-negative, got {value}"
    with pytest.raises(ValueError, match=line):
        capacity_vector({"d1": value})


def test_violation_measure_zero_when_under_capacity(kope):
    table = horizon_requirement_table(kope.project, kope.team_schedule).to_array()
    roomy = capacity_vector({"d1": 5000.0})
    assert violation_measure(table, roomy) == 0.0
    tight = capacity_vector({"d1": 1480.0})
    assert violation_measure(table, tight) > 0.0


@st.composite
def table_stacks(draw):
    """A C-contiguous P x months x 8 stack of requirements >= 0, and a
    capacity row mixing 0, finite values and +inf."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 30)), 8)
    cells = st.floats(0.0, 1e6, allow_nan=False) | st.sampled_from([0.0, 1480.0, 1e-12])
    stack = draw(hnp.arrays(float, shape, elements=cells))
    cap = draw(hnp.arrays(
        float, 8, elements=st.sampled_from([0.0, np.inf, 1480.0]) | st.floats(0.0, 1e6)
    ))
    return stack, cap


@given(table_stacks())
@settings(max_examples=200, deadline=None)
def test_violation_measure_is_the_stack_formula_on_one_table(case):
    stack, cap = case
    assert stack.flags.c_contiguous
    measures = balsched.improve._violation_measures(stack, cap)
    for i, table in enumerate(stack):
        assert violation_measure(table, cap) == measures[i]


def test_violated_months_on_fixture(kope):
    table = horizon_requirement_table(kope.project, kope.team_schedule).to_array()
    cap = capacity_vector({"d1": 1480.0})
    assert violated_months(table, cap) == (11, 12, 13)
    assert max_violation(table, cap) == pytest.approx(1934.60 - 1480.0, abs=0.01)


def test_score_none_variant_is_free(kope):
    profit, cost = score_variant(
        kope.project, kope.team_schedule, NONE_VARIANT, kope.capacity
    )
    assert (profit, cost) == (0.0, 0.0)


def test_score_shift_cost_is_a_dime_per_day(kope):
    variant = CorrectionVariant(kind="shift_right", days=7)
    _, cost = score_variant(
        kope.project, kope.team_schedule, variant, kope.capacity, target="a8"
    )
    assert cost == pytest.approx(0.7)


def test_score_late_shift_of_a8_pays_off(kope):
    variant = CorrectionVariant(kind="shift_right", days=21)
    profit, cost = score_variant(
        kope.project, kope.team_schedule, variant, kope.capacity, target="a8"
    )
    assert profit > 0.0
    assert cost == pytest.approx(2.1)


@pytest.mark.parametrize("capacity", [None, {"d1": 300.0, "d2": 90.0}])
def test_single_move_scores_agree_with_whole_horizon_pricing(kope, capacity):
    """Every shift of every kope building, also past month 0 or the
    horizon, and every exchange, feasible or not; at kope's capacity and
    at one that even the first month exceeds."""
    project, schedule, capacity = kope.project, kope.team_schedule, capacity or kope.capacity
    placement = {b: (team, start) for team, b, start in schedule.placements()}
    v = violation_measure(
        horizon_requirement_table(project, schedule).to_array(), capacity_vector(capacity)
    )
    for b, (team, start) in placement.items():
        for days in (*SHIFT_STEPS, 45, 90, 300):
            for kind, new_start in (("shift_right", start + days / DAYS_PER_MONTH),
                                    ("shift_left", start - days / DAYS_PER_MONTH)):
                profit, _cost = score_variant(
                    project, schedule, CorrectionVariant(kind, days=days), capacity, target=b
                )
                oracle = whole_horizon_profit(project, schedule, capacity, [(b, team, new_start)])
                assert abs(profit - oracle) <= 1e-12 * max(1.0, v), (b, kind, days)
        for other, (other_team, other_start) in placement.items():
            if other != b:
                profit, _cost = score_variant(
                    project, schedule, CorrectionVariant("exchange", buildings=(b, other)),
                    capacity,
                )
                oracle = whole_horizon_profit(
                    project, schedule, capacity,
                    [(b, other_team, other_start), (other, team, start)],
                )
                assert abs(profit - oracle) <= 1e-12 * max(1.0, v), (b, other)


def test_score_shift_without_target_is_an_error(kope):
    shift = CorrectionVariant(kind="shift_right", days=3)
    with pytest.raises(ValueError, match=r"^shift variant needs a target building$"):
        score_variant(kope.project, kope.team_schedule, shift, kope.capacity)


def test_score_unplaced_target_is_an_error(kope):
    variant = CorrectionVariant(kind="shift_right", days=7)
    with pytest.raises(ValueError, match="not placed"):
        score_variant(
            kope.project, kope.team_schedule, variant, kope.capacity, target="zz"
        )


def test_generated_groups_cover_peak_buildings(kope):
    groups = generate_correction_groups(
        kope.project, kope.team_schedule, kope.capacity
    )
    by_target = {g.targets[0]: g for g in groups}
    # buildings active in the violated months 11..13 all get a group
    assert set(by_target) == {"a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
    for target in ("a7", "a8"):
        kinds = {(v.kind, v.days) for v in by_target[target].variants}
        assert ("shift_right", 14) in kinds and ("shift_right", 21) in kinds
    # group indices are 1..n and every menu starts with none
    assert [g.index for g in groups] == list(range(1, len(groups) + 1))
    assert all(g.variants[0].kind == "none" for g in groups)


def test_generated_exchange_pairs_are_not_duplicated(kope):
    groups = generate_correction_groups(
        kope.project, kope.team_schedule, kope.capacity
    )
    pairs = [
        tuple(sorted(v.buildings))
        for g in groups
        for v in g.variants
        if v.kind == "exchange"
    ]
    assert len(pairs) == len(set(pairs))


def test_no_groups_when_capacity_is_roomy(kope):
    assert (
        generate_correction_groups(
            kope.project, kope.team_schedule, {"d1": 5000.0}
        )
        == []
    )


def test_generated_shifts_respect_horizon(kope):
    groups = generate_correction_groups(
        kope.project, kope.team_schedule, kope.capacity
    )
    # a9 runs 11.0..18.8; right shifts of 7+ days would cross month 19
    a9 = next(g for g in groups if g.targets == ("a9",))
    right_steps = {v.days for v in a9.variants if v.kind == "shift_right"}
    assert right_steps == {3}


def _small_synthetic(kope, rounds=1):
    """The nine kope buildings back to back on three teams over 30 months,
    with d1 capacity at 0.8 of the resulting peak. More rounds repeat the
    nine (copies of a1 named a1.2, a1.3, ...) over 30 more months each."""
    lanes = {
        "T1": ("a1", "a4", "a7"), "T2": ("a2", "a5", "a9"), "T3": ("a3", "a6", "a8")
    }
    buildings = dict(kope.project.buildings)
    for r in range(2, rounds + 1):
        for b in kope.project.buildings.values():
            buildings[f"{b.id}.{r}"] = dataclasses.replace(b, id=f"{b.id}.{r}")
    project = dataclasses.replace(
        kope.project, buildings=buildings, horizon_months=30 * rounds
    )
    assignments = {}
    for offset, (team, ids) in enumerate(lanes.items()):
        at, pairs = 0.1 * offset, []
        for r in range(1, rounds + 1):
            for building_id in ids:
                building_id = building_id if r == 1 else f"{building_id}.{r}"
                pairs.append((building_id, at))
                at += project.buildings[building_id].assembly_duration + 0.2
        assignments[team] = tuple(pairs)
    schedule = TeamSchedule(teams=tuple(lanes), assignments=assignments)
    _month, peak = horizon_requirement_table(project, schedule).peak("d1")
    return project, schedule, {"d1": 0.8 * peak}


def test_generated_profits_equal_single_move_scores(kope):
    cases = [(kope.project, kope.team_schedule, kope.capacity), _small_synthetic(kope)]
    for project, schedule, capacity in cases:
        groups = generate_correction_groups(project, schedule, capacity)
        assert sum(len(g.variants) - 1 for g in groups) > 20
        for g in groups:
            for v in g.variants[1:]:
                raw = CorrectionVariant(kind=v.kind, days=v.days, buildings=v.buildings)
                profit, cost = score_variant(
                    project, schedule, raw, capacity, target=g.targets[0]
                )
                assert profit == v.profit
                assert cost == v.cost


def _assert_menu_matches_the_oracle(project, schedule, capacity):
    """The generated menu has the oracle's rows, kinds, days and partners,
    and its profits are within 1e-12 * max(1, V) of the oracle's."""
    v, expected = whole_horizon_menu(project, schedule, capacity, SHIFT_STEPS)
    got = [
        (g.targets[0], v.kind, v.days, v.buildings and v.buildings[1], v.profit)
        for g in generate_correction_groups(project, schedule, capacity)
        for v in g.variants[1:]
    ]
    assert [row[:4] for row in got] == [row[:4] for row in expected]
    tolerance = 1e-12 * max(1.0, v)
    for row, oracle in zip(got, expected):
        assert abs(row[4] - oracle[4]) <= tolerance, (row, oracle[4])
    return got


def _draw_kope_lanes(kope, data, gap, min_size):
    """Kope buildings drawn onto one to three lanes, each after a gap drawn
    from ``gap``, with a horizon up to two months past the last end: the
    project, the schedule and its requirement table."""
    project = kope.project
    ids = data.draw(st.lists(st.sampled_from(sorted(project.buildings)),
                             min_size=min_size, max_size=9, unique=True))
    teams = ("T1", "T2", "T3")[: data.draw(st.integers(1, 3))]
    assignments, ends = {team: [] for team in teams}, dict.fromkeys(teams, 0.0)
    for building_id in ids:
        team = data.draw(st.sampled_from(teams))
        start = ends[team] + data.draw(gap)
        assignments[team].append((building_id, start))
        ends[team] = start + project.buildings[building_id].assembly_duration
    project = dataclasses.replace(
        project, horizon_months=ceil(max(ends.values())) + data.draw(st.integers(0, 2))
    )
    schedule = TeamSchedule(
        teams=teams, assignments={team: tuple(pairs) for team, pairs in assignments.items()}
    )
    return project, schedule, horizon_requirement_table(project, schedule)


def _draw_capacity(data, table, share):
    """One to three details, each capped at a share of its peak drawn from
    ``share``."""
    details = data.draw(st.lists(st.sampled_from(DETAIL_TYPES), min_size=1, max_size=3,
                                 unique=True))
    return {d: data.draw(share) * table.peak(d)[1] for d in details}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_menu_profits_agree_with_whole_horizon_pricing(kope, data):
    """Kope buildings on one to three lanes, starts on and off whole months,
    and one to three details capped anywhere from 0 to near their peak."""
    gap = st.sampled_from((0.0, 0.1, 1 / 30, 0.5, 1.0)) | st.floats(0.0, 3.0)
    project, schedule, table = _draw_kope_lanes(kope, data, gap, min_size=2)
    # below the peak, so no month sits on its capacity, where the oracle's
    # own rounding could call the month violated and the library not
    share = st.sampled_from((0.0, 0.5, 0.8)) | st.floats(0.0, 0.95)
    _assert_menu_matches_the_oracle(project, schedule, _draw_capacity(data, table, share))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_violated_schedule_always_has_a_menu_target(kope, data):
    """Kope buildings on one to three lanes, often a tenth of a month
    apart (so spans often end on a whole month), and one to three details
    capped anywhere from 0 to their peak: whenever V is above 0, some
    building is active in a violated month, so the repair loop never meets
    an empty menu. Every violated month has a target that adds to it, and
    every building that adds to it is active there."""
    gap = st.sampled_from((0.0, 0.1, 0.2, 0.5, 1.0)) | st.floats(0.0, 3.0)
    project, schedule, table = _draw_kope_lanes(kope, data, gap, min_size=1)
    share = st.sampled_from((0.0, 0.5, 0.8)) | st.floats(0.0, 1.0)
    capacity = _draw_capacity(data, table, share)
    cap = capacity_vector(capacity)
    v = violation_measure(table.to_array(), cap)
    groups = generate_correction_groups(project, schedule, capacity)
    months = violated_months(table.to_array(), cap)
    assert bool(groups) == bool(months) == (v > 0.0)
    start = {b: s for _team, b, s in schedule.placements()}
    ids = sorted(start)
    adds = {  # the months in which each building adds to a capped detail
        b: (building_requirement_table(project, project.buildings[b], start[b])
            [:, np.isfinite(cap)] > 0).any(axis=1)
        for b in ids
    }
    active = _active(np.array([start[b] for b in ids]),
                     np.array([project.buildings[b].assembly_duration for b in ids]), months)
    targets = {g.targets[0] for g in groups}
    for m, row in zip(months, active):
        adding = {b for b in ids if adds[b][m - 1]}
        assert adding & targets, m
        assert adding <= {b for b, is_active in zip(ids, row) if is_active}, m


def test_a_span_ending_on_a_whole_month_is_active_in_the_next(kope):
    """a2 alone at 9.8 ends on 16.0, but rate * duration rounds just below
    its ladder top, so its last floor-unit leaves float dust of d1 in month
    17: with d1 capped at 0 that month is violated, and a2 is active in it."""
    project = dataclasses.replace(kope.project, horizon_months=18)
    schedule = TeamSchedule(teams=("T1",), assignments={"T1": (("a2", 9.8),)})
    capacity = {"d1": 0.0}
    table = horizon_requirement_table(project, schedule).to_array()
    duration = project.buildings["a2"].assembly_duration
    assert 9.8 + duration == 16.0
    assert 0.0 < table[16, 0] < 1e-12
    assert 17 in violated_months(table, capacity_vector(capacity))
    assert _active(np.array([9.8]), np.array([duration]), [17]).all()
    assert [g.targets for g in generate_correction_groups(project, schedule, capacity)] == [("a2",)]
    _assert_menu_matches_the_oracle(project, schedule, capacity)


def test_menu_checks_a_shift_past_a_lane_neighbour_on_the_whole_lane(kope, monkeypatch):
    """Buildings shorter than 21 days, so some shifts pass a neighbour on
    their lane and take _Lanes.fits: the menu lists a shift exactly when
    rebuilding every lane finds it feasible."""
    durations = {"a1": 0.2, "a2": 0.1, "a3": 0.2, "a4": 0.5}
    assignments = {"T1": (("a1", 1.0), ("a2", 1.2), ("a3", 3.0)), "T2": (("a4", 1.1),)}
    project = dataclasses.replace(kope.project, horizon_months=5, buildings={
        b: dataclasses.replace(kope.project.buildings[b], assembly_duration=d)
        for b, d in durations.items()})
    schedule = TeamSchedule(teams=tuple(assignments), assignments=assignments)
    fits, checked = _Lanes.fits, []

    def counted(self, moves):
        checked.append(moves[0][0])
        return fits(self, moves)

    monkeypatch.setattr(_Lanes, "fits", counted)
    groups = generate_correction_groups(project, schedule, {"d1": 0.0})
    assert sorted(g.targets[0] for g in groups) == sorted(durations)
    assert {"a1", "a2"} <= set(checked)
    listed = {(g.targets[0], v.kind, v.days) for g in groups for v in g.variants[1:]}
    assert ("a1", "shift_right", 14) in listed  # past a2, before a3
    for team, pairs in assignments.items():
        for target, start in pairs:
            for kind, sign in (("shift_right", 1), ("shift_left", -1)):
                for days in SHIFT_STEPS:
                    moved = [(target, team, start + sign * (days / DAYS_PER_MONTH))]
                    feasible = rebuild_feasible(assignments, durations, 5, moved)
                    assert ((target, kind, days) in listed) == feasible, (target, kind, days)


@pytest.mark.parametrize("seed", [None, 12, 13, 14, 15])
def test_menu_profits_agree_with_whole_horizon_pricing_when_seeded(kope, seed):
    """kope (seed None) and the benchmark's 72-building, 16-team instances."""
    instance = kope if seed is None else synthetic_instance(72, 16, seed)
    rows = _assert_menu_matches_the_oracle(
        instance.project, instance.team_schedule, instance.capacity
    )
    assert len(rows) > 20


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_a_same_kind_exchange_prices_to_zero_and_is_not_listed(data):
    """Building i of a synthetic project copies kope building i mod 9, so
    buildings nine apart are of one kind: the same type, composition and
    duration. Exchanging two of them changes no table bit, whatever their
    placements and the capacities."""
    n = data.draw(st.sampled_from((18, 27, 36)))
    instance = synthetic_instance(n, data.draw(st.integers(1, 6)), data.draw(st.integers(0, 10**6)))
    project, schedule = instance.project, instance.team_schedule
    i = data.draw(st.integers(0, n - 10))
    j = data.draw(st.sampled_from(range(i + 9, n, 9)))
    buildings = project.buildings
    assert buildings.type_codes[i] == buildings.type_codes[j]
    assert buildings.composition_codes[i] == buildings.composition_codes[j]
    assert buildings.assembly_duration[i] == buildings.assembly_duration[j]
    table = horizon_requirement_table(project, schedule)
    details = data.draw(st.lists(st.sampled_from(DETAIL_TYPES), min_size=1, max_size=3,
                                 unique=True))
    capacity = {d: data.draw(st.floats(0.0, 1.0)) * table.peak(d)[1] for d in details}
    pair = (buildings.ids[i], buildings.ids[j])
    exchange = CorrectionVariant("exchange", buildings=pair)
    assert score_variant(project, schedule, exchange, capacity) == (0.0, EXCHANGE_COST)
    groups = generate_correction_groups(project, schedule, capacity)
    assert not [v for g in groups for v in g.variants if set(v.buildings or ()) == set(pair)]


def _synthetic_kinds(data, min_size=9):
    """A random synthetic project in which some buildings take another's
    duration or one ulp more, and its kernel."""
    n = data.draw(st.integers(min_size, 40))
    instance = synthetic_instance(n, data.draw(st.integers(1, 8)), data.draw(st.integers(0, 10**6)))
    project = instance.project
    durations = project.buildings.assembly_duration.tolist()
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=6)):
        other = durations[data.draw(st.integers(0, n - 1))]
        durations[i] = data.draw(st.sampled_from((other, float(np.nextafter(other, np.inf)))))
    buildings = {
        b.id: dataclasses.replace(b, assembly_duration=d)
        for b, d in zip(project.buildings.values(), durations)
    }
    project = dataclasses.replace(project, buildings=buildings)
    return project, project.kernel


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_rows_of_one_kind_gather_bit_identical_constants(data):
    _project, kernel = _synthetic_kinds(data)
    for code in np.unique(kernel.kind):
        rows = np.flatnonzero(kernel.kind == code)
        for constants in (kernel.rate, kernel.lo, kernel.top, kernel.matrix):
            assert {constants[row].tobytes() for row in rows} == {constants[rows[0]].tobytes()}


def _offset_key(start, horizon):
    """A start's key in _tables, from Python floats: start less its first
    window month, clip(floor(start), 0, horizon), where that is exact (by
    Sterbenz), else the start itself."""
    first = min(max(floor(start), 0), horizon)
    return start - first if first == 0 or start <= 2 * first else start


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_tables_computed_once_per_kind_and_offset_equal_one_placement_calls(data):
    """Placements drawn from a pool of starts: inside the horizon, below 0,
    0.0 and -0.0, one ulp off month edges, in [horizon, 2 * horizon] and
    past it, and the fractions of some of them moved onto other months.
    Each distinct (kind, offset) is computed once, and every placement
    gathers the first month and the table its own window call gives, bit
    for bit."""
    project, kernel = _synthetic_kinds(data)
    horizon = project.horizon_months
    edges = st.integers(-2, 2 * horizon + 2).map(float)
    pool = data.draw(st.lists(st.one_of(
        st.floats(-3.0, float(horizon)),
        edges.map(lambda m: float(np.nextafter(m, np.inf))),
        edges.map(lambda m: float(np.nextafter(m, -np.inf))),
        st.floats(float(horizon), 2.0 * horizon),
        st.floats(2.0 * horizon, 4.0 * horizon),
    ), min_size=1, max_size=6))
    pool += [float(np.nextafter(s, np.inf)) for s in pool] + [0.0, -0.0, 2.0 * horizon]
    pool += [m + s % 1.0 for s in pool for m in (1.0, 7.0, float(horizon))]
    size = data.draw(st.integers(1, 60))
    rows = np.array(data.draw(st.lists(st.integers(0, len(project.buildings) - 1),
                                       min_size=size, max_size=size)))
    starts = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    cols = np.array(sorted(data.draw(st.sets(st.integers(0, 7), min_size=1))))
    first, tables, key = _tables(kernel, rows, starts, cols)
    distinct = {(kernel.kind[r], _offset_key(s, horizon))
                for r, s in zip(rows.tolist(), starts.tolist())}
    assert len(tables) == len(distinct) == len(set(key.tolist()))
    assert len(first) == size
    for i in range(size):
        one_first, one = kernel.window(rows[i:i + 1], starts[i:i + 1], cols)
        assert first[i] == one_first[0]
        assert tables[key[i]].tobytes() == one[0].tobytes()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_starts_one_ulp_apart_are_never_merged(data):
    """Synthetic building i copies kope building i mod 9, so rows nine
    apart share a key at one start, and never at starts one ulp apart:
    inside the horizon, on a month edge, below 0 or past the horizon."""
    project, kernel = _synthetic_kinds(data, min_size=18)
    horizon = project.horizon_months
    i = data.draw(st.integers(0, len(project.buildings) - 10))
    j = data.draw(st.sampled_from(range(i + 9, len(project.buildings), 9)))
    assume(kernel.kind[i] == kernel.kind[j])
    start = data.draw(st.one_of(st.floats(-2.0 * horizon, 4.0 * horizon),
                                st.integers(-2, 2 * horizon + 2).map(float)))
    starts = [start, start, np.nextafter(start, np.inf), np.nextafter(start, -np.inf)]
    _first, _windows, key = _tables(kernel, np.array([i, j, j, i]), np.array(starts),
                                    np.arange(len(DETAIL_TYPES)))
    assert key[0] == key[1]
    assert len({key[0], key[2], key[3]}) == 3


def test_each_new_placement_is_priced_once_per_kind_and_start(kope, monkeypatch):
    """At most one table per distinct (kind, new start) of the menu, on top
    of the schedule's table and the placed buildings' windows where they
    stand; pricing row by row would ask for more."""
    project, schedule, capacity = _small_synthetic(kope, rounds=5)
    placements = []
    kernel_window = RequirementKernel.window

    def counted(self, rows, starts, cols=slice(None)):
        placements.append(len(rows))
        return kernel_window(self, rows, starts, cols)

    monkeypatch.setattr(RequirementKernel, "window", counted)
    groups = generate_correction_groups(project, schedule, capacity)
    start = {b: s for _team, b, s in schedule.placements()}

    def kind(b):
        building = project.buildings[b]
        return (building.building_type, tuple(building.section_counts.items()),
                building.assembly_duration)

    new, per_row = set(), 0
    for g in groups:
        b = g.targets[0]
        for v in g.variants[1:]:
            if v.kind == "exchange":
                other = v.buildings[1]
                new |= {(kind(b), start[other]), (kind(other), start[b])}
                per_row += 2
            else:
                step = v.days / DAYS_PER_MONTH
                new.add((kind(b), start[b] + step if v.kind == "shift_right" else start[b] - step))
                per_row += 1
    placed = len(start)
    assert sum(placements) <= 2 * placed + len(new) < 2 * placed + per_row


# improvement_loop(budget=5, max_iters=3): each iteration's chosen moves and
# the final V, recorded from the loop that priced every move on the whole
# horizon and all eight details.
THREE_ITERATION_PINS = {
    (72, 16, 12): ([
        "b0006 -3d, exchange b0009<->b0069",
        "b0024 -3d, exchange b0027<->b0066, b0061 +3d, b0070 +3d",
        "b0024 -3d, exchange b0036<->b0067, b0059 +3d, b0070 +3d",
    ], 2.002667996793994),
    (72, 16, 13): ([
        "b0006 -3d, exchange b0018<->b0069",
        "exchange b0036<->b0066, b0054 +3d, b0068 +3d, b0070 +3d",
        "exchange b0009<->b0067, exchange b0045<->b0070, b0051 -3d, b0054 +3d",
    ], 1.7827971892753198),
    (72, 16, 14): ([
        "exchange b0009<->b0069, b0015 -3d",
        "b0007 +3d, b0016 +3d, exchange b0027<->b0066, b0054 +3d",
        "exchange b0045<->b0067, b0068 +3d, b0070 +3d, b0071 +3d",
    ], 1.9465033670685572),
    (72, 16, 15): ([
        "exchange b0036<->b0069, b0054 +3d, b0070 +3d",
        "exchange b0009<->b0066, b0068 +3d, b0070 +7d",
        "exchange b0027<->b0067, b0054 +3d, b0068 +3d, b0070 +3d",
    ], 2.0429164564822893),
    (144, 32, 5): ([
        "exchange b0009<->b0132, b0133 +3d, b0141 +3d, b0142 +3d",
        "exchange b0018<->b0138, b0133 +3d, b0141 +3d, b0142 +3d",
        "exchange b0027<->b0129, b0133 +3d, b0141 +3d, b0142 +3d",
    ], 3.4966331120350316),
}


@pytest.mark.parametrize("size", THREE_ITERATION_PINS, ids=lambda n: "-".join(map(str, n)))
def test_three_iteration_loops_keep_their_selections(size):
    instance = synthetic_instance(*size)
    result = improvement_loop(
        instance.project, instance.team_schedule, instance.capacity,
        ImproveParams(budget=5, max_iters=3),
    )
    chosen = [
        ", ".join(variant.describe(target) for target, variant in record.moves)
        for record in result.trace
    ]
    expected, final_v = THREE_ITERATION_PINS[size]
    assert chosen == expected
    for record in result.trace:
        assert sum(1 for j in record.selection.chosen if j) == len(record.moves)
        assert record.selection.total_profit == sum(v.profit for _t, v in record.moves)
    assert result.v_sequence()[-1] == final_v
    assert result.stop_reason == "max iterations"


@pytest.mark.parametrize("synthetic", [False, True], ids=["kope", "72/16"])
def test_schedule_table_is_one_window_call_equal_to_the_horizon_table(
    kope, monkeypatch, synthetic
):
    """On the input schedule and on every schedule a loop run tables."""
    instance = synthetic_instance(72, 16, seed=12) if synthetic else kope
    project = instance.project
    schedules = []
    schedule_table = CascadeCache.schedule_table

    def recorded_table(self, schedule):
        schedules.append(schedule)
        return schedule_table(self, schedule)

    monkeypatch.setattr(CascadeCache, "schedule_table", recorded_table)
    result = improvement_loop(
        project, instance.team_schedule, instance.capacity, ImproveParams(max_iters=3)
    )
    monkeypatch.undo()
    assert schedules[0] is instance.team_schedule and len(schedules) > len(result.trace)
    assert result.schedule in schedules

    calls = []
    kernel_window = balsched.homebuilding.RequirementKernel.window

    def counted_kernel(self, rows, starts, cols=slice(None)):
        calls.append(len(rows))
        return kernel_window(self, rows, starts, cols)

    monkeypatch.setattr(balsched.homebuilding.RequirementKernel, "window", counted_kernel)
    cache = CascadeCache(project)
    for schedule in schedules:
        expected = horizon_requirement_table(project, schedule).to_array()
        calls.clear()
        table = cache.schedule_table(schedule)
        assert calls == [len(schedule.placements())]
        assert table.tobytes() == expected.tobytes()
    for _team, building_id, start in instance.team_schedule.placements():
        one = building_requirement_table(project, project.buildings[building_id], start)
        assert cache.building_table(building_id, start).tobytes() == one.tobytes()


@pytest.mark.parametrize("synthetic", [False, True], ids=["kope", "72/16"])
def test_loop_indexes_the_schedule_once_per_run(kope, monkeypatch, synthetic):
    instance = synthetic_instance(72, 16, seed=12) if synthetic else kope
    built = []
    lanes_init = _Lanes.__init__

    def counted_init(self, buildings, schedule, horizon):
        built.append(schedule)
        lanes_init(self, buildings, schedule, horizon)

    monkeypatch.setattr(_Lanes, "__init__", counted_init)
    result = improvement_loop(
        instance.project, instance.team_schedule, instance.capacity, ImproveParams(max_iters=3)
    )
    assert sum(record.accepted for record in result.trace) >= 2
    assert built == [instance.team_schedule]


def test_exchange_scoring_makes_no_per_partner_table_call(kope, monkeypatch):
    # five rounds: the copies of one kope building exchange with nothing,
    # so fewer rounds leave under three partners per target
    project, schedule, capacity = _small_synthetic(kope, rounds=5)
    calls = []
    kernel_window = balsched.homebuilding.RequirementKernel.window

    def counted_kernel(self, rows, starts, cols=slice(None)):
        calls.append(len(rows))
        return kernel_window(self, rows, starts, cols)

    monkeypatch.setattr(balsched.homebuilding.RequirementKernel, "window", counted_kernel)
    groups = generate_correction_groups(project, schedule, capacity)
    exchanges = sum(v.kind == "exchange" for g in groups for v in g.variants)
    assert exchanges > 3 * len(groups)
    # one call for the schedule's table, then one per PRICE_BLOCK distinct
    # (kind, start) of the menu's windows: the placed buildings where they
    # stand, the targets' shifts and both sides of their exchanges, fewer
    # than the rows here. A call per target or per partner would be more.
    rows = sum(len(g.variants) - 1 for g in groups)
    assert len(calls) <= 2 + ceil(rows / balsched.improve.PRICE_BLOCK) == 3


# `improve --max-iters 3` on _small_synthetic(kope, rounds=8), recorded
# from the repair loop that built every move as a CorrectionVariant and
# checked every shift with _Lanes.fits; the closing "wrote" line is left out.
SMALL_SYNTHETIC_TRANSCRIPT = [
    "iteration 1: V 1.9523 -> 1.2967 accepted; chosen: exchange a3.3<->a7.5, "
    "exchange a3.8<->a7.2, a5.3 +3d, a5.5 +3d, a6.7 +3d (profit 0.7062, cost 4.90)",
    "iteration 2: V 1.2967 -> 0.8990 accepted; chosen: a2.3 -3d, a2.6 +3d, a5.3 +3d, "
    "exchange a5.5<->a2.7, a6 -3d, a6.2 +3d, a6.6 -3d, a9 -3d, a9.2 +3d, a9.4 +3d "
    "(profit 0.3977, cost 4.70)",
    "iteration 3: V 0.8990 -> 0.7539 accepted; chosen: a2 -3d, a2.6 +3d, a3.3 -3d, "
    "a3.8 -3d, a4.3 -3d, a5 +3d, exchange a5.3<->a2.8, a6 -3d, a6.5 +3d, a9.4 +3d "
    "(profit 0.1559, cost 4.70)",
    "stop: max iterations",
    "final peak d1: 1072.79 (month 36)",
]
SMALL_SYNTHETIC_WRITTEN_SHA256 = (
    "b7094564faad192d2bf9f6f81532d8c0ef011a8e5df8b008ac698b482132fb53"
)


def test_improve_transcript_and_written_file_at_72_buildings(kope, tmp_path):
    project, schedule, capacity = _small_synthetic(kope, rounds=8)
    assert len(project.buildings) == 72
    save_instance(
        dataclasses.replace(kope, project=project, team_schedule=schedule, capacity=capacity),
        tmp_path / "in.json",
    )
    out = tmp_path / "out.json"
    result = CliRunner().invoke(
        main, ["improve", str(tmp_path / "in.json"), "--max-iters", "3", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines() == SMALL_SYNTHETIC_TRANSCRIPT + [f"wrote {out}"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_SYNTHETIC_WRITTEN_SHA256


# `improve` with default parameters on synthetic_instance(72, 16, 17): nine
# accepted passes, then a tenth whose composed moves do not lower V, which
# ends the run. The closing "wrote" line is left out. ROADMAP item 1 step 1
# (apply the best single move when the composed selection fails) changes
# this run on purpose.
REJECTED_PASS_TRANSCRIPT = [
    "iteration 1: V 2.8007 -> 2.4734 accepted; chosen: b0015 -3d, b0033 -3d, "
    "exchange b0036<->b0066, b0069 +3d (profit 0.3273, cost 2.90)",
    "iteration 2: V 2.4734 -> 1.9524 accepted; chosen: exchange b0027<->b0070, "
    "b0033 -3d, b0034 -3d, exchange b0045<->b0069 (profit 0.5480, cost 4.60)",
    "iteration 3: V 1.9524 -> 1.6606 accepted; chosen: exchange b0009<->b0067, "
    "b0059 +3d, b0062 +3d, b0068 +3d (profit 0.2918, cost 2.90)",
    "iteration 4: V 1.6606 -> 1.3933 accepted; chosen: exchange b0018<->b0065, "
    "exchange b0054<->b0058, b0059 +3d, b0062 +3d, b0068 +3d (profit 0.2939, "
    "cost 4.90)",
    "iteration 5: V 1.3933 -> 1.3124 accepted; chosen: exchange b0019<->b0059, "
    "b0032 -3d, b0034 -3d, b0068 +3d (profit 0.0987, cost 2.90)",
    "iteration 6: V 1.3124 -> 1.1925 accepted; chosen: b0009 +3d, b0018 +3d, "
    "b0023 +3d, b0033 +3d, b0036 +3d, b0042 -3d, exchange b0054<->b0064, "
    "b0059 +3d, b0062 +3d, b0063 +3d, b0068 +3d (profit 0.1454, cost 5.00)",
    "iteration 7: V 1.1925 -> 1.1174 accepted; chosen: b0001 -3d, b0002 -3d, "
    "b0005 -3d, b0008 -3d, b0010 -3d, b0011 -3d, b0015 -3d, b0018 +3d, b0044 +3d, "
    "b0047 +3d, b0049 +3d, b0050 +3d, b0051 +3d, b0053 +3d, b0054 +3d, b0056 +3d "
    "(profit 0.1132, cost 4.80)",
    "iteration 8: V 1.1174 -> 1.0717 accepted; chosen: exchange b0005<->b0071, "
    "b0051 +3d, b0055 +3d, b0056 +3d (profit 0.0457, cost 2.90)",
    "iteration 9: V 1.0717 -> 1.0480 accepted; chosen: exchange b0014<->b0062, "
    "b0019 +3d, b0064 +3d (profit 0.0279, cost 2.60)",
    "iteration 10: V 1.0480 -> 1.0480 rejected; chosen: b0002 +3d, b0003 +3d, "
    "b0007 +3d, b0008 +3d, b0011 +3d, b0012 +3d, b0013 +3d, b0014 +3d, b0016 +3d, "
    "b0040 -3d, b0062 +3d, b0063 +3d, b0070 -3d, b0071 +3d (profit 0.0477, "
    "cost 4.20)",
    "stop: no decrease in violation measure",
    "final peak d1: 4601.38 (month 3)",
]
REJECTED_PASS_WRITTEN_SHA256 = (
    "2eba9dbcc754f0302f9600f06c91d04f9330e5e5d7677a0184c2758c59ed0157"
)


def test_improve_transcript_and_written_file_ending_in_a_rejected_pass(tmp_path):
    source = tmp_path / "in.json"
    source.write_text(json.dumps(synthetic_document(72, 16, 17)))
    out = tmp_path / "out.json"
    result = CliRunner().invoke(main, ["improve", str(source), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines() == REJECTED_PASS_TRANSCRIPT + [f"wrote {out}"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REJECTED_PASS_WRITTEN_SHA256


def test_menus_decide_every_exchange_without_the_lane_check(monkeypatch):
    """An exchange keeps both slots' starts, so _swap_fits decides every
    partner, lane neighbours included; the menus rebuild no lane stretch
    for a pair of buildings."""
    instance = synthetic_instance(72, 16, 12)
    state = {"in_menu": False, "menus": 0, "exchange_checks": 0}
    menu, fits = balsched.improve._correction_menu, balsched.improve._Lanes.fits

    def counted_menu(*args):
        state["menus"] += 1
        state["in_menu"] = True
        try:
            return menu(*args)
        finally:
            state["in_menu"] = False

    def counted_fits(self, moves):
        if state["in_menu"] and len(moves) == 2:
            state["exchange_checks"] += 1
        return fits(self, moves)

    monkeypatch.setattr(balsched.improve, "_correction_menu", counted_menu)
    monkeypatch.setattr(balsched.improve._Lanes, "fits", counted_fits)
    result = improvement_loop(
        instance.project, instance.team_schedule, instance.capacity,
        ImproveParams(max_iters=3),
    )
    assert len(result.trace) == 3
    assert state["menus"] == 3
    assert state["exchange_checks"] == 0


def test_horizon_table_converts_each_section_matrix_once(kope, monkeypatch):
    project, schedule, _capacity = _small_synthetic(kope, rounds=8)
    project = dataclasses.replace(project)  # a fresh project, whose kernel is not built yet
    assert len(project.buildings) == 72
    converted = []
    matrix_array = SectionType.matrix_array

    def counted(self):
        converted.append(self.id)
        return matrix_array(self)

    monkeypatch.setattr(SectionType, "matrix_array", counted)
    horizon_requirement_table(project, schedule)
    assert converted
    assert len(converted) == len(set(converted)) <= len(project.section_types)


def test_a_target_with_no_move_of_a_kind_makes_no_kernel_call(kope, monkeypatch):
    sizes = []
    kernel_window = balsched.homebuilding.RequirementKernel.window

    def sized_kernel(self, rows, starts, cols=slice(None)):
        sizes.append(len(rows))
        return kernel_window(self, rows, starts, cols)

    monkeypatch.setattr(balsched.homebuilding.RequirementKernel, "window", sized_kernel)
    groups = generate_correction_groups(kope.project, kope.team_schedule, kope.capacity)
    # kope's last target has no exchange partner
    assert any(all(v.kind != "exchange" for v in g.variants) for g in groups)
    assert sizes and 0 not in sizes


def test_invalid_schedule_is_refused_with_its_violations(kope):
    assignments = dict(kope.team_schedule.assignments)
    assignments["P2"] = (("a4", 7.0), ("a7", 11.0))  # a4 runs to 11.8
    broken = TeamSchedule(teams=kope.team_schedule.teams, assignments=assignments)
    with pytest.raises(ValueError, match="placements a4 and a7 overlap"):
        generate_correction_groups(kope.project, broken, kope.capacity)
    with pytest.raises(ValueError, match="placements a4 and a7 overlap"):
        improvement_loop(kope.project, broken, kope.capacity, kope.improve_params)


def test_loop_builds_each_schedule_table_once(kope, monkeypatch):
    calls = {"tables": 0, "checks": 0}
    schedule_table = CascadeCache.schedule_table
    checks = balsched.improve.team_schedule_violations

    def counted_table(self, schedule):
        calls["tables"] += 1
        return schedule_table(self, schedule)

    def counted_checks(schedule, buildings):
        calls["checks"] += 1
        return checks(schedule, buildings)

    monkeypatch.setattr(CascadeCache, "schedule_table", counted_table)
    for module in (balsched.homebuilding, balsched.improve):
        monkeypatch.setattr(module, "team_schedule_violations", counted_checks)
    result = improvement_loop(
        kope.project, kope.team_schedule, kope.capacity, kope.improve_params
    )
    iterations = len(result.trace)
    assert iterations == 2
    assert calls["tables"] <= iterations + 1
    assert calls["checks"] <= 2 * iterations


# Start offsets that put a moved span exactly against, or 1e-9 either side
# of, a neighbour or the horizon.
EDGES = (-1e-9, 0.0, 1e-9)


@st.composite
def schedules_and_moves(draw):
    horizon = 12
    gap = st.sampled_from((0.0, 1e-9, -1e-9, 0.3)) | st.floats(0.0, 2.0)
    duration = st.sampled_from((0.5, 1.0, 2.5)) | st.floats(0.1, 5.0)
    durations, assignments = {}, {}
    for team in ("T1", "T2", "T3")[: draw(st.integers(1, 3))]:
        at, pairs = draw(st.sampled_from((0.0, 0.4))), []
        for _ in range(draw(st.integers(1, 4))):
            start = max(0.0, at + draw(gap))
            building_id = f"b{len(durations)}"
            durations[building_id] = draw(duration)
            pairs.append((building_id, start))
            at = start + durations[building_id]
        assignments[team] = pairs
    assume(rebuild_feasible(assignments, durations, horizon, []))
    placement = {b: (t, s) for t, pairs in assignments.items() for b, s in pairs}
    ids = sorted(placement)
    first = draw(st.sampled_from(ids))
    team, start = placement[first]
    if len(ids) > 1 and draw(st.booleans()):
        second = draw(st.sampled_from([b for b in ids if b != first]))
        other, other_start = placement[second]
        moves = [(first, team, start, other, other_start),
                 (second, other, other_start, team, start)]
    else:
        d = durations[first]
        spots = [horizon - d, 0.0, start + draw(st.integers(-21, 21)) / 30]
        for b, s in assignments[team]:
            spots += [s - d, s + durations[b] / 2, s + durations[b]]
        new_start = draw(st.sampled_from(spots)) + draw(st.sampled_from(EDGES))
        moves = [(first, team, start, team, new_start)]
    return horizon, durations, assignments, moves


@given(schedules_and_moves())
@settings(max_examples=200, deadline=None)
def test_lane_check_agrees_with_rebuilding_every_lane(case):
    horizon, durations, assignments, moves = case
    buildings = {
        b: Building(id=b, building_type="t", section_counts={"s": 1},
                    assembly_duration=d, start=0.0)
        for b, d in durations.items()
    }
    schedule = TeamSchedule(
        teams=tuple(assignments),
        assignments={t: tuple(pairs) for t, pairs in assignments.items()},
    )
    lanes = balsched.improve._Lanes(BuildingTable.of(buildings), schedule, horizon)
    expected = rebuild_feasible(
        assignments, durations, horizon, [(b, nt, ns) for b, _ot, _os, nt, ns in moves]
    )
    assert lanes.fits(moves) == expected


@st.composite
def shift_lanes(draw):
    """One to three lanes whose spans start at or near 0, touch or miss
    their neighbours by up to 2e-9, are often shorter than 21 days (so a
    shift can pass a whole neighbour), and end at or near the horizon."""
    gap = st.sampled_from((0.0, 1e-9, -1e-9, 2e-9, -2e-9, 0.1)) | st.floats(0.0, 1.0)
    duration = st.sampled_from((0.1, 0.2, 0.5, 0.7, 1.0, 2.5)) | st.floats(0.05, 3.0)
    durations, assignments = {}, {}
    for team in ("T1", "T2", "T3")[: draw(st.integers(1, 3))]:
        at, pairs = draw(st.sampled_from((0.0, 1e-9, 0.05, 0.1))), []
        for _ in range(draw(st.integers(1, 5))):
            start = max(0.0, at + draw(gap))
            building_id = f"b{len(durations)}"
            durations[building_id] = draw(duration)
            pairs.append((building_id, start))
            at = start + durations[building_id]
        assignments[team] = pairs
    ends = [s + durations[b] for pairs in assignments.values() for b, s in pairs]
    horizon = max(ends) + draw(st.sampled_from((0.0, 1e-9, -1e-9, 0.1, 0.5, 1.0)))
    assume(rebuild_feasible(assignments, durations, horizon, []))
    assume(max(ends) <= horizon)
    return horizon, durations, assignments


@given(shift_lanes())
@settings(max_examples=300, deadline=None)
def test_shift_arrays_agree_with_the_lane_check(case):
    horizon, durations, assignments = case
    buildings = {
        b: Building(id=b, building_type="t", section_counts={"s": 1},
                    assembly_duration=d, start=0.0)
        for b, d in durations.items()
    }
    schedule = TeamSchedule(
        teams=tuple(assignments),
        assignments={t: tuple(pairs) for t, pairs in assignments.items()},
    )
    lanes = balsched.improve._Lanes(BuildingTable.of(buildings), schedule, horizon)
    ids = sorted(durations)
    starts, lengths, before, before_ends, after = lanes.slots(ids)
    new_starts = balsched.improve._shift_starts(starts, SHIFT_STEPS)
    fits, decided = balsched.improve._shift_fits(
        new_starts, lengths, before, before_ends, after, horizon
    )
    variants = [
        CorrectionVariant(kind=kind, days=days)
        for kind in ("shift_right", "shift_left") for days in SHIFT_STEPS
    ]
    for i, building_id in enumerate(ids):
        for j, variant in enumerate(variants):
            moves = lanes.moves(variant, building_id)
            assert moves[0][4] == new_starts[i, j]
            if decided[i, j]:
                assert fits[i, j] == lanes.fits(moves), (building_id, variant)


@st.composite
def valid_schedules(draw):
    """Two or three lanes back to back, with gaps and durations that put
    exchanged spans exactly against, or 1e-9 either side of, the next span
    on the lane or the horizon."""
    gap = st.sampled_from((0.0, 1e-9, -1e-9, 2e-9, 0.3)) | st.floats(0.0, 2.0)
    duration = st.sampled_from((1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.3, 2.5)) | st.floats(0.1, 5.0)
    durations, assignments = {}, {}
    for team in ("T1", "T2", "T3")[: draw(st.integers(2, 3))]:
        at, pairs = draw(st.sampled_from((0.0, 0.4))), []
        for _ in range(draw(st.integers(1, 4))):
            start = max(0.0, at + draw(gap))
            building_id = f"b{len(durations)}"
            durations[building_id] = draw(duration)
            pairs.append((building_id, start))
            at = start + durations[building_id]
        assignments[team] = pairs
    ends = [s + durations[b] for pairs in assignments.values() for b, s in pairs]
    horizon = max(ends) + draw(st.sampled_from((0.0, 1e-9, -1e-9, 0.3)))
    assume(rebuild_feasible(assignments, durations, horizon, []))
    assume(max(ends) <= horizon)
    return horizon, durations, assignments


@given(valid_schedules())
@settings(max_examples=200, deadline=None)
def test_swap_arrays_agree_with_rebuilding_every_lane(case):
    horizon, durations, assignments = case
    buildings = {
        b: Building(id=b, building_type="t", section_counts={"s": 1},
                    assembly_duration=d, start=0.0)
        for b, d in durations.items()
    }
    schedule = TeamSchedule(
        teams=tuple(assignments),
        assignments={t: tuple(pairs) for t, pairs in assignments.items()},
    )
    ids = sorted(durations)
    starts, lengths, _before, _ends, following = balsched.improve._Lanes(
        BuildingTable.of(buildings), schedule, horizon
    ).slots(ids)
    placement = {b: (t, s) for t, pairs in assignments.items() for b, s in pairs}
    every = np.arange(len(ids))
    fits = balsched.improve._swap_fits(starts, lengths, following, horizon, every)
    for i, first in enumerate(ids):
        for k, second in enumerate(ids):
            if k == i:
                continue
            (team1, start1), (team2, start2) = placement[first], placement[second]
            expected = rebuild_feasible(
                assignments, durations, horizon,
                [(first, team2, start2), (second, team1, start1)],
            )
            assert fits[i, k] == expected, (first, second)


# --- applying selections ----------------------------------------------------------

def _picks(problem, chosen):
    """The (target, variant) pairs a selection's ``chosen`` picks, in group order."""
    return [(g.targets[0], g.variants[j]) for g, j in zip(problem.groups, chosen) if j]


def _composed(project, schedule, picks):
    """_compose on a fresh lane index: which picks applied, and the schedule."""
    lanes = _Lanes(project.buildings, schedule, project.horizon_months)
    return _compose(lanes, picks), lanes.schedule()


def test_apply_all_none_is_identity(kope):
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=0.0)
    assert _picks(problem, mckp_greedy(problem).chosen) == []
    assert _composed(kope.project, kope.team_schedule, []) == ([], kope.team_schedule)
    picks = [(g.targets[0], NONE_VARIANT) for g in KOPE_CATALOGUE]
    kept, out = _composed(kope.project, kope.team_schedule, picks)
    assert all(kept) and out == kope.team_schedule


def test_apply_catalogue_selection_moves_a7_a8(kope):
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=3.0)
    picks = _picks(problem, mckp_greedy(problem).chosen)
    kept, out = _composed(kope.project, kope.team_schedule, picks)
    assert kept == [True] * len(picks)
    starts = {bid: start for _t, bid, start in out.placements()}
    assert starts["a7"] == pytest.approx(11.8 + 14 / 30)
    assert starts["a8"] == pytest.approx(9.7 + 21 / 30)
    # everything else untouched
    before = {bid: s for _t, bid, s in kope.team_schedule.placements()}
    for bid, start in before.items():
        if bid not in ("a7", "a8"):
            assert starts[bid] == start


def test_apply_preserves_buildings_and_durations(kope):
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=3.0)
    lanes = _Lanes(kope.project.buildings, kope.team_schedule, kope.project.horizon_months)
    durations = dict(lanes.duration)
    _compose(lanes, _picks(problem, mckp_greedy(problem).chosen))
    assert sorted(b for _t, b, _s in lanes.schedule().placements()) == sorted(
        b for _t, b, _s in kope.team_schedule.placements()
    )
    assert lanes.duration == durations
    for lane in lanes.lanes.values():
        for start, end, building_id in lane:
            assert end == start + kope.project.buildings[building_id].assembly_duration


def test_apply_exchange_swaps_slots(kope):
    exchange = CorrectionVariant(kind="exchange", buildings=("a3", "a6"), profit=1.0, cost=1.0)
    kept, out = _composed(kope.project, kope.team_schedule, [("a3", exchange)])
    assert kept == [True]
    placements = {bid: (team, start) for team, bid, start in out.placements()}
    assert placements["a3"] == ("P3", 9.5)
    assert placements["a6"] == ("P4", 6.5)


def test_apply_degenerate_exchange(kope):
    exchange = CorrectionVariant(kind="exchange", buildings=("a3", "a3"), profit=1.0, cost=1.0)
    with pytest.raises(ValueError, match="degenerate exchange"):
        _composed(kope.project, kope.team_schedule, [("a3", exchange)])


def test_apply_drops_an_overlapping_shift(kope):
    # pushing a4 (P2, ends 11.8) right by 21 days runs it into a7 (starts 11.8)
    shift = CorrectionVariant(kind="shift_right", days=21, profit=1.0, cost=1.0)
    kept, out = _composed(kope.project, kope.team_schedule, [("a4", shift)])
    assert kept == [False]
    assert out == kope.team_schedule


@pytest.fixture(scope="module")
def menus(kope):
    """(project, schedule, problem) with generated groups, for kope and for
    the nine kope buildings on three teams."""
    cases = [(kope.project, kope.team_schedule, kope.capacity), _small_synthetic(kope)]
    return [
        (project, schedule, BudgetedMCKP(
            groups=tuple(generate_correction_groups(project, schedule, capacity)),
            budget=1e9,
        ))
        for project, schedule, capacity in cases
    ]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_applied_selection_is_valid_and_a_fixed_point(menus, data):
    project, schedule, problem = data.draw(st.sampled_from(menus))
    chosen = tuple(
        data.draw(st.integers(0, len(g.variants) - 1)) for g in problem.groups
    )
    picks = _picks(problem, chosen)
    kept, out = _composed(project, schedule, picks)
    assert team_schedule_violations(out, project.buildings) == []
    for _team, building_id, start in out.placements():
        end = start + project.buildings[building_id].assembly_duration
        assert 0 <= start and end <= project.horizon_months
    # each building moves at most once, so the result is the applied moves
    # made on the input placements
    applied = [pick for pick, applies in zip(picks, kept) if applies]
    before = {b: (team, start) for team, b, start in schedule.placements()}
    expected, touched = dict(before), []
    for target, v in applied:
        if v.kind == "exchange":
            first, second = v.buildings
            expected[first], expected[second] = before[second], before[first]
            touched += v.buildings
        else:
            team, start = before[target]
            step = v.days / DAYS_PER_MONTH
            expected[target] = (
                team, start + step if v.kind == "shift_right" else start - step
            )
            touched.append(target)
    assert len(touched) == len(set(touched))
    assert {b: (team, start) for team, b, start in out.placements()} == expected
    assert _composed(project, schedule, applied) == ([True] * len(applied), out)


# --- the loop ---------------------------------------------------------------------

def test_loop_balances_fixture(kope):
    result = improvement_loop(
        kope.project, kope.team_schedule, kope.capacity, kope.improve_params
    )
    assert result.stop_reason == "balanced"
    vs = result.v_sequence()
    assert vs[0] > 0 and vs[-1] == 0.0
    assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))


def test_loop_result_schedule_is_valid(kope):
    from balsched.homebuilding import team_schedule_violations

    result = improvement_loop(
        kope.project, kope.team_schedule, kope.capacity, kope.improve_params
    )
    assert team_schedule_violations(result.schedule, kope.project.buildings) == []


def test_loop_on_balanced_instance_records_nothing(kope):
    result = improvement_loop(
        kope.project, kope.team_schedule, {"d1": 5000.0}, ImproveParams()
    )
    assert result.stop_reason == "balanced"
    assert result.trace == ()
    assert result.schedule == kope.team_schedule


def test_loop_with_zero_budget_stops_after_one_recorded_iteration(kope):
    result = improvement_loop(
        kope.project,
        kope.team_schedule,
        kope.capacity,
        ImproveParams(budget=0.0, max_iters=10),
    )
    assert len(result.trace) == 1
    assert result.stop_reason == "no improving selection"
    assert result.schedule == kope.team_schedule


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_improve_params_refuse_non_finite_budgets(budget):
    with pytest.raises(ValueError, match="budget must be finite"):
        ImproveParams(budget=budget)


def test_loop_respects_max_iters(kope):
    result = improvement_loop(
        kope.project,
        kope.team_schedule,
        kope.capacity,
        ImproveParams(budget=5.0, max_iters=1),
    )
    assert len(result.trace) == 1
    assert result.stop_reason == "max iterations"


def test_loop_is_deterministic(kope):
    runs = [
        improvement_loop(
            kope.project, kope.team_schedule, kope.capacity, kope.improve_params
        )
        for _ in range(2)
    ]
    assert runs[0].schedule == runs[1].schedule
    assert runs[0].v_sequence() == runs[1].v_sequence()
    assert runs[0].stop_reason == runs[1].stop_reason


def test_loop_trace_profit_only_counts_applied_moves(kope):
    params = kope.improve_params
    result = improvement_loop(kope.project, kope.team_schedule, kope.capacity, params)
    for record in result.trace:
        # the schedule this pass started from, and the menu it priced there
        before = improvement_loop(
            kope.project, kope.team_schedule, kope.capacity,
            dataclasses.replace(params, max_iters=record.iteration - 1),
        ).schedule
        groups = generate_correction_groups(kope.project, before, kope.capacity)
        assert list(record.moves) == [
            (g.targets[0], g.variants[j]) for g, j in zip(groups, record.selection.chosen) if j
        ]
        recomputed = sum(variant.profit for _target, variant in record.moves)
        assert record.selection.total_profit == recomputed
        assert record.selection.total_cost <= params.budget + 1e-9


def _reachable(value):
    """Every object reachable from ``value`` through dataclass fields,
    mapping keys and values, and sequence and set items."""
    stack = [value]
    while stack:
        item = stack.pop()
        yield item
        if dataclasses.is_dataclass(item):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, Mapping):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack.extend(item)


@pytest.mark.parametrize("size", [None, (72, 16, 17)], ids=["kope", "72-16-17"])
def test_loop_result_keeps_no_menu_and_no_array(kope, size):
    """A trace holds the moves each pass made, not the menus it priced."""
    instance = kope if size is None else synthetic_instance(*size)
    result = improvement_loop(
        instance.project, instance.team_schedule, instance.capacity, instance.improve_params
    )
    assert result.trace and any(record.moves for record in result.trace)
    for item in _reachable(result):
        assert not isinstance(item, (CorrectionMenu, np.ndarray, np.generic)), type(item)
        assert dataclasses.is_dataclass(item) or isinstance(
            item, (str, int, float, type(None), tuple, list, Mapping)
        ), type(item)
