"""End-to-end acceptance checks, one suite per shipped capability.

Each test is a single pass/fail gate over a documented target value or
behavioral bar. Reference values come from the published worked example
this package reconstructs; independently derived ones are frozen in
``oracles.py``.
"""

import itertools
import random
import time
from collections import deque

import pytest
from click.testing import CliRunner

from balsched.balance import balance_verdict, count_vector, proximity
from balsched.cli import main
from balsched.core import interval_bags, makespan, validate_instance
from balsched.fixtures import build_fixture
from balsched.homebuilding import (
    horizon_requirement_table,
    monthly_detail_requirements,
    monthly_floor_requirements,
    team_schedule_violations,
)
from balsched.improve import (
    BudgetedMCKP,
    ImproveParams,
    improvement_loop,
    mckp_greedy,
)
from balsched.jit import WindowJob, schedule_windows
from balsched.fileio import comparison_report

from catalogue import KOPE_CATALOGUE
from oracles import hand_month1_d2, mckp_enumerate, mckp_exact

REFERENCE_PROFILE = (2, 3, 2, 1, 1, 0)

# Interval bags as printed in the worked example (count vectors over
# e1..e5 + idle). The recorded per-interval proximities are 3, 3, 4, 15.
PRINTED_BAGS = (
    (2, 4, 1, 0, 1, 1),
    (2, 2, 1, 2, 2, 0),
    (3, 3, 1, 0, 1, 1),
    (0, 1, 1, 3, 3, 1),
)


def _bag_elements(counts):
    names = ("e1", "e2", "e3", "e4", "e5", "idle")
    out = []
    for name, count in zip(names, counts):
        out.extend([name] * count)
    return tuple(out)


@pytest.fixture(scope="module")
def demo():
    f = build_fixture("modular-demo")
    instance = validate_instance(f.universe, f.jobs, f.processors, f.grid)
    return instance, f


@pytest.fixture(scope="module")
def kope():
    return build_fixture("kope-1982")


# === proximity reproduction ===================================================

def test_recorded_interval_proximities_reproduce():
    """First, third, and fourth printed interval bags sit at delta 3, 4, 15."""
    deltas = [proximity(REFERENCE_PROFILE, bag) for bag in PRINTED_BAGS]
    assert deltas[0] == 3
    assert deltas[2] == 4
    assert deltas[3] == 15
    assert all(isinstance(d, int) for d in deltas)


def test_second_interval_proximity_known_deviation():
    """The published listing records 3 for the second interval; the metric's
    faithful value over the very count vector printed next to it is 4. The
    deviation is pinned here so a silent change to either side trips."""
    computed = proximity(REFERENCE_PROFILE, PRINTED_BAGS[1])
    assert computed == 4
    assert computed != 3  # the recorded figure


def test_proximity_runtime_under_one_millisecond():
    start = time.perf_counter()
    for bag in PRINTED_BAGS:
        proximity(REFERENCE_PROFILE, bag)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3


# === interval-bag pipeline =====================================================

def test_first_interval_bag_matches_reference_listing(demo):
    """Honestly red: the published first bag cannot come out of the published
    chains. The placed chains contain three units of the third element type
    and six of the fourth in total, while the four printed bags sum to four
    and five of them; no placement of those chains can reproduce the printed
    first bag. The faithful computation yields (2,4,0,1,1,1)."""
    instance, f = demo
    bags = interval_bags(instance, f.schedule)
    assert bags[0].elements == _bag_elements(PRINTED_BAGS[0])


def test_first_interval_count_vector_matches_reference_listing(demo):
    """Honestly red for the same conservation reason as the bag test above."""
    instance, f = demo
    bags = interval_bags(instance, f.schedule)
    assert count_vector(bags[0], f.universe) == PRINTED_BAGS[0]


def test_remaining_interval_bags_match_reference_listing(demo):
    instance, f = demo
    bags = interval_bags(instance, f.schedule)
    for i in (1, 2, 3):
        assert bags[i].elements == _bag_elements(PRINTED_BAGS[i])
        assert count_vector(bags[i], f.universe) == PRINTED_BAGS[i]


def test_demo_makespan_is_four_intervals(demo):
    instance, f = demo
    assert makespan(instance, f.schedule) == 4


def test_demo_balance_verdict_holds_at_threshold(demo):
    instance, f = demo
    verdict = balance_verdict(
        instance, f.schedule, f.reference_profile, f.proximity_threshold
    )
    assert verdict.satisfied and verdict.max_delta == 15


# === window feasibility ========================================================

SINGLE_MACHINE = (
    ("a1", 0.5, 0.0, 1.1),
    ("a2", 0.6, 0.6, 1.6),
    ("a3", 0.6, 1.2, 2.4),
    ("a4", 0.9, 1.8, 2.8),
    ("a5", 0.7, 2.7, 3.7),
    ("a6", 0.8, 3.5, 4.5),
    ("a7", 0.7, 4.0, 5.0),
)


def _single_machine_jobs(theta4=0.9):
    return [
        WindowJob(
            id=jid,
            processing_time=theta4 if jid == "a4" else theta,
            t1=t1,
            t2=t2,
            machine=1,
            position=pos,
        )
        for pos, (jid, theta, t1, t2) in enumerate(SINGLE_MACHINE, start=1)
    ]


def test_single_machine_sequence_feasible_with_recorded_completions():
    result = schedule_windows(_single_machine_jobs())
    assert result.feasible
    got = [result.completions[jid] for jid, *_ in SINGLE_MACHINE]
    expected = [0.5, 1.2, 1.8, 2.7, 3.4, 4.3, 5.0]
    assert got == pytest.approx(expected, abs=1e-9)


def test_three_machine_sequences_feasible_with_recorded_completions():
    f = build_fixture("jit-windows")
    result = schedule_windows(f.window_jobs)
    assert result.feasible
    expected = {
        "a1": 1.2, "a2": 2.5, "a3": 3.7, "a4": 4.8,
        "a5": 0.7, "a6": 2.3, "a7": 3.2, "a8": 4.9,
        "a9": 1.2, "a10": 2.5, "a11": 3.8, "a12": 5.0,
    }
    for jid, completion in expected.items():
        assert result.completions[jid] == pytest.approx(completion, abs=1e-9)


def test_perturbed_fourth_job_is_detected_infeasible():
    result = schedule_windows(_single_machine_jobs(theta4=1.2))
    assert not result.feasible
    assert "a4" in result.infeasible_jobs
    assert result.completions["a4"] == pytest.approx(3.0, abs=1e-9)


# === knapsack selection ========================================================

def test_catalogue_selection_under_budget_3():
    """Both selectors pick the 14-day and 21-day right shifts (the recorded
    binary solution) at profit 5.0, cost 3.0."""
    problem = BudgetedMCKP(groups=KOPE_CATALOGUE, budget=3.0)
    for select in (mckp_greedy, mckp_exact):
        sel = select(problem)
        assert sel.chosen == (0, 3, 3, 0)
        assert sel.total_profit == pytest.approx(5.0)
        assert sel.total_cost == pytest.approx(3.0)


def test_exact_matches_enumeration_on_500_random_instances():
    """greedy <= exact = brute force on 500 instances (up to 6x5), and the
    exact oracle stays under 50 ms per instance."""
    from balsched.improve import CorrectionGroup, CorrectionVariant, NONE_VARIANT

    rng = random.Random(424242)
    worst_time = 0.0
    for trial in range(500):
        groups = []
        for index in range(1, rng.randint(1, 6) + 1):
            variants = [NONE_VARIANT]
            for days in range(1, rng.randint(1, 4) + 1):
                variants.append(
                    CorrectionVariant(
                        kind="shift_right",
                        days=days,
                        profit=round(rng.uniform(-1.0, 5.0), 2),
                        cost=round(rng.uniform(0.0, 3.0), 1),
                    )
                )
            groups.append(
                CorrectionGroup(
                    index=index, targets=(f"t{index}",), variants=tuple(variants)
                )
            )
        problem = BudgetedMCKP(
            groups=tuple(groups), budget=round(rng.uniform(0.0, 8.0), 1)
        )
        greedy = mckp_greedy(problem)
        t0 = time.perf_counter()
        exact = mckp_exact(problem)
        worst_time = max(worst_time, time.perf_counter() - t0)
        plain = [[(v.profit, v.cost) for v in g.variants] for g in problem.groups]
        best_profit, best_choice = mckp_enumerate(plain, problem.budget)
        assert greedy.total_profit <= exact.total_profit + 1e-9, f"trial {trial}"
        assert exact.total_profit == pytest.approx(best_profit), f"trial {trial}"
        assert exact.chosen == best_choice, f"trial {trial}"
    assert worst_time < 0.05


# === home-building calibration ==================================================

def test_opening_month_g1_section_profile(kope):
    profile = monthly_floor_requirements(kope.project, kope.team_schedule, 1)
    g1 = profile.sections["g1"]
    assert g1["r2"] == pytest.approx(2.00, abs=0.01)
    assert g1["r4"] == pytest.approx(0.11, abs=0.01)


def test_second_month_g1_mid_floor_rate(kope):
    profile = monthly_floor_requirements(kope.project, kope.team_schedule, 2)
    assert profile.sections["g1"]["r4"] == pytest.approx(4.22, abs=0.01)


def test_ninth_month_g2_section_profile(kope):
    profile = monthly_floor_requirements(kope.project, kope.team_schedule, 9)
    g2 = profile.sections["g2"]
    assert g2["r2"] == pytest.approx(2.71, abs=0.02)
    assert g2["r3"] == pytest.approx(5.42, abs=0.02)


# === detail aggregation ========================================================

def test_month1_d2_composed_value_within_one_of_hand_composition(kope):
    gamma = monthly_detail_requirements(kope.project, kope.team_schedule, 1)
    assert gamma[1] == pytest.approx(124.0, abs=1.0)
    assert hand_month1_d2() == pytest.approx(124.0, abs=1e-9)


def test_month1_d2_within_3_percent_of_reference(kope):
    table = horizon_requirement_table(kope.project, kope.team_schedule)
    rows = comparison_report(table, kope.reference_requirements)
    row = next(r for r in rows if r.month == 1 and r.detail == "d2")
    assert row.reference == 122.0
    assert row.rel_deviation <= 0.03


def test_comparison_report_is_complete_19_by_8(kope):
    table = horizon_requirement_table(kope.project, kope.team_schedule)
    rows = comparison_report(table, kope.reference_requirements)
    assert len(rows) == 152
    assert {(r.month, r.detail) for r in rows} == {
        (m, f"d{k}") for m in range(1, 20) for k in range(1, 9)
    }


# === metric properties =========================================================

def _random_equal_sum_triple(rng):
    n = rng.randint(2, 6)
    total = rng.randint(0, 12)

    def vec():
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        edges = [0] + cuts + [total]
        return tuple(edges[i + 1] - edges[i] for i in range(n))

    return vec(), vec(), vec()


def test_metric_axioms_on_1000_random_triples():
    rng = random.Random(9001)
    for trial in range(1000):
        a, b, c = _random_equal_sum_triple(rng)
        ab, ba = proximity(a, b), proximity(b, a)
        assert ab >= 0, f"trial {trial}"
        assert ab == ba, f"trial {trial}"
        assert (ab == 0) == (a == b), f"trial {trial}"
        assert proximity(a, c) <= ab + proximity(b, c), f"trial {trial}"


def _class_of(total, types=4):
    """Every count vector over `types` slots with the given total."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), types - 1):
        edges = (0,) + cuts + (total,)
        yield tuple(edges[i + 1] - edges[i] for i in range(types))


def _bfs_distances(source):
    """Unit-move distances from `source` to its whole equal-total class.

    One move carries a single element between neighboring type slots; the
    metric under test must equal this graph distance everywhere.
    """
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        vec = frontier.popleft()
        for i in range(len(vec) - 1):
            for src, dst in ((i, i + 1), (i + 1, i)):
                if vec[src] == 0:
                    continue
                moved = list(vec)
                moved[src] -= 1
                moved[dst] += 1
                moved = tuple(moved)
                if moved not in dist:
                    dist[moved] = dist[vec] + 1
                    frontier.append(moved)
    return dist


def test_metric_equals_unit_move_oracle_on_small_vectors():
    """Exhaustive agreement over all 4-type vectors with total at most 8."""
    for total in range(9):
        vectors = list(_class_of(total))
        for source in vectors:
            oracle = _bfs_distances(source)
            assert len(oracle) == len(vectors)
            for target in vectors:
                assert proximity(source, target) == oracle[target], (
                    f"{source} -> {target}"
                )


# === repair loop ===============================================================

def test_repair_loop_terminates_fast_with_monotone_measure(kope):
    t0 = time.perf_counter()
    result = improvement_loop(
        kope.project,
        kope.team_schedule,
        kope.capacity,
        ImproveParams(budget=5.0, max_iters=10),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    vs = result.v_sequence()
    assert all(later <= earlier + 1e-12 for earlier, later in zip(vs, vs[1:]))
    assert team_schedule_violations(result.schedule, kope.project.buildings) == []


def test_repair_loop_final_peak_below_recorded_initial_peak(kope):
    """The recorded initial table peaks at 1562 units of the first detail
    type in month 12; the repaired schedule must peak strictly lower."""
    result = improvement_loop(
        kope.project,
        kope.team_schedule,
        kope.capacity,
        ImproveParams(budget=5.0, max_iters=10),
    )
    table = horizon_requirement_table(kope.project, result.schedule)
    _month, value = table.peak("d1")
    assert value < 1562.0


# === command-line determinism ===================================================

def _run_cli_twice(args, written_files=()):
    """Run one CLI invocation in two fresh sandboxes; return both transcripts.

    Each sandbox gets its own freshly emitted fixture files so the two runs
    share nothing but the code path.
    """
    transcripts = []
    runner = CliRunner()
    for _ in range(2):
        with runner.isolated_filesystem():
            for name in ("modular-demo", "jit-windows", "kope-1982"):
                setup = runner.invoke(main, ["fixtures", "emit", name])
                assert setup.exit_code == 0, setup.output
            result = runner.invoke(main, args)
            assert result.exit_code == 0, f"{args}: {result.output}"
            payload = [result.stdout_bytes]
            for written in written_files:
                with open(written, "rb") as handle:
                    payload.append(handle.read())
            transcripts.append(payload)
    return transcripts


CLI_MATRIX = [
    (["fixtures", "list"], ()),
    (["fixtures", "emit", "kope-1982", "--out", "again.json"], ("again.json",)),
    (["validate", "modular-demo.json"], ()),
    (["validate", "jit-windows.json"], ()),
    (["validate", "kope-1982.json"], ()),
    (["evaluate", "modular-demo.json"], ()),
    (["evaluate", "jit-windows.json"], ()),
    (["evaluate", "kope-1982.json"], ()),
    (["balance", "modular-demo.json"], ()),
    (["balance", "kope-1982.json"], ()),
    (["improve", "kope-1982.json", "--out", "improved.json"], ("improved.json",)),
    (
        ["report", "kope-1982.json", "--detail", "d1", "--capacity", "1480",
         "--csv", "curve.csv"],
        ("curve.csv",),
    ),
]


@pytest.mark.parametrize("args,files", CLI_MATRIX, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_cli_runs_are_byte_identical(args, files):
    first, second = _run_cli_twice(args, files)
    assert first == second
