"""Independent reference implementations used to cross-check the library.

Everything in this module is deliberately written from first principles and
must not import from balsched: these are the second route of every dual-route
check. They are slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import deque
from operator import index
from typing import NamedTuple

import numpy as np


def canonical_text(document):
    """The canonical text of an instance file's dictionary form (what
    ``instance_to_dict`` returns): json's own sorted, two-space indented
    layout, written value by value by its pure-Python encoder, and a
    trailing newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def unit_move_distance(e0, e):
    """Minimum number of single-unit moves between ADJACENT positions that
    turn count vector ``e`` into ``e0``.

    Breadth-first search over vector states. Only practical for tiny inputs
    (total <= ~8, <= ~4 positions); the test suite keeps within that.
    """
    start, goal = tuple(e), tuple(e0)
    if sum(start) != sum(goal):
        raise ValueError("vectors must have equal totals")
    if start == goal:
        return 0
    n = len(start)
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, dist = frontier.popleft()
        for i in range(n):
            if state[i] == 0:
                continue
            for j in (i - 1, i + 1):
                if 0 <= j < n:
                    nxt = list(state)
                    nxt[i] -= 1
                    nxt[j] += 1
                    nxt = tuple(nxt)
                    if nxt == goal:
                        return dist + 1
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append((nxt, dist + 1))
    raise RuntimeError("unreachable: equal-total vectors are always connected")


def element_counts(elements, types):
    """Per-type multiplicities of ``elements`` in the order of ``types``,
    counted one element at a time; a type listed twice counts at its first
    position. Raises ValueError on an element not in ``types``."""
    counts = [0] * len(types)
    for element in elements:
        counts[types.index(element)] += 1
    return tuple(counts)


def interval_bag_elements(types, idle_index, chains, placements, interval_len, k):
    """Per-interval element lists of a slot schedule, each padded with the
    idle type up to interval_len x processors and sorted by first position
    in ``types``.

    ``chains`` maps a job id to its elements; ``placements`` is a list of
    lanes, one per processor, each a list of (job id, start slot).
    """
    capacity = interval_len * len(placements)
    buckets = [[] for _ in range(k)]
    for lane in placements:
        for job_id, start in lane:
            for offset, element in enumerate(chains[job_id]):
                buckets[(start + offset) // interval_len].append(element)
    for elements in buckets:
        elements.extend([types[idle_index]] * (capacity - len(elements)))
        elements.sort(key=types.index)
    return [tuple(elements) for elements in buckets]


def earliest_start_completions(jobs):
    """Completion times for one machine under the earliest-start-in-window rule.

    ``jobs`` is a list of (theta, t1, t2) already in position order. Returns
    (completions, feasible) where feasible means every completion is within
    its window (tolerance 1e-9).
    """
    completions = []
    prev_completion = 0.0
    feasible = True
    for theta, t1, t2 in jobs:
        start = max(prev_completion, t1)
        c = start + theta
        if c > t2 + 1e-9:
            feasible = False
        completions.append(c)
        prev_completion = c
    return completions, feasible


def mckp_enumerate(groups, budget):
    """Exhaustive multiple-choice knapsack: exactly one variant per group,
    total cost <= budget, maximize total profit.

    ``groups`` is a list of lists of (profit, cost). Returns
    (best_profit, best_choice) where best_choice is the lexicographically
    smallest variant-index tuple among the optima.
    """
    best_profit = float("-inf")
    best_choice = None
    for choice in itertools.product(*(range(len(g)) for g in groups)):
        cost = sum(groups[i][j][1] for i, j in enumerate(choice))
        if cost > budget + 1e-9:
            continue
        profit = sum(groups[i][j][0] for i, j in enumerate(choice))
        if profit > best_profit + 1e-12 or (
            abs(profit - best_profit) <= 1e-12
            and best_choice is not None
            and choice < best_choice
        ):
            best_profit = profit
            best_choice = choice
    return best_profit, best_choice


class ExactSelection(NamedTuple):
    """mckp_exact's answer: the variant index per group and its totals."""

    chosen: tuple
    total_profit: float
    total_cost: float


#: mckp_exact refuses instances whose DP table would exceed this many cells.
EXACT_STATE_CAP = 2_000_000


def mckp_exact(problem, cost_scale=10):
    """Exact multiple-choice knapsack optimum by dynamic programming over
    integer-scaled costs (Sinha & Zoltners, Oper. Res. 1979).

    ``problem`` has ``groups`` (each with ``variants`` carrying ``profit``
    and ``cost``) and ``budget``, as balsched.improve.BudgetedMCKP does.
    Among optima, returns the lexicographically smallest variant-index
    tuple (group order, then variant index).

    Raises:
        ValueError: if some cost is not integral at ``cost_scale`` (within
            1e-6), or the state space exceeds the cap
            ("instance too large for exact oracle").
    """
    groups = problem.groups
    scaled = []
    for group in groups:
        row = []
        for variant in group.variants:
            s = variant.cost * cost_scale
            r = round(s)
            if abs(s - r) > 1e-6:
                raise ValueError(
                    f"cost {variant.cost} is not integral at scale {cost_scale}"
                )
            row.append(int(r))
        scaled.append(row)
    budget_units = int(problem.budget * cost_scale + 1e-9)

    if (len(groups) + 1) * (budget_units + 1) > EXACT_STATE_CAP:
        raise ValueError("instance too large for exact oracle")

    neg = float("-inf")
    # best[i][w]: max profit achievable by groups i.. with w cost units left
    best = [[neg] * (budget_units + 1) for _ in range(len(groups) + 1)]
    best[len(groups)] = [0.0] * (budget_units + 1)
    for i in range(len(groups) - 1, -1, -1):
        for w in range(budget_units + 1):
            value = neg
            for j, variant in enumerate(groups[i].variants):
                b = scaled[i][j]
                if b <= w and best[i + 1][w - b] != neg:
                    value = max(value, variant.profit + best[i + 1][w - b])
            best[i][w] = value

    if best[0][budget_units] == neg:
        raise ValueError("no feasible selection within budget")

    chosen = []
    w = budget_units
    for i, group in enumerate(groups):
        for j, variant in enumerate(group.variants):
            b = scaled[i][j]
            if b <= w and variant.profit + best[i + 1][w - b] == best[i][w]:
                chosen.append(j)
                w -= b
                break
    picked = [g.variants[j] for g, j in zip(groups, chosen)]
    return ExactSelection(
        tuple(chosen), sum(v.profit for v in picked), sum(v.cost for v in picked)
    )


def ratio_greedy(groups, budget, digits=9):
    """The ratio greedy as a plain loop over (profit, cost) lists, each
    group's first entry being "none": candidates with positive profit,
    sorted by (-round(profit / cost, digits), group, variant) with zero
    cost first, each taken when its group is still free and it fits the
    budget within 1e-9. Returns the chosen variant index per group."""
    candidates = []
    for gi, group in enumerate(groups):
        for j, (profit, cost) in enumerate(group):
            if j == 0 or profit <= 0:
                continue
            ratio = float("inf") if cost == 0 else round(profit / cost, digits)
            candidates.append((-ratio, gi, j, cost))
    candidates.sort(key=lambda item: item[:3])
    chosen = [0] * len(groups)
    total = 0.0
    for _neg_ratio, gi, j, cost in candidates:
        if chosen[gi] == 0 and total + cost <= budget + 1e-9:
            chosen[gi] = j
            total += cost
    return tuple(chosen)


def list_pack(group, profit, cost, budget, floor=0.0):
    """The ratio greedy over menu columns as it was written before the
    ratios were rounded in numpy: every positive row's ratio by Python's
    round in a list, a stable sort on the negated ratios, then a scan of
    every row that skips taken groups and takes each row that fits the
    budget within 1e-9. Returns the picked rows in pick order."""
    rows = np.flatnonzero(profit > floor).tolist()
    profits, costs = profit[rows].tolist(), cost[rows].tolist()
    groups = group[rows].tolist()
    ratios = [
        float("inf") if c == 0 else round(p / c, 9) for p, c in zip(profits, costs)
    ]
    taken = set()
    picked = []
    total_cost = 0.0
    for k in np.argsort(np.negative(ratios), kind="stable").tolist():
        if groups[k] in taken:
            continue
        if total_cost + costs[k] <= budget + 1e-9:
            taken.add(groups[k])
            picked.append(rows[k])
            total_cost += costs[k]
    return picked


# --- hand composition of one month of the building cascade -----------------
#
# The value below is the second route for the "first month, second detail
# type" acceptance check. It composes the month-1 requirement for detail d2
# from the raw fixture data with explicit arithmetic, not via the library.
#
# Month 1 covers time [0, 1). Only building a1 (18-floor template, start 0.5,
# assembly time 9.0) is active. Linear progress: (20-1)/9.0 floor-units per
# month per section; 0.5 months of activity = 1.0556 units = all of the r2
# unit plus 0.0556 of the first r4 unit. Per section, d2 comes only from the
# r2 rows of the per-section detail bills; a1 holds 2xg1, 1xg2, 1xg5, 3xw1,
# 4xw3 (w-sections with a zero r2/d2 entry contribute nothing).

def hand_month1_d2():
    units_done = 0.5 * (20 - 1) / 9.0          # 1.0556 floor-units
    r2_units = min(1.0, units_done)            # the single r2 unit completes
    d2_per_r2 = {"g1": 28.0, "g2": 28.0, "g5": 30.0, "w1": 2.0, "w3": 1.0}
    section_counts = {"g1": 2, "g2": 1, "g5": 1, "w1": 3, "w3": 4}
    return sum(
        section_counts[s] * r2_units * d2_per_r2[s] for s in section_counts
    )



# --- per-unit overlap route of the building cascade --------------------------
#
# The library computes a month's floor output in closed form, clipping the
# cumulative progress to each floor type's range of the ladder. This route
# walks the ladder unit by unit instead and adds up how much of each unit the
# month's progress window covers.

def unit_overlap_progress(floor_counts, duration, start, month, rate_basis):
    """Floor-units one section completes in ``month``, per floor position.

    ``floor_counts`` lists the unit count of each floor type in ladder order
    (zeros allowed). The section climbs cap floor-units linearly from
    ``start`` over ``duration`` months, cap being U - 1 under the "U-1" rate
    basis (the terminal unit is never entered) and U under "U". Month m is
    the window [m-1, m). Returns one float per entry of ``floor_counts``.
    """
    layout = []
    for position, count in enumerate(floor_counts):
        layout.extend([position] * count)
    cap = len(layout) - 1 if rate_basis == "U-1" else len(layout)
    rate = cap / duration

    def done(t):
        return min(max(rate * (t - start), 0.0), float(cap))

    c0, c1 = done(month - 1.0), done(float(month))
    out = [0.0] * len(floor_counts)
    for unit in range(cap):
        overlap = min(c1, unit + 1.0) - max(c0, float(unit))
        if overlap > 0:
            out[layout[unit]] += overlap
    return out


# --- the two-clip form of the closed-form cascade ----------------------------
#
# The library fuses the clamp of cumulative progress into one min and one
# max per floor type. This route clips twice, as the formula reads: progress
# to [0, cap], then to each floor type's ladder range [lo, hi].

def double_clip_output(floor_counts, duration, starts, edges, rate_basis):
    """(starts x months x floor types) floor-units one section completes
    between consecutive ``edges``, for a section started at each of
    ``starts``: clip(clip(rate * (t - start), 0, cap), lo, hi) differenced
    over the edges. ``floor_counts`` lists the unit count of each floor type
    in ladder order (zeros allowed); cap is U - 1 under "U-1", U under "U",
    and rate is cap / ``duration``.
    """
    hi = np.cumsum(np.asarray(floor_counts, dtype=float))
    lo = hi - np.asarray(floor_counts, dtype=float)
    cap = hi[-1] - (1 if rate_basis == "U-1" else 0)
    rate = cap / duration
    t = np.asarray(edges, dtype=float).reshape(1, -1, 1)
    start = np.asarray(starts, dtype=float).reshape(-1, 1, 1)
    done = np.clip(np.clip(rate * (t - start), 0.0, cap), lo, hi)
    return done[:, 1:, :] - done[:, :-1, :]


# --- team-schedule feasibility by rebuilding every lane -----------------------
#
# The library checks a move on a lane index, looking only at the neighbours
# a move can disturb. This route applies the move to plain lists, rebuilds
# and sorts every lane, and checks every neighbouring pair.

def rebuild_feasible(assignments, durations, horizon, moves):
    """Whether moving buildings keeps the team schedule valid.

    ``assignments`` maps a team to its (building id, start) pairs,
    ``durations`` a building id to its assembly duration, and ``moves`` is
    a list of (building id, new team, new start). A move is feasible when
    every moved building starts at 0 or later and ends by ``horizon``, and
    no lane holds two spans [start, start + duration) where the later
    start lies more than 1e-9 before the earlier span's end.
    """
    lanes = {team: list(pairs) for team, pairs in assignments.items()}
    for building_id, new_team, new_start in moves:
        if new_start < 0 or new_start + durations[building_id] > horizon:
            return False
        for team in lanes:
            lanes[team] = [(b, s) for b, s in lanes[team] if b != building_id]
    for building_id, new_team, new_start in moves:
        lanes[new_team].append((building_id, new_start))
    for pairs in lanes.values():
        spans = sorted((s, s + durations[b], b) for b, s in pairs)
        for (_s1, e1, _b1), (s2, _e2, _b2) in zip(spans, spans[1:]):
            if s2 < e1 - 1e-9:
                return False
    return True


# --- move pricing over the whole horizon and every detail ---------------------
#
# The library prices a move on the windows of the moved buildings' old and
# new placements, and on the details with a finite capacity only. This route
# builds every table over the whole horizon and all eight details, from the
# two-clip progress above, and prices a move as the base table less the
# moved buildings' old tables plus their new ones. It also decides every
# move by rebuilding the lanes.

FLOOR_ORDER = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8")
DETAIL_ORDER = ("d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8")


def whole_horizon_table(project, building_id, start):
    """(horizon x 8) requirement table of one building placed at ``start``,
    on every whole month of ``project``'s horizon."""
    building = project.buildings[building_id]
    ladder = project.building_types[building.building_type].floor_counts
    matrix = sum(
        count * np.asarray(project.section_types[section].detail_matrix, dtype=float)
        for section, count in building.section_counts.items()
    )
    output = double_clip_output(
        [ladder.get(f, 0) for f in FLOOR_ORDER], building.assembly_duration,
        [start], np.arange(project.horizon_months + 1.0), project.rate_basis,
    )[0]
    return output @ matrix


def whole_violation(table, capacity):
    """sum over every month and detail of max(0, x - cap) / max(cap, 1e-9);
    a detail without a capacity has cap +inf."""
    cap = np.array([capacity.get(d, np.inf) for d in DETAIL_ORDER])
    return float(np.sum(np.maximum(0.0, table - cap) / np.maximum(cap, 1e-9)))


def _whole_base(project, schedule):
    """(placement, base): each placed building's (team, start), and the
    sum of their whole-horizon tables."""
    placement = {
        b: (team, s) for team in schedule.teams for b, s in schedule.assignments.get(team, ())
    }
    base = np.zeros((project.horizon_months, len(DETAIL_ORDER)))
    for b, (_team, s) in placement.items():
        base = base + whole_horizon_table(project, b, s)
    return placement, base


def _moved_profit(project, placement, base, capacity, moves):
    """V of ``base`` less V of it with each moved building's old table
    taken out and its table at the new start put in; ``moves`` are
    (building id, new team, new start)."""
    table = base.copy()
    for b, _new_team, new_start in moves:
        table = table - whole_horizon_table(project, b, placement[b][1])
        table = table + whole_horizon_table(project, b, new_start)
    return whole_violation(base, capacity) - whole_violation(table, capacity)


def whole_horizon_profit(project, schedule, capacity, moves):
    """The profit of one move on ``schedule``, valid or not, priced as
    whole_horizon_menu prices it; ``moves`` are (building id, new team,
    new start)."""
    placement, base = _whole_base(project, schedule)
    return _moved_profit(project, placement, base, capacity, moves)


def whole_horizon_menu(project, schedule, capacity, shift_steps):
    """(V, rows): the violation measure of ``schedule`` and its correction
    menu as (target, kind, days, partner, profit) rows, in the library's
    (group, variant) order.

    Targets are the placed buildings active in a month where some detail
    exceeds its capacity, or ending on that month's first edge, by id.
    Each gets every shift right, then left, by each of ``shift_steps``
    days (days / 30 months) that keeps the schedule valid, then an
    exchange with every placed building after it, or before it and not a
    target, that keeps the schedule valid and is not of its kind: the same
    type, section counts in the same order and duration. Profit is V less
    V of the base table with the moved buildings' old tables taken out
    and their new ones put in.
    """
    horizon = project.horizon_months
    assignments = {team: list(schedule.assignments.get(team, ())) for team in schedule.teams}
    placement, base = _whole_base(project, schedule)
    durations = {b: project.buildings[b].assembly_duration for b in placement}
    kinds = {b: (project.buildings[b].building_type,
                 tuple(project.buildings[b].section_counts.items()), durations[b])
             for b in placement}
    v = whole_violation(base, capacity)
    cap = np.array([capacity.get(d, np.inf) for d in DETAIL_ORDER])
    months = [m for m in range(1, horizon + 1) if np.any(base[m - 1] > cap)]
    ids = sorted(placement)
    targets = [
        b for b in ids
        if any(placement[b][1] < m and placement[b][1] + durations[b] >= m - 1 for m in months)
    ]

    rows = []
    for i, b in enumerate(ids):
        if b not in targets:
            continue
        team, start = placement[b]
        for kind in ("shift_right", "shift_left"):
            for days in shift_steps:
                step = days / 30.0
                moves = [(b, team, start + step if kind == "shift_right" else start - step)]
                if rebuild_feasible(assignments, durations, horizon, moves):
                    profit = _moved_profit(project, placement, base, capacity, moves)
                    rows.append((b, kind, days, None, profit))
        for k, other in enumerate(ids):
            if k == i or (k < i and other in targets) or kinds[other] == kinds[b]:
                continue
            other_team, other_start = placement[other]
            moves = [(b, other_team, other_start), (other, team, start)]
            if rebuild_feasible(assignments, durations, horizon, moves):
                profit = _moved_profit(project, placement, base, capacity, moves)
                rows.append((b, "exchange", None, other, profit))
    return v, rows


if __name__ == "__main__":
    # Freeze-run: print the oracle values the tests assert as literals.
    e0 = (2, 3, 2, 1, 1, 0)
    for e in [(2, 4, 1, 0, 1, 1), (2, 2, 1, 2, 2, 0), (3, 3, 1, 0, 1, 1),
              (0, 1, 1, 3, 3, 1), (2, 4, 0, 1, 1, 1)]:
        print("unit moves", e, "->", unit_move_distance(e0, e))

    single = [(0.5, 0.0, 1.1), (0.6, 0.6, 1.6), (0.6, 1.2, 2.4),
              (0.9, 1.8, 2.8), (0.7, 2.7, 3.7), (0.8, 3.5, 4.5),
              (0.7, 4.0, 5.0)]
    print("single machine:", earliest_start_completions(single))
    perturbed = [(th if i != 3 else 1.2, t1, t2)
                 for i, (th, t1, t2) in enumerate(single)]
    print("perturbed:", earliest_start_completions(perturbed))

    m1 = [(1.2, 0.0, 1.5), (1.3, 1.0, 2.5), (1.2, 2.0, 4.0), (1.1, 3.7, 5.0)]
    m2 = [(0.7, 0.0, 2.0), (0.6, 1.7, 2.7), (0.7, 2.5, 4.0), (1.0, 3.9, 5.0)]
    m3 = [(1.2, 0.0, 1.5), (1.3, 1.0, 2.5), (1.2, 2.6, 4.0), (1.2, 3.0, 5.0)]
    for name, jobs in [("m1", m1), ("m2", m2), ("m3", m3)]:
        print(name, earliest_start_completions(jobs))

    groups = [
        [(0.0, 0.0), (0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (3.5, 4.0)],
        [(0.0, 0.0), (0.3, 0.5), (1.0, 0.8), (1.5, 1.0)],
        [(0.0, 0.0), (1.5, 1.0), (2.5, 1.5), (3.5, 2.0)],
        [(0.0, 0.0), (1.5, 2.0)],
    ]
    print("mckp B=3.0:", mckp_enumerate(groups, 3.0))
    print("mckp B=2.8:", mckp_enumerate(groups, 2.8))
    print("month-1 d2:", hand_month1_d2())


# --- record walks of the modular checks ---------------------------------------
#
# The job-by-job and placement-by-placement forms of core's checks and of
# jit's dispatcher and penalties, as the package computed them before it
# read columns. They take records (anything with the same attributes) and
# give the same values, lists and error texts, in the same order.

def _first_codes(types):
    codes = {}
    for code, t in enumerate(types):
        codes.setdefault(t, code)
    return codes


def _known(element, codes) -> bool:
    try:
        return element in codes
    except TypeError:  # unhashable
        return False


def record_collect_violations(universe, jobs, processors, grid):
    violations = []
    seen_types = set()
    for t in universe.types:
        if t in seen_types:
            violations.append(f"universe: duplicate element type '{t}'")
        seen_types.add(t)
    if not (0 <= universe.idle_index < len(universe.types)):
        violations.append(f"universe: idle_index {universe.idle_index} out of range")
    if len(universe.types) < 2:
        violations.append("universe: needs at least one non-idle type")
    codes = _first_codes(universe.types)
    seen_jobs = set()
    for job in jobs:
        if job.id in seen_jobs:
            violations.append(f"job {job.id}: duplicate id")
        seen_jobs.add(job.id)
        if len(job.chain) == 0:
            violations.append(f"job {job.id}: empty chain")
        for element in job.chain:
            if not _known(element, codes):
                violations.append(f"job {job.id}: unknown element type '{element}'")
            elif codes[element] == universe.idle_index:
                violations.append(f"job {job.id}: idle element in chain")
                break
    seen_procs = set()
    for proc in processors:
        if proc in seen_procs:
            violations.append(f"processors: duplicate id '{proc}'")
        seen_procs.add(proc)
    if grid.interval_len_slots < 1:
        violations.append("grid: interval_len_slots must be positive")
    if grid.k < 1:
        violations.append("grid: k must be positive")
    return violations


def record_schedule_violations(jobs, processors, schedule):
    """``jobs`` maps an id to its record; ``processors`` are the instance's."""
    violations = []
    placed = set()
    for proc in schedule.placements:
        if proc not in schedule.processors:
            violations.append(f"schedule: unknown processor '{proc}'")
    for proc in schedule.processors:
        if proc not in processors:
            violations.append(f"schedule: unknown processor '{proc}'")
    for proc in schedule.processors:
        occupied = []
        for job_id, start in schedule.placements.get(proc, ()):
            if job_id not in jobs:
                violations.append(f"processor {proc}: unknown job id '{job_id}'")
                continue
            if not isinstance(start, int):  # a bool is an int
                violations.append(f"job {job_id}: start slot {start!r} is not an integer")
                continue
            if job_id in placed:
                violations.append(f"job {job_id}: placed more than once")
            placed.add(job_id)
            if start < 0:
                violations.append(f"job {job_id}: negative start slot {start}")
            end = start + len(jobs[job_id].chain)
            if end > schedule.horizon_slots:
                violations.append(
                    f"processor {proc}: job {job_id} ends at slot {end} "
                    f"beyond horizon {schedule.horizon_slots}"
                )
            occupied.append((start, end, job_id))
        occupied.sort()
        for (s1, e1, j1), (s2, e2, j2) in zip(occupied, occupied[1:]):
            if s2 < e1:
                violations.append(f"processor {proc}: jobs {j1} and {j2} overlap")
    return violations


def record_makespan(jobs, schedule, interval_len):
    last_slot = -1
    for proc in schedule.processors:
        for job_id, start in schedule.placements.get(proc, ()):
            last_slot = max(last_slot, start + len(jobs[job_id].chain) - 1)
    return 0 if last_slot < 0 else last_slot // interval_len + 1


def record_interval_bags(universe, jobs, schedule, grid):
    """(index, elements, counts) of each interval's bag: elements sorted by
    first position in the universe and idle-padded to capacity, counts in
    universe order. Raises as interval_bags does."""
    if grid.horizon_slots < schedule.horizon_slots:
        raise ValueError(
            f"grid shorter than horizon: {grid.horizon_slots} < {schedule.horizon_slots}"
        )
    pairs = [pair for proc in schedule.processors for pair in schedule.placements.get(proc, ())]
    chains = [jobs[job_id].chain for job_id, _start in pairs]  # an unknown id first
    starts = [index(start) for _job_id, start in pairs]  # then a start that is no integer
    placed = [
        (start + offset, element)
        for start, chain in zip(starts, chains)
        for offset, element in enumerate(chain)
    ]
    if any(not 0 <= slot < grid.horizon_slots for slot, _ in placed):
        raise ValueError(f"placement outside the grid's {grid.horizon_slots} slots")
    codes = _first_codes(universe.types)
    # the first unknown element in interval order, then placement order
    for _slot, element in sorted(placed, key=lambda p: p[0] // grid.interval_len_slots):
        if not _known(element, codes):
            raise ValueError(f"unknown element type '{element}'")
    counts = [[0] * len(universe.types) for _ in range(grid.k)]
    for slot, element in placed:
        counts[slot // grid.interval_len_slots][codes[element]] += 1
    capacity = grid.interval_len_slots * len(schedule.processors)
    idle = codes[universe.types[universe.idle_index]]
    bags = []
    for i, row in enumerate(counts):
        row[idle] += max(capacity - sum(row), 0)
        elements = tuple(t for t, n in zip(universe.types, row) for _ in range(n))
        bags.append((i + 1, elements, tuple(row)))
    return bags


def record_schedule_windows(jobs, tolerance=1e-9):
    """(starts, completions, infeasible ids) of earliest-start dispatch, as
    dicts and a list in machine-then-position order. Raises ValueError as
    schedule_windows does."""
    by_machine = {}
    for job in jobs:
        by_machine.setdefault(job.machine, []).append(job)
    starts, completions, infeasible = {}, {}, []
    for machine in sorted(by_machine):
        sequence = sorted(by_machine[machine], key=lambda j: j.position)
        if [j.position for j in sequence] != list(range(1, len(sequence) + 1)):
            raise ValueError(
                f"machine {machine}: positions must form 1..{len(sequence)} without gaps"
            )
        previous = 0.0
        for job in sequence:
            if job.id in starts:
                raise ValueError(f"duplicate window job id '{job.id}'")
            start = max(previous, job.t1)
            completion = start + job.processing_time
            starts[job.id] = start
            completions[job.id] = completion
            if completion > job.t2 + tolerance:
                infeasible.append(job.id)
            previous = completion
    return starts, completions, infeasible


def _record_penalties(jobs, completions, weights):
    for job in jobs:
        if job.id not in completions:
            raise ValueError(f"missing completion for job {job.id}")
        c = completions[job.id]
        yield weights.alpha * max(0.0, job.t1 - c), weights.beta * max(0.0, c - job.t2)


def record_penalty_sum(jobs, completions, weights):
    """Σ alpha*u + beta*v, added one job at a time from 0.0."""
    total = 0.0
    for early, late in _record_penalties(jobs, completions, weights):
        total += early + late
    return total


def record_penalty_max(jobs, completions, weights):
    worst = 0.0
    for early, late in _record_penalties(jobs, completions, weights):
        worst = max(worst, early, late)
    return worst


# --- record walks of the home-building loader and kernel ----------------------
#
# The building-by-building forms of the loader's buildings reader, of
# Project's type and section checks and of the cascade kernel's set-up, as
# the package computed them before it read buildings as columns. They take
# the parsed JSON of a home-building block and give the same issue lines,
# error texts and arrays, in the same order.

_MAX_FLOAT = sys.float_info.max
BUILDINGS_AT = "/homebuilding/buildings"


class _Refused(Exception):
    def __init__(self, problem, *keys):
        super().__init__(problem)
        self.keys = keys


def _finite(value):
    if type(value) in (int, float) and -_MAX_FLOAT <= value <= _MAX_FLOAT:
        return float(value)
    raise _Refused("expected a finite number")


def _record_field(entry, key, read, default=None):
    value = entry.get(key)
    if value is None:
        if default is None:
            raise _Refused("missing", key)
        return default
    try:
        return read(value)
    except _Refused as refused:
        raise _Refused(str(refused), key, *refused.keys) from None


def _string(value):
    if type(value) is str:
        return value
    raise _Refused("expected a string")


def _section_counts(value):
    if type(value) is not dict:
        raise _Refused("expected an object")
    for section, count in value.items():
        if type(count) is not int:
            raise _Refused("expected an integer", section)
        if count > _MAX_FLOAT:
            raise _Refused("integer past the float range", section)
    return dict(value)


def _record_building(building_id, entry):
    """(building type, section counts, duration, start, square), or the
    issue text of the first problem."""
    if type(entry) is not dict:
        raise _Refused("expected an object")
    building = (
        _record_field(entry, "building_type", _string),
        _record_field(entry, "section_counts", _section_counts),
        _record_field(entry, "assembly_duration", _finite),
        _record_field(entry, "start", _finite),
        _record_field(entry, "general_square", _finite, 0.0),
    )
    _type, counts, duration, start, _square = building
    for broken, rule in (
        (duration <= 0, "assembly_duration must be positive"),
        (start < 0, "negative start"),
        (sum(counts.values()) < 1, "needs at least one section"),
        (any(c < 0 for c in counts.values()), "negative section count"),
    ):
        if broken:
            raise ValueError(f"building {building_id}: {rule}")
    return building


def record_read_buildings(block):
    """(records, issues): each building of ``block["buildings"]`` as a
    (building type, section counts, duration, start, square) tuple by id,
    and one issue line for each building refused."""
    buildings = block.get("buildings")
    if buildings is None:
        return {}, [f"{BUILDINGS_AT}: missing"]
    if type(buildings) is not dict:
        return {}, [f"{BUILDINGS_AT}: expected an object"]
    records, issues = {}, []
    for building_id, entry in buildings.items():
        try:
            records[building_id] = _record_building(building_id, entry)
        except _Refused as refused:
            path = "".join(f"/{key}" for key in refused.keys)
            issues.append(f"{BUILDINGS_AT}/{building_id}{path}: {refused}")
        except ValueError as exc:
            issues.append(f"{BUILDINGS_AT}/{building_id}: {exc}")
    return records, issues


def record_project_check(block, records):
    """Project's issue line for the first building, in order, of an
    unknown building type or with an unknown section type, or None."""
    for building_id, (building_type, counts, *_rest) in records.items():
        if building_type not in block["building_types"]:
            return (f"/homebuilding: building {building_id}: unknown building type "
                    f"'{building_type}'")
        for section in counts:
            if section not in block["section_types"]:
                return (f"/homebuilding: building {building_id}: unknown section type "
                        f"'{section}'")
    return None


def record_kernel(block, records, ids):
    """(lo, top, rate, matrix, width) of the kernel of the buildings
    ``ids`` of ``records`` (as record_read_buildings gives them), one row
    each, built one building at a time: a ladder per building, and each
    section composition's matrix summed for its first building and copied
    to the others."""
    ladders = {
        t: [counts.get(f, 0) for f in FLOOR_ORDER]
        for t, counts in block["building_types"].items()
    }
    buildings = [records[b] for b in ids]
    counts = np.array(
        [ladders[building[0]] for building in buildings], dtype=float
    ).reshape(-1, 1, len(FLOOR_ORDER))
    hi = np.cumsum(counts, axis=2)
    lo = hi - counts
    cap = hi[..., -1:] - (1 if block.get("rate_basis", "U-1") == "U-1" else 0)
    top = np.minimum(cap, hi)
    durations = np.array([building[2] for building in buildings], dtype=float)
    rate = cap / durations.reshape(-1, 1, 1)
    matrices = {
        s: np.asarray([[float(v) for v in rows[f]] for f in FLOOR_ORDER], dtype=float)
        for s, rows in block["section_types"].items()
    }
    matrix = np.zeros((len(buildings), len(FLOOR_ORDER), len(DETAIL_ORDER)))
    built = {}
    for combined, building in zip(matrix, buildings):
        key = tuple(building[1].items())
        if key in built:
            combined[...] = built[key]
            continue
        for section, count in key:
            if count:
                combined += count * matrices[section]
        built[key] = combined
    others = [building[2] for building in records.values()]
    horizon = block["horizon_months"]
    width = min(int(np.ceil(max([*durations, *others], default=0.0))) + 1, horizon)
    return lo, top, rate, matrix, width


def record_horizon_table(block, records):
    """(horizon x 8) requirement table of the block's team schedule: each
    placement's window of record_kernel's width, from the two-clip progress
    and its own matrix, added month by month in placement order into +0.0,
    months past the horizon dropped."""
    schedule = block["team_schedule"]
    placements = [
        (b, start) for team in schedule["teams"]
        for b, start in schedule["assignments"].get(team, ())
    ]
    ids = [b for b, _start in placements]
    _lo, _top, _rate, matrix, width = record_kernel(block, records, ids)
    horizon = block["horizon_months"]
    rate_basis = block.get("rate_basis", "U-1")
    total = np.zeros((horizon, len(DETAIL_ORDER)))
    for (b, start), combined in zip(placements, matrix):
        building_type, _counts, duration, *_rest = records[b]
        floors = block["building_types"][building_type]
        first = min(max(np.floor(start), 0.0), float(horizon))
        edges = first + np.arange(width + 1.0)
        window = double_clip_output(
            [floors.get(f, 0) for f in FLOOR_ORDER], duration, [start], edges, rate_basis
        )[0] @ combined
        for k, row in enumerate(window):
            if int(first) + k < horizon:
                total[int(first) + k] += row
    return total


# --- the read-only home-building outputs -------------------------------------
#
# The requirement table's sum and the text Gantt chart as they were written
# before the flat-cell bincount and the padded cells: np.add.at of each
# window row into its month, and one format per chart cell.

def add_at_total(horizon, first, tables):
    """(horizon x 8) sum of window ``tables`` (P x width x 8), placement p's
    row k added into month first[p] + k by np.add.at, in placement order
    into +0.0, months past the horizon dropped."""
    total = np.zeros((horizon, len(DETAIL_ORDER)))
    months = np.asarray(first)[:, None] + np.arange(np.shape(tables)[1])
    np.add.at(total, months[months < horizon], tables[months < horizon])
    return total


def cell_gantt(horizon, durations, teams, assignments):
    """Month-granular text chart: a header of months, then per team its
    cells, each formatted on its own. ``durations`` maps every building id
    to its duration (their widest id sets the cell width); ``assignments``
    maps a team to its (building id, start) pairs. A building fills months
    floor(start)+1 through ceil(end - 0.5), at least one; in a contested
    month the placement with the earlier (start, id) keeps the cell."""
    width = max(3, max((len(b) for b in durations), default=2) + 1)
    lines = ["team " + "".join(f"{m:>{width}}" for m in range(1, horizon + 1))]
    for team in teams:
        cells = ["."] * horizon
        for building_id, start in sorted(assignments.get(team, ()), key=lambda p: (p[1], p[0])):
            first = int(np.floor(start)) + 1
            last = max(first, int(np.ceil(start + durations[building_id] - 0.5)))
            for month in range(max(1, first), min(horizon, last) + 1):
                if cells[month - 1] == ".":
                    cells[month - 1] = building_id
        lines.append(f"{team:<5}" + "".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines) + "\n"
