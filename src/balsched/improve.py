"""Violation-driven schedule repair via budgeted multiple-choice knapsack.

When monthly detail requirements exceed factory capacity, the repair loop
builds correction groups -- per building, a menu of mutually exclusive moves
(do nothing, shift the start left/right by a few days, or exchange two
buildings' placements) -- scores each move's profit (drop in the violation
measure) and cost, picks at most one move per group under a cost budget
(multiple-choice knapsack, ratio greedy), applies the selection, and
repeats while the violation measure keeps falling.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import compress
from math import inf, isfinite
from typing import Mapping, Sequence

import numpy as np

from .homebuilding import (
    DAYS_PER_MONTH,
    DETAIL_TYPES,
    LANE_TOLERANCE,
    BuildingTable,
    Project,
    RequirementKernel,
    TeamSchedule,
    team_schedule_violations,
    validate_team_schedule,
)

#: Schedules are checked through validate_team_schedule. This module still
#: binds team_schedule_violations by name, because perfbench/tracing.py
#: patches every module's binding of a spanned function, and
#: perfbench/test_perfbench.py checks that this one is patched.
_TRACED_BINDINGS = (team_schedule_violations,)

VARIANT_KINDS = ("none", "shift_right", "shift_left", "exchange")
EXCHANGE = VARIANT_KINDS.index("exchange")


@dataclass(frozen=True)
class CorrectionVariant:
    """One correction move with its profit c and cost b.

    ``days`` is set for shifts (positive); ``buildings`` for exchanges.
    Profit may be negative for scored worsening moves; they stay in the
    menu but are never worth selecting over "none".
    """

    kind: str
    days: int | None = None
    buildings: tuple[str, str] | None = None
    profit: float = 0.0
    cost: float = 0.0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown correction kind '{self.kind}'")
        if self.kind == "none" and (self.profit != 0 or self.cost != 0):
            raise ValueError("the 'none' variant must have zero profit and cost")
        if self.kind in ("shift_right", "shift_left"):
            if self.days is None or self.days <= 0:
                raise ValueError(f"{self.kind} needs a positive day count")
        if self.kind == "exchange":
            if self.buildings is None or len(self.buildings) != 2:
                raise ValueError("exchange needs exactly two building ids")
        if self.cost < 0:
            raise ValueError("variant cost must be non-negative")

    def describe(self, target: str | None = None) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "exchange":
            return f"exchange {self.buildings[0]}<->{self.buildings[1]}"
        arrow = "+" if self.kind == "shift_right" else "-"
        return f"{target or '?'} {arrow}{self.days}d"


NONE_VARIANT = CorrectionVariant(kind="none")


@dataclass(frozen=True)
class CorrectionGroup:
    """A menu of mutually exclusive corrections for one target."""

    index: int
    targets: tuple[str, ...]
    variants: tuple[CorrectionVariant, ...]

    def __post_init__(self):
        if not self.variants:
            raise ValueError(f"group {self.index}: needs at least one variant")
        if self.variants[0].kind != "none":
            raise ValueError(f"group {self.index}: first variant must be 'none'")


@dataclass(frozen=True)
class Selection:
    """One chosen variant per group (0 = none), in group order."""

    chosen: tuple[int, ...]
    total_profit: float
    total_cost: float


@dataclass(frozen=True)
class BudgetedMCKP:
    """Multiple-choice knapsack: one variant per group, total cost <= budget.

    Groups are canonically sorted by (index, targets) so that selections do
    not depend on argument order.
    """

    groups: tuple[CorrectionGroup, ...]
    budget: float

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        ordered = tuple(sorted(self.groups, key=lambda g: (g.index, g.targets)))
        object.__setattr__(self, "groups", ordered)


#: mckp_greedy compares profit/cost ratios rounded to this many decimals,
#: so ratios that are equal up to float noise tie.
RATIO_DIGITS = 9


def _pack(
    group: np.ndarray, profit: np.ndarray, cost: np.ndarray, budget: float, floor: float = 0.0
) -> list[int]:
    """The rows the ratio greedy picks, at most one per group, in pick order.

    Rows are the variants other than none, in (group, variant) order, given
    as columns. Rows with profit at or below ``floor`` are never taken;
    zero-cost rows with a larger profit rank first. Ratios are Python's
    ``round(profit / cost, RATIO_DIGITS)``, so ratios equal up to float
    noise tie, and a stable sort breaks ties on row order.
    """
    rows = np.flatnonzero(profit > floor).tolist()
    profits, costs = profit[rows].tolist(), cost[rows].tolist()
    groups = group[rows].tolist()
    ratios = [
        inf if c == 0 else round(p / c, RATIO_DIGITS) for p, c in zip(profits, costs)
    ]
    taken: set[int] = set()
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


def mckp_greedy(problem: BudgetedMCKP) -> Selection:
    """Ratio-greedy selection: pack variants by profit/cost until budget.

    Candidates with non-positive profit are never taken; zero-cost positive
    profit ranks first. Ratios are compared at RATIO_DIGITS decimals and
    ties break on (group index, variant index), so the result is
    deterministic and float noise in equal ratios does not pick the move.
    """
    group, index, profit, cost = [], [], [], []
    for gi, g in enumerate(problem.groups):
        for j, variant in enumerate(g.variants[1:], start=1):
            group.append(gi)
            index.append(j)
            profit.append(variant.profit)
            cost.append(variant.cost)
    chosen = [0] * len(problem.groups)
    picked = _pack(
        np.array(group, dtype=np.intp), np.array(profit, dtype=float),
        np.array(cost, dtype=float), problem.budget,
    )
    for row in picked:
        chosen[group[row]] = index[row]
    profit = sum(g.variants[j].profit for g, j in zip(problem.groups, chosen))
    cost = sum(g.variants[j].cost for g, j in zip(problem.groups, chosen))
    return Selection(chosen=tuple(chosen), total_profit=profit, total_cost=cost)


# --- violation measure and cascade caching ---------------------------------

#: Cost of a shift per day moved.
DAY_COST = 0.1
#: Cost of an exchange of two buildings' placements.
EXCHANGE_COST = 2.0
#: The shift steps in days, each tried right and left.
SHIFT_STEPS = (3, 7, 14, 21)
#: Floor of the divisor of a violation, so a zero capacity divides by EPS.
EPS = 1e-9
#: Menu rows priced per kernel call; bounds the (rows x width x 8)
#: floor-output stacks a call holds.
PRICE_BLOCK = 256
#: The repair loop treats a profit or a drop in V at or below
#: REL_TOL * max(1, V) as rounding noise, and V at or below REL_TOL as 0.
REL_TOL = 1e-12


def capacity_vector(capacity: Mapping[str, float]) -> np.ndarray:
    """Per-detail capacity array; details without a stated capacity, or
    with capacity +inf, are unconstrained.

    Raises:
        ValueError: on an unknown detail or a negative or NaN capacity.
    """
    for detail, value in capacity.items():
        if detail not in DETAIL_TYPES:
            raise ValueError(f"unknown detail type '{detail}'")
        if not value >= 0:
            raise ValueError(f"capacity of detail '{detail}' must be non-negative, got {value}")
    return np.array(
        [capacity.get(d, float("inf")) for d in DETAIL_TYPES], dtype=float
    )


class CascadeCache:
    """Tables of the project's kernel (Project.kernel): each table is one
    kernel.total call."""

    def __init__(self, project: Project):
        self.kernel = project.kernel

    def building_table(self, building_id: str, start: float) -> np.ndarray:
        return self.kernel.total([self.kernel.row[building_id]], [start])

    def schedule_table(self, schedule: TeamSchedule) -> np.ndarray:
        return self.kernel.total(*self.kernel.placements(schedule))


def _violation_measures(stack: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """The violation measure of each (months x details) table of a
    C-contiguous stack: sum over months and details of max(0, gamma -
    cap) / max(cap, EPS). The months and details of one table reduce as
    one run."""
    return np.sum(np.maximum(0.0, stack - cap) / np.maximum(cap, EPS), axis=(1, 2))


def violation_measure(table: np.ndarray, cap: np.ndarray) -> float:
    """Aggregate capacity excess of one table: _violation_measures on a
    stack of one."""
    return float(_violation_measures(table[None], cap)[0])


def max_violation(table: np.ndarray, cap: np.ndarray) -> float:
    """Largest single-cell capacity excess."""
    return float(np.max(np.maximum(0.0, table - cap)))


def violated_months(table: np.ndarray, cap: np.ndarray) -> tuple[int, ...]:
    """1-based months in which any detail requirement exceeds capacity."""
    return tuple((np.flatnonzero((table - cap > 0).any(axis=1)) + 1).tolist())


# --- moves: feasibility, scoring, application -------------------------------

#: A move: (building, old team, old start, new team, new start).
Move = tuple[str, str, float, str, float]


def _lane_fits(lane: list, removed: Sequence[tuple], added: Sequence[tuple]) -> bool:
    """Whether a lane of (start, end, id) spans, less ``removed`` and plus
    ``added``, keeps every pair of neighbours apart within LANE_TOLERANCE.
    The whole lane is sorted and checked: lanes hold tens of spans, so
    this costs microseconds.
    """
    spans = sorted([span for span in lane if span not in removed] + list(added))
    return not any(start < end - LANE_TOLERANCE
                   for (_s, end, _b), (start, _e, _n) in zip(spans, spans[1:]))


class _Lanes:
    """A valid schedule indexed for moves within [0, ``horizon``]: each
    team's lane of sorted (start, end, id) spans, each building's (team,
    start), and each building's duration, read from the duration column."""

    def __init__(self, buildings: BuildingTable, schedule: TeamSchedule, horizon: int):
        self.duration = dict(zip(buildings.ids, buildings.assembly_duration.tolist()))
        self.horizon = horizon
        self.teams = schedule.teams
        self.placement: dict[str, tuple[str, float]] = {}
        self.lanes: dict[str, list] = {team: [] for team in schedule.teams}
        for team, building_id, start in schedule.placements():
            self.placement[building_id] = (team, start)
            self.lanes[team].append(self._span(building_id, start))
        for lane in self.lanes.values():
            lane.sort()

    def _span(self, building_id: str, start: float) -> tuple[float, float, str]:
        return start, start + self.duration[building_id], building_id

    def _placed(self, building_id: str) -> tuple[str, float]:
        if building_id not in self.placement:
            raise ValueError(
                f"variant not applicable: building {building_id} is not placed"
            )
        return self.placement[building_id]

    def moves(self, variant: CorrectionVariant, target: str | None) -> list[Move]:
        """The buildings a variant moves, with their old and new placements.

        Raises:
            ValueError: for a shift without a target, a degenerate exchange,
                or a building that is not placed.
        """
        if variant.kind == "none":
            return []
        if variant.kind in ("shift_right", "shift_left"):
            if target is None:
                raise ValueError("shift variant needs a target building")
            team, start = self._placed(target)
            delta = variant.days / DAYS_PER_MONTH
            new_start = start + delta if variant.kind == "shift_right" else start - delta
            return [(target, team, start, team, new_start)]
        b1, b2 = variant.buildings
        if b1 == b2:
            raise ValueError(f"degenerate exchange: {b1} with itself")
        team1, start1 = self._placed(b1)
        team2, start2 = self._placed(b2)
        return [(b1, team1, start1, team2, start2), (b2, team2, start2, team1, start1)]

    def fits(self, moves: Sequence[Move]) -> bool:
        """Whether the moved schedule keeps every moved building inside
        [0, horizon] and passes team_schedule_violations."""
        removed: dict[str, list] = {}
        added: dict[str, list] = {}
        for building_id, old_team, old_start, new_team, new_start in moves:
            if new_start < 0:
                return False
            if new_start + self.duration[building_id] > self.horizon:
                return False
            removed.setdefault(old_team, []).append(self._span(building_id, old_start))
            added.setdefault(new_team, []).append(self._span(building_id, new_start))
        return all(
            _lane_fits(self.lanes[team], removed.get(team, ()), added.get(team, ()))
            for team in removed.keys() | added.keys()
        )

    def slots(self, ids: Sequence[str]) -> tuple[np.ndarray, ...]:
        """Per building of ``ids``: its start, its duration, the start and
        the end of the previous span on its lane (-inf at the lane's start)
        and the start of the next span (+inf at the lane's end)."""
        before, after = {}, {}
        for lane in self.lanes.values():
            for (start, end, building_id), (next_start, _e, next_id) in zip(lane, lane[1:]):
                after[building_id] = next_start
                before[next_id] = (start, end)
        previous = np.array([before.get(b, (-inf, -inf)) for b in ids], dtype=float)
        previous = previous.reshape(-1, 2)
        return (
            np.array([self.placement[b][1] for b in ids], dtype=float),
            np.array([self.duration[b] for b in ids], dtype=float),
            previous[:, 0],
            previous[:, 1],
            np.array([after.get(b, inf) for b in ids], dtype=float),
        )

    def apply(self, moves: Sequence[Move]) -> None:
        for building_id, old_team, old_start, new_team, new_start in moves:
            self.lanes[old_team].remove(self._span(building_id, old_start))
            insort(self.lanes[new_team], self._span(building_id, new_start))
            self.placement[building_id] = (new_team, new_start)

    def schedule(self) -> TeamSchedule:
        """The indexed placements as a schedule, each lane in (start, id) order."""
        return TeamSchedule(
            teams=self.teams,
            assignments={
                team: tuple(sorted(
                    ((building_id, start) for start, _end, building_id in lane),
                    key=lambda p: (p[1], p[0]),
                ))
                for team, lane in self.lanes.items()
            },
        )


def _shift_starts(starts: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """Each start moved right, then left, by each step in days, in the
    float expressions of _Lanes.moves."""
    offsets = np.array(steps) / DAYS_PER_MONTH
    return np.hstack([starts[:, None] + offsets, starts[:, None] - offsets])


def _shift_fits(
    new_starts: np.ndarray,
    durations: np.ndarray,
    prev_starts: np.ndarray,
    prev_ends: np.ndarray,
    next_starts: np.ndarray,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(fits, decided) for moving building i of the arrays of _Lanes.slots
    to each new start of row i, on its own lane.

    A new start strictly between the previous and the next start on the
    lane keeps the building between the same neighbours, so _Lanes.fits
    reduces to its own float expressions: the span stays inside
    [0, horizon] and overlaps neither neighbour past LANE_TOLERANCE.
    ``decided`` is False where the shift passes a neighbour's start; there
    ``fits`` means nothing.
    """
    new_ends = new_starts + durations[:, None]
    decided = (prev_starts[:, None] < new_starts) & (new_starts < next_starts[:, None])
    fits = (
        ~(new_starts < 0) & ~(new_ends > horizon)
        & ~(new_starts < prev_ends[:, None] - LANE_TOLERANCE)
        & ~(next_starts[:, None] < new_ends - LANE_TOLERANCE)
    )
    return fits, decided


def _swap_fits(
    starts: np.ndarray,
    durations: np.ndarray,
    following: np.ndarray,
    horizon: int,
    targets: np.ndarray,
) -> np.ndarray:
    """(targets x buildings): whether building ``targets[g]`` and building
    k can exchange placements, from the arrays of _Lanes.slots.

    A building that takes over the other's slot keeps that slot's start,
    and the spans before and after that slot stay where they are. So the
    previous span on the lane still fits, and _Lanes.fits reduces to two
    tests per side in its own float expressions: the new end stays within
    the horizon and passes the next start on the lane by at most
    LANE_TOLERANCE. Valid schedules never start below 0. This holds for
    lane neighbours too: when k follows i, i's next start is k's start,
    the slot k takes over, so the test on i's side is the lane check of k
    against i's new span, and k's next span is the one after i's new span.
    """
    ends_there = starts + durations[targets, None]
    ends_here = starts[targets, None] + durations
    return (
        (ends_there <= horizon) & ~(following < ends_there - LANE_TOLERANCE)
        & (ends_here <= horizon) & ~(following[targets, None] < ends_here - LANE_TOLERANCE)
    )


def _tables(
    kernel: RequirementKernel, rows: np.ndarray, starts: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, tables, key): the window of placement i (kernel row
    ``rows[i]`` at ``starts[i]``) is first[key[i]], tables[key[i]].

    A table depends only on the row's kind and the start, so each distinct
    (kernel.kind, start) pair is computed once, in kernel.window calls of
    at most PRICE_BLOCK placements. Starts are equal as floats: one ulp
    apart they differ, and -0.0 and 0.0 give the same window bit for bit.
    Slices of a stacked call equal one-row calls bit for bit, so every
    gathered table is the one its own call would give.
    """
    pairs = np.empty(len(rows), dtype=complex)
    pairs.real, pairs.imag = kernel.kind[rows], starts
    _distinct, once, key = np.unique(pairs, return_index=True, return_inverse=True)
    first = np.empty(len(once), dtype=np.intp)
    tables = np.empty((len(once), kernel.width, len(cols)))
    for block in range(0, len(once), PRICE_BLOCK):
        block = slice(block, block + PRICE_BLOCK)
        first[block], tables[block] = kernel.window(rows[once[block]], starts[once[block]], cols)
    return first, tables, key


def _profits(
    kernel: RequirementKernel,
    table: np.ndarray,
    cap: np.ndarray,
    placed: Sequence[str],
    starts: np.ndarray,
    target: np.ndarray,
    new_starts: np.ndarray,
    partner: np.ndarray,
) -> np.ndarray:
    """Profits of moves on the buildings ``placed`` at ``starts``, whose
    table is ``table``: row r moves ``placed[target[r]]`` to
    ``new_starts[r]``, and unless ``partner[r]`` is -1 it exchanges it
    with ``placed[partner[r]]``, which starts there.

    Tables are linear in placements and V reads only the details with a
    finite capacity, so a row changes those columns on two windows: its
    new tables less its old ones, from the months of the new and the old
    start. Its profit is V less V of the changed table over both windows,
    merged into one span of twice their width where they overlap. Every
    window the menu needs (each placed building where it stands, each
    row's target at its new start, and for an exchange the partner at the
    target's start) is computed once per distinct (kind, start), by
    _tables, and gathered. Rows are priced independently, PRICE_BLOCK at
    a time.
    """
    cols = np.flatnonzero(np.isfinite(cap))
    rows = np.array([kernel.row[b] for b in placed])
    swapping = np.flatnonzero(partner >= 0)
    first, tables, key = _tables(
        kernel,
        np.concatenate([rows, rows[target], rows[partner[swapping]]]),
        np.concatenate([starts, new_starts, starts[target[swapping]]]),
        cols,
    )
    # per row, the key of its target's new table and of its partner's
    target_key = key[len(rows):len(rows) + len(target)]
    partner_key = np.full(len(target), -1)
    partner_key[swapping] = key[len(rows) + len(target):]
    here_first, here = first[key[:len(rows)]], tables[key[:len(rows)]]
    table, cap, width, steps = table[:, cols], cap[cols], kernel.width, np.arange(kernel.width)
    profits = [np.empty(0)]
    for block in range(0, len(target), PRICE_BLOCK):
        block = slice(block, block + PRICE_BLOCK)
        moving, partners = target[block], partner[block]
        n, swap = len(moving), np.flatnonzero(partners >= 0)
        gained = tables[target_key[block]]
        gained[swap] -= here[partners[swap]]
        lost = -here[moving]
        lost[swap] += tables[partner_key[block][swap]]
        new, old = first[target_key[block]], here_first[moving]
        lo, apart = np.minimum(new, old), np.abs(new - old) >= width
        halves = np.where(apart, [new, old], [lo, lo + width]).T
        months = (halves[:, :, None] + steps).reshape(n, 2 * width)
        delta = np.zeros((n, 2 * width, len(cols)))
        at = np.arange(n)[:, None]
        delta[at, np.where(apart, 0, new - lo)[:, None] + steps] += gained
        delta[at, np.where(apart, width, old - lo)[:, None] + steps] += lost
        inside = months < len(table)
        delta[~inside] = 0.0
        base = table[np.where(inside, months, 0)]
        profits.append(_violation_measures(base, cap) - _violation_measures(base + delta, cap))
    return np.concatenate(profits)


def score_variant(
    project: Project,
    schedule: TeamSchedule,
    variant: CorrectionVariant,
    capacity: Mapping[str, float],
    target: str | None = None,
) -> tuple[float, float]:
    """(profit, cost) of one move: profit is the violation-measure drop.

    Profit can be negative for worsening moves. Cost is DAY_COST per day
    for shifts and EXCHANGE_COST for exchanges. The move is priced as a
    menu of one row, as generate_correction_groups prices it.

    Raises:
        ValueError: for a variant that cannot be applied to this schedule.
    """
    validate_team_schedule(schedule, project.buildings)
    if variant.kind == "none":
        return 0.0, 0.0
    moves = _Lanes(project.buildings, schedule, project.horizon_months).moves(variant, target)
    placed, _teams, starts, _new_teams, new_starts = zip(*moves)
    exchange = variant.kind == "exchange"
    profit = _profits(
        project.kernel, CascadeCache(project).schedule_table(schedule), capacity_vector(capacity),
        placed, np.array(starts), np.array([0]), np.array(new_starts[:1]),
        np.array([1 if exchange else -1]),
    )
    return float(profit[0]), EXCHANGE_COST if exchange else DAY_COST * variant.days


@dataclass(frozen=True, eq=False)
class CorrectionMenu:
    """One iteration's correction groups as columns.

    Group g (0-based; its index is g + 1) serves the building at position
    ``targets[g]`` of ``placed``. Each row is one variant other than none,
    rows in (group, variant) order: ``group``, ``kind`` (a position in
    VARIANT_KINDS), ``days`` (0 for exchanges), ``partner`` (the exchange
    partner's position in ``placed``, -1 for shifts), ``profit`` and
    ``cost``. CorrectionGroup and CorrectionVariant objects are built only
    on request.
    """

    placed: Sequence[str]
    targets: Sequence[int]
    group: np.ndarray
    kind: np.ndarray
    days: np.ndarray
    partner: np.ndarray
    profit: np.ndarray
    cost: np.ndarray

    def move(self, row: int) -> tuple[str, CorrectionVariant]:
        """The target and the variant of one row."""
        target = self.placed[self.targets[self.group[row]]]
        kind = VARIANT_KINDS[self.kind[row]]
        profit, cost = float(self.profit[row]), float(self.cost[row])
        if kind == "exchange":
            buildings = (target, self.placed[self.partner[row]])
            return target, CorrectionVariant(kind, buildings=buildings, profit=profit, cost=cost)
        days = self.days[row].item()
        return target, CorrectionVariant(kind, days=days, profit=profit, cost=cost)

    def groups(self) -> list[CorrectionGroup]:
        """The menu as correction groups, one per target in index order."""
        variants = [[NONE_VARIANT] for _ in self.targets]
        for row, g in enumerate(self.group.tolist()):
            variants[g].append(self.move(row)[1])
        return [
            CorrectionGroup(index=g + 1, targets=(self.placed[i],), variants=tuple(v))
            for g, (i, v) in enumerate(zip(self.targets, variants))
        ]

    def pack(self, budget: float, floor: float = 0.0) -> list[int]:
        """The rows mckp_greedy picks under ``budget``, in group order,
        leaving out every row whose profit is at or below ``floor``."""
        return sorted(_pack(self.group, self.profit, self.cost, budget, floor))

    def selection(self, rows: Sequence[int]) -> Selection:
        """The selection of ``rows`` (at most one per group, in group order)."""
        chosen = [0] * len(self.targets)
        first = np.searchsorted(self.group, np.arange(len(self.targets))).tolist()
        for row in rows:
            g = self.group[row]
            chosen[g] = row - first[g] + 1
        return Selection(
            chosen=tuple(chosen),
            total_profit=sum((float(self.profit[row]) for row in rows), 0.0),
            total_cost=sum((float(self.cost[row]) for row in rows), 0.0),
        )


def _active(starts: np.ndarray, durations: np.ndarray, months: Sequence[int]) -> np.ndarray:
    """(months x buildings): whether the building at ``starts[i]`` for
    ``durations[i]`` is active in 1-based month m, over [m - 1, m). A span
    that ends on m - 1 counts: rate * duration can round just below the
    ladder top, so its last floor-unit finishes in month m."""
    m = np.array(months, dtype=float)[:, None]
    return (starts < m) & (starts + durations >= m - 1)


def _correction_menu(
    kernel: RequirementKernel, lanes: _Lanes, cap: np.ndarray, table: np.ndarray
) -> CorrectionMenu:
    """generate_correction_groups' menu, as columns, for the valid
    schedule indexed by ``lanes``, whose requirement table is ``table``."""
    placed = sorted(lanes.placement)
    months = violated_months(table, cap)
    starts, durations, prev_starts, prev_ends, following = lanes.slots(placed)
    is_target = _active(starts, durations, months).any(axis=0)
    targets = np.flatnonzero(is_target)

    new_starts = _shift_starts(starts[targets], SHIFT_STEPS)
    fits, decided = _shift_fits(
        new_starts, durations[targets], prev_starts[targets], prev_ends[targets],
        following[targets], lanes.horizon,
    )
    for g, j in zip(*np.nonzero(~decided)):
        target = placed[targets[g]]
        team, start = lanes.placement[target]
        fits[g, j] = lanes.fits([(target, team, start, team, new_starts[g, j])])

    # An exchange is one move on a pair; list it only in the first group
    # that can host it, so a selection can never pick the same swap twice
    # and undo itself.
    positions = np.arange(len(placed))
    eligible = (positions > targets[:, None]) | ((positions < targets[:, None]) & ~is_target)
    # Two buildings of one kind (kernel.kind: type, composition and
    # duration) gather equal kernel rows, so their exchange changes no
    # table bit and its profit is 0.0: the menu leaves it out.
    kind = kernel.kind[[kernel.row[b] for b in placed]]
    eligible &= kind[targets, None] != kind
    swaps = eligible & _swap_fits(starts, durations, following, lanes.horizon, targets)
    # a column per shift (right by each step, then left, as VARIANT_KINDS
    # orders them), then one per exchange partner: the rows are the
    # feasible cells in (group, variant) order
    group, column = np.nonzero(np.hstack([fits, swaps]))
    steps, shift = len(SHIFT_STEPS), column < 2 * len(SHIFT_STEPS)
    kind = np.where(shift, VARIANT_KINDS.index("shift_right") + column // steps, EXCHANGE)
    days = np.where(shift, np.array(SHIFT_STEPS)[column % steps], 0)
    partner = np.where(shift, -1, column - 2 * steps)
    new_start = np.hstack([new_starts, np.tile(starts, (len(targets), 1))])[group, column]
    profit = _profits(kernel, table, cap, placed, starts, targets[group], new_start, partner)
    cost = np.where(kind == EXCHANGE, EXCHANGE_COST, DAY_COST * days)
    return CorrectionMenu(placed, targets.tolist(), group, kind, days, partner, profit, cost)


def generate_correction_groups(
    project: Project,
    schedule: TeamSchedule,
    capacity: Mapping[str, float],
) -> list[CorrectionGroup]:
    """Build one scored correction group per building active in a violated
    month: none + feasible shifts (both directions) + feasible exchanges.

    The groups are a view of one CorrectionMenu, whose moves are all
    checked as arrays on a lane index of the schedule (_shift_fits,
    _swap_fits; _Lanes.fits for a shift that passes a neighbour) and priced
    against the schedule's requirement table (_profits).

    Returns an empty list when no month exceeds capacity.

    Raises:
        ValueError: naming the violations, when the schedule is invalid.
    """
    validate_team_schedule(schedule, project.buildings)
    table = CascadeCache(project).schedule_table(schedule)
    lanes = _Lanes(project.buildings, schedule, project.horizon_months)
    return _correction_menu(project.kernel, lanes, capacity_vector(capacity), table).groups()


def _compose(lanes: _Lanes, picks: Sequence[tuple[str | None, CorrectionVariant]]) -> list[bool]:
    """Make the chosen (target, variant) pairs on the lanes in place, in
    group order, and return which applied. Moves are priced independently,
    so two can collide (exchanges with a common partner, opposing shifts
    on one lane): a move applies only if its buildings are untouched so
    far and the lanes as moved so far keep every moved building inside
    [0, lanes.horizon] and pass team_schedule_violations. Earlier groups
    win, so the outcome is deterministic.

    Raises:
        ValueError: for a shift without a target, a degenerate exchange,
            or a variant naming an unplaced building.
    """
    moved: set[str] = set()
    kept = []
    for target, variant in picks:
        moves = lanes.moves(variant, target)
        touched = {building_id for building_id, *_ in moves}
        applies = not touched & moved and lanes.fits(moves)
        if applies:
            lanes.apply(moves)
            moved |= touched
        kept.append(applies)
    return kept


# --- the repair loop --------------------------------------------------------

@dataclass(frozen=True)
class ImproveParams:
    """Loop knobs: per-iteration correction budget and iteration cap."""

    budget: float = 5.0
    max_iters: int = 10

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not isfinite(self.budget):
            raise ValueError("budget must be finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")


@dataclass(frozen=True)
class IterationRecord:
    """One loop pass: measures before, the moves it applied and their
    selection from the pass's menu, measure after.

    ``moves`` holds the applied (target, variant) pairs in group order;
    ``selection`` chooses the same variants. A rejected pass records the
    moves it tried.
    """

    iteration: int
    v_before: float
    max_violation: float
    selection: Selection
    moves: tuple[tuple[str, CorrectionVariant], ...]
    v_after: float
    accepted: bool


@dataclass(frozen=True)
class LoopResult:
    """Final schedule plus the full per-iteration trace."""

    schedule: TeamSchedule
    trace: tuple[IterationRecord, ...]
    stop_reason: str

    def v_sequence(self) -> list[float]:
        return [record.v_before for record in self.trace] + (
            [self.trace[-1].v_after] if self.trace else []
        )


def improvement_loop(
    project: Project,
    schedule: TeamSchedule,
    capacity: Mapping[str, float],
    params: ImproveParams = ImproveParams(),
) -> LoopResult:
    """Repair the schedule until balanced, stuck, or out of iterations.

    Every iteration: find violated months, build and score the correction
    menu, select moves by greedy knapsack under the per-iteration budget,
    compose the jointly applicable subset of the selection (earlier groups
    win conflicts), apply it, and keep the result only if the violation
    measure dropped by more than REL_TOL * max(1, V), the noise floor
    below which no move is selected either. The recorded measure sequence
    is therefore monotone non-increasing. An already balanced schedule
    records zero iterations; a zero budget stops after one recorded
    iteration with the schedule unchanged.

    Raises:
        ValueError: naming the violations, when the schedule is invalid.
    """
    validate_team_schedule(schedule, project.buildings)
    cap = capacity_vector(capacity)
    cache = CascadeCache(project)
    lanes = _Lanes(project.buildings, schedule, project.horizon_months)
    current = schedule
    table = cache.schedule_table(current)
    v = violation_measure(table, cap)
    trace: list[IterationRecord] = []
    stop_reason = "balanced" if v <= REL_TOL else "max iterations"

    for iteration in range(1, params.max_iters + 1):
        if v <= REL_TOL:
            stop_reason = "balanced"
            break
        menu = _correction_menu(project.kernel, lanes, cap, table)
        noise = REL_TOL * max(1.0, v)
        # every packed row's profit is above noise, so a selection improves
        # by more than noise exactly when it picks a row
        rows = menu.pack(params.budget, noise)
        picks = [menu.move(row) for row in rows]
        new_v, reason = v, "no improving selection"
        if rows:
            # the kept moves are made on the lanes in place; a rejected
            # iteration ends the loop, so they never need undoing
            kept = _compose(lanes, picks)
            rows, picks = list(compress(rows, kept)), list(compress(picks, kept))
            reason = "selection not applicable"
            if rows:
                candidate = lanes.schedule()
                new_table = cache.schedule_table(candidate)
                new_v = violation_measure(new_table, cap)
                reason = "no decrease in violation measure"
        accepted = new_v < v - noise
        trace.append(
            IterationRecord(
                iteration=iteration,
                v_before=v,
                max_violation=max_violation(table, cap),
                selection=menu.selection(rows),
                moves=tuple(picks),
                v_after=new_v if accepted else v,
                accepted=accepted,
            )
        )
        if not accepted:
            stop_reason = reason
            break
        current, table, v = candidate, new_table, new_v
    return LoopResult(schedule=current, trace=tuple(trace), stop_reason=stop_reason)
