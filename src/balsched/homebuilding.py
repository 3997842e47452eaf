"""Monthly detail-requirement cascade for serial home building.

The hierarchy: assembly teams erect buildings; a building is a multiset of
typical architectural sections (vertical "columns"); every section of a
building climbs the same ladder of typical floors bottom-up; each floor type
of each section type consumes a fixed bill of structural details. Given a
team schedule (who builds what, starting when, in months), the cascade turns
linear per-section progress into month-by-month detail requirement vectors
that a house-building factory must supply.

Progress model: a section climbs its building's floor ladder at the constant
rate of (U - 1) floor-units per assembly duration, where U is the total unit
count of the ladder; the terminal unit is never entered (the default "U-1"
rate basis; "U" uses all U units at rate U/duration). Months are uniform
unit intervals: month m covers [m-1, m); day-denominated quantities convert
at 30 days per month.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import isfinite

import numpy as np

FLOOR_TYPES = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8")
DETAIL_TYPES = ("d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8")

#: How day-denominated shifts convert to the monthly clock.
DAYS_PER_MONTH = 30.0

RATE_BASES = ("U-1", "U")

#: Two spans on a team's lane overlap where one starts more than this before the other ends.
LANE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SectionType:
    """A section template: floor type x detail type -> details per floor.

    ``detail_matrix`` is an 8x8 grid in (FLOOR_TYPES, DETAIL_TYPES) order.
    """

    id: str
    detail_matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.detail_matrix) != len(FLOOR_TYPES):
            raise ValueError(
                f"section {self.id}: detail matrix needs "
                f"{len(FLOOR_TYPES)} floor rows"
            )
        for floor, row in zip(FLOOR_TYPES, self.detail_matrix):
            if len(row) != len(DETAIL_TYPES):
                raise ValueError(
                    f"section {self.id}: row {floor} needs "
                    f"{len(DETAIL_TYPES)} detail entries"
                )
            if any(v < 0 for v in row):
                raise ValueError(
                    f"section {self.id}: negative entry in row {floor}"
                )

    def row(self, floor: str) -> tuple[float, ...]:
        return self.detail_matrix[FLOOR_TYPES.index(floor)]

    def matrix_array(self) -> np.ndarray:
        return np.asarray(self.detail_matrix, dtype=float)


@dataclass(frozen=True)
class BuildingType:
    """A building template: how many units of each floor type it stacks."""

    id: str
    floor_counts: Mapping[str, int]

    def __post_init__(self):
        for floor, count in self.floor_counts.items():
            if floor not in FLOOR_TYPES:
                raise ValueError(
                    f"building type {self.id}: unknown floor type '{floor}'"
                )
            if count < 0:
                raise ValueError(
                    f"building type {self.id}: negative count for {floor}"
                )
        if self.total_units < 1:
            raise ValueError(
                f"building type {self.id}: needs at least one floor unit"
            )

    @property
    def total_units(self) -> int:
        """U: total floor units on the ladder."""
        return sum(self.floor_counts.values())


def floor_sequence(building_type: BuildingType) -> list[tuple[str, int]]:
    """Bottom-up ladder of (floor type, unit count), zero counts skipped."""
    return [
        (floor, building_type.floor_counts[floor])
        for floor in FLOOR_TYPES
        if building_type.floor_counts.get(floor, 0) > 0
    ]


@dataclass(frozen=True)
class Building:
    """One concrete building: template, section multiset, timing."""

    id: str
    building_type: str
    section_counts: Mapping[str, int]
    assembly_duration: float
    start: float
    general_square: float = 0.0

    def __post_init__(self):
        if self.assembly_duration <= 0:
            raise ValueError(
                f"building {self.id}: assembly_duration must be positive"
            )
        if self.start < 0:
            raise ValueError(f"building {self.id}: negative start")
        if sum(self.section_counts.values()) < 1:
            raise ValueError(
                f"building {self.id}: needs at least one section"
            )
        if any(c < 0 for c in self.section_counts.values()):
            raise ValueError(
                f"building {self.id}: negative section count"
            )


def _encode(values) -> tuple[tuple, np.ndarray]:
    """The distinct values in first-seen order, and each value's code."""
    index: dict = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return tuple(index), np.array(codes, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class BuildingTable(Mapping):
    """Buildings as read-only columns: ``ids``; ``type_codes`` into the
    distinct ``building_types``; ``composition_codes`` into the distinct
    ``compositions``, each the ``section_counts`` items of its first
    building in their order; and the float columns ``assembly_duration``,
    ``start`` and ``general_square``. It maps each id to its Building
    record, built on request, and equals any mapping of equal records.
    ``row`` maps each id to its last row (ids repeat only where
    from_columns is given repeated ids).

    Raises:
        ValueError: as Building does, for the first building it refuses.
    """

    ids: tuple[str, ...]
    building_types: tuple[str, ...]
    type_codes: np.ndarray
    compositions: tuple[tuple[tuple[str, int], ...], ...]
    composition_codes: np.ndarray
    assembly_duration: np.ndarray
    start: np.ndarray
    general_square: np.ndarray
    row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "row", dict(zip(self.ids, range(len(self.ids)))))
        for name in ("type_codes", "composition_codes"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.intp))
        for name in ("assembly_duration", "start", "general_square"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        columns = (self.type_codes, self.composition_codes, self.assembly_duration,
                   self.start, self.general_square)
        if any(len(column) != len(self.ids) for column in columns):
            raise ValueError("building columns differ in length")
        for column in columns:
            column.flags.writeable = False
        bad_counts = [sum(n for _s, n in items) < 1 or any(n < 0 for _s, n in items)
                      for items in self.compositions]
        refused = np.flatnonzero(
            (self.assembly_duration <= 0) | (self.start < 0)
            | np.array(bad_counts, dtype=bool)[self.composition_codes]
        )
        if len(refused):
            self.record(refused[0])  # the record's own check raises

    @classmethod
    def from_columns(cls, ids, building_types, section_counts, assembly_duration,
                     start, general_square) -> BuildingTable:
        """The table whose row i is building ids[i] of type
        building_types[i], with the ``section_counts`` items
        section_counts[i] (a tuple of pairs), assembly_duration[i],
        start[i] and general_square[i]."""
        types, type_codes = _encode(building_types)
        compositions, composition_codes = _encode(section_counts)
        return cls(tuple(ids), types, type_codes, compositions, composition_codes,
                   assembly_duration, start, general_square)

    @classmethod
    def of(cls, buildings: Mapping[str, Building]) -> BuildingTable:
        """buildings as a table: such a table itself, or the table of a
        mapping of ids to records."""
        if isinstance(buildings, BuildingTable):
            return buildings
        records = list(buildings.values())
        return cls.from_columns(
            list(buildings), [b.building_type for b in records],
            [tuple(b.section_counts.items()) for b in records],
            [b.assembly_duration for b in records], [b.start for b in records],
            [b.general_square for b in records],
        )

    def record(self, i: int) -> Building:
        """Row i as a Building."""
        return Building(
            self.ids[i], self.building_types[self.type_codes[i]],
            dict(self.compositions[self.composition_codes[i]]),
            self.assembly_duration.item(i), self.start.item(i), self.general_square.item(i),
        )

    def __getitem__(self, building_id: str) -> Building:
        return self.record(self.row[building_id])

    def __contains__(self, building_id) -> bool:
        return building_id in self.row

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class TeamSchedule:
    """Assembly teams and their building placements.

    ``assignments`` maps a team id to an ordered list of
    (building id, start month); the implied occupancy is
    [start, start + duration).
    """

    teams: tuple[str, ...]
    assignments: Mapping[str, tuple[tuple[str, float], ...]]

    def placements(self) -> list[tuple[str, str, float]]:
        """All (team, building id, start) triples in team order."""
        out = []
        for team in self.teams:
            for building_id, start in self.assignments.get(team, ()):
                out.append((team, building_id, start))
        return out


def team_schedule_violations(
    schedule: TeamSchedule, buildings: Mapping[str, Building]
) -> list[str]:
    """Structural checks: known ids, single placement, finite spans, no
    overlap past LANE_TOLERANCE. ``buildings``: a table or record mapping."""
    buildings = BuildingTable.of(buildings)
    durations = buildings.assembly_duration.tolist()
    violations: list[str] = []
    for team in schedule.assignments:
        if team not in schedule.teams:
            violations.append(f"schedule: unknown team '{team}'")
    placed: set[str] = set()
    for team in schedule.teams:
        spans: list[tuple[float, float, str]] = []
        for building_id, start in schedule.assignments.get(team, ()):
            if building_id not in buildings.row:
                violations.append(
                    f"team {team}: unknown building id '{building_id}'"
                )
                continue
            if building_id in placed:
                violations.append(
                    f"building {building_id}: placed more than once"
                )
            placed.add(building_id)
            if start < 0:
                violations.append(
                    f"building {building_id}: negative start {start}"
                )
            end = start + durations[buildings.row[building_id]]
            if not isfinite(end):
                violations.append(f"building {building_id}: placement end {end} is not finite")
                continue
            spans.append((start, end, building_id))
        spans.sort()
        for (s1, e1, b1), (s2, e2, b2) in zip(spans, spans[1:]):
            if s2 < e1 - LANE_TOLERANCE:
                violations.append(
                    f"team {team}: placements {b1} and {b2} overlap"
                )
    return violations


def validate_team_schedule(
    schedule: TeamSchedule, buildings: Mapping[str, Building]
) -> TeamSchedule:
    """Raise ValueError on any broken rule; otherwise return the schedule."""
    violations = team_schedule_violations(schedule, buildings)
    if violations:
        raise ValueError("; ".join(violations))
    return schedule


@dataclass(frozen=True)
class MonthlyFloorProfile:
    """Per-month fractional floor-unit output, by section and floor type."""

    month: int
    sections: Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class RequirementTable:
    """Month x detail-type requirement values (gamma)."""

    months: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]
    details: tuple[str, ...] = DETAIL_TYPES

    def row(self, month: int) -> tuple[float, ...]:
        return self.values[self.months.index(month)]

    def column(self, detail: str) -> tuple[float, ...]:
        j = self.details.index(detail)
        return tuple(row[j] for row in self.values)

    def peak(self, detail: str) -> tuple[int, float]:
        """(month, value) of the column maximum; earliest month on ties."""
        col = self.column(detail)
        best = max(col)
        return self.months[col.index(best)], best

    def to_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class Project:
    """The static home-building world: templates, buildings, horizon.

    ``buildings`` is held as a BuildingTable; a mapping of records becomes
    one on entry. ``kernel`` is built on first use and kept; it is no field,
    so equality, repr, saving and dataclasses.replace never carry it.
    """

    section_types: Mapping[str, SectionType]
    building_types: Mapping[str, BuildingType]
    buildings: Mapping[str, Building]
    horizon_months: int
    rate_basis: str = "U-1"

    def __post_init__(self):
        if self.rate_basis not in RATE_BASES:
            raise ValueError(
                f"unknown rate basis '{self.rate_basis}'; "
                f"expected one of {RATE_BASES}"
            )
        if self.horizon_months < 1:
            raise ValueError("horizon_months must be positive")
        table = BuildingTable.of(self.buildings)
        object.__setattr__(self, "buildings", table)
        # each distinct type and composition is checked once; only a bad one
        # walks the rows, for the first building that uses it
        unknown_type = [t not in self.building_types for t in table.building_types]
        unknown_section = [
            next((s for s, _count in items if s not in self.section_types), None)
            for items in table.compositions
        ]
        if any(unknown_type) or any(s is not None for s in unknown_section):
            for building_id, t, c in zip(
                table.ids, table.type_codes.tolist(), table.composition_codes.tolist()
            ):
                if unknown_type[t]:
                    raise ValueError(
                        f"building {building_id}: unknown building type "
                        f"'{table.building_types[t]}'"
                    )
                if unknown_section[c] is not None:
                    raise ValueError(
                        f"building {building_id}: unknown section type "
                        f"'{unknown_section[c]}'"
                    )

    def building_type_of(self, building: Building) -> BuildingType:
        return self.building_types[building.building_type]

    @cached_property
    def kernel(self) -> RequirementKernel:
        """The RequirementKernel of this project's building table."""
        return RequirementKernel(self)


def _clamped_output(rate, top, lo, start, edges: np.ndarray) -> np.ndarray:
    """Floor-units one section completes in each month between consecutive
    ``edges`` (a column of whole-month times); every argument broadcasts.

    The whole progress model: a section placed at ``start`` has completed
    c(t) = clamp(rate * (t - start), 0, cap) floor-units at time t, with
    rate = cap / assembly duration. Floor type f occupies the ladder range
    [lo_f, hi_f) and month m covers [m-1, m), so the month's f-output is
    clip(c(m), lo_f, hi_f) - clip(c(m-1), lo_f, hi_f). Progress never
    passes cap, so units above it (the terminal unit under "U-1") add
    exactly zero. A month's start edge is the previous month's end edge,
    so each edge is clamped once.

    The two clips are computed as max(min(rate * (t - start), top), lo)
    with top = min(cap, hi), which gives the same output bit for bit: min
    and max are exact, 0 <= lo <= hi, and where lo > cap (a top floor type
    of count 0 under "U-1") both give lo. Where rate is 0 (a one-unit
    ladder under "U-1") the clips keep the -0.0 of rate * (t - start) for
    t < start and the fused form gives 0.0; progress is 0 at every edge,
    so each month's difference is 0.0 either way.
    """
    done = np.minimum(rate * (edges - start), top)
    np.maximum(done, lo, out=done)
    return done[..., 1:, :] - done[..., :-1, :]


class RequirementKernel:
    """A project's cascade, read as ``Project.kernel``: building placements
    to floor output and requirement tables.

    Each building's progress constants (rate, ladder floors ``lo`` and
    clamped ceilings ``top``) and its combined 8 x 8 section matrix are
    stacked on a leading axis of the table's rows (``row`` maps ids to
    rows), so one call serves any buildings at any starts. Each building
    type's ladder is built once and each section composition's combined
    matrix once, by adding the section matrices weighted by count in the
    composition's order; the rows gather them by code. Every (months x 8)
    @ (8 x 8) product of the batched matmul keeps the one-building shape,
    so the slices of a stacked call equal one-row calls bit for bit.
    Inside the horizon a table is exactly 0.0 outside ``width`` months
    from its start's month: ceil of the longest duration plus one, at most
    the horizon. Tables are computed on those windows, whose edges are the
    horizon's own whole floats, so the values are the same.
    """

    def __init__(self, project: Project):
        table = project.buildings
        self.row = table.row
        self.horizon = project.horizon_months
        counts = np.array([
            [project.building_types[t].floor_counts.get(f, 0) for f in FLOOR_TYPES]
            for t in table.building_types
        ], dtype=float).reshape(-1, 1, len(FLOOR_TYPES))
        hi = np.cumsum(counts, axis=2)
        # U floor-units in all; the terminal one is never entered under "U-1"
        cap = hi[..., -1:] - (1 if project.rate_basis == "U-1" else 0)
        self.lo = (hi - counts)[table.type_codes]
        self.top = np.minimum(cap, hi)[table.type_codes]
        durations = table.assembly_duration
        self.rate = cap[table.type_codes] / durations.reshape(-1, 1, 1)
        matrices = {s: t.matrix_array() for s, t in project.section_types.items()}
        combined = np.zeros((len(table.compositions), len(FLOOR_TYPES), len(DETAIL_TYPES)))
        for matrix, items in zip(combined, table.compositions):
            for section, count in items:
                if count:
                    matrix += count * matrices[section]
        self.matrix = combined[table.composition_codes]
        self.width = min(int(np.ceil(durations.max(initial=0.0))) + 1, self.horizon)
        self._codes = (table.type_codes, table.composition_codes, durations)

    @cached_property
    def kind(self) -> np.ndarray:
        """Each row's kind code, numbered in row order on first use. Rows
        of one code share the type code, the composition code and the
        duration, so they gather bit-identical ``rate``, ``lo``, ``top``
        and ``matrix``, and their tables at one start are equal."""
        types, compositions, durations = (column.tolist() for column in self._codes)
        codes: dict[tuple, int] = {}
        return np.array([codes.setdefault(kind, len(codes))
                         for kind in zip(types, compositions, durations)], dtype=np.intp)

    def output(self, rows, starts, edges: np.ndarray) -> np.ndarray:
        """(P x months x 8) floor-units one section of building ``rows[i]``
        (a kernel row, see ``row``) placed at ``starts[i]`` completes in
        each month between consecutive ``edges``, in FLOOR_TYPES order."""
        return _clamped_output(
            self.rate[rows], self.top[rows], self.lo[rows],
            np.reshape(starts, (-1, 1, 1)), edges,
        )

    def window(self, rows, starts, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(first, tables): each placement's first window month (0-based)
        and its (P x width x len(cols)) table there, placements as in
        ``output``, for the detail columns ``cols``."""
        first = np.clip(np.floor(starts), 0, self.horizon)
        edges = first.reshape(-1, 1, 1) + np.arange(self.width + 1.0)[:, None]
        tables = self.output(rows, starts, edges) @ self.matrix[:, :, cols][rows]
        return first.astype(np.intp), tables

    def placements(self, schedule: TeamSchedule) -> tuple[np.ndarray, list[float]]:
        """(rows, starts) of the schedule's placements, in placement order."""
        placements = schedule.placements()
        rows = np.array([self.row[b] for _team, b, _start in placements], dtype=np.intp)
        return rows, [start for *_, start in placements]

    def total(self, rows, starts) -> np.ndarray:
        """(horizon x 8) sum of the placements' tables: each window added
        in placement order into +0.0, months past the horizon dropped.

        Raises:
            ValueError: if numpy refuses the table as too large.
        """
        try:
            total = np.zeros((self.horizon, len(DETAIL_TYPES)))
        except (MemoryError, ValueError):
            raise ValueError(
                f"horizon of {self.horizon} months is too large to tabulate"
            ) from None
        first, tables = self.window(rows, starts)
        months = first[:, None] + np.arange(self.width)
        np.add.at(total, months[months < self.horizon], tables[months < self.horizon])
        return total


def section_progress(
    project: Project,
    building: Building,
    month: int,
    start: float | None = None,
) -> dict[str, float]:
    """Fractional floor-units one section of ``building`` completes in a month.

    The section climbs the floor ladder linearly from ``start`` (defaults to
    the building's own planned start) over the assembly duration; the month
    window is [month-1, month). Partially covered floor-units are prorated.
    The building need not be in the project: the kernel is the project's
    with ``building`` alone, so a type it lacks raises ValueError.
    """
    if start is None:
        start = building.start
    edges = np.array([[month - 1.0], [month]])
    alone = replace(project, buildings={building.id: building})
    units = alone.kernel.output([0], [start], edges)[0, 0]
    return {floor: float(u) for floor, u in zip(FLOOR_TYPES, units)}


def monthly_floor_requirements(
    project: Project, schedule: TeamSchedule, month: int
) -> MonthlyFloorProfile:
    """Floor-units demanded in a month, by section type and floor type.

    Every section of a building progresses in parallel, so a building
    contributes its per-section progress multiplied by its section counts.
    """
    table, kernel = project.buildings, project.kernel
    rows, starts = kernel.placements(schedule)
    output = kernel.output(rows, starts, np.array([[month - 1.0], [month]]))
    totals = {s: np.zeros(len(FLOOR_TYPES)) for s in project.section_types}
    for code, units in zip(table.composition_codes[rows], output[:, 0]):
        for section, count in table.compositions[code]:
            if count:
                totals[section] += count * units
    sections = {
        s: {floor: float(u) for floor, u in zip(FLOOR_TYPES, row)}
        for s, row in totals.items()
    }
    return MonthlyFloorProfile(month=month, sections=sections)


def building_requirement_table(
    project: Project, building: Building, start: float | None = None
) -> np.ndarray:
    """The (horizon x 8) detail requirements of one building in isolation.

    Schedules are linear in their buildings, so a full table is the sum of
    these per-building tables -- the basis for cheap what-if scoring. The
    building is read as in section_progress.
    """
    if start is None:
        start = building.start
    return replace(project, buildings={building.id: building}).kernel.total([0], [start])


def horizon_requirement_table(
    project: Project,
    schedule: TeamSchedule,
    months: Sequence[int] | None = None,
) -> RequirementTable:
    """Requirement rows for every month of the horizon (or of ``months``).

    The rows are the sum of the placements' tables in placement order,
    from one windowed kernel call on the project's building table. A
    table is exactly 0.0 outside its window, so this is the whole-horizon
    sum bit for bit.

    Raises:
        ValueError: naming every month outside 1..horizon, or if the
            horizon is too large to tabulate.
    """
    horizon = project.horizon_months
    if months is not None:
        months = tuple(months)
        outside = [str(m) for m in months if not 1 <= m <= horizon]
        if outside:
            raise ValueError(f"months outside 1..{horizon}: {', '.join(outside)}")
    kernel = project.kernel
    total = kernel.total(*kernel.placements(schedule))
    if months is None:
        months = tuple(range(1, horizon + 1))
    values = tuple(map(tuple, total[[month - 1 for month in months]].tolist()))
    return RequirementTable(months=months, values=values)


def monthly_detail_requirements(
    project: Project, schedule: TeamSchedule, month: int
) -> tuple[float, ...]:
    """Detail requirement vector gamma for one month of the schedule: its
    row of horizon_requirement_table."""
    return horizon_requirement_table(project, schedule, [month]).values[0]


def detail_shares(gamma: Sequence[float]) -> tuple[float, ...]:
    """Percentage split of a requirement vector: 100 * gamma_k / sum(gamma).

    Raises:
        ValueError: on an all-zero vector ("empty month").
    """
    total = sum(gamma)
    if total <= 0:
        raise ValueError("empty month: requirement vector sums to zero")
    return tuple(100.0 * g / total for g in gamma)
