"""Composite modular jobs on identical processors under a slot clock.

A composite job is an ordered chain of typed elements; executing it occupies
one slot per chain element, contiguously, on a single processor. The horizon
is cut into equal-length intervals, and per interval the schedule induces a
bag (multiset) of the element types consumed there, padded with an explicit
idle type so that every bag has the same cardinality. Downstream balance
checks compare those bags against a reference output profile.

An instance always holds its jobs as a JobTable: ids, CSR chain offsets
and one flat array of universe type codes; hand-built record mappings are
converted on entry. A loaded schedule holds each lane as a SlotLane of ids
and starts. Schedule checks, makespans and bags map the placements to job
rows once per schedule and read only columns; CompositeJob records are
built only when something asks for one. All types are immutable values after validation
(the table's arrays are read-only) and every operation is pure, so
instances and schedules can be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import index

import numpy as np


class ValidationError(ValueError):
    """An instance or schedule breaks a structural rule.

    Carries the full list of violations; the message joins them. Each
    violation names the offending entity and the rule it breaks.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ElementUniverse:
    """Ordered element-type alphabet including one designated idle type.

    The order is load-bearing: balance proximity reads count vectors in
    universe order, so permuting two types changes distances in general.
    ``codes`` maps each type to its position, built once; a duplicated
    type keeps its first position. It must not be mutated.
    """

    types: tuple[str, ...]
    idle_index: int
    codes: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes: dict[str, int] = {}
        for code, t in enumerate(self.types):
            codes.setdefault(t, code)
        object.__setattr__(self, "codes", codes)

    @property
    def idle(self) -> str:
        return self.types[self.idle_index]

    @property
    def size(self) -> int:
        return len(self.types)

    def position(self, element: str) -> int:
        try:
            return self.codes[element]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            raise ValueError(f"unknown element type '{element}'") from None

    def __contains__(self, element: str) -> bool:
        try:
            return element in self.codes
        except TypeError:
            return False


@dataclass(frozen=True)
class CompositeJob:
    """A job given as an ordered chain of element types, one slot each."""

    id: str
    chain: tuple[str, ...]

    @property
    def length(self) -> int:
        """Duration in slots."""
        return len(self.chain)


def _ints(values) -> np.ndarray:
    """An int64 column of ints below 2**62 in size, so that a sum of two
    stays in int64; an object column keeps other values as they are. An
    int64 array is taken as given, its bounds tested by numpy."""
    if type(values) is np.ndarray and values.dtype == np.int64:
        small = -2**62 < values.min(initial=0) and values.max(initial=0) < 2**62
        return values if small else values.astype(object)
    values = list(values)
    ints = set(map(type, values)) <= {int}
    if ints and -2**62 < min(values, default=0) and max(values, default=0) < 2**62:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


class _Columns(Sequence):
    """A sequence of records, each built on request from columns. It
    equals a sequence of its own class, or a tuple, of equal records."""

    def __eq__(self, other):
        if isinstance(other, (type(self), tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True, eq=False)
class JobTable(_Columns):
    """Composite jobs over one universe as columns: ``ids``, CSR ``offsets``
    (row i's chain is ``codes[offsets[i]:offsets[i + 1]]``) and the flat
    universe ``codes`` of every chain element, in read-only arrays. It is a
    sequence of CompositeJob records, each built on request, and equals a
    table or tuple of equal records. ``row`` maps each id to its last row,
    and ``lengths`` holds the chain lengths.
    """

    universe: ElementUniverse
    ids: tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray
    row: dict[str, int] = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "row", dict(zip(self.ids, range(len(self.ids)))))
        object.__setattr__(self, "lengths", np.diff(self.offsets))
        for column in (self.offsets, self.codes, self.lengths):
            column.flags.writeable = False

    @classmethod
    def from_chains(cls, universe: ElementUniverse, ids: Sequence[str], chains) -> JobTable:
        """The table of jobs ids[i] with chains[i], by one ``universe.codes``
        lookup per element.

        Raises:
            KeyError, TypeError: on an unknown or unhashable element.
        """
        offsets = np.zeros(len(chains) + 1, np.intp)
        np.cumsum(np.fromiter(map(len, chains), np.intp, len(chains)), out=offsets[1:])
        elements = chain.from_iterable(chains)
        codes = np.fromiter(map(universe.codes.__getitem__, elements), np.intp, offsets[-1])
        return cls(universe, tuple(ids), offsets, codes)

    @classmethod
    def of(cls, universe: ElementUniverse, jobs: Iterable[CompositeJob]) -> JobTable:
        """jobs as a table of universe: such a table itself, or the records
        turned into columns (raising as from_chains)."""
        if isinstance(jobs, JobTable) and jobs.universe == universe:
            return jobs
        jobs = list(jobs)
        return cls.from_chains(universe, [job.id for job in jobs], [job.chain for job in jobs])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> CompositeJob:
        i = range(len(self.ids))[i]
        codes = self.codes[self.offsets[i]:self.offsets[i + 1]].tolist()
        return CompositeJob(self.ids[i], tuple(map(self.universe.types.__getitem__, codes)))


class JobIndex(Mapping):
    """A job table's jobs by id, each CompositeJob built on request."""

    def __init__(self, table: JobTable):
        self.table = table

    def __getitem__(self, job_id: str) -> CompositeJob:
        return self.table[self.table.row[job_id]]

    def __iter__(self):
        return iter(self.table.ids)

    def __len__(self) -> int:
        return len(self.table.ids)


@dataclass(frozen=True, eq=False)
class SlotLane(_Columns):
    """One processor's placements as columns: job ``ids`` and ``starts``,
    read-only, int64 where every start is an int below 2**62 in size. It is a
    sequence of (job id, start) pairs, each built on request, and equals
    a lane or tuple of equal pairs.
    """

    ids: tuple[str, ...]
    starts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "starts", _ints(self.starts))
        self.starts.flags.writeable = False
        if len(self.ids) != len(self.starts):
            raise ValueError("slot lane columns differ in length")

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, int]]) -> SlotLane:
        """pairs as a lane: a lane itself, or (id, start) pairs as columns."""
        return pairs if isinstance(pairs, SlotLane) else cls(*(tuple(zip(*pairs)) or ((), ())))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> tuple[str, int]:
        i = range(len(self.ids))[i]
        return self.ids[i], self.starts.item(i)

    def __iter__(self):
        return zip(self.ids, self.starts.tolist())


@dataclass(frozen=True)
class SlotSchedule:
    """Per-processor placements of jobs at integer start slots.

    ``placements`` maps a processor id to a SlotLane, or an ordered tuple
    of (job id, start slot) pairs. Jobs run contiguously; gaps are idle.
    The checks read the placements as columns, mapped against a job table
    once and kept; the mapping must not be mutated.
    """

    processors: tuple[str, ...]
    placements: Mapping[str, SlotLane | tuple[tuple[str, int], ...]]
    horizon_slots: int
    _columns: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class TimeGrid:
    """Equal-length interval grid: ``k`` intervals of ``interval_len_slots``."""

    interval_len_slots: int
    k: int

    @property
    def horizon_slots(self) -> int:
        return self.interval_len_slots * self.k


@dataclass(frozen=True)
class IntervalBag:
    """Multiset of element types consumed in one interval (idle-padded).

    ``index`` is 1-based. The bag is its count row ``counts``: each type's
    multiplicity, in the order of the universe's ``types``
    (balance.count_vector). ``elements``, the multiset listed in that
    order, is built on request.
    """

    index: int
    counts: tuple[int, ...]
    types: tuple[str, ...]

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(map(repeat, self.types, self.counts)))

    @property
    def cardinality(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class Instance:
    """A validated problem instance: alphabet, jobs, processors, grid.

    ``jobs`` is always a JobIndex over a job table of ``universe``. A
    hand-built mapping of records becomes one on entry, its keys the ids.

    Raises:
        ValueError: on a record element not in the universe, naming the
            first such element in job order.
    """

    universe: ElementUniverse
    jobs: Mapping[str, CompositeJob]
    processors: tuple[str, ...]
    grid: TimeGrid

    def __post_init__(self):
        jobs = self.jobs
        if isinstance(jobs, JobIndex) and jobs.table.universe == self.universe:
            return
        chains = [job.chain for job in jobs.values()]
        try:
            table = JobTable.from_chains(self.universe, list(jobs), chains)
        except (KeyError, TypeError):
            for element in chain.from_iterable(chains):
                self.universe.position(element)  # raises on the first unknown
            raise
        object.__setattr__(self, "jobs", JobIndex(table))


def collect_violations(
    universe: ElementUniverse,
    jobs: Iterable[CompositeJob],
    processors: Sequence[str],
    grid: TimeGrid,
) -> list[str]:
    """Structural checks on raw inputs; returns all violations found.

    Each entry names the offending entity and the rule, e.g.
    ``"job a3: empty chain"``. A job table of this universe is checked on
    its columns; only one that breaks a job rule, and jobs given as
    records, are walked job by job, so the entries keep their order.
    """
    if isinstance(jobs, JobTable) and jobs.universe == universe and (
        len(jobs.row) == len(jobs) and jobs.lengths.all()
        and not (jobs.codes == universe.idle_index).any()
    ):
        jobs = ()  # the walk below would find nothing
    violations: list[str] = []

    seen_types = set()
    for t in universe.types:
        if t in seen_types:
            violations.append(f"universe: duplicate element type '{t}'")
        seen_types.add(t)
    if not (0 <= universe.idle_index < len(universe.types)):
        violations.append(
            f"universe: idle_index {universe.idle_index} out of range"
        )
    if len(universe.types) < 2:
        violations.append("universe: needs at least one non-idle type")

    seen_jobs: set[str] = set()
    for job in jobs:
        if job.id in seen_jobs:
            violations.append(f"job {job.id}: duplicate id")
        seen_jobs.add(job.id)
        if len(job.chain) == 0:
            violations.append(f"job {job.id}: empty chain")
        for element in job.chain:
            if element not in universe:
                violations.append(
                    f"job {job.id}: unknown element type '{element}'"
                )
            elif universe.position(element) == universe.idle_index:
                violations.append(f"job {job.id}: idle element in chain")
                break

    seen_procs: set[str] = set()
    for proc in processors:
        if proc in seen_procs:
            violations.append(f"processors: duplicate id '{proc}'")
        seen_procs.add(proc)

    if grid.interval_len_slots < 1:
        violations.append("grid: interval_len_slots must be positive")
    if grid.k < 1:
        violations.append("grid: k must be positive")

    return violations


def validate_instance(
    universe: ElementUniverse,
    jobs: Iterable[CompositeJob],
    processors: Sequence[str],
    grid: TimeGrid,
) -> Instance:
    """Validate raw inputs and return an immutable Instance whose jobs are
    a JobIndex over ``jobs``, if that is a job table of this universe, or
    over a table built from the records.

    Raises:
        ValidationError: listing every broken rule, one entry per violation.
    """
    jobs = jobs if isinstance(jobs, JobTable) else list(jobs)
    try:
        jobs = JobTable.of(universe, jobs)
    except (KeyError, TypeError):
        pass  # an unknown element, which collect_violations reports
    violations = collect_violations(universe, jobs, processors, grid)
    if violations:
        raise ValidationError(violations)
    return Instance(universe, JobIndex(jobs), tuple(processors), grid)


def lane_overlaps(spans: Iterable[tuple], tolerance) -> list[tuple]:
    """The (earlier id, later id) pairs of neighbours, in sorted order, on
    a lane of (start, end, id) spans where the later span starts more than
    ``tolerance`` before the earlier one ends."""
    spans = sorted(spans)
    return [(a, b) for (_s, end, a), (start, _e, b) in zip(spans, spans[1:])
            if start < end - tolerance]


def _placed(table: JobTable, schedule: SlotSchedule, known: bool = False) -> tuple:
    """(ids, rows, starts, offsets) of the placements on the schedule's
    processors, in order: each job's row in table (-1 for an id not in it,
    or KeyError on the first such id if known), the starts as one column,
    and the lanes' CSR offsets; mapped once per schedule and table."""
    if schedule._columns is None or schedule._columns[0] is not table:
        lanes = [SlotLane.of(schedule.placements.get(proc, ())) for proc in schedule.processors]
        ids = tuple(chain.from_iterable(lane.ids for lane in lanes))
        rows = np.fromiter(map(table.row.get, ids, repeat(-1)), np.intp, len(ids))
        starts = np.concatenate([lane.starts for lane in lanes] or [_ints(())])
        offsets = np.cumsum([0, *map(len, lanes)]).tolist()
        object.__setattr__(schedule, "_columns", (table, (ids, rows, starts, offsets)))
    ids, rows, starts, offsets = placed = schedule._columns[1]
    if known and rows.min(initial=0) < 0:
        raise KeyError(ids[rows.argmin()])
    return placed


def _clean(table: JobTable, schedule: SlotSchedule) -> bool:
    """Whether the placements break no rule, decided on their columns:
    ids known and placed once, int starts from 0 to the horizon less the
    job's length, and each job on a lane starting where the one listed
    before it ends or later (so a lane out of start order is walked)."""
    _ids, rows, starts, offsets = _placed(table, schedule)
    if starts.dtype == object or rows.min(initial=0) < 0 or starts.min(initial=0) < 0:
        return False
    ends = starts + table.lengths[rows]
    lanes = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return (np.bincount(rows).max(initial=0) < 2
            and int(ends.max(initial=0)) <= schedule.horizon_slots
            and not ((starts[1:] < ends[:-1]) & (lanes[1:] == lanes[:-1])).any())


def schedule_violations(instance: Instance, schedule: SlotSchedule) -> list[str]:
    """Check a schedule against its instance; returns all violations.

    The placements' columns decide a valid schedule; only an invalid one
    is walked, processor by processor, to name its violations in order.
    A start that is not an integer is one violation, and its placement is
    checked no further.
    """
    violations = [f"schedule: unknown processor '{proc}'" for proc in schedule.placements
                  if proc not in schedule.processors]
    violations += [f"schedule: unknown processor '{proc}'" for proc in schedule.processors
                   if proc not in instance.processors]  # a subset of the instance's is fine
    table = instance.jobs.table
    if not violations and _clean(table, schedule):
        return violations
    ids, rows, starts, offsets = _placed(table, schedule)
    rows, starts, lengths = rows.tolist(), starts.tolist(), table.lengths.tolist()
    horizon = schedule.horizon_slots
    placed: set[str] = set()
    for proc, first, last in zip(schedule.processors, offsets, offsets[1:]):
        occupied: list[tuple[int, int, str]] = []
        for job_id, r, start in zip(ids[first:last], rows[first:last], starts[first:last]):
            if r < 0:
                violations.append(f"processor {proc}: unknown job id '{job_id}'")
                continue
            try:
                index(start)
            except TypeError:
                violations.append(f"job {job_id}: start slot {start!r} is not an integer")
                continue
            if job_id in placed:
                violations.append(f"job {job_id}: placed more than once")
            placed.add(job_id)
            if start < 0:
                violations.append(f"job {job_id}: negative start slot {start}")
            end = start + lengths[r]
            if end > horizon:
                violations.append(f"processor {proc}: job {job_id} ends at slot {end} "
                                  f"beyond horizon {horizon}")
            occupied.append((start, end, job_id))
        violations += [f"processor {proc}: jobs {j1} and {j2} overlap"
                       for j1, j2 in lane_overlaps(occupied, 0)]
    return violations


def validate_schedule(instance: Instance, schedule: SlotSchedule) -> SlotSchedule:
    """Raise ValidationError if the schedule breaks any rule; else return it."""
    violations = schedule_violations(instance, schedule)
    if violations:
        raise ValidationError(violations)
    return schedule


def makespan(instance: Instance, schedule: SlotSchedule) -> int:
    """Last occupied interval index over all processors; 0 if empty.

    An interval is occupied if any chain element of a placed job falls in it.
    The last slot is read off the placement columns, in Python numbers
    where the start column is not int64, so it stays exact.

    Raises:
        KeyError: on a job id not in the instance.
    """
    table = instance.jobs.table
    _ids, rows, starts, _offsets = _placed(table, schedule, known=True)
    last_slot = max(chain((-1,), (starts + table.lengths[rows] - 1).tolist()))
    if last_slot < 0:
        return 0
    return last_slot // instance.grid.interval_len_slots + 1


def _ramps(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """For each i in turn, the lengths[i] values firsts[i], firsts[i] + 1, ..."""
    out = np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(len(out))
    return out


def interval_bags(instance: Instance, schedule: SlotSchedule) -> list[IntervalBag]:
    """Collect the per-interval element bags, idle-padded to capacity.

    Every occupied slot lands in exactly one bag; each bag's cardinality is
    interval_len_slots x number of processors, or more where overlapping
    placements overfill an interval. The bags are tallied from the job
    table's integer codes in one bincount.

    Raises:
        ValueError: if the grid covers fewer slots than the schedule horizon,
            if a placement runs outside the grid, or if the grid has too many
            intervals to tally.
        KeyError: on a job id not in the instance.
    """
    grid = instance.grid
    if grid.horizon_slots < schedule.horizon_slots:
        raise ValueError(
            f"grid shorter than horizon: {grid.horizon_slots} < "
            f"{schedule.horizon_slots}"
        )
    universe, table = instance.universe, instance.jobs.table
    # rows first, so an unknown id raises before a start that is no integer
    _ids, rows, starts, _offsets = _placed(table, schedule, known=True)
    outside = f"placement outside the grid's {grid.horizon_slots} slots"
    if starts.dtype == object:
        try:
            starts = np.fromiter(map(index, starts.tolist()), np.int64, len(starts))
        except OverflowError:  # a start past int64 is past the grid
            raise ValueError(outside) from None
    lengths = table.lengths[rows]
    slots = _ramps(starts, lengths)  # each element's slot
    if len(slots) and (slots.min() < 0 or slots.max() >= grid.horizon_slots):
        raise ValueError(outside)
    size = universe.size
    keys = slots  # turned into interval * size + code in place, to save memory
    keys //= grid.interval_len_slots
    keys *= size
    keys += table.codes[_ramps(table.offsets[rows], lengths)]
    try:
        counts = np.bincount(keys, minlength=grid.k * size).reshape(grid.k, size)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"grid of {grid.k} intervals is too large to tally") from None
    capacity = grid.interval_len_slots * len(schedule.processors)
    counts[:, universe.codes[universe.idle]] += np.maximum(capacity - counts.sum(1), 0)
    return [IntervalBag(i + 1, tuple(row), universe.types) for i, row in enumerate(counts.tolist())]
