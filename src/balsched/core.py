"""Composite modular jobs on identical processors under a slot clock.

A composite job is an ordered chain of typed elements; executing it occupies
one slot per chain element, contiguously, on a single processor. The horizon
is cut into equal-length intervals, and per interval the schedule induces a
bag (multiset) of the element types consumed there, padded with an explicit
idle type so that every bag has the same cardinality. Downstream balance
checks compare those bags against a reference output profile.

An instance always holds its jobs as a JobTable: ids, CSR chain offsets
and one flat array of universe type codes; hand-built record mappings are
converted on entry. Schedule checks, makespans and bags read only the
table's rows, codes and lengths; CompositeJob records are built only when
something asks for one. All types are immutable values after validation
(the table's arrays are read-only) and every operation is pure, so
instances and schedules can be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import index, itemgetter

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


@dataclass(frozen=True, eq=False)
class JobTable(Sequence):
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

    def __eq__(self, other):
        if isinstance(other, (JobTable, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


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


@dataclass(frozen=True)
class SlotSchedule:
    """Per-processor placements of jobs at integer start slots.

    ``placements`` maps a processor id to an ordered list of
    (job id, start slot) pairs. Jobs run contiguously; gaps are idle.
    """

    processors: tuple[str, ...]
    placements: Mapping[str, tuple[tuple[str, int], ...]]
    horizon_slots: int


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

    # a chain of these alone breaks no element rule
    non_idle = {t for t, code in universe.codes.items() if code != universe.idle_index}
    seen_jobs: set[str] = set()
    for job in jobs:
        if job.id in seen_jobs:
            violations.append(f"job {job.id}: duplicate id")
        seen_jobs.add(job.id)
        if len(job.chain) == 0:
            violations.append(f"job {job.id}: empty chain")
        try:
            if non_idle.issuperset(job.chain):
                continue
        except TypeError:  # an unhashable element, reported by the loop
            pass
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
    return Instance(
        universe=universe,
        jobs=JobIndex(jobs),
        processors=tuple(processors),
        grid=grid,
    )


def lane_overlaps(spans: Iterable[tuple], tolerance) -> list[tuple]:
    """The (earlier id, later id) pairs of neighbours, in sorted order, on
    a lane of (start, end, id) spans where the later span starts more than
    ``tolerance`` before the earlier one ends."""
    spans = sorted(spans)
    return [(a, b) for (_s, end, a), (start, _e, b) in zip(spans, spans[1:])
            if start < end - tolerance]


def schedule_violations(instance: Instance, schedule: SlotSchedule) -> list[str]:
    """Check a schedule against its instance; returns all violations.

    One walk over the placements, processor by processor, reading each
    job's chain length from the instance's job table. A start that is not
    an integer is one violation, and its placement is checked no further.
    """
    violations: list[str] = []
    for proc in schedule.placements:
        if proc not in schedule.processors:
            violations.append(f"schedule: unknown processor '{proc}'")
    for proc in schedule.processors:  # a subset of the instance's is fine
        if proc not in instance.processors:
            violations.append(f"schedule: unknown processor '{proc}'")
    table = instance.jobs.table
    row, lengths = table.row, table.lengths.tolist()
    horizon = schedule.horizon_slots
    placed: set[str] = set()
    for proc in schedule.processors:
        occupied: list[tuple[int, int, str]] = []
        for job_id, start in schedule.placements.get(proc, ()):
            r = row.get(job_id)
            if r is None:
                violations.append(
                    f"processor {proc}: unknown job id '{job_id}'"
                )
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
                violations.append(
                    f"processor {proc}: job {job_id} ends at slot {end} "
                    f"beyond horizon {horizon}"
                )
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
    One walk in Python numbers, so starts past int64 stay exact.
    """
    table = instance.jobs.table
    row, lengths = table.row, table.lengths.tolist()
    last_slot = -1
    for proc in schedule.processors:
        for job_id, start in schedule.placements.get(proc, ()):
            end = start + lengths[row[job_id]] - 1
            if end > last_slot:
                last_slot = end
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
    lanes = (schedule.placements.get(proc, ()) for proc in schedule.processors)
    pairs = list(chain.from_iterable(lanes))
    n = len(pairs)
    # rows first, so an unknown id raises before a start that is no integer
    rows = np.fromiter(map(table.row.__getitem__, map(itemgetter(0), pairs)), np.intp, n)
    outside = f"placement outside the grid's {grid.horizon_slots} slots"
    try:
        starts = np.fromiter(map(index, map(itemgetter(1), pairs)), np.int64, n)
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
