"""Composite modular jobs on identical processors under a slot clock.

A composite job is an ordered chain of typed elements; executing it occupies
one slot per chain element, contiguously, on a single processor. The horizon
is cut into equal-length intervals, and per interval the schedule induces a
bag (multiset) of the element types consumed there, padded with an explicit
idle type so that every bag has the same cardinality. Downstream balance
checks compare those bags against a reference output profile.

All types are immutable values after validation and every operation is pure,
so instances and schedules can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Iterable, Mapping, Sequence

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

    ``index`` is 1-based. ``elements`` is stored sorted by universe order so
    equal bags compare equal regardless of construction order. ``counts``
    is the count row in universe order (balance.count_vector) of a bag
    that interval_bags tallied; it takes no part in equality.
    """

    index: int
    elements: tuple[str, ...]
    counts: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def cardinality(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Instance:
    """A validated problem instance: alphabet, jobs, processors, grid."""

    universe: ElementUniverse
    jobs: Mapping[str, CompositeJob]
    processors: tuple[str, ...]
    grid: TimeGrid


def collect_violations(
    universe: ElementUniverse,
    jobs: Iterable[CompositeJob],
    processors: Sequence[str],
    grid: TimeGrid,
) -> list[str]:
    """Structural checks on raw inputs; returns all violations found.

    Each entry names the offending entity and the rule, e.g.
    ``"job a3: empty chain"``.
    """
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
    """Validate raw inputs and return an immutable Instance.

    Raises:
        ValidationError: listing every broken rule, one entry per violation.
    """
    jobs = list(jobs)
    violations = collect_violations(universe, jobs, processors, grid)
    if violations:
        raise ValidationError(violations)
    return Instance(
        universe=universe,
        jobs={job.id: job for job in jobs},
        processors=tuple(processors),
        grid=grid,
    )


def schedule_violations(instance: Instance, schedule: SlotSchedule) -> list[str]:
    """Check a schedule against its instance; returns all violations."""
    violations: list[str] = []
    placed: set[str] = set()
    jobs = instance.jobs
    for proc in schedule.placements:
        if proc not in schedule.processors:
            violations.append(f"schedule: unknown processor '{proc}'")
    for proc in schedule.processors:  # a subset of the instance's is fine
        if proc not in instance.processors:
            violations.append(f"schedule: unknown processor '{proc}'")
    for proc in schedule.processors:
        occupied: list[tuple[int, int, str]] = []
        for job_id, start in schedule.placements.get(proc, ()):
            if job_id not in jobs:
                violations.append(
                    f"processor {proc}: unknown job id '{job_id}'"
                )
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
                violations.append(
                    f"processor {proc}: jobs {j1} and {j2} overlap"
                )
    return violations


def validate_schedule(instance: Instance, schedule: SlotSchedule) -> SlotSchedule:
    """Raise ValidationError if the schedule breaks any rule; else return it."""
    violations = schedule_violations(instance, schedule)
    if violations:
        raise ValidationError(violations)
    return schedule


def makespan(instance: Instance, schedule: SlotSchedule, grid: TimeGrid | None = None) -> int:
    """Last occupied interval index over all processors; 0 if empty.

    An interval is occupied if any chain element of a placed job falls in it.
    """
    grid = grid or instance.grid
    jobs = instance.jobs
    last_slot = -1
    for proc in schedule.processors:
        for job_id, start in schedule.placements.get(proc, ()):
            end = start + len(jobs[job_id].chain) - 1
            last_slot = max(last_slot, end)
    if last_slot < 0:
        return 0
    return last_slot // grid.interval_len_slots + 1


def interval_bags(
    instance: Instance,
    schedule: SlotSchedule,
    grid: TimeGrid | None = None,
) -> list[IntervalBag]:
    """Collect the per-interval element bags, idle-padded to capacity.

    Every occupied slot lands in exactly one bag; each bag's cardinality is
    interval_len_slots x number of processors, or more where overlapping
    placements overfill an interval. The bags are tallied from the chains'
    integer codes in one bincount.

    Raises:
        ValueError: if the grid covers fewer slots than the schedule horizon,
            if a placement runs outside the grid, or on an element type not
            in the universe.
    """
    grid = grid or instance.grid
    if grid.horizon_slots < schedule.horizon_slots:
        raise ValueError(
            f"grid shorter than horizon: {grid.horizon_slots} < "
            f"{schedule.horizon_slots}"
        )
    universe = instance.universe
    starts, chains = [], []
    for proc in schedule.processors:
        for job_id, start in schedule.placements.get(proc, ()):
            starts.append(start)
            chains.append(instance.jobs[job_id].chain)
    lengths = np.array([len(c) for c in chains], dtype=np.intp)
    starts = np.fromiter(map(index, starts), np.intp, len(starts))  # ints only
    # each element's slot: its chain's start plus its offset in the chain
    slots = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    slots += np.arange(len(slots))
    if len(slots) and (slots.min() < 0 or slots.max() >= grid.horizon_slots):
        raise ValueError(
            f"placement outside the grid's {grid.horizon_slots} slots"
        )
    size = universe.size
    keys = slots  # turned into interval * size + code in place, to save memory
    keys //= grid.interval_len_slots
    keys *= size
    try:
        keys += np.fromiter(
            map(universe.codes.__getitem__, chain.from_iterable(chains)), np.intp, len(keys)
        )
    except (KeyError, TypeError):
        # position() raises on the first unknown element in bag order
        elements = list(chain.from_iterable(chains))
        for i in np.argsort(keys, kind="stable"):
            universe.position(elements[i])
        raise
    counts = np.bincount(keys, minlength=grid.k * size).reshape(grid.k, size)
    capacity = grid.interval_len_slots * len(schedule.processors)
    counts[:, universe.codes[universe.idle]] += np.maximum(capacity - counts.sum(1), 0)
    bags = []
    for i, row in enumerate(counts.tolist()):
        bag: list[str] = []
        for t, n in zip(universe.types, row):
            bag += [t] * n
        bags.append(IntervalBag(index=i + 1, elements=tuple(bag), counts=tuple(row)))
    return bags
