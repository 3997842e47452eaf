"""Just-in-time metrics and window feasibility for fixed job sequences.

Each job carries a delivery window [t1, t2]; completing before t1 is early,
after t2 is tardy, and both attract weighted penalties. Sequences are given
(positions per machine are fixed); the dispatcher starts each job as early
as its window and the previous job allow. The evaluator only measures -- it
never optimizes the sequence.

The jobs are read as a WindowTable of columns (id, machine, position, p,
t1, t2); records passed in are turned into one on entry.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import _Columns, _ints

#: Completions beyond t2 by more than this count as infeasible.
FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WindowJob:
    """A job with processing time and delivery window on one machine.

    ``position`` is the 1-based rank in its machine's fixed sequence.
    """

    id: str
    processing_time: float
    t1: float
    t2: float
    machine: int = 1
    position: int = 1

    def __post_init__(self):
        if self.processing_time < 0:
            raise ValueError(
                f"job {self.id}: negative processing time "
                f"{self.processing_time}"
            )
        if not self.t1 < self.t2:
            raise ValueError(
                f"job {self.id}: window [{self.t1}, {self.t2}] is empty"
            )


@dataclass(frozen=True, eq=False)
class WindowTable(_Columns):
    """Window jobs as read-only columns: ``id``, ``p`` (processing times),
    ``t1``, ``t2``, ``machine`` and ``position``. It is a sequence of
    WindowJob records, each built on request, and equals a table or tuple
    of equal records. Its machine sequences are sorted and checked once.

    Raises:
        ValueError: as WindowJob does, for the first job it refuses.
    """

    id: tuple[str, ...]
    p: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    machine: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        for name in ("p", "t1", "t2", "machine", "position"):
            value = getattr(self, name)
            column = _ints(value) if name in ("machine", "position") else np.array(value, float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not all(len(getattr(self, f.name)) == len(self.id) for f in fields(self)):
            raise ValueError("window job columns differ in length")
        refused = np.flatnonzero((self.p < 0) | ~(self.t1 < self.t2))
        if len(refused):
            self[refused[0]]  # the record's own check raises

    @classmethod
    def of(cls, jobs: Iterable[WindowJob]) -> WindowTable:
        """jobs as a table: a table itself, or records turned into columns."""
        if isinstance(jobs, WindowTable):
            return jobs
        jobs = list(jobs)
        return cls(
            tuple(job.id for job in jobs), [job.processing_time for job in jobs],
            [job.t1 for job in jobs], [job.t2 for job in jobs],
            [job.machine for job in jobs], [job.position for job in jobs],
        )

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, i: int) -> WindowJob:
        i = range(len(self.id))[i]
        return WindowJob(
            self.id[i], self.p.item(i), self.t1.item(i), self.t2.item(i),
            self.machine.item(i), self.position.item(i),
        )

    @cached_property
    def by_machine(self) -> list[tuple[int, np.ndarray, bool]]:
        """Each machine, in increasing order, with its rows sorted by
        position (stably) and whether those positions form 1..n."""
        order = np.lexsort((self.position, self.machine))
        order.flags.writeable = False  # and so each machine's rows
        machines = self.machine[order]
        cuts = np.flatnonzero(machines[1:] != machines[:-1]) + 1
        return [(machine, rows, np.array_equal(self.position[rows], np.arange(1, len(rows) + 1)))
                for machine, rows in zip(machines[np.r_[0, cuts]].tolist() if len(order) else [],
                                         np.split(order, cuts))]

    def sequences(self) -> Iterator[tuple[int, np.ndarray]]:
        """Each machine, in increasing order, with its rows sorted by
        position (stably).

        Raises:
            ValueError: on reaching a machine whose positions do not form
                1..n, n its number of jobs.
        """
        for machine, rows, gapless in self.by_machine:
            if not gapless:
                raise ValueError(
                    f"machine {machine}: positions must form 1..{len(rows)} without gaps"
                )
            yield machine, rows


@dataclass(frozen=True)
class PenaltyWeights:
    """Earliness weight alpha and tardiness weight beta, both >= 0."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("penalty weights must be non-negative")


def earliness(job: WindowJob, completion: float) -> float:
    """u = max(0, t1 - C): how far the completion undershoots the window."""
    return max(0.0, job.t1 - completion)


def tardiness(job: WindowJob, completion: float) -> float:
    """v = max(0, C - t2): how far the completion overshoots the window."""
    return max(0.0, completion - job.t2)


def _penalties(
    jobs: Iterable[WindowJob], completions: Mapping[str, float], weights: PenaltyWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Each job's weighted earliness alpha*u and tardiness beta*v, in job
    order. Like max(0.0, x), the clamp keeps x only where x > 0.0, so a
    NaN or -0.0 gives +0.0."""
    table = WindowTable.of(jobs)
    try:
        c = np.fromiter(map(completions.__getitem__, table.id), float, len(table))
    except KeyError as exc:
        raise ValueError(f"missing completion for job {exc.args[0]}") from None
    u, v = table.t1 - c, c - table.t2
    return weights.alpha * np.where(u > 0.0, u, 0.0), weights.beta * np.where(v > 0.0, v, 0.0)


def penalty_sum(
    jobs: Iterable[WindowJob],
    completions: Mapping[str, float],
    weights: PenaltyWeights,
) -> float:
    """Total weighted earliness/tardiness: sum of alpha*u + beta*v, added
    one job at a time in job order from 0.0.

    Zero exactly when every job completes inside its window.

    Raises:
        ValueError: if any job lacks a completion time.
    """
    early, late = _penalties(jobs, completions, weights)
    return float(np.add.accumulate(np.append(0.0, early + late))[-1])


def penalty_max(
    jobs: Iterable[WindowJob],
    completions: Mapping[str, float],
    weights: PenaltyWeights,
) -> float:
    """Worst single weighted penalty: max over jobs of max(alpha*u, beta*v).

    Raises:
        ValueError: if any job lacks a completion time.
    """
    penalties = np.concatenate(_penalties(jobs, completions, weights))
    return float(np.max(penalties, initial=0.0, where=penalties > 0.0))


@dataclass(frozen=True)
class WindowScheduleResult:
    """Starts, completions, and window feasibility of the fixed sequences."""

    starts: Mapping[str, float]
    completions: Mapping[str, float]
    feasible: bool
    infeasible_jobs: tuple[str, ...]


def schedule_windows(jobs: Sequence[WindowJob]) -> WindowScheduleResult:
    """Earliest-start dispatch of the fixed per-machine sequences.

    Each job starts at max(previous completion, t1) on its machine and runs
    for its processing time. The whole schedule is feasible iff every
    completion lands at or before t2 (within tolerance). Infeasibility is a
    result, not an error.

    Raises:
        ValueError: if two jobs share an id, or positions on some machine
            do not form 1..n.
    """
    table = WindowTable.of(jobs)
    starts: dict[str, float] = {}
    completions: dict[str, float] = {}
    infeasible: list[str] = []
    for _machine, rows in table.sequences():
        previous = 0.0
        for row, t1, p, t2 in zip(
            rows.tolist(), table.t1[rows].tolist(), table.p[rows].tolist(),
            table.t2[rows].tolist(),
        ):
            job_id = table.id[row]
            if job_id in starts:
                raise ValueError(f"duplicate window job id '{job_id}'")
            start = max(previous, t1)
            completion = start + p
            starts[job_id] = start
            completions[job_id] = completion
            if completion > t2 + FEASIBILITY_TOLERANCE:
                infeasible.append(job_id)
            previous = completion
    return WindowScheduleResult(starts, completions, not infeasible, tuple(infeasible))
