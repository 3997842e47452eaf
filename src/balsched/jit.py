"""Just-in-time metrics and window feasibility for fixed job sequences.

Each job carries a delivery window [t1, t2]; completing before t1 is early,
after t2 is tardy, and both attract weighted penalties. Sequences are given
(positions per machine are fixed); the dispatcher starts each job as early
as its window and the previous job allow. The evaluator only measures -- it
never optimizes the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


def _completion_of(job: WindowJob, completions: Mapping[str, float]) -> float:
    if job.id not in completions:
        raise ValueError(f"missing completion for job {job.id}")
    return completions[job.id]


def penalty_sum(
    jobs: Iterable[WindowJob],
    completions: Mapping[str, float],
    weights: PenaltyWeights,
) -> float:
    """Total weighted earliness/tardiness: sum of alpha*u + beta*v.

    Zero exactly when every job completes inside its window.

    Raises:
        ValueError: if any job lacks a completion time.
    """
    total = 0.0
    for job in jobs:
        c = _completion_of(job, completions)
        total += weights.alpha * earliness(job, c) + weights.beta * tardiness(job, c)
    return total


def penalty_max(
    jobs: Iterable[WindowJob],
    completions: Mapping[str, float],
    weights: PenaltyWeights,
) -> float:
    """Worst single weighted penalty: max over jobs of max(alpha*u, beta*v).

    Raises:
        ValueError: if any job lacks a completion time.
    """
    worst = 0.0
    for job in jobs:
        c = _completion_of(job, completions)
        worst = max(
            worst,
            weights.alpha * earliness(job, c),
            weights.beta * tardiness(job, c),
        )
    return worst


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
    by_machine: dict[int, list[WindowJob]] = {}
    for job in jobs:
        by_machine.setdefault(job.machine, []).append(job)

    starts: dict[str, float] = {}
    completions: dict[str, float] = {}
    infeasible: list[str] = []
    for machine in sorted(by_machine):
        sequence = sorted(by_machine[machine], key=lambda j: j.position)
        if [j.position for j in sequence] != list(range(1, len(sequence) + 1)):
            raise ValueError(
                f"machine {machine}: positions must form 1..{len(sequence)} "
                "without gaps"
            )
        previous = 0.0
        for job in sequence:
            if job.id in starts:
                raise ValueError(f"duplicate window job id '{job.id}'")
            start = max(previous, job.t1)
            completion = start + job.processing_time
            starts[job.id] = start
            completions[job.id] = completion
            if completion > job.t2 + FEASIBILITY_TOLERANCE:
                infeasible.append(job.id)
            previous = completion
    return WindowScheduleResult(
        starts=starts,
        completions=completions,
        feasible=not infeasible,
        infeasible_jobs=tuple(infeasible),
    )
