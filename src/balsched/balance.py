"""Count vectors, the interval proximity metric, and balance verdicts.

The proximity between two equal-total count vectors is the L1 distance of
their prefix sums over the fixed type order -- the discrete earth-mover
distance where moving one unit between adjacent positions costs 1. A
schedule is balanced when every interval's bag sits within proximity
``delta0`` of the reference profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Instance, IntervalBag, SlotSchedule, interval_bags

#: Real-valued vectors (fractional floor progress) compare totals to this.
TOTAL_TOLERANCE = 1e-6


def count_vector(
    bag: IntervalBag | Iterable[str], universe
) -> tuple[int, ...]:
    """Per-type multiplicities of a bag, in universe order.

    Raises:
        ValueError: on an element type not present in the universe.
    """
    counts = [0] * universe.size
    for element in bag.elements if isinstance(bag, IntervalBag) else bag:
        counts[universe.position(element)] += 1
    return tuple(counts)


def proximity(e0: Sequence[float], e: Sequence[float]):
    """Distance between two equal-total count vectors.

    Sum of absolute prefix-sum differences along the fixed order. Symmetric,
    non-negative, zero iff the vectors are equal; integer-valued on integer
    inputs.

    Raises:
        ValueError: on length mismatch or unequal totals
            ("incomparable cardinalities").
    """
    if len(e0) != len(e):
        raise ValueError(f"length mismatch: {len(e0)} vs {len(e)}")
    total0, total1 = sum(e0), sum(e)
    if abs(total0 - total1) > TOTAL_TOLERANCE:
        raise ValueError(
            f"incomparable cardinalities: total {total0} vs total {total1}"
        )
    distance = 0
    cum0 = cum1 = 0
    for a, b in zip(e0, e):
        cum0 += a
        cum1 += b
        distance += abs(cum0 - cum1)
    return distance


@dataclass(frozen=True)
class BalanceVerdict:
    """Per-interval proximities against the reference profile.

    ``satisfied`` holds exactly when ``max_delta <= threshold``;
    ``violating`` lists the 1-based indices of intervals above it.
    """

    deltas: tuple
    max_delta: float
    threshold: float
    satisfied: bool
    violating: tuple[int, ...]


def balance_verdict(
    instance: Instance,
    schedule: SlotSchedule,
    e0: Sequence[float],
    delta0: float,
) -> BalanceVerdict:
    """Check every interval bag against the reference profile.

    Raises:
        ValueError: when the reference profile total does not match the
            interval capacity (interval length x processor count).
    """
    capacity = instance.grid.interval_len_slots * len(schedule.processors)
    total = sum(e0)
    if abs(total - capacity) > TOTAL_TOLERANCE:
        raise ValueError(
            f"capacity mismatch: reference profile totals {total} but "
            f"interval capacity is {capacity}"
        )
    deltas = tuple(
        proximity(e0, bag.counts) for bag in interval_bags(instance, schedule)
    )
    max_delta = max(deltas)
    violating = tuple(i + 1 for i, d in enumerate(deltas) if d > delta0)
    return BalanceVerdict(
        deltas=deltas,
        max_delta=max_delta,
        threshold=delta0,
        satisfied=max_delta <= delta0,
        violating=violating,
    )
