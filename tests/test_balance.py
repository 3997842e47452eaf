"""Prefix-sum proximity metric and per-interval balance verdicts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched.balance import (
    balance_verdict,
    count_vector,
    dominance_leq,
    proximity,
    violation,
)
from balsched.core import validate_instance
from balsched.fixtures import build_fixture

from oracles import unit_move_distance


def demo():
    f = build_fixture("modular-demo")
    return validate_instance(f.universe, f.jobs, f.processors, f.grid), f


# --- proximity ---------------------------------------------------------------

def test_proximity_identical_vectors_is_zero():
    assert proximity((2, 3, 2, 1, 1, 0), (2, 3, 2, 1, 1, 0)) == 0


def test_proximity_adjacent_move_costs_one():
    assert proximity((1, 1, 0), (1, 0, 1)) == 1


def test_proximity_symmetric_pair():
    a, b = (2, 3, 2, 1, 1, 0), (0, 1, 1, 3, 3, 1)
    assert proximity(a, b) == proximity(b, a) == 15


def test_proximity_integer_inputs_give_integer():
    d = proximity((2, 0), (0, 2))
    assert d == 2 and isinstance(d, int)


def test_proximity_real_inputs():
    assert proximity((1.5, 0.5), (0.5, 1.5)) == pytest.approx(1.0)


def test_proximity_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        proximity((1, 2), (1, 2, 3))


def test_proximity_unequal_totals_rejected():
    with pytest.raises(ValueError, match="incomparable cardinalities"):
        proximity((1, 2, 3), (3, 2, 3))


def test_proximity_real_totals_within_tolerance_accepted():
    # a 1e-7 wobble in the totals is treated as equal
    assert proximity((1.0 + 5e-7, 2.0), (1.0, 2.0 + 0e-7)) >= 0


def test_proximity_matches_unit_move_oracle_spot_checks():
    pairs = [
        ((2, 3, 2, 1, 1, 0), (2, 4, 1, 0, 1, 1)),
        ((2, 3, 2, 1, 1, 0), (2, 2, 1, 2, 2, 0)),
        ((2, 3, 2, 1, 1, 0), (3, 3, 1, 0, 1, 1)),
        ((4, 0, 0), (0, 0, 4)),
    ]
    for a, b in pairs:
        assert proximity(a, b) == unit_move_distance(a, b)


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_proximity_triangle_inequality(counts, data):
    total = sum(counts)
    n = len(counts)

    def redistribution():
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=total),
                    min_size=n - 1,
                    max_size=n - 1,
                )
            )
        )
        edges = [0] + cuts + [total]
        return tuple(edges[i + 1] - edges[i] for i in range(n))

    a = tuple(counts)
    b = redistribution()
    c = redistribution()
    assert proximity(a, c) <= proximity(a, b) + proximity(b, c)
    assert proximity(a, b) == proximity(b, a)
    assert (proximity(a, b) == 0) == (a == b)


def test_proximity_shift_invariance():
    # adding the same count to one slot of both vectors never changes delta
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        total = rng.randint(0, 9)
        a = _random_partition(rng, total, n)
        b = _random_partition(rng, total, n)
        k = rng.randrange(n)
        bumped_a = tuple(x + 3 if i == k else x for i, x in enumerate(a))
        bumped_b = tuple(x + 3 if i == k else x for i, x in enumerate(b))
        assert proximity(bumped_a, bumped_b) == proximity(a, b)


def _random_partition(rng, total, n):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    edges = [0] + cuts + [total]
    return tuple(edges[i + 1] - edges[i] for i in range(n))


# --- count vectors and verdicts ----------------------------------------------

def test_count_vector_of_demo_first_interval():
    instance, f = demo()
    from balsched.core import interval_bags

    bags = interval_bags(instance, f.schedule)
    assert count_vector(bags[0], f.universe) == (2, 4, 0, 1, 1, 1)
    assert count_vector(bags[3], f.universe) == (0, 1, 1, 3, 3, 1)


def test_count_vector_accepts_plain_iterable():
    assert count_vector(("e1", "e1", "e5"), demo()[1].universe) == (2, 0, 0, 0, 1, 0)


def test_count_vector_unknown_type():
    with pytest.raises(ValueError, match="unknown element type"):
        count_vector(("e9",), demo()[1].universe)


def test_balance_verdict_satisfied_at_threshold_15():
    instance, f = demo()
    verdict = balance_verdict(
        instance, f.schedule, f.reference_profile, f.proximity_threshold
    )
    assert verdict.deltas == (4, 4, 4, 15)
    assert verdict.max_delta == 15
    assert verdict.satisfied
    assert verdict.violating == ()


def test_balance_verdict_tight_threshold_flags_intervals():
    instance, f = demo()
    verdict = balance_verdict(instance, f.schedule, f.reference_profile, 4)
    assert not verdict.satisfied
    assert verdict.violating == (4,)


def test_balance_index_is_max_delta():
    # the balance index is the verdict's worst per-interval proximity
    instance, f = demo()
    verdict = balance_verdict(instance, f.schedule, f.reference_profile, 15)
    assert verdict.max_delta == max(verdict.deltas) == 15


def test_balance_verdict_capacity_mismatch():
    instance, f = demo()
    wrong_total = (1, 1, 1, 1, 1, 1)  # sums to 6, capacity is 9
    with pytest.raises(ValueError, match="capacity mismatch"):
        balance_verdict(instance, f.schedule, wrong_total, 15)


# --- dominance ---------------------------------------------------------------

def test_dominance_componentwise():
    assert dominance_leq((1, 2, 3), (1, 2, 3))
    assert dominance_leq((0, 2, 3), (1, 2, 3))
    assert not dominance_leq((2, 2, 3), (1, 2, 3))


def test_violation_clamps_at_zero():
    assert violation((5, 1, 4), (3, 2, 4)) == (2, 0, 0)


def test_violation_zero_iff_dominated():
    gamma, cap = (5, 1, 4), (3, 2, 4)
    assert (violation(gamma, cap) == (0, 0, 0)) == dominance_leq(gamma, cap)
    assert violation((3, 2), (3, 2)) == (0, 0)
