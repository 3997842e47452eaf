"""Prefix-sum proximity metric and per-interval balance verdicts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched.balance import (
    balance_verdict,
    count_vector,
    proximity,
)
from balsched.core import (
    CompositeJob,
    ElementUniverse,
    Instance,
    SlotSchedule,
    TimeGrid,
    interval_bags,
    validate_instance,
)
from balsched.fixtures import build_fixture

from oracles import element_counts, interval_bag_elements, unit_move_distance


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
    bags = interval_bags(instance, f.schedule)
    assert count_vector(bags[0], f.universe) == (2, 4, 0, 1, 1, 1)
    assert count_vector(bags[3], f.universe) == (0, 1, 1, 3, 3, 1)


def test_count_vector_accepts_plain_iterable():
    assert count_vector(("e1", "e1", "e5"), demo()[1].universe) == (2, 0, 0, 0, 1, 0)


def test_count_vector_unknown_type():
    with pytest.raises(ValueError, match="unknown element type"):
        count_vector(("e9",), demo()[1].universe)


def test_count_vector_names_the_first_unknown_element():
    universe = demo()[1].universe
    with pytest.raises(ValueError, match="unknown element type 'e8'"):
        count_vector(iter(("e1", "e8", "e9")), universe)
    with pytest.raises(ValueError, match="unknown element type 'e9'"):
        count_vector(("e1", "e9", ["e1"]), universe)
    with pytest.raises(ValueError, match=r"unknown element type '\['e1'\]'"):
        count_vector(("e1", ["e1"], "e9"), universe)


@st.composite
def slot_schedules(draw):
    """An unvalidated instance and schedule: a universe that may repeat a
    type, chains that may hold the idle type, lanes with gaps or none."""
    types = tuple(draw(st.lists(st.sampled_from("abcdef"), min_size=2, max_size=6)))
    universe = ElementUniverse(types, draw(st.integers(0, len(types) - 1)))
    grid = TimeGrid(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    processors = tuple(f"P{p}" for p in range(draw(st.integers(1, 3))))
    jobs, placements = {}, {}
    for proc in processors:
        lane, t = [], draw(st.integers(0, 2))
        while t < grid.horizon_slots and draw(st.booleans()):
            job_id = f"j{len(jobs)}"
            length = draw(st.integers(1, grid.horizon_slots - t))
            chain = draw(st.lists(st.sampled_from(types), min_size=length, max_size=length))
            jobs[job_id] = CompositeJob(job_id, tuple(chain))
            lane.append((job_id, t))
            t += length + draw(st.integers(0, 2))
        placements[proc] = tuple(lane)
    instance = Instance(universe, jobs, processors, grid)
    schedule = SlotSchedule(processors, placements, grid.horizon_slots)
    return instance, schedule


@given(slot_schedules(), st.data())
@settings(max_examples=200, deadline=None)
def test_bags_counts_and_verdict_match_the_element_list_oracle(case, data):
    instance, schedule = case
    universe, grid = instance.universe, instance.grid
    expected = interval_bag_elements(
        universe.types, universe.idle_index,
        {job_id: job.chain for job_id, job in instance.jobs.items()},
        [schedule.placements[p] for p in schedule.processors],
        grid.interval_len_slots, grid.k,
    )
    bags = interval_bags(instance, schedule)
    assert [b.index for b in bags] == list(range(1, grid.k + 1))
    assert [b.elements for b in bags] == expected
    counts = [element_counts(elements, universe.types) for elements in expected]
    assert [count_vector(b, universe) for b in bags] == counts
    assert [b.counts for b in bags] == counts

    capacity = grid.interval_len_slots * len(schedule.processors)
    cuts = sorted(data.draw(st.lists(
        st.integers(0, capacity), min_size=universe.size - 1, max_size=universe.size - 1
    )))
    e0 = tuple(b - a for a, b in zip([0] + cuts, cuts + [capacity]))
    delta0 = data.draw(st.integers(0, 2 * capacity))
    verdict = balance_verdict(instance, schedule, e0, delta0)
    deltas = tuple(proximity(e0, c) for c in counts)
    assert verdict.deltas == deltas
    assert all(type(d) is int for d in verdict.deltas)
    assert verdict.max_delta == max(deltas)
    assert verdict.violating == tuple(i + 1 for i, d in enumerate(deltas) if d > delta0)
    assert verdict.satisfied == (max(deltas) <= delta0)


@pytest.mark.parametrize("name", ["modular-demo", "jit-windows"])
def test_bag_count_rows_are_the_count_vectors(name):
    f = build_fixture(name)
    instance = validate_instance(f.universe, f.jobs, f.processors, f.grid)
    bags = interval_bags(instance, f.schedule)
    assert [b.counts for b in bags] == [count_vector(b, f.universe) for b in bags]
    if f.reference_profile is not None:
        verdict = balance_verdict(instance, f.schedule, f.reference_profile, 15)
        assert verdict.deltas == tuple(
            proximity(f.reference_profile, count_vector(b, f.universe)) for b in bags
        )


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
