"""Slot-schedule model: universes, jobs, placement rules, interval bags."""

import dataclasses

import pytest

from balsched.core import (
    CompositeJob,
    ElementUniverse,
    IntervalBag,
    SlotSchedule,
    TimeGrid,
    ValidationError,
    collect_violations,
    interval_bags,
    lane_overlaps,
    makespan,
    schedule_violations,
    validate_instance,
    validate_schedule,
)
from balsched.fixtures import build_fixture

from oracles import interval_bag_elements

U = ElementUniverse(types=("e1", "e2", "e3", "e4", "e5", "idle"), idle_index=5)


def demo_instance():
    f = build_fixture("modular-demo")
    return validate_instance(f.universe, f.jobs, f.processors, f.grid), f


def test_universe_accessors():
    assert U.idle == "idle"
    assert U.size == 6
    assert U.position("e3") == 2
    assert "e4" in U and "e9" not in U
    with pytest.raises(ValueError):
        U.position("e9")


def test_universe_refuses_unhashable_elements_as_unknown():
    assert [1] not in U
    with pytest.raises(ValueError, match=r"unknown element type '\[1\]'"):
        U.position([1])


def test_duplicate_type_keeps_its_first_position():
    universe = ElementUniverse(types=("a", "b", "a", "idle"), idle_index=3)
    assert universe.position("a") == 0
    assert universe.position("idle") == 3


def test_job_length_counts_chain_elements():
    assert CompositeJob(id="a2", chain=("e2", "e5")).length == 2


def test_collect_violations_clean_demo():
    f = build_fixture("modular-demo")
    assert collect_violations(f.universe, f.jobs, f.processors, f.grid) == []


def test_collect_violations_reports_each_defect():
    bad_universe = ElementUniverse(types=("e1", "e1", "idle"), idle_index=2)
    jobs = (
        CompositeJob(id="a1", chain=()),
        CompositeJob(id="a1", chain=("e1",)),
        CompositeJob(id="a3", chain=("idle",)),
        CompositeJob(id="a4", chain=("e7",)),
    )
    grid = TimeGrid(interval_len_slots=0, k=2)
    violations = collect_violations(bad_universe, jobs, ("P1", "P1"), grid)
    assert "universe: duplicate element type 'e1'" in violations
    assert "job a1: empty chain" in violations
    assert "job a1: duplicate id" in violations
    assert "job a3: idle element in chain" in violations
    assert any("unknown element" in v for v in violations)
    assert "processors: duplicate id 'P1'" in violations
    assert "grid: interval_len_slots must be positive" in violations


def test_validate_instance_raises_with_all_violations():
    jobs = (CompositeJob(id="a1", chain=()),)
    with pytest.raises(ValidationError) as err:
        validate_instance(U, jobs, ("P1",), TimeGrid(interval_len_slots=1, k=1))
    assert err.value.violations == ["job a1: empty chain"]


def test_schedule_overlap_detected():
    instance, f = demo_instance()
    # a4a occupies slots 0..5 on P1; planting a1 at slot 4 collides.
    clash = SlotSchedule(
        processors=("P1",),
        placements={"P1": (("a4a", 0), ("a1", 4))},
        horizon_slots=12,
    )
    violations = schedule_violations(instance, clash)
    assert violations == ["processor P1: jobs a4a and a1 overlap"]


@pytest.mark.parametrize("spans, tolerance, pairs", [
    # slots past int64 stay exact: touching is no overlap, one slot is
    ([(2**70 + 3, 2**70 + 9, "b"), (2**70, 2**70 + 3, "a"), (2**70 + 8, 2**70 + 9, "c")],
     0, [("b", "c")]),
    # a team lane forgives a start up to the tolerance before the end
    ([(2.0, 3.0, "b"), (0.0, 2.0 + 5e-10, "a"), (3.0 - 2e-9, 4.0, "c")],
     1e-9, [("b", "c")]),
    ([(1.0, 2.0, "y"), (1.0, 2.0, "x"), (0.0, 5.0, "w")], 0, [("w", "x"), ("x", "y")]),
    ([], 0, []),
])
def test_lane_overlaps_names_sorted_neighbours_past_the_tolerance(spans, tolerance, pairs):
    assert lane_overlaps(spans, tolerance) == pairs


def test_schedule_job_placed_twice():
    instance, _ = demo_instance()
    twice = SlotSchedule(
        processors=("P1", "P2"),
        placements={"P1": (("a1", 0),), "P2": (("a1", 0),)},
        horizon_slots=12,
    )
    assert "job a1: placed more than once" in schedule_violations(instance, twice)


def test_schedule_beyond_horizon():
    instance, _ = demo_instance()
    late = SlotSchedule(
        processors=("P1",),
        placements={"P1": (("a4b", 8),)},  # 6 slots from 8 -> ends at 14
        horizon_slots=12,
    )
    violations = schedule_violations(instance, late)
    assert violations == ["processor P1: job a4b ends at slot 14 beyond horizon 12"]


def test_schedule_unknown_processor_and_job():
    instance, _ = demo_instance()
    odd = SlotSchedule(
        processors=("P9",),
        placements={"P9": (("zz", 0),)},
        horizon_slots=12,
    )
    violations = schedule_violations(instance, odd)
    assert any("P9" in v for v in violations)
    assert any("zz" in v for v in violations)


def test_schedule_processor_the_instance_lacks():
    instance, f = demo_instance()
    ghost = dataclasses.replace(
        f.schedule, processors=f.schedule.processors + ("ghost",)
    )
    assert schedule_violations(instance, ghost) == [
        "schedule: unknown processor 'ghost'"
    ]


def test_schedule_on_a_subset_of_the_processors_is_valid():
    instance, _ = demo_instance()
    subset = SlotSchedule(
        processors=("P2",), placements={"P2": (("a2", 0),)}, horizon_slots=12
    )
    assert schedule_violations(instance, subset) == []


@pytest.mark.parametrize("start", [1.5, "3"])
def test_a_start_slot_that_is_no_integer_is_one_violation(start):
    instance, f = demo_instance()
    placements = {
        proc: tuple((job_id, start if job_id == "a4a" else at) for job_id, at in lane)
        for proc, lane in f.schedule.placements.items()
    }
    odd = dataclasses.replace(f.schedule, placements=placements)
    line = f"job a4a: start slot {start!r} is not an integer"
    assert schedule_violations(instance, odd) == [line]
    with pytest.raises(ValidationError) as err:
        validate_schedule(instance, odd)
    assert err.value.violations == [line]


def test_validate_schedule_passthrough():
    instance, f = demo_instance()
    assert validate_schedule(instance, f.schedule) is f.schedule


def test_makespan_of_demo_is_four_intervals():
    instance, f = demo_instance()
    assert makespan(instance, f.schedule) == 4


def test_makespan_empty_schedule_is_zero():
    instance, _ = demo_instance()
    empty = SlotSchedule(processors=("P1",), placements={}, horizon_slots=12)
    assert makespan(instance, empty) == 0


def test_makespan_single_slot_job():
    instance, _ = demo_instance()
    # a2 has two elements; placed at slot 0 it ends inside interval 1.
    s = SlotSchedule(
        processors=("P1",), placements={"P1": (("a2", 0),)}, horizon_slots=12
    )
    assert makespan(instance, s) == 1


def test_interval_bags_shape_and_capacity():
    instance, f = demo_instance()
    bags = interval_bags(instance, f.schedule)
    assert [b.index for b in bags] == [1, 2, 3, 4]
    # every bag holds interval_len * processors elements, idle included
    assert all(b.cardinality == 9 for b in bags)


def test_interval_bags_elements_follow_universe_order():
    instance, f = demo_instance()
    for bag in interval_bags(instance, f.schedule):
        positions = [instance.universe.position(e) for e in bag.elements]
        assert positions == sorted(positions)


def test_interval_bags_pad_with_idle():
    instance, _ = demo_instance()
    s = SlotSchedule(
        processors=("P1", "P2", "P3"),
        placements={"P1": (("a2", 0),)},
        horizon_slots=12,
    )
    first = interval_bags(instance, s)[0]
    assert first.elements.count("idle") == 7


def _demo_with(placements, chains=None):
    """The demo instance with other chains (job id -> chain) and an
    unvalidated schedule of ``placements`` on its three processors."""
    instance, f = demo_instance()
    jobs = dict(instance.jobs)
    for job_id, chain in (chains or {}).items():
        jobs[job_id] = CompositeJob(job_id, chain)
    instance = dataclasses.replace(instance, jobs=jobs)
    schedule = SlotSchedule(
        processors=f.processors, placements=placements, horizon_slots=12
    )
    return instance, schedule


@pytest.mark.parametrize(
    "chains, element",
    [({"x1": ("zz",), "x2": ("e1", "yy")}, "'zz'"), ({"x1": ("e1", [1])}, r"'\[1\]'")],
    ids=["first-in-job-order", "unhashable"],
)
def test_an_instance_refuses_an_unknown_element_at_construction(chains, element):
    # the first unknown element in job order
    with pytest.raises(ValueError, match=f"unknown element type {element}"):
        _demo_with({}, chains)


@pytest.mark.parametrize("start", [-1, 7, 2**63 - 1, 2**70, -(2**70)])
def test_interval_bags_refuse_a_placement_outside_the_grid(start):
    # a4a runs 6 slots: from 7 it ends at 13 on the 12-slot grid; a start
    # past int64 is outside it too, not an OverflowError
    instance, schedule = _demo_with({"P1": (("a4a", start),)})
    with pytest.raises(ValueError, match="outside the grid's 12 slots"):
        interval_bags(instance, schedule)


def test_interval_bags_do_not_pad_an_overfilled_interval():
    # five jobs stacked on P1 from slot 0 put 15 elements into interval 1,
    # three of them idle, against a capacity of 9: no padding, none removed
    lane = (("a4a", 0), ("a4b", 0), ("a3a", 0), ("a3b", 0), ("x", 0))
    instance, schedule = _demo_with({"P1": lane}, {"x": ("idle",) * 3})
    bags = interval_bags(instance, schedule)
    assert [b.cardinality for b in bags] == [15, 9, 9, 9]
    assert bags[0].elements.count("idle") == 3
    chains = {job_id: instance.jobs[job_id].chain for job_id, _ in lane}
    assert [b.elements for b in bags] == interval_bag_elements(
        U.types, U.idle_index, chains, [lane, (), ()], 3, 4
    )


def test_interval_bags_grid_shorter_than_schedule():
    instance, f = demo_instance()
    short = dataclasses.replace(instance, grid=TimeGrid(interval_len_slots=3, k=2))
    with pytest.raises(ValueError, match="grid shorter than horizon: 6 < 12"):
        interval_bags(short, f.schedule)


def test_interval_bag_is_value_object():
    types = ("e1", "e2", "idle")
    bag = IntervalBag(index=1, counts=(2, 0, 1), types=types)
    assert bag == IntervalBag(index=1, counts=(2, 0, 1), types=types)
    assert bag != IntervalBag(index=1, counts=(1, 1, 1), types=types)
    # elements and cardinality are read from the counts, in universe order
    assert bag.elements == ("e1", "e1", "idle") and bag.cardinality == 3
