"""Earliness/tardiness penalties and window-feasible dispatching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsched.fixtures import build_fixture
from balsched.jit import (
    PenaltyWeights,
    WindowJob,
    earliness,
    penalty_max,
    penalty_sum,
    schedule_windows,
    tardiness,
)

from oracles import earliest_start_completions

# The worked single-machine sequence: seven jobs, fixed positions.
CHAIN = (
    ("a1", 0.5, 0.0, 1.1),
    ("a2", 0.6, 0.6, 1.6),
    ("a3", 0.6, 1.2, 2.4),
    ("a4", 0.9, 1.8, 2.8),
    ("a5", 0.7, 2.7, 3.7),
    ("a6", 0.8, 3.5, 4.5),
    ("a7", 0.7, 4.0, 5.0),
)


def chain_jobs(theta_override=None):
    jobs = []
    for pos, (jid, theta, t1, t2) in enumerate(CHAIN, start=1):
        if theta_override and jid in theta_override:
            theta = theta_override[jid]
        jobs.append(
            WindowJob(
                id=jid, processing_time=theta, t1=t1, t2=t2, machine=1, position=pos
            )
        )
    return jobs


def test_earliness_tardiness_basic():
    job = WindowJob(id="a1", processing_time=0.5, t1=0.0, t2=1.1)
    assert earliness(job, 0.5) == 0.0
    assert tardiness(job, 0.5) == 0.0
    early = WindowJob(id="x", processing_time=0.1, t1=0.6, t2=1.6)
    assert earliness(early, 0.4) == pytest.approx(0.2)
    assert tardiness(early, 0.4) == 0.0
    assert earliness(early, 2.0) == 0.0
    assert tardiness(early, 2.0) == pytest.approx(0.4)


def test_at_most_one_of_u_v_positive():
    job = WindowJob(id="x", processing_time=0.1, t1=1.0, t2=2.0)
    for c in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 9.0):
        u, v = earliness(job, c), tardiness(job, c)
        assert u >= 0 and v >= 0
        assert not (u > 0 and v > 0)


def test_penalty_sum_examples():
    w = PenaltyWeights(alpha=2.0, beta=1.0)
    job = WindowJob(id="x", processing_time=0.1, t1=0.6, t2=1.6)
    assert penalty_sum([job], {"x": 0.4}, w) == pytest.approx(0.4)
    both = [
        WindowJob(id="x", processing_time=0.1, t1=0.6, t2=1.6),
        WindowJob(id="y", processing_time=0.1, t1=0.0, t2=1.0),
    ]
    w1 = PenaltyWeights(alpha=1.0, beta=1.0)
    # u=0.2 on x, v=0.4 on y
    assert penalty_sum(both, {"x": 0.4, "y": 1.4}, w1) == pytest.approx(0.6)


def test_penalty_max_examples():
    w = PenaltyWeights(alpha=1.0, beta=1.0)
    both = [
        WindowJob(id="x", processing_time=0.1, t1=0.6, t2=1.6),
        WindowJob(id="y", processing_time=0.1, t1=0.0, t2=1.0),
    ]
    assert penalty_max(both, {"x": 0.4, "y": 1.4}, w) == pytest.approx(0.4)
    solo = WindowJob(id="z", processing_time=0.1, t1=1.0, t2=2.0)
    assert penalty_max([solo], {"z": 0.7}, PenaltyWeights(alpha=3.0, beta=1.0)) == (
        pytest.approx(0.9)
    )


def test_penalty_missing_completion():
    job = WindowJob(id="x", processing_time=0.1, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match="missing completion for job x"):
        penalty_sum([job], {}, PenaltyWeights())
    with pytest.raises(ValueError, match="missing completion for job x"):
        penalty_max([job], {}, PenaltyWeights())


def test_zero_penalty_iff_all_inside_windows():
    jobs = chain_jobs()
    result = schedule_windows(jobs)
    assert penalty_sum(jobs, result.completions, PenaltyWeights()) == 0.0
    assert penalty_max(jobs, result.completions, PenaltyWeights()) == 0.0


def test_single_machine_chain_completions():
    result = schedule_windows(chain_jobs())
    assert result.feasible
    got = [result.completions[jid] for jid, *_ in CHAIN]
    assert got == pytest.approx([0.5, 1.2, 1.8, 2.7, 3.4, 4.3, 5.0], abs=1e-9)


def test_single_machine_chain_matches_oracle():
    rows = [(theta, t1, t2) for _, theta, t1, t2 in CHAIN]
    oracle_completions, oracle_feasible = earliest_start_completions(rows)
    result = schedule_windows(chain_jobs())
    assert oracle_feasible and result.feasible
    got = [result.completions[jid] for jid, *_ in CHAIN]
    assert got == pytest.approx(oracle_completions, abs=1e-12)


def test_perturbed_fourth_job_breaks_feasibility():
    result = schedule_windows(chain_jobs({"a4": 1.2}))
    assert not result.feasible
    assert "a4" in result.infeasible_jobs
    assert result.completions["a4"] == pytest.approx(3.0)


def test_three_machine_fixture_feasible():
    f = build_fixture("jit-windows")
    result = schedule_windows(f.window_jobs)
    assert result.feasible
    per_machine = {
        1: ["a1", "a2", "a3", "a4"],
        2: ["a5", "a6", "a7", "a8"],
        3: ["a9", "a10", "a11", "a12"],
    }
    expected = {
        1: [1.2, 2.5, 3.7, 4.8],
        2: [0.7, 2.3, 3.2, 4.9],
        3: [1.2, 2.5, 3.8, 5.0],
    }
    for m, ids in per_machine.items():
        got = [result.completions[j] for j in ids]
        assert got == pytest.approx(expected[m], abs=1e-9), f"machine {m}"


def test_start_never_precedes_window_opening():
    f = build_fixture("jit-windows")
    result = schedule_windows(f.window_jobs)
    for job in f.window_jobs:
        assert result.starts[job.id] >= job.t1 - 1e-12


def test_positions_must_be_contiguous():
    jobs = [
        WindowJob(id="x", processing_time=1.0, t1=0.0, t2=2.0, machine=1, position=1),
        WindowJob(id="y", processing_time=1.0, t1=0.0, t2=3.0, machine=1, position=3),
    ]
    with pytest.raises(ValueError, match="machine 1: positions must form 1..2"):
        schedule_windows(jobs)


def test_duplicate_job_ids_are_refused():
    jobs = [
        WindowJob(id="x", processing_time=1.0, t1=0.0, t2=2.0, machine=1, position=1),
        WindowJob(id="x", processing_time=1.0, t1=0.0, t2=3.0, machine=2, position=1),
    ]
    with pytest.raises(ValueError, match="duplicate window job id 'x'"):
        schedule_windows(jobs)


def test_window_job_field_validation():
    with pytest.raises(ValueError, match="negative processing time"):
        WindowJob(id="z", processing_time=-1.0, t1=0.0, t2=1.0)
    with pytest.raises(ValueError, match="window"):
        WindowJob(id="z", processing_time=1.0, t1=2.0, t2=1.0)
    with pytest.raises(ValueError):
        PenaltyWeights(alpha=-0.1, beta=1.0)


@given(st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_growing_processing_time_never_restores_feasibility(extra):
    """Monotonicity: padding any processing time cannot fix an infeasible run."""
    base = chain_jobs({"a4": 1.2})  # infeasible already
    assert not schedule_windows(base).feasible
    padded = [
        WindowJob(
            id=j.id,
            processing_time=j.processing_time + (extra if j.id == "a2" else 0.0),
            t1=j.t1,
            t2=j.t2,
            machine=j.machine,
            position=j.position,
        )
        for j in base
    ]
    assert not schedule_windows(padded).feasible


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_penalties_scale_linearly_with_weights(lam):
    jobs = [
        WindowJob(id="x", processing_time=0.1, t1=0.6, t2=1.6),
        WindowJob(id="y", processing_time=0.1, t1=0.0, t2=1.0),
    ]
    completions = {"x": 0.4, "y": 1.4}
    w = PenaltyWeights(alpha=1.3, beta=0.7)
    scaled = PenaltyWeights(alpha=1.3 * lam, beta=0.7 * lam)
    assert penalty_sum(jobs, completions, scaled) == pytest.approx(
        lam * penalty_sum(jobs, completions, w)
    )
    assert penalty_max(jobs, completions, scaled) == pytest.approx(
        lam * penalty_max(jobs, completions, w)
    )
