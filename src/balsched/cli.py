"""Command-line surface: validate, evaluate, balance, improve, report,
and fixture management for instance files.

Exit codes: 0 on success, 1 on validation failure, 2 on I/O or usage
errors. All output is deterministic for a given input.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import NoReturn

import click

from . import balance as balance_mod
from . import fixtures as fixtures_mod
from .core import (
    Instance,
    ValidationError,
    makespan,
    schedule_violations,
    validate_instance,
)
from .fileio import (
    InstanceFile,
    SchemaError,
    export_balance_curve,
    load_instance,
    render_gantt,
    save_instance,
)
from .homebuilding import (
    DETAIL_TYPES,
    RequirementTable,
    TeamSchedule,
    horizon_requirement_table,
    team_schedule_violations,
)
from .improve import (
    ImproveParams,
    capacity_vector,
    improvement_loop,
    violated_months,
)
from .jit import WindowTable, penalty_max, penalty_sum, schedule_windows


def _echo(message: str = "", err: bool = False, nl: bool = True) -> None:
    """click.echo to the current sys.stdout or sys.stderr, passed
    explicitly: click's default-stream cache would keep every redirected
    io.StringIO (and all its captured output) alive."""
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _fail(message: str, code: int = 1) -> NoReturn:
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path) -> InstanceFile:
    """Load an instance file, translating failures into exit codes."""
    try:
        return load_instance(path)
    except SchemaError as exc:
        for issue in exc.issues:
            _echo(f"error: {issue}", err=True)
        sys.exit(1)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror}", 2)


def _validated(instance: InstanceFile) -> Instance | None:
    """Check the instance and its schedule once, exiting 1 with one
    ``invalid:`` line per violation. Returns the validated modular
    Instance, or None for a home-building instance."""
    validated = None
    if instance.mode == "modular":
        try:
            validated = validate_instance(
                instance.universe, instance.jobs, instance.processors,
                instance.grid,
            )
        except ValidationError as exc:
            violations = exc.violations
        else:
            violations = schedule_violations(validated, instance.schedule)
    else:
        violations = team_schedule_violations(
            instance.team_schedule, instance.project.buildings
        )
    if violations:
        for v in violations:
            _echo(f"invalid: {v}", err=True)
        sys.exit(1)
    return validated


def _requirements(instance: InstanceFile, schedule: TeamSchedule | None = None) -> RequirementTable:
    """The horizon table of a valid home-building instance (under
    ``schedule``, if given), exiting 1 if the horizon is too large."""
    try:
        return horizon_requirement_table(instance.project, schedule or instance.team_schedule)
    except ValueError as exc:
        _fail(str(exc))


@click.group()
def main():
    """Interval-balanced scheduling of modular jobs and serial building."""


@main.command()
@click.argument("file", type=click.Path())
def validate(file):
    """Check an instance file against all structural rules."""
    instance = _load(file)
    _validated(instance)
    _echo("OK")


@main.command()
@click.argument("file", type=click.Path())
def evaluate(file):
    """Makespan, window penalties, or the monthly requirement table."""
    instance = _load(file)
    validated = _validated(instance)
    _echo(f"mode: {instance.mode}")
    if instance.mode == "modular":
        _echo(f"makespan: {makespan(validated, instance.schedule)}")
        if instance.window_jobs:
            try:
                result = schedule_windows(instance.window_jobs)
            except ValueError as exc:
                _fail(str(exc))
            weights = instance.penalty_weights
            _echo(
                "window jobs: "
                + ("feasible" if result.feasible else "infeasible")
            )
            if result.infeasible_jobs:
                _echo(
                    "outside window: " + " ".join(result.infeasible_jobs)
                )
            table = WindowTable.of(instance.window_jobs)
            for machine, rows in table.sequences():
                cells = "  ".join(
                    f"{job_id} C={result.completions[job_id]:.2f}"
                    for job_id in map(table.id.__getitem__, rows.tolist())
                )
                _echo(f"machine {machine}: {cells}")
            if weights:
                _echo(
                    "penalty sum: "
                    f"{penalty_sum(instance.window_jobs, result.completions, weights):.2f}"
                )
                _echo(
                    "penalty max: "
                    f"{penalty_max(instance.window_jobs, result.completions, weights):.2f}"
                )
    else:
        table = _requirements(instance)
        _echo(f"months: {len(table.months)}")
        _echo("peak requirements:")
        for detail in DETAIL_TYPES:
            month, value = table.peak(detail)
            _echo(f"  {detail}: {value:.2f} (month {month})")
        _echo(render_gantt(instance.project, instance.team_schedule), nl=False)


@main.command()
@click.argument("file", type=click.Path())
def balance(file):
    """Balance verdict against the reference profile or capacity."""
    instance = _load(file)
    validated = _validated(instance)
    if instance.mode == "modular":
        if instance.reference_profile is None or instance.proximity_threshold is None:
            _fail("instance has no reference profile / threshold")
        try:
            verdict = balance_mod.balance_verdict(
                validated,
                instance.schedule,
                instance.reference_profile,
                instance.proximity_threshold,
            )
        except ValueError as exc:
            _fail(str(exc))
        _echo(
            "interval deltas: " + " ".join(str(d) for d in verdict.deltas)
        )
        _echo(f"max delta: {verdict.max_delta}")
        _echo(f"threshold: {verdict.threshold}")
        if verdict.satisfied:
            _echo("balance: satisfied")
        else:
            _echo(
                "violating intervals: "
                + " ".join(str(i) for i in verdict.violating)
            )
            _echo("balance: violated")
    else:
        if not instance.capacity:
            _fail("instance has no capacity profile")
        table = _requirements(instance)
        months = violated_months(table.to_array(), capacity_vector(instance.capacity))
        for detail in sorted(instance.capacity):
            month, value = table.peak(detail)
            _echo(
                f"peak {detail}: {value:.2f} (month {month}) "
                f"capacity {instance.capacity[detail]:.2f}"
            )
        if months:
            _echo("violated months: " + " ".join(str(m) for m in months))
            _echo("balance: violated")
        else:
            _echo("balance: satisfied")


def _finite(_ctx, _param, value: float | None) -> float | None:
    """Refuse NaN and infinity, which pass click.FloatRange."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter("must be a finite number")
    return value


@main.command()
@click.argument("file", type=click.Path())
@click.option("--budget", type=click.FloatRange(min=0), default=None,
              callback=_finite, help="Cost budget per iteration.")
@click.option("--max-iters", type=click.IntRange(min=0), default=None,
              help="Iteration cap.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the improved instance to this file.")
def improve(file, budget, max_iters, out):
    """Repair a home-building schedule under the correction budget."""
    instance = _load(file)
    _validated(instance)
    if instance.mode != "homebuilding":
        _fail("improve needs a homebuilding instance")
    if not instance.capacity:
        _fail("instance has no capacity profile")
    params = instance.improve_params or ImproveParams()
    params = ImproveParams(
        budget=params.budget if budget is None else budget,
        max_iters=params.max_iters if max_iters is None else max_iters,
    )
    try:
        result = improvement_loop(
            instance.project, instance.team_schedule, instance.capacity, params
        )
    except ValueError as exc:  # a horizon too large to tabulate
        _fail(str(exc))
    for record in result.trace:
        moves = [variant.describe(target) for target, variant in record.moves]
        chosen = ", ".join(moves) if moves else "none"
        status = "accepted" if record.accepted else "rejected"
        _echo(
            f"iteration {record.iteration}: V {record.v_before:.4f} -> "
            f"{record.v_after:.4f} {status}; chosen: {chosen} "
            f"(profit {record.selection.total_profit:.4f}, "
            f"cost {record.selection.total_cost:.2f})"
        )
    _echo(f"stop: {result.stop_reason}")
    table = _requirements(instance, result.schedule)
    for detail in sorted(instance.capacity):
        month, value = table.peak(detail)
        _echo(f"final peak {detail}: {value:.2f} (month {month})")
    if out:
        updated = dataclasses.replace(instance, team_schedule=result.schedule)
        try:
            save_instance(updated, out)
        except OSError as exc:
            _fail(f"cannot write {out}: {exc.strerror}", 2)
        _echo(f"wrote {out}")


@main.command()
@click.argument("file", type=click.Path())
@click.option("--detail", required=True, help="Detail type, e.g. d1.")
@click.option("--capacity", required=True, type=float,
              help="Monthly capacity for the detail.")
@click.option("--csv", "csv_path", required=True, type=click.Path(),
              help="Where to write the balance curve.")
def report(file, detail, capacity, csv_path):
    """Per-month required-vs-capacity curve for one detail type."""
    instance = _load(file)
    _validated(instance)
    if instance.mode != "homebuilding":
        _fail("report needs a homebuilding instance")
    table = _requirements(instance)
    try:
        export_balance_curve(table, capacity, detail, csv_path)
    except ValueError as exc:
        _fail(str(exc))
    except OSError as exc:
        _fail(f"cannot write {csv_path}: {exc.strerror}", 2)
    month, value = table.peak(detail)
    _echo(f"peak {detail}: {value:.2f} (month {month})")
    _echo(f"wrote {csv_path}")


@main.group()
def fixtures():
    """List or emit the bundled instances."""


@fixtures.command(name="list")
def fixtures_list():
    """Names of all bundled instances."""
    for name in fixtures_mod.list_fixtures():
        _echo(name)


@fixtures.command(name="emit")
@click.argument("name")
@click.option("--out", type=click.Path(), default=None,
              help="Target path (default: <name>.json).")
def fixtures_emit(name, out):
    """Write a bundled instance to a JSON file."""
    try:
        instance = fixtures_mod.build_fixture(name)
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    path = out or f"{name}.json"
    try:
        save_instance(instance, path)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror}", 2)
    _echo(f"wrote {path}")


if __name__ == "__main__":
    main()
