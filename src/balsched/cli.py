"""Command-line surface: validate, evaluate, balance, improve, report,
and fixture management for instance files.

Exit codes: 0 on success, a violated balance verdict included; 1 on a
refused input, with one ``invalid:`` line per broken structural rule and
one ``error:`` line per schema issue or refused value on stderr; 2 on I/O
or usage errors. All output is deterministic for a given input.
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
    validate_instance,
    validate_schedule,
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
    horizon_requirement_table,
    validate_team_schedule,
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
    """Load an instance file, exiting 2 if it cannot be read."""
    try:
        return load_instance(path)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror}", 2)


def _validated(instance: InstanceFile) -> Instance | None:
    """Check the instance and its schedule once, raising ValidationError
    on any broken rule, then a modular file's window sequences, raising
    ValueError on positions that do not form 1..n. Returns the validated
    modular Instance, or None for a home-building instance."""
    if instance.mode != "modular":
        validate_team_schedule(instance.team_schedule, instance.project.buildings)
        return None
    validated = validate_instance(
        instance.universe, instance.jobs, instance.processors, instance.grid)
    validate_schedule(validated, instance.schedule)
    if instance.window_jobs:
        list(WindowTable.of(instance.window_jobs).sequences())
    return validated


class _RefusingGroup(click.Group):
    """Runs the command, printing what it refuses on stderr and exiting 1:
    one ``error:`` line per schema issue, one ``invalid:`` line per broken
    structural rule, and ``error: <message>`` for any other ValueError."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SchemaError as exc:
            lines = [f"error: {issue}" for issue in exc.issues]
        except ValidationError as exc:
            lines = [f"invalid: {v}" for v in exc.violations]
        except ValueError as exc:
            lines = [f"error: {exc}"]
        for line in lines:
            _echo(line, err=True)
        sys.exit(1)


@click.group(cls=_RefusingGroup)
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
    """Makespan, window penalties, or the monthly requirement table,
    printed once all of it is computed."""
    instance = _load(file)
    validated = _validated(instance)
    lines = [f"mode: {instance.mode}"]
    gantt = ""
    if instance.mode == "modular":
        lines.append(f"makespan: {makespan(validated, instance.schedule)}")
        if instance.window_jobs:
            result = schedule_windows(instance.window_jobs)
            weights = instance.penalty_weights
            lines.append("window jobs: " + ("feasible" if result.feasible else "infeasible"))
            if result.infeasible_jobs:
                lines.append("outside window: " + " ".join(result.infeasible_jobs))
            table = WindowTable.of(instance.window_jobs)
            for machine, rows in table.sequences():
                cells = "  ".join(
                    f"{job_id} C={result.completions[job_id]:.2f}"
                    for job_id in map(table.id.__getitem__, rows.tolist())
                )
                lines.append(f"machine {machine}: {cells}")
            for name, penalty in (("sum", penalty_sum), ("max", penalty_max)) if weights else ():
                value = penalty(instance.window_jobs, result.completions, weights)
                lines.append(f"penalty {name}: {value:.2f}")
    else:
        table = horizon_requirement_table(instance.project, instance.team_schedule)
        lines += [f"months: {len(table.months)}", "peak requirements:"]
        for detail in DETAIL_TYPES:
            month, value = table.peak(detail)
            lines.append(f"  {detail}: {value:.2f} (month {month})")
        gantt = render_gantt(instance.project, instance.team_schedule)
    _echo("\n".join(lines) + "\n" + gantt, nl=False)


@main.command()
@click.argument("file", type=click.Path())
def balance(file):
    """Balance verdict against the reference profile or capacity."""
    instance = _load(file)
    validated = _validated(instance)
    if instance.mode == "modular":
        if instance.reference_profile is None or instance.proximity_threshold is None:
            _fail("instance has no reference profile / threshold")
        verdict = balance_mod.balance_verdict(
            validated, instance.schedule, instance.reference_profile, instance.proximity_threshold
        )
        _echo("interval deltas: " + " ".join(map(str, verdict.deltas)))
        _echo(f"max delta: {verdict.max_delta}")
        _echo(f"threshold: {verdict.threshold}")
        if not verdict.satisfied:
            _echo("violating intervals: " + " ".join(map(str, verdict.violating)))
        _echo("balance: " + ("satisfied" if verdict.satisfied else "violated"))
    else:
        if not instance.capacity:
            _fail("instance has no capacity profile")
        table = horizon_requirement_table(instance.project, instance.team_schedule)
        months = violated_months(table.to_array(), capacity_vector(instance.capacity))
        for detail in sorted(instance.capacity):
            month, value = table.peak(detail)
            _echo(
                f"peak {detail}: {value:.2f} (month {month}) "
                f"capacity {instance.capacity[detail]:.2f}"
            )
        if months:
            _echo("violated months: " + " ".join(map(str, months)))
        _echo("balance: " + ("violated" if months else "satisfied"))


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
    result = improvement_loop(
        instance.project, instance.team_schedule, instance.capacity, params
    )
    lines = []  # printed once --out is written, so a refused write prints nothing
    for record in result.trace:
        moves = [variant.describe(target) for target, variant in record.moves]
        chosen = ", ".join(moves) if moves else "none"
        status = "accepted" if record.accepted else "rejected"
        lines.append(
            f"iteration {record.iteration}: V {record.v_before:.4f} -> "
            f"{record.v_after:.4f} {status}; chosen: {chosen} "
            f"(profit {record.selection.total_profit:.4f}, "
            f"cost {record.selection.total_cost:.2f})"
        )
    lines.append(f"stop: {result.stop_reason}")
    table = horizon_requirement_table(instance.project, result.schedule)
    for detail in sorted(instance.capacity):
        month, value = table.peak(detail)
        lines.append(f"final peak {detail}: {value:.2f} (month {month})")
    if out:
        updated = dataclasses.replace(instance, team_schedule=result.schedule)
        try:
            save_instance(updated, out)
        except OSError as exc:
            _fail(f"cannot write {out}: {exc.strerror}", 2)
        lines.append(f"wrote {out}")
    _echo("\n".join(lines))


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
    table = horizon_requirement_table(instance.project, instance.team_schedule)
    try:
        export_balance_curve(table, capacity, detail, csv_path)
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
