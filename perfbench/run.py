#!/usr/bin/env python3
"""balsched benchmark: seeded workloads driven through the CLI in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-improve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One client in one thread runs a closed loop: each op (one or two CLI
calls, ``balsched.cli.main(argv, standalone_mode=False)`` with stdout
captured) starts when the previous one has finished and its output has
been checked. ``--trace 0`` prints the end-to-end metrics, with op times
measured against a host-speed probe (``speed.py``); ``--trace 1`` runs each
op untraced and then traced, and prints the per-layer metrics and the
tracing overhead. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Percentiles tried for the tails, highest first; the first with at least
# ten samples beyond it is reported, else the median.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Timed set-up launches before and after the ops; setup_s is their median
# in seconds at the reference speed (see speed.py).
SETUP_REPEATS = (4, 3)
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from balsched.cli import main; main(['fixtures', 'list'])"
)


def run_cli(argv):
    """One in-process CLI call: (exit code, stdout, stderr).

    A raised exception propagates; SystemExit becomes its exit code.
    """
    from balsched.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Closed-loop runner for one workload: times, failures, check time."""

    def __init__(self, workload, taps):
        self.workload = workload
        self.taps = taps
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, commands, tracer=None, op_id=0) -> float:
        """Run and check one op; return its wall time (sum of its calls).

        With a tracer, the package is patched for this op only; patching
        happens outside the timed calls.
        """
        self.attempted += 1
        elapsed = 0.0
        self.intervals = []
        outputs = []
        problems = []
        if tracer is not None:
            self.taps.close()
            tracer.install()
            self.taps.install()
            tracer.begin_op(op_id)
        try:
            for argv in commands:
                t0 = time.perf_counter()
                try:
                    code, stdout, stderr = run_cli(argv)
                finally:
                    t1 = time.perf_counter()
                    elapsed += t1 - t0
                    self.intervals.append((t0, t1))
                if code != 0:
                    problems.append(f"{argv[0]} exited {code}: {stderr.strip()}")
                    break
                outputs.append(stdout)
        except Exception as exc:  # an op that raises is a failed op
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.end_op()
                self.taps.close()
                tracer.close()
                self.taps.install()
        taps = self.taps.take()
        if not problems:
            try:
                problems = self.workload.check(outputs, taps)
            except Exception as exc:  # a check that cannot read the output fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return elapsed

    def measure(self, seconds: float, tracer=None, probe=None):
        """Ops until ``seconds`` have passed (at least one).

        Returns the untraced op times, the traced op times, the loop's
        wall time without output checks and patching, and the untraced
        ops' costs. With a tracer, each op runs twice on the same input,
        untraced then traced, so neither drift in machine speed nor the
        choice of input favours one side. With a speed probe, the probe
        runs throughout, its time inside an op is taken off the op's time,
        and each op's cost is that time over the probe's level around the
        op (see ``speed.py``); without one, the costs are empty.
        """
        plain: list[float] = []
        traced: list[float] = []
        spans = []
        start = time.perf_counter()
        aside = 0.0
        if probe is not None:
            probe.start()
        try:
            while not plain or time.perf_counter() - start < seconds:
                commands = self.workload.commands()
                t0 = time.perf_counter()
                plain.append(self.op(commands))
                spans.append(self.intervals)
                spent = plain[-1]
                if tracer is not None:
                    traced.append(self.op(commands, tracer, len(traced)))
                    spent += traced[-1]
                aside += time.perf_counter() - t0 - spent
        finally:
            if probe is not None:
                probe.stop()
        wall = time.perf_counter() - start - aside
        costs = []
        if probe is not None:
            for i, intervals in enumerate(spans):
                probed = probe.inside(intervals)
                plain[i] -= probed
                wall -= probed
                costs.append(plain[i] / probe.level(intervals[0][0], intervals[-1][1]))
        return plain, traced, wall, costs


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it (nearest rank); when no percentile has, the
    median."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def setup_samples(repeats: int, probe) -> list[tuple[float, float]]:
    """(wall time, probe level) of ``repeats`` launches of a fresh
    interpreter that imports balsched.cli and runs ``fixtures list``
    (after one untimed launch). The level is the mean of a probe burst
    just before and one just after the launch."""
    samples = []
    for i in range(repeats + 1):
        before = probe.burst()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        after = probe.burst()
        if proc.returncode != 0 or "kope-1982" not in proc.stdout.split():
            raise RuntimeError(f"fixtures list failed: {proc.stderr.strip()}")
        if i:
            samples.append((elapsed, (before + after) / 2))
    return samples


def environment() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[name](workdir, seed, smoke=False)
    workload.prepare()
    taps = workloads.Taps(workload.taps)
    taps.install()
    loop = Loop(workload, taps)
    env = environment()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env}

    if not trace:
        import speed

        probe = speed.SpeedProbe()
        setup = setup_samples(SETUP_REPEATS[0], probe)
        times, _traced, wall, costs = loop.measure(seconds, probe=probe)
        setup += setup_samples(SETUP_REPEATS[1], probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        whole = len(costs) - len(costs) % workload.cycle or len(costs)
        p, tail_cost = tail(costs[:whole])
        metrics = {
            "op_cost_p50": metric(statistics.median(costs[:whole]), "probes"),
            "op_cost_tail": metric(tail_cost, "probes"),
            "setup_s": metric(statistics.median(t / level for t, level in setup) * speed.PROBE_REF_S, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        extra = {
            "op_s_p50": metric(statistics.median(times), "s"),
            "op_s_tail": metric(tail(times)[1], "s"),
            "ops_per_s": metric(len(times) / wall, "1/s"),
            "setup_wall_s": metric(statistics.median(t for t, _level in setup), "s"),
            "ops_failed_ratio": metric(loop.failed / loop.attempted, "ratio"),
            "tail_percentile": p,
            "timed_ops": len(times),
            "costed_ops": whole,
        }
        if workload.final_v is not None:
            extra["final_v"] = metric(workload.final_v, "V")
    else:
        tracer = tracing.Tracer()
        untraced, traced, _wall, _costs = loop.measure(seconds, tracer)
        layers = tracing.layer_metrics(tracer, len(traced))
        p50_untraced, p50_traced = statistics.median(untraced), statistics.median(traced)
        metrics = {
            key: metric(0.0 if value is None else value, unit) for key, (value, unit) in layers.items()
        }
        metrics["improve.final_v"] = metric(workload.final_v or 0.0, "V")
        metrics["trace.overhead_s"] = metric(p50_traced - p50_untraced, "s")
        metrics["trace.overhead_ratio"] = metric((p50_traced - p50_untraced) / p50_untraced, "ratio")
        extra = {
            "not_applicable": sorted(
                [k for k, (v, _u) in layers.items() if v is None]
                + ([] if workload.final_v is not None else ["improve.final_v"])
            ),
            "op_s_p50_untraced": metric(p50_untraced, "s"),
            "op_s_p50_traced": metric(p50_traced, "s"),
            "traced_ops": len(traced),
            "spans": len(tracer.spans),
        }
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))

    report.update(metrics=metrics, extra=extra, problems=loop.problems[:20])
    for entry in os.listdir(workdir):
        if entry.endswith((".json", ".csv")):
            os.remove(os.path.join(workdir, entry))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return report, {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print(f"env: commit {env['commit']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}")
    rows = dict(report["metrics"])
    extra = report["extra"]
    for key in ("op_s_p50", "op_s_tail", "ops_per_s", "setup_wall_s", "ops_failed_ratio", "final_v",
                "op_s_p50_untraced", "op_s_p50_traced"):
        if key in extra:
            rows[key] = extra[key]
    for key, m in rows.items():
        note = ""
        if key == "op_cost_tail":
            note = f"  (p{extra['tail_percentile']:g} of {extra['costed_ops']} ops)"
        if key in extra.get("not_applicable", ()):
            note = "  (not applicable)"
        print(f"  {key:<36} {m['value']:.6g} {m['unit']}{note}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def smoke() -> int:
    """Every workload at a tiny size, one traced op each, all checks on."""
    import tracing
    import workloads

    attempted = failed = 0
    for name, cls in workloads.WORKLOADS.items():
        workdir = os.path.join(OUT, f"smoke-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload = cls(workdir, seed=1, smoke=True)
        workload.prepare()
        tracer = tracing.Tracer()
        taps = workloads.Taps(workload.taps)
        taps.install()
        loop = Loop(workload, taps)
        loop.op(workload.commands(), tracer)
        taps.close()
        problems = loop.problems
        layers = tracing.layer_metrics(tracer, 1)
        applicable = sum(v is not None for v, _u in layers.values())
        print(f"{name}: {'ok' if not problems else 'FAILED'}  spans {len(tracer.spans)}  "
              f"layer metrics {applicable}/{len(layers)}")
        for problem in problems:
            print(f"  problem: {problem}")
        attempted += 1
        failed += bool(problems)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, one op each")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "balsched", "cli.py")):
        print(f"error: no balsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
