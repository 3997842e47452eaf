"""The benchmark's workloads: inputs, the CLI calls of one op, and the
checks each op's output must pass.

Why these four (see README.md for the layer map):

* ``kope-improve`` -- the paper's own instance; small enough that load,
  validation and save are a large share of each op.
* ``synth-improve`` -- the repair loop at 72 buildings, where correction
  group generation (feasibility and scoring) is almost all of the op.
* ``synth-evaluate`` -- the per-month cascade over 288 buildings and a
  223-month horizon with no repair at all; it only reads instance files.
* ``modular-balance`` -- the only workload through ``core``, ``balance``
  and ``jit``, and through the modular half of the loader.
"""

from __future__ import annotations

import csv
import importlib
import os
import re
from collections import Counter, defaultdict

import generators

# README's transcript of ``balsched improve kope.json --out ...``, minus the
# closing "wrote <path>" line.
KOPE_TRANSCRIPT = (
    "iteration 1: V 0.7009 -> 0.3414 accepted; chosen: a3 -3d, exchange a4<->a6, "
    "a7 +3d, a9 +3d (profit 0.4191, cost 2.90)",
    "iteration 2: V 0.3414 -> 0.0000 accepted; chosen: exchange a1<->a5, "
    "exchange a2<->a7, a6 -3d, a8 +7d (profit 0.5466, cost 5.00)",
    "stop: balanced",
    "final peak d1: 1377.98 (month 10)",
)

ITERATION = re.compile(r"iteration \d+: V (\d+\.\d{4}) -> (\d+\.\d{4}) (accepted|rejected); ")


class Taps:
    """Records what chosen package functions return during each op.

    The checks compare the CLI's printed output with these values and with
    the benchmark's own recomputation. A tap is one extra Python call per
    CLI command.
    """

    def __init__(self, targets):
        self.targets = targets
        self.values = defaultdict(list)
        self._patches = []

    def install(self) -> None:
        for module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def tap(*args, _fn=original, _key=attr, **kwargs):
                result = _fn(*args, **kwargs)
                self.values[_key].append(result)
                return result

            setattr(module, attr, tap)
            self._patches.append((module, attr, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> dict:
        values, self.values = self.values, defaultdict(list)
        return values


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def written_schedule_v(path: str) -> tuple[float, list[str], object]:
    """Violation measure of the schedule in an instance file, the problems
    of that schedule, and its requirement table.

    Besides the package's own ``team_schedule_violations``, every lane is
    checked here for overlaps and for placements outside the horizon.
    """
    from balsched.fileio import load_instance
    from balsched.homebuilding import horizon_requirement_table, team_schedule_violations
    from balsched.improve import capacity_vector, violation_measure

    instance = load_instance(path)
    project, schedule = instance.project, instance.team_schedule
    problems = list(team_schedule_violations(schedule, project.buildings))
    placed = [bid for _team, bid, _start in schedule.placements()]
    if sorted(placed) != sorted(project.buildings):
        problems.append("written schedule does not place every building exactly once")
    for team, entries in schedule.assignments.items():
        lane = sorted((start, start + project.buildings[b].assembly_duration, b) for b, start in entries)
        for (_s1, e1, b1), (s2, _e2, b2) in zip(lane, lane[1:]):
            if s2 < e1 - 1e-9:
                problems.append(f"team {team}: {b1} and {b2} overlap")
        if lane and (lane[0][0] < 0 or max(e for _s, e, _b in lane) > project.horizon_months + 1e-9):
            problems.append(f"team {team}: a placement leaves the horizon")
    table = horizon_requirement_table(project, schedule)
    v = violation_measure(table.to_array(), capacity_vector(dict(instance.capacity)))
    return v, problems, table


class Workload:
    name = ""
    taps: tuple = ()
    # Ops repeat their inputs in cycles of this many; costs are summarised
    # over whole cycles.
    cycle = 1

    def __init__(self, workdir: str, seed: int, smoke: bool):
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.final_v = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Write the inputs (untimed)."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, outputs, taps) -> list[str]:
        """Problems with one op's outputs; empty when the op is correct."""
        raise NotImplementedError


class KopeImprove(Workload):
    name = "kope-improve"

    def prepare(self):
        from balsched.fileio import instance_to_dict
        from balsched.fixtures import build_fixture

        self.instance = self.path("kope.json")
        self.out = self.path("kope-fixed.json")
        generators.write_json(instance_to_dict(build_fixture("kope-1982")), self.instance)

    def commands(self):
        return [["improve", self.instance, "--out", self.out]]

    def check(self, outputs, taps):
        expected = list(KOPE_TRANSCRIPT) + [f"wrote {self.out}"]
        lines = outputs[0].splitlines()
        if lines != expected:
            return [f"improve transcript differs from README: {lines!r}"]
        self.final_v, problems, _table = written_schedule_v(self.out)
        return problems


class SynthImprove(Workload):
    name = "synth-improve"
    # The work per op differs between seeds (about 3.0k to 3.6k scored
    # variants), so ops cycle over a pool of instances (seeds
    # seed * POOL + j) and a run's median depends less on one draw.
    POOL = cycle = 4

    def prepare(self):
        from balsched.fileio import instance_to_dict
        from balsched.fixtures import build_fixture

        n, teams, iters = (12, 3, 1) if self.smoke else (72, 16, 3)
        kope = instance_to_dict(build_fixture("kope-1982"))
        self.instances = []
        for j in range(self.POOL):
            data = generators.synthetic_project(kope, n, teams, self.seed * self.POOL + j)
            self.instances.append(self.path(f"synth-improve-{j}.json"))
            generators.write_json(data, self.instances[-1])
        self.out = self.path("synth-improved.json")
        self.max_iters = str(iters)
        self.ops = 0

    def commands(self):
        instance = self.instances[self.ops % self.POOL]
        self.ops += 1
        return [["improve", instance, "--max-iters", self.max_iters, "--out", self.out]]

    def check(self, outputs, taps):
        lines = outputs[0].splitlines()
        matches = [ITERATION.match(line) for line in lines]
        records = [m for m in matches if m]
        problems = []
        if not records:
            return ["no iteration lines"]
        printed = [float(m.group(1)) for m in records] + [float(records[-1].group(2))]
        if any(b > a for a, b in zip(printed, printed[1:])):
            problems.append(f"printed V sequence increases: {printed}")
        if lines[-1] != f"wrote {self.out}":
            problems.append(f"last line is {lines[-1]!r}")
        v, schedule_problems, table = written_schedule_v(self.out)
        problems += schedule_problems
        if abs(v - printed[-1]) > 1e-4:
            problems.append(f"final V {v:.6f} recomputed from the file, {printed[-1]:.4f} printed")
        month, value = table.peak("d1")
        if f"final peak d1: {value:.2f} (month {month})" not in lines:
            problems.append("final peak line does not match the written schedule")
        self.final_v = v
        return problems


class SynthEvaluate(Workload):
    name = "synth-evaluate"
    taps = (("balsched.cli", "horizon_requirement_table"),)

    def prepare(self):
        from balsched.fileio import instance_to_dict
        from balsched.fixtures import build_fixture

        n, teams = (18, 3) if self.smoke else (288, 8)
        kope = instance_to_dict(build_fixture("kope-1982"))
        data = generators.synthetic_project(kope, n, teams, self.seed)
        block = data["homebuilding"]
        self.instance = self.path("synth-evaluate.json")
        self.csv = self.path("curve.csv")
        self.capacity = block["capacity"]["d1"]
        self.horizon = block["horizon_months"]
        self.n_teams = teams
        bills = [generators.building_bill(block, b) for b in block["buildings"].values()]
        self.bill = [sum(column) for column in zip(*bills)]
        generators.write_json(data, self.instance)

    def commands(self):
        return [
            ["evaluate", self.instance],
            ["report", self.instance, "--detail", "d1", "--capacity", repr(self.capacity),
             "--csv", self.csv],
        ]

    def check(self, outputs, taps):
        from balsched.homebuilding import DETAIL_TYPES

        problems = []
        tables = taps["horizon_requirement_table"]
        if len(tables) != 2:
            return [f"expected 2 requirement tables, saw {len(tables)}"]
        for table in tables:
            if len(table.months) != self.horizon:
                problems.append(f"table has {len(table.months)} months, horizon {self.horizon}")
            for k, detail in enumerate(DETAIL_TYPES):
                total = sum(table.column(detail))
                if not _rel_close(total, self.bill[k], 1e-9):
                    problems.append(f"{detail}: month sum {total!r} != bill {self.bill[k]!r}")
        evaluate, report = outputs[0].splitlines(), outputs[1].splitlines()
        table = tables[0]
        expected = ["mode: homebuilding", f"months: {self.horizon}", "peak requirements:"]
        for detail in DETAIL_TYPES:
            month, value = table.peak(detail)
            expected.append(f"  {detail}: {value:.2f} (month {month})")
        if evaluate[: len(expected)] != expected:
            problems.append("evaluate header or peaks differ from the requirement table")
        gantt = evaluate[len(expected):]
        if len(gantt) != self.n_teams + 1 or not gantt[0].startswith("team "):
            problems.append("evaluate Gantt chart has the wrong shape")
        month, value = tables[1].peak("d1")
        if report != [f"peak d1: {value:.2f} (month {month})", f"wrote {self.csv}"]:
            problems.append(f"report output {report!r}")
        with open(self.csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        cap = self.capacity
        expected_rows = [["month", "required", "capacity", "violation"]] + [
            [str(m), f"{r:.2f}", f"{cap:.2f}", f"{max(0.0, r - cap):.2f}"]
            for m, r in zip(tables[1].months, tables[1].column("d1"))
        ]
        if rows != expected_rows:
            problems.append("balance curve CSV differs from the requirement table")
        return problems


class ModularBalance(Workload):
    name = "modular-balance"
    taps = (("balsched.balance", "interval_bags"), ("balsched.cli", "schedule_windows"))

    def prepare(self):
        if self.smoke:
            data = generators.modular_instance(
                self.seed, n_processors=4, n_types=6, interval_len=6, n_intervals=4,
                n_machines=3, jobs_per_machine=5,
            )
        else:
            data = generators.modular_instance(self.seed)
        block = data["modular"]
        self.instance = self.path("modular.json")
        self.types = block["universe"]["types"]
        self.idle = self.types[block["universe"]["idle_index"]]
        self.capacity = block["grid"]["interval_len_slots"] * len(block["processors"])
        self.k = block["grid"]["k"]
        self.profile = block["reference_profile"]
        self.threshold = block["proximity_threshold"]
        chains = {job["id"]: job["chain"] for job in block["jobs"]}
        self.totals = Counter(e for chain in chains.values() for e in chain)
        self.totals[self.idle] = self.k * self.capacity - sum(self.totals.values())
        last_slot = max(
            start + len(chains[job_id]) - 1
            for lane in block["schedule"]["placements"].values()
            for job_id, start in lane
        )
        self.makespan = last_slot // block["grid"]["interval_len_slots"] + 1
        self.windows = self._dispatch(data["window_jobs"], data["penalty_weights"])
        generators.write_json(data, self.instance)

    @staticmethod
    def _dispatch(jobs, weights):
        """Earliest-start recompute: each job starts at max(previous
        completion, t1) in its machine's position order."""
        completions, lines, late = {}, [], []
        by_machine = defaultdict(list)
        for job in jobs:
            by_machine[job["machine"]].append(job)
        for machine in sorted(by_machine):
            previous = 0.0
            cells = []
            for job in sorted(by_machine[machine], key=lambda j: j["position"]):
                previous = max(previous, job["t1"]) + job["processing_time"]
                completions[job["id"]] = previous
                if previous > job["t2"] + 1e-9:
                    late.append(job["id"])
                cells.append(f"{job['id']} C={previous:.2f}")
            lines.append(f"machine {machine}: " + "  ".join(cells))
        a, b = weights["alpha"], weights["beta"]
        penalties = [
            (a * max(0.0, j["t1"] - completions[j["id"]]), b * max(0.0, completions[j["id"]] - j["t2"]))
            for j in jobs
        ]
        return {
            "completions": completions,
            "lines": lines,
            "late": late,
            "sum": sum(u + v for u, v in penalties),
            "max": max(max(u, v) for u, v in penalties),
        }

    def commands(self):
        return [["evaluate", self.instance], ["balance", self.instance]]

    def check(self, outputs, taps):
        problems = []
        evaluate, balance = outputs[0].splitlines(), outputs[1].splitlines()
        w = self.windows
        head = ["mode: modular", f"makespan: {self.makespan}",
                "window jobs: " + ("infeasible" if w["late"] else "feasible")]
        if w["late"]:
            head.append("outside window: " + " ".join(w["late"]))
        if evaluate[: len(head) + len(w["lines"])] != head + w["lines"]:
            problems.append("evaluate makespan or window completions differ from the recompute")
        tail = evaluate[len(head) + len(w["lines"]):]
        try:
            printed_sum = float(tail[0].removeprefix("penalty sum: "))
            printed_max = float(tail[1].removeprefix("penalty max: "))
        except (IndexError, ValueError):
            problems.append(f"penalty lines missing: {tail!r}")
        else:
            if abs(printed_sum - w["sum"]) > 0.006 or abs(printed_max - w["max"]) > 0.006:
                problems.append("penalty sum or max differs from the recompute")
        for result in taps["schedule_windows"]:
            if any(abs(result.completions[j] - c) > 1e-9 for j, c in w["completions"].items()):
                problems.append("window completions differ from the earliest-start recompute")

        bag_lists = taps["interval_bags"]
        if len(bag_lists) != 1:
            return problems + [f"expected one bag computation, saw {len(bag_lists)}"]
        bags = bag_lists[0]
        if len(bags) != self.k:
            problems.append(f"{len(bags)} bags for {self.k} intervals")
        totals = Counter()
        deltas = []
        for bag in bags:
            if len(bag.elements) != self.capacity:
                problems.append(f"bag {bag.index} holds {len(bag.elements)}, capacity {self.capacity}")
            counts = Counter(bag.elements)
            totals.update(counts)
            distance = cum0 = cum1 = 0
            for e0, t in zip(self.profile, self.types):
                cum0 += e0
                cum1 += counts[t]
                distance += abs(cum0 - cum1)
            deltas.append(distance)
        if totals != self.totals:
            problems.append("per-type bag totals differ from the job chains")
        violating = [i + 1 for i, d in enumerate(deltas) if d > self.threshold]
        expected = [
            "interval deltas: " + " ".join(map(str, deltas)),
            f"max delta: {max(deltas)}",
            f"threshold: {self.threshold}",
        ]
        if violating:
            expected += ["violating intervals: " + " ".join(map(str, violating)), "balance: violated"]
        else:
            expected += ["balance: satisfied"]
        if balance != expected:
            problems.append("balance output differs from the recomputed proximities")
        return problems


WORKLOADS = {w.name: w for w in (KopeImprove, SynthImprove, SynthEvaluate, ModularBalance)}
