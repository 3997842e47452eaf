"""Span tracing of balsched's layers from outside the package.

The tracer replaces public functions of the package with wrappers that
record a span (name, start, end, parent span, op id) per call, plus the
counts the per-layer metrics need. A function can be bound under its name
in several module namespaces (``improve`` imports
``team_schedule_violations`` and ``building_requirement_table`` by name),
so every binding of the same function object in every ``balsched`` module
is replaced. Spans stay in memory until :meth:`Tracer.write_spans`.

Wrappers record only between :meth:`Tracer.begin_op` and
:meth:`Tracer.end_op`, so output checks that call the package between ops
leave no spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); an attribute "Class.method" patches the
# method on the class.
SPANNED = (
    ("fileio", "load_instance", "fileio.load_instance"),
    ("fileio", "save_instance", "fileio.save_instance"),
    ("fileio", "render_gantt", "fileio.render_gantt"),
    ("fileio", "export_balance_curve", "fileio.export_balance_curve"),
    ("core", "collect_violations", "core.collect_violations"),
    ("core", "validate_instance", "core.validate_instance"),
    ("core", "schedule_violations", "core.schedule_violations"),
    ("core", "interval_bags", "core.interval_bags"),
    ("balance", "balance_verdict", "balance.balance_verdict"),
    ("jit", "schedule_windows", "jit.schedule_windows"),
    ("jit", "penalty_sum", "jit.penalty_sum"),
    ("jit", "penalty_max", "jit.penalty_max"),
    ("homebuilding", "building_requirement_table", "homebuilding.building_requirement_table"),
    ("homebuilding", "horizon_requirement_table", "homebuilding.horizon_requirement_table"),
    ("homebuilding", "team_schedule_violations", "homebuilding.team_schedule_violations"),
    ("improve", "improvement_loop", "improve.improvement_loop"),
    ("improve", "generate_correction_groups", "improve.generate_correction_groups"),
    ("improve", "score_variant", "improve.score_variant"),
    ("improve", "mckp_greedy", "improve.mckp_greedy"),
    ("improve", "CascadeCache.schedule_table", "improve.schedule_table"),
)

# Called too often for a span each (about 254k cache lookups per synthetic
# repair op); these only count.
COUNTED = (
    ("balance", "proximity", "balance.proximity"),
    ("improve", "CascadeCache.building_table", "improve.cache_lookup"),
)

VALIDATION = ("core.collect_violations", "core.validate_instance", "core.schedule_violations")

OP = "op"


class Tracer:
    """Patches the package, records spans and counts, restores on close."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._cache_depth = 0
        self._patches: list = []

    # --- recording --------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [self._open(OP, -1)]

    def end_op(self) -> None:
        self._close(self._stack.pop())
        self._op = None

    def _open(self, name: str, parent: int) -> int:
        sid = len(self.spans)
        self.spans.append([sid, parent, self._op, name, time.perf_counter(), None])
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()

    def _spanned(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = self._open(name, self._stack[-1])
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(sid)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        """A counting wrapper. Cache lookups also track their nesting, so a
        building_requirement_table call under one counts as a cache miss."""
        if name == "improve.cache_lookup":
            def lookup(*args, **kwargs):
                if self._op is None:
                    return fn(*args, **kwargs)
                self.counts[name] += 1
                self._cache_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._cache_depth -= 1

            return lookup

        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching ---------------------------------------------------------

    def install(self) -> None:
        import balsched  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "balsched" or n.startswith("balsched.")]
        plan = [(m, a, n, True) for m, a, n in SPANNED] + [(m, a, n, False) for m, a, n in COUNTED]
        for module_name, attr, name, spanned in plan:
            module = sys.modules[f"balsched.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, name, spanned)
                continue
            original = getattr(module, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, name, spanned)

    def _patch(self, owner, key, original, name, spanned) -> None:
        if spanned:
            wrapped = self._spanned(name, original, HOOKS.get(name))
        else:
            wrapped = self._counted(name, original)
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def close(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time, summed duration, call count.

        Self time is a span's duration minus the durations of its child
        spans; calls are single-threaded and nested, so children never
        overlap.
        """
        child = defaultdict(float)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
        for sid, _parent, _op, name, start, end in self.spans:
            self_s[name] += end - start - child[sid]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def outer_validation_calls(self) -> int:
        """Validation passes: validation spans not nested in another one."""
        names = {sid: name for sid, _p, _o, name, _s, _e in self.spans}
        return sum(
            1 for _sid, parent, _op, name, _s, _e in self.spans
            if name in VALIDATION and names.get(parent) not in VALIDATION
        )


# --- hooks: counts read from arguments and results, outside the span -------


def _load_hook(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["fileio.bytes_read"] += os.path.getsize(path)


def _bags_hook(tracer, args, kwargs, result):
    tracer.counts["core.bag_elements"] += sum(len(bag.elements) for bag in result)


def _windows_hook(tracer, args, kwargs, result):
    tracer.counts["jit.jobs"] += len(args[0] if args else kwargs["jobs"])


def _table_hook(tracer, args, kwargs, result):
    if tracer._cache_depth > 0:
        tracer.counts["improve.cache_misses"] += 1


def _loop_hook(tracer, args, kwargs, result):
    tracer.counts["improve.iterations"] += len(result.trace)
    tracer.counts["improve.applied_moves"] += sum(
        1 for record in result.trace for j in record.selection.chosen if j
    )


def _groups_hook(tracer, args, kwargs, result):
    """Variants attempted, enumerated as the generator does: every shift
    step in both directions, and one exchange per partner that is not a
    lower-ordered target (those pairs belong to the partner's group)."""
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    config = args[3] if len(args) > 3 else kwargs.get("config")
    if config is None:
        from balsched.improve import DEFAULT_SCORE_CONFIG as config
    placed = [bid for _team, bid, _start in schedule.placements()]
    targets = {group.targets[0] for group in result}
    shifts = 2 * len(config.shift_steps)
    for target in targets:
        partners = sum(
            1 for p in placed if p != target and not (p in targets and p < target)
        )
        tracer.counts["improve.variants_attempted"] += shifts + partners
    tracer.counts["improve.variants_scored"] += sum(len(g.variants) - 1 for g in result)


def _score_hook(tracer, args, kwargs, result):
    if result[0] > 0:
        tracer.counts["improve.profitable"] += 1


def _greedy_hook(tracer, args, kwargs, result):
    tracer.counts["improve.greedy_moves"] += sum(1 for j in result.chosen if j)


HOOKS = {
    "fileio.load_instance": _load_hook,
    "core.interval_bags": _bags_hook,
    "jit.schedule_windows": _windows_hook,
    "homebuilding.building_requirement_table": _table_hook,
    "improve.improvement_loop": _loop_hook,
    "improve.generate_correction_groups": _groups_hook,
    "improve.score_variant": _score_hook,
    "improve.mckp_greedy": _greedy_hook,
}


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics as (value per op, unit); None where not applicable.

    Times are self times except ``improve.loop_s``, which is the whole
    repair loop. Times and counts are means per traced op; ratios are taken
    over all traced ops.
    """
    self_s, total_s, calls = tracer.self_times()
    c = tracer.counts

    def per_op(value, exercised=True):
        return value / n_ops if exercised else None

    def t(*names):
        return per_op(sum(self_s[n] for n in names), any(calls[n] for n in names))

    loads = calls["fileio.load_instance"]
    groups = calls["improve.generate_correction_groups"]
    loops = calls["improve.improvement_loop"]
    lookups = c["improve.cache_lookup"]
    windows = calls["jit.schedule_windows"]
    bags = calls["core.interval_bags"]
    verdicts = calls["balance.balance_verdict"]
    return {
        "cli.self_s": (per_op(self_s[OP]), "s"),
        "fileio.load_s": (t("fileio.load_instance"), "s"),
        "fileio.load_calls": (per_op(loads, loads), "count"),
        "fileio.bytes_read": (per_op(c["fileio.bytes_read"], loads), "B"),
        "fileio.save_s": (t("fileio.save_instance"), "s"),
        "fileio.export_s": (t("fileio.render_gantt", "fileio.export_balance_curve"), "s"),
        "core.validate_s": (t(*VALIDATION), "s"),
        "core.validate_calls": (per_op(tracer.outer_validation_calls(), any(calls[v] for v in VALIDATION)), "count"),
        "core.bags_s": (t("core.interval_bags"), "s"),
        "core.bag_elements": (per_op(c["core.bag_elements"], bags), "count"),
        "balance.verdict_s": (t("balance.balance_verdict"), "s"),
        "balance.proximity_calls": (per_op(c["balance.proximity"], verdicts), "count"),
        "jit.dispatch_s": (t("jit.schedule_windows"), "s"),
        "jit.penalty_s": (t("jit.penalty_sum", "jit.penalty_max"), "s"),
        "jit.jobs": (per_op(c["jit.jobs"], windows), "count"),
        "homebuilding.building_table_s": (t("homebuilding.building_requirement_table"), "s"),
        "homebuilding.building_table_calls": (
            per_op(calls["homebuilding.building_requirement_table"], calls["homebuilding.building_requirement_table"]),
            "count",
        ),
        "homebuilding.horizon_table_s": (t("homebuilding.horizon_requirement_table"), "s"),
        "homebuilding.check_s": (t("homebuilding.team_schedule_violations"), "s"),
        "homebuilding.check_calls": (
            per_op(calls["homebuilding.team_schedule_violations"], calls["homebuilding.team_schedule_violations"]),
            "count",
        ),
        "improve.loop_s": (per_op(total_s["improve.improvement_loop"], loops), "s"),
        "improve.iterations": (per_op(c["improve.iterations"], loops), "count"),
        "improve.groups_s": (t("improve.generate_correction_groups"), "s"),
        "improve.score_s": (t("improve.score_variant"), "s"),
        "improve.score_calls": (per_op(calls["improve.score_variant"], groups), "count"),
        "improve.profitable_ratio": (_ratio(c["improve.profitable"], calls["improve.score_variant"]), "ratio"),
        "improve.variants_attempted": (per_op(c["improve.variants_attempted"], groups), "count"),
        "improve.feasible_ratio": (_ratio(c["improve.variants_scored"], c["improve.variants_attempted"]), "ratio"),
        "improve.cache_lookups": (per_op(lookups, loops), "count"),
        "improve.cache_misses": (per_op(c["improve.cache_misses"], loops), "count"),
        "improve.cache_hit_ratio": (_ratio(lookups - c["improve.cache_misses"], lookups), "ratio"),
        "improve.schedule_table_s": (t("improve.schedule_table"), "s"),
        "improve.schedule_table_calls": (per_op(calls["improve.schedule_table"], loops), "count"),
        "improve.knapsack_s": (t("improve.mckp_greedy"), "s"),
        "improve.compose_kept_ratio": (_ratio(c["improve.applied_moves"], c["improve.greedy_moves"]), "ratio"),
    }
