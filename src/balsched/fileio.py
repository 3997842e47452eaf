"""Instance files, CSV reports, and text Gantt rendering.

One JSON format carries both problem flavors, discriminated by ``mode``:
"modular" files hold an element universe, composite jobs, processors, a
grid, a slot schedule, and optionally a reference profile and window jobs;
"homebuilding" files hold section/building templates, buildings, a team
schedule, capacity, and optionally explicit correction groups, loop
parameters, and reference requirement figures for comparison reports.

Saving is canonical (sorted keys, two-space indent, trailing newline), so
equal instances serialize byte-identically; ``load(save(x)) == x``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .core import (
    CompositeJob,
    ElementUniverse,
    SlotSchedule,
    TimeGrid,
)
from .homebuilding import (
    DETAIL_TYPES,
    FLOOR_TYPES,
    Building,
    BuildingType,
    Project,
    RequirementTable,
    SectionType,
    TeamSchedule,
)
from .improve import CorrectionGroup, CorrectionVariant, ImproveParams
from .jit import PenaltyWeights, WindowJob

FORMAT_VERSION = 1

MODES = ("modular", "homebuilding")


class SchemaError(ValueError):
    """An instance file fails schema validation.

    ``issues`` hold "<json-pointer>: <problem>" strings.
    """

    def __init__(self, issues: Sequence[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


@dataclass(frozen=True)
class InstanceFile:
    """Everything one run needs, as loaded from a single JSON file."""

    mode: str
    format_version: int = FORMAT_VERSION
    # modular
    universe: ElementUniverse | None = None
    jobs: tuple[CompositeJob, ...] | None = None
    processors: tuple[str, ...] | None = None
    grid: TimeGrid | None = None
    schedule: SlotSchedule | None = None
    reference_profile: tuple[float, ...] | None = None
    proximity_threshold: float | None = None
    window_jobs: tuple[WindowJob, ...] | None = None
    penalty_weights: PenaltyWeights | None = None
    # homebuilding
    project: Project | None = None
    team_schedule: TeamSchedule | None = None
    capacity: Mapping[str, float] | None = None
    correction_groups: tuple[CorrectionGroup, ...] | None = None
    improve_params: ImproveParams | None = None
    reference_requirements: RequirementTable | None = None


# --- reading -----------------------------------------------------------------

def _require(data: Mapping, key: str, path: str, issues: list[str]):
    if key not in data:
        issues.append(f"{path}/{key}: missing")
        return None
    return data[key]


def _number(value, path: str, issues: list[str]) -> float:
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        issues.append(f"{path}: expected a finite number")
        return 0.0
    return value


def _load_universe(data, issues) -> ElementUniverse | None:
    if not isinstance(data, dict):
        issues.append("/modular/universe: expected an object")
        return None
    types = data.get("types")
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        issues.append("/modular/universe/types: expected a list of strings")
        return None
    idle_index = data.get("idle_index")
    if not isinstance(idle_index, int):
        issues.append("/modular/universe/idle_index: expected an integer")
        return None
    return ElementUniverse(types=tuple(types), idle_index=idle_index)


def _load_slot_schedule(data, issues) -> SlotSchedule | None:
    if not isinstance(data, dict):
        issues.append("/modular/schedule: expected an object")
        return None
    horizon = data.get("horizon_slots")
    if not isinstance(horizon, int):
        issues.append("/modular/schedule/horizon_slots: expected an integer")
        return None
    placements_raw = data.get("placements", {})
    if not isinstance(placements_raw, dict):
        issues.append("/modular/schedule/placements: expected an object")
        return None
    placements = {}
    for proc, entries in placements_raw.items():
        pairs = []
        for i, entry in enumerate(entries):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int)
            ):
                issues.append(
                    f"/modular/schedule/placements/{proc}/{i}: "
                    "expected [job id, start slot]"
                )
                continue
            pairs.append((entry[0], entry[1]))
        placements[proc] = tuple(pairs)
    processors = data.get("processors")
    if not isinstance(processors, list):
        issues.append("/modular/schedule/processors: expected a list")
        return None
    return SlotSchedule(
        processors=tuple(processors),
        placements=placements,
        horizon_slots=horizon,
    )


def _load_modular(block, issues, out: dict):
    if not isinstance(block, dict):
        issues.append("/modular: expected an object")
        return
    universe = _require(block, "universe", "/modular", issues)
    if universe is not None:
        out["universe"] = _load_universe(universe, issues)
    jobs_raw = _require(block, "jobs", "/modular", issues)
    if jobs_raw is not None:
        jobs = []
        for i, job in enumerate(jobs_raw):
            if not isinstance(job, dict) or "id" not in job or "chain" not in job:
                issues.append(f"/modular/jobs/{i}: expected id and chain")
                continue
            jobs.append(CompositeJob(id=job["id"], chain=tuple(job["chain"])))
        out["jobs"] = tuple(jobs)
    processors = _require(block, "processors", "/modular", issues)
    if processors is not None:
        out["processors"] = tuple(processors)
    grid_raw = _require(block, "grid", "/modular", issues)
    if isinstance(grid_raw, dict):
        try:
            out["grid"] = TimeGrid(
                interval_len_slots=int(grid_raw["interval_len_slots"]),
                k=int(grid_raw["k"]),
            )
        except (KeyError, TypeError, ValueError):
            issues.append("/modular/grid: expected interval_len_slots and k")
    elif grid_raw is not None:
        issues.append("/modular/grid: expected an object")
    schedule_raw = _require(block, "schedule", "/modular", issues)
    if schedule_raw is not None:
        out["schedule"] = _load_slot_schedule(schedule_raw, issues)
    if block.get("reference_profile") is not None:
        out["reference_profile"] = tuple(block["reference_profile"])
    if block.get("proximity_threshold") is not None:
        out["proximity_threshold"] = _number(
            block["proximity_threshold"], "/modular/proximity_threshold", issues
        )


def _load_section_types(data, issues) -> dict[str, SectionType]:
    sections = {}
    for sid, rows in data.items():
        path = f"/homebuilding/section_types/{sid}"
        if not isinstance(rows, dict):
            issues.append(f"{path}: expected floor rows")
            continue
        matrix = []
        ok = True
        for floor in FLOOR_TYPES:
            row = rows.get(floor)
            if not isinstance(row, list) or len(row) != len(DETAIL_TYPES):
                issues.append(
                    f"{path}/{floor}: expected {len(DETAIL_TYPES)} numbers"
                )
                ok = False
                break
            matrix.append(tuple(float(v) for v in row))
        if ok:
            try:
                sections[sid] = SectionType(id=sid, detail_matrix=tuple(matrix))
            except ValueError as exc:
                issues.append(f"{path}: {exc}")
    return sections


def _load_correction_groups(data, issues) -> tuple[CorrectionGroup, ...]:
    groups = []
    for i, g in enumerate(data):
        path = f"/homebuilding/correction_groups/{i}"
        try:
            variants = []
            for v in g["variants"]:
                variants.append(
                    CorrectionVariant(
                        kind=v["kind"],
                        days=v.get("days"),
                        buildings=(
                            tuple(v["buildings"]) if "buildings" in v else None
                        ),
                        profit=float(v.get("profit", 0.0)),
                        cost=float(v.get("cost", 0.0)),
                    )
                )
            groups.append(
                CorrectionGroup(
                    index=int(g["index"]),
                    targets=tuple(g["targets"]),
                    variants=tuple(variants),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            issues.append(f"{path}: {exc}")
    return tuple(groups)


def _load_homebuilding(block, issues, out: dict):
    if not isinstance(block, dict):
        issues.append("/homebuilding: expected an object")
        return
    section_types = _require(block, "section_types", "/homebuilding", issues)
    building_types_raw = _require(block, "building_types", "/homebuilding", issues)
    buildings_raw = _require(block, "buildings", "/homebuilding", issues)
    horizon = _require(block, "horizon_months", "/homebuilding", issues)
    schedule_raw = _require(block, "team_schedule", "/homebuilding", issues)
    if None in (section_types, building_types_raw, buildings_raw, horizon,
                schedule_raw):
        return

    sections = _load_section_types(section_types, issues)

    building_types = {}
    for bid, counts in building_types_raw.items():
        path = f"/homebuilding/building_types/{bid}"
        try:
            building_types[bid] = BuildingType(
                id=bid, floor_counts={k: int(v) for k, v in counts.items()}
            )
        except (AttributeError, TypeError, ValueError) as exc:
            issues.append(f"{path}: {exc}")

    buildings = {}
    for bid, b in buildings_raw.items():
        path = f"/homebuilding/buildings/{bid}"
        try:
            known = len(issues)
            duration = _number(
                b["assembly_duration"], f"{path}/assembly_duration", issues
            )
            start = _number(b["start"], f"{path}/start", issues)
            square = _number(
                b.get("general_square", 0.0), f"{path}/general_square", issues
            )
            if len(issues) > known:
                continue
            buildings[bid] = Building(
                id=bid,
                building_type=b["building_type"],
                section_counts={k: int(v) for k, v in b["section_counts"].items()},
                assembly_duration=float(duration),
                start=float(start),
                general_square=float(square),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            issues.append(f"{path}: {exc}")

    if not isinstance(schedule_raw, dict) or "teams" not in schedule_raw:
        issues.append("/homebuilding/team_schedule: expected teams and assignments")
        return
    assignments = {}
    for team, entries in schedule_raw.get("assignments", {}).items():
        pairs = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, list) or len(entry) != 2:
                issues.append(
                    f"/homebuilding/team_schedule/assignments/{team}/{i}: "
                    "expected [building id, start]"
                )
                continue
            start = _number(
                entry[1],
                f"/homebuilding/team_schedule/assignments/{team}/{i}/1",
                issues,
            )
            pairs.append((str(entry[0]), float(start)))
        assignments[team] = tuple(pairs)
    out["team_schedule"] = TeamSchedule(
        teams=tuple(schedule_raw["teams"]), assignments=assignments
    )

    if issues:
        return
    try:
        out["project"] = Project(
            section_types=sections,
            building_types=building_types,
            buildings=buildings,
            horizon_months=int(horizon),
            rate_basis=block.get("rate_basis", "U-1"),
        )
    except ValueError as exc:
        issues.append(f"/homebuilding: {exc}")

    capacity = block.get("capacity")
    if isinstance(capacity, dict):
        out["capacity"] = {}
        for detail, value in capacity.items():
            path = f"/homebuilding/capacity/{detail}"
            if detail not in DETAIL_TYPES:
                issues.append(f"{path}: unknown detail type")
                continue
            out["capacity"][detail] = float(_number(value, path, issues))
    elif capacity is not None:
        issues.append("/homebuilding/capacity: expected an object")
    if block.get("correction_groups") is not None:
        out["correction_groups"] = _load_correction_groups(
            block["correction_groups"], issues
        )
    if block.get("improve") is not None:
        imp = block["improve"]
        try:
            out["improve_params"] = ImproveParams(
                budget=float(imp.get("budget", 5.0)),
                max_iters=int(imp.get("max_iters", 10)),
            )
        except (TypeError, ValueError):
            issues.append("/homebuilding/improve: expected budget and max_iters")
    if block.get("reference_requirements") is not None:
        ref = block["reference_requirements"]
        try:
            out["reference_requirements"] = RequirementTable(
                months=tuple(int(m) for m in ref["months"]),
                values=tuple(
                    tuple(float(v) for v in row) for row in ref["values"]
                ),
                details=tuple(ref.get("details", DETAIL_TYPES)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            issues.append(f"/homebuilding/reference_requirements: {exc}")


def instance_from_dict(data: Any) -> InstanceFile:
    """Build an InstanceFile from parsed JSON, validating the schema.

    Raises:
        SchemaError: listing every problem with its JSON-pointer path.
    """
    issues: list[str] = []
    if not isinstance(data, dict):
        raise SchemaError(["/: expected a JSON object"])
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        issues.append(
            f"/format_version: expected {FORMAT_VERSION}, got {version!r}"
        )
    mode = data.get("mode")
    if mode not in MODES:
        issues.append(f"/mode: expected one of {MODES}, got {mode!r}")
        raise SchemaError(issues)

    other = "homebuilding" if mode == "modular" else "modular"
    if data.get(other) is not None:
        issues.append(
            f"/{other}: must not be populated in '{mode}' mode"
        )
    if data.get(mode) is None:
        issues.append(f"/{mode}: missing")
        raise SchemaError(issues)

    out: dict[str, Any] = {"mode": mode}
    if mode == "modular":
        _load_modular(data[mode], issues, out)
    else:
        _load_homebuilding(data[mode], issues, out)

    if data.get("window_jobs") is not None:
        jobs = []
        for i, j in enumerate(data["window_jobs"]):
            try:
                jobs.append(
                    WindowJob(
                        id=j["id"],
                        processing_time=float(j["processing_time"]),
                        t1=float(j["t1"]),
                        t2=float(j["t2"]),
                        machine=int(j.get("machine", 1)),
                        position=int(j.get("position", 1)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                issues.append(f"/window_jobs/{i}: {exc}")
        out["window_jobs"] = tuple(jobs)
    if data.get("penalty_weights") is not None:
        w = data["penalty_weights"]
        try:
            out["penalty_weights"] = PenaltyWeights(
                alpha=float(w["alpha"]), beta=float(w["beta"])
            )
        except (KeyError, TypeError, ValueError):
            issues.append("/penalty_weights: expected alpha and beta")

    if issues:
        raise SchemaError(issues)
    return InstanceFile(format_version=FORMAT_VERSION, **out)


def load_instance(path) -> InstanceFile:
    """Read and schema-validate an instance file.

    Raises:
        SchemaError: on malformed JSON (with line/column) or schema issues.
        OSError: if the file cannot be read.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            [f"/: invalid JSON at line {exc.lineno} column {exc.colno}: "
             f"{exc.msg}"]
        ) from None
    return instance_from_dict(data)


# --- writing -----------------------------------------------------------------

def instance_to_dict(instance: InstanceFile) -> dict:
    """The JSON-ready dictionary form of an instance file."""
    data: dict[str, Any] = {
        "format_version": instance.format_version,
        "mode": instance.mode,
    }
    if instance.mode == "modular":
        block: dict[str, Any] = {
            "universe": {
                "types": list(instance.universe.types),
                "idle_index": instance.universe.idle_index,
            },
            "jobs": [
                {"id": job.id, "chain": list(job.chain)}
                for job in instance.jobs
            ],
            "processors": list(instance.processors),
            "grid": {
                "interval_len_slots": instance.grid.interval_len_slots,
                "k": instance.grid.k,
            },
            "schedule": {
                "processors": list(instance.schedule.processors),
                "horizon_slots": instance.schedule.horizon_slots,
                "placements": {
                    proc: [[job_id, start] for job_id, start in pairs]
                    for proc, pairs in instance.schedule.placements.items()
                },
            },
        }
        if instance.reference_profile is not None:
            block["reference_profile"] = list(instance.reference_profile)
        if instance.proximity_threshold is not None:
            block["proximity_threshold"] = instance.proximity_threshold
        data["modular"] = block
    else:
        project = instance.project
        block = {
            "section_types": {
                sid: {
                    floor: list(row)
                    for floor, row in zip(FLOOR_TYPES, st.detail_matrix)
                }
                for sid, st in project.section_types.items()
            },
            "building_types": {
                bid: dict(sorted(bt.floor_counts.items()))
                for bid, bt in project.building_types.items()
            },
            "buildings": {
                bid: {
                    "building_type": b.building_type,
                    "section_counts": dict(sorted(b.section_counts.items())),
                    "assembly_duration": b.assembly_duration,
                    "start": b.start,
                    "general_square": b.general_square,
                }
                for bid, b in project.buildings.items()
            },
            "horizon_months": project.horizon_months,
            "rate_basis": project.rate_basis,
            "team_schedule": {
                "teams": list(instance.team_schedule.teams),
                "assignments": {
                    team: [
                        [bid, start]
                        for bid, start in instance.team_schedule.assignments.get(
                            team, ()
                        )
                    ]
                    for team in instance.team_schedule.teams
                },
            },
        }
        if instance.capacity is not None:
            block["capacity"] = dict(sorted(instance.capacity.items()))
        if instance.correction_groups is not None:
            block["correction_groups"] = [
                {
                    "index": g.index,
                    "targets": list(g.targets),
                    "variants": [_variant_to_dict(v) for v in g.variants],
                }
                for g in instance.correction_groups
            ]
        if instance.improve_params is not None:
            block["improve"] = {
                "budget": instance.improve_params.budget,
                "max_iters": instance.improve_params.max_iters,
            }
        if instance.reference_requirements is not None:
            ref = instance.reference_requirements
            block["reference_requirements"] = {
                "months": list(ref.months),
                "details": list(ref.details),
                "values": [list(row) for row in ref.values],
            }
        data["homebuilding"] = block

    if instance.window_jobs is not None:
        data["window_jobs"] = [
            {
                "id": j.id,
                "processing_time": j.processing_time,
                "t1": j.t1,
                "t2": j.t2,
                "machine": j.machine,
                "position": j.position,
            }
            for j in instance.window_jobs
        ]
    if instance.penalty_weights is not None:
        data["penalty_weights"] = {
            "alpha": instance.penalty_weights.alpha,
            "beta": instance.penalty_weights.beta,
        }
    return data


def _variant_to_dict(v: CorrectionVariant) -> dict:
    out: dict[str, Any] = {"kind": v.kind, "profit": v.profit, "cost": v.cost}
    if v.days is not None:
        out["days"] = v.days
    if v.buildings is not None:
        out["buildings"] = list(v.buildings)
    return out


def save_instance(instance: InstanceFile, path) -> None:
    """Write the canonical JSON form (stable bytes for equal instances)."""
    text = json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


# --- reports -----------------------------------------------------------------

def export_requirements_csv(table: RequirementTable, path) -> None:
    """Month-by-detail requirement table as CSV (two decimals)."""
    lines = ["month," + ",".join(table.details)]
    for month, row in zip(table.months, table.values):
        lines.append(f"{month}," + ",".join(f"{v:.2f}" for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def export_balance_curve(
    table: RequirementTable,
    capacity: Mapping[str, float] | float,
    detail: str,
    path,
) -> None:
    """Per-month required vs capacity curve for one detail type.

    Raises:
        ValueError: on an unknown detail id or a missing/non-finite capacity.
    """
    if detail not in table.details:
        raise ValueError(f"unknown detail type '{detail}'")
    cap = (
        capacity if isinstance(capacity, (int, float))
        else capacity.get(detail, float("inf"))
    )
    if not math.isfinite(cap):
        raise ValueError(f"no finite capacity for detail '{detail}'")
    lines = ["month,required,capacity,violation"]
    for month, required in zip(table.months, table.column(detail)):
        excess = max(0.0, required - cap)
        lines.append(f"{month},{required:.2f},{cap:.2f},{excess:.2f}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ComparisonRow:
    """One cell of computed-vs-reference requirement comparison."""

    month: int
    detail: str
    computed: float
    reference: float
    rel_deviation: float


def comparison_report(
    table: RequirementTable, reference: RequirementTable
) -> tuple[ComparisonRow, ...]:
    """Cell-by-cell comparison of a computed table against reference figures.

    Relative deviation is |computed - reference| / reference (0 where both
    vanish, +inf where only the reference does).
    """
    rows = []
    for month in reference.months:
        computed_row = table.row(month)
        reference_row = reference.row(month)
        for j, detail in enumerate(reference.details):
            c, r = computed_row[j], reference_row[j]
            if r > 0:
                rel = abs(c - r) / r
            elif abs(c) < 1e-9:
                rel = 0.0
            else:
                rel = float("inf")
            rows.append(
                ComparisonRow(
                    month=month,
                    detail=detail,
                    computed=c,
                    reference=r,
                    rel_deviation=rel,
                )
            )
    return tuple(rows)


def export_comparison_csv(rows: Sequence[ComparisonRow], path) -> None:
    """Comparison report as CSV (two decimals; deviation in percent)."""
    lines = ["month,detail,computed,reference,rel_deviation_pct"]
    for row in rows:
        pct = (
            "inf" if math.isinf(row.rel_deviation)
            else f"{100 * row.rel_deviation:.2f}"
        )
        lines.append(
            f"{row.month},{row.detail},{row.computed:.2f},"
            f"{row.reference:.2f},{pct}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# --- text Gantt --------------------------------------------------------------

def render_gantt(project: Project, schedule: TeamSchedule) -> str:
    """Month-granular text chart, one line per team.

    A building occupies cells floor(start)+1 through ceil(end - 0.5) (at
    least one cell); when two placements on a team round onto the same
    boundary cell, the earlier-starting one keeps it. Output is
    deterministic for a given schedule.
    """
    horizon = project.horizon_months
    width = max(3, max((len(b) for b in project.buildings), default=2) + 1)
    header = "team " + "".join(f"{m:>{width}}" for m in range(1, horizon + 1))
    lines = [header]
    for team in schedule.teams:
        cells = ["."] * horizon
        placements = sorted(
            schedule.assignments.get(team, ()), key=lambda p: (p[1], p[0])
        )
        for building_id, start in placements:
            duration = project.buildings[building_id].assembly_duration
            end = start + duration
            first = int(math.floor(start)) + 1
            last = max(first, int(math.ceil(end - 0.5)))
            for month in range(max(1, first), min(horizon, last) + 1):
                if cells[month - 1] == ".":
                    cells[month - 1] = building_id
        line = f"{team:<5}" + "".join(f"{c:>{width}}" for c in cells)
        lines.append(line)
    return "\n".join(lines) + "\n"
