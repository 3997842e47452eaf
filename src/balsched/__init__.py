"""Interval-balanced scheduling of composite modular jobs and serial
home-building programmes.

The package covers four connected capabilities:

* slot schedules for composite jobs on identical processors, with
  per-interval element bags and a prefix-sum proximity measure against a
  reference profile (:mod:`balsched.core`, :mod:`balsched.balance`);
* just-in-time window evaluation with earliness/tardiness penalties and
  an earliest-start dispatcher (:mod:`balsched.jit`);
* the monthly detail-requirement cascade of a multi-team house-building
  programme (:mod:`balsched.homebuilding`);
* schedule repair by shift/exchange corrections chosen through a
  multiple-choice knapsack, inside a violation-driven improvement loop
  (:mod:`balsched.improve`).

JSON persistence, CSV exports, and text rendering live in
:mod:`balsched.fileio`; bundled worked instances in
:mod:`balsched.fixtures`; the command-line surface in
:mod:`balsched.cli`.
"""

from .balance import (
    BalanceVerdict,
    balance_verdict,
    count_vector,
    proximity,
)
from .core import (
    CompositeJob,
    ElementUniverse,
    Instance,
    IntervalBag,
    JobTable,
    SlotLane,
    SlotSchedule,
    TimeGrid,
    ValidationError,
    collect_violations,
    interval_bags,
    makespan,
    schedule_violations,
    validate_instance,
    validate_schedule,
)
from .fileio import (
    ComparisonRow,
    InstanceFile,
    SchemaError,
    comparison_report,
    export_balance_curve,
    export_comparison_csv,
    export_requirements_csv,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    render_gantt,
    save_instance,
)
from .fixtures import build_fixture, list_fixtures
from .homebuilding import (
    Building,
    BuildingTable,
    BuildingType,
    MonthlyFloorProfile,
    Project,
    RequirementTable,
    SectionType,
    TeamSchedule,
    building_requirement_table,
    detail_shares,
    floor_sequence,
    horizon_requirement_table,
    monthly_detail_requirements,
    monthly_floor_requirements,
    section_progress,
    team_schedule_violations,
    validate_team_schedule,
)
from .improve import (
    BudgetedMCKP,
    CascadeCache,
    CorrectionGroup,
    CorrectionVariant,
    ImproveParams,
    IterationRecord,
    LoopResult,
    Selection,
    capacity_vector,
    generate_correction_groups,
    improvement_loop,
    max_violation,
    mckp_greedy,
    score_variant,
    violated_months,
    violation_measure,
)
from .jit import (
    PenaltyWeights,
    WindowJob,
    WindowScheduleResult,
    WindowTable,
    earliness,
    penalty_max,
    penalty_sum,
    schedule_windows,
    tardiness,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceVerdict",
    "Building",
    "BuildingTable",
    "BuildingType",
    "BudgetedMCKP",
    "CascadeCache",
    "ComparisonRow",
    "CompositeJob",
    "CorrectionGroup",
    "CorrectionVariant",
    "ElementUniverse",
    "ImproveParams",
    "Instance",
    "InstanceFile",
    "IntervalBag",
    "IterationRecord",
    "JobTable",
    "LoopResult",
    "MonthlyFloorProfile",
    "PenaltyWeights",
    "Project",
    "RequirementTable",
    "SchemaError",
    "SectionType",
    "Selection",
    "SlotLane",
    "SlotSchedule",
    "TeamSchedule",
    "TimeGrid",
    "ValidationError",
    "WindowJob",
    "WindowScheduleResult",
    "WindowTable",
    "balance_verdict",
    "build_fixture",
    "building_requirement_table",
    "capacity_vector",
    "collect_violations",
    "comparison_report",
    "count_vector",
    "detail_shares",
    "earliness",
    "export_balance_curve",
    "export_comparison_csv",
    "export_requirements_csv",
    "floor_sequence",
    "generate_correction_groups",
    "horizon_requirement_table",
    "improvement_loop",
    "instance_from_dict",
    "instance_to_dict",
    "interval_bags",
    "list_fixtures",
    "load_instance",
    "makespan",
    "max_violation",
    "mckp_greedy",
    "monthly_detail_requirements",
    "monthly_floor_requirements",
    "penalty_max",
    "penalty_sum",
    "proximity",
    "render_gantt",
    "save_instance",
    "schedule_violations",
    "schedule_windows",
    "score_variant",
    "section_progress",
    "team_schedule_violations",
    "tardiness",
    "validate_instance",
    "validate_schedule",
    "validate_team_schedule",
    "violated_months",
    "violation_measure",
]
