"""Bundled instances: a small modular-job demo, a window-evaluation set,
and the 1982 serial home-building planning dataset (kope-1982).

The kope-1982 instance carries the historical inputs -- section and
building templates, the nine buildings, the initial eight-team schedule,
the factory's d1 capacity, the repair loop's budget and iteration cap, and
the published monthly requirement figures used by comparison reports.
The repair loop derives its correction variants from the current schedule,
so no variant catalogue is stored.
"""

from __future__ import annotations

from .core import CompositeJob, ElementUniverse, JobTable, SlotSchedule, TimeGrid
from .fileio import InstanceFile
from .homebuilding import (
    Building,
    BuildingType,
    Project,
    RequirementTable,
    SectionType,
    TeamSchedule,
)
from .improve import ImproveParams
from .jit import PenaltyWeights, WindowJob, WindowTable


def modular_demo() -> InstanceFile:
    """Three processors, twelve slots, four interval windows.

    Eight composite jobs over five element types: two long jobs back to back
    on the first processor, the rest packed with a few idle slots. The
    reference profile (2,3,2,1,1,0) matches the 9-element interval capacity.
    """
    universe = ElementUniverse(
        types=("e1", "e2", "e3", "e4", "e5", "idle"), idle_index=5
    )
    chains = {
        "a1": ("e1", "e2", "e3"),
        "a2": ("e2", "e5"),
        "a3": ("e1", "e2", "e4", "e5"),
        "a4": ("e1", "e2", "e2", "e3", "e4", "e5"),
    }
    jobs = JobTable.of(universe, (
        CompositeJob("a1", chains["a1"]),
        CompositeJob("a2", chains["a2"]),
        CompositeJob("a3a", chains["a3"]),
        CompositeJob("a3b", chains["a3"]),
        CompositeJob("a3c", chains["a3"]),
        CompositeJob("a3d", chains["a3"]),
        CompositeJob("a4a", chains["a4"]),
        CompositeJob("a4b", chains["a4"]),
    ))
    schedule = SlotSchedule(
        processors=("P1", "P2", "P3"),
        placements={
            "P1": (("a4a", 0), ("a4b", 6)),
            "P2": (("a2", 0), ("a3a", 3), ("a3b", 8)),
            "P3": (("a3c", 0), ("a1", 4), ("a3d", 7)),
        },
        horizon_slots=12,
    )
    return InstanceFile(
        mode="modular",
        universe=universe,
        jobs=jobs,
        processors=("P1", "P2", "P3"),
        grid=TimeGrid(interval_len_slots=3, k=4),
        schedule=schedule,
        reference_profile=(2, 3, 2, 1, 1, 0),
        proximity_threshold=15,
    )


def jit_windows() -> InstanceFile:
    """Twelve window jobs on three machines, four fixed positions each."""
    universe = ElementUniverse(types=("e1", "idle"), idle_index=1)
    rows = [
        # (id, processing time, t1, t2, machine, position)
        ("a1", 1.2, 0.0, 1.5, 1, 1),
        ("a2", 1.3, 1.0, 2.5, 1, 2),
        ("a3", 1.2, 2.0, 4.0, 1, 3),
        ("a4", 1.1, 3.7, 5.0, 1, 4),
        ("a5", 0.7, 0.0, 2.0, 2, 1),
        ("a6", 0.6, 1.7, 2.7, 2, 2),
        ("a7", 0.7, 2.5, 4.0, 2, 3),
        ("a8", 1.0, 3.9, 5.0, 2, 4),
        ("a9", 1.2, 0.0, 1.5, 3, 1),
        ("a10", 1.3, 1.0, 2.5, 3, 2),
        ("a11", 1.2, 2.6, 4.0, 3, 3),
        ("a12", 1.2, 3.0, 5.0, 3, 4),
    ]
    return InstanceFile(
        mode="modular",
        universe=universe,
        jobs=JobTable.of(universe, ()),
        processors=("P1",),
        grid=TimeGrid(interval_len_slots=1, k=1),
        schedule=SlotSchedule(
            processors=("P1",), placements={"P1": ()}, horizon_slots=1
        ),
        window_jobs=WindowTable.of(
            WindowJob(
                id=r[0], processing_time=r[1], t1=r[2], t2=r[3],
                machine=r[4], position=r[5],
            )
            for r in rows
        ),
        penalty_weights=PenaltyWeights(alpha=1.0, beta=1.0),
    )


# Per-floor detail bills of the nine section templates (g: regular column
# templates, w: end/insert columns), floors r1..r8 x details d1..d8.
_G1 = {
    "r1": (0, 0, 0, 0, 0, 0, 0, 0),
    "r2": (19, 28, 21, 0, 0, 2, 2, 1),
    "r3": (16, 0, 27, 19, 0, 2, 5, 1),
    "r4": (16, 0, 27, 19, 0, 2, 6, 1),
    "r5": (16, 0, 27, 19, 0, 2, 6, 1),
    "r6": (16, 0, 27, 19, 0, 2, 6, 1),
    "r7": (20, 0, 33, 6, 22, 1, 5, 0),
    "r8": (10, 0, 3, 0, 6, 0, 1, 0),
}
_SECTION_ROWS = {
    "g1": _G1,
    "g2": _G1,
    "g5": {
        "r1": (0, 0, 0, 0, 0, 0, 0, 0),
        "r2": (21, 30, 0, 24, 0, 2, 2, 1),
        "r3": (18, 0, 30, 22, 0, 2, 5, 1),
        "r4": (19, 0, 29, 22, 0, 2, 6, 1),
        "r5": (18, 0, 30, 22, 0, 2, 6, 1),
        "r6": (18, 0, 30, 22, 0, 2, 6, 1),
        "r7": (23, 0, 38, 6, 26, 1, 5, 0),
        "r8": (10, 0, 3, 0, 6, 0, 1, 0),
    },
    "g9": {
        "r1": (0, 0, 0, 0, 0, 0, 0, 0),
        "r2": (22, 28, 0, 24, 0, 2, 2, 1),
        "r3": (19, 0, 27, 22, 0, 2, 5, 1),
        "r4": (19, 0, 27, 22, 0, 2, 6, 1),
        "r5": (19, 0, 27, 22, 0, 2, 6, 1),
        "r6": (19, 0, 27, 22, 0, 2, 6, 1),
        "r7": (25, 0, 45, 6, 29, 1, 5, 0),
        "r8": (10, 0, 3, 0, 6, 0, 1, 0),
    },
    "w1": {
        "r1": (2, 2, 0, 0, 0, 0, 0, 0),
        "r2": (1, 2, 0, 0, 0, 0, 0, 2),
        "r3": (1, 0, 2, 0, 0, 0, 0, 2),
        "r4": (1, 0, 2, 0, 0, 0, 0, 2),
        "r5": (1, 0, 2, 0, 0, 0, 0, 2),
        "r6": (1, 0, 2, 0, 0, 0, 0, 1),
        "r7": (0, 0, 2, 0, 0, 0, 0, 2),
        "r8": (0, 0, 0, 0, 0, 0, 0, 0),
    },
    "w2": {
        "r1": (0, 1, 0, 0, 0, 0, 0, 0),
        "r2": (0, 1, 0, 0, 0, 0, 0, 0),
        "r3": (0, 0, 1, 0, 0, 0, 0, 0),
        "r4": (0, 0, 1, 0, 0, 0, 0, 0),
        "r5": (0, 0, 1, 0, 0, 0, 0, 0),
        "r6": (0, 0, 1, 0, 0, 0, 0, 0),
        "r7": (0, 0, 0, 0, 0, 0, 0, 0),
        "r8": (0, 0, 0, 0, 0, 0, 0, 0),
    },
    "w3": {
        "r1": (1, 1, 0, 0, 0, 0, 0, 0),
        "r2": (1, 1, 0, 0, 0, 0, 0, 0),
        "r3": (1, 0, 1, 0, 0, 0, 0, 0),
        "r4": (1, 0, 1, 0, 0, 0, 0, 0),
        "r5": (1, 0, 1, 0, 0, 0, 0, 0),
        "r6": (1, 0, 1, 0, 0, 0, 0, 0),
        "r7": (1, 0, 1, 0, 0, 0, 0, 0),
        "r8": (0, 0, 0, 0, 0, 0, 0, 0),
    },
    "w6": {
        "r1": (3, 2, 0, 0, 0, 0, 0, 0),
        "r2": (3, 2, 0, 0, 0, 0, 0, 2),
        "r3": (3, 0, 2, 0, 0, 0, 0, 2),
        "r4": (3, 0, 2, 0, 0, 0, 0, 2),
        "r5": (3, 0, 2, 0, 0, 0, 0, 2),
        "r6": (3, 0, 2, 0, 0, 0, 0, 1),
        "r7": (2, 0, 3, 0, 0, 0, 0, 1),
        "r8": (0, 0, 0, 0, 0, 0, 0, 0),
    },
    "w7": {
        "r1": (3, 2, 0, 0, 0, 0, 0, 0),
        "r2": (3, 2, 0, 0, 0, 0, 0, 2),
        "r3": (3, 2, 0, 0, 0, 0, 0, 2),
        "r4": (3, 2, 0, 0, 0, 0, 0, 2),
        "r5": (3, 2, 0, 0, 0, 0, 0, 2),
        "r6": (3, 2, 0, 0, 0, 0, 0, 1),
        "r7": (3, 2, 0, 0, 0, 0, 0, 1),
        "r8": (0, 0, 0, 0, 0, 0, 0, 0),
    },
}

# Building rows: (type, square, duration months, start month).
_BUILDINGS = {
    "a1": ("18-floor", 17.5, 9.0, 0.5),
    "a2": ("22-floor", 16.4, 6.2, 8.0),
    "a3": ("18-floor", 13.3, 4.5, 6.5),
    "a4": ("18-floor", 17.7, 4.8, 7.0),
    "a5": ("22-floor", 24.0, 6.4, 8.8),
    "a6": ("22-floor", 11.3, 3.0, 9.5),
    "a7": ("22-floor", 16.3, 4.3, 11.8),
    "a8": ("22-floor", 22.7, 6.1, 9.7),
    "a9": ("22-floor", 29.0, 7.8, 11.0),
}

# Section multisets per building, order (g1, g2, g5, g9, w1, w2, w3, w6, w7).
_SECTION_COUNTS = {
    "a1": (2, 1, 1, 0, 3, 0, 4, 0, 0),
    "a2": (0, 2, 0, 1, 1, 1, 4, 0, 1),
    "a3": (1, 1, 1, 0, 2, 0, 4, 0, 0),
    "a4": (0, 1, 1, 1, 1, 1, 6, 0, 0),
    "a5": (0, 1, 1, 2, 1, 2, 8, 0, 0),
    "a6": (2, 1, 1, 0, 1, 1, 4, 0, 0),
    "a7": (1, 1, 0, 1, 1, 1, 5, 0, 1),
    "a8": (1, 1, 1, 1, 2, 1, 6, 0, 0),
    "a9": (1, 1, 1, 2, 2, 2, 7, 0, 0),
}
_SECTION_ORDER = ("g1", "g2", "g5", "g9", "w1", "w2", "w3", "w6", "w7")

# Published monthly requirement figures for the initial schedule, d1..d8.
_REFERENCE_REQUIREMENTS = (
    (79, 122, 27, 70, 0, 8, 9, 4),
    (137, 0, 253, 166, 0, 16, 50, 8),
    (137, 0, 253, 166, 0, 16, 50, 8),
    (137, 0, 253, 166, 0, 16, 50, 8),
    (137, 0, 253, 166, 0, 16, 50, 8),
    (137, 0, 253, 166, 0, 16, 50, 8),
    (250, 92, 377, 279, 0, 29, 77, 14),
    (576, 93, 932, 659, 0, 66, 187, 41),
    (842, 181, 1300, 912, 0, 94, 251, 72),
    (1250, 222, 1866, 1277, 109, 129, 347, 101),
    (1468, 18, 2448, 1615, 84, 158, 461, 122),
    (1562, 231, 2385, 1654, 94, 164, 459, 139),
    (1446, 0, 2418, 1589, 59, 155, 452, 146),
    (1296, 0, 2187, 1452, 26, 142, 428, 138),
    (1156, 0, 1938, 1244, 80, 121, 373, 114),
    (965, 0, 1554, 810, 305, 83, 279, 76),
    (289, 0, 453, 305, 16, 29, 90, 26),
    (261, 0, 447, 305, 0, 29, 88, 26),
    (276, 0, 409, 164, 154, 17, 68, 13),
)

def kope_1982() -> InstanceFile:
    """Nine buildings, eight assembly teams, nineteen months."""
    section_types = {
        sid: SectionType(
            id=sid,
            detail_matrix=tuple(
                tuple(float(v) for v in rows[floor])
                for floor in ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8")
            ),
        )
        for sid, rows in _SECTION_ROWS.items()
    }
    building_types = {
        "18-floor": BuildingType(
            id="18-floor",
            floor_counts={"r2": 1, "r4": 11, "r5": 5, "r6": 1, "r7": 1, "r8": 1},
        ),
        "22-floor": BuildingType(
            id="22-floor",
            floor_counts={
                "r2": 1, "r3": 4, "r4": 11, "r5": 5, "r6": 1, "r7": 1, "r8": 1
            },
        ),
    }
    buildings = {}
    for bid, (btype, square, duration, start) in _BUILDINGS.items():
        counts = {
            section: count
            for section, count in zip(_SECTION_ORDER, _SECTION_COUNTS[bid])
            if count
        }
        buildings[bid] = Building(
            id=bid,
            building_type=btype,
            section_counts=counts,
            assembly_duration=duration,
            start=start,
            general_square=square,
        )
    project = Project(
        section_types=section_types,
        building_types=building_types,
        buildings=buildings,
        horizon_months=19,
        rate_basis="U-1",
    )
    team_schedule = TeamSchedule(
        teams=("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"),
        assignments={
            "P1": (),
            "P2": (("a4", 7.0), ("a7", 11.8)),
            "P3": (("a1", 0.5), ("a6", 9.5)),
            "P4": (("a3", 6.5), ("a9", 11.0)),
            "P5": (("a5", 8.8),),
            "P6": (("a2", 8.0),),
            "P7": (),
            "P8": (("a8", 9.7),),
        },
    )
    return InstanceFile(
        mode="homebuilding",
        project=project,
        team_schedule=team_schedule,
        capacity={"d1": 1480.0},
        improve_params=ImproveParams(budget=5.0, max_iters=10),
        reference_requirements=RequirementTable(
            months=tuple(range(1, 20)),
            values=tuple(
                tuple(float(v) for v in row) for row in _REFERENCE_REQUIREMENTS
            ),
        ),
    )


_FIXTURES = {
    "modular-demo": modular_demo,
    "jit-windows": jit_windows,
    "kope-1982": kope_1982,
}


def list_fixtures() -> list[str]:
    return sorted(_FIXTURES)


def build_fixture(name: str) -> InstanceFile:
    """Construct a bundled instance by name.

    Raises:
        KeyError: for an unknown fixture name.
    """
    if name not in _FIXTURES:
        raise KeyError(
            f"unknown fixture '{name}'; available: {', '.join(list_fixtures())}"
        )
    return _FIXTURES[name]()
