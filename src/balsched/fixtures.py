"""Bundled instances: a small modular-job demo, a window-evaluation set,
and the 1982 serial home-building planning dataset (kope-1982). Each is the
document an instance file holds, read by ``instance_from_dict``, so it
passes every schema check a file does.

The kope-1982 instance carries the historical inputs -- section and
building templates, the nine buildings, the initial eight-team schedule,
the factory's d1 capacity, the repair loop's budget and iteration cap, and
the published monthly requirement figures used by comparison reports.
The repair loop derives its correction variants from the current schedule,
so no variant catalogue is stored.
"""

from __future__ import annotations

from .fileio import FORMAT_VERSION, InstanceFile, instance_from_dict


def modular_demo() -> InstanceFile:
    """Three processors, twelve slots, four interval windows.

    Eight composite jobs over five element types: two long jobs back to back
    on the first processor, the rest packed with a few idle slots. The
    reference profile (2,3,2,1,1,0) matches the 9-element interval capacity.
    """
    return instance_from_dict({
        "format_version": FORMAT_VERSION,
        "mode": "modular",
        "modular": {
            "universe": {"types": ["e1", "e2", "e3", "e4", "e5", "idle"], "idle_index": 5},
            "jobs": [
                {"id": "a1", "chain": ["e1", "e2", "e3"]},
                {"id": "a2", "chain": ["e2", "e5"]},
                *({"id": f"a3{c}", "chain": ["e1", "e2", "e4", "e5"]} for c in "abcd"),
                *({"id": f"a4{c}", "chain": ["e1", "e2", "e2", "e3", "e4", "e5"]} for c in "ab"),
            ],
            "processors": ["P1", "P2", "P3"],
            "grid": {"interval_len_slots": 3, "k": 4},
            "schedule": {
                "processors": ["P1", "P2", "P3"],
                "placements": {
                    "P1": [["a4a", 0], ["a4b", 6]],
                    "P2": [["a2", 0], ["a3a", 3], ["a3b", 8]],
                    "P3": [["a3c", 0], ["a1", 4], ["a3d", 7]],
                },
                "horizon_slots": 12,
            },
            "reference_profile": [2, 3, 2, 1, 1, 0],
            "proximity_threshold": 15,
        },
    })


def jit_windows() -> InstanceFile:
    """Twelve window jobs on three machines, four fixed positions each."""
    keys = ("id", "processing_time", "t1", "t2", "machine", "position")
    rows = [
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
    return instance_from_dict({
        "format_version": FORMAT_VERSION,
        "mode": "modular",
        "modular": {
            "universe": {"types": ["e1", "idle"], "idle_index": 1},
            "jobs": [],
            "processors": ["P1"],
            "grid": {"interval_len_slots": 1, "k": 1},
            "schedule": {
                "processors": ["P1"], "placements": {"P1": []}, "horizon_slots": 1
            },
        },
        "window_jobs": [dict(zip(keys, row)) for row in rows],
        "penalty_weights": {"alpha": 1.0, "beta": 1.0},
    })


# Per-floor detail bills of the nine section templates (g: regular column
# templates, w: end/insert columns), floors r1..r8 x details d1..d8.
_G1 = {
    "r1": [0, 0, 0, 0, 0, 0, 0, 0],
    "r2": [19, 28, 21, 0, 0, 2, 2, 1],
    "r3": [16, 0, 27, 19, 0, 2, 5, 1],
    "r4": [16, 0, 27, 19, 0, 2, 6, 1],
    "r5": [16, 0, 27, 19, 0, 2, 6, 1],
    "r6": [16, 0, 27, 19, 0, 2, 6, 1],
    "r7": [20, 0, 33, 6, 22, 1, 5, 0],
    "r8": [10, 0, 3, 0, 6, 0, 1, 0],
}
_SECTION_ROWS = {
    "g1": _G1,
    "g2": _G1,
    "g5": {
        "r1": [0, 0, 0, 0, 0, 0, 0, 0],
        "r2": [21, 30, 0, 24, 0, 2, 2, 1],
        "r3": [18, 0, 30, 22, 0, 2, 5, 1],
        "r4": [19, 0, 29, 22, 0, 2, 6, 1],
        "r5": [18, 0, 30, 22, 0, 2, 6, 1],
        "r6": [18, 0, 30, 22, 0, 2, 6, 1],
        "r7": [23, 0, 38, 6, 26, 1, 5, 0],
        "r8": [10, 0, 3, 0, 6, 0, 1, 0],
    },
    "g9": {
        "r1": [0, 0, 0, 0, 0, 0, 0, 0],
        "r2": [22, 28, 0, 24, 0, 2, 2, 1],
        "r3": [19, 0, 27, 22, 0, 2, 5, 1],
        "r4": [19, 0, 27, 22, 0, 2, 6, 1],
        "r5": [19, 0, 27, 22, 0, 2, 6, 1],
        "r6": [19, 0, 27, 22, 0, 2, 6, 1],
        "r7": [25, 0, 45, 6, 29, 1, 5, 0],
        "r8": [10, 0, 3, 0, 6, 0, 1, 0],
    },
    "w1": {
        "r1": [2, 2, 0, 0, 0, 0, 0, 0],
        "r2": [1, 2, 0, 0, 0, 0, 0, 2],
        "r3": [1, 0, 2, 0, 0, 0, 0, 2],
        "r4": [1, 0, 2, 0, 0, 0, 0, 2],
        "r5": [1, 0, 2, 0, 0, 0, 0, 2],
        "r6": [1, 0, 2, 0, 0, 0, 0, 1],
        "r7": [0, 0, 2, 0, 0, 0, 0, 2],
        "r8": [0, 0, 0, 0, 0, 0, 0, 0],
    },
    "w2": {
        "r1": [0, 1, 0, 0, 0, 0, 0, 0],
        "r2": [0, 1, 0, 0, 0, 0, 0, 0],
        "r3": [0, 0, 1, 0, 0, 0, 0, 0],
        "r4": [0, 0, 1, 0, 0, 0, 0, 0],
        "r5": [0, 0, 1, 0, 0, 0, 0, 0],
        "r6": [0, 0, 1, 0, 0, 0, 0, 0],
        "r7": [0, 0, 0, 0, 0, 0, 0, 0],
        "r8": [0, 0, 0, 0, 0, 0, 0, 0],
    },
    "w3": {
        "r1": [1, 1, 0, 0, 0, 0, 0, 0],
        "r2": [1, 1, 0, 0, 0, 0, 0, 0],
        "r3": [1, 0, 1, 0, 0, 0, 0, 0],
        "r4": [1, 0, 1, 0, 0, 0, 0, 0],
        "r5": [1, 0, 1, 0, 0, 0, 0, 0],
        "r6": [1, 0, 1, 0, 0, 0, 0, 0],
        "r7": [1, 0, 1, 0, 0, 0, 0, 0],
        "r8": [0, 0, 0, 0, 0, 0, 0, 0],
    },
    "w6": {
        "r1": [3, 2, 0, 0, 0, 0, 0, 0],
        "r2": [3, 2, 0, 0, 0, 0, 0, 2],
        "r3": [3, 0, 2, 0, 0, 0, 0, 2],
        "r4": [3, 0, 2, 0, 0, 0, 0, 2],
        "r5": [3, 0, 2, 0, 0, 0, 0, 2],
        "r6": [3, 0, 2, 0, 0, 0, 0, 1],
        "r7": [2, 0, 3, 0, 0, 0, 0, 1],
        "r8": [0, 0, 0, 0, 0, 0, 0, 0],
    },
    "w7": {
        "r1": [3, 2, 0, 0, 0, 0, 0, 0],
        "r2": [3, 2, 0, 0, 0, 0, 0, 2],
        "r3": [3, 2, 0, 0, 0, 0, 0, 2],
        "r4": [3, 2, 0, 0, 0, 0, 0, 2],
        "r5": [3, 2, 0, 0, 0, 0, 0, 2],
        "r6": [3, 2, 0, 0, 0, 0, 0, 1],
        "r7": [3, 2, 0, 0, 0, 0, 0, 1],
        "r8": [0, 0, 0, 0, 0, 0, 0, 0],
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

# Section multisets per building: how many of each section type.
_SECTION_COUNTS = {
    "a1": {"g1": 2, "g2": 1, "g5": 1, "w1": 3, "w3": 4},
    "a2": {"g2": 2, "g9": 1, "w1": 1, "w2": 1, "w3": 4, "w7": 1},
    "a3": {"g1": 1, "g2": 1, "g5": 1, "w1": 2, "w3": 4},
    "a4": {"g2": 1, "g5": 1, "g9": 1, "w1": 1, "w2": 1, "w3": 6},
    "a5": {"g2": 1, "g5": 1, "g9": 2, "w1": 1, "w2": 2, "w3": 8},
    "a6": {"g1": 2, "g2": 1, "g5": 1, "w1": 1, "w2": 1, "w3": 4},
    "a7": {"g1": 1, "g2": 1, "g9": 1, "w1": 1, "w2": 1, "w3": 5, "w7": 1},
    "a8": {"g1": 1, "g2": 1, "g5": 1, "g9": 1, "w1": 2, "w2": 1, "w3": 6},
    "a9": {"g1": 1, "g2": 1, "g5": 1, "g9": 2, "w1": 2, "w2": 2, "w3": 7},
}

# Published monthly requirement figures for the initial schedule, d1..d8.
_REFERENCE_REQUIREMENTS = [
    [79, 122, 27, 70, 0, 8, 9, 4],
    [137, 0, 253, 166, 0, 16, 50, 8],
    [137, 0, 253, 166, 0, 16, 50, 8],
    [137, 0, 253, 166, 0, 16, 50, 8],
    [137, 0, 253, 166, 0, 16, 50, 8],
    [137, 0, 253, 166, 0, 16, 50, 8],
    [250, 92, 377, 279, 0, 29, 77, 14],
    [576, 93, 932, 659, 0, 66, 187, 41],
    [842, 181, 1300, 912, 0, 94, 251, 72],
    [1250, 222, 1866, 1277, 109, 129, 347, 101],
    [1468, 18, 2448, 1615, 84, 158, 461, 122],
    [1562, 231, 2385, 1654, 94, 164, 459, 139],
    [1446, 0, 2418, 1589, 59, 155, 452, 146],
    [1296, 0, 2187, 1452, 26, 142, 428, 138],
    [1156, 0, 1938, 1244, 80, 121, 373, 114],
    [965, 0, 1554, 810, 305, 83, 279, 76],
    [289, 0, 453, 305, 16, 29, 90, 26],
    [261, 0, 447, 305, 0, 29, 88, 26],
    [276, 0, 409, 164, 154, 17, 68, 13],
]


def kope_1982() -> InstanceFile:
    """Nine buildings, eight assembly teams, nineteen months."""
    keys = ("building_type", "general_square", "assembly_duration", "start")
    buildings = {
        bid: {**dict(zip(keys, row)), "section_counts": _SECTION_COUNTS[bid]}
        for bid, row in _BUILDINGS.items()
    }
    lanes = {
        "P1": [],
        "P2": [["a4", 7.0], ["a7", 11.8]],
        "P3": [["a1", 0.5], ["a6", 9.5]],
        "P4": [["a3", 6.5], ["a9", 11.0]],
        "P5": [["a5", 8.8]],
        "P6": [["a2", 8.0]],
        "P7": [],
        "P8": [["a8", 9.7]],
    }
    return instance_from_dict({
        "format_version": FORMAT_VERSION,
        "mode": "homebuilding",
        "homebuilding": {
            "section_types": _SECTION_ROWS,
            "building_types": {
                "18-floor": {"r2": 1, "r4": 11, "r5": 5, "r6": 1, "r7": 1, "r8": 1},
                "22-floor": {"r2": 1, "r3": 4, "r4": 11, "r5": 5, "r6": 1, "r7": 1, "r8": 1},
            },
            "buildings": buildings,
            "horizon_months": 19,
            "rate_basis": "U-1",
            "team_schedule": {"teams": list(lanes), "assignments": lanes},
            "capacity": {"d1": 1480.0},
            "improve": {"budget": 5.0, "max_iters": 10},
            "reference_requirements": {
                "months": list(range(1, 20)), "values": _REFERENCE_REQUIREMENTS
            },
        },
    })


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
