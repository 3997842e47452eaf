"""Seeded instance generators for the balsched benchmark.

The generators build plain JSON-ready dictionaries in the instance-file
format. The program under test only ever sees the files written from them.
Everything here is derived from ``random.Random(seed)``, so one seed always
gives byte-identical files.

The home-building generator follows the rule the project roadmap fixes for
synthetic scale tests: the nine kope-1982 building templates are repeated
round-robin, each placed back to back on the least-loaded team after a
seeded gap of 0, 0.2 or 0.5 months, and the d1 capacity is 0.8 times the
d1 peak of that initial schedule. The peak comes from the closed-form
cascade below, which is the benchmark's own and shares no code with the
package.
"""

from __future__ import annotations

import json
import math
import random

FLOORS = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8")
N_DETAILS = 8
GAPS = (0.0, 0.2, 0.5)
CAPACITY_SHARE = 0.8


def write_json(data: dict, path: str) -> None:
    """Write ``data`` as indented, key-sorted JSON, as ``save_instance`` does."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


# --- home building --------------------------------------------------------


def unit_rows(block: dict, building: dict) -> list[list[float]]:
    """Detail bill of each floor unit a section stack completes, bottom up.

    One row per completed unit of the building's floor ladder, each row the
    building's section counts times the section templates' row for that
    floor. Under the "U-1" rate basis the top unit is never completed.
    """
    counts = block["building_types"][building["building_type"]]
    layout = [f for f in FLOORS for _ in range(counts.get(f, 0))]
    if block.get("rate_basis", "U-1") == "U-1":
        layout = layout[:-1]
    rows = []
    for floor in layout:
        row = [0.0] * N_DETAILS
        for section, n in building["section_counts"].items():
            for k, v in enumerate(block["section_types"][section][floor]):
                row[k] += n * v
        rows.append(row)
    return rows


def building_bill(block: dict, building: dict) -> list[float]:
    """Total details one building needs over all of its completed units."""
    return [sum(col) for col in zip(*unit_rows(block, building))] or [0.0] * N_DETAILS


def cascade_column(block: dict, detail: int) -> list[float]:
    """Monthly requirement of one detail for the block's team schedule.

    Closed form: a section's completed units grow linearly,
    ``c(t) = clamp(rate * (t - start), 0, units)``, so the cumulative bill
    is ``P[floor(c)] + frac(c) * D[floor(c)]`` over the unit rows D and
    their prefix sums P, and month m needs ``G(c(m)) - G(c(m - 1))``.
    """
    horizon = block["horizon_months"]
    column = [0.0] * horizon
    for entries in block["team_schedule"]["assignments"].values():
        for building_id, start in entries:
            building = block["buildings"][building_id]
            d = [row[detail] for row in unit_rows(block, building)]
            prefix = [0.0]
            for v in d:
                prefix.append(prefix[-1] + v)
            units = len(d)
            rate = units / building["assembly_duration"]

            def cumulative(t: float) -> float:
                c = min(max(rate * (t - start), 0.0), float(units))
                whole = int(c)
                if whole >= units:
                    return prefix[units]
                return prefix[whole] + (c - whole) * d[whole]

            previous = cumulative(0.0)
            for m in range(1, horizon + 1):
                current = cumulative(float(m))
                column[m - 1] += current - previous
                previous = current
    return column


def synthetic_project(kope: dict, n_buildings: int, n_teams: int, seed: int) -> dict:
    """A home-building instance grown from the kope-1982 templates.

    ``kope`` is the kope-1982 instance file as a dictionary. Building i
    copies kope building ``a{i mod 9 + 1}`` (type, sections, duration,
    square) and goes to the team whose lane ends earliest (lowest index on
    ties), after a seeded gap. Starts are rounded to 0.1 month; every
    duration and gap is a multiple of 0.1, so lanes never overlap.
    """
    rng = random.Random(seed)
    source = kope["homebuilding"]
    templates = [source["buildings"][k] for k in sorted(source["buildings"], key=lambda b: int(b[1:]))]
    teams = [f"T{t + 1:02d}" for t in range(n_teams)]
    lane_end = [0.0] * n_teams
    assignments: dict[str, list] = {team: [] for team in teams}
    buildings = {}
    for i in range(n_buildings):
        template = templates[i % len(templates)]
        building_id = f"b{i + 1:04d}"
        t = min(range(n_teams), key=lambda k: (lane_end[k], k))
        start = round(lane_end[t] + rng.choice(GAPS), 1)
        buildings[building_id] = {
            "building_type": template["building_type"],
            "section_counts": dict(template["section_counts"]),
            "assembly_duration": template["assembly_duration"],
            "general_square": template["general_square"],
            "start": start,
        }
        assignments[teams[t]].append([building_id, start])
        lane_end[t] = start + template["assembly_duration"]
    block = {
        "section_types": source["section_types"],
        "building_types": source["building_types"],
        "buildings": buildings,
        "horizon_months": math.ceil(max(lane_end) - 1e-9),
        "rate_basis": "U-1",
        "team_schedule": {"teams": teams, "assignments": assignments},
        "improve": {"budget": 5.0, "max_iters": 10},
    }
    peak = max(cascade_column(block, 0))
    block["capacity"] = {"d1": round(CAPACITY_SHARE * peak, 2)}
    return {"format_version": 1, "mode": "homebuilding", "homebuilding": block}


# --- modular jobs and window jobs -----------------------------------------


def modular_instance(
    seed: int,
    n_processors: int = 32,
    n_types: int = 24,
    interval_len: int = 12,
    n_intervals: int = 200,
    n_machines: int = 40,
    jobs_per_machine: int = 100,
) -> dict:
    """A modular instance with a full slot schedule and window jobs.

    Each processor's lane is filled left to right with jobs of 4 to 12
    random elements, separated by idle gaps of 0 to 2 slots, until the next
    job would pass the horizon. The reference profile is the schedule's own
    mean interval tally (largest-remainder rounded to the interval
    capacity). The threshold is 4 * n_types; at full size most intervals
    exceed it, so the verdict lists many violating intervals. Window jobs
    run in fixed per-machine sequences with jittered windows, so some
    finish late.
    """
    rng = random.Random(seed)
    types = [f"e{k + 1:02d}" for k in range(n_types)] + ["idle"]
    horizon = interval_len * n_intervals
    processors = [f"P{p + 1:02d}" for p in range(n_processors)]
    jobs = []
    placements: dict[str, list] = {}
    tally = [0] * n_types
    for proc in processors:
        lane = []
        t = rng.choice((0, 1, 2))
        while True:
            length = rng.randint(4, 12)
            if t + length > horizon:
                break
            chain_idx = [rng.randrange(n_types) for _ in range(length)]
            for k in chain_idx:
                tally[k] += 1
            job_id = f"j{len(jobs) + 1:05d}"
            jobs.append({"id": job_id, "chain": [types[k] for k in chain_idx]})
            lane.append([job_id, t])
            t += length + rng.choice((0, 0, 1, 2))
        placements[proc] = lane
    capacity = interval_len * n_processors
    busy = [v / n_intervals for v in tally]
    shares = busy + [capacity - sum(busy)]
    profile = [int(v) for v in shares]
    by_remainder = sorted(range(len(shares)), key=lambda k: (profile[k] - shares[k], k))
    for k in by_remainder[: capacity - sum(profile)]:
        profile[k] += 1

    window_jobs = []
    for machine in range(1, n_machines + 1):
        clock = 0.0
        for position in range(1, jobs_per_machine + 1):
            p = round(rng.uniform(0.5, 1.5), 2)
            t1 = round(max(0.0, clock + rng.uniform(-0.3, 0.6)), 2)
            t2 = round(t1 + p + rng.uniform(0.1, 0.8), 2)
            window_jobs.append({
                "id": f"w{machine:02d}-{position:03d}",
                "machine": machine,
                "position": position,
                "processing_time": p,
                "t1": t1,
                "t2": t2,
            })
            clock = t1 + p
    return {
        "format_version": 1,
        "mode": "modular",
        "modular": {
            "universe": {"types": types, "idle_index": n_types},
            "jobs": jobs,
            "processors": processors,
            "grid": {"interval_len_slots": interval_len, "k": n_intervals},
            "schedule": {
                "processors": processors,
                "horizon_slots": horizon,
                "placements": placements,
            },
            "reference_profile": profile,
            "proximity_threshold": 4 * n_types,
        },
        "window_jobs": window_jobs,
        "penalty_weights": {"alpha": 1.0, "beta": 2.0},
    }
