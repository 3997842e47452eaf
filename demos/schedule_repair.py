#!/usr/bin/env python3
"""Violation-driven schedule repair on the 1982 programme.

The factory can press 1480 d1 panels a month; the initial schedule asks
for almost 2000 at the peak. The repair loop finds the violated months,
builds a menu of corrections per affected building (small start shifts,
placement exchanges), prices each by its drop in the violation measure,
picks a bundle per iteration with a budgeted multiple-choice knapsack,
and repeats while the measure falls.
"""

from balsched.fixtures import build_fixture
from balsched.fileio import render_gantt
from balsched.homebuilding import horizon_requirement_table
from balsched.improve import (
    capacity_vector,
    generate_correction_groups,
    improvement_loop,
    violated_months,
)

f = build_fixture("kope-1982")
project, schedule, capacity = f.project, f.team_schedule, f.capacity

table = horizon_requirement_table(project, schedule)
months = violated_months(table.to_array(), capacity_vector(capacity))
month, peak = table.peak("d1")
print(f"d1 capacity {capacity['d1']:.0f}/month; initial peak {peak:.0f} in month {month}")
print(f"violated months: {months}")

groups = generate_correction_groups(project, schedule, capacity)
print(f"\ncorrection menu: {len(groups)} groups")
for g in groups[:3]:
    best = max(g.variants, key=lambda v: v.profit)
    print(f"  {g.targets[0]}: {len(g.variants)} variants, "
          f"best '{best.describe(g.targets[0])}' profit {best.profit:.3f} cost {best.cost:.1f}")
print("  ...")

result = improvement_loop(project, schedule, capacity, f.improve_params)
print("\nloop trace:")
for rec in result.trace:
    moves = [variant.describe(target) for target, variant in rec.moves]
    print(f"  iter {rec.iteration}: V {rec.v_before:.4f} -> {rec.v_after:.4f}"
          f" ({'accepted' if rec.accepted else 'rejected'}) {'; '.join(moves)}")
print(f"stop: {result.stop_reason}")

final = horizon_requirement_table(project, result.schedule)
month, peak = final.peak("d1")
print(f"final peak {peak:.0f} in month {month}  "
      f"({'fits' if peak <= capacity['d1'] else 'still over'})")

print("\nbefore:")
print(render_gantt(project, schedule))
print("after:")
print(render_gantt(project, result.schedule))
