"""The recorded correction catalogue of the kope-1982 instance.

The paper's knapsack example: one group of right shifts for each of a6, a7
and a8, and one exchange of a3 with a6, each variant priced as recorded
(profit, cost). Under budget 3 both selectors take a7's 14-day and a8's
21-day shift, (0, 3, 3, 0) at profit 5.0.
"""

from balsched.improve import NONE_VARIANT, CorrectionGroup, CorrectionVariant

# (target, rows of (kind, days, profit, cost))
_SHIFTS = (
    ("a6", (
        ("shift_right", 3, 0.5, 1.0),
        ("shift_right", 7, 1.5, 2.0),
        ("shift_right", 14, 2.5, 3.0),
        ("shift_right", 21, 3.5, 4.0),
    )),
    ("a7", (
        ("shift_right", 3, 0.3, 0.5),
        ("shift_right", 7, 1.0, 0.8),
        ("shift_right", 14, 1.5, 1.0),
    )),
    ("a8", (
        ("shift_right", 7, 1.5, 1.0),
        ("shift_right", 14, 2.5, 1.5),
        ("shift_right", 21, 3.5, 2.0),
    )),
)

KOPE_CATALOGUE = tuple(
    CorrectionGroup(
        index=index,
        targets=(target,),
        variants=(NONE_VARIANT,) + tuple(
            CorrectionVariant(kind=kind, days=days, profit=profit, cost=cost)
            for kind, days, profit, cost in rows
        ),
    )
    for index, (target, rows) in enumerate(_SHIFTS, start=1)
) + (
    CorrectionGroup(
        index=4,
        targets=("a3", "a6"),
        variants=(
            NONE_VARIANT,
            CorrectionVariant(kind="exchange", buildings=("a3", "a6"), profit=1.5, cost=2.0),
        ),
    ),
)
