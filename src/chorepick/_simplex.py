"""Exact packing LPs over rationals.

Dense one-phase tableau simplex for max c.x s.t. A x <= b, x >= 0 with
b >= 0. The all-slack basis is then feasible, so no phase 1 is needed.
The negated reduced costs ride along as one more tableau row, which every
pivot updates like the constraint rows; its last entry is the objective
value. Bland's rule (lowest improving column; ties in the ratio test go to
the lowest basic index) guarantees termination, and every pivot is exact.
Sized for the small systems this package produces (a few dozen rows).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class LpUnbounded(Exception):
    pass


def maximize(objective: Sequence[Fraction],
             a_ub: Sequence[Sequence[Fraction]],
             b_ub: Sequence[Fraction]):
    """Maximize objective.x subject to a_ub x <= b_ub, x >= 0, for b_ub >= 0.

    Returns (value, x) with exact Fractions. Raises ValueError on a negative
    right-hand side and LpUnbounded when the objective has no maximum.

    >>> maximize([3, 2], [[1, 1], [1, 0]], [4, 2])
    (Fraction(10, 1), [Fraction(2, 1), Fraction(2, 1)])
    """
    nvar, nrows = len(objective), len(a_ub)
    if any(rhs < 0 for rhs in b_ub):
        raise ValueError("right-hand sides must be nonnegative")
    # Rows [A | I | b]: b >= 0 makes the all-slack basis feasible. Last, the
    # objective row [-c | 0 | 0]: the negated reduced costs, then the value.
    tableau = [[Fraction(v) for v in row] + [ONE if k == r else ZERO for k in range(nrows)]
               + [Fraction(rhs)] for r, (row, rhs) in enumerate(zip(a_ub, b_ub))]
    tableau.append([-Fraction(c) for c in objective] + [ZERO] * (nrows + 1))
    basis = list(range(nvar, nvar + nrows))
    while True:
        zrow = tableau[nrows]
        col = next((j for j in range(nvar + nrows) if zrow[j] < 0), None)
        if col is None:
            break
        row, best = None, None
        for r in range(nrows):
            coef = tableau[r][col]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    row, best = r, ratio
        if row is None:
            raise LpUnbounded
        piv = tableau[row][col]
        prow = tableau[row] = [v / piv for v in tableau[row]]
        for r, trow in enumerate(tableau):
            f = trow[col]
            if r != row and f:
                tableau[r] = [a - f * p for a, p in zip(trow, prow)]
        basis[row] = col
    x = [ZERO] * nvar
    for r, j in enumerate(basis):
        if j < nvar:
            x[j] = tableau[r][-1]
    return tableau[nrows][-1], x
