"""Reference exact LP solver for the tests.

Dense two-phase tableau simplex with Bland's rule over Fractions. It accepts
equality rows and right-hand sides of either sign, so it can check
``chorepick._simplex.maximize`` (one phase, A x <= b with b >= 0) and the
old anyprice dual it replaced. Kept verbatim from the package's earlier
solver; nothing is tuned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    prow = tableau[row]
    for r, trow in enumerate(tableau):
        if r == row:
            continue
        f = trow[col]
        if f:
            tableau[r] = [a - f * b for a, b in zip(trow, prow)]
    basis[row] = col


def _run(tableau, basis, cost, allowed):
    """Maximize cost over the tableau; Bland's rule (first improving column,
    lowest-index basic leaver) prevents cycling."""
    nrows = len(tableau)
    while True:
        cb = [cost[basis[r]] for r in range(nrows)]
        entering = -1
        for j in allowed:
            red = cost[j] - sum(cb[r] * tableau[r][j] for r in range(nrows))
            if red > 0:
                entering = j
                break
        if entering < 0:
            return
        leaving, best = -1, None
        for r in range(nrows):
            coef = tableau[r][entering]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best, leaving = ratio, r
        if leaving < 0:
            raise LpUnbounded
        _pivot(tableau, basis, leaving, entering)


def maximize(objective: Sequence[Fraction],
             a_ub: Sequence[Sequence[Fraction]] = (),
             b_ub: Sequence[Fraction] = (),
             a_eq: Sequence[Sequence[Fraction]] = (),
             b_eq: Sequence[Fraction] = ()):
    """Maximize objective.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Returns (value, x) with exact Fractions. Raises LpInfeasible or
    LpUnbounded when the program has no optimum.
    """
    nvar = len(objective)
    rows = [list(map(Fraction, row)) + [Fraction(rhs)] for row, rhs in zip(a_ub, b_ub)]
    slacks = len(rows)
    for k, row in enumerate(rows):
        row[-1:-1] = [ONE if j == k else ZERO for j in range(slacks)]
    for row, rhs in zip(a_eq, b_eq):
        rows.append(list(map(Fraction, row)) + [ZERO] * slacks + [Fraction(rhs)])
    nrows = len(rows)
    # Normalize right-hand sides, then add one artificial per row.
    for r in range(nrows):
        if rows[r][-1] < 0:
            rows[r] = [-v for v in rows[r]]
    width = nvar + slacks
    tableau = []
    for r in range(nrows):
        art = [ONE if j == r else ZERO for j in range(nrows)]
        tableau.append(rows[r][:width] + art + [rows[r][-1]])
    basis = [width + r for r in range(nrows)]

    phase1 = [ZERO] * width + [-ONE] * nrows + [ZERO]
    _run(tableau, basis, phase1, range(width + nrows))
    if any(tableau[r][-1] != 0 and basis[r] >= width for r in range(nrows)):
        raise LpInfeasible
    # Drive leftover (degenerate) artificials out of the basis.
    for r in range(nrows):
        if basis[r] >= width:
            col = next((j for j in range(width) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, r, col)

    phase2 = list(map(Fraction, objective)) + [ZERO] * (slacks + nrows) + [ZERO]
    live = [j for j in range(width) if not any(basis[r] >= width and tableau[r][j] for r in range(nrows))]
    _run(tableau, basis, phase2, live)

    x = [ZERO] * nvar
    for r in range(nrows):
        if basis[r] < nvar:
            x[basis[r]] = tableau[r][-1]
    value = sum(c * v for c, v in zip(objective, x))
    return value, x
