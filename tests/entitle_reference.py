"""Reference fractional construction for the tests.

The package's earlier ``build_fractional``, kept verbatim with the helpers it
read: per-chore unit releases, a surplus-to-deficit rebalance and whole-matrix
column sums at every stage. ``chorepick.entitle.build_fractional`` must return
an equal ``Pipeline`` field for field, or raise the same error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from chorepick.entitle import FractionalAllocation, Pipeline
from chorepick.model import guard_cells, invariant

ZERO = Fraction(0)
ONE = Fraction(1)


def _column_sums(matrix: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    return [sum(column, ZERO) for column in zip(*matrix)]


def _first_fractional(row: Sequence[Fraction]) -> int | None:
    return next((j for j, a in enumerate(row, start=1) if 0 < a < 1), None)


def _trim_target(scaled_shares: list[Fraction]) -> list[Fraction]:
    """Unit-sum target profile: zero out the smallest holdings while the rest
    still cover 1, then dock the top holding by the leftover excess."""
    target = list(scaled_shares)
    total = sum(target, ZERO)
    invariant(total >= 1, "scaling family must not shrink total mass below 1")
    for g, i in sorted((g, i) for i, g in enumerate(target) if g > 0):
        if total - g < 1:
            break
        target[i] = ZERO
        total -= g
    if total > 1:
        top = max(i for i, g in enumerate(target) if g > 0)
        target[top] -= total - 1
    return target


def build_fractional(entitlements: Sequence[Fraction],
                     scaling: Callable[[Fraction], Fraction],
                     m: int) -> Pipeline:
    """Run the five-stage construction for the given entitlements.

    The trace keeps every stage; `final` (with a zero-cost sentinel column
    appended when some row would otherwise have no strict fraction) is the
    allocation the rounding step consumes.
    """
    b_orig = [Fraction(b) for b in entitlements]
    if any(b <= 0 for b in b_orig):
        raise ValueError("entitlements must be positive")
    if sum(b_orig, ZERO) != 1:
        raise ValueError(f"entitlements sum to {sum(b_orig, ZERO)}")
    n = len(b_orig)
    order = sorted(range(n), key=lambda i: (b_orig[i], i))
    b = [b_orig[i] for i in order]
    prefix_mass = list(accumulate(b))

    need = math.ceil(1 / b[0])
    cols = max(m, n, need)
    guard_cells(n, cols, "the fractional allocation")

    proportional = [[b[i]] * cols for i in range(n)]

    # Outright heads plus a unit of released mass per agent.
    giveup = [row[:] for row in proportional]
    for i in range(n):
        remaining = ONE
        j = 0
        while remaining > 0:
            take = min(b[i], remaining)
            giveup[i][j] -= take
            remaining -= take
            j += 1
        invariant(j == math.ceil(1 / b[i]), "a unit release must touch ceil(1/b) chores")
        giveup[i][i] += ONE

    sums = _column_sums(giveup)
    rebalanced = [row[:] for row in giveup]
    deficits = [(j, ONE - s) for j, s in enumerate(sums) if s < 1]
    d_iter = iter(deficits)
    d_col, d_gap = next(d_iter, (None, ZERO))
    for j in range(n):
        if sums[j] <= 1:
            continue
        for i in range(n - 1, -1, -1):
            movable = rebalanced[i][j] - (ONE if i == j else ZERO)
            while movable > 0:
                invariant(d_col is not None, "total surplus must equal total deficit")
                step = min(movable, d_gap)
                rebalanced[i][j] -= step
                rebalanced[i][d_col] += step
                movable -= step
                d_gap -= step
                if d_gap == 0:
                    d_col, d_gap = next(d_iter, (None, ZERO))
    invariant(all(s == 1 for s in _column_sums(rebalanced)), "rebalanced columns must sum to 1")
    # Suffix domination on the formerly-deficit range: late agents jointly
    # hold at least their proportional mass there, which step 4 relies on.
    for j in range(n, min(need, cols)):
        suffix = ZERO
        suffix_prop = ZERO
        for i in range(n - 1, -1, -1):
            suffix += rebalanced[i][j]
            suffix_prop += b[i]
            invariant(suffix >= suffix_prop, "suffix domination violated after rebalance")

    factors = [scaling(prefix_mass[i]) for i in range(n)]
    mass = sum((factors[i] * b[i] for i in range(n)), ZERO)
    if mass < 1:
        raise ValueError(f"the scaled shares s(B(i))*b(i) sum to {mass} < 1: "
                         f"the scaling parameter t is too small for these entitlements")
    scaled = [row[:] for row in rebalanced]
    for i in range(n):
        for j in range(n, cols):
            scaled[i][j] = factors[i] * rebalanced[i][j]
    scaled_sums = _column_sums(scaled)
    invariant(all(s == 1 for s in scaled_sums[:n]), "scaling must leave the heads whole")
    invariant(all(s >= 1 for s in scaled_sums[n:]), "scaling must not starve a column")

    target = _trim_target([factors[i] * b[i] for i in range(n)])
    final_rows = [row[:] for row in scaled]
    for j in range(n, cols):
        if scaled_sums[j] == 1:
            continue
        kept = [min(scaled[i][j], target[i]) for i in range(n)]
        gap = ONE - sum(kept, ZERO)
        for i in range(n - 1, -1, -1):
            if gap == 0:
                break
            room = scaled[i][j] - kept[i]
            if room > 0:
                step = min(room, gap)
                kept[i] += step
                gap -= step
        invariant(gap == 0, "trimming must refill its column to 1")
        for i in range(n):
            final_rows[i][j] = kept[i]
    invariant(all(s == 1 for s in _column_sums(final_rows)), "final columns must sum to 1")

    firsts = [_first_fractional(row) for row in final_rows]
    sentinel = any(f is None and 0 < b[i] < 1 for i, f in enumerate(firsts))
    if sentinel:
        for i in range(n):
            final_rows[i].append(b[i])
        firsts = [_first_fractional(row) for row in final_rows]
    for i in range(n):
        floor_slot = max(n, math.floor(1 / b[i]))
        invariant(firsts[i] is None or firsts[i] > floor_slot,
                  f"agent {i + 1} holds a fraction at column {firsts[i]}, within her danger zone")

    final = FractionalAllocation(
        shares=tuple(tuple(row) for row in final_rows),
        first_fractional=tuple(firsts),
    )
    return Pipeline(
        entitlements=tuple(b_orig),
        sorted_entitlements=tuple(b),
        sorted_to_original=tuple(i + 1 for i in order),
        m=m,
        columns=cols,
        sentinel=sentinel,
        proportional=tuple(tuple(r) for r in proportional),
        giveup=tuple(tuple(r) for r in giveup),
        rebalanced=tuple(tuple(r) for r in rebalanced),
        scaled=tuple(tuple(r) for r in scaled),
        final=final,
    )
