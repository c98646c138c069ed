"""Exact share computations for chore instances.

Three per-agent benchmarks, all in exact rational arithmetic:

- proportional share  PS = b * (total disvalue);
- chore share         CS = max(PS, c(1), c(k) + c(k+1)) with k = floor(1/b),
  costs sorted nonincreasing and missing indices contributing 0;
- maximin share       MMS = min over n-partitions of the max bundle disvalue
  (equal entitlements only), by exhaustive search with symmetry pruning;
- anyprice share      APS = the largest disvalue z such that some price
  vector p >= 0 with sum 1 keeps every bundle cheaper than z strictly under
  the budget b. The agent can then always be forced to spend her budget on a
  bundle of disvalue at least z, and never worse.

For chores the chain MMS >= APS >= CS holds, with each inequality sometimes
strict; CS is the cheap analysis proxy, and the two oracles here exist to
certify it on desk-scale instances. Both oracles guard their exponential
enumeration behind size limits that callers may override.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._simplex import LpInfeasible, LpUnbounded, maximize
from .model import ChoreInstance, SizeGuardError

ZERO = Fraction(0)

MMS_ITEM_LIMIT = 12
MMS_AGENT_LIMIT = 4
APS_ITEM_LIMIT = 12


def _check_entitlement(b: Fraction) -> Fraction:
    b = Fraction(b)
    if not 0 < b <= 1:
        raise ValueError(f"entitlement must lie in (0, 1], got {b}")
    return b


def proportional_share(costs: Sequence[Fraction], b: Fraction) -> Fraction:
    b = _check_entitlement(b)
    return b * sum((Fraction(c) for c in costs), ZERO)


def chore_share(costs: Sequence[Fraction], b: Fraction) -> Fraction:
    """Exact chore share of one agent.

    >>> from fractions import Fraction as F
    >>> chore_share([5, 4, 3, 2, 1], F(3, 10))
    Fraction(5, 1)
    >>> chore_share([F(3, 7)] * 7, F(1, 3))
    Fraction(1, 1)
    """
    b = _check_entitlement(b)
    row = sorted((Fraction(c) for c in costs), reverse=True)
    m = len(row)

    def at(index: int) -> Fraction:  # 1-based, 0 beyond the row
        return row[index - 1] if 1 <= index <= m else ZERO

    k = (1 / b).__floor__()
    return max(b * sum(row, ZERO), at(1), at(k) + at(k + 1))


def mms_oracle(costs: Sequence[Fraction], n: int, *,
               item_limit: int = MMS_ITEM_LIMIT,
               agent_limit: int = MMS_AGENT_LIMIT,
               force: bool = False) -> Fraction:
    """Exact maximin share for chores: min over n-partitions of the max bundle.

    Depth-first search over partitions, pruned by bundle symmetry (never
    place an item into two bundles of equal load) and by the best partition
    found so far.
    """
    if n < 1:
        raise ValueError("need at least one bundle")
    items = sorted((Fraction(c) for c in costs), reverse=True)
    m = len(items)
    if not force and (m > item_limit or n > agent_limit):
        raise SizeGuardError(
            f"mms_oracle guard: {m} items / {n} bundles exceeds {item_limit}/{agent_limit} (use force=True)")
    if m == 0:
        return ZERO
    if n == 1:
        return sum(items, ZERO)

    # Greedy seed (largest item into the lightest bundle) gives an upper bound.
    loads = [ZERO] * n
    for it in items:
        loads[loads.index(min(loads))] += it
    best = [max(loads)]

    loads = [ZERO] * n

    def descend(idx: int) -> None:
        if idx == m:
            top = max(loads)
            if top < best[0]:
                best[0] = top
            return
        item = items[idx]
        seen = set()
        for i in range(n):
            load = loads[i]
            if load in seen or load + item >= best[0]:
                continue
            seen.add(load)
            loads[i] = load + item
            descend(idx + 1)
            loads[i] = load

    descend(0)
    return best[0]


def _patterns(group_sizes: Sequence[int]):
    return itertools.product(*(range(k + 1) for k in group_sizes))


def aps_oracle(costs: Sequence[Fraction], b: Fraction, *,
               item_limit: int = APS_ITEM_LIMIT,
               force: bool = False) -> Fraction:
    """Exact anyprice share for chores.

    APS >= z holds iff some price vector (nonnegative, summing to 1) gives
    every bundle of disvalue below z a price strictly below the budget b.
    Candidates for z are the distinct bundle disvalues; feasibility of each
    is monotone, so a binary search over candidates finds the largest.

    Two exact reductions keep the search small:

    - items of equal cost may carry equal prices (averaging any feasible
      price vector over the permutations that fix the cost multiset stays
      feasible), so bundles collapse to count-per-cost-class patterns;
    - only inclusion-maximal cheap patterns constrain the prices, and strict
      feasibility means the slack LP max { d : price(pattern) <= b - d } has
      a positive optimum. The LP is solved in its dual form, whose row count
      is the number of cost classes rather than the number of patterns.
    """
    b = _check_entitlement(b)
    row = [Fraction(c) for c in costs]
    m = len(row)
    if not force and m > item_limit:
        raise SizeGuardError(
            f"aps_oracle guard: {m} items exceeds {item_limit} (use force=True)")
    if m == 0:
        return ZERO

    classes: dict[Fraction, int] = {}
    for c in row:
        classes[c] = classes.get(c, 0) + 1
    values = sorted(classes, reverse=True)
    sizes = [classes[v] for v in values]
    ngroups = len(values)

    candidates = sorted({
        sum((values[g] * t[g] for g in range(ngroups)), ZERO)
        for t in _patterns(sizes)
    })

    def feasible(z: Fraction) -> bool:
        rows = []
        for t in _patterns(sizes):
            cost = sum((values[g] * t[g] for g in range(ngroups)), ZERO)
            if cost >= z:
                continue
            if any(t[g] < sizes[g] and cost + values[g] < z for g in range(ngroups)):
                continue  # not inclusion-maximal below z
            rows.append(t)
        if not rows:
            return True
        # Dual of max{d : t.p + d <= b for all rows, sizes.p = 1, p >= 0}:
        #   min b + mu  s.t.  sum_r y_r = 1,  sum_r t_rg y_r + k_g mu >= 0, y >= 0.
        # With mu = mu+ - mu- the optimum slack is d* = b - max(mu- - mu+).
        nr = len(rows)
        objective = [ZERO] * nr + [Fraction(-1), Fraction(1)]
        a_ub = []
        for g in range(ngroups):
            coeffs = [Fraction(-rows[r][g]) for r in range(nr)]
            coeffs += [Fraction(-sizes[g]), Fraction(sizes[g])]
            a_ub.append(coeffs)
        b_ub = [ZERO] * ngroups
        a_eq = [[Fraction(1)] * nr + [ZERO, ZERO]]
        try:
            value, _ = maximize(objective, a_ub, b_ub, a_eq, [Fraction(1)])
        except (LpInfeasible, LpUnbounded) as exc:  # pragma: no cover
            raise RuntimeError("anyprice dual must have an optimum") from exc
        return value < b

    lo, hi = 0, len(candidates) - 1  # candidates[0] == 0 is always feasible
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(candidates[mid]):
            lo = mid
        else:
            hi = mid - 1
    return candidates[lo]


@dataclass(frozen=True)
class ShareReport:
    """Per-agent shares of an instance; MMS/APS entries are None when skipped."""

    proportional: tuple[Fraction, ...]
    chore: tuple[Fraction, ...]
    maximin: tuple[Fraction | None, ...]
    anyprice: tuple[Fraction | None, ...]


def share_report(inst: ChoreInstance, *, with_mms: bool = True, with_aps: bool = True,
                 force: bool = False) -> ShareReport:
    ps, cs, mms, aps = [], [], [], []
    for i in range(1, inst.n + 1):
        row, b = inst.row(i), inst.entitlements[i - 1]
        ps.append(proportional_share(row, b))
        cs.append(chore_share(row, b))
        mms.append(mms_oracle(row, inst.n, force=force) if with_mms else None)
        aps.append(aps_oracle(row, b, force=force) if with_aps else None)
    return ShareReport(tuple(ps), tuple(cs), tuple(mms), tuple(aps))
