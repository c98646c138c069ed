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
  bundle of disvalue at least z, and never worse. Each candidate z is one
  exact packing LP over per-class prices, unless some class is in no maximal
  cheap pattern: that LP is unbounded, so z is feasible.

Both oracles compare integer costs, the row over its common denominator;
only their results are Fractions.

For chores the chain MMS >= APS >= CS holds, with each inequality sometimes
strict; CS is the cheap analysis proxy, and the two oracles here exist to
certify it on desk-scale instances. Both oracles guard their exponential
enumeration behind size limits that callers may override.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._simplex import maximize
from .model import ChoreInstance, SizeGuardError, _exact_costs, _integer_row, parse_rational

ZERO = Fraction(0)

MMS_ITEM_LIMIT = 12
MMS_AGENT_LIMIT = 4
APS_ITEM_LIMIT = 12


def _check_entitlement(b: Fraction) -> Fraction:
    b = parse_rational(b)
    if not 0 < b <= 1:
        raise ValueError(f"entitlement must lie in (0, 1], got {b}")
    return b


def proportional_share(costs: Sequence[Fraction], b: Fraction) -> Fraction:
    b = _check_entitlement(b)
    return b * sum(_exact_costs(costs))


def chore_share(costs: Sequence[Fraction], b: Fraction) -> Fraction:
    """Exact chore share of one agent.

    >>> from fractions import Fraction as F
    >>> chore_share([5, 4, 3, 2, 1], F(3, 10))
    Fraction(5, 1)
    >>> chore_share([F(3, 7)] * 7, F(1, 3))
    Fraction(1, 1)
    """
    b = _check_entitlement(b)
    row = sorted(_exact_costs(costs), reverse=True)
    m = len(row)

    def at(index: int):  # 1-based, 0 beyond the row
        return row[index - 1] if 1 <= index <= m else 0

    k = (1 / b).__floor__()
    proportional, top = b * sum(row), max(at(1), at(k) + at(k + 1))
    return proportional if proportional >= top else Fraction(top)


def mms_oracle(costs: Sequence[Fraction], n: int, *, force: bool = False) -> Fraction:
    """Exact maximin share for chores: min over n-partitions of the max bundle.

    Depth-first search over partitions of the integer costs, pruned by
    bundle symmetry (never place an item into two bundles of equal load) and
    by the best partition found so far.
    """
    if n < 1:
        raise ValueError("need at least one bundle")
    scale, row = _integer_row(costs)
    items = sorted(row, reverse=True)
    m = len(items)
    if not force and (m > MMS_ITEM_LIMIT or n > MMS_AGENT_LIMIT):
        raise SizeGuardError(f"mms_oracle guard: {m} items / {n} bundles exceeds "
                             f"{MMS_ITEM_LIMIT}/{MMS_AGENT_LIMIT} (use force=True)")
    if m == 0:
        return ZERO
    if n == 1:
        return Fraction(sum(items), scale)

    # Greedy seed (largest item into the lightest bundle) gives an upper bound.
    loads = [0] * n
    for it in items:
        loads[loads.index(min(loads))] += it
    best = [max(loads)]

    _mms_descend(items, 0, [0] * n, best)
    return Fraction(best[0], scale)


def _mms_descend(items: list[int], idx: int, loads: list[int], best: list[int]) -> None:
    """Place items[idx:] into the bundle loads in every way that can still
    beat best[0], lowering best[0] to each better partition's max load."""
    if idx == len(items):
        top = max(loads)
        if top < best[0]:
            best[0] = top
        return
    item = items[idx]
    seen = set()
    for i, load in enumerate(loads):
        if load in seen or load + item >= best[0]:
            continue
        seen.add(load)
        loads[i] = load + item
        _mms_descend(items, idx + 1, loads, best)
        loads[i] = load


def aps_oracle(costs: Sequence[Fraction], b: Fraction, *, force: bool = False) -> Fraction:
    """Exact anyprice share for chores.

    APS >= z holds iff some price vector (nonnegative, summing to 1) gives
    every bundle of disvalue below z a price strictly below the budget b.
    Candidates for z are the distinct bundle disvalues; feasibility of each
    is monotone, so ``bisect`` over the candidates finds the largest.

    Two exact reductions keep the search small:

    - items of equal cost may carry equal prices (averaging any feasible
      price vector over the permutations that fix the cost multiset stays
      feasible), so bundles collapse to count-per-cost-class patterns;
    - only inclusion-maximal cheap patterns constrain the prices, and strict
      feasibility is the packing LP max { sizes.u : pattern.u <= 1, u >= 0 }
      over per-item class prices u exceeding 1/b. Its all-slack basis is
      feasible, so one simplex phase decides it.

    Pattern costs are ints, over the row's common denominator. Each pattern
    is tabled once with its cost and its reach: the cost plus the cheapest
    class it still has room for (None when it holds every item). It is
    inclusion-maximal below z iff cost < z <= reach. The LP's matrix is
    nonnegative and sizes > 0, so it is unbounded exactly when there are no
    rows or some class is in none (else every u_j <= 1): such a z is
    feasible without an LP.
    """
    b = _check_entitlement(b)
    scale, row = _integer_row(costs)
    m = len(row)
    if not force and m > APS_ITEM_LIMIT:
        raise SizeGuardError(
            f"aps_oracle guard: {m} items exceeds {APS_ITEM_LIMIT} (use force=True)")
    if m == 0:
        return ZERO

    classes = Counter(row)
    values = sorted(classes, reverse=True)
    sizes = [classes[v] for v in values]
    patterns = []
    for t in itertools.product(*(range(k + 1) for k in sizes)):
        cost = sum(v * k for v, k in zip(values, t))
        cheapest = min((v for v, k, size in zip(values, t, sizes) if k < size), default=None)
        patterns.append((t, cost, None if cheapest is None else cost + cheapest))
    candidates = sorted({cost for _, cost, _ in patterns})

    def infeasible(z: int) -> bool:
        rows = [t for t, cost, reach in patterns
                if cost < z and (reach is None or reach >= z)]
        # Class prices u >= 0 with every row priced at most 1 scale to a price
        # vector p = u / sizes.u whose dearest row costs 1 / sizes.u, so z is
        # feasible iff max sizes.u exceeds 1/b or is unbounded.
        if not rows or not all(map(any, zip(*rows))):
            return False
        value, _ = maximize(sizes, rows, [1] * len(rows))
        return value * b <= 1

    # candidates[0] == 0 is always feasible; bisect finds the first infeasible one.
    return Fraction(candidates[bisect.bisect_left(candidates, True, 1, key=infeasible) - 1], scale)


@dataclass(frozen=True)
class ShareReport:
    """Per-agent shares of an instance; MMS/APS entries are None when skipped.
    MMS, a split into n equal bundles, is None too unless entitlements are equal."""

    proportional: tuple[Fraction, ...]
    chore: tuple[Fraction, ...]
    maximin: tuple[Fraction | None, ...]
    anyprice: tuple[Fraction | None, ...]


def share_report(inst: ChoreInstance, *, with_mms: bool = True, with_aps: bool = True,
                 force: bool = False) -> ShareReport:
    ps, cs, mms, aps = [], [], [], []
    with_mms = with_mms and len(set(inst.entitlements)) == 1
    # Both oracles depend only on the cost multiset, b and n, so agents
    # sharing a sorted row and an entitlement share one pair of calls.
    oracles: dict[tuple, tuple[Fraction | None, Fraction | None]] = {}
    for i in range(1, inst.n + 1):
        row, b = inst.row(i), inst.entitlements[i - 1]
        ps.append(proportional_share(row, b))
        cs.append(chore_share(row, b))
        key = (tuple(sorted(row)), b)
        if key not in oracles:
            oracles[key] = (mms_oracle(row, inst.n, force=force) if with_mms else None,
                            aps_oracle(row, b, force=force) if with_aps else None)
        mms.append(oracles[key][0])
        aps.append(oracles[key][1])
    return ShareReport(tuple(ps), tuple(cs), tuple(mms), tuple(aps))
