"""Picking sequences for arbitrary entitlements via a fractional allocation.

The construction uses only the entitlement vector, never the costs. Agents
are sorted by nondecreasing entitlement b(1) <= ... <= b(n); the chore list
is padded with zero-cost tail chores so that every agent can release a full
unit of fractional mass. Five stages:

1. proportional: agent i holds a b(i) fraction of every chore.
2. giveup: chore i goes to agent i outright, and every agent releases one
   unit from the front: with 1 = w*b(i) + r (w whole, 0 <= r < b(i)) she
   keeps nothing of chores 1..w and b(i) - r of chore w+1. Head columns
   1..n may now be oversubscribed; columns n+1..ceil(1/b(1)) fall short.
3. rebalanced: every head column keeps only its outright owner, so the head
   block is the identity. The rest of each head column moves, column by
   column and highest-index owner first, onto the short columns in
   ascending order until every column sums to 1.
4. scaled: beyond the first n chores, agent i's fractions are multiplied by
   s(B(i)) where B(i) = b(1)+...+b(i) and s is a nondecreasing scaling
   function with unit integral. No column drops below 1.
5. trimmed: oversubscribed columns are reduced back to exactly 1. The
   reduction aims at a single column-independent target profile (the scaled
   proportional fractions, with the smallest holdings zeroed and the top
   holding docked until the profile sums to 1); entries above the target
   are capped, and any remaining gap is refilled from the highest-index
   agents upward.

Stages 3 to 5 come from one walk over the columns past the heads, and each
check runs on the column it concerns. From column max(n, ceil(1/b(1))) + 1
on, every giveup column is b itself and nothing moves onto it, so the walk
stops one column past max(n, ceil(1/b(1))) and repeats that column.

The result is a legal fractional allocation in which every agent's first
strictly fractional chore comes after max(n, floor(1/b(i))), i.e. past her
two dangerous slots. Rounding it to a picking order (each round goes to an
agent whose cumulative fraction exceeds her chores received so far, the
highest-entitlement such agent) yields, for greedy risk-averse agents, a
bundle of disvalue at most 1 + t/2 times the chore share, where t ~ 1.466
is the smallest parameter keeping the scaling family integrable to 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import ge
from typing import Callable, Sequence

from .model import (ChoreInstance, PickingOrder, _check_entitlements, guard_cells, invariant,
                    parse_rational, to_sequence)
from .ridge import ROOT_START, ln_bounds, root_bracket
from .shares import chore_share
from .simulate import greedy_play, worst_case_bundle

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: Production scaling parameter: smallest three-decimal t whose scaling
#: family still integrates to at least 1 (the root is in [1.465941, 1.465942]).
DEFAULT_T = Fraction(1466, 1000)


def scaling_margin(t: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bounds on the scaling family's integral minus 1 at t in (1, 2],
    (t-1) ln(t/(t-1)) + t - 2; the family is usable iff it is >= 0."""
    low, high = ln_bounds(Fraction(t) / (t - 1), terms)
    return (t - 1) * low + t - 2, (t - 1) * high + t - 2


def solve_t() -> tuple[Fraction, Fraction]:
    """A bracket on the smallest usable scaling parameter t; the guaranteed
    ratio is then 1 + t/2 (~1.733).

    >>> solve_t()
    (Fraction(1465941, 1000000), Fraction(732971, 500000))
    """
    return root_bracket(scaling_margin, *ROOT_START)


@dataclass(frozen=True)
class ScalingFunction:
    """s(x) = (t-1)/(1-x) capped at t; nondecreasing on [0,1] with s(1) = t."""

    t: Fraction = DEFAULT_T

    def __post_init__(self):
        object.__setattr__(self, "t", parse_rational(self.t))
        if not 1 <= self.t <= 2:
            raise ValueError(f"scaling parameter must lie in [1, 2], got {self.t}")

    def __call__(self, x: Fraction) -> Fraction:
        x = parse_rational(x)
        if not 0 <= x <= 1:
            raise ValueError(f"scaling argument must lie in [0, 1], got {x}")
        if x * self.t >= 1:  # where the two pieces meet, and s(1) = t even at t = 1
            return self.t
        return (self.t - 1) / (1 - x)

    @property
    def guaranteed_ratio(self) -> Fraction:
        return 1 + self.t / 2


def half_plus_x(x: Fraction) -> Fraction:
    """The simple affine scaling used in worked fixtures (not production)."""
    return HALF + parse_rational(x)


@dataclass(frozen=True)
class FractionalAllocation:
    """Nonnegative shares with unit column sums; ``first_fractional`` is the
    1-based column of each agent's first share strictly inside (0, 1), or
    None for an all-integral row."""

    shares: tuple[tuple[Fraction, ...], ...]
    first_fractional: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.shares)

    @property
    def columns(self) -> int:
        return len(self.shares[0]) if self.shares else 0


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


@dataclass(frozen=True)
class Pipeline:
    """Stage-by-stage trace of the construction, in sorted-agent indexing."""

    entitlements: tuple[Fraction, ...]          # caller's order
    sorted_entitlements: tuple[Fraction, ...]
    sorted_to_original: tuple[int, ...]         # sorted slot -> original agent id
    m: int                                      # chores the caller asked about
    columns: int                                # padded chore count (no sentinel)
    sentinel: bool
    proportional: tuple[tuple[Fraction, ...], ...]
    giveup: tuple[tuple[Fraction, ...], ...]
    rebalanced: tuple[tuple[Fraction, ...], ...]
    scaled: tuple[tuple[Fraction, ...], ...]
    final: FractionalAllocation

    @property
    def n(self) -> int:
        return len(self.entitlements)

    def order(self) -> PickingOrder:
        """Picking order over the caller's m chores and original agent ids."""
        picks = round_to_order(self.final, self.sorted_entitlements)
        relabeled = tuple(self.sorted_to_original[who - 1] for who in picks.expand(self.m))
        return PickingOrder(prefix=relabeled)


def _trim(column: list[Fraction], target: list[Fraction]) -> list[Fraction]:
    """Cap each entry at its target, then refill to 1 from the highest index down."""
    kept = [min(a, g) for a, g in zip(column, target)]
    gap = ONE - sum(kept, ZERO)
    for i in range(len(kept) - 1, -1, -1):
        if gap == 0:
            break
        step = min(column[i] - kept[i], gap)
        kept[i] += step
        gap -= step
    invariant(gap == 0, "trimming must refill its column to 1")
    return kept


def build_fractional(entitlements: Sequence[Fraction],
                     scaling: Callable[[Fraction], Fraction],
                     m: int) -> Pipeline:
    """Run the five-stage construction for the given entitlements.

    The trace keeps every stage; `final` (with a zero-cost sentinel column
    appended when some row would otherwise have no strict fraction) is the
    allocation the rounding step consumes.
    """
    b_orig = [parse_rational(b) for b in entitlements]
    _check_entitlements(b_orig)
    n = len(b_orig)
    order = sorted(range(n), key=lambda i: (b_orig[i], i))
    b = [b_orig[i] for i in order]
    tail = max(n, math.ceil(1 / b[0]))   # from this column on every giveup column is b
    cols = max(m, tail)
    guard_cells(n, cols, "the fractional allocation")
    # Release `whole` = floor(1/b_i) full shares, then `rest` of the next; take chore i.
    giveup = []
    for i, bi in enumerate(b):
        whole, rest = divmod(ONE, bi)
        row = ([ZERO] * whole + [bi - rest] + [bi] * cols)[:cols]
        row[i] += ONE
        giveup.append(row)
    # Each head column keeps only its outright owner; the rest moves, column by
    # column and highest index first, to the short columns in ascending order.
    # `moves` lists those pieces last first, so the next one is popped.
    invariant(all(giveup[j][j] >= 1 for j in range(n)), "the heads must stay whole")
    moves = [(i, a) for j in range(n - 1, -1, -1) for i in range(n)
             if (a := giveup[i][j] - (ONE if i == j else ZERO)) > 0]

    factors = [scaling(x) for x in accumulate(b)]
    target = [f * bi for f, bi in zip(factors, b)]
    mass = sum(target, ZERO)
    if mass < 1:
        raise ValueError(f"the scaled shares s(B(i))*b(i) sum to {mass} < 1: "
                         f"the scaling parameter t is too small for these entitlements")
    target = _trim_target(target)
    b_suffix = list(accumulate(reversed(b)))

    heads = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
    rebalanced, scaled, trimmed = heads[:], heads[:], heads[:]
    for column in map(list, islice(zip(*giveup), n, tail + 1)):
        gap = ONE - sum(column, ZERO)
        while gap > 0:
            invariant(bool(moves), "total surplus must equal total deficit")
            i, left = moves.pop()
            step = min(left, gap)
            column[i] += step
            gap -= step
            if step < left:
                moves.append((i, left - step))
        invariant(gap == 0, "rebalanced columns must sum to 1")
        # Late agents jointly hold at least their proportional mass (scaling relies on it).
        invariant(all(map(ge, accumulate(reversed(column)), b_suffix)),
                  "suffix domination violated after rebalance")
        column_scaled = [f * a for f, a in zip(factors, column)]
        invariant(sum(column_scaled, ZERO) >= 1, "scaling must not starve a column")
        rebalanced.append(column)
        scaled.append(column_scaled)
        trimmed.append(_trim(column_scaled, target))
    invariant(not moves, "total surplus must equal total deficit")
    for stage in (rebalanced, scaled, trimmed):
        stage += stage[-1:] * (cols - len(stage))

    firsts = [_first_fractional(row) for row in zip(*trimmed)]
    sentinel = any(f is None and 0 < bi < 1 for f, bi in zip(firsts, b))
    if sentinel:
        trimmed.append(b)
        firsts = [_first_fractional(row) for row in zip(*trimmed)]
    for i, (first, bi) in enumerate(zip(firsts, b), start=1):
        invariant(first is None or first > max(n, math.floor(1 / bi)),
                  f"agent {i} holds a fraction at column {first}, within her danger zone")

    return Pipeline(
        entitlements=tuple(b_orig),
        sorted_entitlements=tuple(b),
        sorted_to_original=tuple(i + 1 for i in order),
        m=m,
        columns=cols,
        sentinel=sentinel,
        proportional=tuple((bi,) * cols for bi in b),
        giveup=tuple(tuple(row) for row in giveup),
        rebalanced=tuple(zip(*rebalanced)),
        scaled=tuple(zip(*scaled)),
        final=FractionalAllocation(shares=tuple(zip(*trimmed)), first_fractional=tuple(firsts)),
    )


def round_to_order(alloc: FractionalAllocation,
                   entitlements: Sequence[Fraction]) -> PickingOrder:
    """Round a legal fractional allocation to a picking order.

    Round t goes to an agent whose fractional mass on chores 1..t strictly
    exceeds her chores received so far; by averaging such an agent always
    exists. Ties break toward the highest entitlement, then the highest
    index, which keeps late pickers late and supports the no-envy suffix
    property for lower-responsibility agents.
    """
    n = alloc.n
    b = [parse_rational(x) for x in entitlements]
    if len(b) != n:
        raise ValueError(f"expected {n} entitlements, got {len(b)}")
    priority = sorted(range(n), key=lambda i: (b[i], i), reverse=True)
    received = [0] * n
    picks: list[int] = []
    for cumulative in zip(*map(accumulate, alloc.shares)):
        chosen = next((i for i in priority if cumulative[i] > received[i]), None)
        invariant(chosen is not None, "illegal fractional allocation: no eligible agent")
        received[chosen] += 1
        picks.append(chosen + 1)
    return PickingOrder(prefix=tuple(picks))


@dataclass(frozen=True)
class GuaranteeReport:
    bound: Fraction
    order: tuple[int, ...]
    max_adversarial: Fraction
    max_simulated: Fraction
    trials: int

    @property
    def ok(self) -> bool:
        return self.max_adversarial <= self.bound and self.max_simulated <= self.bound


def verify_guarantee(entitlements: Sequence[Fraction], trials: int = 100,
                     seed: int = 0, m: int = 40) -> GuaranteeReport:
    """Build the order for the entitlements alone, then stress it.

    Two checks per agent: the exact adversarial worst case of her realized
    round set (the LP of `worst_case_bundle` with cap floor(1/b) and budget
    1/b, i.e. costs normalized to chore share = proportional share = 1), and
    seeded random common-order cost rows played greedily and compared to the
    exact chore share. Both must stay within the production scaling's
    guaranteed ratio 1 + t/2.
    """
    if m < 1:
        raise ValueError(f"need at least one chore, got m = {m}")
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got trials = {trials}")
    b = [parse_rational(x) for x in entitlements]
    n = len(b)
    scaling = ScalingFunction()
    bound = scaling.guaranteed_ratio
    pipeline = build_fractional(b, scaling, m)
    order = pipeline.order()
    max_adv = max(worst_case_bundle(rounds, m, math.floor(1 / bi), 1 / bi).value
                  for rounds, bi in zip(order.positions(m, n), b))

    rng = random.Random(seed)
    seq = to_sequence(order, m)
    grain = 10 ** 6
    max_sim = ZERO
    for _ in range(trials):
        # Integer costs d stand for d/grain: the ratio of bundle cost to chore
        # share does not depend on scale, and greedy ties are the same.
        rows = [tuple(sorted((rng.randrange(1, grain + 1) for _ in range(m)), reverse=True))
                for _ in range(n)]
        inst = ChoreInstance(entitlements=tuple(b), costs=tuple(rows))
        played = greedy_play(seq, inst)
        for i in range(1, n + 1):
            ratio = inst.bundle_cost(i, played.bundle(i)) / chore_share(rows[i - 1], b[i - 1])
            if ratio > max_sim:
                max_sim = ratio

    return GuaranteeReport(
        bound=bound,
        order=order.expand(m),
        max_adversarial=max_adv,
        max_simulated=max_sim,
        trials=trials,
    )
