"""Picking sequences for arbitrary entitlements via a fractional allocation.

The construction uses only the entitlement vector, never the costs. Agents
are sorted by nondecreasing entitlement b(1) <= ... <= b(n); the chore list
is padded with zero-cost tail chores so that every agent can release a full
unit of fractional mass. Five stages:

1. proportional: agent i holds a b(i) fraction of every chore.
2. giveup: chore i goes to agent i outright; on top of that every agent
   releases fractional mass totalling exactly 1, walking from chore 1
   until ceil(1/b(i)) chores are touched (the last one partially). Columns
   may now be oversubscribed (surplus) or undersubscribed (deficit).
3. rebalanced: surplus fractions move onto deficit chores until every column
   sums to 1 again. Surplus chores keep their outright owner; within a
   surplus chore the highest-index owners move first, into the lowest-index
   deficit chores.
4. scaled: beyond the first n chores, agent i's fractions are multiplied by
   s(B(i)) where B(i) = b(1)+...+b(i) and s is a nondecreasing scaling
   function with unit integral. No column drops below 1.
5. trimmed: oversubscribed columns are reduced back to exactly 1. The
   reduction aims at a single column-independent target profile (the scaled
   proportional fractions, with the smallest holdings zeroed and the top
   holding docked until the profile sums to 1); entries above the target
   are capped, and any remaining gap is refilled from the highest-index
   agents upward.

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
from typing import Callable, Sequence

from .model import PickingOrder, to_sequence
from .ridge import bisect_root
from .shares import chore_share
from .simulate import greedy_play, worst_case_bundle
from . import model as _model

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: Production scaling parameter: smallest three-decimal t whose scaling
#: family still integrates to at least 1 (root near 1.46596).
DEFAULT_T = Fraction(1466, 1000)


def scaling_margin(t: float) -> float:
    """Integral of the scaling family minus 1; the family is usable iff >= 0."""
    return (1 - t) * math.log(1 - 1 / t) + t - 2


def solve_t(tol: float = 1e-6) -> float:
    """Smallest usable scaling parameter, by bisection on the unit-integral
    condition; the guaranteed ratio is then 1 + t/2 (~1.733)."""
    return bisect_root(scaling_margin, 1.4, 1.6, tol)


@dataclass(frozen=True)
class ScalingFunction:
    """s(x) = (t-1)/(1-x) capped at t; nondecreasing on [0,1] with s(1) = t."""

    t: Fraction = DEFAULT_T

    def __post_init__(self):
        if not 1 <= self.t <= 2:
            raise ValueError(f"scaling parameter must lie in [1, 2], got {self.t}")

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"scaling argument must lie in [0, 1], got {x}")
        if x * self.t > 1:
            return self.t
        return (self.t - 1) / (1 - x)

    @property
    def cap(self) -> Fraction:
        return self.t

    @property
    def guaranteed_ratio(self) -> Fraction:
        return 1 + self.t / 2


def half_plus_x(x: Fraction) -> Fraction:
    """The simple affine scaling used in worked fixtures (not production)."""
    return HALF + Fraction(x)


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

    def column_sum(self, j: int) -> Fraction:
        return sum((row[j - 1] for row in self.shares), ZERO)


def _column_sums(matrix: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    cols = len(matrix[0])
    return [sum((row[j] for row in matrix), ZERO) for j in range(cols)]


def _first_fractional(row: Sequence[Fraction]) -> int | None:
    for j, a in enumerate(row, start=1):
        if 0 < a < 1:
            return j
    return None


def _trim_target(scaled_shares: list[Fraction]) -> list[Fraction]:
    """Unit-sum target profile: zero out the smallest holdings while the rest
    still cover 1, then dock the top holding by the leftover excess."""
    target = list(scaled_shares)
    total = sum(target, ZERO)
    assert total >= 1, "scaling family must not shrink total mass below 1"
    while True:
        positive = [(g, i) for i, g in enumerate(target) if g > 0]
        g_min, i_min = min(positive)
        if total - g_min >= 1:
            target[i_min] = ZERO
            total -= g_min
        else:
            break
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
    prefix_mass = []
    acc = ZERO
    for bi in b:
        acc += bi
        prefix_mass.append(acc)

    need = math.ceil(1 / b[0])
    cols = max(m, n, need)

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
        assert j == math.ceil(1 / b[i])
    for i in range(n):
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
                assert d_col is not None, "total surplus must equal total deficit"
                step = min(movable, d_gap)
                rebalanced[i][j] -= step
                rebalanced[i][d_col] += step
                movable -= step
                d_gap -= step
                if d_gap == 0:
                    d_col, d_gap = next(d_iter, (None, ZERO))
    assert all(s == 1 for s in _column_sums(rebalanced))
    # Suffix domination on the formerly-deficit range: late agents jointly
    # hold at least their proportional mass there, which step 4 relies on.
    for j in range(n, min(need, cols)):
        suffix = ZERO
        suffix_prop = ZERO
        for i in range(n - 1, -1, -1):
            suffix += rebalanced[i][j]
            suffix_prop += b[i]
            assert suffix >= suffix_prop, "suffix domination violated after rebalance"

    factors = [scaling(prefix_mass[i]) for i in range(n)]
    scaled = [row[:] for row in rebalanced]
    for i in range(n):
        for j in range(n, cols):
            scaled[i][j] = factors[i] * rebalanced[i][j]
    scaled_sums = _column_sums(scaled)
    assert all(s == 1 for s in scaled_sums[:n])
    assert all(s >= 1 for s in scaled_sums[n:]), "scaling must not starve a column"

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
        assert gap == 0
        for i in range(n):
            final_rows[i][j] = kept[i]
    assert all(s == 1 for s in _column_sums(final_rows))

    firsts = [_first_fractional(row) for row in final_rows]
    sentinel = any(f is None and 0 < b[i] < 1 for i, f in enumerate(firsts))
    if sentinel:
        for i in range(n):
            final_rows[i].append(b[i])
        firsts = [_first_fractional(row) for row in final_rows]
    for i in range(n):
        floor_slot = max(n, math.floor(1 / b[i]))
        assert firsts[i] is None or firsts[i] > floor_slot, \
            f"agent {i + 1} holds a fraction at column {firsts[i]}, within her danger zone"

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
    b = [Fraction(x) for x in entitlements]
    cols = alloc.columns
    priority = sorted(range(n), key=lambda i: (b[i], i), reverse=True)
    cumulative = [ZERO] * n
    received = [0] * n
    picks: list[int] = []
    for t in range(1, cols + 1):
        for i in range(n):
            cumulative[i] += alloc.shares[i][t - 1]
        chosen = next((i for i in priority if cumulative[i] > received[i]), None)
        assert chosen is not None, "illegal fractional allocation: no eligible agent"
        received[chosen] += 1
        picks.append(chosen + 1)
    return PickingOrder(prefix=tuple(picks))


@dataclass(frozen=True)
class GuaranteeReport:
    bound: Fraction
    order: tuple[int, ...]
    positions: dict[int, tuple[int, ...]]
    adversarial: dict[int, Fraction]
    max_adversarial: Fraction
    max_simulated: Fraction
    trials: int

    @property
    def ok(self) -> bool:
        return self.max_adversarial <= self.bound and self.max_simulated <= self.bound


def verify_guarantee(entitlements: Sequence[Fraction], trials: int = 100,
                     seed: int = 0, m: int = 40,
                     t: Fraction = DEFAULT_T) -> GuaranteeReport:
    """Build the order for the entitlements alone, then stress it.

    Two checks per agent: the exact adversarial worst case of her realized
    round set (the LP of `worst_case_bundle` with cap floor(1/b) and budget
    1/b, i.e. costs normalized to chore share = proportional share = 1), and
    seeded random common-order cost rows played greedily and compared to the
    exact chore share. Both must stay within 1 + t/2.
    """
    if m < 1:
        raise ValueError(f"need at least one chore, got m = {m}")
    b = [Fraction(x) for x in entitlements]
    n = len(b)
    bound = 1 + Fraction(t) / 2
    pipeline = build_fractional(b, ScalingFunction(Fraction(t)), m)
    order = pipeline.order()
    found = order.positions(m)
    positions = {i: found.get(i, ()) for i in range(1, n + 1)}

    adversarial: dict[int, Fraction] = {}
    for i in range(1, n + 1):
        cap = math.floor(1 / b[i - 1])
        adversarial[i] = worst_case_bundle(positions[i], m, cap, 1 / b[i - 1]).value
    max_adv = max(adversarial.values())

    rng = random.Random(seed)
    seq = to_sequence(order, m)
    grain = 10 ** 6
    max_sim = ZERO
    for _ in range(trials):
        rows = []
        for _ in range(n):
            draws = sorted((rng.randrange(1, grain + 1) for _ in range(m)), reverse=True)
            rows.append(tuple(Fraction(d, grain) for d in draws))
        inst = _model.ChoreInstance(entitlements=tuple(b), costs=tuple(rows))
        played = greedy_play(seq, inst)
        for i in range(1, n + 1):
            ratio = inst.bundle_cost(i, played.bundle(i)) / chore_share(rows[i - 1], b[i - 1])
            if ratio > max_sim:
                max_sim = ratio

    return GuaranteeReport(
        bound=bound,
        order=order.expand(m),
        positions=positions,
        adversarial=adversarial,
        max_adversarial=max_adv,
        max_simulated=max_sim,
        trials=trials,
    )
