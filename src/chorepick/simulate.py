"""Greedy play-out of picking sequences and exact worst-case evaluation of
picking orders against the chore share.

The evaluation problem: an agent holds the chores at a fixed set J of
allocation rounds. Scale her costs so the chore share is 1; the admissible
nonincreasing valuations v then satisfy

    v(1) <= 1,   v(cap+1) <= 1/2,   sum v <= budget,   v >= 0

(with cap = n and budget = n for equal entitlements; cap = floor(1/b) and
budget = 1/b in general). Her worst disvalue is the LP maximum of
sum_{j in J} v(j) over that polytope.

Writing a monotone v as a nonnegative combination of prefix indicator
vectors turns the polytope into one with three row constraints, so every
vertex stacks at most three distinct nonzero values. Cross-checking which
triples of constraints can be tight leaves exactly two block shapes:

    1 ... 1 | 1/2 ... 1/2 | c ... c | 0 ...      with 0 <= c <= 1/2
    1 ... 1 |  x  ...  x  | 1/2 ... 1/2 | 0 ...  with 1/2 <= x <= 1

where the free value (c or x) is pinned by the budget or by its clip range,
ones never extend past the cap, and an x block lives entirely inside the
cap. Enumerating both families over all block boundaries therefore computes
the LP optimum exactly; a search over candidate boundaries may skip any
boundary where the objective provably cannot peak (the prefix count of J is
unchanged and the free value only shrinks).

`worst_case_bundle` scans only such candidates: every block boundary of
both shapes is 0 or a position of J, so a call costs O(|J|^3) whatever m
and the cap. The result keeps the winning blocks, not the valuation: its
O(m) expansion is built only when it is read. With budget = P/Q each
candidate value is a ratio of integers, so the scan compares integer cross
products and builds Fractions only for the returned value and block values.
Candidates are visited in a fixed order and only a strictly larger value
replaces the best, so the attaining valuation is the first maximiser in
that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (Allocation, ChoreInstance, PickingOrder, PickingSequence, _exact_costs,
                    parse_rational, positions)

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def _greedy_picks(rows: Iterable, items: Iterable[int]) -> list[int]:
    """Let each row in turn pick the remaining item it values least.

    ``rows`` yields one row per turn, indexable by item. ``items`` come in
    ascending order and the remaining ones stay so, so ``min`` breaks ties
    toward the lowest item.
    """
    remaining = list(items)
    picks = []
    for row in rows:
        pick = min(remaining, key=row.__getitem__)
        remaining.remove(pick)
        picks.append(pick)
    return picks


def check_rounds(seq: PickingSequence, m: int) -> None:
    """Refuse a sequence whose round count is not the chore count m."""
    if len(seq) != m:
        raise ValueError(f"sequence covers {len(seq)} rounds, instance has {m} chores")


def greedy_play(seq: PickingSequence, inst: ChoreInstance) -> Allocation:
    """Play a picking sequence with every agent greedy.

    In her round a picker removes her minimum-disvalue remaining chore,
    breaking ties toward the lowest chore index.
    """
    check_rounds(seq, inst.m)
    held = seq.positions(inst.n)
    picks = _greedy_picks([inst.costs[who - 1] for who in seq.rounds], range(inst.m))
    return Allocation.from_lists([[picks[r - 1] + 1 for r in rs] for rs in held])


def guaranteed_disvalue(costs: Sequence[Fraction], rounds: Iterable[int]) -> Fraction:
    """Risk-averse guarantee of a set of picking rounds.

    Sort the costs nondecreasing; picking in round r guarantees no worse
    than the r-th entry, since at most r-1 better chores can be gone.

    >>> guaranteed_disvalue([6, 4, 4], [1, 2])
    Fraction(8, 1)
    >>> guaranteed_disvalue([6, 2, 2], [1, 2])
    Fraction(4, 1)
    """
    ranked = sorted(_exact_costs(costs))
    total = 0
    for r in rounds:
        if not 1 <= r <= len(ranked):
            raise ValueError(f"round {r} outside 1..{len(ranked)}")
        total += ranked[r - 1]
    return Fraction(total)


@dataclass(frozen=True)
class WorstCase:
    """LP maximum for the chores at ``positions`` among m rounds, with the
    blocks (a, b, d, mid, tail) of a valuation attaining it: ones on rounds
    1..a, mid on a+1..b, tail on b+1..d and zeros after d."""

    positions: tuple[int, ...]
    value: Fraction
    m: int
    blocks: tuple[int, int, int, Fraction, Fraction]

    @property
    def valuation(self) -> tuple[Fraction, ...]:
        """Expanded on each read; a cache would keep m Fractions per result."""
        a, b, d, mid, tail = self.blocks
        return (ONE,) * a + (mid,) * (b - a) + (tail,) * (d - b) + (ZERO,) * (self.m - d)


def worst_case_bundle(positions: Iterable[int], m: int, cap: int,
                      budget: Fraction) -> WorstCase:
    """Exact maximum of sum_{j in positions} v(j) over admissible valuations."""
    J = sorted(set(positions))
    if any(not 1 <= j <= m for j in J):
        raise ValueError(f"positions must lie in 1..{m}")
    budget = parse_rational(budget)
    P, Q = budget.numerator, budget.denominator
    cap = min(cap, m)

    # Every block boundary t is 0 or a position of J, so the prefix count
    # |J intersect [1..t]| is its rank c, and J[c:] lists the positions after
    # it. a_cands[ca] is the boundary with prefix count ca.
    a_cands = [0] + [j for j in J if j <= cap]
    # The best value so far is num/den and `win` holds its blocks as
    # (a, b, d, mid, tail) with mid and tail as (numerator, denominator).
    # Only a positive value replaces the all-zero start.
    num, den, win = 0, 1, (0, 0, 0, (0, 1), (0, 1))

    # Shape 1^a (1/2)^(b-a) c^(d-b): candidate boundaries sit on positions of
    # J (elsewhere the objective cannot peak: the prefix count is flat and
    # budget only erodes). slack = 2Q(budget - (a+b)/2), c = slack/(2Q(d-b)).
    for ca, a in enumerate(a_cands):
        if a * Q > P:
            break
        for cb, b in [(ca, a), *enumerate(J[ca:], ca + 1)]:
            slack = 2 * P - (a + b) * Q
            if slack < 0:
                break
            if (ca + cb) * den > 2 * num:
                num, den, win = ca + cb, 2, (a, b, b, (1, 2), (0, 1))
            if slack == 0:
                continue
            for cd, d in enumerate(J[cb:], cb + 1):
                width = Q * (d - b)
                if slack > width:  # c clipped at 1/2
                    if (ca + cd) * den > 2 * num:
                        num, den, win = ca + cd, 2, (a, b, d, (1, 2), (1, 2))
                else:
                    value = (ca + cb) * width + (cd - cb) * slack
                    if value * den > 2 * width * num:
                        num, den, win = value, 2 * width, (a, b, d, (1, 2), (slack, 2 * width))

    # Shape 1^a x^(b-a) (1/2)^(d-b) with 1/2 <= x <= 1; the x block must stay
    # inside the cap. Smaller x than 1/2 is shape-1 territory and is skipped.
    # With x = xn/(2Q(b-a)) = 1/2 + (budget - (a+d)/2)/(b-a), x never grows
    # with b, while the prefix count at b and J past b stay flat between
    # positions of J. So a b off J never beats the start of its run: the
    # last position of J before it, or a+1. And b = a+1 off J never beats
    # shape 1, which has already offered its value: its x block holds no
    # position of J, so it scores as 1^a alone or as 1^a (1/2)^(d-a).
    for ca, a in enumerate(a_cands):
        for cb, b in enumerate(J[ca:], ca + 1):
            if b > cap:
                break
            width = 2 * Q * (b - a)
            for cd, d in enumerate(J[cb - 1:], cb):  # d = b, then J past b
                xn = 2 * (P - a * Q) - (d - b) * Q
                if 2 * xn < width:  # x < 1/2, and x only falls as d grows
                    break
                if xn > width:  # x clipped at 1
                    if (cb + cd) * den > 2 * num:
                        num, den, win = cb + cd, 2, (a, b, d, (1, 1), (1, 2))
                else:
                    value = ca * width + (cb - ca) * xn + (cd - cb) * (width // 2)
                    if value * den > width * num:
                        num, den, win = value, width, (a, b, d, (xn, width), (1, 2))

    a, b, d, mid, tail = win
    return WorstCase(tuple(J), Fraction(num, den), m, (a, b, d, Fraction(*mid), Fraction(*tail)))


def worst_case_ratio_cs(positions: Iterable[int], n: int, m: int) -> WorstCase:
    """Worst disvalue of the chores at ``positions`` relative to chore share 1,
    for one of n equally entitled agents."""
    return worst_case_bundle(positions, m, cap=n, budget=Fraction(n))


@dataclass(frozen=True)
class OrderEvaluation:
    ratio: Fraction
    per_agent: dict[int, WorstCase]


def evaluate_order(order: PickingOrder, n: int, m: int) -> OrderEvaluation:
    """Worst-case chore-share ratio of an order truncated to m rounds."""
    per_agent = {agent: worst_case_ratio_cs(J, n, m)
                 for agent, J in enumerate(order.positions(m, n), start=1)}
    return OrderEvaluation(max((wc.value for wc in per_agent.values()), default=ZERO), per_agent)


@dataclass(frozen=True)
class RidgeDeviation:
    """Witness that an order deviating from the ridge prefix loses ratio >= 3/2.

    ``valuation`` is a common cost row; when all agents share it and play
    greedily, the order hands ``agent`` the chores at ``positions``, whose
    disvalue is at least 3/2 times the maximin share of the row.
    """

    kind: str  # "double-prefix" | "triple" | "early-second"
    agent: int
    positions: tuple[int, ...]
    valuation: tuple[Fraction, ...]
    ratio_floor: Fraction


def nonridge_witness(order: PickingOrder, n: int) -> RidgeDeviation | None:
    """Return None when the order opens with a ridge (each round-j recipient,
    j <= n, receives her second chore exactly at round 2n-j+1); otherwise a
    certifying adversarial valuation.

    Three deviations are possible and each pins the witness shape: an agent
    receiving twice among the first n rounds (all-ones row, ratio 2), an
    agent receiving three times among the first 2n rounds (all-halves row,
    ratio 3/2), or a recipient of round j <= n whose second chore arrives
    before round 2n-j+1 (j ones then 2(n-j) halves, ratio 3/2).
    """
    m = 2 * n
    head = order.expand(m)
    held = positions(head, n)

    def deviation(kind, agent, row):
        floor = Fraction(2) if kind == "double-prefix" else Fraction(3, 2)
        return RidgeDeviation(kind, agent, held[agent - 1], tuple(row), floor)

    # The agent whose k-th round comes earliest deviates if it is <= limit.
    for kind, k, limit, row in (("double-prefix", 2, n, [ONE] * n + [ZERO] * n),
                                ("triple", 3, m, [HALF] * m)):
        r, who = min(((rs[k - 1], who) for who, rs in enumerate(held, start=1) if len(rs) >= k),
                     default=(m + 1, None))
        if r <= limit:
            return deviation(kind, who, row)

    # Now the first n rounds go to distinct agents, each her first round.
    for j, who in enumerate(head[:n], start=1):
        rounds = held[who - 1]
        if len(rounds) > 1 and rounds[1] < 2 * n - j + 1:
            row = [ONE] * j + [HALF] * (2 * (n - j)) + [ZERO] * (m - j - 2 * (n - j))
            return deviation("early-second", who, row)
    return None
