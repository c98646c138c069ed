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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import Allocation, ChoreInstance, PickingOrder, PickingSequence

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def greedy_play(seq: PickingSequence | Sequence[int], inst: ChoreInstance) -> Allocation:
    """Play a picking sequence with every agent greedy.

    In her round a picker removes her minimum-disvalue remaining chore,
    breaking ties toward the lowest chore index.
    """
    rounds = seq.rounds if isinstance(seq, PickingSequence) else tuple(seq)
    if len(rounds) != inst.m:
        raise ValueError(f"sequence covers {len(rounds)} rounds, instance has {inst.m} chores")
    remaining = list(range(1, inst.m + 1))
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    for who in rounds:
        if not 1 <= who <= inst.n:
            raise ValueError(f"picker {who} out of range 1..{inst.n}")
        row = inst.costs[who - 1]
        pick = min(remaining, key=lambda j: (row[j - 1], j))
        remaining.remove(pick)
        bundles[who - 1].add(pick)
    return Allocation.from_lists(bundles)


def guaranteed_disvalue(costs: Sequence[Fraction], rounds: Iterable[int]) -> Fraction:
    """Risk-averse guarantee of a set of picking rounds.

    Sort the costs nondecreasing; picking in round r guarantees no worse
    than the r-th entry, since at most r-1 better chores can be gone.

    >>> guaranteed_disvalue([6, 4, 4], [1, 2])
    Fraction(8, 1)
    >>> guaranteed_disvalue([6, 2, 2], [1, 2])
    Fraction(4, 1)
    """
    ranked = sorted(Fraction(c) for c in costs)
    total = ZERO
    for r in rounds:
        if not 1 <= r <= len(ranked):
            raise ValueError(f"round {r} outside 1..{len(ranked)}")
        total += ranked[r - 1]
    return total


@dataclass(frozen=True)
class WorstCase:
    """LP maximum together with a valuation attaining it."""

    value: Fraction
    valuation: tuple[Fraction, ...]


def _build_valuation(m, a, b, d, mid, tail):
    out = [ZERO] * m
    for j in range(a):
        out[j] = ONE
    for j in range(a, b):
        out[j] = mid
    for j in range(b, d):
        out[j] = tail
    return tuple(out)


def worst_case_bundle(positions: Iterable[int], m: int, cap: int,
                      budget: Fraction) -> WorstCase:
    """Exact maximum of sum_{j in positions} v(j) over admissible valuations."""
    J = sorted(set(positions))
    if any(not 1 <= j <= m for j in J):
        raise ValueError(f"positions must lie in 1..{m}")
    if not J or m == 0:
        return WorstCase(ZERO, tuple([ZERO] * m))
    budget = Fraction(budget)
    cap = min(cap, m)

    count = [0] * (m + 1)  # count[d] = |J intersect [1..d]|
    for j in J:
        count[j] += 1
    for d in range(1, m + 1):
        count[d] += count[d - 1]

    best = WorstCase(ZERO, tuple([ZERO] * m))
    a_cands = [0] + [j for j in J if j <= cap]

    def offer(value, a, b, d, mid, tail):
        nonlocal best
        if value > best.value:
            best = WorstCase(value, _build_valuation(m, a, b, d, mid, tail))

    # Shape 1^a (1/2)^(b-a) c^(d-b): candidate boundaries sit on positions of
    # J (elsewhere the objective cannot peak: the prefix count is flat and
    # budget only erodes).
    for a in a_cands:
        if a > budget:
            break
        for b in [a] + [j for j in J if j > a]:
            used = a + Fraction(b - a, 2)
            if used > budget:
                break
            base = Fraction(count[a]) + Fraction(count[b] - count[a], 2)
            offer(base, a, b, b, HALF, ZERO)
            slack = budget - used
            for d in (j for j in J if j > b):
                c = slack / (d - b)
                if c > HALF:
                    c = HALF
                if c == 0:
                    break
                offer(base + (count[d] - count[b]) * c, a, b, d, HALF, c)

    # Shape 1^a x^(b-a) (1/2)^(d-b) with 1/2 <= x <= 1; the x block must stay
    # inside the cap. Smaller x than 1/2 is shape-1 territory and is skipped.
    for a in a_cands:
        for b in range(a + 1, cap + 1):
            lead = Fraction(count[a])
            for d in [b] + [j for j in J if j > b]:
                x = (budget - a - Fraction(d - b, 2)) / (b - a)
                if x > ONE:
                    x = ONE
                if x < HALF:
                    continue
                value = lead + (count[b] - count[a]) * x + Fraction(count[d] - count[b], 2)
                offer(value, a, b, d, x, HALF)

    return best


def worst_case_ratio_cs(positions: Iterable[int], n: int, m: int) -> WorstCase:
    """Worst disvalue of the chores at ``positions`` relative to chore share 1,
    for one of n equally entitled agents."""
    return worst_case_bundle(positions, m, cap=n, budget=Fraction(n))


@dataclass(frozen=True)
class AgentEvaluation:
    positions: tuple[int, ...]
    ratio: Fraction
    valuation: tuple[Fraction, ...]


@dataclass(frozen=True)
class OrderEvaluation:
    ratio: Fraction
    per_agent: dict[int, AgentEvaluation]

    def worst_agent(self) -> int:
        return max(self.per_agent, key=lambda i: (self.per_agent[i].ratio, -i))


def evaluate_order(order: PickingOrder, n: int, m: int) -> OrderEvaluation:
    """Worst-case chore-share ratio of an order truncated to m rounds."""
    positions = order.positions(m)
    if any(not 1 <= who <= n for who in positions):
        raise ValueError(f"order names agents outside 1..{n}")
    per_agent: dict[int, AgentEvaluation] = {}
    worst = ZERO
    for agent in range(1, n + 1):
        J = positions.get(agent, ())
        wc = worst_case_ratio_cs(J, n, m)
        per_agent[agent] = AgentEvaluation(J, wc.value, wc.valuation)
        worst = max(worst, wc.value)
    return OrderEvaluation(worst, per_agent)


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
    positions = order.positions(m)

    def deviation(kind, agent, row):
        floor = Fraction(2) if kind == "double-prefix" else Fraction(3, 2)
        return RidgeDeviation(kind, agent, positions[agent], tuple(row), floor)

    firsts: dict[int, int] = {}
    for r in range(1, n + 1):
        who = head[r - 1]
        if who in firsts:
            return deviation("double-prefix", who, [ONE] * n + [ZERO] * n)
        firsts[who] = r

    counts: dict[int, int] = {}
    for who in head:
        counts[who] = counts.get(who, 0) + 1
        if counts[who] >= 3:
            return deviation("triple", who, [HALF] * m)

    for who, j in firsts.items():
        rounds = positions[who]
        if len(rounds) > 1 and rounds[1] < 2 * n - j + 1:
            row = [ONE] * j + [HALF] * (2 * (n - j)) + [ZERO] * (m - j - 2 * (n - j))
            return deviation("early-second", who, row)
    return None
