"""Reference envy audit for the tests.

An earlier ``ef_ra_audit`` of the package, kept verbatim with its own n <= 6
guard and greedy label order: ``label_pick`` walks all n! agent orders into a
per-rank hit table, and ``prsd`` separately adds up an n-by-n table of held
guarantees over its tier shuffles. ``chorepick.fairness.ef_ra_audit`` must
return an equal ``AuditReport`` for every stage mode, or raise the same error,
wherever this enumeration can run.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from chorepick.fairness import AuditReport, label_guarantees
from chorepick.model import PickingSequence, SizeGuardError, _exact_costs
from chorepick.simulate import _greedy_picks

ZERO = Fraction(0)
ENUMERATION_LIMIT = 6


def _greedy_label_order(guarantees, agent_order):
    """Each agent in turn takes the remaining label with the smallest
    guarantees[agent][label] (ties: lower label)."""
    labels = _greedy_picks([guarantees[a] for a in agent_order], range(1, len(guarantees) + 1))
    return dict(zip(agent_order, labels))


def ef_ra_audit(seq: PickingSequence, mode: str,
                cost_rows: Sequence[Sequence[Fraction]],
                entitlements: Sequence[Fraction]) -> AuditReport:
    """Exhaustively audit a stage mode over its randomness (n <= 6).

    Checks, where applicable to the mode: the mean label guarantee equals
    the proportional share exactly (equal entitlements); under label_pick
    every agent's received-label distribution stochastically dominates
    uniform; under prsd no agent ex-ante prefers the label set of a weakly
    higher-responsibility agent.
    """
    n = len(cost_rows)
    if n > ENUMERATION_LIMIT:
        raise SizeGuardError(f"audit enumerates {n}! stage orders; limit is {ENUMERATION_LIMIT}")
    b = [Fraction(x) for x in entitlements]
    equal = all(x == b[0] for x in b)
    guarantees = {a: label_guarantees(seq, cost_rows[a - 1], n) for a in range(1, n + 1)}

    mean_ok = None
    if equal:
        # Label round sets partition the rounds, and the guarantee of round r
        # is the r-th cheapest chore, so the label guarantees sum to the total
        # cost; their mean is then exactly the proportional share total/n.
        mean_ok = all(
            sum(guarantees[a].values(), ZERO)
            == sum(_exact_costs(cost_rows[a - 1]))
            for a in range(1, n + 1)
        )

    dominates = None
    if mode == "label_pick":
        hits = {a: [0] * n for a in range(1, n + 1)}  # hits[a][k]: top-(k+1) count
        ranked = {a: sorted(row, key=lambda lab: (row[lab], lab))
                  for a, row in guarantees.items()}
        orders = list(itertools.permutations(range(1, n + 1)))
        for order in orders:
            got = _greedy_label_order(guarantees, order)
            for a in range(1, n + 1):
                rank = ranked[a].index(got[a])
                for k in range(rank, n):
                    hits[a][k] += 1
        total = len(orders)
        dominates = all(
            Fraction(hits[a][k], total) >= Fraction(k + 1, n)
            for a in range(1, n + 1) for k in range(n)
        )

    upward = None
    if mode == "prsd":
        groups = {}
        for a in range(1, n + 1):
            groups.setdefault(b[a - 1], []).append(a)
        tiers = [groups[key] for key in sorted(groups)]
        own = {a: ZERO for a in range(1, n + 1)}
        held = {(p, q): ZERO for p in range(1, n + 1) for q in range(1, n + 1)}
        outcomes = 0
        for shuffles in itertools.product(*[itertools.permutations(t) for t in tiers]):
            order = [a for tier in shuffles for a in tier]
            got = _greedy_label_order(guarantees, order)
            outcomes += 1
            for p in range(1, n + 1):
                own[p] += guarantees[p][got[p]]
                for q in range(1, n + 1):
                    held[(p, q)] += guarantees[p][got[q]]
        upward = all(
            own[p] <= held[(p, q)]
            for p in range(1, n + 1) for q in range(1, n + 1)
            if p != q and b[q - 1] >= b[p - 1]
        )

    return AuditReport(mode, mean_ok, dominates, upward)
