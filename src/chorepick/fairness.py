"""Envy conditions and preliminary label-assignment stages.

A picking sequence names *labels*, not agents; a preliminary stage decides
which agent plays which label. For risk-averse agents the disvalue an agent
attaches to a label is the guarantee of its round set (`guaranteed_disvalue`),
which makes envy auditable without modeling beliefs:

- agent p never envies label-holder q, even after the fact, iff every
  suffix of the sequence gives q at least as many picks as p;
- a uniformly random bijection equalizes everyone in expectation (the mean
  label guarantee is exactly the proportional share);
- letting agents pick labels greedily in a uniformly random order can only
  help: each agent's received-label distribution stochastically dominates
  uniform;
- with unequal responsibilities, ordering the label picks by ascending
  responsibility (ties shuffled) keeps lower-responsibility agents from
  envying weakly higher ones ex ante.

`envy_tension_example` builds the responsibility vector on kn+1 chores
(k = n-2) witnessing that no sequence can both avoid such envy and stay
below 2 - 4/n times the anyprice share for the heaviest agent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import CELL_LIMIT, ChoreInstance, PickingSequence, SizeGuardError
from .simulate import _greedy_picks, check_rounds, guaranteed_disvalue

ZERO = Fraction(0)

STAGE_MODES = ("random_bijection", "label_pick", "prsd")
ENUMERATION_LIMIT = 6


@dataclass(frozen=True)
class SuffixEnvyResult:
    holds: bool
    suffix_start: int | None          # first round of a violating suffix
    witness: tuple[Fraction, ...] | None  # cost row: ones on the suffix length

    def __bool__(self) -> bool:
        return self.holds


def suffix_envy_condition(seq: PickingSequence, i: int, j: int) -> SuffixEnvyResult:
    """Does every suffix give picker j at least as many picks as picker i?

    When it fails, the returned witness row (as many ones as the violating
    suffix is long, zeros elsewhere) makes a risk-averse agent on label i
    envy label j: her guarantee counts her picks inside the suffix.
    """
    if i == j:
        raise ValueError("pickers must differ")
    rounds = seq.rounds
    m = len(rounds)
    count_i = count_j = 0
    for start in range(m, 0, -1):
        count_i += rounds[start - 1] == i
        count_j += rounds[start - 1] == j
        if count_j < count_i:
            ell = m - start + 1
            witness = tuple([Fraction(1)] * ell + [ZERO] * (m - ell))
            return SuffixEnvyResult(False, start, witness)
    return SuffixEnvyResult(True, None, None)


def label_guarantees(seq: PickingSequence, costs: Sequence[Fraction],
                     n: int) -> dict[int, Fraction]:
    """Guarantee of each label's round set under one agent's costs."""
    held = seq.positions(n)   # refuses a label outside 1..n first
    check_rounds(seq, len(costs))
    return dict(enumerate((guaranteed_disvalue(costs, rounds) for rounds in held), start=1))


def _greedy_label_order(guarantees, agent_order):
    """Each agent in turn takes the remaining label with the smallest
    guarantees[agent][label] (ties: lower label)."""
    labels = _greedy_picks([guarantees[a] for a in agent_order], range(1, len(guarantees) + 1))
    return dict(zip(agent_order, labels))


def preliminary_stage(mode: str, seq: PickingSequence,
                      cost_rows: Sequence[Sequence[Fraction]],
                      entitlements: Sequence[Fraction],
                      seed: int = 0) -> dict[int, int]:
    """Assign labels to agents. Returns {agent: label}, both 1-based.

    random_bijection: uniform. label_pick: uniform agent order, each agent
    takes the remaining label with the smallest guarantee (ties: lower
    label). prsd: agents ordered by ascending responsibility with random tie
    shuffle, then the same greedy label pick.
    """
    if mode not in STAGE_MODES:
        raise ValueError(f"unknown stage mode {mode!r}; choose from {STAGE_MODES}")
    n = len(cost_rows)
    rng = random.Random(seed)
    guarantees = {a: label_guarantees(seq, cost_rows[a - 1], n) for a in range(1, n + 1)}
    if mode == "random_bijection":
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        return {agent: labels[agent - 1] for agent in range(1, n + 1)}
    if mode == "label_pick":
        agents = list(range(1, n + 1))
        rng.shuffle(agents)
        return _greedy_label_order(guarantees, agents)
    order = sorted(range(1, n + 1),
                   key=lambda a: (Fraction(entitlements[a - 1]), rng.random()))
    return _greedy_label_order(guarantees, order)


@dataclass(frozen=True)
class AuditReport:
    mode: str
    mean_guarantee_is_proportional: bool | None
    dominates_uniform: bool | None
    no_upward_envy: bool | None

    @property
    def ok(self) -> bool:
        return all(v is not False for v in (
            self.mean_guarantee_is_proportional,
            self.dominates_uniform,
            self.no_upward_envy,
        ))


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
            == sum((Fraction(c) for c in cost_rows[a - 1]), ZERO)
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


@dataclass(frozen=True)
class TensionExample:
    """Responsibilities and adversarial costs that force a choice between
    upward envy and a ratio of 2 - 4/n for the heaviest agent."""

    n: int
    k: int
    m: int
    entitlements: tuple[Fraction, ...]
    heavy_costs: tuple[Fraction, ...]
    anyprice_upper: Fraction
    ratio_bound: Fraction
    suffix_holds_toward_heavy: dict[int, bool] | None
    heavy_guarantee: Fraction | None


def envy_tension_example(n: int, seq: PickingSequence | None = None) -> TensionExample:
    """Build the kn+1-chore tension instance (k = n-2), optionally analyzed
    against a concrete sequence where label 1 plays the heavy agent."""
    if n < 4:
        raise ValueError("the tension example needs n >= 4 (it degenerates below)")
    k = n - 2
    m = k * n + 1
    if m > CELL_LIMIT:
        raise SizeGuardError(f"the tension example: {m} chores exceed the guard of {CELL_LIMIT}")
    ents = (Fraction(k + 1, m),) + tuple(Fraction(k, m) for _ in range(n - 1))
    heavy = (Fraction(k),) + tuple(Fraction(1) for _ in range(m - 1))
    suffix = guarantee = None
    if seq is not None:
        check_rounds(seq, m)
        guarantee = guaranteed_disvalue(heavy, seq.positions(n)[0])
        suffix = {q: suffix_envy_condition(seq, q, 1).holds for q in range(2, n + 1)}
    return TensionExample(
        n=n, k=k, m=m,
        entitlements=ents,
        heavy_costs=heavy,
        anyprice_upper=Fraction(k + 2),
        ratio_bound=2 - Fraction(4, n),
        suffix_holds_toward_heavy=suffix,
        heavy_guarantee=guarantee,
    )


def tension_instance(example: TensionExample) -> ChoreInstance:
    """Instance form of the tension example: every agent uses the heavy row."""
    return ChoreInstance(
        entitlements=example.entitlements,
        costs=tuple([example.heavy_costs] * example.n),
    )
