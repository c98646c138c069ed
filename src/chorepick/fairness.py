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

`ef_ra_audit` checks the last three exactly for n <= 12: it counts the agent
orders (shuffles within responsibility tiers) reaching each (placed, taken) state.

`envy_tension_example` builds the responsibility vector on kn+1 chores
(k = n-2) witnessing that no sequence can both avoid such envy and stay
below 2 - 4/n times the anyprice share for the heaviest agent.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (CELL_LIMIT, ChoreInstance, PickingSequence, SizeGuardError, _exact_costs,
                    parse_rational)
from .simulate import _greedy_picks, check_rounds, guaranteed_disvalue

ZERO = Fraction(0)

STAGE_MODES = ("random_bijection", "label_pick", "prsd")
AUDIT_LIMIT = 12   # random rows reach about 6,000 (placed, taken) audit states at n = 12


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
    return {lab: Fraction(g) for lab, g in _label_sums(seq, costs, n).items()}


def _label_sums(seq: PickingSequence, costs, n: int) -> dict:
    """`label_guarantees` in the costs' own type, from one ranking of the row:
    round r guarantees the r-th cheapest cost, as in `guaranteed_disvalue`."""
    held = seq.positions(n)   # refuses a label outside 1..n first
    check_rounds(seq, len(costs))
    ranked = sorted(_exact_costs(costs))
    return {lab: sum(ranked[r - 1] for r in rounds) for lab, rounds in enumerate(held, start=1)}


def _stage_inputs(mode: str, seq: PickingSequence, cost_rows, entitlements):
    """Check the mode and the count; return n, parsed b and every label guarantee."""
    if mode not in STAGE_MODES:
        raise ValueError(f"unknown stage mode {mode!r}; choose from {STAGE_MODES}")
    n = len(cost_rows)
    b = [parse_rational(x) for x in entitlements]
    if len(b) != n:
        raise ValueError(f"expected {n} entitlements, got {len(b)}")
    return n, b, {a: _label_sums(seq, cost_rows[a - 1], n) for a in range(1, n + 1)}


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
    n, b, guarantees = _stage_inputs(mode, seq, cost_rows, entitlements)
    rng = random.Random(seed)
    agents = list(range(1, n + 1))
    if mode == "prsd":
        agents.sort(key=lambda a: (b[a - 1], rng.random()))
    else:
        rng.shuffle(agents)
    if mode == "random_bijection":
        return dict(enumerate(agents, start=1))
    return dict(zip(agents, _greedy_picks([guarantees[a] for a in agents], range(1, n + 1))))


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
    """Exactly audit a stage mode over its randomness (n <= 12).

    Checks, where applicable to the mode: the mean label guarantee equals
    the proportional share exactly (equal entitlements); under label_pick
    every agent's received-label distribution stochastically dominates
    uniform; under prsd no agent ex-ante prefers the label set of a weakly
    higher-responsibility agent.
    """
    if len(cost_rows) > AUDIT_LIMIT:
        raise SizeGuardError(f"audit of {len(cost_rows)} agents exceeds the guard of {AUDIT_LIMIT}")
    n, b, guarantees = _stage_inputs(mode, seq, cost_rows, entitlements)
    agents = range(1, n + 1)
    # Label round sets partition the rounds and round r guarantees the r-th cheapest
    # chore, so each row's label guarantees sum to its total: their mean is total/n.
    mean_ok = all(sum(guarantees[a].values(), ZERO) == sum(_exact_costs(cost_rows[a - 1]))
                  for a in agents) if len(set(b)) <= 1 else None
    if mode == "random_bijection":
        return AuditReport(mode, mean_ok, None, None)
    tiers = [agents] if mode == "label_pick" else [
        [a for a in agents if b[a - 1] == x] for x in sorted(set(b))]
    ranked = {a: sorted(row, key=lambda lab: (row[lab], lab)) for a, row in guarantees.items()}
    # The stage orders (tier shuffles) reaching each state (agents placed, labels taken,
    # as bitmasks): the next agent is uniform over her tier's `left` unplaced agents.
    received = {a: Counter() for a in agents}
    states = {(0, 0): math.prod(math.factorial(len(tier)) for tier in tiers)}
    for tier in tiers:
        for left in range(len(tier), 0, -1):
            after = Counter()
            for (placed, taken), orders in states.items():
                for a in tier:
                    if not placed >> a & 1:
                        lab = next(lab for lab in ranked[a] if not taken >> lab & 1)
                        received[a][lab] += orders // left
                        after[placed | 1 << a, taken | 1 << lab] += orders // left
            states = after
    if mode == "label_pick":
        # Each agent's k+1 cheapest labels reach her in at least (k+1)/n of the n! orders.
        dominates = all(n * top >= (k + 1) * math.factorial(n) for a in agents for k, top in
                        enumerate(itertools.accumulate(received[a][lab] for lab in ranked[a])))
        return AuditReport(mode, mean_ok, dominates, None)
    # p's summed guarantee on her own labels, minus on q's, both under p's costs.
    upward = all(
        sum(g * (received[p][lab] - received[q][lab]) for lab, g in guarantees[p].items()) <= 0
        for p in agents for q in agents if p != q and b[q - 1] >= b[p - 1])
    return AuditReport(mode, mean_ok, None, upward)


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
