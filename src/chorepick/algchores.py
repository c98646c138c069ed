"""Round-based chore allocation with envy-cycle resolution.

Chores are handed out from worst to best; each round the next chore goes to
an agent nobody-envied-by, i.e. one with no outgoing edge in the envy graph
(agent i envies j when she strictly prefers j's bundle to her own). When no
such agent exists the graph contains a cycle, and rotating bundles backward
along it strictly improves every member, so repeatedly resolving cycles
restores an envy-free agent and the total held disvalue strictly drops.

On common-order instances this gives every equally entitled agent a bundle
of disvalue at most (4n-1)/(3n) times her anyprice share, and the bound is
tight: `tight_example` builds the family of 2n+1 chores (three of disvalue
1, and pairs of disvalue 1 + j/n) where the final chore pushes one bundle
to exactly 4 - 1/n against a maximin share of 3.

General instances are reduced to common order first: run on each agent's
sorted costs, then replay the surrogate rounds in reverse, each recipient
taking her cheapest remaining real chore; no agent ends up above her
surrogate bundle's disvalue, and shares are permutation-invariant, so the
guarantee carries over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (Allocation, ChoreInstance, PickingOrder, equal_entitlements, to_ido,
                    to_sequence)
from .simulate import greedy_play

ZERO = Fraction(0)


@dataclass(frozen=True)
class RoundTrace:
    chore: int
    recipient: int
    rotations: tuple[tuple[int, ...], ...]  # cycles rotated, in resolution order


@dataclass(frozen=True)
class AlgChoresResult:
    allocation: Allocation            # on the original chores
    surrogate_allocation: Allocation  # on the common-order relabeling
    perms: tuple[tuple[int, ...], ...]
    trace: tuple[RoundTrace, ...]

    @property
    def rotations(self) -> int:
        return sum(len(r.rotations) for r in self.trace)


def _envies(costs, bundles, i: int, j: int) -> bool:
    row = costs[i]
    mine = sum((row[c - 1] for c in bundles[i]), ZERO)
    theirs = sum((row[c - 1] for c in bundles[j]), ZERO)
    return theirs < mine


def _envy_free_agent(costs, bundles, n: int) -> int | None:
    for i in range(n):
        if not any(_envies(costs, bundles, i, j) for j in range(n) if j != i):
            return i
    return None


def _find_cycle(costs, bundles, n: int) -> list[int]:
    """Walk lowest-index envy edges from the lowest-index envious agent until
    a node repeats; every agent envies someone here, so a cycle must close."""
    succ = {}
    for i in range(n):
        succ[i] = next(j for j in range(n) if j != i and _envies(costs, bundles, i, j))
    path = [0]
    seen = {0: 0}
    while True:
        nxt = succ[path[-1]]
        if nxt in seen:
            return path[seen[nxt]:]
        seen[nxt] = len(path)
        path.append(nxt)


def _core(costs: Sequence[Sequence[Fraction]], m: int, want_trace: bool):
    """Allocate chores 1..m (already worst-first) given common-order costs."""
    n = len(costs)
    bundles: list[set[int]] = [set() for _ in range(n)]
    trace: list[RoundTrace] = []
    totals = [ZERO] * n
    grand = [sum(row, ZERO) for row in costs]
    for r in range(1, m + 1):
        recipient = _envy_free_agent(costs, bundles, n)
        assert recipient is not None, "round must start with an envy-free agent"
        # An envy-free agent holds at most the average bundle, hence at most
        # her proportional share.
        assert totals[recipient] * n <= grand[recipient]
        bundles[recipient].add(r)
        totals[recipient] += costs[recipient][r - 1]
        rotations: list[tuple[int, ...]] = []
        while _envy_free_agent(costs, bundles, n) is None:
            cycle = _find_cycle(costs, bundles, n)
            before = sum(totals, ZERO)
            moved = [bundles[cycle[(k + 1) % len(cycle)]] for k in range(len(cycle))]
            for k, agent in enumerate(cycle):
                bundles[agent] = moved[k]
                totals[agent] = sum((costs[agent][c - 1] for c in moved[k]), ZERO)
            assert sum(totals, ZERO) < before, "rotation must strictly improve"
            rotations.append(tuple(a + 1 for a in cycle))
        assert len(set().union(*bundles)) == r, "bundles must partition the chores"
        if want_trace:
            trace.append(RoundTrace(r, recipient + 1, tuple(rotations)))
    return bundles, trace


def alg_chores(inst: ChoreInstance, *, trace: bool = False) -> AlgChoresResult:
    """Run the round-based allocation; non-common-order inputs are reduced
    and the result mapped back to the real chores."""
    if inst.is_ido:
        surrogate, perms = inst, tuple(tuple(range(1, inst.m + 1)) for _ in range(inst.n))
    else:
        surrogate, perms = to_ido(inst)
    bundles, rounds = _core(surrogate.costs, surrogate.m, trace)
    surrogate_alloc = Allocation.from_lists(bundles)

    # Replay the surrogate rounds best-to-worst on the real chores: the
    # picking sequence that mirrors the surrogate's allocation order.
    owners = [0] * inst.m
    for i, bundle in enumerate(bundles, start=1):
        for r in bundle:
            owners[r - 1] = i
    real = greedy_play(to_sequence(PickingOrder(tuple(owners))), inst)
    for i in range(1, inst.n + 1):
        got = inst.bundle_cost(i, real.bundle(i))
        surr = surrogate.bundle_cost(i, bundles[i - 1])
        assert got <= surr, "reduction must not worsen any bundle"

    return AlgChoresResult(
        allocation=real,
        surrogate_allocation=surrogate_alloc,
        perms=perms,
        trace=tuple(rounds),
    )


def tight_example(n: int) -> ChoreInstance:
    """Identical-valuation instance on 2n+1 chores where the allocation's
    worst bundle reaches exactly (4n-1)/(3n) times the maximin share of 3."""
    if n < 2:
        raise ValueError("tight example needs at least two agents")
    costs = []
    for j in range(n - 1, 0, -1):
        costs.extend([1 + Fraction(j, n)] * 2)
    costs.extend([Fraction(1)] * 3)
    row = tuple(costs)
    return ChoreInstance(entitlements=equal_entitlements(n), costs=tuple([row] * n))
