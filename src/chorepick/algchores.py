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

It all runs on integers, each agent's row times the lcm of its denominators:
agent i compares only entries of her own row, which a positive scale keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Allocation, ChoreInstance, _integer_row, equal_entitlements, invariant
from .simulate import _greedy_picks


@dataclass(frozen=True)
class RoundTrace:
    chore: int
    recipient: int
    rotations: tuple[tuple[int, ...], ...]  # cycles rotated, in resolution order


@dataclass(frozen=True)
class AlgChoresResult:
    allocation: Allocation            # on the original chores
    surrogate_allocation: Allocation  # on the common-order relabeling
    trace: tuple[RoundTrace, ...]

    @property
    def rotations(self) -> int:
        """Envy cycles rotated, counted from the trace alone: it reads 0
        without ``trace=True``, even when cycles were rotated."""
        return sum(len(r.rotations) for r in self.trace)


# held[i][j] is agent i's disvalue for the bundle agent j holds; agent i
# envies j exactly when held[i][j] < held[i][i].

def _envy_free_agent(held) -> int | None:
    return next((i for i, row in enumerate(held) if min(row) == row[i]), None)


def _find_cycle(held) -> list[int]:
    """Walk lowest-index envy edges from agent 0 until a node repeats; every
    agent envies someone here, so a cycle must close."""
    succ = [next(j for j, v in enumerate(row) if v < row[i]) for i, row in enumerate(held)]
    path = [0]
    seen = {0: 0}
    while True:
        nxt = succ[path[-1]]
        if nxt in seen:
            return path[seen[nxt]:]
        seen[nxt] = len(path)
        path.append(nxt)


def _core(costs: Sequence[Sequence[int]], m: int, want_trace: bool):
    """Allocate chores 1..m (already worst-first) given common-order integer
    costs, each row on its agent's own scale, which is exact as agent i reads
    only row i of ``held``; returns the bundles, the trace and ``held``."""
    n = len(costs)
    bundles: list[set[int]] = [set() for _ in range(n)]
    trace: list[RoundTrace] = []
    held = [[0] * n for _ in range(n)]
    grand = [sum(row) for row in costs]
    # The envy-free agent found when a round's rotations end receives the
    # next round's chore: nothing changes in between.
    recipient = _envy_free_agent(held)
    for r in range(1, m + 1):
        invariant(recipient is not None, "round must start with an envy-free agent")
        # An envy-free agent holds at most the average bundle, hence at most
        # her proportional share.
        invariant(held[recipient][recipient] * n <= grand[recipient],
                  "an envy-free agent must hold at most her proportional share")
        bundles[recipient].add(r)
        for i in range(n):
            held[i][recipient] += costs[i][r - 1]
        rotations: list[tuple[int, ...]] = []
        while (chosen := _envy_free_agent(held)) is None:
            cycle = _find_cycle(held)
            before = [held[i][i] for i in cycle]
            # Agent cycle[k] takes the bundle of cycle[k+1]: the bundles and
            # the columns of held move together.
            source = cycle[1:] + cycle[:1]
            for row in (bundles, *held):
                moved = [row[j] for j in source]
                for agent, item in zip(cycle, moved):
                    row[agent] = item
            invariant(all(held[i][i] < b for i, b in zip(cycle, before)),
                      "rotation must strictly improve every member")
            rotations.append(tuple(a + 1 for a in cycle))
        invariant(len(set().union(*bundles)) == r, "bundles must partition the chores")
        if want_trace:
            trace.append(RoundTrace(r, recipient + 1, tuple(rotations)))
        recipient = chosen
    return bundles, trace, held


def alg_chores(inst: ChoreInstance, *, trace: bool = False) -> AlgChoresResult:
    """Run the round-based allocation on the common-order reduction (each
    agent's costs sorted worst-first, which maps a common-order instance to
    itself) and map the result back to the real chores."""
    rows = [_integer_row(row)[1] for row in inst.costs]
    bundles, rounds, held = _core([sorted(row, reverse=True) for row in rows], inst.m, trace)

    # Replay the surrogate rounds best-to-worst on the real chores: the
    # recipients in reverse allocation order, each taking her cheapest one.
    pickers = [0] * inst.m
    for i, bundle in enumerate(bundles):
        for r in bundle:
            pickers[inst.m - r] = i
    real = [[] for _ in bundles]
    for i, chore in zip(pickers, _greedy_picks([rows[i] for i in pickers], range(inst.m))):
        real[i].append(chore + 1)
    for i, bundle in enumerate(real):  # held[i][i]: agent i's surrogate bundle
        invariant(sum(rows[i][j - 1] for j in bundle) <= held[i][i],
                  "reduction must not worsen any bundle")

    return AlgChoresResult(
        allocation=Allocation.from_lists(real),
        surrogate_allocation=Allocation.from_lists(bundles),
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
