"""Chore-allocation instances, picking orders and sequences, and the
common-order reduction.

Conventions used throughout the package:

- Agents are numbered 1..n and chores 1..m. An instance is in *common order*
  (all agents rank chores the same way) when every cost row is nonincreasing
  in the chore index; chore 1 is then the worst chore for everybody.
- All numeric data is exact. Entitlements and costs are `fractions.Fraction`;
  instance files carry rationals as strings ("3/7", "0.25"), parsed exactly.
  Floats are rejected at the boundary so no rounding ever enters an instance.
- A *picking order* lists, for each allocation round r, the agent who
  receives chore r (rounds walk chores from worst to best). A *picking
  sequence* lists, for each picking round, the agent who picks her best
  remaining chore. For common-order instances the two views are mirror
  images: order round r corresponds to sequence round m - r + 1.
- Orders may be periodic (a prefix followed by a cycle repeated forever);
  expansion to any finite length truncates the infinite unrolling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class InstanceError(ValueError):
    """Instance data violates the file schema or a model invariant."""


class SizeGuardError(RuntimeError):
    """An exhaustive oracle was asked to run beyond its default size guard."""


def parse_rational(value) -> Fraction:
    """Parse "p/q", a decimal string, or an int into an exact Fraction."""
    if isinstance(value, bool):
        raise InstanceError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not a rational: {value!r}") from exc
    raise InstanceError(f"not a rational: {value!r} (floats are rejected; pass a string)")


@dataclass(frozen=True)
class ChoreInstance:
    """n agents with exact entitlements and an n-by-m nonnegative cost matrix."""

    entitlements: tuple[Fraction, ...]
    costs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entitlements:
            raise InstanceError("instance needs at least one agent")
        for i, b in enumerate(self.entitlements, start=1):
            if b <= 0:
                raise InstanceError(f"entitlement of agent {i} is {b}, must be positive")
        total = sum(self.entitlements)
        if total != 1:
            raise InstanceError(f"entitlements sum to {total}")
        if len(self.costs) != len(self.entitlements):
            raise InstanceError(
                f"expected {len(self.entitlements)} cost rows, got {len(self.costs)}")
        m = len(self.costs[0]) if self.costs else 0
        for i, row in enumerate(self.costs, start=1):
            if len(row) != m:
                raise InstanceError(f"agent {i} has {len(row)} costs, expected {m}")
            for j, c in enumerate(row, start=1):
                if c < 0:
                    raise InstanceError(f"cost of chore {j} for agent {i} is negative ({c})")

    @property
    def n(self) -> int:
        return len(self.entitlements)

    @property
    def m(self) -> int:
        return len(self.costs[0]) if self.costs else 0

    @property
    def is_ido(self) -> bool:
        """True iff every agent's costs are nonincreasing in the chore index."""
        return all(row[j] >= row[j + 1] for row in self.costs for j in range(len(row) - 1))

    def row(self, agent: int) -> tuple[Fraction, ...]:
        return self.costs[agent - 1]

    def bundle_cost(self, agent: int, chores: Iterable[int]) -> Fraction:
        row = self.costs[agent - 1]
        return sum((row[j - 1] for j in chores), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "agents": self.n,
            "chores": self.m,
            "entitlements": [str(b) for b in self.entitlements],
            "costs": [[str(c) for c in row] for row in self.costs],
        }

    @classmethod
    def from_dict(cls, data) -> "ChoreInstance":
        if not isinstance(data, dict):
            raise InstanceError("instance document must be a JSON object")
        for key in ("agents", "chores", "entitlements", "costs"):
            if key not in data:
                raise InstanceError(f"missing field {key!r}")
        n, m = data["agents"], data["chores"]
        if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 0:
            raise InstanceError("'agents' and 'chores' must be positive integers")
        ents = data["entitlements"]
        rows = data["costs"]
        if not isinstance(ents, list) or len(ents) != n:
            raise InstanceError(f"expected {n} entitlements, got {len(ents) if isinstance(ents, list) else type(ents).__name__}")
        if not isinstance(rows, list) or len(rows) != n:
            raise InstanceError(f"expected {n} cost rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
        for i, row in enumerate(rows, start=1):
            if not isinstance(row, list) or len(row) != m:
                raise InstanceError(f"cost row of agent {i} must list {m} chores")
        return cls(
            entitlements=tuple(parse_rational(b) for b in ents),
            costs=tuple(tuple(parse_rational(c) for c in row) for row in rows),
        )


def load_instance(path) -> ChoreInstance:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"invalid JSON: {exc}") from exc
    if isinstance(data, dict) and "agents" not in data and "instance" in data:
        data = data["instance"]  # accept a generator report as-is
    return ChoreInstance.from_dict(data)


def save_instance(inst: ChoreInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(inst.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def equal_entitlements(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


def to_ido(inst: ChoreInstance):
    """Rewrite an instance so every cost row is nonincreasing.

    Each agent's surrogate row is her own costs sorted from worst to best.
    Ties inside a row are broken by a shared reference ordering (chores
    sorted by total cost over all agents, then by original index), so agents
    with identical rows receive identical relabelings and an instance that is
    already in common order maps to itself.

    Returns (surrogate instance, perms) where perms[i-1][j-1] is the original
    index of agent i's j-th surrogate chore.
    """
    n, m = inst.n, inst.m
    totals = [sum(inst.costs[a][j] for a in range(n)) for j in range(m)]
    reference = sorted(range(m), key=lambda j: (-totals[j], j))
    ref_rank = {j: r for r, j in enumerate(reference)}
    perms = []
    rows = []
    for a in range(n):
        row = inst.costs[a]
        order = sorted(range(m), key=lambda j: (-row[j], ref_rank[j]))
        perms.append(tuple(j + 1 for j in order))
        rows.append(tuple(row[j] for j in order))
    surrogate = ChoreInstance(entitlements=inst.entitlements, costs=tuple(rows))
    return surrogate, tuple(perms)


@dataclass(frozen=True)
class PickingOrder:
    """Allocation-order view: entry r names the agent who receives chore r.

    A nonempty ``cycle`` makes the order periodic; ``expand`` unrolls
    prefix + cycle·cycle·... and truncates at the requested length.
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...] = ()

    def __post_init__(self):
        for who in self.prefix + self.cycle:
            if not isinstance(who, int) or who < 1:
                raise InstanceError(f"picker ids must be positive integers, got {who!r}")

    @property
    def is_periodic(self) -> bool:
        return bool(self.cycle)

    def expand(self, m: int) -> tuple[int, ...]:
        if m <= len(self.prefix):
            return self.prefix[:m]
        if not self.cycle:
            raise InstanceError(f"finite order of length {len(self.prefix)} cannot cover {m} rounds")
        out = list(self.prefix)
        while len(out) < m:
            out.extend(self.cycle)
        return tuple(out[:m])

    def positions(self, m: int) -> dict[int, tuple[int, ...]]:
        """Rounds (1-based) at which each agent receives a chore, per agent."""
        rounds: dict[int, list[int]] = {}
        for r, who in enumerate(self.expand(m), start=1):
            rounds.setdefault(who, []).append(r)
        return {who: tuple(rs) for who, rs in rounds.items()}


@dataclass(frozen=True)
class PickingSequence:
    """Picking-round view: entry r names the agent who picks in round r."""

    rounds: tuple[int, ...]

    def __post_init__(self):
        for who in self.rounds:
            if not isinstance(who, int) or who < 1:
                raise InstanceError(f"picker ids must be positive integers, got {who!r}")

    def __len__(self) -> int:
        return len(self.rounds)

    def picks_of(self, agent: int) -> tuple[int, ...]:
        return tuple(r for r, who in enumerate(self.rounds, start=1) if who == agent)


def to_sequence(order: PickingOrder, m: int | None = None) -> PickingSequence:
    """Mirror an allocation order into the picking sequence that realizes it.

    Sequence round r corresponds to order round m - r + 1: the agent slated
    to receive the r-th worst chore picks once the r-1 better picks are gone.
    """
    if m is None:
        if order.is_periodic:
            raise InstanceError("periodic order needs an explicit length to convert")
        m = len(order.prefix)
    return PickingSequence(tuple(reversed(order.expand(m))))


def to_order(seq: PickingSequence) -> PickingOrder:
    return PickingOrder(prefix=tuple(reversed(seq.rounds)))


@dataclass(frozen=True)
class Allocation:
    """A partition of chores 1..m into one bundle per agent."""

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for bundle in self.bundles:
            overlap = seen & bundle
            if overlap:
                raise InstanceError(f"chores {sorted(overlap)} assigned twice")
            seen |= bundle

    @classmethod
    def from_lists(cls, bundles: Sequence[Iterable[int]]) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles))

    @property
    def n(self) -> int:
        return len(self.bundles)

    def chores(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.bundles:
            out |= b
        return out

    def bundle(self, agent: int) -> frozenset[int]:
        return self.bundles[agent - 1]
