"""Chore-allocation instances, picking orders and sequences.

Conventions used throughout the package:

- Agents are numbered 1..n and chores 1..m. An instance is in *common order*
  (all agents rank chores the same way) when every cost row is nonincreasing
  in the chore index; chore 1 is then the worst chore for everybody.
- All numeric data is exact. Entitlements are Fractions, costs ints or
  Fractions; a file's "3/7" or "0.25" loads as a Fraction, "17" or 17 as an
  int. Floats are rejected at the boundary so no rounding ever enters.
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
from math import lcm
from typing import Iterable, Sequence


class InstanceError(ValueError):
    """Instance data violates the file schema or a model invariant."""


class SizeGuardError(RuntimeError):
    """An exhaustive oracle was asked to run beyond its default size guard."""


#: Largest agents-by-chores table the CLI builds: larger requests get a
#: SizeGuardError before anything is allocated.
CELL_LIMIT = 1 << 24


def guard_cells(n: int, m: int, what: str) -> None:
    # An empty dimension counts as one: n agents with no chores still cost n.
    if n * max(m, 1) > CELL_LIMIT:
        raise SizeGuardError(f"{what}: {n} x {m} cells exceed the guard of {CELL_LIMIT}")


class InvariantError(RuntimeError):
    """A construction broke one of its own invariants: a bug, not bad input."""


class CoveringViolation(RuntimeError):
    """Order synthesis got stuck: the schedule cannot cover some round."""


STAGE_MODES = ("random_bijection", "label_pick", "prsd")   # fairness.preliminary_stage's modes


def invariant(holds: bool, message: str) -> None:
    """Raise InvariantError unless ``holds``; unlike assert, it survives -O."""
    if not holds:
        raise InvariantError(message)


#: Largest decimal exponent parse_rational accepts: Fraction("1e30000000")
#: would compute 10**30000000. Python refuses digit strings this long too.
EXPONENT_LIMIT = 4300


def _parse_exact(value) -> int | Fraction:
    """Parse "p/q", a decimal string, an int or a Fraction exactly: an int or a
    plain ASCII digit string gives an int, anything else a Fraction."""
    if isinstance(value, bool):
        raise InstanceError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return int(value) if isinstance(value, int) else Fraction(value)
    if isinstance(value, str):
        try:
            # Plain "p" and "p/q" skip Fraction's regex. isascii first:
            # str.isdigit holds for "²", which int() refuses.
            if value.isascii():
                if value.isdigit():
                    return int(value)
                p, _, q = value.partition("/")
                if p.isdigit() and q.isdigit():
                    return Fraction(int(p), int(q))
            exponent = int(value.lower().rpartition("e")[2]) if "e" in value or "E" in value else 0
            if abs(exponent) <= EXPONENT_LIMIT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not a rational: {value!r}") from exc
        raise InstanceError(f"not a rational: {value!r} (exponents beyond {EXPONENT_LIMIT} "
                            f"are refused)")
    raise InstanceError(f"not a rational: {value!r} (floats are rejected; pass a string)")


def parse_rational(value) -> Fraction:
    """Parse "p/q", a decimal string, an int or a Fraction into an exact Fraction."""
    return Fraction(_parse_exact(value))


def _exact_costs(costs: Iterable) -> list:
    """An int or a Fraction stays as it is, anything else becomes Fraction(c):
    sorts and sums of int costs build no Fraction until the caller's result."""
    return [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in costs]


def _integer_row(costs: Iterable) -> tuple[int, list[int]]:
    """(scale, ints): the row, promoted as in _exact_costs, times the lcm of
    its denominators, so ints[j] == costs[j] * scale. A positive scale keeps
    every comparison and sum within the row."""
    row = _exact_costs(costs)
    scale = lcm(*(c.denominator for c in row))
    return scale, [c.numerator * (scale // c.denominator) for c in row]


def _check_entitlements(entitlements: Sequence) -> None:
    """Refuse entitlements unless they are positive ints or Fractions summing to 1."""
    for i, b in enumerate(entitlements, start=1):
        if type(b) not in (int, Fraction):  # floats are inexact; a bool is no number
            raise InstanceError(f"entitlement of agent {i} is not a rational: {b!r} (pass an int or a Fraction)")
        if b <= 0:
            raise InstanceError(f"entitlement of agent {i} is {b}, must be positive")
    total = sum(entitlements)
    if total != 1:
        raise InstanceError(f"entitlements sum to {total}")


@dataclass(frozen=True)
class ChoreInstance:
    """n agents with exact entitlements and an n-by-m nonnegative cost matrix."""

    entitlements: tuple[Fraction, ...]
    costs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entitlements:
            raise InstanceError("instance needs at least one agent")
        _check_entitlements(self.entitlements)
        if len(self.costs) != len(self.entitlements):
            raise InstanceError(
                f"expected {len(self.entitlements)} cost rows, got {len(self.costs)}")
        m = len(self.costs[0]) if self.costs else 0
        for i, row in enumerate(self.costs, start=1):
            if len(row) != m:
                raise InstanceError(f"agent {i} has {len(row)} costs, expected {m}")
            # One pass per row; only a failing row walks its entries, for the diagnostic.
            if {int, Fraction}.issuperset(map(type, row)) and min(row, default=0) >= 0:
                continue
            for j, c in enumerate(row, start=1):
                if type(c) not in (int, Fraction):
                    raise InstanceError(f"cost of chore {j} for agent {i} is not a rational: {c!r} (pass an int or a Fraction)")
                if c < 0:
                    raise InstanceError(f"cost of chore {j} for agent {i} is negative ({c})")

    @property
    def n(self) -> int:
        return len(self.entitlements)

    @property
    def m(self) -> int:
        return len(self.costs[0]) if self.costs else 0

    def row(self, agent: int) -> tuple[Fraction, ...]:
        return self.costs[agent - 1]

    def bundle_cost(self, agent: int, chores: Iterable[int]) -> Fraction:
        row = self.costs[agent - 1]
        return Fraction(sum(_exact_costs(row[j - 1] for j in chores)))

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
        if type(n) is not int or type(m) is not int or n < 1 or m < 0:  # refuses bool
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
            costs=tuple(tuple(map(_parse_exact, row)) for row in rows),
        )


def read_json(path):
    """The JSON document in a file. Malformed text, or nesting too deep for
    the parser's recursion, is an InstanceError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError:
            raise InstanceError(f"{path}: invalid JSON: nested too deeply to parse") from None


def load_instance(path) -> ChoreInstance:
    data = read_json(path)
    if isinstance(data, dict) and "agents" not in data and "instance" in data:
        data = data["instance"]  # accept a generator report as-is
    return ChoreInstance.from_dict(data)


def equal_entitlements(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


def positions(agents: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Per-agent rounds of a round-by-round list of agents.

    Entry i-1 holds the ascending 1-based rounds of agent i, for every agent
    1..n (empty when she never appears). An agent outside 1..n is refused.
    """
    if agents and (min(agents) < 1 or max(agents) > n):
        who = next(who for who in agents if not 1 <= who <= n)
        raise InstanceError(f"agent {who} is out of range 1..{n}")
    rounds: list[list[int]] = [[] for _ in range(n)]
    for r, who in enumerate(agents, start=1):
        rounds[who - 1].append(r)
    return tuple(map(tuple, rounds))


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
            if type(who) is not int or who < 1:  # bool too: JSON true is no agent
                raise InstanceError(f"picker ids must be positive integers, got {who!r}")

    @property
    def is_periodic(self) -> bool:
        return bool(self.cycle)

    def expand(self, m: int) -> tuple[int, ...]:
        if m < 0:
            raise InstanceError(f"round count must be nonnegative, got m = {m}")
        if m <= len(self.prefix):
            return self.prefix[:m]
        if not self.cycle:
            raise InstanceError(f"finite order of length {len(self.prefix)} cannot cover {m} rounds")
        out = list(self.prefix)
        while len(out) < m:
            out.extend(self.cycle)
        return tuple(out[:m])

    def positions(self, m: int, n: int) -> tuple[tuple[int, ...], ...]:
        """Rounds at which agents 1..n receive a chore in the first m rounds."""
        return positions(self.expand(m), n)


@dataclass(frozen=True)
class PickingSequence:
    """Picking-round view: entry r names the agent who picks in round r."""

    rounds: tuple[int, ...]

    def __post_init__(self):
        for who in self.rounds:
            if type(who) is not int or who < 1:  # bool too: JSON true is no agent
                raise InstanceError(f"picker ids must be positive integers, got {who!r}")

    def __len__(self) -> int:
        return len(self.rounds)

    def positions(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Rounds at which labels 1..n pick."""
        return positions(self.rounds, n)


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

    def bundle(self, agent: int) -> frozenset[int]:
        return self.bundles[agent - 1]
