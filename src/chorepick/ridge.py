"""Ridge picking orders for equal entitlements: period schedules, covering
tests, order synthesis, the halving transform, and the scalar bounds.

A ridge order opens by giving chores 1..n to agents 1..n and chores
n+1..2n to agents n..1, then paces each agent i by a rational period p(i):
her t-th chore may not arrive before her t-th release threshold. Thresholds
come in three flavors, keyed to where the agent sits:

- immediate (class 0): ceil(p), ceil(2p), ceil(3p), ...   (mid agents)
- after the first chore (class 1): i, i+ceil(p), i+ceil(2p), ...  (early)
- after the ridge pair (class 2): i, 2n-i+1, 2n-i+1+ceil(p), ...  (late)

Periods are the largest pick rates compatible with a target ratio rho
against the chore share: n/rho for class 0, (n-i)/(rho-1) for class 1 and
(i-1)/(2(rho-1)) for class 2. "Super" mode prices each agent as a block
representative (first member for early blocks, last member for late
blocks), giving (n-i+1)/(rho-1) and i/(2(rho-1)) instead.

An order exists iff the thresholds *cover* every round: at least k
thresholds of value <= k for every k. Failing any finite k refutes the
schedule outright. Passing is conclusive once the covering ratio
r = sum 1/p(i) exceeds 1: every round past 2n + n/(r-1) is then covered
automatically, so only a finite scan is needed. At r <= 1 a clean scan is
reported as inconclusive.

Everything round-valued is exact: periods are Fractions and thresholds
integer ceilings of k*p. The covering ratio itself is summed exactly for
small n and in floating point for large n (the exact value has an
astronomically long denominator there), which only ever affects the
reported ratio and the scan horizon, never a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import InstanceError, PickingOrder

EXACT_RATIO_LIMIT = 128


class CoveringViolation(RuntimeError):
    """Order synthesis got stuck: the schedule cannot cover some round."""


class DominationError(ValueError):
    """A paired threshold list is not pointwise comparable from entry 3 on."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        super().__init__(f"threshold domination fails for pairs {self.pairs}")


@dataclass(frozen=True)
class ThresholdSchedule:
    """Per-agent class, exact period, and generated release thresholds."""

    n: int
    rho: Fraction
    mode: str
    classes: tuple[int, ...]
    periods: tuple[Fraction, ...]
    ridge_violations: tuple[int, ...]

    @property
    def ridge_ok(self) -> bool:
        return not self.ridge_violations

    def _head(self, agent: int) -> tuple[int, ...]:
        """The thresholds before the period steps: the first c of (i, 2n-i+1)
        for class c. The steps then add ceil(k*p) to the head's last entry
        (or to 0 when the head is empty)."""
        return (agent, 2 * self.n - agent + 1)[:self.classes[agent - 1]]

    def threshold(self, agent: int, t: int) -> int:
        """The t-th (1-based) release threshold of an agent."""
        head = self._head(agent)
        if t <= len(head):
            return head[t - 1]
        p = self.periods[agent - 1]
        base = head[-1] if head else 0
        k = t - len(head)
        return base + (-((-k * p.numerator) // p.denominator))

    def thresholds_upto(self, agent: int, horizon: int) -> list[int]:
        """All thresholds of an agent with value <= horizon, in order."""
        head = self._head(agent)
        if head and head[-1] > horizon:
            return [t for t in head if t <= horizon]
        out = list(head)
        base = head[-1] if head else 0
        p = self.periods[agent - 1]
        num, den = p.numerator, p.denominator
        k = 1
        while True:
            t = base + (-((-k * num) // den))
            if t > horizon:
                return out
            out.append(t)
            k += 1


def ridge_periods(n: int, rho: Fraction, mode: str = "agent") -> ThresholdSchedule:
    """Classes and periods for n agents at target ratio rho.

    >>> from fractions import Fraction as F
    >>> ridge_periods(4, F(10, 7)).periods
    (Fraction(7, 1), Fraction(14, 3), Fraction(14, 5), Fraction(7, 2))
    """
    rho = Fraction(rho)
    if n < 1:
        raise ValueError(f"need at least one agent, got n = {n}")
    if rho <= 1:
        raise ValueError(f"target ratio must exceed 1, got {rho}")
    if mode not in ("agent", "super"):
        raise ValueError(f"mode must be 'agent' or 'super', got {mode!r}")
    early_cut = Fraction(n) / rho          # class 1 below it
    late_cut = 2 * n + 1 - 2 * Fraction(n) / rho  # class 2 above it (agent mode)
    classes: list[int] = []
    periods: list[Fraction] = []
    for i in range(1, n + 1):
        if mode == "agent":
            if i < early_cut:
                cls, p = 1, Fraction(n - i) / (rho - 1)
            elif i <= late_cut:
                cls, p = 0, Fraction(n) / rho
            else:
                cls, p = 2, Fraction(i - 1) / (2 * (rho - 1))
        else:
            # Block accounting: a block is early if its first member is,
            # late if its last member is; periods take the block's slowest
            # member in the limit of large blocks.
            if i > 2 * n - 2 * Fraction(n) / rho:
                cls, p = 2, Fraction(i) / (2 * (rho - 1))
            elif i - 1 < early_cut:
                cls, p = 1, Fraction(n - i + 1) / (rho - 1)
            else:
                cls, p = 0, Fraction(n) / rho
        classes.append(cls)
        periods.append(p)

    sched = ThresholdSchedule(n, rho, mode, tuple(classes), tuple(periods), ())
    violations = []
    for i in range(1, n + 1):
        cls = classes[i - 1]
        ok = True
        if cls == 0:
            ok = sched.threshold(i, 1) <= i and sched.threshold(i, 2) <= 2 * n - i + 1
        elif cls == 1:
            ok = sched.threshold(i, 2) <= 2 * n - i + 1
        if not ok:
            violations.append(i)
    if violations:
        sched = ThresholdSchedule(n, rho, mode, tuple(classes), tuple(periods),
                                  tuple(violations))
    return sched


@dataclass(frozen=True)
class CoveringVerdict:
    status: str                 # "pass" | "fail" | "inconclusive"
    failing_k: int | None
    covering_ratio: float
    covering_ratio_exact: Fraction | None
    horizon: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "verdict": self.status,
            "failing_k": self.failing_k,
            "covering_ratio": self.covering_ratio,
            "covering_ratio_exact": self.covering_ratio_exact,
            "horizon": self.horizon,
        }


def covering_ratio(sched: ThresholdSchedule) -> tuple[float, Fraction | None]:
    """Sum of pick rates 1/p(i); exact for small n, floating point beyond."""
    if sched.n <= EXACT_RATIO_LIMIT:
        exact = sum((1 / p for p in sched.periods), Fraction(0))
        return float(exact), exact
    return math.fsum(p.denominator / p.numerator for p in sched.periods), None


def covering_test(sched: ThresholdSchedule,
                  fallback_horizon: int | None = None) -> CoveringVerdict:
    """Check that at least k thresholds are <= k for every k up to the horizon.

    With covering ratio r > 1 the horizon ceil(2n + n/(r-1)) is conclusive: a
    clean scan proves an order with ratio <= rho exists. With r <= 1 no finite
    horizon is conclusive, so a clean scan up to the caller-supplied fallback
    (default max(4n, 64)) returns "inconclusive". A violated round is
    definitive either way and the smallest one is reported.
    """
    n = sched.n
    r_float, r_exact = covering_ratio(sched)
    if (r_exact is not None and r_exact > 1) or (r_exact is None and r_float > 1):
        if r_exact is not None:
            horizon = math.ceil(2 * n + n / (r_exact - 1))
        else:
            horizon = math.ceil(2 * n + n / (r_float - 1))
        clean = "pass"
    else:
        horizon = fallback_horizon if fallback_horizon is not None else max(4 * n, 64)
        clean = "inconclusive"
    horizon = max(horizon, 2 * n)

    failing = covering_of_lists(
        (sched.thresholds_upto(agent, horizon) for agent in range(1, n + 1)), horizon)
    status = "fail" if failing is not None else clean
    return CoveringVerdict(status, failing, r_float, r_exact, horizon)


def synthesize_order(sched: ThresholdSchedule, m: int) -> PickingOrder:
    """Build an order of length m respecting every threshold.

    Rounds 1..2n follow the ridge; afterwards each round goes to an agent
    holding an unconsumed threshold already released, preferring the agent
    with the largest backlog of released thresholds, then the lowest index.
    A stuck round means the covering constraint fails there.
    """
    n = sched.n
    if m > 2 * n and not sched.ridge_ok:
        raise CoveringViolation(
            f"ridge constraints violated for agents {sched.ridge_violations}")
    lists = [sched.thresholds_upto(i, m) for i in range(1, n + 1)]
    released = [0] * n   # thresholds with value <= current round
    consumed = [0] * n
    pointer = [0] * n
    assignment: list[int] = []
    for k in range(1, m + 1):
        for i in range(n):
            lst = lists[i]
            while pointer[i] < len(lst) and lst[pointer[i]] <= k:
                pointer[i] += 1
                released[i] += 1
        if k <= 2 * n:
            agent = k if k <= n else 2 * n - k + 1
            if released[agent - 1] <= consumed[agent - 1]:
                raise CoveringViolation(f"ridge round {k} precedes a threshold")
        else:
            agent = 0
            backlog = 0
            for i in range(n):
                avail = released[i] - consumed[i]
                if avail > backlog:
                    agent, backlog = i + 1, avail
            if agent == 0:
                raise CoveringViolation(f"no released threshold at round {k}")
        consumed[agent - 1] += 1
        assignment.append(agent)
    return PickingOrder(prefix=tuple(assignment))


def replay_thresholds(order: PickingOrder, sched: ThresholdSchedule,
                      m: int) -> list[tuple[int, int, int, int]]:
    """Check an order against a schedule; list (agent, t, round, threshold)
    violations where the t-th chore of an agent arrives before its release."""
    violations = []
    counts = [0] * sched.n
    for r, who in enumerate(order.expand(m), start=1):
        counts[who - 1] += 1
        need = sched.threshold(who, counts[who - 1])
        if r < need:
            violations.append((who, counts[who - 1], r, need))
    return violations


# (prefix, cycle) of each named order; its agent count is its largest label.
FIXED_ORDERS = {
    "n2": ((1, 2, 2, 1), (2, 2, 1)),
    "n3": ((1, 2, 3, 3, 2, 1), (2, 3, 3, 2, 1)),
    "n4": ((1, 2, 3, 4, 4, 3, 2, 1), (4, 3, 2, 4, 3, 3, 1, 4, 3, 2, 4, 3, 2, 1)),
    "super8": ((1, 2, 3, 4, 5, 6, 7, 8, 8, 7),
               (6, 5, 4, 3, 2, 1, 8, 7, 6, 5,
                4, 6, 7, 8, 3, 5, 2, 6, 1, 7,
                4, 8, 6, 5, 3, 7, 6, 8, 2, 4,
                5, 7, 1, 6, 3, 8, 5, 6, 7, 8)),
}


def fixed_order(name: str) -> PickingOrder:
    """Named periodic orders with hand-verified ratios: n2 (4/3), n3 (7/5),
    n4 (13/9), and the eight-block order super8 (8/5)."""
    try:
        prefix, cycle = FIXED_ORDERS[name]
    except KeyError:
        raise InstanceError(f"unknown fixed order {name!r}; choose from {sorted(FIXED_ORDERS)}")
    return PickingOrder(prefix=prefix, cycle=cycle)


@dataclass(frozen=True)
class HalvedSchedule:
    """Threshold lists for n agents obtained by pairing 2n agents."""

    n: int
    thresholds: tuple[tuple[int, ...], ...]
    check_horizon: int
    failing_k: int | None
    domination_violations: tuple[tuple[int, int], ...]

    @property
    def covering_ok(self) -> bool:
        return self.failing_k is None


def covering_of_lists(lists: Iterable[Sequence[int]], upto: int) -> int | None:
    """Smallest k <= upto where fewer than k list entries are <= k, or None.

    ``lists`` may be a generator, so only one list need be alive at a time.
    """
    counts = [0] * (upto + 1)
    for lst in lists:
        for t in lst:
            if t <= upto:
                counts[t] += 1
    covered = 0
    for k in range(1, upto + 1):
        covered += counts[k]
        if covered < k:
            return k
    return None


def halve_thresholds(sched: ThresholdSchedule, horizon: int,
                     require_domination: bool = False) -> HalvedSchedule:
    """Fold a 2n-agent schedule into threshold lists for n agents.

    Pair agents (2i-1, 2i); the i-th output list is the pointwise minimum of
    the pair's lists, halved and rounded up. Covering transfers without
    further hypotheses: a halved round j covered k times pulls back to round
    2j covered 2k times. The *domination* property (from the third entry on,
    one list of each pair pointwise below the other) additionally ties every
    output list to a single source agent, which the per-agent ratio argument
    wants; adjacent late-class pairs can violate it by one-round ceiling
    jitter, so violations are reported on the result (or rejected when
    ``require_domination`` is set) rather than silently absorbed.

    The output is checked to admit a ridge prefix and to satisfy covering up
    to floor(horizon/2), which the input's covering up to ``horizon`` implies.
    """
    if sched.n % 2:
        raise ValueError(f"halving needs an even number of agents, got {sched.n}")
    half_n = sched.n // 2
    source = [sched.thresholds_upto(i, horizon) for i in range(1, sched.n + 1)]

    bad_pairs = []
    for i in range(half_n):
        left, right = source[2 * i], source[2 * i + 1]
        joint = range(2, min(len(left), len(right)))
        if not (all(left[t] >= right[t] for t in joint)
                or all(left[t] <= right[t] for t in joint)):
            bad_pairs.append((2 * i + 1, 2 * i + 2))
    if bad_pairs and require_domination:
        raise DominationError(bad_pairs)

    folded: list[tuple[int, ...]] = []
    for i in range(half_n):
        left, right = source[2 * i], source[2 * i + 1]
        out = []
        for t in range(max(len(left), len(right))):
            a = left[t] if t < len(left) else None
            b = right[t] if t < len(right) else None
            low = min(v for v in (a, b) if v is not None)
            out.append(-((-low) // 2))
        folded.append(tuple(out))

    for i, lst in enumerate(folded, start=1):
        if lst and lst[0] > i:
            raise CoveringViolation(f"halved agent {i} cannot take ridge chore {i}")
        if len(lst) > 1 and lst[1] > 2 * half_n - i + 1:
            raise CoveringViolation(
                f"halved agent {i} cannot take ridge chore {2 * half_n - i + 1}")

    check_to = horizon // 2
    failing = covering_of_lists(folded, check_to)
    return HalvedSchedule(half_n, tuple(folded), check_to, failing, tuple(bad_pairs))


def bisect_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi], where f changes sign, to within tol."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ridge_rate_margin(rho: float) -> float:
    """Asymptotic covering-rate surplus of the period family at ratio rho.

    Approximating the rate sum by its integral over agent fractions yields
    (rho-1)ln(rho/(rho-1)) + 2rho - 3 + 2(rho-1)ln(rho/(2(rho-1))); the family
    covers asymptotically iff this reaches 1.
    """
    return ((rho - 1) * math.log(rho / (rho - 1)) + 2 * rho - 3
            + 2 * (rho - 1) * math.log(rho / (2 * (rho - 1))) - 1)


def solve_rho_star(tol: float = 1e-6) -> float:
    """Smallest asymptotically coverable ratio for the period family (~1.52408),
    which is also the large-n lower bound for ridge orders."""
    return bisect_root(ridge_rate_margin, 1.4, 1.6, tol)


def best_ratio_search(n: int, mode: str = "agent",
                      tol: Fraction = Fraction(1, 1000),
                      lo: Fraction = Fraction(101, 100),
                      hi: Fraction = Fraction(2)) -> Fraction:
    """Smallest rho (within tol) whose covering test passes outright."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = Fraction(lo), Fraction(hi)

    def passes(rho: Fraction) -> bool:
        return covering_test(ridge_periods(n, rho, mode)).ok

    if passes(lo):
        return lo
    if not passes(hi):
        raise ValueError(f"covering test fails even at rho = {hi}")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
