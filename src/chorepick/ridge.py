"""Ridge picking orders for equal entitlements: period schedules, covering
tests, order synthesis, the halving transform, and the scalar bounds.

A ridge order opens by giving chores 1..n to agents 1..n and chores
n+1..2n to agents n..1, then paces each agent i by a rational period p(i):
her t-th chore may not arrive before her t-th release threshold. Thresholds
come in three flavors, keyed to where the agent sits:

- immediate (class 0): ceil(p), ceil(2p), ceil(3p), ...   (mid agents)
- after the first chore (class 1): i, i+ceil(p), i+ceil(2p), ...  (early)
- after the ridge pair (class 2): i, 2n-i+1, 2n-i+1+ceil(p), ...  (late)

One rule states all three: agent i of class c has base (0, i, 2n+1-i)[c],
and its t-th threshold is base + ceil((t-c)p), except that a class-2
agent's first threshold is i itself.

Periods are the largest pick rates compatible with a target ratio rho
against the chore share: n/rho for class 0, (n-i)/(rho-1) for class 1 and
(i-1)/(2(rho-1)) for class 2. "Super" mode prices each agent as a block
representative (first member for early blocks, last member for late
blocks), giving (n-i+1)/(rho-1) and i/(2(rho-1)) instead. Each class test
is monotone in i (class 1 holds below one cut, class 2 above another), so
the classes run 1...1 0...0 2...2 and a schedule is its two cuts.

An order exists iff the thresholds *cover* every round: at least k
thresholds of value <= k for every k. Failing any finite k refutes the
schedule outright. Passing is conclusive once the covering ratio
r = sum 1/p(i) exceeds 1: every round past a finite K* is then covered
automatically, so only a finite scan is needed. At r <= 1 a clean scan is
reported as inconclusive.

Schedules and thresholds are integer-exact. With rho = a/c the cuts are
floor divisions, and within a run the bases and period numerators are
arithmetic in i over one denominator, so readers walk the runs and no
per-agent state is stored. Step k of a period num/den lands on
base + ceil(k*num/den), computed by integer division.

The covering scan counts in one pass over the agents: each threshold is
added straight into one count array indexed by round, and the class-0
run, whose agents share base 0 and the period n/rho, is stepped once with
its length as the weight. The array is the only structure whose size grows
with the scan. Every period is at least n/rho, so a scan to round K counts
at most 2n + K*rho thresholds; a scan with K*rho above ``SCAN_LIMIT`` is
refused with a ``SizeGuardError`` before anything is allocated.

The verdict rests on integers alone. ``certified_cutoff`` returns an
integer lower bound R on RATE_SCALE * r, off by less than n: R > RATE_SCALE
proves r > 1, R + n <= RATE_SCALE proves r <= 1, and only between the two
is the exact sum formed. With r > 1 the scan runs to the certified round K*
(see ``certified_cutoff``), past which no round can fail, so a clean scan
is a proof. The reported covering ratio (exact for small n, floating point
beyond, since the exact value has an astronomically long denominator) and
the reported horizon decide nothing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, repeat, zip_longest
from typing import Iterable, Sequence

from .model import InstanceError, PickingOrder, SizeGuardError, invariant

EXACT_RATIO_LIMIT = 128
RATE_SCALE = 1 << 64   # fixed-point scale of the certified covering bounds
# Most thresholds one scan may count, bounded as rounds x rho. The paper's
# n = 16384 tests scan to K* = 197,603 rounds at rho < 1.6.
SCAN_LIMIT = 1 << 24
SEARCH_LO, SEARCH_HI = Fraction(101, 100), Fraction(2)  # best_ratio_search bracket
ROOT_WIDTH = Fraction(1, 10 ** 6)   # scalar root brackets start 2^17 widths wide
ROOT_START = (Fraction(7, 5), Fraction(7, 5) + (1 << 17) * ROOT_WIDTH)


class CoveringViolation(RuntimeError):
    """Order synthesis got stuck: the schedule cannot cover some round."""


def _steps(*runs: tuple) -> Iterable[tuple[int, int, int]]:
    """(base, num, den) of each agent of the runs, in order, stepped arithmetically."""
    return chain.from_iterable(
        zip(count(base + base_step * agents.start, base_step),
            count(num + num_step * agents.start, num_step), repeat(den, len(agents)))
        for agents, base, base_step, num, num_step, den in runs)


@dataclass(frozen=True)
class ThresholdSchedule:
    """Two cuts: agents 1..early are class 1, early+1..late class 0 and the
    rest class 2. No per-agent state is stored (see ``runs`` and ``_nth``)."""

    n: int
    rho: Fraction
    mode: str
    early: int
    late: int

    @cached_property
    def runs(self) -> tuple[tuple, tuple, tuple]:
        """The class-1, class-0 and class-2 runs, each (agents, base, base_step,
        num, num_step, den): agent i has base base + base_step*i and period
        (num + num_step*i)/den, which with rho = a/c, gap = a - c and s = 1 in
        super mode (else 0) is (n-i+s)c/gap, nc/a and (i-1+s)c/(2 gap)."""
        n, early, late = self.n, self.early, self.late
        a, c, s = self.rho.numerator, self.rho.denominator, int(self.mode == "super")
        return ((range(1, early + 1), 0, 1, (n + s) * c, -c, a - c),
                (range(early + 1, late + 1), 0, 0, n * c, 0, a),
                (range(late + 1, n + 1), 2 * n + 1, -1, (s - 1) * c, c, 2 * (a - c)))

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """Each agent's class, built on first read."""
        return (1,) * self.early + (0,) * (self.late - self.early) + (2,) * (self.n - self.late)

    @cached_property
    def periods(self) -> tuple[Fraction, ...]:
        """The periods as Fractions, built on first read."""
        return tuple(Fraction(num, den) for _, num, den in _steps(*self.runs))

    @cached_property
    def ridge_violations(self) -> tuple[int, ...]:
        """Agents whose thresholds 1 and 2 pass ridge rounds i and 2n+1-i, found
        on first read. Only threshold 2 of a class-1 agent can: a class-c
        agent's first c thresholds are those rounds, and a class-0 agent has
        p = n/rho <= i and 2p <= 2n+1-i in both modes (the class tests), so
        ceil(p) <= i and ceil(2p) <= 2n+1-i."""
        nth, last = self._nth, 2 * self.n + 1
        return tuple(i for i, num, den in _steps(self.runs[0])   # a class-1 base is i
                     if nth(i, 1, i, num, den, 2) > last - i)

    @property
    def ridge_ok(self) -> bool:
        return not self.ridge_violations

    @staticmethod
    def _nth(agent: int, cls: int, base: int, num: int, den: int, t: int) -> int:
        """The rule, for threshold t of an agent of the given class, base and period."""
        if cls == 2 and t == 1:
            return agent
        return base - (-(t - cls) * num // den)

    def _agent(self, agent: int) -> tuple[int, int, int, int]:
        """(class, base, num, den) of one agent, read off its run."""
        for cls, (agents, base, base_step, num, num_step, den) in zip((1, 0, 2), self.runs):
            if agent in agents:
                return cls, base + base_step * agent, num + num_step * agent, den
        raise IndexError(f"agent {agent} is out of range 1..{self.n}")

    def threshold(self, agent: int, t: int) -> int:
        """The t-th (1-based) release threshold of an agent."""
        return self._nth(agent, *self._agent(agent), t)

    def thresholds_upto(self, agent: int, horizon: int) -> list[int]:
        """All thresholds of an agent with value <= horizon, in order."""
        cls, base, num, den = self._agent(agent)
        first = [agent] if cls == 2 and agent <= horizon else []
        # Step k lands on base - (-k*num // den), which is <= horizon iff
        # k*num <= (horizon - base)*den; step 0 of a class-0 agent is round 0.
        return [*first, *[base - (-x // den)
                          for x in range(0 if base else num, (horizon - base) * den + 1, num)]]


def ridge_periods(n: int, rho: Fraction, mode: str = "agent") -> ThresholdSchedule:
    """The schedule for n agents at target ratio rho.

    With rho = a/c each class test is an integer cross-multiplication that
    holds below or above one cut in i, so the cuts are two floor divisions.

    >>> from fractions import Fraction as F
    >>> sched = ridge_periods(4, F(10, 7))
    >>> sched.early, sched.late, sched.classes
    (2, 3, (1, 1, 0, 2))
    >>> sched.periods
    (Fraction(7, 1), Fraction(14, 3), Fraction(14, 5), Fraction(7, 2))
    """
    rho = Fraction(rho)
    if n < 1:
        raise ValueError(f"need at least one agent, got n = {n}")
    if rho <= 1:
        raise ValueError(f"target ratio must exceed 1, got {rho}")
    if mode not in ("agent", "super"):
        raise ValueError(f"mode must be 'agent' or 'super', got {mode!r}")
    if 2 * n > SCAN_LIMIT:
        raise SizeGuardError(f"{n} agents exceed the guard of {SCAN_LIMIT // 2}: "
                             f"no covering scan could reach round 2n")
    a, c = rho.numerator, rho.denominator
    gap, nc = a - c, n * c           # rho - 1 = gap/c, and n/rho = nc/a
    if mode == "agent":   # class 1 iff i*a < nc, else class 2 iff i*a > (2n+1)a - 2nc
        early = min(n, (nc - 1) // a)
        late = max(early, min(n, ((2 * n + 1) * a - 2 * nc) // a))
    else:   # a block is late iff its last member is (i*a > 2n*gap), else early
        late = min(n, 2 * n * gap // a)   # iff its first member is ((i-1)*a < nc)
        early = min(late, (nc - 1) // a + 1)
    return ThresholdSchedule(n, rho, mode, early, late)


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


def exact_rate(sched: ThresholdSchedule) -> Fraction:
    """The covering ratio r = sum 1/p(i) as one Fraction."""
    return sum((Fraction(den, num) for _, num, den in _steps(*sched.runs)), Fraction(0))


def covering_ratio(sched: ThresholdSchedule) -> tuple[float, Fraction | None]:
    """Sum of pick rates 1/p(i), reported beside a verdict: exact for small n,
    floating point beyond. It decides nothing (see ``covering_test``)."""
    try:
        if sched.n <= EXACT_RATIO_LIMIT:
            exact = exact_rate(sched)
            return float(exact), exact
        return math.fsum(den / num for _, num, den in _steps(*sched.runs)), None
    except OverflowError:
        raise ValueError("the covering ratio overflows a float; "
                         "the target ratio is too large") from None


def certified_cutoff(sched: ThresholdSchedule,
                     scale: int = RATE_SCALE) -> tuple[int, int | None]:
    """Integer bounds on the covering ratio and on the last round that can fail.

    Returns (R, K*). R <= scale * r is a certified lower bound on the
    covering ratio r = sum 1/p(i), and scale * r - R < n. From round 2n on
    every agent has reached its base (its c_i-th threshold, or 0), so it
    holds more than c_i - 1 + (k - base_i)/p_i thresholds <= k, and all
    agents together more than r*k - B with B = sum(1 - c_i + base_i/p_i).
    That integer count reaches k once r*k - B >= k - 1, so every round
    k >= K* = max(2n, (B-1)/(r-1)) is covered. K* is computed from R and an
    upper bound on scale * (B-1), and is None when R <= scale, where no
    such round need exist.
    """
    # scale * (B-1) <= scale * (n - sum(c_i) - 1) + sum(base_i * ceil(scale/p_i)).
    # The class-0 run adds nothing to it and shares one period: one rate term.
    n, early, late = sched.n, sched.early, sched.late
    rate_low, slack_high = 0, scale * (2 * late - n - early - 1)
    for base, num, den in _steps(*sched.runs[::2]):   # class 1, then 2
        q, rem = divmod(scale * den, num)
        rate_low += q
        slack_high += base * (q + (rem > 0))
    zero, _, _, num, _, den = sched.runs[1]
    rate_low += len(zero) * (scale * den // num)
    if rate_low <= scale:
        return rate_low, None
    return rate_low, max(2 * n, -(-slack_high // (rate_low - scale)))


def _guard_scan(sched: ThresholdSchedule, upto: int) -> None:
    """Refuse a scan to round ``upto`` that could count more than SCAN_LIMIT
    thresholds (at most 2n + upto*rho of them are <= upto)."""
    if upto * sched.rho.numerator > SCAN_LIMIT * sched.rho.denominator:
        rounds = upto if upto < RATE_SCALE else "beyond 2^64"
        raise SizeGuardError(f"a covering scan to round {rounds} at this target ratio "
                             f"exceeds the guard of {SCAN_LIMIT} thresholds (rounds x rho)")


def threshold_counts(sched: ThresholdSchedule, upto: int) -> list[int]:
    """counts[k] = the number of thresholds equal to k, for k <= upto.

    One pass over the class-1 and class-2 runs adds every threshold <= upto;
    the class-0 run's shared steps are added once, weighted by its length."""
    _guard_scan(sched, upto)
    counts = [0] * (upto + 1)
    for agent in range(sched.late + 1, min(sched.n, upto) + 1):   # class-2 first thresholds
        counts[agent] += 1
    for base, num, den in _steps(*sched.runs[::2]):   # class 1, then 2
        # Step k lands on base - (-k*num // den) <= upto iff k*num <= (upto - base)*den.
        for x in range(0, (base - upto) * den - 1, -num):
            counts[base - x // den] += 1
    zero, _, _, num, _, den = sched.runs[1]
    for x in range(-num, -upto * den - 1, -num) if zero else ():
        counts[-(x // den)] += len(zero)
    return counts


def _first_uncovered(counts: list[int]) -> int | None:
    """Smallest k >= 1 with counts[1] + ... + counts[k] < k, or None."""
    covered = 0
    for k in range(1, len(counts)):
        covered += counts[k]
        if covered < k:
            return k
    return None


def covering_test(sched: ThresholdSchedule,
                  fallback_horizon: int | None = None) -> CoveringVerdict:
    """Check that at least k thresholds are <= k for every round k.

    The verdict follows ``certified_cutoff``'s integers. When they prove
    r > 1, a clean scan to the certified round K* proves that an order with
    ratio <= rho exists: "pass". When they prove r <= 1 no finite scan is
    conclusive, so a clean scan up to the caller-supplied fallback (default
    max(4n, 64), at least 2n) is "inconclusive". When R is within n of
    RATE_SCALE the exact sum decides, and for r > 1 the bounds are redone at
    a scale fine enough to give K*. A violated round refutes the schedule
    either way and the smallest one is reported.

    The reported ``covering_ratio`` and ``horizon`` decide nothing. With
    r > 1 the horizon is ceil(2n + n/(r-1)) from the reported ratio, raised
    to K* when that is larger; otherwise it is the fallback scanned.
    """
    n = sched.n
    r_float, r_exact = covering_ratio(sched)
    rate_low, cutoff = certified_cutoff(sched)
    if rate_low <= RATE_SCALE < rate_low + n:
        exact = r_exact if r_exact is not None else exact_rate(sched)
        if exact > 1:
            # A scale above n/(r-1) puts R above the scale.
            over = n * exact.denominator // (exact.numerator - exact.denominator)
            cutoff = certified_cutoff(sched, 1 << over.bit_length() + 1)[1]
    if cutoff is not None:
        r = r_exact if r_exact is not None else r_float
        horizon = max(math.ceil(2 * n + n / (r - 1)), cutoff) if r > 1 else cutoff
        scan, clean = cutoff, "pass"
    else:
        horizon = fallback_horizon if fallback_horizon is not None else max(4 * n, 64)
        horizon = scan = max(horizon, 2 * n)
        clean = "inconclusive"
    failing = _first_uncovered(threshold_counts(sched, scan))
    status = "fail" if failing is not None else clean
    return CoveringVerdict(status, failing, r_float, r_exact, horizon)


def synthesize_order(sched: ThresholdSchedule, m: int) -> PickingOrder:
    """Build an order of length m respecting every threshold.

    Rounds 1..2n follow the ridge; afterwards each round goes to an agent
    holding an unconsumed threshold already released, preferring the agent
    with the largest backlog of released thresholds, then the lowest index.
    A stuck round means the covering constraint fails there.

    Thresholds are released from per-round buckets, and the preferred agent
    is the top of a heap of (-backlog, agent) entries; an entry whose backlog
    is no longer the agent's current one is stale and dropped when it
    surfaces. A call costs O((m + T) log(m + T)) for T thresholds <= m.
    """
    n = sched.n
    _guard_scan(sched, m)
    if m > 2 * n and not sched.ridge_ok:
        raise CoveringViolation(
            f"ridge constraints violated for agents {sched.ridge_violations}")
    releases: list[list[int]] = [[] for _ in range(m + 1)]
    for i in range(1, n + 1):
        for t in sched.thresholds_upto(i, m):
            releases[t].append(i)
    backlog = [0] * (n + 1)   # released minus consumed thresholds, by agent
    heap: list[tuple[int, int]] = []
    assignment: list[int] = []
    for k in range(1, m + 1):
        for i in releases[k]:
            backlog[i] += 1
            heapq.heappush(heap, (-backlog[i], i))
        if k <= 2 * n:
            agent = k if k <= n else 2 * n - k + 1
            if not backlog[agent]:
                raise CoveringViolation(f"ridge round {k} precedes a threshold")
        else:
            while heap and -heap[0][0] != backlog[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                raise CoveringViolation(f"no released threshold at round {k}")
            agent = heap[0][1]
        backlog[agent] -= 1
        if backlog[agent]:
            heapq.heappush(heap, (-backlog[agent], agent))
        assignment.append(agent)
    return PickingOrder(prefix=tuple(assignment))


def replay_thresholds(order: PickingOrder, sched: ThresholdSchedule,
                      m: int) -> list[tuple[int, int, int, int]]:
    """Check an order against a schedule; list (agent, t, round, threshold)
    violations, by round, where the t-th chore of an agent arrives before its
    release. An agent outside the schedule's 1..n raises InstanceError."""
    violations = [(who, t, r, need)
                  for who, rounds in enumerate(order.positions(m, sched.n), start=1)
                  for t, r in enumerate(rounds, start=1)
                  if r < (need := sched.threshold(who, t))]
    violations.sort(key=lambda v: v[2])
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
    failing_k: int | None
    domination_violations: tuple[tuple[int, int], ...]


def covering_of_lists(lists: Iterable[Sequence[int]], upto: int) -> int | None:
    """Smallest k <= upto where fewer than k list entries are <= k, or None.

    ``lists`` may be a generator, so only one list need be alive at a time.
    """
    counts = [0] * (upto + 1)
    for lst in lists:
        for t in lst:
            if t <= upto:
                counts[t] += 1
    return _first_uncovered(counts)


def halve_thresholds(sched: ThresholdSchedule, horizon: int) -> HalvedSchedule:
    """Fold a 2n-agent schedule into threshold lists for n agents.

    Pair agents (2i-1, 2i); the i-th output list is the pointwise minimum of
    the pair's lists, halved and rounded up. Covering transfers without
    further hypotheses: a halved round j covered k times pulls back to round
    2j covered 2k times. The *domination* property (from the third entry on,
    one list of each pair pointwise below the other) additionally ties every
    output list to a single source agent, which the per-agent ratio argument
    wants; adjacent late-class pairs can violate it by one-round ceiling
    jitter, so violations are reported on the result rather than silently
    absorbed.

    The output is checked to admit a ridge prefix and to satisfy covering up
    to floor(horizon/2), which the input's covering up to ``horizon`` implies.
    """
    if sched.n % 2:
        raise ValueError(f"halving needs an even number of agents, got {sched.n}")
    half_n = sched.n // 2
    source = [sched.thresholds_upto(i, horizon) for i in range(1, sched.n + 1)]

    bad_pairs = []
    folded: list[tuple[int, ...]] = []
    for i in range(half_n):
        left, right = source[2 * i], source[2 * i + 1]
        joint = range(2, min(len(left), len(right)))
        if not (all(left[t] >= right[t] for t in joint)
                or all(left[t] <= right[t] for t in joint)):
            bad_pairs.append((2 * i + 1, 2 * i + 2))
        # A list that runs out stands for thresholds beyond the horizon.
        folded.append(tuple(-(-min(a, b) // 2)
                            for a, b in zip_longest(left, right, fillvalue=math.inf)))

    for i, lst in enumerate(folded, start=1):
        if lst and lst[0] > i:
            raise CoveringViolation(f"halved agent {i} cannot take ridge chore {i}")
        if len(lst) > 1 and lst[1] > 2 * half_n - i + 1:
            raise CoveringViolation(
                f"halved agent {i} cannot take ridge chore {2 * half_n - i + 1}")

    failing = covering_of_lists(folded, horizon // 2)
    return HalvedSchedule(half_n, tuple(folded), failing, tuple(bad_pairs))


def _halve(lo, hi, tol, side):
    """Halve [lo, hi] to at most tol wide; side(mid) < 0 puts the target above mid."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if side(mid) < 0 else (lo, mid)
    return lo, hi


def ln_bounds(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= ln x <= hi for a rational x > 0, from ``terms``
    terms of ln x = 2(y + y^3/3 + y^5/5 + ...), y = (x-1)/(x+1). Each later
    term is at most the first one left out, 2|y|^(2 terms+1)/(2 terms+1),
    times a power of y^2 < 1, so the rest is at most that over 1 - y^2."""
    y = (Fraction(x) - 1) / (x + 1)
    y2, power, total = y * y, 2 * y, Fraction(0)
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= y2
    rest = abs(power) / ((2 * terms + 1) * (1 - y2))
    return total - rest, total + rest


def root_bracket(margin, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """A bracket ROOT_WIDTH wide on the root of a margin rising through 0 on
    [lo, hi]. margin(x, terms) bounds it at x, and each midpoint doubles the
    terms until both bounds share a sign. For both margins here that ends:
    each is (x-1) ln q + r with rationals q != 1 and r, and ln of a rational
    other than 1 is irrational, so neither is 0 at a rational x."""
    def side(x: Fraction) -> int:
        bounds = (margin(x, 1 << k) for k in count(2))   # 4, 8, 16, ... terms
        low, high = next((low, high) for low, high in bounds if low > 0 or high < 0)
        return 1 if low > 0 else -1

    invariant(side(lo) < 0 < side(hi), f"the margin does not rise through 0 on [{lo}, {hi}]")
    return _halve(lo, hi, ROOT_WIDTH, side)


def ridge_rate_margin(rho: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bounds on the asymptotic covering-rate surplus of the period family at
    rho in (1, 2). The rate sum's integral over agent fractions,
    (rho-1)ln(rho/(rho-1)) + 2rho - 3 + 2(rho-1)ln(rho/(2(rho-1))), must reach
    1; less 1 it is (rho-1)ln(rho^3/(4(rho-1)^3)) + 2rho - 4."""
    low, high = ln_bounds(Fraction(rho) ** 3 / (4 * (rho - 1) ** 3), terms)
    return (rho - 1) * low + 2 * rho - 4, (rho - 1) * high + 2 * rho - 4


def solve_rho_star() -> tuple[Fraction, Fraction]:
    """A bracket on the smallest asymptotically coverable ratio of the period
    family, which is also the large-n lower bound for ridge orders.

    >>> solve_rho_star()
    (Fraction(1524079, 1000000), Fraction(19051, 12500))
    """
    return root_bracket(ridge_rate_margin, *ROOT_START)


def best_ratio_search(n: int, mode: str = "agent",
                      tol: Fraction = Fraction(1, 1000)) -> Fraction:
    """Smallest rho (within tol) in [SEARCH_LO, SEARCH_HI] whose covering
    test passes outright."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = SEARCH_LO, SEARCH_HI

    def passes(rho: Fraction) -> bool:
        return covering_test(ridge_periods(n, rho, mode)).ok

    if passes(lo):
        return lo
    if not passes(hi):
        raise ValueError(f"covering test fails even at rho = {hi}")
    return _halve(lo, hi, tol, lambda rho: 1 if passes(rho) else -1)[1]
