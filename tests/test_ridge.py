import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chorepick import ridge
from chorepick.model import InstanceError, InvariantError, PickingOrder, SizeGuardError
from chorepick.ridge import (RATE_SCALE, CoveringVerdict, CoveringViolation,
                             ThresholdSchedule, best_ratio_search, certified_cutoff,
                             covering_of_lists, covering_ratio, covering_test, exact_rate,
                             fixed_order, halve_thresholds, ln_bounds, replay_thresholds,
                             ridge_periods, ridge_rate_margin, root_bracket, solve_rho_star,
                             synthesize_order, threshold_counts)
from chorepick.simulate import evaluate_order


# Reference implementations: the Fraction schedule builder, the stepping
# threshold loop, the full-horizon covering scan, the per-agent threshold-list
# count, the all-agents synthesis loop and the counting replay loop that the
# integer ridge layer replaced. Each must agree with it exactly.

def _pairs(periods):
    return tuple((p.numerator, p.denominator) for p in periods)


def _reference_ridge_periods(n, rho, mode="agent"):
    rho = F(rho)
    early_cut = F(n) / rho
    late_cut = 2 * n + 1 - 2 * F(n) / rho
    classes, periods = [], []
    for i in range(1, n + 1):
        if mode == "agent":
            if i < early_cut:
                cls, p = 1, F(n - i) / (rho - 1)
            elif i <= late_cut:
                cls, p = 0, F(n) / rho
            else:
                cls, p = 2, F(i - 1) / (2 * (rho - 1))
        else:
            if i > 2 * n - 2 * F(n) / rho:
                cls, p = 2, F(i) / (2 * (rho - 1))
            elif i - 1 < early_cut:
                cls, p = 1, F(n - i + 1) / (rho - 1)
            else:
                cls, p = 0, F(n) / rho
        classes.append(cls)
        periods.append(p)
    sched = ThresholdSchedule(n, rho, mode, tuple(classes), _pairs(periods))
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
    return _schedule_facts(sched, tuple(violations))


def _schedule_facts(sched, violations=None):
    """What a schedule says, with each period as a Fraction in lowest terms."""
    return (sched.n, sched.rho, sched.mode, sched.classes, sched.periods,
            sched.ridge_violations if violations is None else violations)


def _reference_thresholds_upto(sched, agent, horizon):
    head = (agent, 2 * sched.n - agent + 1)[:sched.classes[agent - 1]]
    if head and head[-1] > horizon:
        return [t for t in head if t <= horizon]
    out = list(head)
    base = head[-1] if head else 0
    p = sched.periods[agent - 1]
    k = 1
    while True:
        t = base + math.ceil(k * p)
        if t > horizon:
            return out
        out.append(t)
        k += 1


def _reference_covering_test(sched, fallback_horizon=None):
    n = sched.n
    r_float, r_exact = covering_ratio(sched)
    if (r_exact is not None and r_exact > 1) or (r_exact is None and r_float > 1):
        r = r_exact if r_exact is not None else r_float
        horizon = math.ceil(2 * n + n / (r - 1))
        clean = "pass"
    else:
        horizon = fallback_horizon if fallback_horizon is not None else max(4 * n, 64)
        clean = "inconclusive"
    horizon = max(horizon, 2 * n)
    failing = covering_of_lists(
        [_reference_thresholds_upto(sched, i, horizon) for i in range(1, n + 1)], horizon)
    return CoveringVerdict("fail" if failing is not None else clean,
                           failing, r_float, r_exact, horizon)


def _reference_counts(sched, upto):
    """The count array of the thresholds_upto-list scan: one list per agent."""
    counts = [0] * (upto + 1)
    for i in range(1, sched.n + 1):
        for t in sched.thresholds_upto(i, upto):
            counts[t] += 1
    return counts


def _reference_synthesize_order(sched, m):
    n = sched.n
    if m > 2 * n and not sched.ridge_ok:
        raise CoveringViolation(
            f"ridge constraints violated for agents {sched.ridge_violations}")
    lists = [sched.thresholds_upto(i, m) for i in range(1, n + 1)]
    released, consumed, pointer = [0] * n, [0] * n, [0] * n
    assignment = []
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
            agent, backlog = 0, 0
            for i in range(n):
                avail = released[i] - consumed[i]
                if avail > backlog:
                    agent, backlog = i + 1, avail
            if agent == 0:
                raise CoveringViolation(f"no released threshold at round {k}")
        consumed[agent - 1] += 1
        assignment.append(agent)
    return PickingOrder(prefix=tuple(assignment))


def _reference_replay_thresholds(order, sched, m):
    violations = []
    counts = [0] * sched.n
    for r, who in enumerate(order.expand(m), start=1):
        counts[who - 1] += 1
        need = sched.threshold(who, counts[who - 1])
        if r < need:
            violations.append((who, counts[who - 1], r, need))
    return violations


def _exact_slack(sched):
    """B = sum(1 - c_i + base_i/p_i) over the agents' heads, exactly."""
    total = F(0)
    for i, p in enumerate(sched.periods, start=1):
        head = (i, 2 * sched.n - i + 1)[:sched.classes[i - 1]]
        total += 1 - len(head) + (head[-1] / p if head else 0)
    return total


def _outcome(build, *args):
    """An order, or the message of the CoveringViolation that stopped it."""
    try:
        return build(*args)
    except CoveringViolation as exc:
        return str(exc)


MODES = st.sampled_from(["agent", "super"])
# Target ratios in (1, 3]: small and large denominators, grid-like and not.
RHOS = st.integers(1, 1000).flatmap(
    lambda c: st.integers(c + 1, 3 * c).map(lambda a: F(a, c)))


class TestPeriods:
    def test_four_agents(self):
        sched = ridge_periods(4, F(10, 7))
        assert sched.periods == (F(7), F(14, 3), F(14, 5), F(7, 2))
        assert sched.classes == (1, 1, 0, 2)
        assert sched.ridge_ok

    def test_eight_blocks(self):
        sched = ridge_periods(8, F(8, 5), "super")
        assert sched.periods == (F(40, 3), F(35, 3), F(10), F(25, 3),
                                 F(20, 3), F(5), F(35, 6), F(20, 3))
        assert sched.classes == (1, 1, 1, 1, 1, 0, 2, 2)

    def test_two_agents(self):
        sched = ridge_periods(2, F(4, 3))
        assert sched.classes == (1, 0)
        assert sched.periods == (F(3), F(3, 2))

    def test_three_agents(self):
        sched = ridge_periods(3, F(7, 5))
        assert sched.periods == (F(5), F(5, 2), F(5, 2))
        assert sched.classes == (1, 1, 2)

    def test_rho_must_exceed_one(self):
        with pytest.raises(ValueError):
            ridge_periods(4, F(1))

    def test_threshold_sequences(self):
        sched = ridge_periods(2, F(4, 3))
        assert sched.thresholds_upto(1, 10) == [1, 4, 7, 10]
        assert sched.thresholds_upto(2, 9) == [2, 3, 5, 6, 8, 9]

    def test_class2_thresholds_start_with_ridge_slots(self):
        sched = ridge_periods(4, F(10, 7))
        assert sched.thresholds_upto(4, 12)[:2] == [4, 5]

    def test_thresholds_strictly_increase(self):
        for n, rho, mode in [(4, F(10, 7), "agent"), (8, F(8, 5), "super"),
                             (16, F(8, 5), "agent"), (3, F(7, 5), "agent")]:
            sched = ridge_periods(n, rho, mode)
            for i in range(1, n + 1):
                ts = sched.thresholds_upto(i, 200)
                assert all(a < b for a, b in zip(ts, ts[1:])), (n, rho, mode, i)


class TestIntegerPeriods:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 300), rho=RHOS, mode=MODES)
    def test_matches_fraction_reference(self, n, rho, mode):
        sched = ridge_periods(n, rho, mode)
        assert _schedule_facts(sched) == _reference_ridge_periods(n, rho, mode)
        assert all(type(p) is F for p in sched.periods)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 60), rho=RHOS, mode=MODES, horizon=st.integers(-2, 400))
    def test_thresholds_match_stepping_loop(self, n, rho, mode, horizon):
        sched = ridge_periods(n, rho, mode)
        for i in range(1, n + 1):
            listed = sched.thresholds_upto(i, horizon)
            assert listed == _reference_thresholds_upto(sched, i, horizon), i
            assert all(sched.threshold(i, t) == listed[t - 1]
                       for t in range(1, len(listed) + 1)), i

    def test_class_boundaries_on_the_cuts(self):
        # rho = 4/3 at n = 4 puts agent 3 exactly on the early cut n/rho, and
        # rho = 8/5 at n = 8 puts agent 6 exactly on the super late cut. The
        # paper's n = 16384 schedules, an empty class-0 run (n = 6 at 13/10:
        # 1,1,1,1,2,2) and one agent in either mode bound the runs' ends.
        for n, rho, mode in [(4, F(4, 3), "agent"), (8, F(8, 5), "super"),
                             (6, F(3, 2), "agent"), (6, F(3, 2), "super"),
                             (16384, F(1543, 1000), "super"),
                             (16384, F(1542, 1000), "agent"),
                             (6, F(13, 10), "agent"), (6, F(13, 10), "super"),
                             (1, F(3, 2), "agent"), (1, F(3, 2), "super"),
                             (1, F(3), "agent"), (1, F(3), "super"),
                             (1, F(1001, 1000), "agent"), (1, F(1001, 1000), "super")]:
            assert (_schedule_facts(ridge_periods(n, rho, mode))
                    == _reference_ridge_periods(n, rho, mode))


class TestCertifiedCutoff:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 200), rho=RHOS, mode=MODES,
           fallback=st.none() | st.integers(0, 2000))
    def test_verdict_matches_full_scan(self, n, rho, mode, fallback):
        sched = ridge_periods(n, rho, mode)
        assert (covering_test(sched, fallback).to_dict()
                == _reference_covering_test(sched, fallback).to_dict())

    @pytest.mark.parametrize("mode", ["agent", "super"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 129, 1000, 4096])
    def test_bounds_agree_with_exact_sum(self, n, mode):
        for rho in (F(101, 100), F(4, 3), F(1543, 1000), F(8, 5), F(2), F(5, 2)):
            sched = ridge_periods(n, rho, mode)
            exact = sum((1 / p for p in sched.periods), F(0))
            rate_low, cutoff = certified_cutoff(sched)
            assert rate_low <= exact * RATE_SCALE
            assert exact * RATE_SCALE - rate_low <= n
            verdict = covering_test(sched)
            if cutoff is None:
                assert exact <= 1 + F(n, RATE_SCALE)
                continue
            assert exact > 1
            assert 2 * n <= cutoff <= verdict.horizon
            assert cutoff >= (_exact_slack(sched) - 1) / (exact - 1)
            if n <= 1000:
                reference = _reference_covering_test(sched)
                assert reference.failing_k is None or reference.failing_k <= cutoff
                assert verdict.to_dict() == reference.to_dict()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), rho=RHOS, mode=MODES)
    def test_counts_exceed_the_linear_bound(self, n, rho, mode):
        # The lemma behind K*: from round 2n on, more than r*k - B thresholds
        # are <= k, so the count reaches k once r*k - B >= k - 1.
        sched = ridge_periods(n, rho, mode)
        rate = sum((1 / p for p in sched.periods), F(0))
        slack = _exact_slack(sched)
        lists = [sched.thresholds_upto(i, 6 * n + 40) for i in range(1, n + 1)]
        for k in range(2 * n, 6 * n + 41):
            assert sum(bisect_right(lst, k) for lst in lists) > rate * k - slack

    @pytest.mark.parametrize("n,rho,mode", [
        (1024, F(8, 5), "super"), (1024, F(77, 50), "agent"), (2, F(4, 3), "agent"),
        (4, F(10, 7), "agent"), (300, F(101, 100), "super")])
    def test_scan_stops_at_the_cutoff(self, monkeypatch, n, rho, mode):
        scanned = []

        def recording(sched, upto):
            scanned.append(upto)
            return threshold_counts(sched, upto)

        monkeypatch.setattr(ridge, "threshold_counts", recording)
        sched = ridge_periods(n, rho, mode)
        verdict = covering_test(sched)
        cutoff = certified_cutoff(sched)[1]
        assert scanned == [verdict.horizon if cutoff is None else cutoff]

    def test_paper_scale_cutoff_shrinks_the_scan(self):
        sched = ridge_periods(16384, F(1543, 1000), "super")
        verdict = covering_test(sched)
        cutoff = certified_cutoff(sched)[1]
        assert verdict.ok
        assert cutoff < verdict.horizon // 2


class TestOnePassCount:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), rho=RHOS, mode=MODES, upto=st.integers(0, 3000))
    def test_counts_and_verdict_match_the_list_scan(self, n, rho, mode, upto):
        sched = ridge_periods(n, rho, mode)
        counts = threshold_counts(sched, upto)
        assert counts == _reference_counts(sched, upto)
        lists = (sched.thresholds_upto(i, upto) for i in range(1, n + 1))
        assert ridge._first_uncovered(counts) == covering_of_lists(lists, upto)

    def test_scan_leaves_the_fraction_periods_unbuilt(self):
        sched = ridge_periods(4096, F(1543, 1000), "super")
        assert covering_test(sched).ok
        assert "periods" not in vars(sched)
        assert sched.periods[0] == F(4096 * 1000, 543)
        assert "periods" in vars(sched)


class TestIntegerVerdict:
    @pytest.mark.parametrize("n,rho,mode,status", [
        (1024, F(8, 5), "super", "pass"), (1024, F(77, 50), "agent", "fail"),
        (200, F(152, 100), "agent", "fail"), (4, F(10, 7), "agent", "fail"),
        (2, F(4, 3), "agent", "inconclusive")])
    def test_verdict_ignores_a_misrounded_float(self, monkeypatch, n, rho, mode, status):
        sched = ridge_periods(n, rho, mode)
        honest = covering_test(sched)
        assert honest.status == status
        r_exact = exact_rate(sched)
        # A float on the wrong side of 1, with no exact value to correct it.
        stub = 0.99 if r_exact > 1 else 1.01
        monkeypatch.setattr(ridge, "covering_ratio", lambda sched: (stub, None))
        bent = covering_test(sched)
        assert (bent.status, bent.failing_k) == (honest.status, honest.failing_k)
        assert bent.covering_ratio == stub
        cutoff = certified_cutoff(sched)[1]
        assert bent.horizon == (honest.horizon if cutoff is None else cutoff)

    def test_bounds_within_n_of_the_scale_fall_back_to_the_exact_sum(self):
        # r exceeds 1 by far less than n/2^64: R cannot tell, the exact sum
        # says r > 1, and the refined K* is far beyond any scan.
        sched = ridge_periods(2, F(4, 3) + F(1, 10 ** 25))
        rate_low, cutoff = certified_cutoff(sched)
        assert rate_low <= RATE_SCALE < rate_low + 2 and cutoff is None
        r = exact_rate(sched)
        assert r > 1
        scale = 1 << 200
        assert scale * (r - 1) > 2
        fine = certified_cutoff(sched, scale)[1]
        assert fine is not None and fine >= (_exact_slack(sched) - 1) / (r - 1)
        with pytest.raises(SizeGuardError):
            covering_test(sched)

    def test_rate_exactly_one_at_many_agents_is_inconclusive(self):
        # The bounds straddle the scale and the exact sum is exactly 1.
        sched = ridge_periods(2, F(4, 3))
        rate_low = certified_cutoff(sched)[0]
        assert rate_low <= RATE_SCALE < rate_low + 2
        assert covering_test(sched).status == "inconclusive"


class TestScanGuard:
    def test_fallback_horizon_beyond_the_guard(self):
        with pytest.raises(SizeGuardError, match="guard"):
            covering_test(ridge_periods(2, F(4, 3)), fallback_horizon=10 ** 12)

    def test_huge_target_ratio_is_refused_before_the_scan(self):
        # Periods of 3/10^15 rounds: a scan to round 6 would count 2*10^15
        # steps.
        sched = ridge_periods(3, F(10 ** 15))
        with pytest.raises(SizeGuardError):
            covering_test(sched)
        with pytest.raises(SizeGuardError):
            synthesize_order(sched, 10)

    def test_guard_sits_far_above_the_paper_scale(self):
        for mode, rho in (("super", F(1543, 1000)), ("agent", F(1542, 1000))):
            cutoff = certified_cutoff(ridge_periods(16384, rho, mode))[1]
            assert cutoff * rho * 50 < ridge.SCAN_LIMIT

    def test_too_many_agents_for_any_scan(self):
        with pytest.raises(SizeGuardError):
            ridge_periods(ridge.SCAN_LIMIT // 2 + 1, F(3, 2))

    def test_search_toward_rate_one_stops_at_the_guard(self, monkeypatch):
        # Bisecting to a tiny tolerance drives r toward 1, where K* explodes.
        monkeypatch.setattr(ridge, "SCAN_LIMIT", 10 ** 5)
        with pytest.raises(SizeGuardError):
            best_ratio_search(3, "agent", F(1, 10 ** 12))


class TestCoveringTest:
    def test_four_agent_failure_round(self):
        verdict = covering_test(ridge_periods(4, F(10, 7)))
        assert verdict.status == "fail"
        assert verdict.failing_k == 11
        assert verdict.covering_ratio_exact == 1

    def test_rate_sum_one_is_inconclusive(self):
        verdict = covering_test(ridge_periods(2, F(4, 3)), fallback_horizon=200)
        assert verdict.status == "inconclusive"
        assert verdict.failing_k is None
        assert verdict.horizon == 200

    def test_pass_with_slack(self):
        verdict = covering_test(ridge_periods(8, F(8, 5), "super"))
        assert verdict.status == "pass"
        assert verdict.covering_ratio_exact == F(1473, 1400)

    def test_event_counts_match_naive_recount(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 64)
            rho = F(rng.randint(140, 200), 100)
            mode = rng.choice(["agent", "super"])
            sched = ridge_periods(n, rho, mode)
            verdict = covering_test(sched, fallback_horizon=6 * n)
            horizon = verdict.horizon
            lists = [sched.thresholds_upto(i, horizon) for i in range(1, n + 1)]
            naive_fail = None
            for k in range(1, horizon + 1):
                have = sum(sum(1 for t in lst if t <= k) for lst in lists)
                if have < k:
                    naive_fail = k
                    break
            assert naive_fail == verdict.failing_k

    def test_monotone_in_rho(self):
        last_pass = False
        for num in range(140, 181, 5):
            ok = covering_test(ridge_periods(6, F(num, 100))).ok
            assert ok or not last_pass or num == 140
            if ok:
                last_pass = True


class TestSynthesis:
    def test_two_agent_order(self):
        sched = ridge_periods(2, F(4, 3))
        assert synthesize_order(sched, 7).prefix == (1, 2, 2, 1, 2, 2, 1)

    def test_three_agent_order(self):
        sched = ridge_periods(3, F(7, 5))
        assert synthesize_order(sched, 11).prefix == (1, 2, 3, 3, 2, 1, 2, 3, 3, 2, 1)

    def test_synthesized_orders_replay_cleanly(self):
        for n, rho, mode in [(2, F(4, 3), "agent"), (3, F(7, 5), "agent"),
                             (8, F(8, 5), "super"), (12, F(8, 5), "agent")]:
            sched = ridge_periods(n, rho, mode)
            m = 6 * n
            order = synthesize_order(sched, m)
            assert replay_thresholds(order, sched, m) == []
            expanded = order.expand(m)
            assert expanded[:n] == tuple(range(1, n + 1))
            assert expanded[n:2 * n] == tuple(range(n, 0, -1))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), rho=RHOS, mode=MODES, data=st.data())
    def test_replay_matches_reference(self, n, rho, mode, data):
        # Random orders over 1..n break their schedule often; the violations
        # come back in round order, as the counting loop lists them.
        sched = ridge_periods(n, rho, mode)
        agents = st.integers(1, n)
        prefix = tuple(data.draw(st.lists(agents, max_size=12)))
        cycle = tuple(data.draw(st.lists(agents, min_size=1, max_size=6)))
        m = data.draw(st.integers(0, 40))
        order = PickingOrder(prefix, cycle)
        assert replay_thresholds(order, sched, m) == _reference_replay_thresholds(order, sched, m)

    def test_replay_refuses_agent_outside_schedule(self):
        with pytest.raises(InstanceError, match="agent 3 is out of range 1..2"):
            replay_thresholds(PickingOrder((1, 2, 3, 1)), ridge_periods(2, F(3, 2)), 4)

    def test_stuck_round_reports_covering_failure(self):
        sched = ridge_periods(4, F(10, 7))
        with pytest.raises(CoveringViolation, match="11"):
            synthesize_order(sched, 16)

    @pytest.mark.parametrize("mode", ["agent", "super"])
    @pytest.mark.parametrize("n", range(2, 33))
    def test_synthesized_order_evaluates_within_rho(self, n, mode):
        # A passing covering verdict promises an order with ratio <= rho; the
        # order synthesized up to the conclusive horizon must deliver it.
        rho = best_ratio_search(n, mode)
        sched = ridge_periods(n, rho, mode)
        verdict = covering_test(sched)
        assert verdict.ok
        order = synthesize_order(sched, verdict.horizon)
        assert evaluate_order(order, n, verdict.horizon).ratio <= rho


    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), rho=RHOS, mode=MODES, m=st.integers(0, 400))
    def test_matches_all_agents_reference(self, n, rho, mode, m):
        sched = ridge_periods(n, rho, mode)
        assert (_outcome(synthesize_order, sched, m)
                == _outcome(_reference_synthesize_order, sched, m))

    def test_reference_sees_covering_failures(self):
        # The comparison above must meet stuck rounds past the ridge, not
        # only clean orders and ridge violations.
        seen = 0
        for n in range(2, 30):
            for num in range(105, 200, 7):
                sched = ridge_periods(n, F(num, 100))
                got = _outcome(synthesize_order, sched, 8 * n)
                assert got == _outcome(_reference_synthesize_order, sched, 8 * n)
                seen += isinstance(got, str) and got.startswith("no released")
        assert seen > 0

    def test_paper_scale_order_matches_reference(self):
        sched = ridge_periods(1024, F(8, 5), "super")
        m = covering_test(sched).horizon
        assert synthesize_order(sched, m) == _reference_synthesize_order(sched, m)


class TestFixedOrders:
    def test_prefixes_and_cycles(self):
        assert fixed_order("n2").prefix == (1, 2, 2, 1)
        assert fixed_order("n2").cycle == (2, 2, 1)
        assert fixed_order("n4").prefix == (1, 2, 3, 4, 4, 3, 2, 1)
        assert fixed_order("n4").cycle == (4, 3, 2, 4, 3, 3, 1, 4, 3, 2, 4, 3, 2, 1)
        sup = fixed_order("super8")
        assert sup.prefix == (1, 2, 3, 4, 5, 6, 7, 8, 8, 7)
        assert len(sup.cycle) == 40

    def test_unknown_name(self):
        with pytest.raises(InstanceError):
            fixed_order("n5")

    def test_super8_respects_its_schedule(self):
        sched = ridge_periods(8, F(8, 5), "super")
        assert replay_thresholds(fixed_order("super8"), sched, 50) == []

    @pytest.mark.parametrize("name,n,bound", [
        ("n2", 2, F(4, 3)), ("n3", 3, F(7, 5)), ("n4", 4, F(13, 9))])
    def test_ratios_converge_from_below(self, name, n, bound):
        order = fixed_order(name)
        values = [evaluate_order(order, n, m).ratio for m in (20, 40, 80)]
        assert all(v <= bound for v in values)
        assert values[0] <= values[1] <= values[2] or values[1] == values[2]


class TestHalving:
    def test_even_equal_pairs_halve_exactly(self):
        sched = ridge_periods(16, F(8, 5))
        halved = halve_thresholds(sched, covering_test(sched).horizon)
        assert halved.n == 8
        assert halved.failing_k is None
        for i, lst in enumerate(halved.thresholds, start=1):
            src = min(sched.thresholds_upto(2 * i - 1, 10 ** 6)[0],
                      sched.thresholds_upto(2 * i, 10 ** 6)[0])
            assert lst[0] == -((-src) // 2)

    def test_trivial_even_lists(self):
        # Pointwise-equal even thresholds halve to their exact halves.
        class Stub:
            n = 4
            def thresholds_upto(self, agent, horizon):
                rows = {1: (2, 6, 10), 2: (2, 6, 10), 3: (3, 6, 9), 4: (4, 6, 12)}
                return [t for t in rows[agent] if t <= horizon]

        halved = halve_thresholds(Stub(), 10)
        assert halved.thresholds == ((1, 3, 5), (2, 3, 5))
        assert halved.domination_violations == ()
        assert halved.failing_k is None

    def test_randomized_valid_schedules_stay_valid(self):
        rng = random.Random(3)
        done = 0
        while done < 20:
            half_n = rng.randint(4, 16)
            rho = F(rng.randint(160, 195), 100)
            sched = ridge_periods(2 * half_n, rho)
            verdict = covering_test(sched)
            if not verdict.ok:
                continue
            halved = halve_thresholds(sched, verdict.horizon)
            assert halved.failing_k is None, (half_n, rho)
            done += 1

    def test_odd_agent_count_rejected(self):
        with pytest.raises(ValueError):
            halve_thresholds(ridge_periods(3, F(7, 5)), 50)

    def test_domination_violation_is_reported(self):
        # Crossing pair lists are folded but flagged.
        sched = ridge_periods(4, F(8, 5))

        class Crossing:
            n = 4
            def thresholds_upto(self, agent, horizon):
                if agent == 1:
                    return [1, 8, 9, 20]
                if agent == 2:
                    return [2, 7, 12, 13]
                return sched.thresholds_upto(agent, horizon)

        halved = halve_thresholds(Crossing(), 24)
        assert halved.domination_violations == ((1, 2),)

    def test_adjacent_late_pairs_can_cross_but_still_cover(self):
        # Witness for the reportable ceiling-jitter crossing: both agents of
        # a late-class pair, the later one starting a round earlier with a
        # slightly longer period.
        sched = ridge_periods(26, F(163, 100))
        verdict = covering_test(sched)
        assert verdict.ok
        halved = halve_thresholds(sched, verdict.horizon)
        assert (25, 26) in halved.domination_violations
        assert halved.failing_k is None


class TestScalarBounds:
    def test_asymptotic_ridge_floor(self):
        assert solve_rho_star() == (F(1524079, 10 ** 6), F(1524080, 10 ** 6))

    def test_margin_signs(self):
        assert ridge_rate_margin(F(8, 5), 8)[0] > 0
        assert ridge_rate_margin(F(3, 2), 8)[1] < 0

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10 ** 6), st.integers(1, 24))
    def test_ln_bounds_contain_the_log(self, x, terms):
        lo, hi = ln_bounds(x, terms)
        assert lo <= hi
        # math.log is only a reference here, good to a few float ulps.
        slack = 1e-12 * max(1.0, abs(math.log(x)))
        assert float(lo) - slack <= math.log(x) <= float(hi) + slack
        lo2, hi2 = ln_bounds(x, 2 * terms)
        if x == 1:
            assert (lo, hi) == (lo2, hi2) == (0, 0)
        else:
            assert hi2 - lo2 < hi - lo

    def test_ln_of_one_is_exact(self):
        for terms in (0, 1, 5, 40):
            assert ln_bounds(1, terms) == (0, 0)

    def test_root_bracket_needs_a_sign_change(self):
        with pytest.raises(InvariantError):
            root_bracket(lambda x, terms: (x, x), F(1), F(2))     # positive at both ends
        with pytest.raises(InvariantError):
            root_bracket(lambda x, terms: (-x, -x), F(1), F(2))   # negative at both ends
        with pytest.raises(InvariantError):
            root_bracket(lambda x, terms: (3 - 2 * x, 3 - 2 * x), F(1), F(2))   # falls

    def test_search_two_agents(self):
        best = best_ratio_search(2, "agent", F(1, 100))
        assert best <= F(4, 3) + F(1, 100)

    def test_search_eight_blocks(self):
        best = best_ratio_search(8, "super", F(1, 100))
        assert best <= F(8, 5)

    def test_search_never_returns_failing_rho(self):
        best = best_ratio_search(5, "agent", F(1, 64))
        assert covering_test(ridge_periods(5, best)).ok

    def test_search_many_blocks_brackets_the_published_value(self):
        best = best_ratio_search(16384, "super", F(1, 1000))
        assert F(1542, 1000) < best <= F(1543, 1000)
