import random
from fractions import Fraction as F

import pytest

from chorepick.model import InstanceError
from chorepick.ridge import (CoveringViolation, DominationError, best_ratio_search,
                             covering_test, fixed_order, halve_thresholds,
                             replay_thresholds, ridge_periods, ridge_rate_margin,
                             solve_rho_star, synthesize_order)
from chorepick.simulate import evaluate_order


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
        assert halved.covering_ok
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
        assert halved.covering_ok

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
            assert halved.covering_ok, (half_n, rho)
            done += 1

    def test_odd_agent_count_rejected(self):
        with pytest.raises(ValueError):
            halve_thresholds(ridge_periods(3, F(7, 5)), 50)

    def test_domination_violation_is_reported(self):
        # Crossing pair lists are folded but flagged, and refused on demand.
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
        with pytest.raises(DominationError):
            halve_thresholds(Crossing(), 24, require_domination=True)

    def test_adjacent_late_pairs_can_cross_but_still_cover(self):
        # Witness for the reportable ceiling-jitter crossing: both agents of
        # a late-class pair, the later one starting a round earlier with a
        # slightly longer period.
        sched = ridge_periods(26, F(163, 100))
        verdict = covering_test(sched)
        assert verdict.ok
        halved = halve_thresholds(sched, verdict.horizon)
        assert (25, 26) in halved.domination_violations
        assert halved.covering_ok


class TestScalarBounds:
    def test_asymptotic_ridge_floor(self):
        assert abs(solve_rho_star() - 1.52408) < 5e-4

    def test_margin_signs(self):
        assert ridge_rate_margin(1.6) > 0
        assert ridge_rate_margin(1.5) < 0

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
