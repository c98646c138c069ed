import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import entitle_reference
from chorepick.entitle import (DEFAULT_T, FractionalAllocation, Pipeline, ScalingFunction,
                               build_fractional, half_plus_x, round_to_order,
                               scaling_margin, solve_t, verify_guarantee)
from chorepick.model import ChoreInstance, PickingOrder, to_sequence
from chorepick.simulate import greedy_play


def entitlement_vectors(rng, count, max_n=8):
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        weights = [rng.randint(1, 9) for _ in range(n)]
        total = sum(weights)
        out.append(tuple(F(w, total) for w in weights))
    return out


class TestScaling:
    def test_root_location(self):
        assert solve_t() == (F(1465941, 10 ** 6), F(1465942, 10 ** 6))

    def test_default_parameter_is_usable(self):
        # DEFAULT_T is the smallest three-decimal t: the unit-integral
        # condition fails at 1465/1000 and holds at 1466/1000, both proved.
        assert scaling_margin(F(1465, 1000), 8)[1] < 0
        assert DEFAULT_T == F(1466, 1000) and scaling_margin(DEFAULT_T, 8)[0] > 0

    def test_guaranteed_ratio(self):
        s = ScalingFunction()
        assert s.guaranteed_ratio == F(1733, 1000)
        assert abs(float(s.guaranteed_ratio) - 1.733) < 5e-4

    def test_shape_conditions_on_a_grid(self):
        s = ScalingFunction()
        cap = s.t
        points = [F(k, 97) for k in range(98)] + [F(0), F(1), 1 / s.t]
        last = None
        for x in sorted(points):
            val = s(x)
            assert (1 - x) * val <= 1
            assert 1 + val - x * val <= cap
            if last is not None:
                assert val >= last
            last = val
        assert s(F(1)) == cap <= 2

    def test_parameter_range_enforced(self):
        with pytest.raises(ValueError):
            ScalingFunction(F(5, 2))


class TestPipelineFixtures:
    def test_equal_two_agent_splits(self):
        p = build_fractional([F(1, 2), F(1, 2)], half_plus_x, 6)
        for j in range(3, 7):
            assert [p.final.shares[i][j - 1] for i in range(2)] == [F(1, 2), F(1, 2)]
        assert [p.final.shares[i][0] for i in range(2)] == [F(1), F(0)]
        assert not p.sentinel

    def test_equal_n_agents_trims_only_the_top(self):
        n = 5
        p = build_fractional([F(1, n)] * n, half_plus_x, 2 * n)
        for j in range(n + 1, 2 * n + 1):
            col = [p.final.shares[i][j - 1] for i in range(n)]
            expected = [(F(1, 2) + F(i, n)) / n for i in range(1, n)] + [F(1, n)]
            assert col == expected

    def test_unequal_fixture_stage_by_stage(self):
        b = [F(1, 8), F(3, 8), F(1, 2)]
        p = build_fractional(b, half_plus_x, 12)
        # released mass per agent is exactly one unit
        for i in range(3):
            released = sum(p.proportional[i][j] - (p.giveup[i][j] - (1 if i == j else 0))
                           for j in range(p.columns))
            assert released == 1
        # oversubscription sits on chore 3, undersubscription on 4..8
        sums2 = [sum(p.giveup[i][j] for i in range(3)) for j in range(p.columns)]
        assert sums2[2] == F(13, 8)
        assert all(s == F(7, 8) for s in sums2[3:8])
        assert all(s == 1 for s in sums2[8:])
        # after rebalancing every column is covered exactly once
        sums3 = [sum(p.rebalanced[i][j] for i in range(3)) for j in range(p.columns)]
        assert all(s == 1 for s in sums3)
        # scaling uses factors 5/8, 1, 3/2 beyond the heads
        assert [p.scaled[i][4] for i in range(3)] == [F(0), F(3, 8), F(15, 16)]
        # final allocation: heads outright, everything later split 3/8, 5/8
        for j in range(4, 13):
            assert [p.final.shares[i][j - 1] for i in range(3)] == [F(0), F(3, 8), F(5, 8)]
        assert [p.final.shares[i][0] for i in range(3)] == [F(1), F(0), F(0)]
        # agent 1 holds nothing else among the real chores
        assert all(p.final.shares[0][j] == 0 for j in range(1, 12))
        assert p.sentinel and p.final.first_fractional == (13, 4, 4)

    def test_production_scaling_invariants(self):
        b = [F(1, 8), F(3, 8), F(1, 2)]
        p = build_fractional(b, ScalingFunction(), 12)
        for j in range(1, p.final.columns + 1):
            assert sum(row[j - 1] for row in p.final.shares) == 1
        for i, first in enumerate(p.final.first_fractional):
            floor_slot = max(3, math.floor(1 / b[i]))
            assert first is None or first > floor_slot

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_entitlements_keep_all_invariants(self, data):
        n = data.draw(st.integers(2, 7))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        total = sum(weights)
        b = [F(w, total) for w in weights]
        m = data.draw(st.integers(1, 20))
        p = build_fractional(b, ScalingFunction(), m)
        bs = p.sorted_entitlements
        # legality at every claimed-legal stage
        for stage in (p.proportional, p.rebalanced):
            for j in range(p.columns):
                assert sum(stage[i][j] for i in range(n)) == 1
        for j in range(1, p.final.columns + 1):
            assert sum(row[j - 1] for row in p.final.shares) == 1
        # no column starves after scaling
        for j in range(n, p.columns):
            assert sum(p.scaled[i][j] for i in range(n)) >= 1
        # suffix domination on the formerly undersubscribed range
        need = math.ceil(1 / bs[0])
        for j in range(n, min(need, p.columns)):
            suffix = F(0)
            prop = F(0)
            for i in range(n - 1, -1, -1):
                suffix += p.rebalanced[i][j]
                prop += bs[i]
                assert suffix >= prop
        # the first strict fraction clears the danger zone
        for i, first in enumerate(p.final.first_fractional):
            assert first is None or first > max(n, math.floor(1 / bs[i]))
        # each agent releases exactly one unit besides her outright chore
        for i in range(n):
            assert sum(p.proportional[i]) - (sum(p.giveup[i]) - 1) == 1
        # the rebalanced head block is the identity
        for i in range(n):
            assert p.rebalanced[i][:n] == tuple(int(i == j) for j in range(n))
        # from column max(n, ceil(1/b(1))) on, each stage repeats one column,
        # and the rebalanced one is b itself
        tail = max(n, math.ceil(1 / bs[0]))
        for stage in (p.rebalanced, p.scaled, p.final.shares):
            columns = list(zip(*stage))[tail:p.columns]
            assert columns == columns[:1] * len(columns)
        assert all(column == bs for column in list(zip(*p.rebalanced))[tail:])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_reference_construction(self, data):
        # The stages, field for field, against the earlier per-chore code kept
        # in tests/entitle_reference.py; smaller t raise the mass error there.
        n = data.draw(st.integers(1, 16))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        b = [F(w, sum(weights)) for w in weights]
        m = data.draw(st.integers(0, 90))
        scaling = data.draw(st.one_of(
            st.just(ScalingFunction()), st.just(half_plus_x),
            st.integers(1000, 1465).map(lambda k: ScalingFunction(F(k, 1000)))))
        outcomes = []
        for build in (build_fractional, entitle_reference.build_fractional):
            try:
                outcomes.append(build(b, scaling, m))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        got, expected = outcomes
        if isinstance(expected, tuple):
            assert got == expected
            return
        for field in dataclasses.fields(Pipeline):
            assert getattr(got, field.name) == getattr(expected, field.name), field.name
        # equal values of one type render to the same bytes
        for stage in (got.proportional, got.giveup, got.rebalanced, got.scaled, got.final.shares):
            assert all(type(a) is F for row in stage for a in row)


class TestRounding:
    def test_proportional_two_agents(self):
        alloc = FractionalAllocation(
            shares=((F(1, 2),) * 4, (F(1, 2),) * 4),
            first_fractional=(1, 1))
        order = round_to_order(alloc, [F(1, 2), F(1, 2)])
        assert order.prefix == (2, 1, 2, 1)

    def test_single_agent(self):
        alloc = FractionalAllocation(shares=((F(1),) * 3,), first_fractional=(None,))
        assert round_to_order(alloc, [F(1)]).prefix == (1, 1, 1)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_entitlement_per_agent(self, count):
        # One for two agents used to raise IndexError; three dropped the third.
        alloc = FractionalAllocation(shares=((F(1, 2),) * 4,) * 2, first_fractional=(1, 1))
        with pytest.raises(ValueError, match=f"expected 2 entitlements, got {count}"):
            round_to_order(alloc, [F(1, count)] * count)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_rounding_respects_eligibility_and_ceilings(self, data):
        n = data.draw(st.integers(2, 6))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        b = [F(w, sum(weights)) for w in weights]
        m = data.draw(st.integers(1, 16))
        p = build_fractional(b, ScalingFunction(), m)
        picks = round_to_order(p.final, p.sorted_entitlements)
        expanded = picks.expand(p.final.columns)
        assert len(expanded) == p.final.columns  # every chore exactly once
        # Replay: each recipient's cumulative fraction strictly exceeded her
        # running count, which also caps her total at ceil(row mass). The
        # floor is *not* guaranteed: the highest-entitlement tie-break can
        # legally absorb the closing rounds (see b = 1/13,4/13,4/13,4/13).
        received = [0] * n
        cum = [F(0)] * n
        for t, who in enumerate(expanded, start=1):
            for i in range(n):
                cum[i] += p.final.shares[i][t - 1]
            assert cum[who - 1] > received[who - 1]
            received[who - 1] += 1
        for i in range(n):
            assert received[i] <= math.ceil(sum(p.final.shares[i], F(0)))

    def test_greedy_outcome_bounded_by_fractional_certificate(self):
        rng = random.Random(5)
        b = [F(1, 8), F(3, 8), F(1, 2)]
        p = build_fractional(b, ScalingFunction(), 12)
        order = p.order()
        for _ in range(20):
            rows = []
            for _ in range(3):
                row = sorted((F(rng.randint(0, 60), 12) for _ in range(12)), reverse=True)
                rows.append(tuple(row))
            inst = ChoreInstance(tuple(b), tuple(rows))
            played = greedy_play(to_sequence(order, 12), inst)
            sorted_pos = {orig: idx for idx, orig in enumerate(p.sorted_to_original)}
            for agent in range(1, 4):
                i = sorted_pos[agent]
                row = rows[agent - 1]
                first = p.final.first_fractional[i]
                head = row[first - 1] if first is not None and first <= 12 else F(0)
                certificate = head + sum(
                    p.final.shares[i][j] * row[j] for j in range(min(12, p.final.columns)))
                assert inst.bundle_cost(agent, played.bundle(agent)) <= certificate


def _reference_stress(b, order, trials, seed, m):
    """verify_guarantee's random trials with every cost a Fraction: the
    largest ratio of a greedy bundle's cost to its agent's chore share."""
    rng = random.Random(seed)
    seq = to_sequence(PickingOrder(order), m)
    worst = F(0)
    for _ in range(trials):
        rows = [tuple(sorted((F(rng.randrange(1, 10 ** 6 + 1)) for _ in range(m)), reverse=True))
                for _ in b]
        played = greedy_play(seq, ChoreInstance(tuple(b), tuple(rows)))
        for i, (row, bi) in enumerate(zip(rows, b), start=1):
            k = (1 / bi).__floor__()
            pair = sum(row[k - 1:k + 1], F(0)) if k <= m else F(0)
            share = max(bi * sum(row, F(0)), row[0], pair)
            worst = max(worst, sum((row[j - 1] for j in played.bundle(i)), F(0)) / share)
    return worst


class TestGuarantee:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_stress_matches_a_fraction_reference(self, data):
        weights = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        b = [F(w, sum(weights)) for w in weights]
        m, trials = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 5))
        seed = data.draw(st.integers(0, 2 ** 32))
        report = verify_guarantee(b, trials=trials, seed=seed, m=m)
        assert type(report.max_simulated) is F
        assert report.max_simulated == _reference_stress(b, report.order, trials, seed, m)

    def test_uniform_four_agents(self):
        report = verify_guarantee([F(1, 4)] * 4, trials=100, seed=0, m=24)
        assert report.ok
        assert report.max_adversarial <= F(1733, 1000)

    def test_paper_style_unequal_vector(self):
        report = verify_guarantee([F(1, 8), F(3, 8), F(1, 2)], trials=100, seed=2, m=30)
        assert report.ok

    def test_single_agent_is_tight(self):
        report = verify_guarantee([F(1)], trials=10, seed=0, m=12)
        assert report.max_adversarial == 1
        assert report.max_simulated == 1

    def test_unsorted_entitlements_are_handled(self):
        report = verify_guarantee([F(1, 2), F(1, 8), F(3, 8)], trials=20, seed=4, m=16)
        assert report.ok
        assert set(report.order) == {1, 2, 3}
