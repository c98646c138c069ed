import math
import random
import tracemalloc
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from chorepick.model import ChoreInstance, PickingOrder, PickingSequence, to_sequence
from chorepick.ridge import covering_test, ridge_periods, synthesize_order
from chorepick.shares import chore_share, mms_oracle
from chorepick.simulate import (RidgeDeviation, evaluate_order, greedy_play,
                                guaranteed_disvalue, nonridge_witness,
                                worst_case_bundle, worst_case_ratio_cs)

from lp_reference import maximize


def make(ents, costs):
    return ChoreInstance(tuple(F(e) for e in ents),
                         tuple(tuple(F(c) for c in row) for row in costs))


class TestGreedyPlay:
    def test_identical_costs_follow_the_order(self):
        inst = make(["1/2", "1/2"], [[3, 2, 1]] * 2)
        played = greedy_play(to_sequence(PickingOrder((1, 2, 2)), 3), inst)
        assert played.bundle(1) == {1} and played.bundle(2) == {2, 3}

    def test_opposed_preferences(self):
        inst = make(["1/2", "1/2"], [[1, 2, 3], [3, 2, 1]])
        played = greedy_play(PickingSequence((1, 2, 1)), inst)
        assert played.bundle(1) == {1, 2} and played.bundle(2) == {3}
        assert inst.bundle_cost(1, played.bundle(1)) == 3
        assert inst.bundle_cost(2, played.bundle(2)) == 1

    def test_empty_instance(self):
        inst = ChoreInstance((F(1),), ((),))
        assert greedy_play(PickingSequence(()), inst).bundle(1) == frozenset()

    def test_picker_out_of_range(self):
        inst = make(["1"], [[1]])
        with pytest.raises(ValueError, match="out of range"):
            greedy_play(PickingSequence((2,)), inst)


class TestGuaranteedDisvalue:
    def test_worked_example(self):
        assert guaranteed_disvalue([6, 4, 4], [1, 2]) == 8
        assert guaranteed_disvalue([6, 4, 4], [3]) == 6
        assert guaranteed_disvalue([6, 2, 2], [1, 2]) == 4

    def test_all_rounds_give_total(self):
        assert guaranteed_disvalue([5, 1, 2], [1, 2, 3]) == 8

    def test_round_out_of_range(self):
        with pytest.raises(ValueError):
            guaranteed_disvalue([1, 2], [3])


def _lp_oracle(positions, m, cap, budget):
    """Independent exact evaluation of the same LP via the simplex solver."""
    objective = [F(1) if j in set(positions) else F(0) for j in range(1, m + 1)]
    a_ub, b_ub = [], []
    for j in range(m - 1):  # monotone: v[j+1] <= v[j]
        row = [F(0)] * m
        row[j], row[j + 1] = F(-1), F(1)
        a_ub.append(row)
        b_ub.append(F(0))
    top = [F(0)] * m
    top[0] = F(1)
    a_ub.append(top)
    b_ub.append(F(1))
    if cap + 1 <= m:
        mid = [F(0)] * m
        mid[cap] = F(1)
        a_ub.append(mid)
        b_ub.append(F(1, 2))
    a_ub.append([F(1)] * m)
    b_ub.append(F(budget))
    value, _ = maximize(objective, a_ub, b_ub)
    return value


ZERO, HALF, ONE = F(0), F(1, 2), F(1)


class _Reference(NamedTuple):
    """The reference enumerator's result: a value and its expanded valuation."""

    value: F
    valuation: tuple


def _reference_valuation(m, a, b, d, mid, tail):
    out = [ZERO] * m
    for j in range(a):
        out[j] = ONE
    for j in range(a, b):
        out[j] = mid
    for j in range(b, d):
        out[j] = tail
    return tuple(out)


def _reference_worst_case(positions, m, cap, budget):
    """Plain Fraction enumeration of both block shapes over every boundary,
    keeping the first strictly better candidate in enumeration order."""
    J = sorted(set(positions))
    if any(not 1 <= j <= m for j in J):
        raise ValueError(f"positions must lie in 1..{m}")
    if not J or m == 0:
        return _Reference(ZERO, tuple([ZERO] * m))
    budget = F(budget)
    cap = min(cap, m)

    count = [0] * (m + 1)  # count[d] = |J intersect [1..d]|
    for j in J:
        count[j] += 1
    for d in range(1, m + 1):
        count[d] += count[d - 1]

    best = _Reference(ZERO, tuple([ZERO] * m))
    a_cands = [0] + [j for j in J if j <= cap]

    def offer(value, a, b, d, mid, tail):
        nonlocal best
        if value > best.value:
            best = _Reference(value, _reference_valuation(m, a, b, d, mid, tail))

    # Shape 1^a (1/2)^(b-a) c^(d-b).
    for a in a_cands:
        if a > budget:
            break
        for b in [a] + [j for j in J if j > a]:
            used = a + F(b - a, 2)
            if used > budget:
                break
            base = F(count[a]) + F(count[b] - count[a], 2)
            offer(base, a, b, b, HALF, ZERO)
            slack = budget - used
            for d in (j for j in J if j > b):
                c = slack / (d - b)
                if c > HALF:
                    c = HALF
                if c == 0:
                    break
                offer(base + (count[d] - count[b]) * c, a, b, d, HALF, c)

    # Shape 1^a x^(b-a) (1/2)^(d-b) with 1/2 <= x <= 1, every b up to the cap.
    for a in a_cands:
        for b in range(a + 1, cap + 1):
            lead = F(count[a])
            for d in [b] + [j for j in J if j > b]:
                x = (budget - a - F(d - b, 2)) / (b - a)
                if x > ONE:
                    x = ONE
                if x < HALF:
                    continue
                value = lead + (count[b] - count[a]) * x + F(count[d] - count[b], 2)
                offer(value, a, b, d, x, HALF)

    return best


@st.composite
def _bundle_cases(draw):
    """(positions, m, cap, budget) with empty, sparse and dense position sets
    and integer, p/q and 1/b (entitlement b < 1, cap floor(1/b)) budgets."""
    m = draw(st.integers(1, 40))
    density = draw(st.sampled_from(["empty", "sparse", "dense"]))
    if density == "empty":
        positions = []
    elif density == "sparse":
        positions = draw(st.lists(st.integers(1, m), unique=True, min_size=1, max_size=6))
    else:
        gaps = set(draw(st.lists(st.integers(1, m), max_size=3)))
        positions = [j for j in range(1, m + 1) if j not in gaps]
    kind = draw(st.sampled_from(["integer", "ratio", "entitlement"]))
    if kind == "entitlement":
        b = draw(st.fractions(F(1, 12), F(1), max_denominator=30).filter(lambda b: b < 1))
        return positions, m, math.floor(1 / b), 1 / b
    cap = draw(st.integers(1, 12))
    if kind == "integer":
        return positions, m, cap, F(draw(st.integers(0, 14)))
    top = draw(st.sampled_from([2, 14]))  # budgets below 1 give x blocks at a = 0
    return positions, m, cap, draw(st.fractions(0, top, max_denominator=9))


class TestWorstCase:
    def test_single_top_position(self):
        assert worst_case_ratio_cs([1], 2, 4).value == 1

    def test_head_and_tail(self):
        wc = worst_case_ratio_cs([1, 4], 2, 4)
        assert wc.value == F(4, 3)
        assert wc.valuation == (F(1), F(1, 3), F(1, 3), F(1, 3))

    def test_three_agent_head_and_tail(self):
        wc = worst_case_ratio_cs([1, 6], 3, 6)
        assert wc.value == F(7, 5)
        assert wc.valuation == (F(1), F(2, 5), F(2, 5), F(2, 5), F(2, 5), F(2, 5))

    def test_mid_block_vertex_is_found(self):
        # Optimum (3/4, 3/4, 1/2, 0) sits above 1/2 without touching 1.
        wc = worst_case_ratio_cs([2, 3], 2, 4)
        assert wc.value == F(5, 4)
        assert wc.valuation == (F(3, 4), F(3, 4), F(1, 2), F(0))

    def test_empty_positions(self):
        assert worst_case_ratio_cs([], 3, 5).value == 0

    def test_valuation_is_feasible_and_attains(self):
        wc = worst_case_ratio_cs([2, 5, 6], 3, 8)
        v = wc.valuation
        assert all(v[i] >= v[i + 1] for i in range(7))
        assert v[0] <= 1 and v[3] <= F(1, 2) and sum(v) <= 3
        assert sum(v[j - 1] for j in (2, 5, 6)) == wc.value

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_independent_simplex(self, data):
        m = data.draw(st.integers(1, 10))
        n = data.draw(st.integers(1, 4))
        positions = data.draw(st.lists(st.integers(1, m), unique=True, min_size=1))
        mine = worst_case_ratio_cs(positions, n, m).value
        assert mine == _lp_oracle(positions, m, n, F(n))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_simplex_with_general_budget(self, data):
        m = data.draw(st.integers(1, 9))
        cap = data.draw(st.integers(1, 12))
        budget = data.draw(st.fractions(1, 9, max_denominator=7))
        positions = data.draw(st.lists(st.integers(1, m), unique=True, min_size=1))
        mine = worst_case_bundle(positions, m, cap, budget).value
        assert mine == _lp_oracle(positions, m, min(cap, m), budget)

    @settings(max_examples=300, deadline=None)
    @given(_bundle_cases())
    def test_matches_reference_enumerator(self, case):
        mine = worst_case_bundle(*case)
        ref = _reference_worst_case(*case)
        assert (mine.value, mine.valuation) == (ref.value, ref.valuation)
        assert mine.positions == tuple(sorted(set(case[0])))
        assert type(mine.value) is F
        assert all(type(v) is F for v in mine.valuation)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_feasible_points_never_beat_it(self, data):
        m = data.draw(st.integers(2, 10))
        n = data.draw(st.integers(1, 4))
        positions = data.draw(st.lists(st.integers(1, m), unique=True, min_size=1))
        best = worst_case_ratio_cs(positions, n, m).value
        draws = sorted((data.draw(st.fractions(0, 1, max_denominator=8))
                        for _ in range(m)), reverse=True)
        v = [min(x, F(1) if j < n else F(1, 2)) for j, x in enumerate(draws)]
        total = sum(v)
        if total > n:
            v = [x * n / total for x in v]
        assert sum(v[j - 1] for j in positions) <= best

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_monotone_in_positions(self, data):
        m = data.draw(st.integers(2, 10))
        n = data.draw(st.integers(1, 4))
        positions = data.draw(st.lists(st.integers(1, m), unique=True, min_size=1, max_size=m - 1))
        extra = data.draw(st.integers(1, m).filter(lambda j: j not in set(positions)))
        base = worst_case_ratio_cs(positions, n, m).value
        assert worst_case_ratio_cs(list(positions) + [extra], n, m).value >= base


class TestEvaluateOrder:
    def test_single_agent_is_exactly_proportional(self):
        assert evaluate_order(PickingOrder((1, 1, 1)), 1, 3).ratio == 1

    def test_two_agent_ridge_order(self):
        assert evaluate_order(PickingOrder((1, 2, 2, 1)), 2, 4).ratio == F(4, 3)

    def test_relabeling_invariance(self):
        order = PickingOrder((1, 2, 2, 1), (2, 2, 1))
        swapped = PickingOrder((2, 1, 1, 2), (1, 1, 2))
        m = 13
        assert evaluate_order(order, 2, m).ratio == evaluate_order(swapped, 2, m).ratio

    def test_breakdown_names_the_binding_agent(self):
        ev = evaluate_order(PickingOrder((1, 2, 2, 1), (2, 2, 1)), 2, 10)
        binding = max(ev.per_agent, key=lambda i: (ev.per_agent[i].value, -i))
        assert ev.per_agent[binding].value == ev.ratio

    def test_keeps_witnesses_not_valuations(self):
        # An m-long valuation per agent would take O(n*m) memory: 65 MiB here.
        sched = ridge_periods(512, F(1543, 1000), "super")
        m = covering_test(sched).horizon
        order = synthesize_order(sched, m)
        tracemalloc.start()
        try:
            ev = evaluate_order(order, 512, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m, ev.ratio) == (16491, F(128, 83))
        assert peak < 4 * 2 ** 20

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3), st.integers(4, 9), st.randoms(), st.integers(0, 10 ** 6))
    def test_greedy_never_beats_the_bound(self, n, m, rng, seed):
        rng = random.Random(seed)
        order = PickingOrder(tuple(rng.randint(1, n) for _ in range(m)))
        rows = []
        for _ in range(n):
            row = sorted((F(rng.randint(0, 40), 8) for _ in range(m)), reverse=True)
            rows.append(tuple(row))
        inst = ChoreInstance(tuple(F(1, n) for _ in range(n)), tuple(rows))
        played = greedy_play(to_sequence(order, m), inst)
        ev = evaluate_order(order, n, m)
        for i in range(1, n + 1):
            cs = chore_share(inst.row(i), F(1, n))
            if cs == 0:
                continue
            held = inst.bundle_cost(i, played.bundle(i))
            assert held / cs <= ev.per_agent[i].value


def _all_orders(n, m):
    total = n ** m
    for code in range(total):
        out = []
        c = code
        for _ in range(m):
            out.append(c % n + 1)
            c //= n
        yield tuple(out)


def _reference_nonridge_witness(order, n):
    """Three scans: a repeat among the first n rounds, a third chore within
    2n rounds, then a second chore that comes too early."""
    m = 2 * n
    head = order.expand(m)
    held = {}
    for r, who in enumerate(head, start=1):
        held.setdefault(who, []).append(r)

    def deviation(kind, agent, row):
        floor = F(2) if kind == "double-prefix" else F(3, 2)
        return RidgeDeviation(kind, agent, tuple(held[agent]), tuple(row), floor)

    firsts = {}
    for r in range(1, n + 1):
        who = head[r - 1]
        if who in firsts:
            return deviation("double-prefix", who, [F(1)] * n + [F(0)] * n)
        firsts[who] = r
    counts = {}
    for who in head:
        counts[who] = counts.get(who, 0) + 1
        if counts[who] >= 3:
            return deviation("triple", who, [F(1, 2)] * m)
    for who, j in firsts.items():
        rounds = held[who]
        if len(rounds) > 1 and rounds[1] < 2 * n - j + 1:
            row = [F(1)] * j + [F(1, 2)] * (2 * (n - j)) + [F(0)] * (m - j - 2 * (n - j))
            return deviation("early-second", who, row)
    return None


class TestNonridgeWitness:
    def test_matches_reference_on_random_orders(self):
        rng = random.Random(17)
        kinds = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            draw = lambda k: tuple(rng.randint(1, n) for _ in range(k))
            if rng.random() < 0.5:
                order = PickingOrder(draw(2 * n))
            else:
                order = PickingOrder(draw(rng.randint(0, 2 * n)), draw(rng.randint(1, 2 * n)))
            w = nonridge_witness(order, n)
            assert w == _reference_nonridge_witness(order, n), order
            kinds.add(w and w.kind)
        assert kinds == {None, "double-prefix", "triple", "early-second"}

    def test_ridge_orders_pass(self):
        assert nonridge_witness(PickingOrder((1, 2, 3, 3, 2, 1)), 3) is None

    def test_double_prefix_pick(self):
        w = nonridge_witness(PickingOrder((1, 1, 2, 2)), 2)
        assert w.kind == "double-prefix"
        assert w.valuation == (F(1), F(1), F(0), F(0))
        held = sum(w.valuation[r - 1] for r in w.positions)
        assert held / mms_oracle(w.valuation, 2) >= 2

    def test_early_second_pick(self):
        w = nonridge_witness(PickingOrder((1, 2, 1, 2)), 2)
        assert w.kind == "early-second"
        assert w.valuation == (F(1), F(1, 2), F(1, 2), F(0))
        held = sum(w.valuation[r - 1] for r in w.positions)
        assert held / mms_oracle(w.valuation, 2) == F(3, 2)

    def test_triple_pick(self):
        w = nonridge_witness(PickingOrder((1, 2, 2, 2)), 2)
        assert w.kind == "triple"
        held = sum(w.valuation[r - 1] for r in w.positions)
        assert held / mms_oracle(w.valuation, 2) >= F(3, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_certification(self, n):
        relabelings = ((1, 2), (2, 1)) if n == 2 else (
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
        ridges = set()
        base = tuple(range(1, n + 1)) + tuple(range(n, 0, -1))
        for relabel in relabelings:
            ridges.add(tuple(relabel[a - 1] for a in base))
        for assignment in _all_orders(n, 2 * n):
            w = nonridge_witness(PickingOrder(assignment), n)
            if assignment in ridges:
                assert w is None
            else:
                assert w is not None
                held = sum(w.valuation[r - 1] for r in w.positions)
                assert held / mms_oracle(w.valuation, n) >= w.ratio_floor >= F(3, 2)
