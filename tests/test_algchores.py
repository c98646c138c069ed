import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from chorepick import algchores
from chorepick.algchores import AlgChoresResult, RoundTrace, alg_chores, tight_example
from chorepick.model import (Allocation, ChoreInstance, InvariantError, PickingOrder,
                             equal_entitlements, to_sequence)
from chorepick.shares import aps_oracle, mms_oracle
from chorepick.simulate import greedy_play


def make(n, rows):
    return ChoreInstance(equal_entitlements(n), tuple(tuple(F(c) for c in row) for row in rows))


class TestTightExample:
    def test_two_agent_items(self):
        inst = tight_example(2)
        assert inst.row(1) == (F(3, 2), F(3, 2), F(1), F(1), F(1))
        assert mms_oracle(inst.row(1), 2) == 3

    def test_three_agent_items_sorted(self):
        inst = tight_example(3)
        assert inst.row(1) == (F(5, 3), F(5, 3), F(4, 3), F(4, 3), F(1), F(1), F(1))
        assert all(list(row) == sorted(row, reverse=True) for row in inst.costs)

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            tight_example(1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ratio_is_exactly_tight(self, n):
        inst = tight_example(n)
        result = alg_chores(inst)
        worst = max(inst.bundle_cost(i, result.allocation.bundle(i))
                    for i in range(1, n + 1))
        assert worst == 4 - F(1, n)
        mms = mms_oracle(inst.row(1), n, force=True)
        assert mms == 3
        assert worst / mms == F(4 * n - 1, 3 * n)


class TestAlgorithm:
    def test_empty_instance(self):
        inst = ChoreInstance((F(1, 2), F(1, 2)), ((), ()))
        result = alg_chores(inst)
        assert all(b == frozenset() for b in result.allocation.bundles)

    def test_two_agent_trace(self):
        inst = tight_example(2)
        result = alg_chores(inst, trace=True)
        assert [r.recipient for r in result.trace] == [1, 2, 1, 2, 1]
        costs = sorted((inst.bundle_cost(i, result.allocation.bundle(i)) for i in (1, 2)),
                       reverse=True)
        assert costs == [F(7, 2), F(5, 2)]

    def test_envy_cycle_fires_and_helps(self):
        # Opposed tastes: after chore 2 both agents envy each other; the
        # rotation must swap bundles and strictly cut total held disvalue.
        inst = ChoreInstance(
            (F(1, 2), F(1, 2)),
            ((F(3), F(1), F(1)), (F(3), F(2), F(2))))
        result = alg_chores(inst, trace=True)
        assert result.rotations >= 1

    def test_one_envy_scan_per_round_and_rotation(self, monkeypatch):
        # The agent found envy-free when a round's rotations end is the next
        # round's recipient; only the empty start needs a scan of its own.
        scans = []
        scan = algchores._envy_free_agent
        monkeypatch.setattr(algchores, "_envy_free_agent", lambda held: scans.append(1) or scan(held))
        rng = random.Random(5)
        rotations = 0
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(0, 12)
            inst = make(n, [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
            scans.clear()
            result = alg_chores(inst, trace=True)
            assert len(scans) == 1 + m + result.rotations
            rotations += result.rotations
        assert rotations > 0

    def test_a_rotation_must_improve_every_member(self, monkeypatch):
        # The first cycle is replaced by all three agents in index order:
        # agents 2 and 3 improve, agent 1 does not.
        find = algchores._find_cycle
        calls = []

        def rotate_everyone_once(held):
            calls.append(1)
            return list(range(len(held))) if len(calls) == 1 else find(held)
        monkeypatch.setattr(algchores, "_find_cycle", rotate_everyone_once)
        inst = make(3, [[3, 3, 1, 1, 1], [3, 0, 0, 1, 0], [2, 0, 2, 3, 3]])
        with pytest.raises(InvariantError, match="every member"):
            alg_chores(inst)

    def test_reduction_check_compares_on_the_agent_scale(self, monkeypatch):
        # The swapped replay gives agent 2 the chore of 6/7 where her
        # surrogate bundle cost 1/7: on her scale 6 > 1, though 6/7 <= 1.
        picks = algchores._greedy_picks
        monkeypatch.setattr(algchores, "_greedy_picks",
                            lambda rows, items: picks(rows, items)[::-1])
        inst = make(2, [[F(6, 7), F(1, 7)]] * 2)
        with pytest.raises(InvariantError, match="must not worsen"):
            alg_chores(inst)

    def test_partition_and_all_assigned(self):
        inst = make(3, [[9, 7, 5, 4, 2, 1]] * 3)
        result = alg_chores(inst)
        assert set().union(*result.allocation.bundles) == set(range(1, 7))

    def test_general_instance_reduction_never_hurts(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 3)
            m = rng.randint(1, 7)
            rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            inst = make(n, rows)
            result = alg_chores(inst)
            for i in range(1, n + 1):
                real = inst.bundle_cost(i, result.allocation.bundle(i))
                surr = sum(sorted(inst.row(i), reverse=True)[j - 1]
                           for j in result.surrogate_allocation.bundle(i))
                assert real <= surr

    def test_exhaustive_small_identical_rows_vs_anyprice(self):
        import itertools
        n = 2
        bound = F(4 * n - 1, 3 * n)
        for m in range(1, 7):
            for row in itertools.combinations_with_replacement((3, 2, 1, 0), m):
                inst = make(n, [row] * n)
                result = alg_chores(inst)
                aps = aps_oracle(row, F(1, n))
                worst = max(inst.bundle_cost(i, result.allocation.bundle(i))
                            for i in range(1, n + 1))
                if aps == 0:
                    assert worst == 0
                else:
                    assert worst <= bound * aps, (row, worst, aps)


# Reference implementation: the allocation loop that re-sums both bundles on
# every envy test, with the identity shortcut for common-order instances and
# the tie-broken relabeling below for all others.

def _reference_to_ido(inst):
    """Sort each agent's costs worst-first, breaking ties inside a row by a
    shared reference ordering (chores by total cost over all agents, then
    by index); returns the surrogate instance."""
    n, m = inst.n, inst.m
    totals = [sum(inst.costs[a][j] for a in range(n)) for j in range(m)]
    reference = sorted(range(m), key=lambda j: (-totals[j], j))
    ref_rank = {j: r for r, j in enumerate(reference)}
    rows = []
    for a in range(n):
        row = inst.costs[a]
        order = sorted(range(m), key=lambda j: (-row[j], ref_rank[j]))
        rows.append(tuple(row[j] for j in order))
    return ChoreInstance(entitlements=inst.entitlements, costs=tuple(rows))


def _reference_envies(costs, bundles, i, j):
    row = costs[i]
    return sum((row[c - 1] for c in bundles[j]), F(0)) < sum((row[c - 1] for c in bundles[i]), F(0))


def _reference_envy_free_agent(costs, bundles, n):
    for i in range(n):
        if not any(_reference_envies(costs, bundles, i, j) for j in range(n) if j != i):
            return i
    return None


def _reference_find_cycle(costs, bundles, n):
    succ = {i: next(j for j in range(n) if j != i and _reference_envies(costs, bundles, i, j))
            for i in range(n)}
    path, seen = [0], {0: 0}
    while succ[path[-1]] not in seen:
        seen[succ[path[-1]]] = len(path)
        path.append(succ[path[-1]])
    return path[seen[succ[path[-1]]]:]


def _reference_alg_chores(inst):
    surrogate = _reference_to_ido(inst)  # the rows themselves when already sorted
    costs, n = surrogate.costs, inst.n
    bundles = [set() for _ in range(n)]
    trace = []
    for r in range(1, inst.m + 1):
        recipient = _reference_envy_free_agent(costs, bundles, n)
        bundles[recipient].add(r)
        rotations = []
        while _reference_envy_free_agent(costs, bundles, n) is None:
            cycle = _reference_find_cycle(costs, bundles, n)
            moved = [bundles[cycle[(k + 1) % len(cycle)]] for k in range(len(cycle))]
            for k, agent in enumerate(cycle):
                bundles[agent] = moved[k]
            rotations.append(tuple(a + 1 for a in cycle))
        trace.append(RoundTrace(r, recipient + 1, tuple(rotations)))
    owners = [0] * inst.m
    for i, bundle in enumerate(bundles, start=1):
        for r in bundle:
            owners[r - 1] = i
    real = greedy_play(to_sequence(PickingOrder(tuple(owners))), inst)
    return AlgChoresResult(real, Allocation.from_lists(bundles), tuple(trace))


COST = st.one_of(st.integers(0, 9), st.fractions(0, 9, max_denominator=7))


@st.composite
def _instances(draw):
    """Small instances with few distinct costs, so that ties and rotations
    occur; some rows are sorted worst-first, and some instances are in
    common order throughout. Each row draws its own few values, ints and
    Fractions (denominators up to 7), so rows differ in their denominators;
    a row may be all zeros."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(0, 14))
    k = draw(st.sampled_from([1, 2, 3, 9]))
    common = draw(st.booleans())
    rows = []
    for _ in range(n):
        values = draw(st.lists(COST, min_size=1, max_size=k + 1)) if draw(st.integers(0, 7)) else [0]
        row = draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
        if common or draw(st.booleans()):
            row.sort(reverse=True)
        rows.append(tuple(row))
    return ChoreInstance(equal_entitlements(n), tuple(rows))


# Costs k/p for primes p near 10**6, two primes to a row and no prime shared
# between rows.
PRIMES = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)
COPRIME_ROWS = tuple(
    tuple(F(random.Random(10 * i + j).randrange(3 * PRIMES[2 * i + j % 2]), PRIMES[2 * i + j % 2])
          for j in range(12))
    for i in range(4))


class TestReference:
    @settings(max_examples=400, deadline=None)
    @given(_instances())
    def test_matches_resumming_reference(self, inst):
        assert alg_chores(inst, trace=True) == _reference_alg_chores(inst)

    @settings(max_examples=200, deadline=None)
    @given(_instances(), st.data())
    def test_scaling_a_row_changes_nothing(self, inst, data):
        scales = data.draw(st.lists(st.fractions(F(1, 1000), 1000, max_denominator=1000)
                                    .filter(bool), min_size=inst.n, max_size=inst.n))
        scaled = ChoreInstance(inst.entitlements, tuple(
            tuple(c * s for c in row) for row, s in zip(inst.costs, scales)))
        assert alg_chores(scaled, trace=True) == alg_chores(inst, trace=True)

    def test_large_coprime_denominators(self, monkeypatch):
        inst = ChoreInstance(equal_entitlements(4), COPRIME_ROWS)
        seen = []
        core = algchores._core
        monkeypatch.setattr(algchores, "_core", lambda costs, m, t: seen.append(costs) or core(costs, m, t))
        assert alg_chores(inst, trace=True) == _reference_alg_chores(inst)
        # The core sees each row times its own two primes and nothing more.
        for row, scaled, p, q in zip(inst.costs, seen[0], PRIMES[::2], PRIMES[1::2]):
            assert lcm(*(c.denominator for c in row)) == p * q
            assert scaled == sorted((c * p * q for c in row), reverse=True)

    def test_reference_sees_rotations(self):
        rng = random.Random(0)
        rotations = 0
        for _ in range(200):
            n, m = rng.randint(2, 6), rng.randint(0, 14)
            inst = make(n, [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
            expected = _reference_alg_chores(inst)
            assert alg_chores(inst, trace=True) == expected
            rotations += expected.rotations
        assert rotations > 0
