import gc
import itertools
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chorepick import shares
from chorepick.model import ChoreInstance, SizeGuardError
from chorepick.shares import (ShareReport, aps_oracle, chore_share, mms_oracle,
                              proportional_share, share_report)
from chorepick._simplex import LpUnbounded, maximize

import lp_reference as reference

# Small entries with repeats and zeros, so ties in the ratio test, degenerate
# pivots, zero rows and unbounded columns all come up often.
LP_ENTRY = st.sampled_from([F(-2), F(-1), F(0), F(0), F(0), F(1, 2), F(1), F(1), F(2), F(3, 2)])


@st.composite
def packing_lps(draw):
    nvar, nrows = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    vector = st.lists(LP_ENTRY, min_size=nvar, max_size=nvar)
    objective = draw(vector)
    a_ub = [draw(vector) for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        a_ub[draw(st.integers(0, nrows - 1))] = [F(0)] * nvar
    b_ub = draw(st.lists(st.sampled_from([F(0), F(0), F(1, 3), F(1), F(2)]),
                         min_size=nrows, max_size=nrows))
    return objective, a_ub, b_ub


class TestSimplex:
    def test_basic_maximum(self):
        value, x = maximize([F(3), F(2)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)])
        assert value == 10 and x == [F(2), F(2)]
        # Two optimal vertices: Bland's lowest improving column enters first.
        assert maximize([1, 1], [[1, 1]], [1]) == (1, [1, 0])

    def test_negative_right_hand_side(self):
        with pytest.raises(ValueError):
            maximize([F(1)], [[F(1)], [F(-1)]], [F(1), F(-2)])

    def test_unbounded(self):
        with pytest.raises(LpUnbounded):
            maximize([F(1)], [[F(-1)]], [F(0)])

    def test_degenerate_cycling_guard(self):
        # Classic degenerate corner; Bland's rule must terminate.
        value, _ = maximize(
            [F(3, 4), F(-150), F(1, 50), F(-6)],
            [[F(1, 4), F(-60), F(-1, 25), F(9)],
             [F(1, 2), F(-90), F(-1, 50), F(3)],
             [F(0), F(0), F(1), F(0)]],
            [F(0), F(0), F(1)])
        assert value == F(1, 20)

    def test_ratio_ties_go_to_the_lowest_basic_index(self, run_python):
        # Two degenerate systems (b = 0) on which the lowest-column rule cycles
        # when ratio-test ties go to the first row (the first system is
        # unbounded) or to the highest basic index (the second has optimum 0).
        # They run in their own process, so a cycle fails by timeout, not by
        # hanging the suite.
        code = textwrap.dedent("""
            from fractions import Fraction as F
            from chorepick._simplex import LpUnbounded, maximize
            h = F(1, 2)
            try:
                maximize([0, 0, h, h, 0, 2, -2],
                         [[0, -3, h, 3, -3, h, h], [3, -3, 2, 2, 2, 0, -3],
                          [-1, -1, -h, 3, -3, 3, -1], [h, -h, 1, -2, 0, 0, 3]], [0] * 4)
            except LpUnbounded:
                print("unbounded")
            print(maximize([-3, 2, 2, 3], [[3, 1, h, 0], [h, -h, 1, h], [1, -3, -1, -2]],
                           [0] * 3)[0])
        """)
        done = run_python("-c", code, timeout=30)
        assert done.returncode == 0 and done.stdout == "unbounded\n0\n", done.stderr

    @settings(max_examples=300, deadline=None)
    @given(packing_lps())
    def test_matches_two_phase_reference(self, lp):
        objective, a_ub, b_ub = lp
        try:
            expected, _ = reference.maximize(objective, a_ub, b_ub)
        except reference.LpUnbounded:
            with pytest.raises(LpUnbounded):
                maximize(objective, a_ub, b_ub)
            return
        value, x = maximize(objective, a_ub, b_ub)
        assert value == expected
        assert sum(c * v for c, v in zip(objective, x)) == value
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) <= rhs for row, rhs in zip(a_ub, b_ub))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda nvar: st.tuples(
        st.lists(st.integers(1, 4), min_size=nvar, max_size=nvar),
        st.lists(st.lists(st.integers(0, 3), min_size=nvar, max_size=nvar), max_size=8))))
    def test_packing_lp_is_unbounded_iff_a_column_is_zero(self, lp):
        # aps_oracle answers these probes without an LP: with a nonnegative
        # matrix, a positive objective and rhs 1, the LP is unbounded exactly
        # when there are no rows or some column is all zero.
        objective, a_ub = lp
        b_ub = [1] * len(a_ub)
        if not a_ub or not all(map(any, zip(*a_ub))):
            with pytest.raises(LpUnbounded):
                maximize(objective, a_ub, b_ub)
        else:
            assert maximize(objective, a_ub, b_ub)[0] == reference.maximize(objective, a_ub, b_ub)[0]


class TestReferenceSimplex:
    """The two-phase reference solver's own cases: equality rows and
    infeasible systems, which the packing solver does not accept."""

    def test_equality_constraint(self):
        value, x = reference.maximize([F(1), F(0)], a_eq=[[F(1), F(1)]], b_eq=[F(1)])
        assert value == 1 and x == [F(1), F(0)]

    def test_infeasible(self):
        with pytest.raises(reference.LpInfeasible):
            reference.maximize([F(1)], [[F(1)], [F(-1)]], [F(1), F(-2)])


class TestChoreShare:
    def test_adjacent_pair_binds(self):
        assert chore_share([5, 4, 3, 2, 1], F(3, 10)) == 5

    def test_gap_instance_value(self):
        assert chore_share([F(3, 7)] * 7, F(1, 3)) == 1

    def test_all_zero(self):
        assert chore_share([0, 0, 0], F(1, 2)) == 0

    def test_integral_reciprocal_uses_literal_pair(self):
        # 1/b integral: the pair is taken at positions 1/b and 1/b + 1.
        assert chore_share([1, 1, 1], F(1, 2)) == 2

    def test_missing_indices_contribute_zero(self):
        assert chore_share([4], F(1, 3)) == 4

    @pytest.mark.parametrize("b", [0, F(-1, 2), F(3, 2)])
    def test_entitlement_range(self, b):
        with pytest.raises(ValueError):
            chore_share([1], b)

    def test_dominates_proportional_and_top(self):
        row = [F(7, 3), F(5, 4), F(1, 9)]
        cs = chore_share(row, F(2, 5))
        assert cs >= proportional_share(row, F(2, 5))
        assert cs >= max(row)


# Ints beside Fractions over pairwise coprime denominators, primes near 10**6
# among them, so a row's common denominator can reach about 10**18.
PRIMES = (2, 3, 5, 7, 999983, 1000003, 1000033)
MIXED_COST = st.one_of(
    st.integers(0, 3),
    st.sampled_from(PRIMES).flatmap(lambda p: st.integers(0, 3 * p).map(lambda k: F(k, p))))


class TestMmsOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(MIXED_COST, min_size=1, max_size=7), st.integers(2, 3))
    def test_matches_brute_force_partitions(self, row, n):
        got = mms_oracle(row, n)
        want = min(max(sum((c for c, who in zip(row, owners) if who == k), F(0))
                       for k in range(n))
                   for owners in itertools.product(range(n), repeat=len(row)))
        assert type(got) is F and got == want

    def test_two_agents(self):
        assert mms_oracle([3, 2, 2, 1], 2) == 4

    def test_gap_instance(self):
        assert mms_oracle([F(3, 7)] * 7, 3) == F(9, 7)

    def test_single_agent_gets_everything(self):
        assert mms_oracle([3, 2, 2, 1], 1) == 8

    def test_more_bundles_than_items(self):
        assert mms_oracle([5, 1], 3) == 5

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            mms_oracle([1] * 13, 2)
        assert mms_oracle([1] * 13, 2, force=True) == 7

    def test_leaves_no_cyclic_garbage(self):
        # The search must not keep itself alive through a reference cycle,
        # which only the full collector could free.
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                assert mms_oracle([F(3, 7)] * 7, 3) == F(9, 7)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestApsOracle:
    def test_single_chore(self):
        assert aps_oracle([1], F(1, 2)) == 1

    def test_two_unit_chores(self):
        # Some chore is always priced at >= 1/2, so a singleton is affordable.
        assert aps_oracle([1, 1], F(1, 2)) == 1

    def test_gap_instance(self):
        assert aps_oracle([F(3, 7)] * 7, F(1, 3)) == F(9, 7)

    def test_zero_items(self):
        assert aps_oracle([], F(1, 2)) == 0
        assert aps_oracle([0, 0], F(1, 2)) == 0

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            aps_oracle([1] * 13, F(1, 2))

    def test_unequal_budget(self):
        # Budget 2/3 forces spending on two of the three unit chores.
        assert aps_oracle([1, 1, 1], F(2, 3)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.lists(st.one_of(st.sampled_from([F(0), F(1), F(1), F(2), F(3)]),
                                        st.fractions(0, 3, max_denominator=4)),
                              min_size=1, max_size=10),
                     st.lists(MIXED_COST, min_size=1, max_size=6)),
           st.one_of(st.integers(1, 6).map(lambda n: F(1, n)),
                     st.fractions(F(1, 12), 1, max_denominator=12)))
    def test_matches_the_dual_on_the_reference_solver(self, row, b):
        # Tied costs come from the sampled values, zeros from both strategies;
        # mixed rows put coprime denominators up to 10**6 in one row.
        got = aps_oracle(row, b)
        assert type(got) is F and got == _reference_aps(row, b)


def _reference_aps(costs, b):
    """The anyprice share by the earlier dual: per candidate z, solve
    min b + mu s.t. sum_r y_r = 1, sum_r t_rg y_r + k_g mu >= 0, y >= 0 (mu
    free, split in two) on the two-phase reference solver; z is feasible iff
    the optimum stays below b."""
    classes = {}
    for c in costs:
        classes[F(c)] = classes.get(F(c), 0) + 1
    values = sorted(classes, reverse=True)
    sizes = [classes[v] for v in values]
    ngroups = len(values)
    patterns = [(t, sum((v * k for v, k in zip(values, t)), F(0)))
                for t in itertools.product(*(range(k + 1) for k in sizes))]
    candidates = sorted({cost for _, cost in patterns})

    def feasible(z):
        rows = [t for t, cost in patterns
                if cost < z and not any(t[g] < sizes[g] and cost + values[g] < z
                                        for g in range(ngroups))]
        nr = len(rows)
        objective = [F(0)] * nr + [F(-1), F(1)]
        a_ub = [[F(-rows[r][g]) for r in range(nr)] + [F(-sizes[g]), F(sizes[g])]
                for g in range(ngroups)]
        value, _ = reference.maximize(objective, a_ub, [F(0)] * ngroups,
                                      [[F(1)] * nr + [F(0), F(0)]], [F(1)])
        return value < b

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(candidates[mid]):
            lo = mid
        else:
            hi = mid - 1
    return candidates[lo]


def _identical_rows(max_m, max_cost):
    for m in range(1, max_m + 1):
        for row in itertools.combinations_with_replacement(range(max_cost, -1, -1), m):
            yield row


class TestShareChain:
    @pytest.mark.parametrize("n", [2, 3])
    def test_chain_on_small_integer_rows(self, n):
        for row in _identical_rows(5, 3):
            mms = mms_oracle(row, n)
            aps = aps_oracle(row, F(1, n))
            cs = chore_share(row, F(1, n))
            assert mms >= aps >= cs, (row, n, mms, aps, cs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3),
           st.lists(st.fractions(0, 4, max_denominator=6), min_size=1, max_size=6))
    def test_chain_on_random_rational_rows(self, n, row):
        mms = mms_oracle(row, n)
        aps = aps_oracle(row, F(1, n))
        assert mms >= aps >= chore_share(row, F(1, n))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(0, 5, max_denominator=8), min_size=1, max_size=7),
           st.fractions(F(1, 6), 1, max_denominator=6),
           st.fractions(F(1, 8), 4, max_denominator=8))
    def test_scaling_covariance(self, row, b, lam):
        if lam == 0:
            lam = F(1)
        scaled = [lam * c for c in row]
        assert chore_share(scaled, b) == lam * chore_share(row, b)
        assert proportional_share(scaled, b) == lam * proportional_share(row, b)
        if len(row) <= 5:
            assert mms_oracle(scaled, 2) == lam * mms_oracle(row, 2)
            assert aps_oracle(scaled, b) == lam * aps_oracle(row, b)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(0, 5, max_denominator=7), min_size=1, max_size=6),
           st.fractions(F(1, 5), 1, max_denominator=5), st.randoms())
    def test_permutation_invariance(self, row, b, rng):
        shuffled = row[:]
        rng.shuffle(shuffled)
        assert chore_share(shuffled, b) == chore_share(row, b)
        assert aps_oracle(shuffled, b) == aps_oracle(row, b)


class TestShareReport:
    @staticmethod
    def _per_agent(inst):
        rows = [(inst.row(i), inst.entitlements[i - 1]) for i in range(1, inst.n + 1)]
        equal = len(set(inst.entitlements)) == 1  # MMS is an equal-entitlement share
        return ShareReport(tuple(proportional_share(r, b) for r, b in rows),
                           tuple(chore_share(r, b) for r, b in rows),
                           tuple(mms_oracle(r, inst.n) if equal else None for r, _ in rows),
                           tuple(aps_oracle(r, b) for r, b in rows))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 3),) * 3,
                            (F(1, 4), F(1, 2), F(1, 4)), (F(1, 6), F(1, 3), F(1, 2)),
                            (F(1, 4),) * 4, (F(1, 6), F(1, 3), F(1, 6), F(1, 3))])
           .flatmap(lambda ents: st.tuples(
               st.just(ents),
               st.lists(st.permutations([0, 1, 1, 2, 4]), min_size=len(ents),
                        max_size=len(ents)),
               st.lists(st.integers(1, 2), min_size=len(ents), max_size=len(ents)))))
    def test_matches_per_agent_oracles(self, drawn):
        # Rows are permutations of two multisets, so agents often share a
        # sorted row (and an entitlement) without sharing the row itself.
        ents, perms, scales = drawn
        rows = tuple(tuple(F(c * w) for c in perm) for perm, w in zip(perms, scales))
        inst = ChoreInstance(ents, rows)
        assert share_report(inst) == self._per_agent(inst)

    def test_oracles_run_once_per_distinct_row_and_entitlement(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(shares, name)

            def oracle(row, *args, **kwargs):
                calls.append(name)
                return real(row, *args, **kwargs)
            return oracle

        for name in ("aps_oracle", "mms_oracle"):
            monkeypatch.setattr(shares, name, counted(name))
        row = (F(3), F(1), F(2), F(2))
        # Agents 1 and 2 share a sorted row and an entitlement; agent 3 has
        # the row at another entitlement, agent 4 another row. Unequal
        # entitlements have no maximin share.
        inst = ChoreInstance((F(1, 6), F(1, 6), F(1, 3), F(1, 3)),
                             (row, row[::-1], row, (F(5),) * 4))
        report = share_report(inst)
        assert sorted(calls) == ["aps_oracle"] * 3
        assert report.anyprice[:2] == (aps_oracle(row, F(1, 6)),) * 2
        assert report.maximin == (None,) * 4
        # At equal entitlements agents 1 to 3 share a sorted row.
        calls.clear()
        report = share_report(ChoreInstance((F(1, 4),) * 4, (row, row[::-1], row, (F(5),) * 4)))
        assert sorted(calls) == ["aps_oracle"] * 2 + ["mms_oracle"] * 2
        assert report.maximin[:3] == (mms_oracle(row, 4),) * 3
