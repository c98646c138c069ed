import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from chorepick.entitle import (FractionalAllocation, ScalingFunction, build_fractional,
                               half_plus_x, round_to_order, verify_guarantee)
from chorepick.fairness import ef_ra_audit, preliminary_stage
from chorepick.model import (CELL_LIMIT, Allocation, ChoreInstance, InstanceError,
                             PickingOrder, PickingSequence, SizeGuardError, _exact_costs,
                             _integer_row, guard_cells, load_instance, parse_rational, positions,
                             to_sequence)
from chorepick.ridge import best_ratio_search, ridge_periods
from chorepick.shares import aps_oracle, chore_share, proportional_share
from chorepick.simulate import greedy_play, guaranteed_disvalue, worst_case_bundle


def make(ents, costs):
    return ChoreInstance(tuple(F(e) for e in ents),
                         tuple(tuple(F(c) for c in row) for row in costs))


class TestParsing:
    def test_rational_strings(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational(3) == F(3)

    @pytest.mark.parametrize("bad", ["x", "1/0", 1.5, None, True])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(InstanceError):
            parse_rational(bad)

    def test_exponents_up_to_the_limit(self):
        assert parse_rational("1e400") == 10 ** 400
        assert parse_rational("1e-400") == F(1, 10 ** 400)
        assert parse_rational("-2.5E+4300") == -25 * 10 ** 4299
        for bad in ("1e4301", "1E-4301", " 3.5e30000000 ", "1e" + "9" * 5000):
            with pytest.raises(InstanceError, match="not a rational"):
                parse_rational(bad)


#: Every rational parameter of the exported API, as a call on one value.
_SEQ = PickingSequence((1, 2))
RATIONAL_PARAMETERS = {
    "proportional_share b": lambda x: proportional_share([1], x),
    "chore_share b": lambda x: chore_share([1], x),
    "aps_oracle b": lambda x: aps_oracle([1], x),
    "worst_case_bundle budget": lambda x: worst_case_bundle([1], 1, 1, x),
    "ScalingFunction t": lambda x: ScalingFunction(x),
    "ScalingFunction argument": lambda x: ScalingFunction()(x),
    "half_plus_x argument": half_plus_x,
    "build_fractional entitlements": lambda x: build_fractional([x], half_plus_x, 2),
    "round_to_order entitlements": lambda x: round_to_order(
        FractionalAllocation(((F(1),),), (None,)), [x]),
    "verify_guarantee entitlements": lambda x: verify_guarantee([x], trials=0, m=1),
    "ef_ra_audit entitlements": lambda x: ef_ra_audit(_SEQ, "prsd", [[1, 1]] * 2, [x, F(1, 2)]),
    "preliminary_stage entitlements": lambda x: preliminary_stage(
        "prsd", _SEQ, [[1, 1]] * 2, [x, F(1, 2)]),
    "ridge_periods rho": lambda x: ridge_periods(4, x),
    "best_ratio_search tol": lambda x: best_ratio_search(4, tol=x),
}


class TestParameterBoundary:
    @pytest.mark.parametrize("bad", [0.1, True])
    @pytest.mark.parametrize("parameter", sorted(RATIONAL_PARAMETERS))
    def test_floats_and_bools_refused(self, parameter, bad):
        # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True)
        # is 1: either would give an exact answer to a question nobody asked.
        with pytest.raises(InstanceError, match="not a rational"):
            RATIONAL_PARAMETERS[parameter](bad)

    def test_exact_answers_at_one_tenth(self):
        # A float 0.1 lies above 1/10, so floor(1/b) would drop from 10 to 9.
        assert chore_share(list(range(20, 0, -1)), "1/10") == 21
        assert aps_oracle([5] * 10 + [1], "1/10") == 6


def _reference_parse_rational(value):
    """parse_rational's string branch before its "p" and "p/q" fast path."""
    try:
        exponent = int(value.lower().rpartition("e")[2]) if "e" in value or "E" in value else 0
        if abs(exponent) <= 4300:
            return F(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"not a rational: {value!r}") from exc
    raise InstanceError(f"not a rational: {value!r} (exponents beyond 4300 are refused)")


def _outcome(parse, value):
    try:
        return parse(value)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestParseFastPath:
    # ASCII digits, the characters Fraction's own syntax uses, and digits
    # outside ASCII ("²" passes str.isdigit, int() refuses it).
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text("0123456789/+-.e_ ²٣१", max_size=12),
                     st.from_regex(r"\A[0-9]{1,8}(/[0-9]{1,8})?\Z")))
    @example("1" * 4301)
    @example("2/" + "1" * 4301)
    @example("1/0")
    @example("0/0")
    @example("²")
    @example("1/²")
    def test_matches_the_reference(self, text):
        got, want = _outcome(parse_rational, text), _outcome(_reference_parse_rational, text)
        assert type(got) is type(want) and got == want


class TestCellGuard:
    @pytest.mark.parametrize("n,m", [(CELL_LIMIT + 1, 0), (CELL_LIMIT // 2 + 1, 2)])
    def test_refuses_past_the_limit(self, n, m):
        # An empty dimension counts as one: n agents with no chores still cost n.
        with pytest.raises(SizeGuardError, match="guard"):
            guard_cells(n, m, "the table")

    @pytest.mark.parametrize("n,m", [(CELL_LIMIT, 0), (CELL_LIMIT, 1), (1, CELL_LIMIT)])
    def test_allows_up_to_the_limit(self, n, m):
        guard_cells(n, m, "the table")


class TestInstance:
    def test_valid_symmetric_instance(self):
        inst = make(["1/2", "1/2"], [[3, 2, 1], [3, 2, 1]])
        assert inst.n == 2 and inst.m == 3

    def test_entitlement_sum_diagnostic(self):
        with pytest.raises(InstanceError, match="entitlements sum to 5/6"):
            make(["1/2", "1/3"], [[1, 1], [1, 1]])

    def test_unequal_entitlements_accepted(self):
        inst = make(["1/8", "3/8", "1/2"], [[1] * 4] * 3)
        assert inst.entitlements == (F(1, 8), F(3, 8), F(1, 2))

    def test_negative_cost_diagnostic(self):
        with pytest.raises(InstanceError, match="chore 2 for agent 1 is negative"):
            make(["1"], [[1, -1]])

    @pytest.mark.parametrize("cost,entitlement", [(0.1, 1.0), (True, True)])
    def test_floats_and_bools_refused(self, cost, entitlement):
        # Floats are not exact and a bool is no number: to_dict would write
        # "0.1" (which reads back as 1/10) and "True" (which the file path refuses).
        with pytest.raises(InstanceError, match=rf"chore 2 for agent 1 is not a rational: {cost!r}"):
            ChoreInstance((F(1),), ((F(1), cost, 3),))
        with pytest.raises(InstanceError, match=rf"entitlement of agent 1 is not a rational: {entitlement!r}"):
            ChoreInstance((entitlement,), ((1,),))

    def test_ragged_rows_diagnostic(self):
        with pytest.raises(InstanceError, match="agent 2 has 1 costs"):
            make(["1/2", "1/2"], [[1, 2], [1]])

    def test_from_dict_schema_errors(self):
        with pytest.raises(InstanceError, match="missing field 'costs'"):
            ChoreInstance.from_dict({"agents": 1, "chores": 1, "entitlements": ["1"]})
        with pytest.raises(InstanceError, match="cost row of agent 1"):
            ChoreInstance.from_dict({"agents": 1, "chores": 2,
                                     "entitlements": ["1"], "costs": [[1]]})


# Cost entries as an instance file writes them: JSON ints, digit strings (some
# with leading zeros), "p/q" and decimals.
COST_ENTRIES = st.one_of(
    st.integers(0, 10 ** 20),
    st.integers(0, 10 ** 20).map(str),
    st.integers(0, 999).map(lambda k: f"00{k}"),
    st.fractions(0, 50, max_denominator=12).map(lambda c: f"{c.numerator}/{c.denominator}"),
    st.tuples(st.integers(0, 99), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]:03}"),
    st.sampled_from(["7", "007", "3/4", "0.25"]),
)


class TestLoader:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), st.data())
    def test_plain_integers_load_as_ints(self, n, m, data):
        rows = [data.draw(st.lists(COST_ENTRIES, min_size=m, max_size=m)) for _ in range(n)]
        doc = json.loads(json.dumps({"agents": n, "chores": m, "entitlements": [f"1/{n}"] * n,
                                     "costs": rows}))
        inst = ChoreInstance.from_dict(doc)
        for row, loaded in zip(rows, inst.costs):
            for entry, c in zip(row, loaded):
                plain = type(entry) is int or entry.isdigit()
                assert (type(c) is int) == plain and type(c) in (int, F), (entry, c)
                assert c == parse_rational(entry)

    @pytest.mark.parametrize("entry,message", [
        ("-3", "cost of chore 2 for agent 1 is negative (-3)"),
        (True, "not a rational: True"),
        (1.5, "not a rational: 1.5 (floats are rejected; pass a string)"),
        ("1" * 5000, f"not a rational: '{'1' * 5000}'"),
        ("²", "not a rational: '²'"),
    ])
    def test_refusals(self, entry, message):
        doc = {"agents": 1, "chores": 2, "entitlements": ["1"], "costs": [["1", entry]]}
        with pytest.raises(InstanceError) as refused:
            ChoreInstance.from_dict(doc)
        assert type(refused.value) is InstanceError and str(refused.value) == message


class TestSerialization:
    def test_bad_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InstanceError, match="invalid JSON"):
            load_instance(path)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 5), st.data())
    def test_round_trip_preserves_exact_rationals(self, n, m, data):
        weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        total = sum(weights)
        ents = [F(w, total) for w in weights]
        ents[-1] = 1 - sum(ents[:-1])
        costs = [[F(data.draw(st.integers(0, 50)), data.draw(st.integers(1, 9)))
                  for _ in range(m)] for _ in range(n)]
        inst = make(ents, costs)
        assert ChoreInstance.from_dict(json.loads(json.dumps(inst.to_dict()))) == inst


class TestOrderSequenceDuality:
    def test_reversal(self):
        assert to_sequence(PickingOrder((1, 2, 2))).rounds == (2, 2, 1)

    def test_palindrome(self):
        assert to_sequence(PickingOrder((1, 2, 2, 1))).rounds == (1, 2, 2, 1)

    def test_periodic_expand_then_reverse(self):
        order = PickingOrder((1, 2, 2, 1), (2, 2, 1))
        assert order.expand(7) == (1, 2, 2, 1, 2, 2, 1)
        assert to_sequence(order, 7).rounds == tuple(reversed(order.expand(7)))

    def test_finite_order_cannot_grow(self):
        with pytest.raises(InstanceError):
            PickingOrder((1, 2)).expand(3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=8),
           st.lists(st.integers(1, 3), max_size=4), st.integers(0, 20), st.integers(0, 20))
    def test_expansions_agree_on_common_prefix(self, prefix, cycle, m1, m2):
        order = PickingOrder(tuple(prefix), tuple(cycle))
        if not cycle:
            m1, m2 = min(m1, len(prefix)), min(m2, len(prefix))
        k = min(m1, m2)
        assert order.expand(m1)[:k] == order.expand(m2)[:k]


def _reference_positions(agents, n):
    """One scan per agent, as the per-label lookup used to do."""
    return tuple(tuple(r for r, who in enumerate(agents, start=1) if who == agent)
                 for agent in range(1, n + 1))


_agent_lists = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), max_size=30)))


class TestPositions:
    @settings(max_examples=200, deadline=None)
    @given(_agent_lists)
    def test_partitions_rounds_in_ascending_order(self, case):
        n, agents = case
        held = positions(agents, n)
        assert len(held) == n
        assert sorted(r for rounds in held for r in rounds) == list(range(1, len(agents) + 1))
        assert all(list(rounds) == sorted(rounds) for rounds in held)
        assert held == _reference_positions(agents, n)
        assert PickingSequence(tuple(agents)).positions(n) == held
        assert PickingOrder(tuple(agents)).positions(len(agents), n) == held

    def test_periodic_order_view(self):
        order = PickingOrder((1, 2, 2, 1), (2, 2, 1))
        assert order.positions(7, 3) == ((1, 4, 7), (2, 3, 5, 6), ())

    @settings(max_examples=100, deadline=None)
    @given(_agent_lists, st.data())
    def test_agent_outside_range_raises(self, case, data):
        n, agents = case
        bad = data.draw(st.one_of(st.integers(n + 1, n + 5), st.integers(-3, 0)))
        agents.insert(data.draw(st.integers(0, len(agents))), bad)
        with pytest.raises(InstanceError, match=f"agent {bad} is out of range"):
            positions(agents, n)


class TestAllocation:
    def test_partition_enforced(self):
        with pytest.raises(InstanceError, match="assigned twice"):
            Allocation.from_lists([[1, 2], [2, 3]])

    def test_bundles_accessible(self):
        alloc = Allocation.from_lists([[1, 3], [2]])
        assert alloc.bundle(1) == {1, 3}
        assert alloc.bundles == (frozenset({1, 3}), frozenset({2}))


def _exhaustive_orders(n, m):
    def build(so_far):
        if len(so_far) == m:
            yield tuple(so_far)
            return
        for who in range(1, n + 1):
            yield from build(so_far + [who])
    yield from build([])


class TestGreedyCorrespondence:
    """With one shared strictly-decreasing cost row, greedy play of the
    mirrored sequence hands every agent exactly her order positions."""

    @pytest.mark.parametrize("n,m", [(2, 8), (3, 6)])
    def test_exhaustive(self, n, m):
        row = tuple(F(m - j) for j in range(m))
        inst = make([F(1, n)] * n, [row] * n)
        for assignment in _exhaustive_orders(n, m):
            order = PickingOrder(assignment)
            played = greedy_play(to_sequence(order, m), inst)
            for agent in range(1, n + 1):
                expected = {r for r, who in enumerate(assignment, start=1) if who == agent}
                assert played.bundle(agent) == expected

    def test_with_cost_ties_disvalue_matches(self):
        # Equal costs can swap chore identities but never bundle disvalue.
        row = (F(2), F(2), F(1))
        inst = make([F(1, 2)] * 2, [row] * 2)
        order = PickingOrder((1, 2, 2))
        played = greedy_play(to_sequence(order, 3), inst)
        assert inst.bundle_cost(1, played.bundle(1)) == 2
        assert inst.bundle_cost(2, played.bundle(2)) == 3


# The references the promotion rule must reproduce: the shares and
# guaranteed_disvalue promoted every cost to a Fraction before `_exact_costs`.
# bundle_cost summed onto Fraction(0); its rows hold only ints and Fractions.
def _reference_proportional_share(costs, b):
    return F(b) * sum((F(c) for c in costs), F(0))


def _reference_chore_share(costs, b):
    row = sorted((F(c) for c in costs), reverse=True)
    k = (1 / F(b)).__floor__()

    def at(index):
        return row[index - 1] if 1 <= index <= len(row) else F(0)
    return max(F(b) * sum(row, F(0)), at(1), at(k) + at(k + 1))


def _reference_guaranteed_disvalue(costs, rounds):
    ranked = sorted(F(c) for c in costs)
    return sum((ranked[r - 1] for r in rounds), F(0))


def _reference_bundle_cost(row, chores):
    return sum((F(c) for c in (row[j - 1] for j in chores)), F(0))


INT_COST = st.integers(0, 10 ** 6)
FRACTION_COST = st.fractions(0, 50, max_denominator=12)
COST_KINDS = {
    "int": INT_COST,
    "fraction": FRACTION_COST,
    "mixed": st.one_of(INT_COST, FRACTION_COST),
    "bool": st.one_of(st.booleans(), INT_COST),
    "string": FRACTION_COST.map(str),
    "float": st.floats(0, 100, allow_nan=False, allow_infinity=False),
}


@st.composite
def cost_rows(draw, kinds=tuple(COST_KINDS)):
    kind = draw(st.sampled_from(kinds))
    return draw(st.lists(COST_KINDS[kind], max_size=12))


class TestExactCosts:
    """Ints and Fractions keep their type through sorts and sums; every
    function still returns one Fraction of the value it always had."""

    def test_promotion_rule(self):
        third = F(1, 3)
        out = _exact_costs([3, third, True, "2/7", 0.5])
        assert out == [3, third, 1, F(2, 7), F(1, 2)]
        assert [type(c) for c in out] == [int, F, F, F, F]
        assert out[1] is third

    @settings(max_examples=200, deadline=None)
    @given(cost_rows())
    def test_integer_row(self, row):
        scale, ints = _integer_row(row)
        exact = [F(c) for c in row]
        assert [type(c) for c in ints] == [int] * len(row)
        assert ints == [c * scale for c in exact]
        assert scale == math.lcm(*(c.denominator for c in exact))

    @settings(max_examples=200, deadline=None)
    @given(cost_rows(), st.fractions(F(1, 20), 1, max_denominator=20).filter(bool))
    def test_shares_match_the_reference(self, row, b):
        for got, want in ((chore_share(row, b), _reference_chore_share(row, b)),
                          (proportional_share(row, b), _reference_proportional_share(row, b))):
            assert type(got) is F and got == want

    @settings(max_examples=200, deadline=None)
    @given(cost_rows().filter(bool), st.data())
    def test_guaranteed_disvalue_matches_the_reference(self, row, data):
        rounds = data.draw(st.sets(st.integers(1, len(row))))
        got = guaranteed_disvalue(row, rounds)
        assert type(got) is F and got == _reference_guaranteed_disvalue(row, rounds)

    # A ChoreInstance holds only int and Fraction costs.
    @settings(max_examples=200, deadline=None)
    @given(cost_rows(("int", "fraction", "mixed")), st.data())
    def test_bundle_cost_matches_the_reference(self, row, data):
        inst = ChoreInstance((F(1),), (tuple(row),))
        chores = data.draw(st.sets(st.integers(1, len(row)))) if row else set()
        got = inst.bundle_cost(1, chores)
        assert type(got) is F and got == _reference_bundle_cost(row, chores)
