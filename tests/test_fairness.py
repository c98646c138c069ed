import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chorepick.entitle import round_to_order
from chorepick.fairness import (STAGE_MODES, ef_ra_audit, envy_tension_example,
                                label_guarantees, preliminary_stage, suffix_envy_condition,
                                tension_instance)
from chorepick.model import ChoreInstance, PickingSequence, to_sequence
from chorepick.shares import aps_oracle, proportional_share
from chorepick.simulate import greedy_play, guaranteed_disvalue


class TestSuffixCondition:
    def test_round_robin_earlier_picker_never_envies(self):
        # Picker 2 closes every suffix, so picker 1 is safe; the converse
        # fails on the final one-round suffix (2 picks there, 1 does not).
        seq = PickingSequence((1, 2, 1, 2))
        assert suffix_envy_condition(seq, 1, 2).holds
        assert not suffix_envy_condition(seq, 2, 1).holds

    def test_front_loaded_picker_envies(self):
        res = suffix_envy_condition(PickingSequence((1, 1, 2)), 1, 2)
        assert not res.holds
        assert res.witness == (F(1), F(1), F(1))
        assert guaranteed_disvalue(res.witness, (1, 2)) == 2
        assert guaranteed_disvalue(res.witness, (3,)) == 1

    def test_same_picker_rejected(self):
        with pytest.raises(ValueError):
            suffix_envy_condition(PickingSequence((1, 2)), 1, 1)

    @pytest.mark.parametrize("n,max_len", [(2, 8), (3, 6)])
    def test_matches_step_valuation_brute_force(self, n, max_len):
        for m in range(1, max_len + 1):
            for rounds in itertools.product(range(1, n + 1), repeat=m):
                seq = PickingSequence(rounds)
                held = seq.positions(n)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        envy_exists = False
                        for ones in range(m + 1):
                            row = [0] * (m - ones) + [1] * ones
                            gi = guaranteed_disvalue(row, held[i - 1])
                            gj = guaranteed_disvalue(row, held[j - 1])
                            if gi > gj:
                                envy_exists = True
                                break
                        assert suffix_envy_condition(seq, i, j).holds == (not envy_exists)


def _reference_stage(mode, seq, rows, entitlements, seed):
    """Greedy label pick that rebuilds an agent's label guarantees at each turn."""
    n = len(rows)
    rng = random.Random(seed)
    if mode == "label_pick":
        order = list(range(1, n + 1))
        rng.shuffle(order)
    else:
        order = sorted(range(1, n + 1), key=lambda a: (F(entitlements[a - 1]), rng.random()))
    available = set(range(1, n + 1))
    assignment = {}
    for agent in order:
        guarantees = label_guarantees(seq, rows[agent - 1], n)
        label = min(available, key=lambda lab: (guarantees[lab], lab))
        assignment[agent] = label
        available.remove(label)
    return assignment


@st.composite
def _stage_cases(draw):
    """(seq, rows, entitlements, seed) with few distinct costs and
    entitlements, so that guarantee and responsibility ties occur."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 10))
    k = draw(st.sampled_from([1, 3, 9]))
    rows = tuple(tuple(F(c) for c in draw(st.lists(st.integers(0, k), min_size=m, max_size=m)))
                 for _ in range(n))
    seq = PickingSequence(tuple(draw(st.lists(st.integers(1, n), min_size=m, max_size=m))))
    ents = [draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 2)])) for _ in range(n)]
    return seq, rows, ents, draw(st.integers(0, 10 ** 6))


class TestPreliminaryStage:
    ROWS = ((F(6), F(4), F(4)), (F(6), F(2), F(2)))
    SEQ = PickingSequence((1, 1, 2))

    def test_label_pick_is_order_independent_here(self):
        for seed in range(6):
            stage = preliminary_stage("label_pick", self.SEQ, self.ROWS,
                                      [F(1, 2), F(1, 2)], seed=seed)
            assert stage == {1: 2, 2: 1}

    def test_label_pick_expost_disvalues(self):
        stage = preliminary_stage("label_pick", self.SEQ, self.ROWS,
                                  [F(1, 2), F(1, 2)], seed=0)
        inst = ChoreInstance((F(1, 2), F(1, 2)), self.ROWS)
        label_to_agent = {lab: agent for agent, lab in stage.items()}
        rounds = tuple(label_to_agent[lab] for lab in self.SEQ.rounds)
        played = greedy_play(PickingSequence(rounds), inst)
        assert inst.bundle_cost(1, played.bundle(1)) == 6
        assert inst.bundle_cost(2, played.bundle(2)) == 4

    def test_prsd_sorts_strict_responsibilities_deterministically(self):
        # Strictly ascending responsibilities leave nothing to shuffle, so
        # every seed produces the same pick order and hence the same labels.
        seq = PickingSequence((1, 2, 3))
        rows = ((F(3), F(2), F(1)),) * 3
        b = [F(1, 5), F(3, 10), F(1, 2)]
        stages = {tuple(sorted(preliminary_stage("prsd", seq, rows, b, seed=s).items()))
                  for s in range(8)}
        assert stages == {((1, 1), (2, 2), (3, 3))}

    def test_random_bijection_is_seed_deterministic(self):
        a = preliminary_stage("random_bijection", self.SEQ, self.ROWS,
                              [F(1, 2), F(1, 2)], seed=42)
        b = preliminary_stage("random_bijection", self.SEQ, self.ROWS,
                              [F(1, 2), F(1, 2)], seed=42)
        assert a == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            preliminary_stage("nope", self.SEQ, self.ROWS, [F(1, 2), F(1, 2)])

    @settings(max_examples=300, deadline=None)
    @given(_stage_cases(), st.sampled_from(["label_pick", "prsd"]))
    def test_matches_per_turn_reference(self, case, mode):
        seq, rows, ents, seed = case
        assert (preliminary_stage(mode, seq, rows, ents, seed)
                == _reference_stage(mode, seq, rows, ents, seed))


class TestAudit:
    def test_mean_guarantee_identity_random(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            rows = tuple(tuple(F(rng.randint(0, 9)) for _ in range(m)) for _ in range(n))
            seq = PickingSequence(tuple(rng.randint(1, n) for _ in range(m)))
            report = ef_ra_audit(seq, "random_bijection", rows, [F(1, n)] * n)
            assert report.mean_guarantee_is_proportional

    def test_label_pick_dominates_uniform_exhaustively(self):
        rng = random.Random(4)
        for _ in range(8):
            n = 3
            m = rng.randint(3, 7)
            rows = tuple(tuple(F(rng.randint(0, 9)) for _ in range(m)) for _ in range(n))
            seq = PickingSequence(tuple(rng.randint(1, n) for _ in range(m)))
            report = ef_ra_audit(seq, "label_pick", rows, [F(1, n)] * n)
            assert report.dominates_uniform

    def test_heavy_first_label_example_beats_proportional(self):
        # n agents, n+1 chores: n-1 chores of disvalue 3, then a final pair
        # worth (2,2) to most agents but (1,1) to one; the first label picks
        # twice. Greedy label picking leaves everyone strictly under the
        # proportional share after actual play.
        for n in (3, 4):
            m = n + 1
            common = tuple([F(3)] * (n - 1) + [F(2), F(2)])
            special = tuple([F(3)] * (n - 1) + [F(1), F(1)])
            rows = tuple([common] * (n - 1) + [special])
            seq = PickingSequence(tuple([1, 1] + list(range(2, n + 1))))
            inst = ChoreInstance(tuple(F(1, n) for _ in range(n)), rows)
            for seed in range(6):
                stage = preliminary_stage("label_pick", seq, rows, inst.entitlements, seed)
                label_to_agent = {lab: agent for agent, lab in stage.items()}
                rounds = tuple(label_to_agent[lab] for lab in seq.rounds)
                played = greedy_play(PickingSequence(rounds), inst)
                for agent in range(1, n + 1):
                    held = inst.bundle_cost(agent, played.bundle(agent))
                    assert held < proportional_share(inst.row(agent), inst.entitlements[agent - 1])

    def test_prsd_no_upward_envy(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            rows = tuple(tuple(F(rng.randint(0, 9)) for _ in range(m)) for _ in range(n))
            seq = PickingSequence(tuple(rng.randint(1, n) for _ in range(m)))
            weights = [rng.randint(1, 4) for _ in range(n)]
            b = [F(w, sum(weights)) for w in weights]
            report = ef_ra_audit(seq, "prsd", rows, b)
            assert report.no_upward_envy

    @pytest.mark.parametrize("rounds", [(1, 2), (1, 2, 1, 2)])
    def test_sequence_must_have_one_round_per_chore(self, rounds):
        # Too few rounds used to be audited as if the sequence were whole.
        rows, ents = ((F(3), F(2), F(1)),) * 2, [F(1, 2)] * 2
        message = f"sequence covers {len(rounds)} rounds, instance has 3 chores"
        with pytest.raises(ValueError, match=message):
            ef_ra_audit(PickingSequence(rounds), "prsd", rows, ents)
        for mode in STAGE_MODES:
            with pytest.raises(ValueError, match=message):
                preliminary_stage(mode, PickingSequence(rounds), rows, ents)


class TestTensionExample:
    def test_four_agent_numbers(self):
        ex = envy_tension_example(4)
        assert (ex.k, ex.m) == (2, 9)
        assert ex.entitlements == (F(3, 9), F(2, 9), F(2, 9), F(2, 9))
        assert ex.heavy_costs == (F(2),) + (F(1),) * 8
        assert ex.ratio_bound == 1

    def test_five_agent_anyprice_confirmed_by_oracle(self):
        ex = envy_tension_example(5)
        aps = aps_oracle(ex.heavy_costs, ex.entitlements[0], force=True)
        assert aps <= ex.anyprice_upper == 5

    def test_degenerate_below_four(self):
        with pytest.raises(ValueError):
            envy_tension_example(3)

    def test_suffix_analysis_against_a_sequence(self):
        ex = envy_tension_example(4)
        # Keeping the heavy picker at least as frequent in every suffix
        # forces her into the last round and k more late rounds; her
        # guarantee then reaches 2k against an anyprice share of k+2.
        rounds = [2, 3, 4, 1, 2, 3, 4, 1, 1]
        ex2 = envy_tension_example(4, PickingSequence(tuple(rounds)))
        assert all(ex2.suffix_holds_toward_heavy.values())
        assert ex2.heavy_guarantee == 2 * ex.k
        assert ex2.heavy_guarantee / ex2.anyprice_upper == ex.ratio_bound

    def test_instance_view(self):
        inst = tension_instance(envy_tension_example(4))
        assert inst.n == 4 and inst.m == 9 and inst.is_ido


class TestRoundingRecipeEnvy:
    def test_proportional_rounding_protects_lower_responsibility(self):
        # Rounding the plain proportional allocation with the
        # highest-responsibility tie-break yields sequences where no agent
        # envies a weakly more responsible one, under any costs.
        from chorepick.entitle import FractionalAllocation
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 5)
            weights = sorted(rng.randint(1, 6) for _ in range(n))
            b = [F(w, sum(weights)) for w in weights]
            m = rng.randint(n, 14)
            shares = tuple(tuple(b[i] for _ in range(m)) for i in range(n))
            alloc = FractionalAllocation(shares=shares, first_fractional=(1,) * n)
            order = round_to_order(alloc, b)
            seq = to_sequence(order, m)
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    if p == q:
                        continue
                    # Strictly lower responsibility is always protected; at
                    # equal responsibility the tie-break protects the lower
                    # index (exactly one direction can hold in any sequence).
                    if b[q - 1] > b[p - 1] or (b[q - 1] == b[p - 1] and q > p):
                        assert suffix_envy_condition(seq, p, q).holds, (b, seq.rounds, p, q)

    def test_label_guarantees_sum_to_total(self):
        rng = random.Random(1)
        row = tuple(F(rng.randint(0, 9)) for _ in range(7))
        seq = PickingSequence(tuple(rng.randint(1, 3) for _ in range(7)))
        gs = label_guarantees(seq, row, 3)
        assert sum(gs.values()) == sum(row)

    def test_suffix_condition_bounds_guarantees_for_any_costs(self):
        # When the count condition holds, j's rounds guarantee at least as
        # much disvalue as i's under every cost row, not just 0/1 steps.
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 4)
            m = rng.randint(2, 10)
            seq = PickingSequence(tuple(rng.randint(1, n) for _ in range(m)))
            held = seq.positions(n)
            row = [F(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(m)]
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j and suffix_envy_condition(seq, i, j).holds:
                        assert (guaranteed_disvalue(row, held[i - 1])
                                <= guaranteed_disvalue(row, held[j - 1]))
