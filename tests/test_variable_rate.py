"""Tests for the variable-rate polling protocol."""
import json
import math

import numpy as np
import pytest

from byzsw.adversary import BlackHole, FakeDistribution, optimal_fake_conditional
from byzsw.binning import BinningCodebook, all_sequences
from byzsw.prob_core import JointPMF, SubsetView, entropy, marginal
from byzsw.rate_region import HonestCollection, InfoModel, r_star_perfect
from byzsw.source_model import sample_block
from byzsw.variable_rate import (
    DecoderState,
    ProtocolParams,
    run_round,
    run_session,
    _cell_entropies,
    _conditional_type_entropies,
    _decode_phase,
    transcript_lines,
    update_V,
)
from oracles import brute_conditional_type_entropy, reference_decode_phase


def dsbs(cross=0.11) -> JointPMF:
    q = cross / 2
    return JointPMF((2, 2), np.array([[0.5 - q, q], [q, 0.5 - q]]))


def three_sensor_law() -> JointPMF:
    mass = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            mass[x0, x1, x0] = 0.5 * (0.75 if x1 == x0 else 0.25)
    return JointPMF((2, 2, 2), mass)


PAIR = HonestCollection.explicit([[0, 1]])
IM2 = InfoModel.perfect_info((2, 2))


class TestParams:
    def test_nu_must_exceed_eps(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=8, rounds=1, eps=0.5, nu=0.4)

    def test_eta_at_least_eps(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=8, rounds=1, eps=0.5, eta=0.4)

    def test_defaults(self):
        p = ProtocolParams(n=8, rounds=1, eps=0.2)
        assert p.nu_value == pytest.approx(1.1)
        assert p.eta_value == pytest.approx(0.4)

    def test_subcodebook_bound_and_cap(self):
        p = ProtocolParams(n=8, rounds=2, eps=0.3, nu=1.0, C=None, alpha=0.5)
        c = p.subcodebook_count(2, (2, 2))
        b = math.ceil(2 / 0.7)
        assert c == max(8, math.ceil(3 * 2 * 2 * b / 0.5))
        big = ProtocolParams(n=8, rounds=50, eps=0.35, nu=1.925, alpha=0.05)
        with pytest.warns(RuntimeWarning):
            assert big.subcodebook_count(3, (2, 2, 2)) == 1024


class TestAllHonest:
    def test_correct_and_within_rate_budget(self):
        p = dsbs()
        params = ProtocolParams(n=12, rounds=20, eps=0.35, nu=1.925, C=64)
        rates = []
        for seed in range(3):
            rep = run_session(p, PAIR, IM2, SubsetView.of(0, 1), None, None,
                              params, seed=seed)
            assert not rep.honest_error
            rates.append(rep.sum_rate)
        budget = entropy(p) + 2 * (2 * 0.35 + 1.925) + 0.1
        assert sum(rates) / len(rates) <= budget

    def test_point_mass_single_transaction_phases(self):
        mass = np.zeros((2, 2))
        mass[1, 0] = 1.0
        p = JointPMF((2, 2), mass)
        params = ProtocolParams(n=10, rounds=3, eps=0.35, nu=1.0, C=8)
        rep = run_session(p, PAIR, IM2, SubsetView.of(0, 1), None, None,
                          params, seed=4)
        assert not rep.honest_error
        for tx in rep.phase_transactions:
            assert all(j == 1 for j in tx.values())

    def test_excluded_sensor_never_polled(self):
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1]])     # U(V) = {0, 1} always
        im = InfoModel.perfect_info((2, 2, 2))
        params = ProtocolParams(n=10, rounds=3, eps=0.35, nu=1.0, C=8)
        rep = run_session(p, coll, im, SubsetView.of(0, 1), None,
                          BlackHole(), params, seed=5)
        polled = {rec.sensor for rec in rep.transcript}
        assert polled == {0, 1}
        assert all(2 not in est for est in rep.round_estimates)
        assert not rep.honest_error


class TestConditionalTypeEntropies:
    """The separable per-cell entropies agree with explicit per-sequence
    counting."""

    @staticmethod
    def _check(n, alphabet, prior_sizes, prior_seqs):
        prior_flat = None
        if prior_seqs:
            prior_flat = np.ravel_multi_index(tuple(np.stack(prior_seqs)), prior_sizes)
        got = _conditional_type_entropies(all_sequences(alphabet, n), alphabet, prior_flat)
        want = [brute_conditional_type_entropy(x, prior_seqs)
                for x in all_sequences(alphabet, n)]
        assert got.shape == (alphabet ** n,)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    @pytest.mark.parametrize("alphabet", [2, 3])
    @pytest.mark.parametrize("num_prior", [0, 1, 2])
    def test_matches_brute_count(self, alphabet, num_prior):
        n = 9
        rng = np.random.default_rng(10 * alphabet + num_prior)
        prior_sizes = [3, 2][:num_prior]
        self._check(n, alphabet, prior_sizes, [rng.integers(0, a, n) for a in prior_sizes])

    @pytest.mark.parametrize("alphabet,n", [(2, 10), (3, 7)])
    def test_prior_cells_without_slots(self, alphabet, n):
        # 3 * 2 * 3 = 18 prior cells, at most n of them occupied; one prior
        # sensor never shows symbol 2 and one prior is constant
        rng = np.random.default_rng(alphabet * n)
        prior_sizes = [3, 2, 3]
        prior_seqs = [rng.integers(0, 2, n), rng.integers(0, 2, n), np.full(n, 2)]
        self._check(n, alphabet, prior_sizes, prior_seqs)

    @pytest.mark.parametrize("alphabet,n", [(2, 11), (3, 8)])
    def test_three_prior_sensors(self, alphabet, n):
        rng = np.random.default_rng(100 + alphabet)
        prior_sizes = [2, 3, 2]
        self._check(n, alphabet, prior_sizes,
                    [rng.integers(0, a, n) for a in prior_sizes])

    def test_alphabet_three_one_slot_per_cell(self):
        # every prior cell holds exactly one slot: the entropy is 0 for all x
        n = 6
        prior_sizes = [6]
        self._check(n, 3, prior_sizes, [np.arange(n)])
        assert not _conditional_type_entropies(all_sequences(3, n), 3, np.arange(n)).any()

    def test_prior_free_array_cached_read_only(self):
        a = _cell_entropies(2, 12, 12)
        b = _cell_entropies(2, 12, 12)
        assert not a.flags.writeable
        assert np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[0] = 1.0
        self._check(12, 2, [], [])


class TestDecodePhaseOracle:
    """The array-mask phase search returns exactly what the lazy
    candidate-by-candidate loop returns."""

    @pytest.mark.parametrize("eps,nu", [(0.35, 1.925), (0.2, 0.25), (0.1, 0.15)])
    def test_matches_lazy_reference(self, eps, nu):
        rng = np.random.default_rng(int(eps * 1000))
        n, sizes = 10, [2, 3, 2]
        for trial in range(6):
            cb = BinningCodebook(2, n, 2, eps, nu, C=4,
                                 master_seed=int(rng.integers(1 << 62)))
            prior = [(0, rng.integers(0, 2, n)),
                     (1, rng.integers(0, 3, n))][:trial % 3]
            c = int(rng.integers(cb.C))
            truth, other = rng.integers(0, 2, (2, n))
            taken = set(cb.encode_blocks(all_sequences(2, n), c, [0])[0].tolist())
            unused = min(set(range(len(taken) + 1)) - taken)
            senders = {
                "honest": lambda j: cb.encode_block(truth, c, j),
                "replay": lambda j: cb.encode_block(other, c, j),
                # block 0 lands in a bin no sequence occupies: forced decode
                "no_match": lambda j: unused if j == 0 else cb.encode_block(truth, c, j),
            }
            for name, sender in senders.items():
                got = _decode_phase(cb, prior, sizes, c, eps, sender)
                want = reference_decode_phase(cb, prior, sizes, c, eps, sender)
                assert np.array_equal(got[0], want[0]), name
                assert got[0].dtype == want[0].dtype
                assert got[1:] == want[1:], name
                if name == "no_match":
                    assert got[3] and got[1] == cb.J


class TestDecodePhaseBudget:
    """The phase search makes at most two calls into the mixing core,
    whatever the number of transactions, and polls the sender block by block
    for exactly the transactions it uses."""

    @pytest.mark.parametrize("eps,nu", [(0.35, 1.925), (0.1, 0.15)])
    def test_at_most_two_core_calls_and_polls_in_order(self, eps, nu, monkeypatch):
        import byzsw.binning as binning
        rng = np.random.default_rng(int(eps * 100))
        n, sizes = 12, [2, 3, 2]
        calls = []
        core = binning._mix
        monkeypatch.setattr(binning, "_mix", lambda *a: calls.append(1) or core(*a))
        j_seen = set()
        for trial in range(12):
            cb = BinningCodebook(2, n, 2, eps, nu, C=4, master_seed=int(rng.integers(1 << 62)))
            prior = [(0, rng.integers(0, 2, n)), (1, rng.integers(0, 3, n))][:trial % 3]
            c = int(rng.integers(cb.C))
            truth = rng.integers(0, 2, n)
            taken = set(cb.encode_space(c, 0).tolist())
            unused = min(set(range(len(taken) + 1)) - taken)
            chain = cb.encode_chain(truth, c).tolist()
            for forced, first in ((False, chain[0]), (True, unused)):
                polled = []
                sender = lambda j: polled.append(j) or (first if j == 0 else chain[j])
                calls.clear()
                est, j_used, received, got_forced = _decode_phase(cb, prior, sizes, c, eps,
                                                                  sender)
                assert len(calls) <= 2
                assert got_forced == forced
                assert polled == list(range(j_used))
                assert received == [first] + chain[1:j_used]
                if forced:
                    assert j_used == cb.J and not calls[1:]
                else:
                    j_seen.add(j_used)
        assert max(j_seen) >= 3     # the budget held over multi-transaction phases


class TestRunRound:
    def test_single_round_decodes_truth_and_counts_bits(self):
        from byzsw.adversary import TraitorContext
        from byzsw.binning import BinningCodebook
        from byzsw.prob_core import SubsetView as SV
        from byzsw.source_model import sample_block, sample_side_info
        from byzsw.prob_core import identity_channel

        p = dsbs()
        params = ProtocolParams(n=12, rounds=1, eps=0.35, nu=1.925, C=8)
        codebooks = {i: BinningCodebook(i, 12, 2, 0.35, 1.925, 8, seed)
                     for i, seed in ((0, 11), (1, 12))}
        state = DecoderState(V=tuple(PAIR.candidates))
        block = sample_block(p, 12, 44)
        w = sample_side_info(identity_channel((2, 2)), block, 45)
        ctx = TraitorContext(traitors=SV(()), seed=46, codebooks=codebooks)
        bits, tx, forced = run_round(state, block, w, codebooks, None, ctx,
                                     params, seed=47, round_index=0)
        assert forced == 0
        assert set(tx) == {0, 1}
        assert np.array_equal(state.estimates[0], block.sensor(0))
        assert np.array_equal(state.estimates[1], block.sensor(1))
        assert bits == sum(r.bits for r in state.transcript)
        assert all(r.round == 0 for r in state.transcript)


def candidate_marginals(p, coll):
    return {S: marginal(p, S).mass for S in coll.candidates}


class TestUpdateV:
    def test_all_honest_types_keep_everything_at_large_n(self):
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        keep = 0
        for seed in range(20):
            blk = sample_block(p, 4096, seed)
            est = {i: blk.sensor(i) for i in range(3)}
            newV, emptied = update_V(tuple(coll.candidates), est,
                                     SubsetView.of(0, 1, 2), p, im, 0.35, 4096,
                                     candidate_marginals(p, coll))
            keep += (not emptied) and len(newV) == 3
        assert keep >= 19

    def test_fake_distribution_eliminates_inconsistent_pair(self):
        # traitor simulating p(x2|x1) makes the {0,2} marginal atypical while
        # {0,1} and {1,2} stay consistent
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        rep = r_star_perfect(p, coll)
        q_star = rep.maximizer_q
        drops = 0
        for seed in range(20):
            blk = sample_block(q_star, 4096, seed)
            est = {i: blk.sensor(i) for i in range(3)}
            newV, emptied = update_V(tuple(coll.candidates), est,
                                     SubsetView.of(0, 1, 2), p, im, 0.35, 4096,
                                     candidate_marginals(p, coll))
            assert not emptied
            kept = {v.indices for v in newV}
            drops += kept == {(0, 1), (1, 2)}
        assert drops >= 18

    def test_singleton_collection_constant(self):
        p = dsbs()
        params = ProtocolParams(n=12, rounds=15, eps=0.35, nu=1.925, C=8)
        rep = run_session(p, PAIR, IM2, SubsetView.of(0, 1), None, None,
                          params, seed=6)
        assert all(len(v) == 1 for v in rep.v_trajectory)

    def test_emptied_v_is_restored_and_flagged(self):
        # eta barely above eps at n=8: noise prunes everything regularly
        p = dsbs(0.3)
        params = ProtocolParams(n=8, rounds=20, eps=0.35, nu=1.0, eta=0.36, C=8)
        rep = run_session(p, PAIR, IM2, SubsetView.of(0, 1), None, None,
                          params, seed=7)
        assert rep.v_empty_restores > 0
        assert all(len(v) == 1 for v in rep.v_trajectory)

    def test_imperfect_info_membership_path(self):
        # channel-list info model: W = x0 exactly for every candidate
        p = dsbs(0.2)
        rows = np.zeros((2, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                rows[x0, x1, x0] = 1.0
        from byzsw.prob_core import ConditionalPMF
        r = ConditionalPMF((2, 2), 2, rows)
        im = InfoModel.from_channels({SubsetView.of(0, 1): [r],
                                      SubsetView.of(0): [r],
                                      SubsetView.of(1): [r]}, (2, 2))
        coll = HonestCollection.explicit([[0, 1], [0], [1]])
        blk = sample_block(p, 2048, 9)
        est = {i: blk.sensor(i) for i in range(2)}
        newV, emptied = update_V(tuple(coll.candidates), est,
                                 SubsetView.of(0, 1), p, im, 0.5, 2048,
                                 candidate_marginals(p, coll))
        assert not emptied
        assert {v.indices for v in newV} == {(0,), (1,), (0, 1)}


class TestSessionInvariants:
    def _sessions(self):
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        params = ProtocolParams(n=8, rounds=20, eps=0.35, nu=1.0, eta=0.5, C=8)
        out = []
        for seed in range(4):
            strat = BlackHole() if seed % 2 else None
            h_true = SubsetView.of(0, 1) if seed % 2 else SubsetView.of(0, 1, 2)
            coll_use = coll if seed % 2 else HonestCollection.explicit(
                [[0, 1], [0, 2], [1, 2], [0, 1, 2]])
            out.append(run_session(p, coll_use, im, h_true, None, strat,
                                   params, seed=seed))
        return out

    def test_v_monotone(self):
        for rep in self._sessions():
            for a, b in zip(rep.v_trajectory, rep.v_trajectory[1:]):
                keys_a = {s.indices for s in a}
                assert all(s.indices in keys_a for s in b)

    def test_phase_termination_bound(self):
        for rep in self._sessions():
            for tx in rep.phase_transactions:
                for sensor, j in tx.items():
                    assert 1 <= j <= math.ceil(1 / 0.35)

    def test_rate_accounting_identity(self):
        for rep in self._sessions():
            n_rounds = len(rep.round_rates)
            expect = sum(rec.bits for rec in rep.transcript) / (8 * n_rounds)
            assert rep.sum_rate == expect

    def test_black_hole_forces_elimination_of_traitor_sets(self):
        # with a tight eta the garbage coordinate drops every set containing
        # the traitor within a few rounds
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        params = ProtocolParams(n=12, rounds=12, eps=0.35, nu=1.925, eta=1.2, C=64)
        hits = 0
        for seed in range(5):
            rep = run_session(p, coll, im, SubsetView.of(0, 1), None,
                              BlackHole(), params, seed=seed)
            final = {v.indices for v in rep.final_V}
            hits += (0, 1) in final and (1, 2) not in final and (0, 2) not in final
        assert hits >= 4

    def test_transcript_lines_are_json(self):
        rep = self._sessions()[0]
        lines = transcript_lines(rep)
        assert len(lines) == len(rep.transcript)
        row = json.loads(lines[0])
        assert set(row) == {"round", "phase", "sensor", "c", "j", "bin", "bits"}


class TestAttackSession:
    def test_optimal_fake_attack_rate_and_indistinguishability(self):
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        h_true = SubsetView.of(0, 1)
        region = r_star_perfect(p, coll)
        q_bar = optimal_fake_conditional(region.per_pair_detail[h_true][2],
                                         h_true, (2, 2, 2))
        params = ProtocolParams(n=12, rounds=20, eps=0.35, nu=1.925, eta=4.0,
                                C=64)
        budget = region.r_star + 3 * (2 * 0.35 + 1.925)
        for seed in (11, 12):
            strat = FakeDistribution(q_bar)
            rep = run_session(p, coll, im, h_true, None, strat, params, seed=seed)
            assert not rep.honest_error
            assert len(rep.final_V) >= 2
            over = sum(1 for r in rep.round_rates if r > budget)
            assert over <= 3
            assert rep.sum_rate <= budget + 0.2
