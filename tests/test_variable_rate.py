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
    ProtocolParams,
    RoundDraws,
    run_round,
    run_session,
    _conditional_type_entropies,
    _decode_phases,
    _xlogx,
    transcript_lines,
    update_V,
)
from oracles import (
    brute_conditional_type_entropy,
    reference_decode_phase,
    report_differences,
    sequential_run_session,
)


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
        a = _xlogx(12)
        b = _xlogx(12)
        assert not a.flags.writeable
        assert np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[0] = 1.0
        self._check(12, 2, [], [])

    def test_per_row_priors_match_one_prior_at_a_time(self):
        # each row scored under its own prior cells equals the row scored
        # alone under that prior, bit for bit
        rng = np.random.default_rng(5)
        n = 10
        rows = rng.integers(0, 3, (40, n))
        cells = rng.integers(0, 6, (40, n))
        got = _conditional_type_entropies(rows, 3, cells)
        for r in range(len(rows)):
            assert got[r] == _conditional_type_entropies(rows[r:r + 1], 3, cells[r])[0]


def prior_cells(prior, sizes):
    """The flat prior cell of every slot of every phase: prior is a list of
    (sensor, (R, n) decoded blocks) pairs."""
    if not prior:
        return None
    return np.ravel_multi_index(tuple(seqs for _s, seqs in prior), [sizes[s] for s, _ in prior])


def least_free_bin(bins) -> int:
    """The least bin index that no entry of ``bins`` occupies."""
    taken = np.unique(bins)
    gaps = np.flatnonzero(taken != np.arange(len(taken)))
    return int(gaps[0]) if gaps.size else len(taken)


class TestDecodePhaseOracle:
    """The batched phase search returns, phase by phase, exactly what the
    lazy candidate-by-candidate loop returns for that phase alone."""

    @pytest.mark.parametrize("eps,nu", [(0.35, 1.925), (0.2, 0.25), (0.1, 0.15)])
    def test_matches_lazy_reference(self, eps, nu):
        rng = np.random.default_rng(int(eps * 1000))
        n, sizes, R = 10, [2, 3, 2], 11
        for trial in range(3):
            cb = BinningCodebook(2, n, 2, eps, nu, C=4,
                                 master_seed=int(rng.integers(1 << 62)))
            prior = [(0, rng.integers(0, 2, (R, n))),
                     (1, rng.integers(0, 3, (R, n)))][:trial % 3]
            cs = [int(c) for c in rng.integers(cb.C, size=R)]
            truth, other = rng.integers(0, 2, (2, R, n))
            unused = [least_free_bin(row) for row in cb.encode_space(cs, 0)]
            # phase k's sender: honest, a replay of another sequence, or a
            # block-0 index in a bin no sequence occupies (a forced decode)
            kinds = ["honest", "replay", "no_match"] * 4

            def sender(k):
                x = other[k] if kinds[k] == "replay" else truth[k]
                return lambda j: (unused[k] if kinds[k] == "no_match" and j == 0
                                  else cb.encode_block(x, cs[k], j))

            senders = [sender(k) for k in range(R)]
            est, j_used, received, forced = _decode_phases(
                cb, cs, prior_cells(prior, sizes), eps,
                lambda j, ks: np.array([senders[k](j) for k in ks], dtype=np.int64))
            assert est.dtype == np.int64
            for k in range(R):
                want = reference_decode_phase(cb, [(s, seqs[k]) for s, seqs in prior],
                                              sizes, cs[k], eps, senders[k])
                assert np.array_equal(est[k], want[0]), kinds[k]
                assert (j_used[k], received[:j_used[k], k].tolist(), forced[k]) == want[1:]
                assert (received[j_used[k]:, k] == -1).all()
                if kinds[k] == "no_match":
                    assert forced[k] and j_used[k] == cb.J


class TestDecodePhaseBudget:
    """A sensor's phases over a pass at binary n = 12 make at most
    ceil(R / 4) + 2 calls into the mixing core (one for the senders' chains,
    one per 4 block-0 keys, one for the members' later blocks), whatever
    the number of transactions, and poll each phase block by block for
    exactly the transactions it uses. A pass whose phases are all forced
    (no sequence in any received block-0 bin) makes no later-block call.
    From binary n = 14 on a block-0 call takes one key."""

    @pytest.mark.parametrize("n,eps,nu,per_call", [(12, 0.35, 1.925, 4), (12, 0.1, 0.15, 4),
                                                   (14, 0.35, 1.0, 1)])
    @pytest.mark.parametrize("R", [1, 8, 21])
    def test_core_calls_per_pass_and_polls_in_order(self, n, eps, nu, per_call, R,
                                                    monkeypatch):
        import byzsw.binning as binning
        rng = np.random.default_rng(int(eps * 100) + R)
        sizes = [2, 3, 2]
        calls = []
        core = binning._mix
        monkeypatch.setattr(binning, "_mix", lambda *a: calls.append(1) or core(*a))
        j_seen = set()
        for trial in range(12):
            cb = BinningCodebook(2, n, 2, eps, nu, C=4, master_seed=int(rng.integers(1 << 62)))
            prior = [(0, rng.integers(0, 2, (R, n))), (1, rng.integers(0, 3, (R, n)))][:trial % 3]
            cs = [int(c) for c in rng.integers(cb.C, size=R)]
            truth = rng.integers(0, 2, (R, n))
            forced_k = (set(range(R)) if trial % 4 == 3
                        else {k for k in range(R) if (k + trial) % 3 == 0})
            first = [least_free_bin(row) for row in cb.encode_space(cs, 0)]
            calls.clear()
            chains = cb.encode_rows(truth, cs, range(cb.J))
            for k in forced_k:
                chains[0, k] = first[k]
            polled = []

            def message(j, ks):
                polled.extend((int(k), j) for k in ks)
                return chains[j, ks]

            est, j_used, received, forced = _decode_phases(cb, cs, prior_cells(prior, sizes),
                                                           eps, message)
            assert len(calls) <= math.ceil(R / per_call) + 2
            if len(forced_k) == R:      # the chain call and the block-0 calls only
                assert len(calls) == math.ceil(R / per_call) + 1
            for k in range(R):
                assert forced[k] == (k in forced_k)
                assert [j for kk, j in polled if kk == k] == list(range(j_used[k]))
                assert received[:j_used[k], k].tolist() == chains[:j_used[k], k].tolist()
                if forced[k]:
                    assert j_used[k] == cb.J
                else:
                    j_seen.add(int(j_used[k]))
        assert max(j_seen) >= 3     # the budget held over multi-transaction phases


class TestRunRound:
    def test_single_round_decodes_truth_and_counts_bits(self):
        from byzsw.adversary import TraitorContext
        from byzsw.binning import BinningCodebook
        from byzsw.prob_core import SubsetView as SV

        p = dsbs()
        params = ProtocolParams(n=12, rounds=1, eps=0.35, nu=1.925, C=8)
        codebooks = {i: BinningCodebook(i, 12, 2, 0.35, 1.925, 8, seed)
                     for i, seed in ((0, 11), (1, 12))}
        block = sample_block(p, 12, 44)
        ctx = TraitorContext(traitors=SV(()), seed=46, codebooks=codebooks)
        [res] = run_round(SV.of(0, 1), [RoundDraws(block, {})], 0, codebooks, None, ctx,
                          params, seed=47)
        assert res.forced == 0
        assert set(res.tx_counts) == {0, 1}
        assert np.array_equal(res.estimates[0], block.sensor(0))
        assert np.array_equal(res.estimates[1], block.sensor(1))
        assert res.bits == sum(r.bits for r in res.records)
        assert all(r.round == 0 for r in res.records)

    def test_pass_equals_rounds_played_one_at_a_time(self):
        from byzsw.adversary import TraitorContext
        from byzsw.prob_core import SubsetView as SV

        p = three_sensor_law()
        params = ProtocolParams(n=10, rounds=6, eps=0.35, nu=1.0, C=16)
        codebooks = {i: BinningCodebook(i, 10, 2, 0.35, 1.0, 16, 30 + i) for i in range(3)}
        ctx = TraitorContext(traitors=SV.of(2), seed=46, codebooks=codebooks)
        draws = [RoundDraws(sample_block(p, 10, 50 + r), {2: None}) for r in range(6)]
        together = run_round(SV.of(0, 1, 2), draws, 3, codebooks, BlackHole(), ctx, params, 47)
        for k, res in enumerate(together):
            [alone] = run_round(SV.of(0, 1, 2), draws[k:k + 1], 3 + k, codebooks, BlackHole(),
                                ctx, params, 47)
            assert res.records == alone.records
            assert res.bits == alone.bits and res.tx_counts == alone.tx_counts
            assert all(np.array_equal(res.estimates[i], alone.estimates[i]) for i in range(3))


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
            [newV], [emptied] = update_V(tuple(coll.candidates), [est],
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
            [newV], [emptied] = update_V(tuple(coll.candidates), [est],
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
        [newV], [emptied] = update_V(tuple(coll.candidates), [est],
                                     SubsetView.of(0, 1), p, im, 0.5, 2048,
                                     candidate_marginals(p, coll))
        assert not emptied
        assert {v.indices for v in newV} == {(0,), (1,), (0, 1)}


    def test_pass_stops_after_the_round_that_changes_U(self):
        # round 0 keeps every set, round 1 is the fake law's type (drops
        # {0,2}: U unchanged), round 2 has a uniform garbage x2 (drops every
        # set but {0,1}: U shrinks), so round 3 is never pruned
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        q_star = r_star_perfect(p, coll).maximizer_q
        blocks = [sample_block(p, 4096, 1), sample_block(q_star, 4096, 2)]
        garbage = {0: blocks[0].sensor(0), 1: blocks[0].sensor(1),
                   2: np.random.default_rng(3).integers(0, 2, 4096)}
        ests = [{i: b.sensor(i) for i in range(3)} for b in blocks] + [garbage, garbage]
        trajectory, emptied = update_V(tuple(coll.candidates), ests, SubsetView.of(0, 1, 2),
                                       p, im, 0.35, 4096, candidate_marginals(p, coll))
        keys = [{S.indices for S in V} for V in trajectory]
        assert keys[:2] == [{(0, 1), (0, 2), (1, 2)}, {(0, 1), (1, 2)}]
        assert len(trajectory) == 3 and emptied == [False, False, False]
        assert keys[2] == {(0, 1)}


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


@pytest.mark.filterwarnings("ignore:subcodebook count")
class TestSequentialOracle:
    """``run_session`` plays the rounds in passes; the per-round session in
    ``tests/oracles.py`` plays them one at a time. Every report field and
    the traitors' polling history agree."""

    @staticmethod
    def _both(p, coll, im, h_true, r_true, make_strategy, params, seeds):
        import byzsw.adversary as adversary
        for seed in seeds:
            polls = []
            for session in (run_session, sequential_run_session):
                history = []
                note = adversary.TraitorContext.note_poll
                adversary.TraitorContext.note_poll = (
                    lambda self, rec, _h=history, _n=note: (_h.append(rec), _n(self, rec)))
                try:
                    rep = session(p, coll, im, h_true, r_true, make_strategy(), params,
                                  seed=seed)
                finally:
                    adversary.TraitorContext.note_poll = note
                polls.append((rep, history))
            (got, got_polls), (want, want_polls) = polls
            assert report_differences(got, want) == [], seed
            assert got_polls == want_polls, seed
            yield got

    def _three_sensor(self, strategy_kind, seeds, rounds=50):
        from byzsw.scenario import preset_scenario
        from dataclasses import replace
        from byzsw.source_model import derive_seed
        scn = preset_scenario("three_sensor")
        scn = replace(scn, strategy_kind=strategy_kind,
                      vr=replace(scn.vr, rounds=rounds))
        return list(self._both(
            scn.p, scn.collection, scn.info_model, scn.honest_true, None,
            scn.build_strategy, scn.vr,
            [derive_seed(scn.seed, "trial", t) for t in seeds]))

    def test_no_traitors(self):
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2], [0, 1, 2]])
        params = ProtocolParams(n=10, rounds=30, eps=0.35, nu=1.0, eta=0.5, C=8)
        reps = list(self._both(p, coll, InfoModel.perfect_info((2, 2, 2)),
                               SubsetView.of(0, 1, 2), None, lambda: None, params, range(4)))
        assert any(len(rep.final_V) < 4 for rep in reps)     # V shrank

    def test_honest_passthrough(self):
        self._three_sensor("honest_passthrough", range(3), rounds=20)

    def test_black_hole_with_U_shrinking_mid_session(self):
        reps = self._three_sensor("black_hole", range(3))
        # U(V) loses a sensor before the last round in trials 0 and 1
        shrunk = [next((r for r, V in enumerate(rep.v_trajectory[1:-1])
                        if len({i for S in V for i in S}) < 3), None) for rep in reps]
        assert shrunk[0] is not None and shrunk[1] is not None

    def test_fake_distribution(self):
        self._three_sensor("fake_distribution", range(3))

    def test_imperfect_toy(self):
        from byzsw.prob_core import ConditionalPMF
        p = JointPMF((2, 2), np.array([[0.4, 0.2], [0.1, 0.3]]))
        const = ConditionalPMF((2, 2), 1, np.ones((2, 2, 1)))
        im = InfoModel.from_channels({SubsetView.of(0): [const], SubsetView.of(1): [const]},
                                     (2, 2))
        params = ProtocolParams(n=8, rounds=5, eps=0.35, nu=1.925, C=8)
        reps = list(self._both(p, HonestCollection.explicit([[0], [1]]), im,
                               SubsetView.of(0), const, lambda: None, params, range(6)))
        assert any(len(rep.final_V) == 1 for rep in reps)     # a pass restarted

    def test_v_restores(self):
        p = dsbs(0.3)
        params = ProtocolParams(n=8, rounds=20, eps=0.35, nu=1.0, eta=0.36, C=8)
        reps = list(self._both(p, PAIR, IM2, SubsetView.of(0, 1), None, lambda: None,
                               params, range(3)))
        assert all(rep.v_empty_restores > 0 for rep in reps)
