"""Tests for the variable-rate polling protocol."""
import json
import math

import numpy as np
import pytest

from byzsw.adversary import BlackHole, FakeDistribution, optimal_fake_conditional
from byzsw.binning import BinningCodebook, all_sequences
from byzsw.prob_core import JointPMF, SubsetView, entropy
from byzsw.rate_region import HonestCollection, InfoModel, r_star_perfect
from byzsw.source_model import sample_block
from byzsw.variable_rate import (
    ProtocolParams,
    _draw_rounds,
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
            chains = np.array([[senders[k](j) for k in range(R)] for j in range(cb.J)],
                              dtype=np.int64)
            est, j_used, forced = _decode_phases(cb, cs, prior_cells(prior, sizes), chains)
            assert est.dtype == np.int64
            for k in range(R):
                want = reference_decode_phase(cb, [(s, seqs[k]) for s, seqs in prior],
                                              sizes, cs[k], eps, senders[k])
                assert np.array_equal(est[k], want[0]), kinds[k]
                assert (j_used[k], chains[:j_used[k], k].tolist(), forced[k]) == want[1:]
                if kinds[k] == "no_match":
                    assert forced[k] and j_used[k] == cb.J


class TestDecodePhaseBudget:
    """A sensor's phases over a pass make at most 2 binning kernel calls,
    whatever the number of rounds and transactions: one block-0 scan of the
    whole space for every round (``_match_space``) and one call binning the
    members on the later blocks (``_bin_rows``). A pass whose phases are all
    forced (no sequence in any received block-0 bin) makes only the scan.
    The senders' chains are made before the pass and are not counted."""

    @pytest.mark.parametrize("n,eps,nu", [(12, 0.35, 1.925), (12, 0.1, 0.15), (14, 0.35, 1.0)])
    @pytest.mark.parametrize("R", [1, 8, 21])
    def test_core_calls_per_pass_and_polls_in_order(self, n, eps, nu, R, monkeypatch):
        import byzsw.binning as binning
        rng = np.random.default_rng(int(eps * 100) + R)
        sizes = [2, 3, 2]
        calls = []
        for name in ("_bin_rows", "_match_space"):
            kernel = getattr(binning, name)
            monkeypatch.setattr(binning, name, lambda *a, _kernel=kernel, _name=name:
                                calls.append(_name) or _kernel(*a))
        j_seen = set()
        for trial in range(12):
            cb = BinningCodebook(2, n, 2, eps, nu, C=4, master_seed=int(rng.integers(1 << 62)))
            prior = [(0, rng.integers(0, 2, (R, n))), (1, rng.integers(0, 3, (R, n)))][:trial % 3]
            cs = [int(c) for c in rng.integers(cb.C, size=R)]
            truth = rng.integers(0, 2, (R, n))
            forced_k = (set(range(R)) if trial % 4 == 3
                        else {k for k in range(R) if (k + trial) % 3 == 0})
            first = [least_free_bin(row) for row in cb.encode_space(cs, 0)]
            chains = cb.encode_rows(truth, cs, range(cb.J))
            for k in forced_k:
                chains[0, k] = first[k]
            calls.clear()
            est, j_used, forced = _decode_phases(cb, cs, prior_cells(prior, sizes), chains)
            assert calls[:1] == ["_match_space"] and calls[1:] in ([], ["_bin_rows"])
            if len(forced_k) == R:      # the block-0 scan only
                assert calls == ["_match_space"]
            for k in range(R):
                assert forced[k] == (k in forced_k)
                if forced[k]:
                    assert j_used[k] == cb.J
                else:
                    j_seen.add(int(j_used[k]))
        assert max(j_seen) >= 3     # the budget held over multi-transaction phases


def encoder(codebooks):
    """The variable-rate ``encode`` argument of ``send_rounds``."""
    return lambda i, rows, cs: codebooks[i].encode_rows(rows, cs, range(codebooks[i].J))


def bin_counts(codebooks):
    return [cb.bin_counts for cb in codebooks]


class TestRunRound:
    def test_single_round_decodes_truth(self):
        from byzsw.adversary import send_rounds
        from byzsw.prob_core import SubsetView as SV
        from byzsw.source_model import keyed_draws

        p = dsbs()
        codebooks = [BinningCodebook(i, 12, 2, 0.35, 1.925, 8, seed)
                     for i, seed in ((0, 11), (1, 12))]
        block = sample_block(p, 12, 44)
        cs = keyed_draws(47, ("subcode",), [0], 2, 8)
        chains = send_rounds(None, None, block[None], [0], cs, 8, encoder(codebooks),
                             bin_counts(codebooks))
        est, j_used, forced = run_round(SV.of(0, 1), cs, chains, codebooks)
        assert not forced.any()
        assert est.shape == (1, 2, 12) and cs.shape == (1, 2) and j_used.shape == (2, 1)
        assert [chain.shape for chain in chains] == [(cb.J, 1) for cb in codebooks]
        assert np.array_equal(est[0], block)

    def test_pass_equals_rounds_played_one_at_a_time(self):
        from byzsw.adversary import TraitorContext, send_rounds
        from byzsw.prob_core import SubsetView as SV
        from byzsw.source_model import keyed_draws

        p = three_sensor_law()
        codebooks = [BinningCodebook(i, 10, 2, 0.35, 1.0, 16, 30 + i) for i in range(3)]
        ctx = TraitorContext(traitors=SV.of(2), seed=46, law=p)
        blocks = np.stack([sample_block(p, 10, 50 + r) for r in range(6)])

        def sent(rounds):
            cs = keyed_draws(47, ("subcode",), rounds, 3, 16)
            chains = send_rounds(BlackHole(), ctx, blocks[[r - 3 for r in rounds]], rounds,
                                 cs, 16, encoder(codebooks), bin_counts(codebooks))
            return cs, chains

        cs, chains = sent(range(3, 9))
        est, j_used, forced = run_round(SV.of(0, 1, 2), cs, chains, codebooks)
        for k in range(6):
            cs_k, chains_k = sent([3 + k])
            assert np.array_equal(cs[k:k + 1], cs_k)
            for whole, one in zip(chains, chains_k):
                assert np.array_equal(whole[:, k:k + 1], one)
            alone = run_round(SV.of(0, 1, 2), cs_k, chains_k, codebooks)
            assert np.array_equal(est[k:k + 1], alone[0])
            for whole, one in zip((j_used, forced), alone[1:]):
                assert np.array_equal(whole[:, k:k + 1], one)


class TestDrawRounds:
    def test_chains_of_true_reported_rows_or_respond(self):
        from byzsw.adversary import HonestPassthrough, TraitorContext
        from byzsw.prob_core import identity_channel
        from byzsw.source_model import keyed_draws

        p = three_sensor_law()
        h_true = SubsetView.of(0, 1)
        region = r_star_perfect(p, HonestCollection.explicit([[0, 1], [0, 2], [1, 2]]))
        q_bar = optimal_fake_conditional(region.per_pair_detail[h_true][2], h_true, (2, 2, 2))
        r_true = identity_channel(p.alphabet_sizes)
        codebooks = [BinningCodebook(i, 10, 2, 0.35, 1.0, 16, 30 + i) for i in range(3)]
        encode, bins = encoder(codebooks), bin_counts(codebooks)
        honest_cs = keyed_draws(47, ("subcode",), range(5), 3, 16)
        truth = None
        for strategy in (None, HonestPassthrough(), FakeDistribution(q_bar), BlackHole()):
            ctx = TraitorContext(traitors=SubsetView.of(2), seed=46, law=p)
            blocks, cs, chains = _draw_rounds(p, r_true, strategy, ctx, 47, 5, codebooks)
            truth = blocks if truth is None else truth
            assert np.array_equal(blocks, truth)    # the strategy draws no true block
            assert blocks.shape == (5, 3, 10) and cs.shape == (5, 3)
            assert np.array_equal(cs[:, :2], honest_cs[:, :2])
            for i in range(2):
                assert np.array_equal(chains[i], encode(i, blocks[:, i], cs[:, i].tolist()))
            if strategy is None:
                assert np.array_equal(cs, honest_cs)
                want = encode(2, blocks[:, 2], cs[:, 2].tolist())
            else:
                assert np.array_equal(cs[:, 2],
                                      strategy.choose_subcodebook(ctx, range(5), 2, 16))
                reported = strategy.begin_round(ctx, range(5))
                want = (strategy.respond(ctx, range(5), 2, bins[2]) if reported is None
                        else encode(2, reported[:, 0], cs[:, 2].tolist()))
                assert (reported is None) == isinstance(strategy, BlackHole)
            assert np.array_equal(chains[2], want)
        fake = FakeDistribution(q_bar)
        ctx = TraitorContext(traitors=SubsetView.of(2), seed=46, law=p)
        _, cs, chains = _draw_rounds(p, r_true, fake, ctx, 47, 5, codebooks)
        assert not np.array_equal(chains[2], encode(2, truth[:, 2], cs[:, 2].tolist()))


class TestHooksOncePerSession:
    def test_each_hook_called_once_over_every_round(self):
        # A silent traitor whose respond sends its true rows' chains plays
        # like honest passthrough, so its sets stay in V. At this tight eta
        # the prunes drop an honest sensor from U(V) with the traitor still
        # in it, so the session plays a later pass that polls the traitor.
        from byzsw.adversary import HonestPassthrough, TraitorStrategy
        from byzsw.prob_core import union_of
        from byzsw.source_model import derive_seed

        calls = []

        class SilentHonest(TraitorStrategy):
            def __init__(self, codebooks):
                self.codebooks = codebooks

            def begin_round(self, ctx, rounds):
                calls.append(("begin_round", None, tuple(rounds)))
                return None

            def choose_subcodebook(self, ctx, rounds, sensor, C):
                calls.append(("choose_subcodebook", sensor, tuple(rounds)))
                return super().choose_subcodebook(ctx, rounds, sensor, C)

            def respond(self, ctx, rounds, sensor, bins):
                calls.append(("respond", sensor, tuple(rounds)))
                cb = self.codebooks[sensor]
                cs = TraitorStrategy.choose_subcodebook(self, ctx, rounds, sensor, cb.C)
                rows = ctx.own_block[:, ctx.traitors.indices.index(sensor)]
                return cb.encode_rows(rows, cs.tolist(), range(cb.J))

        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        params = ProtocolParams(n=8, rounds=20, eps=0.35, nu=1.0, eta=0.5, C=8)
        h_true, every = SubsetView.of(0, 1), tuple(range(20))
        for seed in range(3):
            codebooks = [BinningCodebook(i, 8, 2, 0.35, 1.0, 8, derive_seed(seed, "codebook", i))
                         for i in range(3)]
            calls.clear()
            got = run_session(p, coll, im, h_true, None, SilentHonest(codebooks), params, seed)
            assert sorted(calls, key=lambda call: call[0]) == [
                ("begin_round", None, every), ("choose_subcodebook", 2, every),
                ("respond", 2, every)]
            want = run_session(p, coll, im, h_true, None, HonestPassthrough(), params, seed)
            assert report_differences(got, want) == []
            later = [union_of(V) for V in got.v_trajectory[1:-1]]
            assert any(2 in U and len(U) < 3 for U in later)     # a later pass polls it


@pytest.mark.filterwarnings("ignore:subcodebook count")
class TestKeysOncePerSession:
    def test_three_sensor_session_derives_each_header_once(self, monkeypatch):
        # The senders' chains, the block-0 scan and the later-block bins
        # read one key table per codebook, so no header is derived twice.
        import byzsw.binning as binning
        from byzsw.scenario import PRESETS, scenario_from_dict

        scn = scenario_from_dict(PRESETS["three_sensor"]())
        derive, derived = binning._derive, []

        def counted(seed, headers):
            headers = list(headers)
            derived.extend((seed, hd) for hd in headers)
            return derive(seed, headers)

        monkeypatch.setattr(binning, "_derive", counted)
        for seed in (3, 4):
            derived.clear()
            report = run_session(scn.p, scn.collection, scn.info_model, scn.honest_true,
                                 scn.r_true, scn.strategy, scn.vr, seed)
            assert len(derived) == len(set(derived))
            # every transcript record's (sensor, c, j) header was derived
            assert len(derived) >= len({(r.sensor, r.c, r.j) for r in report.transcript})


class TestUpdateV:
    def test_all_honest_types_keep_everything_at_large_n(self):
        p = three_sensor_law()
        coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        keep = 0
        for seed in range(20):
            blk = sample_block(p, 4096, seed)
            [newV], [emptied] = update_V(tuple(coll.candidates), blk[None], p, im, 0.35)
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
            [newV], [emptied] = update_V(tuple(coll.candidates), blk[None], p, im, 0.35)
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
        [newV], [emptied] = update_V(tuple(coll.candidates), blk[None], p, im, 0.5)
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
        garbage = np.stack([blocks[0][0], blocks[0][1],
                            np.random.default_rng(3).integers(0, 2, 4096)])
        ests = np.stack(blocks + [garbage, garbage])
        trajectory, emptied = update_V(tuple(coll.candidates), ests, p, im, 0.35)
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
    ``tests/oracles.py`` plays them one at a time. Every report field
    agrees, the transcript's (round, sensor, j) triples among them."""

    @staticmethod
    def _both(p, coll, im, h_true, r_true, make_strategy, params, seeds):
        for seed in seeds:
            got, want = (session(p, coll, im, h_true, r_true, make_strategy(), params,
                                 seed=seed)
                         for session in (run_session, sequential_run_session))
            assert report_differences(got, want) == [], seed
            yield got

    def _three_sensor(self, strategy_kind, seeds, rounds=50):
        from byzsw.scenario import PRESETS, scenario_from_dict
        from byzsw.source_model import derive_seed
        doc = PRESETS["three_sensor"]()
        doc["strategy"] = {"kind": strategy_kind}      # a null q_bar is the optimal one
        doc["variable_rate"]["rounds"] = rounds
        scn = scenario_from_dict(doc)
        return list(self._both(
            scn.p, scn.collection, scn.info_model, scn.honest_true, None,
            lambda: scn.strategy, scn.vr,
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
        # U(V) loses a sensor before the last round in two of the trials
        shrunk = [next((r for r, V in enumerate(rep.v_trajectory[1:-1])
                        if len({i for S in V for i in S}) < 3), None) for rep in reps]
        assert sum(r is not None for r in shrunk) >= 2

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
