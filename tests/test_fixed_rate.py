"""Tests for the one-shot fixed-rate protocol."""
import math

import numpy as np
import pytest

from byzsw.adversary import (
    BlackHole,
    FakeDistribution,
    FixedRateAmbiguity,
    HonestPassthrough,
    TraitorContext,
    optimal_fake_conditional,
)
from byzsw.binning import (
    EnumerationGuardError,
    all_sequences,
    bin_count_for_rate,
    fixed_rate_header,
    hash_rows,
)
from byzsw.fixed_rate import (
    COMBO_GUARD,
    FixedRateCode,
    _first_typical,
    decode_all,
    encode_all,
    run_fixed_rate_trial,
)
from byzsw.prob_core import JointPMF, SubsetView, identity_channel, marginal
from byzsw.rate_region import HonestCollection
from byzsw.source_model import (
    derive_seed,
    sample_block,
    sample_side_infos,
)
from oracles import reference_first_typical


def chain_law(cross=0.15) -> JointPMF:
    mass = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            for x2 in range(2):
                pr = 0.5
                pr *= 1 - cross if x1 == x0 else cross
                pr *= 1 - cross if x2 == x1 else cross
                mass[x0, x1, x2] = pr
    return JointPMF((2, 2, 2), mass)


def copy_pair() -> JointPMF:
    mass = np.zeros((2, 2))
    mass[0, 0] = 0.8
    mass[1, 1] = 0.2
    return JointPMF((2, 2), mass)


H3 = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])


def make_ctx(p, honest, n, seed):
    traitors = honest.complement(p.m)
    block = sample_block(p, n, derive_seed(seed, "b"))
    w = sample_side_infos(identity_channel(p.alphabet_sizes), block[None],
                          derive_seed(seed, "w"), [0])
    return TraitorContext(traitors=traitors, seed=derive_seed(seed, "t"), law=p,
                          w_block=w, own_block=block[None, list(traitors.indices)]), block


class TestEncode:
    def test_all_honest_deterministic_under_seed(self):
        p = chain_law()
        code = FixedRateCode(rates=(1.0, 1.0, 1.0), n=12, seed=3)
        block = sample_block(p, 12, 1)
        a = encode_all(code, block, None, None, p, seed=9)
        b = encode_all(code, block, None, None, p, seed=9)
        assert a == b
        assert all(c == 0 for c, _ in a.values())

    def test_randomized_c_varies_and_in_range(self):
        p = chain_law()
        code = FixedRateCode(rates=(1.0, 1.0, 1.0), n=12, C=8, seed=3)
        block = sample_block(p, 12, 1)
        cs = set()
        for seed in range(12):
            msgs = encode_all(code, block, None, None, p, seed=seed)
            for i, (c, idx) in msgs.items():
                assert 0 <= c < 8
                assert 0 <= idx < bin_count_for_rate(12, 1.0)
                cs.add(c)
        assert len(cs) > 1

    def test_black_hole_messages_in_range(self):
        p = chain_law()
        code = FixedRateCode(rates=(0.8, 0.8, 0.8), n=12, C=4, seed=3)
        ctx, block = make_ctx(p, SubsetView.of(1, 2), 12, 5)
        msgs = encode_all(code, block, BlackHole(), ctx, p, seed=6)
        c, idx = msgs[0]
        assert 0 <= c < 4
        assert 0 <= idx < bin_count_for_rate(12, 0.8)

    def test_randomized_c1_reduces_to_deterministic(self):
        p = chain_law()
        block = sample_block(p, 12, 2)
        code = FixedRateCode(rates=(0.9, 0.7, 0.9), n=12, C=1, seed=17)
        assert encode_all(code, block, None, None, p, seed=8) == {
            i: (0, code.encode(i, 2, block[i])) for i in range(3)}

    def test_kind_follows_subcodebook_count(self):
        assert FixedRateCode(rates=(1.0,), n=4).kind == "deterministic"
        assert FixedRateCode(rates=(1.0,), n=4, C=8).kind == "randomized"


class TestDecode:
    def test_corner_plus_margin_all_honest(self):
        # SW corner (H(X0), H(X1|X0)) = (1.0, h(0.11) ~ 0.5) for the
        # correlated pair. At n = 14 the type fluctuation per cell is ~0.13,
        # so the typicality ball cannot disambiguate bin mates; the margin
        # must be large enough (+0.8 here) that spurious bin matches are
        # rare, i.e. 2^{n(1-R)} << 1. Truth then decodes in >= 95% of trials.
        q = 0.11 / 2
        p = JointPMF((2, 2), np.array([[0.5 - q, q], [q, 0.5 - q]]))
        coll = HonestCollection.explicit([[0, 1]])
        code_rates = (1.8, 1.3)
        wins = 0
        for seed in range(100):
            code = FixedRateCode(rates=code_rates, n=14, seed=derive_seed(seed, "code"),
                                 eps_decode=1.4)
            block = sample_block(p, 14, derive_seed(seed, "blk"))
            msgs = encode_all(code, block, None, None, p, seed=seed)
            table = decode_all(code, msgs, p, coll)
            ok = all(table.final[i] is not None
                     and np.array_equal(table.final[i], block[i])
                     for i in range(2))
            wins += ok
        assert wins >= 95

    def test_fake_distribution_randomized_keeps_honest_correct(self):
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        from byzsw.rate_region import r_star_perfect
        rep = r_star_perfect(p, H3)
        q_bar = optimal_fake_conditional(rep.per_pair_detail[h_true][2],
                                         h_true, (2, 2, 2))
        wins = 0
        for seed in range(50):
            code = FixedRateCode(rates=(1.4, 1.4, 1.4), n=14, C=8,
                                 seed=derive_seed(seed, "code"), eps_decode=1.4)
            ctx, block = make_ctx(p, h_true, 14, seed)
            msgs = encode_all(code, block, FakeDistribution(q_bar), ctx, p,
                              seed=derive_seed(seed, "h"))
            table = decode_all(code, msgs, p, H3)
            wins += all(table.final[i] is not None
                        and np.array_equal(table.final[i], block[i])
                        for i in h_true)
        assert wins >= 45

    def test_garbage_traitor_honest_set_still_decodes(self):
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        wins = 0
        for seed in range(50):
            code = FixedRateCode(rates=(1.4, 1.4, 1.4), n=14, C=8,
                                 seed=derive_seed(seed, "code"), eps_decode=1.4)
            ctx, block = make_ctx(p, h_true, 14, seed)
            msgs = encode_all(code, block, BlackHole(), ctx, p,
                              seed=derive_seed(seed, "h"))
            table = decode_all(code, msgs, p, H3)
            est = table.per_set[SubsetView.of(1, 2)]
            wins += (est is not None
                     and np.array_equal(est[0], block[1])
                     and np.array_equal(est[1], block[2]))
        assert wins >= 47

    def test_full_rate_recovers_everything(self):
        # componentwise above log2|X|+0.6: spurious bin mates ~2^-7 per
        # sensor, so the decoder recovers every coordinate almost always
        p = chain_law()
        wins = 0
        for seed in range(30):
            code = FixedRateCode(rates=(1.6, 1.6, 1.6), n=12,
                                 seed=derive_seed(seed, "code"), eps_decode=1.6)
            block = sample_block(p, 12, derive_seed(seed, "blk"))
            msgs = encode_all(code, block, None, None, p, seed=seed)
            table = decode_all(code, msgs, p, H3)
            wins += all(table.final[i] is not None
                        and np.array_equal(table.final[i], block[i])
                        for i in range(3))
        assert wins >= 29

    def test_honest_passthrough_traitor_equivalent(self):
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        code = FixedRateCode(rates=(1.2, 1.2, 1.2), n=12, seed=21, eps_decode=1.6)
        ctx, block = make_ctx(p, h_true, 12, 31)
        msgs_honest = encode_all(code, block, None, None, p, seed=41)
        msgs_pass = encode_all(code, block, HonestPassthrough(), ctx, p, seed=41)
        assert msgs_honest == msgs_pass


def assert_same_tuple(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


class TestFirstTypicalOracle:
    """The per-set search, a block of candidate tuples per ``bincount``,
    against the tuple-by-tuple loop it replaced
    (``oracles.reference_first_typical``)."""

    @pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2),
                                       (3, 2, 3)])
    def test_seeded_instances(self, sizes):
        rng = np.random.default_rng([15, *sizes])
        outcomes = set()
        for _ in range(40):
            p_s = JointPMF(sizes, rng.dirichlet(np.ones(math.prod(sizes))).reshape(sizes))
            n = int(rng.integers(4, 11))
            rows = [rng.integers(0, a, (int(rng.integers(0, 7)), n)).astype(np.uint8)
                    for a in sizes]
            eps = float(rng.uniform(0.2, 2.5)) * len(sizes)
            want = reference_first_typical(p_s, rows, eps)
            assert_same_tuple(_first_typical(p_s, rows, eps), want)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_empty_bin_gives_none(self):
        p_s = JointPMF((2, 2), np.full((2, 2), 0.25))
        rows = [np.zeros((3, 6), dtype=np.uint8), np.zeros((0, 6), dtype=np.uint8)]
        assert _first_typical(p_s, rows, 100.0) is None
        assert reference_first_typical(p_s, rows, 100.0) is None

    def test_first_in_product_order_wins_on_the_ball_edge(self):
        # uniform over four cells at n = 4 with eps = 1: the tolerance is
        # 1/4, so counts of 0 and 2 sit exactly on the edge and are typical
        p_s = JointPMF((2, 2), np.full((2, 2), 0.25))
        first = np.array([[0, 0, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
        second = np.array([[0, 0, 0, 0], [0, 1, 0, 1]], dtype=np.uint8)
        # product order: (0,0) atypical (count 4), then (0,1), (1,0), (1,1)
        got = _first_typical(p_s, [first, second], 1.0)
        assert_same_tuple(got, (first[0].astype(np.int64), second[1].astype(np.int64)))
        assert_same_tuple(got, reference_first_typical(p_s, [first, second], 1.0))
        # just inside the edge only the balanced tuple (1,1) is left
        got = _first_typical(p_s, [first, second], 0.999)
        assert_same_tuple(got, (first[1].astype(np.int64), second[1].astype(np.int64)))

    @pytest.mark.parametrize("sizes", [(2,), (2, 3), (3, 2, 2)])
    def test_tolerance_on_a_tuple_distance(self, sizes):
        # eps set from one tuple's own distance, so eps/cells lands on (or
        # within rounding of) a count the search must classify
        rng = np.random.default_rng([16, *sizes])
        cells = math.prod(sizes)
        for _ in range(30):
            p_s = JointPMF(sizes, rng.dirichlet(np.ones(cells)).reshape(sizes))
            n = int(rng.integers(3, 9))
            rows = [rng.integers(0, a, (int(rng.integers(1, 5)), n)).astype(np.uint8)
                    for a in sizes]
            tup = np.stack([r[int(rng.integers(len(r)))] for r in rows]).astype(np.int64)
            flat = np.ravel_multi_index(tuple(tup), sizes)
            counts = np.bincount(flat, minlength=cells)
            eps = float(np.max(np.abs(p_s.mass.reshape(-1) - counts / n))) * cells
            assert_same_tuple(_first_typical(p_s, rows, eps),
                              reference_first_typical(p_s, rows, eps))

    def test_winner_past_the_first_block(self):
        # 90 x 90 tuples; only (80, 50) is typical, past the first block
        p_s = JointPMF((2, 2), np.full((2, 2), 0.25))
        first = np.zeros((90, 4), dtype=np.uint8)
        second = np.zeros((90, 4), dtype=np.uint8)
        first[80] = [0, 0, 1, 1]
        second[50] = [0, 1, 0, 1]
        got = _first_typical(p_s, [first, second], 0.999)
        assert_same_tuple(got, (first[80].astype(np.int64), second[50].astype(np.int64)))
        assert_same_tuple(got, reference_first_typical(p_s, [first, second], 0.999))

    def test_guard(self):
        p_s = JointPMF((2, 2), np.full((2, 2), 0.25))
        k = math.isqrt(COMBO_GUARD) + 1
        rows = [np.zeros((k, 4), dtype=np.uint8)] * 2
        with pytest.raises(EnumerationGuardError):
            _first_typical(p_s, rows, 1.0)

    @pytest.mark.parametrize("kind", ["ambiguity", "garbage"])
    def test_decode_all_per_set_against_the_loop(self, kind):
        # whole trials, members from hash_rows over the whole space
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        for seed in range(15):
            code = FixedRateCode(rates=(0.92, 0.75, 0.95), n=14,
                                 seed=derive_seed(seed, "code"), eps_decode=1.4)
            strategy = (FixedRateAmbiguity(SubsetView.of(0, 1)) if kind == "ambiguity"
                        else BlackHole())
            ctx, block = make_ctx(p, h_true, 14, seed)
            msgs = encode_all(code, block, strategy, ctx, p, seed=derive_seed(seed, "h"))
            table = decode_all(code, msgs, p, H3)
            seqs = all_sequences(2, 14)
            members = {}
            for i, (c, idx) in msgs.items():
                bins = hash_rows(code.seed, [[fixed_rate_header(i, c)] * len(seqs)], seqs,
                                 [bin_count_for_rate(14, code.rates[i])])[0]
                members[i] = seqs[np.flatnonzero(bins == idx)]
            for S in H3.candidates:
                assert_same_tuple(table.per_set[S],
                                  reference_first_typical(marginal(p, S),
                                                          [members[i] for i in S], 1.4))


class TestPlurality:
    def test_plurality_prefers_majority_value(self):
        # four sensors, rates high enough that per-set estimates are exact;
        # the plurality switch must agree with the preference order here
        mass = np.zeros((2,) * 4)
        for x in np.ndindex(*(2,) * 4):
            pr = 0.5
            for i in (1, 2, 3):
                pr *= 0.85 if x[i] == x[0] else 0.15
            mass[x] = pr
        p = JointPMF((2, 2, 2, 2), mass)
        coll = HonestCollection.threshold(4, 1)
        h_true = SubsetView.of(1, 2, 3)
        from byzsw.rate_region import r_star_perfect
        rep = r_star_perfect(p, coll)
        q_bar = optimal_fake_conditional(rep.per_pair_detail[h_true][2],
                                         h_true, (2, 2, 2, 2))
        for seed in range(10):
            code = FixedRateCode(rates=(2.3, 2.3, 2.3, 2.3), n=10, C=8,
                                 seed=derive_seed(seed, "code"), eps_decode=3.2,
                                 plurality=True)
            ctx, block = make_ctx(p, h_true, 10, seed)
            msgs = encode_all(code, block, FakeDistribution(q_bar), ctx, p,
                              seed=derive_seed(seed, "h"))
            t_plur = decode_all(code, msgs, p, coll)
            for i in h_true:
                if t_plur.final[i] is not None:
                    assert np.array_equal(t_plur.final[i], block[i])


def converse(code, p, H, honest_true, seed):
    """(attack found, honest error) of one trial against the ambiguity
    attack on the candidate set {0, 1}."""
    strategy = FixedRateAmbiguity(SubsetView.of(0, 1))
    _block, _table, wrong = run_fixed_rate_trial(code, p, H, honest_true, strategy, seed)
    outcome = strategy.last_outcome
    return outcome is not None and outcome.found, bool(wrong)


class TestConverseDemo:
    def test_below_region_error_frequency(self):
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        errors = 0
        found = 0
        for seed in range(40):
            code = FixedRateCode(rates=(0.92, 0.75, 0.95), n=14,
                                 seed=derive_seed(seed, "code"), eps_decode=1.4)
            attack_found, honest_error = converse(code, p, H3, h_true,
                                                  derive_seed(seed, "demo"))
            found += attack_found
            errors += honest_error
        assert found >= 35
        assert errors >= 0.2 * 40

    def test_inside_region_attack_rarely_lands(self):
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        errors = 0
        for seed in range(40):
            code = FixedRateCode(rates=(1.5, 1.5, 1.5), n=14,
                                 seed=derive_seed(seed, "code"), eps_decode=1.4)
            _found, honest_error = converse(code, p, H3, h_true,
                                            derive_seed(seed, "demo"))
            errors += honest_error
        assert errors <= 2

    def test_no_traitors_attack_inapplicable(self):
        # zero traitors: nobody can emit attack messages, so the attack never
        # fires, and an honest error is only the code's own bin collision:
        # another sequence in a sensor's bin whose type is also in the ball,
        # 3 to 4 of 200 seeds (about 2%) at n = 12
        p = chain_law()
        coll = HonestCollection.explicit([[0, 1, 2], [1, 2]])
        everyone = SubsetView.of(0, 1, 2)
        # the candidate set {0,1,2} has 8 cells, so the ball needs
        # eps_decode ~ 3 for the true triple's type to sit inside it at n=12
        code = FixedRateCode(rates=(1.6, 1.6, 1.6), n=12, seed=2, eps_decode=3.0)
        outcomes = [converse(code, p, coll, everyone, seed) for seed in range(200)]
        assert not any(found for found, _error in outcomes)
        assert sum(error for _found, error in outcomes) <= 10


class TestEstimateTableInvariants:
    def test_final_is_one_of_per_set_values(self):
        p = chain_law()
        h_true = SubsetView.of(1, 2)
        for seed in range(20):
            code = FixedRateCode(rates=(1.0, 0.9, 1.0), n=12,
                                 seed=derive_seed(seed, "code"), eps_decode=1.6)
            ctx, block = make_ctx(p, h_true, 12, seed)
            msgs = encode_all(code, block, BlackHole(), ctx, p,
                              seed=derive_seed(seed, "h"))
            table = decode_all(code, msgs, p, H3)
            for i in range(3):
                vals = [tuple(tup[list(S.indices).index(i)])
                        for S in H3.candidates if i in S
                        for tup in [table.per_set[S]] if tup is not None]
                if table.final[i] is None:
                    assert not vals
                else:
                    assert tuple(table.final[i]) in vals
