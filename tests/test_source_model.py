"""Tests for the keyed counter stream and seeded block and side-information
sampling."""
import numpy as np
import pytest
from scipy import stats

from byzsw.prob_core import ConditionalPMF, JointPMF, identity_channel, type_of
from byzsw.source_model import derive_seed, keyed_draws, sample_block, sample_side_infos
from oracles import reference_draw


def copy_pair(p0: float) -> JointPMF:
    mass = np.zeros((2, 2))
    mass[0, 0] = p0
    mass[1, 1] = 1 - p0
    return JointPMF((2, 2), mass)


def side_info(r: ConditionalPMF, blk: np.ndarray, seed: int) -> np.ndarray:
    """The one-round side information of an (m, n) block."""
    return sample_side_infos(r, blk[None], seed, [0])[0]


class TestSampleBlock:
    def test_point_mass_constant_block(self):
        mass = np.zeros((2, 3))
        mass[1, 2] = 1.0
        p = JointPMF((2, 3), mass)
        blk = sample_block(p, 64, 5)
        assert blk.shape == (2, 64) and blk.dtype == np.int64
        assert np.all(blk[0] == 1)
        assert np.all(blk[1] == 2)

    def test_same_seed_same_block(self):
        p = copy_pair(0.5)
        a = sample_block(p, 100, 77)
        b = sample_block(p, 100, 77)
        assert np.array_equal(a, b)
        c = sample_block(p, 100, 78)
        assert not np.array_equal(a, c)

    def test_uniform_2x2_frequencies(self):
        p = JointPMF((2, 2), np.full((2, 2), 0.25))
        blk = sample_block(p, 100_000, 13)
        t = type_of(blk, (2, 2)).normalized().mass
        assert np.max(np.abs(t - 0.25)) < 0.01

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_block(copy_pair(0.5), 0, 1)


class TestSideInfo:
    def test_deterministic_copy_of_sensor_zero(self):
        p = copy_pair(0.4)
        blk = sample_block(p, 200, 3)
        rows = np.zeros((2, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                rows[x0, x1, x0] = 1.0
        r = ConditionalPMF((2, 2), 2, rows)
        w = side_info(r, blk, 4)
        assert np.array_equal(w, blk[0])

    def test_uniform_channel_marginal(self):
        p = copy_pair(0.4)
        blk = sample_block(p, 100_000, 5)
        rows = np.full((2, 2, 4), 0.25)
        r = ConditionalPMF((2, 2), 4, rows)
        w = side_info(r, blk, 6)
        freqs = np.bincount(w, minlength=4) / blk.shape[1]
        assert np.max(np.abs(freqs - 0.25)) < 0.01

    def test_seeded_repeatability(self):
        p = copy_pair(0.7)
        blk = sample_block(p, 500, 8)
        r = identity_channel((2, 2))
        a = side_info(r, blk, 9)
        b = side_info(r, blk, 9)
        assert np.array_equal(a, b)


class TestJointTypeConvergence:
    def test_block_and_side_info_jointly_typical(self):
        # p: 90/10 copy pair, W = copy of x0. Nonzero joint cells sit at 0.9
        # and 0.1, so the 0.02-ball per-cell tolerance 0.0025 is ~2.6 sigma at
        # n = 1e5; at least 95 of 100 seeds must land inside.
        p = copy_pair(0.9)
        rows = np.zeros((2, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                rows[x0, x1, x0] = 1.0
        r = ConditionalPMF((2, 2), 2, rows)
        target = np.zeros((2, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                target[x0, x1, x0] = p.mass[x0, x1]
        joint = JointPMF((2, 2, 2), target)
        hits = 0
        for seed in range(100):
            blk = sample_block(p, 100_000, derive_seed(seed, "b"))
            w = side_info(r, blk, derive_seed(seed, "w"))
            stacked = np.vstack([blk, w[None, :]])
            t = type_of(stacked, (2, 2, 2))
            from byzsw.prob_core import eta_ball_contains
            hits += eta_ball_contains(joint, t, 0.02)
        assert hits >= 95


class TestSeedDerivation:
    def test_labels_give_independent_streams(self):
        a = derive_seed(1, "block", 0)
        b = derive_seed(1, "block", 1)
        c = derive_seed(1, "sideinfo", 0)
        assert len({a, b, c}) == 3

    def test_derivation_is_stable(self):
        assert derive_seed(42, "x", 7) == derive_seed(42, "x", 7)


class TestKeyedDraws:
    def test_reference_is_published_splitmix64(self):
        # the first outputs of SplitMix64 seeded with 1234567
        assert [reference_draw(1234567, i) for i in (1, 2)] == [
            6457827717110365317, 3203168211198807973]

    @pytest.mark.parametrize("seed,label", [(0, ("block",)), (2 ** 63 + 5, ("subcode", 3))])
    def test_entries_are_stream_positions(self, seed, label):
        # entry (r, j) is output rounds[r] * 2^32 + j + 1 of the label's key
        rounds, k = [0, 5, 2 ** 20, 1], 7
        key = derive_seed(seed, *label)
        want = [[reference_draw(key, r * 2 ** 32 + j + 1) for j in range(k)] for r in rounds]
        u = keyed_draws(seed, label, rounds, k)
        assert u.dtype == np.float64 and u.shape == (len(rounds), k)
        assert (u * 2.0 ** 53).astype(np.uint64).tolist() == [[z >> 11 for z in row]
                                                              for row in want]
        for bound in (1, 3, 1024, 2 ** 32):
            got = keyed_draws(seed, label, rounds, k, bound)
            assert got.dtype == np.int64
            assert got.tolist() == [[z % bound for z in row] for row in want]

    @pytest.mark.parametrize("bound,rounds,k", [(3, 64, 64), (1024, 128, 128)])
    def test_chi_square_uniformity_of_integers_over_keys(self, bound, rounds, k):
        # 4096 draws over 3 values and 16384 over 1024: the stream should look
        # uniform for nearly every key
        passed = 0
        for seed in range(100):
            draws = keyed_draws(seed, ("chi-square",), range(rounds), k, bound)
            counts = np.bincount(draws.ravel(), minlength=bound)
            passed += stats.chisquare(counts).pvalue > 0.001
        assert passed >= 99

    def test_chi_square_uniformity_of_uniforms_over_keys(self):
        passed = 0
        for seed in range(100):
            u = keyed_draws(seed, ("chi-square",), range(64), 64)
            assert 0.0 <= u.min() and u.max() < 1.0
            counts = np.bincount((u.ravel() * 16).astype(np.int64), minlength=16)
            passed += stats.chisquare(counts).pvalue > 0.001
        assert passed >= 99

    def test_distinct_labels_and_rounds_give_distinct_rows(self):
        rows = [keyed_draws(9, label, [r], 16, 2 ** 32)[0].tobytes()
                for label in [("a",), ("b",), ("a", 1), ("a", 2)] for r in range(4)]
        assert len(set(rows)) == len(rows)
        assert not np.array_equal(keyed_draws(9, ("a",), [0], 16),
                                  keyed_draws(10, ("a",), [0], 16))

    @pytest.mark.parametrize("bounds", [None, 5, [1, 2, 7, 2 ** 32]])
    def test_batch_rows_equal_one_round_calls(self, bounds):
        rounds = [4, 0, 11, 3]
        batch = keyed_draws(21, ("batch",), rounds, 4, bounds)
        for row, r in zip(batch, rounds):
            assert np.array_equal(row, keyed_draws(21, ("batch",), [r], 4, bounds)[0])
        # the first columns do not depend on how many are drawn
        narrow = bounds[:2] if isinstance(bounds, list) else bounds
        assert np.array_equal(batch[:, :2], keyed_draws(21, ("batch",), rounds, 2, narrow))
        assert keyed_draws(21, ("batch",), [], 4, bounds).shape == (0, 4)

    def test_per_column_bounds_respected(self):
        bounds = [1, 2, 3, 40, 2 ** 32]
        draws = keyed_draws(5, ("columns",), range(400), len(bounds), bounds)
        assert draws.shape == (400, len(bounds))
        assert ((0 <= draws) & (draws < np.array(bounds))).all()
        assert [len(set(col)) for col in draws.T.tolist()[:4]] == [1, 2, 3, 40]
        # more than 1000 rounds: the reduction takes its long-row path
        long = keyed_draws(5, ("columns",), range(1500), len(bounds), bounds)
        assert np.array_equal(long[:400], draws)
        assert ((0 <= long) & (long < np.array(bounds))).all()

    @pytest.mark.parametrize("bounds", [0, 2 ** 32 + 1, [2, 3]])
    def test_bad_bounds_refused(self, bounds):
        with pytest.raises(ValueError):
            keyed_draws(5, ("columns",), range(3), 3, bounds)
