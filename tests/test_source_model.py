"""Tests for seeded block and side-information sampling."""
import numpy as np
import pytest

from byzsw.prob_core import ConditionalPMF, JointPMF, identity_channel, type_of
from byzsw.source_model import derive_seed, sample_block, sample_side_infos


def copy_pair(p0: float) -> JointPMF:
    mass = np.zeros((2, 2))
    mass[0, 0] = p0
    mass[1, 1] = 1 - p0
    return JointPMF((2, 2), mass)


def side_info(r: ConditionalPMF, blk: np.ndarray, seed: int) -> np.ndarray:
    """The one-round side information of an (m, n) block."""
    return sample_side_infos(r, blk[None], [seed])[0]


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
