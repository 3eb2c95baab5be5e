"""Tests for the probability and method-of-types core."""
import itertools
import math

import numpy as np
import pytest

from byzsw.prob_core import (
    ConditionalPMF,
    EmpiricalType,
    JointPMF,
    SubsetView,
    channel_conditional_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    entropy_of_table,
    eta_ball_contains,
    identity_channel,
    marginal,
    marginalize_info_channel,
    subset_entropy,
    type_of,
)
from byzsw.source_model import sample_block

from oracles import brute_entropy, brute_marginal, literal_typicality_check


def h2(x: float) -> float:
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def random_pmf(rng, sizes) -> JointPMF:
    cells = int(np.prod(sizes))
    return JointPMF(tuple(sizes), rng.dirichlet(np.ones(cells)).reshape(sizes))


def dsbs(cross: float) -> JointPMF:
    q = cross / 2
    return JointPMF((2, 2), np.array([[0.5 - q, q], [q, 0.5 - q]]))


class TestInvariants:
    def test_pmf_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            JointPMF((2,), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            JointPMF((2,), np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            JointPMF((2, 2), np.full(4, 0.25))   # wrong shape

    def test_subset_view_requires_increasing(self):
        with pytest.raises(ValueError):
            SubsetView((1, 1))
        with pytest.raises(ValueError):
            SubsetView((2, 1))
        assert SubsetView.of(2, 0, 2).indices == (0, 2)

    def test_empirical_type_counts_must_sum(self):
        with pytest.raises(ValueError):
            EmpiricalType((2,), np.array([1, 2]), 4)
        t = EmpiricalType((2,), np.array([1, 3]), 4)
        assert t.normalized().mass[1] == 0.75

    def test_channel_rows_must_normalize(self):
        with pytest.raises(ValueError):
            ConditionalPMF((2,), 2, np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestMarginal:
    def test_factorized_law(self):
        # product law p(x0)p(x1): marginal recovers the factor exactly
        p0 = np.array([0.3, 0.7])
        p1 = np.array([0.6, 0.4])
        p = JointPMF((2, 2), np.outer(p0, p1))
        assert np.allclose(marginal(p, SubsetView.of(0)).mass, p0, atol=1e-15)

    def test_full_set_is_identity(self):
        rng = np.random.default_rng(0)
        p = random_pmf(rng, (2, 3))
        assert np.allclose(marginal(p, SubsetView.of(0, 1)).mass, p.mass)

    def test_correlated_three_bit_vs_hand_summation(self):
        rng = np.random.default_rng(1)
        p = random_pmf(rng, (2, 2, 2))
        got = marginal(p, SubsetView.of(0, 2)).mass
        want = brute_marginal(p.mass, (0, 2))
        assert np.allclose(got, want, atol=1e-14)

    def test_empty_subset_rejected(self):
        p = dsbs(0.1)
        with pytest.raises(ValueError):
            marginal(p, SubsetView(()))


class TestEntropy:
    def test_uniform_binary(self):
        p = JointPMF((2, 2), np.full((2, 2), 0.25))
        assert entropy(p, SubsetView.of(0)) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        mass = np.zeros((2, 2))
        mass[1, 0] = 1.0
        p = JointPMF((2, 2), mass)
        assert entropy(p) == 0.0

    def test_half_quarter_quarter(self):
        # -0.5 lg 0.5 - 2 * 0.25 lg 0.25 = 0.5 + 1.0 = 1.5 exactly
        p = JointPMF((3,), np.array([0.5, 0.25, 0.25]))
        assert entropy(p) == pytest.approx(1.5, abs=1e-12)

    def test_conditional_independent(self):
        p0 = np.array([0.3, 0.7])
        p1 = np.array([0.1, 0.9])
        p = JointPMF((2, 2), np.outer(p0, p1))
        assert conditional_entropy(p, SubsetView.of(1), SubsetView.of(0)) == \
            pytest.approx(brute_entropy(p1), abs=1e-12)

    def test_conditional_deterministic_function(self):
        mass = np.zeros((2, 2))
        mass[0, 0] = 0.4
        mass[1, 1] = 0.6
        p = JointPMF((2, 2), mass)
        assert conditional_entropy(p, SubsetView.of(1), SubsetView.of(0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_dsbs_crossover(self):
        p = dsbs(0.11)
        assert conditional_entropy(p, SubsetView.of(1), SubsetView.of(0)) == \
            pytest.approx(h2(0.11), abs=1e-12)

    def test_overlap_rejected(self):
        p = dsbs(0.11)
        with pytest.raises(ValueError):
            conditional_entropy(p, SubsetView.of(0), SubsetView.of(0, 1))


def unmemoized_entropy(p: JointPMF, s: SubsetView) -> float:
    """H(X_s) with the arithmetic entropy() used before it was memoized: the
    full set reads the table itself, any other set its renormalized
    marginal."""
    if len(s) == p.m:
        return entropy_of_table(p.mass)
    return entropy_of_table(marginal(p, s).mass)


def filled_masks(p: JointPMF) -> set[int]:
    """Masks whose entry the law's entropy table holds (0 is set with it)."""
    return {mask for mask, h in enumerate(p._entropies) if h is not None}


class TestEntropyMemo:
    @staticmethod
    def nonempty_subsets(m):
        return [SubsetView(c) for k in range(1, m + 1)
                for c in itertools.combinations(range(m), k)]

    def test_memo_is_bit_identical_to_fresh_arithmetic(self):
        rng = np.random.default_rng(71)
        for m in range(3, 8):
            p = random_pmf(rng, (2,) * m)
            assert p._entropies == []
            subsets = self.nonempty_subsets(m)
            for _ in range(2):          # first fills the memo, second reads it
                for s in subsets:
                    assert entropy(p, s).hex() == unmemoized_entropy(p, s).hex(), (m, s)
            assert filled_masks(p) == set(range(1 << m))
            assert entropy(p).hex() == entropy_of_table(p.mass).hex()

    @pytest.mark.parametrize("sizes", [(3,), (2, 3), (3, 2, 2), (2, 3, 2, 3), (3, 2, 2, 2, 3),
                                       (2, 2, 3, 2, 2, 2), (2,) * 6])
    def test_table_entry_equals_marginal_entropy_for_every_mask(self, sizes):
        # fresh laws per read order: ascending masks, then descending
        rng = np.random.default_rng([75, *sizes])
        m = len(sizes)
        full = (1 << m) - 1
        for order in (range(1 << m), reversed(range(1 << m))):
            p = random_pmf(rng, sizes)
            for mask in order:
                s = SubsetView(tuple(i for i in range(m) if mask >> i & 1))
                if mask == 0:
                    want = 0.0
                elif mask == full:
                    want = entropy_of_table(p.mass)       # the unnormalized table
                else:
                    want = entropy_of_table(marginal(p, s).mass)
                assert subset_entropy(p, mask).hex() == want.hex(), (sizes, mask)
                assert entropy(p, s).hex() == want.hex(), (sizes, mask)
            assert len(p._entropies) == 1 << m

    def test_out_of_range_set_of_full_size_rejected(self):
        p = random_pmf(np.random.default_rng(74), (2, 2, 2))
        with pytest.raises(ValueError, match="out of range"):
            entropy(p, SubsetView.of(0, 1, 5))
        assert p._entropies == []

    def test_laws_never_share_entries(self):
        rng = np.random.default_rng(72)
        sizes = (2, 3, 2)
        p1, p2 = random_pmf(rng, sizes), random_pmf(rng, sizes)
        p1_again = JointPMF(sizes, p1.mass)
        subsets = self.nonempty_subsets(3)
        for s in subsets:
            entropy(p1, s)
        assert p2._entropies == [] and p1_again._entropies == []
        for s in subsets:
            assert entropy(p2, s).hex() == unmemoized_entropy(p2, s).hex()
            assert entropy(p2, s) != entropy(p1, s)
        assert p1._entropies is not p2._entropies
        assert p1._entropies is not p1_again._entropies

    def test_conditional_forms_read_the_memo(self):
        rng = np.random.default_rng(73)
        p = random_pmf(rng, (2, 2, 3, 2))
        a, b, c = SubsetView.of(0), SubsetView.of(1, 2), SubsetView.of(3)
        want_h = unmemoized_entropy(p, SubsetView.of(0, 1, 2)) - unmemoized_entropy(p, b)
        assert conditional_entropy(p, a, b) == want_h
        h = {k: unmemoized_entropy(p, SubsetView(k))
             for k in [(3,), (0, 3), (1, 2, 3), (0, 1, 2, 3)]}
        want_i = ((h[0, 3] - h[3,]) + (h[1, 2, 3] - h[3,])) - (h[0, 1, 2, 3] - h[3,])
        assert conditional_mutual_information(p, a, b, given=c) == want_i
        assert filled_masks(p) == {SubsetView(k).mask for k in [
            (), (3,), (1, 2), (0, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2, 3)]}


class TestMutualInformation:
    def test_independent_triple(self):
        rng = np.random.default_rng(2)
        mass = np.einsum("i,j,k->ijk", rng.dirichlet((2, 2)),
                         rng.dirichlet((2, 2)), rng.dirichlet((2, 2)))
        p = JointPMF((2, 2, 2), mass)
        v = conditional_mutual_information(p, SubsetView.of(0), SubsetView.of(1),
                                           given=SubsetView.of(2))
        assert abs(v) < 1e-12

    def test_copy_self_information(self):
        mass = np.zeros((2, 2))
        mass[0, 0] = 0.25
        mass[1, 1] = 0.75
        p = JointPMF((2, 2), mass)
        v = conditional_mutual_information(p, SubsetView.of(0), SubsetView.of(1))
        assert v == pytest.approx(h2(0.25), abs=1e-12)

    def test_correlated_three_bit_vs_entropy_arithmetic(self):
        rng = np.random.default_rng(3)
        p = random_pmf(rng, (2, 2, 2))
        got = conditional_mutual_information(p, SubsetView.of(0), SubsetView.of(1),
                                             given=SubsetView.of(2))
        # oracle: direct entropy differences from brute-force marginals
        h = brute_entropy
        want = (h(brute_marginal(p.mass, (0, 2))) + h(brute_marginal(p.mass, (1, 2)))
                - h(p.mass) - h(brute_marginal(p.mass, (2,))))
        assert got == pytest.approx(want, abs=1e-10)

    def test_three_way_form(self):
        rng = np.random.default_rng(4)
        p = random_pmf(rng, (2, 2, 2, 2))
        got = conditional_mutual_information(
            p, SubsetView.of(0), SubsetView.of(1), SubsetView.of(2),
            given=SubsetView.of(3))
        h = brute_entropy
        hw = h(brute_marginal(p.mass, (3,)))
        want = (h(brute_marginal(p.mass, (0, 3))) - hw
                + h(brute_marginal(p.mass, (1, 3))) - hw
                + h(brute_marginal(p.mass, (2, 3))) - hw
                - (h(p.mass) - hw))
        assert got == pytest.approx(want, abs=1e-10)

    def test_overlap_rejected(self):
        p = dsbs(0.11)
        with pytest.raises(ValueError):
            conditional_mutual_information(p, SubsetView.of(0), SubsetView.of(0))


class TestTypes:
    def test_direct_count(self):
        x0 = np.array([0, 0, 1, 1])
        x1 = np.array([0, 1, 0, 1])
        t = type_of(np.stack([x0, x1]), (2, 2))
        assert t.n == 4
        assert np.all(t.counts == 1)

    def test_constant_sequences(self):
        t = type_of(np.ones((2, 5), dtype=int), (2, 2))
        assert t.counts[1, 1] == 5
        assert t.counts.sum() == 5

    def test_random_block_vs_independent_recount(self):
        rng = np.random.default_rng(5)
        block = rng.integers(0, 3, size=(2, 50))
        t = type_of(block, (3, 3))
        recount = np.zeros((3, 3), dtype=int)
        for k in range(50):
            recount[block[0, k], block[1, k]] += 1
        assert np.array_equal(t.counts, recount)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            type_of(np.array([[0, 1], [0, 1]]), (2,))

    def test_normalized_type_is_valid_pmf(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            block = rng.integers(0, 2, size=(3, 17))
            t = type_of(block, (2, 2, 2))
            q = t.normalized()
            assert abs(q.mass.sum() - 1) < 1e-12


class TestEtaBall:
    def test_exact_match_eta_zero(self):
        q = JointPMF((2, 2), np.array([[0.25, 0.25], [0.25, 0.25]]))
        t = EmpiricalType((2, 2), np.full((2, 2), 2), 8)
        assert eta_ball_contains(q, t, 0.0)

    def test_vacuous_eta(self):
        q = JointPMF((2, 2), np.array([[0.97, 0.01], [0.01, 0.01]]))
        t = EmpiricalType((2, 2), np.array([[0, 0], [0, 8]]), 8)
        assert eta_ball_contains(q, t, 4.0)   # eta >= |alphabet| is vacuous

    def test_constructed_violation(self):
        eta = 0.2
        q = JointPMF((2, 2), np.array([[0.25, 0.25], [0.25, 0.25]]))
        # perturb one cell by 2*eta/|alphabet| = 0.1: outside the ball
        t = JointPMF((2, 2), np.array([[0.35, 0.15], [0.25, 0.25]]))
        assert not eta_ball_contains(q, t, eta)
        assert eta_ball_contains(q, t, 2 * eta)

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = random_pmf(rng, (2, 2))
            block = rng.integers(0, 2, size=(2, 11))
            t = type_of(block, (2, 2))
            eta = float(rng.uniform(0, 1.5))
            if eta_ball_contains(q, t, eta):
                assert eta_ball_contains(q, t, eta + float(rng.uniform(0, 1)))


class TestStronglyTypical:
    """x^n is strongly typical for p iff its type lies in B_eps(p)."""

    def test_all_heads_not_typical(self):
        p = JointPMF((2,), np.array([0.5, 0.5]))
        assert not eta_ball_contains(p, type_of(np.ones((1, 20), dtype=int), (2,)), 0.2)

    def test_exact_type_is_typical(self):
        p = JointPMF((2,), np.array([0.5, 0.5]))
        x = np.array([[0, 1] * 10])
        assert eta_ball_contains(p, type_of(x, (2,)), 0.0)

    def test_iid_samples_typical_with_high_frequency(self):
        # uniform binary source, n = 10^4, eps = 0.05: the per-cell tolerance
        # is 10 sigma, so typicality holds essentially always
        p = JointPMF((2,), np.array([0.5, 0.5]))
        hits = 0
        for seed in range(100):
            block = sample_block(p, 10_000, seed)
            hits += eta_ball_contains(p, type_of(block, (2,)), 0.05)
        assert hits >= 99

    def test_agrees_with_literal_frequency_check(self):
        rng = np.random.default_rng(8)
        agree = 0
        for _ in range(1000):
            p = random_pmf(rng, (2, 2))
            block = rng.integers(0, 2, size=(2, 9))
            eps = float(rng.uniform(0, 1.0))
            agree += (eta_ball_contains(p, type_of(block, (2, 2)), eps)
                      == literal_typicality_check(block, p, eps))
        assert agree == 1000


class TestInfoChannel:
    def test_deterministic_copy_channel(self):
        # W = X_H exactly: collapsed rows are one-hot on x_h
        p = dsbs(0.2)
        rows = np.zeros((2, 2, 2))
        for x0 in range(2):
            for x1 in range(2):
                rows[x0, x1, x0] = 1.0
        r = ConditionalPMF((2, 2), 2, rows)
        rt = marginalize_info_channel(r, p, SubsetView.of(0))
        assert np.allclose(rt.rows, np.eye(2), atol=1e-12)

    def test_input_independent_channel_unchanged(self):
        p = dsbs(0.2)
        rows = np.broadcast_to(np.array([0.3, 0.7]), (2, 2, 2)).copy()
        r = ConditionalPMF((2, 2), 2, rows)
        rt = marginalize_info_channel(r, p, SubsetView.of(1))
        assert np.allclose(rt.rows, np.broadcast_to(np.array([0.3, 0.7]), (2, 2)))

    def test_perfect_information_rows_embed_conditional(self):
        rng = np.random.default_rng(9)
        p = random_pmf(rng, (2, 2))
        r = identity_channel((2, 2))
        rt = marginalize_info_channel(r, p, SubsetView.of(0))
        # oracle: direct summation of p(x1 | x0) into W = (x0, x1) cells
        for x0 in range(2):
            px0 = p.mass[x0].sum()
            for w in range(4):
                w0, w1 = divmod(w, 2)
                want = (p.mass[x0, w1] / px0) if w0 == x0 else 0.0
                assert rt.rows[x0, w] == pytest.approx(want, abs=1e-12)

    def test_zero_probability_row_flagged_uniform(self):
        mass = np.array([[0.5, 0.5], [0.0, 0.0]])
        p = JointPMF((2, 2), mass)
        r = identity_channel((2, 2))
        rt = marginalize_info_channel(r, p, SubsetView.of(0))
        assert rt.uniform_filled_rows == (1,)
        assert np.allclose(rt.rows[1], 0.25)

    def test_channel_conditional_entropy_perfect_info_is_zero(self):
        rng = np.random.default_rng(10)
        p = random_pmf(rng, (2, 2, 2))
        r = identity_channel((2, 2, 2))
        assert channel_conditional_entropy(p, r, SubsetView.of(0, 1)) == \
            pytest.approx(0.0, abs=1e-9)


class TestChainRuleProperty:
    def test_chain_rule_random_small_pmfs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_pmf(rng, (2, 2, 2))
            a = SubsetView.of(0)
            b = SubsetView.of(1, 2)
            lhs = entropy(p, a.union(b))
            rhs = entropy(p, a) + conditional_entropy(p, b, a)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_cmi_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = random_pmf(rng, (2, 2, 2))
            v = conditional_mutual_information(p, SubsetView.of(0), SubsetView.of(1),
                                               given=SubsetView.of(2))
            assert v >= -1e-9
