"""Tests for the rate-region calculators."""
import functools
import itertools
import math

import numpy as np
import pytest

from byzsw.prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    identity_channel,
)
from byzsw.rate_region import (
    HonestCollection,
    InfoModel,
    closed_form_t,
    deterministic_extra_constraints,
    fixed_rate_region_contains,
    max_entropy_with_marginals,
    q_set_feasible,
    r_star_general,
    r_star_perfect,
    sw_region_contains,
)
from byzsw import rate_region
from byzsw.binning import EnumerationGuardError

import oracles
from oracles import (
    brute_entropy,
    brute_marginal,
    per_search_candidate_collections,
    per_search_r_star_perfect,
    pg_maxent_oracle,
    product_form_feasible,
    reference_candidate_collections,
    reference_deterministic_extra_constraints,
    reference_linprog,
    reference_r_star_perfect,
    reference_simulated_law,
    reference_simulation_lp,
)


def random_pmf(rng, sizes) -> JointPMF:
    cells = int(np.prod(sizes))
    return JointPMF(tuple(sizes), rng.dirichlet(np.ones(cells)).reshape(sizes))


def three_sensor_law() -> JointPMF:
    mass = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            mass[x0, x1, x0] = 0.5 * (0.75 if x1 == x0 else 0.25)
    return JointPMF((2, 2, 2), mass)


def y_component_law() -> JointPMF:
    """Decomposable law: x0=(y01,y02), x1=(y01,y12), x2=(y02,y12) with the
    shared bits independent and uniform."""
    mass = np.zeros((4, 4, 4))
    for y01 in range(2):
        for y02 in range(2):
            for y12 in range(2):
                x0 = 2 * y01 + y02
                x1 = 2 * y01 + y12
                x2 = 2 * y02 + y12
                mass[x0, x1, x2] += 0.125
    return JointPMF((4, 4, 4), mass)


class TestMaxEntropy:
    def test_pair_chain_product_form(self):
        p = three_sensor_law()
        res = max_entropy_with_marginals(p, [SubsetView.of(0, 1), SubsetView.of(1, 2)])
        p01 = p.mass.sum(axis=2)
        p1 = p.mass.sum(axis=(0, 2))
        expect = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    p12 = p.mass.sum(axis=0)
                    expect[a, b, c] = p01[a, b] * (p12[b, c] / p1[b] if p1[b] > 0 else 0)
        assert res.converged
        assert np.max(np.abs(res.q.mass - expect)) < 1e-7
        want = entropy(p, SubsetView.of(0, 1)) + conditional_entropy(
            p, SubsetView.of(2), SubsetView.of(1))
        assert res.value == pytest.approx(want, abs=1e-9)

    def test_fully_constrained_returns_p(self):
        rng = np.random.default_rng(0)
        p = random_pmf(rng, (2, 2, 2))
        res = max_entropy_with_marginals(p, [SubsetView.of(0, 1, 2)])
        assert np.max(np.abs(res.q.mass - p.mass)) < 1e-12
        assert res.value == pytest.approx(entropy(p), abs=1e-9)

    def test_irreducible_six_bit_matches_pg_oracle(self):
        rng = np.random.default_rng(1)
        V = [SubsetView.of(0, 1, 2), SubsetView.of(2, 3, 4), SubsetView.of(4, 5, 0)]
        for _ in range(2):
            p = random_pmf(rng, (2,) * 6)
            res = max_entropy_with_marginals(p, V)
            oracle = pg_maxent_oracle(p, V)
            assert abs(res.value - oracle) < 1e-4

    def test_value_matches_pg_oracle_small_instances(self):
        # the objective is the entropy of the decoded coordinates U(V) only,
        # so the oracle runs on the U-projected problem
        from byzsw.prob_core import marginal, union_of
        rng = np.random.default_rng(21)
        pools = {2: [[0], [1], [0, 1]],
                 3: [[0], [1, 2], [0, 1], [0, 2]],
                 4: [[0, 1], [1, 2], [2, 3], [0, 3], [3]]}
        for _ in range(20):
            m = int(rng.integers(2, 5))
            p = random_pmf(rng, (2,) * m)
            pool = pools[m]
            picks = rng.choice(len(pool), size=int(rng.integers(1, 3)),
                               replace=False)
            V = [SubsetView.of(*pool[k]) for k in picks]
            res = max_entropy_with_marginals(p, V)
            u = union_of(V)
            pos = {i: k for k, i in enumerate(u)}
            p_u = marginal(p, u) if len(u) < m else p
            V_u = [SubsetView(tuple(pos[i] for i in S)) for S in V]
            oracle = pg_maxent_oracle(p_u, V_u, iters=400)
            assert abs(res.value - oracle) < 1e-4

    def test_value_at_least_h_p(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = random_pmf(rng, (2, 2, 2))
            V = [SubsetView.of(0, 1), SubsetView.of(2)]
            res = max_entropy_with_marginals(p, V)
            assert res.value >= entropy(p, SubsetView.of(0, 1, 2)) - 1e-9

    def test_marginals_match_constraints(self):
        rng = np.random.default_rng(3)
        subsets = [SubsetView.of(0), SubsetView.of(1), SubsetView.of(0, 1),
                   SubsetView.of(1, 2), SubsetView.of(0, 2), SubsetView.of(2, 3),
                   SubsetView.of(0, 3)]
        for _ in range(100):
            m = int(rng.integers(3, 5))
            p = random_pmf(rng, (2,) * m)
            k = int(rng.integers(1, 4))
            V = list({s.indices: s for s in
                      (subsets[i] for i in rng.integers(0, len(subsets), k))
                      if max(s.indices) < m}.values())
            if not V:
                V = [SubsetView.of(0)]
            res = max_entropy_with_marginals(p, V)
            from byzsw.prob_core import marginal
            for S in V:
                assert np.max(np.abs(marginal(res.q, S).mass
                                     - marginal(p, S).mass)) < 1e-8

    def test_zero_cells_preserved(self):
        p = three_sensor_law()            # has structural zeros
        res = max_entropy_with_marginals(p, [SubsetView.of(0, 2)])
        from byzsw.prob_core import marginal
        p02 = marginal(p, SubsetView.of(0, 2)).mass
        q02 = marginal(res.q, SubsetView.of(0, 2)).mass
        assert np.max(np.abs(p02 - q02)) < 1e-10
        dead = np.broadcast_to(p02[:, None, :] == 0, (2, 2, 2))
        assert np.all(res.q.mass[dead] == 0)


class TestRStarPerfect:
    def test_three_sensor_one_traitor_formula(self):
        rng = np.random.default_rng(4)
        H1 = HonestCollection.threshold(3, 1)
        for _ in range(5):
            p = random_pmf(rng, (2, 2, 2))
            rep = r_star_perfect(p, H1)
            cmis = [conditional_mutual_information(
                p, SubsetView.of(i), SubsetView.of(j),
                given=SubsetView.of(({0, 1, 2} - {i, j}).pop()))
                for i, j in ((0, 1), (0, 2), (1, 2))]
            want = entropy(p) + max(cmis)
            assert rep.r_star == pytest.approx(want, abs=1e-6)

    def test_all_but_one_traitor_independent_coding(self):
        rng = np.random.default_rng(5)
        p = random_pmf(rng, (2, 2, 2))
        rep = r_star_perfect(p, HonestCollection.threshold(3, 2))
        want = sum(entropy(p, SubsetView.of(i)) for i in range(3))
        assert rep.r_star == pytest.approx(want, abs=1e-6)

    def test_no_traitors_slepian_wolf(self):
        rng = np.random.default_rng(6)
        p = random_pmf(rng, (2, 2, 2))
        rep = r_star_perfect(p, HonestCollection.explicit([[0, 1, 2]]))
        assert rep.r_star == pytest.approx(entropy(p), abs=1e-9)

    def test_r_star_is_max_of_per_pair(self):
        rng = np.random.default_rng(7)
        p = random_pmf(rng, (2, 2, 2))
        rep = r_star_perfect(p, HonestCollection.threshold(3, 1))
        assert rep.r_star == pytest.approx(max(rep.per_pair.values()), abs=1e-9)

    def test_maximizer_q_satisfies_constraints(self):
        from byzsw.prob_core import marginal
        p = three_sensor_law()
        rep = r_star_perfect(p, HonestCollection.explicit([[0, 1], [0, 2], [1, 2]]))
        for S in rep.maximizer_V:
            assert np.max(np.abs(marginal(rep.maximizer_q, S).mass
                                 - marginal(p, S).mass)) < 1e-7

    def test_threshold_one_matches_closed_form_many_laws(self):
        rng = np.random.default_rng(22)
        h1 = HonestCollection.threshold(3, 1)
        for _ in range(100):
            p = random_pmf(rng, (2, 2, 2))
            assert r_star_perfect(p, h1).r_star == pytest.approx(
                closed_form_t(p, 1), abs=1e-6)

    def test_monotone_in_collection(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_pmf(rng, (2, 2, 2))
            small = HonestCollection.explicit([[0, 1], [1, 2]])
            big = HonestCollection.explicit([[0, 1], [1, 2], [0, 2]])
            assert (r_star_perfect(p, big).r_star
                    >= r_star_perfect(p, small).r_star - 1e-9)

    def test_guard_refuses_huge_collections(self):
        # the guard counts irredundant families, not sets: 21 sets with 443
        # families enumerate, threshold(6, 5) (63 sets, 10127 families) does not
        sets = [list(c) for c in itertools.combinations(range(5), 2)] + \
               [list(c) for c in itertools.combinations(range(5), 3)] + \
               [[0], [1], [2], [3], [4]] + [[0, 1, 2, 3], [1, 2, 3, 4]]
        coll = HonestCollection.explicit(sets[:21])
        assert len(search_families(coll.candidates, None)) == 443
        p = random_pmf(np.random.default_rng(9), (2,) * 6)
        with pytest.raises(EnumerationGuardError, match="4096"):
            r_star_perfect(p, HonestCollection.threshold(6, 5))

    def test_closed_forms_up_to_seven_sensors(self):
        rng = np.random.default_rng(31)
        for m in range(3, 8):
            for t in sorted({1, 2, m - 1}):
                p = random_pmf(rng, (2,) * m)
                H = HonestCollection.threshold(m, t)
                if m >= 6 and t == m - 1:
                    with pytest.raises(EnumerationGuardError):
                        r_star_perfect(p, H)
                    continue
                assert r_star_perfect(p, H).r_star == pytest.approx(
                    closed_form_t(p, t), abs=1e-6), (m, t)


@functools.lru_cache(maxsize=None)
def oracle_families(cands: tuple, pin):
    return reference_candidate_collections(list(cands), pin)


def search_families(cands, pin):
    """The (V, union) pairs of one search, overall (pin None) or pinned to a
    true honest set, read off the one walk in its order."""
    return [(V, u) for V, u, lone in rate_region._families(tuple(cands))
            if lone == pin or lone is None and (pin is None or pin in V)]


def family_keys(families):
    return [(tuple(s.indices for s in V), u) for V, u in families]


def random_collection(rng, m_max=6, max_sets=12):
    m = int(rng.integers(2, m_max + 1))
    pool = [c for k in range(m + 1) for c in itertools.combinations(range(m), k)]
    count = int(rng.integers(1, min(max_sets, len(pool)) + 1))
    picks = rng.choice(len(pool), size=count, replace=False)
    return m, HonestCollection.explicit([pool[i] for i in picks])


class TestCandidateCollections:
    def assert_matches_oracle(self, H):
        cands = list(H.candidates)
        for pin in [None] + cands:
            got = search_families(cands, pin)
            want = oracle_families(tuple(cands), pin)
            assert family_keys(got) == family_keys(want), (cands, pin)

    # every threshold collection on up to 7 sensors with at most 16 sets; the
    # 15- and 16-set ones, (4, 3) and (5, 2), take most of the oracle's time
    @pytest.mark.parametrize("m, t", [
        (m, t) for m in range(1, 8) for t in range(m)
        if len(HonestCollection.threshold(m, t)) <= 16])
    def test_threshold_collections_match_oracle(self, m, t):
        self.assert_matches_oracle(HonestCollection.threshold(m, t))

    def test_random_collections_match_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            _m, H = random_collection(rng)
            self.assert_matches_oracle(H)

    def test_each_family_listed_once_for_its_searches(self):
        # a family is irredundant (overall search and each member's) or has
        # one redundant member, whose search alone it joins
        rng = np.random.default_rng(44)
        for _ in range(40):
            _m, H = random_collection(rng)
            walk = rate_region._families(H.candidates)
            assert len({V for V, _u, _lone in walk}) == len(walk)
            for V, u, lone in walk:
                assert u == functools.reduce(lambda a, s: a | s.mask, V, 0)
                assert lone is None or (len(V) > 1 and lone in V)

    def test_r_star_identical_under_oracle(self, monkeypatch):
        p = random_pmf(np.random.default_rng(43), (2,) * 4)
        H = HonestCollection.threshold(4, 3)
        fast = r_star_perfect(p, H)
        monkeypatch.setattr(oracles, "per_search_candidate_collections",
                            lambda cands, pin: oracle_families(tuple(cands), pin))
        slow = per_search_r_star_perfect(p, H)
        assert report_bits(fast) == report_bits(slow)


class TestOneScan:
    """One walk and one scan give the report of one walk and one scan per
    search bit for bit, and refuse the same collections."""

    # 41 laws: three binary laws on each threshold collection (3, 1) ... (6, 3)
    # the family guard admits, (6, 3) the largest, and one mixed-alphabet law
    # on each up to m = 4
    @pytest.mark.parametrize("m, t", [
        (m, t) for m in range(3, 7) for t in range(1, m) if (m, t) not in ((6, 4), (6, 5))])
    def test_threshold_reports_match_per_search(self, m, t):
        H = HonestCollection.threshold(m, t)
        rng = np.random.default_rng([65, m, t])
        laws = [random_pmf(rng, (2,) * m) for _ in range(3)]
        if m <= 4:
            laws.append(random_pmf(rng, tuple(int(a) for a in rng.integers(2, 4, size=m))))
        for p in laws:
            assert report_bits(r_star_perfect(p, H)) == report_bits(
                per_search_r_star_perfect(p, H)), p.alphabet_sizes

    def test_random_collection_reports_match_per_search(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            m, H = random_collection(rng)
            p = random_pmf(rng, (2,) * m)
            assert report_bits(r_star_perfect(p, H)) == report_bits(
                per_search_r_star_perfect(p, H)), H.candidates

    @pytest.mark.parametrize("t", [4, 5])
    def test_guard_refuses_before_any_family_is_scored(self, monkeypatch, t):
        calls = []

        def counted(name):
            real = getattr(rate_region, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("max_entropy_with_marginals", "_acyclic_entropy"):
            monkeypatch.setattr(rate_region, name, counted(name))
        p = random_pmf(np.random.default_rng(67), (2,) * 6)
        H = HonestCollection.threshold(6, t)
        with pytest.raises(EnumerationGuardError) as refused:
            r_star_perfect(p, H)
        assert calls == []
        with pytest.raises(EnumerationGuardError) as before:
            per_search_candidate_collections(list(H.candidates), None)
        assert str(refused.value) == str(before.value)

    def test_guard_refuses_what_some_search_refused(self, monkeypatch):
        # a small guard, so that collections land on both sides of it
        monkeypatch.setattr(rate_region, "FAMILY_GUARD", 40)
        monkeypatch.setattr(oracles, "FAMILY_GUARD", 40)
        rng = np.random.default_rng(69)
        refused = 0
        for _ in range(60):
            _m, H = random_collection(rng, max_sets=14)
            cands = list(H.candidates)
            messages = set()
            for pin in [None] + cands:
                try:
                    per_search_candidate_collections(cands, pin)
                except EnumerationGuardError as exc:
                    messages.add(str(exc))
            try:
                rate_region._families(H.candidates)
                assert not messages, cands
            except EnumerationGuardError as exc:
                assert messages == {str(exc)}, cands
                refused += 1
        assert 0 < refused < 60


def report_bits(rep):
    """Every field of a RegionReport as exact bytes and hex floats."""
    return (rep.r_star.hex(),
            [(k.indices, v.hex()) for k, v in rep.per_pair.items()],
            [s.indices for s in rep.maximizer_V],
            rep.maximizer_q.mass.tobytes(),
            [(k.indices, v.hex(), [s.indices for s in V], q.mass.tobytes())
             for k, (v, V, q) in rep.per_pair_detail.items()],
            rep.all_converged)


def sets_of(*sets):
    return [SubsetView.of(*s) for s in sets]


class TestClosedFormScoring:
    """Scoring acyclic families in closed form and running IPF only on
    cyclic families and winners gives the IPF-everywhere report bit for
    bit."""

    # every threshold collection on up to 6 sensors that the family guard
    # admits: (6, 4) and (6, 5) are refused
    @pytest.mark.parametrize("m, t", [
        (m, t) for m in range(1, 7) for t in range(m) if (m, t) not in ((6, 4), (6, 5))])
    def test_report_matches_ipf_everywhere(self, m, t):
        H = HonestCollection.threshold(m, t)
        rng = np.random.default_rng([61, m, t])
        laws = [random_pmf(rng, (2,) * m)]
        if m <= 4:
            laws.append(random_pmf(rng, tuple(int(a) for a in rng.integers(2, 4, size=m))))
        for p in laws:
            assert report_bits(r_star_perfect(p, H)) == report_bits(
                reference_r_star_perfect(p, H)), p.alphabet_sizes

    def test_report_matches_on_structured_laws(self):
        # laws with exact independences and copies, where families tie
        from byzsw.scenario import PRESETS, scenario_from_dict
        laws = [(three_sensor_law(), HonestCollection.threshold(3, 1)),
                (y_component_law(), HonestCollection.threshold(3, 1)),
                (y_component_law(), HonestCollection.threshold(3, 2))]
        for name in sorted(PRESETS):
            scn = scenario_from_dict(PRESETS[name]())
            if scn.info_model.perfect:
                laws.append((scn.p, scn.collection))
        for p, H in laws:
            assert report_bits(r_star_perfect(p, H)) == report_bits(
                reference_r_star_perfect(p, H))

    @pytest.mark.parametrize("family", [
        [(0, 1), (1, 2), (2, 3), (3, 4)],               # chain
        [(2, 3), (0, 1), (3, 4), (1, 2)],               # the chain out of order
        [(0, 1), (0, 2), (0, 3), (0, 4)],               # star
        [(0, 1, 2), (1, 2, 3), (2, 4)],                 # nested separators {1,2} > {2}
        [(2, 4), (0, 1, 2), (1, 2, 3)],
        [(0, 1), (3, 4)],                               # disconnected
        [(0, 1, 2), (1, 2)],                            # a set inside another
        [(0, 2, 3)],
    ], ids=["chain", "chain-shuffled", "star", "nested", "nested-shuffled",
            "disjoint", "contained", "single"])
    def test_acyclic_closed_form_equals_ipf(self, family):
        rng = np.random.default_rng(62)
        for sizes in [(2, 2, 2, 2, 2), (2, 3, 2, 3, 2)]:
            p = random_pmf(rng, sizes)
            V = sets_of(*family)
            got = rate_region._acyclic_entropy(p, V)
            assert got is not None
            assert abs(got - max_entropy_with_marginals(p, V).value) <= 1e-12

    @pytest.mark.parametrize("family", [
        [(0, 1), (1, 2), (0, 2)],                       # triangle
        [(0, 1), (1, 2), (2, 3), (0, 3)],               # 4-cycle
        [(0, 1, 3), (1, 2, 4), (0, 2, 5)],              # triangle with private sensors
        [(0, 1), (1, 2), (0, 2), (2, 3)],               # triangle with a pendant
    ], ids=["triangle", "4-cycle", "triangle-private", "triangle-pendant"])
    def test_cyclic_families_classed_cyclic(self, family):
        p = random_pmf(np.random.default_rng(63), (2,) * 6)
        assert rate_region._acyclic_entropy(p, sets_of(*family)) is None

    def test_ipf_runs_only_on_cyclic_families_and_winners(self, monkeypatch):
        calls, scored = [], []
        real = rate_region.max_entropy_with_marginals
        real_acyclic = rate_region._acyclic_entropy

        def counted(p, V, **kwargs):
            calls.append(rate_region._lex_key(V))
            return real(p, V, **kwargs)

        def scoring(p, V):
            scored.append(rate_region._lex_key(V))
            return real_acyclic(p, V)

        monkeypatch.setattr(rate_region, "max_entropy_with_marginals", counted)
        monkeypatch.setattr(rate_region, "_acyclic_entropy", scoring)
        p = random_pmf(np.random.default_rng(64), (2,) * 5)
        H = HonestCollection.threshold(5, 2)
        rep = r_star_perfect(p, H)
        key = rate_region._lex_key
        winners = {key(rep.maximizer_V)} | {
            key(V) for _v, V, _q in rep.per_pair_detail.values()}
        walk = [V for V, _u, _lone in rate_region._families(H.candidates)]
        assert scored == [key(V) for V in walk]     # each family once, in walk order
        cyclic = {key(V) for V in walk if real_acyclic(p, V) is None}
        assert len(calls) == len(set(calls))
        assert set(calls) <= winners | cyclic
        assert winners <= set(calls)


class TestClosedForms:
    def test_t1_on_decomposable_law(self):
        # shared-component law: penalty is the entropy of the pairwise-shared
        # bit, here 1 bit for any pair
        p = y_component_law()
        got = closed_form_t(p, 1)
        assert got == pytest.approx(entropy(p) + 1.0, abs=1e-9)
        rep = r_star_perfect(p, HonestCollection.threshold(3, 1))
        assert rep.r_star == pytest.approx(got, abs=1e-6)

    def test_t_m_minus_1_sum_of_entropies(self):
        rng = np.random.default_rng(10)
        p = random_pmf(rng, (2, 2, 2, 2))
        want = sum(entropy(p, SubsetView.of(i)) for i in range(4))
        assert closed_form_t(p, 3) == pytest.approx(want, abs=1e-12)

    def test_independent_sources_no_penalty(self):
        rng = np.random.default_rng(11)
        facs = [rng.dirichlet((2, 2)) for _ in range(4)]
        mass = np.einsum("i,j,k,l->ijkl", *facs)
        p = JointPMF((2, 2, 2, 2), mass)
        for t in (1, 2, 3):
            assert closed_form_t(p, t) == pytest.approx(entropy(p), abs=1e-9)

    def test_t2_matches_enumeration_on_random_m4(self):
        rng = np.random.default_rng(12)
        p = random_pmf(rng, (2, 2, 2, 2))
        got = closed_form_t(p, 2)
        rep = r_star_perfect(p, HonestCollection.threshold(4, 2))
        assert got == pytest.approx(rep.r_star, abs=1e-5)

    def test_unsupported_t(self):
        p = random_pmf(np.random.default_rng(13), (2, 2, 2, 2, 2))
        with pytest.raises(ValueError):
            closed_form_t(p, 3)          # t = m - 2 = 3 has no closed form

    def test_detect_threshold_recognizes_every_threshold_family(self):
        # the sets alone name t: the region command's cross-check needs no stored t
        for m in range(1, 6):
            for t in range(m):
                assert HonestCollection.threshold(m, t).detect_threshold(m) == t


class TestQSetFeasible:
    def test_honest_law_feasible_when_w_covers_traitors(self):
        # Simulating the honest law q = p from W requires W to pin down the
        # simulated coordinates (take qbar = p(x_Sc | w)); any channel whose
        # output includes x_Sc works. Truly arbitrary channels need not admit
        # q = p, since traitor messages are functions of W alone.
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_pmf(rng, (2, 2))
            r = identity_channel((2, 2))
            assert q_set_feasible(p, SubsetView.of(0), r, p) is True
            # W = x1 exactly (the simulated coordinate) also suffices
            rows = np.zeros((2, 2, 2))
            for x0 in range(2):
                for x1 in range(2):
                    rows[x0, x1, x1] = 1.0
            r1 = ConditionalPMF((2, 2), 2, rows)
            assert q_set_feasible(p, SubsetView.of(0), r1, p) is True

    def test_perfect_info_marginal_match_feasible(self):
        rng = np.random.default_rng(15)
        p = random_pmf(rng, (2, 2))
        r = identity_channel((2, 2))
        # any q with q(x0) = p(x0) is reachable under perfect information
        q_mass = np.outer(p.mass.sum(axis=1), [0.5, 0.5])
        q = JointPMF((2, 2), q_mass)
        assert q_set_feasible(q, SubsetView.of(0), r, p) is True

    def test_constant_w_requires_product_form(self):
        p = JointPMF((2, 2), np.array([[0.445, 0.055], [0.055, 0.445]]))
        rows = np.ones((2, 2, 1))
        r = ConditionalPMF((2, 2), 1, rows)       # W constant: no information
        S = SubsetView.of(0)
        # q = p itself is correlated beyond independence: infeasible
        assert not product_form_feasible(p, p, S)
        assert q_set_feasible(p, S, r, p) is False
        # the independent coupling with matching x0 marginal is feasible
        q_ind = JointPMF((2, 2), np.outer([0.5, 0.5], [0.5, 0.5]))
        assert product_form_feasible(q_ind, p, S)
        assert q_set_feasible(q_ind, S, r, p) is True

    def test_perturbed_product_law_infeasible(self):
        # perturb a feasible product-form law inside a fiber by 3e-6: the
        # honest marginal is intact and the law is no longer a product, so
        # the verdict is exact, however close the law is to a feasible one
        p = JointPMF((2, 2), np.array([[0.445, 0.055], [0.055, 0.445]]))
        rows = np.ones((2, 2, 1))
        r = ConditionalPMF((2, 2), 1, rows)
        base = np.outer([0.5, 0.5], [0.6, 0.4])
        bump = 3e-6
        q = JointPMF((2, 2), base + np.array([[bump, -bump], [-bump, bump]]))
        assert not product_form_feasible(q, p, SubsetView.of(0))
        assert q_set_feasible(q, SubsetView.of(0), r, p) is False
        assert q_set_feasible(JointPMF((2, 2), base), SubsetView.of(0), r, p) \
            is True

    def test_oracle_agreement_on_random_instances(self):
        # every other law is a product p(x0) g(x1) with g on the oracle's
        # grid (feasible), the rest random with the honest marginal aligned
        # (infeasible unless a product by chance); every verdict must match
        rng = np.random.default_rng(16)
        rows = np.ones((2, 2, 1))
        r = ConditionalPMF((2, 2), 1, rows)
        S = SubsetView.of(0)
        verdicts = []
        for k in range(40):
            p = random_pmf(rng, (2, 2))
            if k % 2:
                g = int(rng.integers(0, 401)) / 400
                q = JointPMF((2, 2), np.outer(p.mass.sum(axis=1), [g, 1 - g]))
            else:
                q = random_pmf(rng, (2, 2))
                scale = p.mass.sum(axis=1) / q.mass.sum(axis=1)
                q = JointPMF((2, 2), q.mass * scale[:, None])
            verdict = q_set_feasible(q, S, r, p)
            assert bool(verdict) == product_form_feasible(q, p, S)
            verdicts.append(bool(verdict))
        assert verdicts.count(True) == 20


def constant_w_toy():
    """Two binary sensors, collection {0}, {1}, and a side-information
    channel W that is constant for every candidate."""
    p = JointPMF((2, 2), np.array([[0.4, 0.2], [0.1, 0.3]]))
    H = HonestCollection.explicit([[0], [1]])
    r = ConditionalPMF((2, 2), 1, np.ones((2, 2, 1)))
    R = InfoModel.from_channels({SubsetView.of(0): [r], SubsetView.of(1): [r]}, (2, 2))
    return p, H, R, r


class TestRStarGeneral:
    def test_perfect_info_falls_back_to_exact(self):
        p = three_sensor_law()
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        R = InfoModel.perfect_info((2, 2, 2))
        h_true = SubsetView.of(0, 1)
        res = r_star_general(p, H, R, h_true, None)
        rep = r_star_perfect(p, H)
        assert res.value == pytest.approx(rep.per_pair[h_true], abs=1e-9)
        assert res.residual == 0.0

    def test_perfect_info_maximizer_is_the_true_sets_family(self):
        # the overall maximizer {0,2},{1,2} omits H_true = {0,1}; the value
        # returned is that of {0,1},{1,2}, and the family must come with it
        p = random_pmf(np.random.default_rng(3), (2, 2, 2))
        H = HonestCollection.threshold(3, 1)
        h_true = SubsetView.of(0, 1)
        rep = r_star_perfect(p, H)
        assert h_true not in rep.maximizer_V
        res = r_star_general(p, H, InfoModel.perfect_info((2, 2, 2)), h_true, None)
        value, V, _q = rep.per_pair_detail[h_true]
        assert res.maximizer_V == V == (SubsetView.of(0, 1), SubsetView.of(1, 2))
        assert res.value == res.lower == res.upper == value

    def test_constant_w_two_sensor_oracle(self):
        # W carries nothing: each candidate singleton pins its own marginal
        # and leaves the other coordinate free; the max-entropy coupling is
        # the independent product with uniform free coordinate.
        p, H, R, r = constant_w_toy()
        res = r_star_general(p, H, R, SubsetView.of(0), r, starts=4)
        # grid-search oracle over q = p(x0) g(x1) meeting q(x1) = p(x1):
        # forced to the product p(x0) p(x1), so the value is H(X0) + H(X1)
        want = entropy(p, SubsetView.of(0)) + entropy(p, SubsetView.of(1))
        assert res.value == pytest.approx(want, abs=5e-3)
        assert res.residual < 1e-4

    def test_constant_w_two_sensor_value_frozen(self):
        # W carries nothing, so every simulable law is the product of the
        # marginals: R* = H(0.6, 0.4) + H(0.5, 0.5), and the bracket holds it
        # (to rounding) with no width
        p, H, R, r = constant_w_toy()
        res = r_star_general(p, H, R, SubsetView.of(0), r, seed=0, starts=2)
        want = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4)) + 1.0
        assert res.lower - 1e-12 <= want <= res.upper + 1e-12
        assert res.upper - res.lower <= 1e-12
        assert res.value == res.lower

    @pytest.mark.parametrize("starts", [0, -1])
    def test_starts_below_one_rejected(self, starts):
        p, H, R, r = constant_w_toy()
        with pytest.raises(ValueError, match="starts"):
            r_star_general(p, H, R, SubsetView.of(0), r, starts=starts)


def random_channel(rng, input_sizes, w) -> ConditionalPMF:
    rows = rng.dirichlet(np.ones(w), size=input_sizes)
    return ConditionalPMF(tuple(input_sizes), w, rows.reshape(tuple(input_sizes) + (w,)))


def defect_law(seed=1, w=3):
    """Seeded law on three binary sensors, threshold(3, 2) (every nonempty
    set a candidate), one random channel with w outputs per candidate, in
    candidate order, and H_true = {0} with its own channel."""
    rng = np.random.default_rng(seed)
    p = random_pmf(rng, (2, 2, 2))
    H = HonestCollection.threshold(3, 2)
    chans = {S: [random_channel(rng, tuple(p.alphabet_sizes[i] for i in S), w)]
             for S in H.candidates}
    R = InfoModel.from_channels(chans, p.alphabet_sizes)
    h_true = SubsetView.of(0)
    return p, H, R, h_true, chans[h_true][0]


class TestRStarGeneralBracket:
    @staticmethod
    def simulated_laws(p, h_true, res):
        sets = (h_true,) + res.maximizer_V
        assert len(res.tables) == len(res.channels) == len(sets)
        return sets, [reference_simulated_law(p, S, chan, table)
                      for S, chan, table in zip(sets, res.channels, res.tables)]

    def test_defect_law_bracket(self):
        # the projected-gradient ascent this replaced returned 1.7655 here,
        # 0.90 bits low: it dropped V = {0},{1},{2}, whose systems it could
        # not get below its residual threshold
        p, H, R, h_true, r = defect_law()
        res = r_star_general(p, H, R, h_true, r)
        assert res.lower >= 2.6665
        assert res.upper - res.lower <= 1e-3
        assert res.value == res.lower
        _sets, laws = self.simulated_laws(p, h_true, res)
        for q in laws[1:]:
            assert np.max(np.abs(q - laws[0])) <= 1e-9
        U = tuple(sorted({i for S in res.maximizer_V for i in S}))
        assert brute_entropy(brute_marginal(laws[0], U)) == pytest.approx(res.lower, abs=1e-9)
        assert res.residual <= 1e-9

    @pytest.mark.parametrize("call", [0, 1])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_non_finite_bracket_refused(self, monkeypatch, call, end):
        # a NaN passes max(upper, hi) and lo > best unnoticed, and a NaN lo
        # from the first system would become the reported lower bound
        p, H, R, h_true, r = defect_law()
        real, families = rate_region._frank_wolfe, []
        system_class = rate_region._System

        def recording_system(p, sets, channels):
            families.append(" ".join(map(str, sets[1:])))
            return system_class(p, sets, channels)

        def patched(*args):
            lo, hi, x = real(*args)
            if len(families) == call + 1:
                lo, hi = (math.nan, hi) if end == "lo" else (lo, math.nan)
            return lo, hi, x

        monkeypatch.setattr(rate_region, "_System", recording_system)
        monkeypatch.setattr(rate_region, "_frank_wolfe", patched)
        with pytest.raises(ValueError, match="not finite") as err:
            r_star_general(p, H, R, h_true, r)
        assert len(families) == call + 1
        # one channel per candidate in the defect law: index 0 of each R(S)
        width = families[call].count("{")
        assert (f"true honest set {h_true}, V = {families[call]} with channel {[0] * width}"
                in str(err.value))

    @pytest.mark.parametrize("m, t", [(3, 1), (3, 2)])
    def test_identity_channels_reproduce_perfect_information(self, m, t):
        # W = X for every candidate is perfect information written as a
        # channel list, so the bracket must hold the IPF value
        p = random_pmf(np.random.default_rng(70 + t), (2,) * m)
        H = HonestCollection.threshold(m, t)
        ident = identity_channel(p.alphabet_sizes)
        R = InfoModel.from_channels({S: [ident] for S in H.candidates}, p.alphabet_sizes)
        rep = r_star_perfect(p, H)
        for h_true in H.candidates[:2]:
            res = r_star_general(p, H, R, h_true, ident)
            want = rep.per_pair[h_true]
            assert res.lower - 1e-9 <= want <= res.upper + 1e-9, h_true
            assert res.upper - res.lower <= 1e-6

    def test_upper_bound_from_dual_certificate(self):
        # rebuild the maximizer's LP cell by cell, take the gradient of
        # H(q_U) at the returned point as the objective, and check the duals
        # by hand: A^T y >= c makes b.y an upper bound on c.x over the
        # polytope, so H(x) + b.y - c.x bounds the system by concavity
        p = random_pmf(np.random.default_rng(73), (2, 2, 2))
        H = HonestCollection.threshold(3, 1)
        ident = identity_channel(p.alphabet_sizes)
        R = InfoModel.from_channels({S: [ident] for S in H.candidates}, p.alphabet_sizes)
        h_true = SubsetView.of(0, 1)
        res = r_star_general(p, H, R, h_true, ident)
        sets = (h_true,) + res.maximizer_V
        chans = [rate_region._effective_channel(c, p, S) for S, c in zip(sets, res.channels)]
        A, b = reference_simulation_lp(p, sets, chans)
        q = reference_simulated_law(p, sets[0], chans[0], res.tables[0])
        x = np.concatenate([t.reshape(-1) for t in res.tables] + [q.reshape(-1)])
        assert np.max(np.abs(A @ x - b)) <= 1e-9
        U = tuple(sorted({i for S in res.maximizer_V for i in S}))
        drop = tuple(i for i in range(3) if i not in U)
        q_u = q.sum(axis=drop) if drop else q
        grad_u = -(np.log2(q_u) + 1.0 / math.log(2.0))
        c = np.zeros(A.shape[1])
        c[-q.size:] = np.broadcast_to(
            grad_u.reshape(tuple(2 if i in U else 1 for i in range(3))), q.shape).reshape(-1)
        y = rate_region.LinearProgram(A, b).maximize(c).y
        # A^T y >= c - slack, and x sums to (table rows + 1) on the polytope
        slack = max(0.0, float(np.max(c - A.T @ y)))
        assert slack <= 1e-9 * (1.0 + np.max(np.abs(c)))
        mass = sum(t.shape[0] for t in res.tables) + 1
        certified = brute_entropy(q_u) + float(b @ y) + slack * mass - float(c @ x)
        want = r_star_perfect(p, H).per_pair[h_true]
        assert want <= certified + 1e-9
        assert certified <= res.upper + 1e-9
        assert res.lower <= want + 1e-9

    def test_infeasible_systems_dropped(self):
        # W constant for H_true = {0,1} and for the pairs: a law simulable
        # from nothing is a product p(x_S) g(x_Sc), and no such product
        # for {0,1} keeps the pair marginal of {0,2} or {1,2} of a
        # correlated law, so only V = {0,1} survives, with R* = H(X0, X1)
        p = random_pmf(np.random.default_rng(74), (2, 2, 2))
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        chans = {S: [ConditionalPMF((2, 2), 1, np.ones((2, 2, 1)))] for S in H.candidates}
        R = InfoModel.from_channels(chans, p.alphabet_sizes)
        h_true = SubsetView.of(0, 1)
        res = r_star_general(p, H, R, h_true, chans[h_true][0])
        assert res.maximizer_V == (h_true,)
        assert res.lower == pytest.approx(entropy(p, h_true), abs=1e-9)
        assert res.upper - res.lower <= 1e-9


def random_lp(rng, kind):
    """A small LP, bounded by a sum row: A x = b with b = A x0 for a sparse
    x0 >= 0, so degenerate vertices abound. "redundant" appends a
    combination of the rows; "inconsistent" appends one with its right side
    moved; "negative" appends a nonnegative row with a negative right side;
    "zero" appends an all-zero row."""
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m + 1, 10))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    x0 = rng.random(n) * (rng.random(n) < 0.6)
    A = np.vstack([A, np.ones(n)])
    b = A @ x0
    if kind in ("redundant", "inconsistent"):
        lam = rng.integers(1, 3, size=len(b)).astype(float)
        A = np.vstack([A, lam @ A])
        b = np.append(b, lam @ b + (0.5 if kind == "inconsistent" else 0.0))
    elif kind == "negative":
        A = np.vstack([A, np.abs(A[0]) + 1.0])
        b = np.append(b, -1.0)
    elif kind == "zero":
        A = np.vstack([A, np.zeros(n)])
        b = np.append(b, 0.0)
    return A, b, rng.integers(-5, 6, size=n).astype(float)


class TestLinearProgram:
    KINDS = ("plain", "redundant", "inconsistent", "negative", "zero")

    def test_matches_highs_on_seeded_lps(self):
        verdicts = {"optimal": 0, "infeasible": 0}
        for seed in range(120):
            rng = np.random.default_rng([81, seed])
            A, b, c = random_lp(rng, self.KINDS[seed % len(self.KINDS)])
            status, value = reference_linprog(A, b, c)
            lp = rate_region.LinearProgram(A, b)
            assert lp.feasible == (status == "optimal"), seed
            verdicts[status] += 1
            if not lp.feasible:
                continue
            sol = lp.maximize(c)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(value, abs=1e-9), seed
            assert np.min(sol.x) >= 0.0
            assert np.max(np.abs(A @ sol.x - b)) <= 1e-9
            # dual certificate, checked without the solver
            assert np.min(A.T @ sol.y - c) >= -1e-9
            assert float(b @ sol.y) == pytest.approx(value, abs=1e-9)
        assert verdicts["optimal"] >= 50 and verdicts["infeasible"] >= 40

    def test_warm_started_objectives(self):
        # one phase 1, many objectives: each solve starts from the last basis
        rng = np.random.default_rng(82)
        A, b, _c = random_lp(rng, "redundant")
        lp = rate_region.LinearProgram(A, b)
        for _ in range(20):
            c = rng.normal(size=A.shape[1])
            _status, value = reference_linprog(A, b, c)
            assert lp.maximize(c).value == pytest.approx(value, abs=1e-9)

    def test_unbounded_reported(self):
        A = np.array([[1.0, -1.0]])
        lp = rate_region.LinearProgram(A, np.array([1.0]))
        assert lp.maximize(np.array([0.0, 1.0])).status == "unbounded"
        assert reference_linprog(A, np.array([1.0]), [0.0, 1.0])[0] == "unbounded"

    def test_empty_polytope_refuses_to_maximize(self):
        lp = rate_region.LinearProgram(np.array([[1.0, 1.0]]), np.array([-1.0]))
        assert not lp.feasible
        with pytest.raises(ValueError, match="empty"):
            lp.maximize(np.array([1.0, 0.0]))


class TestFixedRateRegions:
    def test_marginal_rates_always_inside(self):
        rng = np.random.default_rng(17)
        p = random_pmf(rng, (2, 2, 2))
        H = HonestCollection.threshold(3, 1)
        R = InfoModel.perfect_info((2, 2, 2))
        rates = [entropy(p, SubsetView.of(i)) for i in range(3)]
        for kind in ("randomized", "deterministic"):
            assert fixed_rate_region_contains(rates, p, H, R, kind)

    def test_sw_corner_boundary_and_violation(self):
        p = JointPMF((2, 2), np.array([[0.445, 0.055], [0.055, 0.445]]))
        S = SubsetView.of(0, 1)
        corner = [entropy(p, SubsetView.of(0)),
                  conditional_entropy(p, SubsetView.of(1), SubsetView.of(0))]
        assert sw_region_contains(corner, p, S)
        worse = [corner[0], corner[1] - 0.01]
        assert not sw_region_contains(worse, p, S)

    def test_deterministic_region_trivial_for_three_sensors(self):
        p = three_sensor_law()
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        R = InfoModel.perfect_info((2, 2, 2))
        extras = deterministic_extra_constraints(p, H, R)
        singles = {e.indices for e in extras if len(e) == 1}
        assert singles == {(0,), (1,), (2,)}
        hs = [entropy(p, SubsetView.of(i)) for i in range(3)]
        inside = [h + 0.01 for h in hs]
        assert fixed_rate_region_contains(inside, p, H, R, "deterministic")
        below = [hs[0] - 0.02, hs[1] + 0.01, hs[2] + 0.01]
        assert not fixed_rate_region_contains(below, p, H, R, "deterministic")

    def test_randomized_contains_deterministic(self):
        rng = np.random.default_rng(18)
        p = random_pmf(rng, (2, 2, 2))
        H = HonestCollection.threshold(3, 1)
        R = InfoModel.perfect_info((2, 2, 2))
        for _ in range(100):
            rates = rng.uniform(0, 1.6, size=3)
            if fixed_rate_region_contains(rates, p, H, R, "deterministic"):
                assert fixed_rate_region_contains(rates, p, H, R, "randomized")

    def test_negative_rates_rejected(self):
        p = three_sensor_law()
        with pytest.raises(ValueError):
            sw_region_contains([-0.1, 1.0], p, SubsetView.of(0, 1))

    @staticmethod
    def assert_extras_match_channel_test(p, H):
        R = InfoModel.perfect_info(p.alphabet_sizes)
        got = deterministic_extra_constraints(p, H, R)
        want = reference_deterministic_extra_constraints(p, H, R)
        assert [s.indices for s in got] == [s.indices for s in want]

    @pytest.mark.parametrize("m, t", [(m, t) for m in range(1, 6) for t in range(m)])
    def test_perfect_info_extras_match_channel_test_threshold(self, m, t):
        rng = np.random.default_rng([77, m, t])
        H = HonestCollection.threshold(m, t)
        self.assert_extras_match_channel_test(random_pmf(rng, (2,) * m), H)
        if m <= 3:
            self.assert_extras_match_channel_test(random_pmf(rng, (3,) + (2,) * (m - 1)), H)

    def test_perfect_info_extras_match_channel_test_presets(self):
        from byzsw.scenario import PRESETS, scenario_from_dict
        for name in sorted(PRESETS):
            scn = scenario_from_dict(PRESETS[name]())
            self.assert_extras_match_channel_test(scn.p, scn.collection)

    def test_sw_facets_read_the_entropy_table(self):
        p = random_pmf(np.random.default_rng(78), (2, 3, 2, 2))
        S = SubsetView.of(0, 2, 3)
        got = rate_region.sw_facets(p, S)
        subs = [c for k in (1, 2, 3) for c in itertools.combinations(S.indices, k)]
        assert [sub for sub, _ in got] == subs
        for sub, bound in got:
            rest = S.difference(SubsetView(sub))
            assert bound.hex() == conditional_entropy(p, SubsetView(sub), rest).hex()
