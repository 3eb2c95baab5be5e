"""Tests for traitor strategies and the converse constructions."""
import dataclasses

import numpy as np
import pytest

from byzsw.adversary import (
    BlackHole,
    FakeDistribution,
    HonestPassthrough,
    TraitorContext,
    fabricate_block,
    fixed_rate_ambiguity_attack,
    make_strategy,
    optimal_fake_conditional,
)
from byzsw.binning import BinningCodebook, EnumerationGuardError
from byzsw.fixed_rate import FixedRateCode
from byzsw.prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    eta_ball_contains,
    identity_channel,
    type_of,
)
from byzsw.rate_region import HonestCollection, InfoModel, r_star_perfect
from byzsw.source_model import (
    SourceBlock,
    derive_seed,
    sample_block,
    sample_side_info,
)
from byzsw.variable_rate import ProtocolParams, run_session
from oracles import reference_ambiguity_attack


def three_sensor_law() -> JointPMF:
    mass = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            mass[x0, x1, x0] = 0.5 * (0.75 if x1 == x0 else 0.25)
    return JointPMF((2, 2, 2), mass)


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


def perfect_ctx(p, honest, n, seed):
    m = p.m
    traitors = honest.complement(m)
    block = sample_block(p, n, derive_seed(seed, "b"))
    w = sample_side_info(identity_channel(p.alphabet_sizes), block,
                         derive_seed(seed, "w"))
    ctx = TraitorContext(traitors=traitors, seed=derive_seed(seed, "t"),
                         alphabet_sizes=p.alphabet_sizes, w_block=w,
                         own_block=SourceBlock(n, block.subset(traitors.indices)))
    return ctx, block


class TestCapabilitySurface:
    def test_context_exposes_no_honest_secrets(self):
        fields = {f.name for f in dataclasses.fields(TraitorContext)}
        assert fields == {"traitors", "seed", "alphabet_sizes", "w_block",
                          "own_block", "codebooks", "polling_history"}
        # nothing resembling honest randomness or honest message contents
        assert not any("honest" in f or "rho" in f or "message" in f
                       for f in fields)


class TestFabricate:
    def test_true_conditional_reproduces_p(self):
        p = three_sensor_law()
        honest = SubsetView.of(0, 1)
        q_bar = optimal_fake_conditional(p, honest, (2, 2, 2))  # p(x2 | x0 x1)
        ctx, block = perfect_ctx(p, honest, 50_000, 11)
        fake = fabricate_block(ctx, q_bar, 12)
        stacked = np.vstack([block.symbols[:2], fake])
        t = type_of(stacked, (2, 2, 2))
        assert eta_ball_contains(p, t, 0.05)

    def test_three_sensor_attack_matches_fake_joint(self):
        # traitor 2 simulates p(x2 | x1): the joint type approaches
        # q = p(x0 x1) p(x2 | x1)
        p = three_sensor_law()
        honest = SubsetView.of(0, 1)
        rep = r_star_perfect(p, HonestCollection.explicit([[0, 1], [0, 2], [1, 2]]))
        q_star = rep.per_pair_detail[honest][2]
        q_bar = optimal_fake_conditional(q_star, honest, (2, 2, 2))
        ctx, block = perfect_ctx(p, honest, 50_000, 13)
        fake = fabricate_block(ctx, q_bar, 14)
        stacked = np.vstack([block.symbols[:2], fake])
        t = type_of(stacked, (2, 2, 2))
        assert eta_ball_contains(q_star, t, 0.05)
        assert not eta_ball_contains(p, t, 0.05)   # visibly not the true law

    def test_side_info_and_fake_jointly_follow_composed_law(self):
        # law on (w, fake): p_W(w) qbar(x_T | w)
        p = three_sensor_law()
        honest = SubsetView.of(0, 1)
        q_bar = optimal_fake_conditional(p, honest, (2, 2, 2))
        ctx, block = perfect_ctx(p, honest, 100_000, 15)
        fake = fabricate_block(ctx, q_bar, 16)
        w_sym = ctx.w_block.w_symbols
        t = type_of(np.vstack([w_sym[None, :], fake]), (8, 2))
        composed = np.zeros((8, 2))
        pw = np.bincount(
            np.ravel_multi_index(tuple(sample_block(p, 1, 0).symbols * 0), (2, 2, 2)),
            minlength=8) * 0.0
        pw = p.mass.reshape(-1)
        for w in range(8):
            composed[w] = pw[w] * q_bar.rows.reshape(8, 2)[w]
        assert eta_ball_contains(JointPMF((8, 2), composed), t, 0.02)

    def test_optimal_fake_rows_are_conditionals(self):
        p = three_sensor_law()
        honest = SubsetView.of(0, 1)
        q_bar = optimal_fake_conditional(p, honest, (2, 2, 2))
        for w in range(8):
            x0, x1, _ = np.unravel_index(w, (2, 2, 2))
            p01 = p.mass[x0, x1].sum()
            if p01 > 0:
                assert np.allclose(q_bar.rows[w], p.mass[x0, x1] / p01, atol=1e-12)

    def test_no_traitors_degenerates(self):
        p = three_sensor_law()
        with pytest.raises(ValueError):
            optimal_fake_conditional(p, SubsetView.of(0, 1, 2), (2, 2, 2))


class TestVariableRateResponses:
    def test_black_hole_index_in_range(self):
        p = three_sensor_law()
        ctx, _ = perfect_ctx(p, SubsetView.of(0, 1), 12, 17)
        cb = BinningCodebook(2, 12, 2, 0.35, 1.925, 8, 5)
        ctx.codebooks = {2: cb}
        strat = BlackHole()
        strat.begin_round(ctx, 0)
        for j in range(cb.J):
            for rep in range(50):
                assert 0 <= strat.respond(ctx, rep, 2, 0, j) < cb.bin_count(j)

    def test_base_respond_refuses_to_answer(self):
        # the session encodes a reported block itself; a strategy that
        # reports none must answer the polls
        class Silent(HonestPassthrough):
            def reported_block(self, ctx, sensor):
                return None

        p = three_sensor_law()
        ctx, _ = perfect_ctx(p, SubsetView.of(0, 1), 12, 17)
        ctx.codebooks = {2: BinningCodebook(2, 12, 2, 0.35, 1.925, 8, 5)}
        for strat in (HonestPassthrough(), Silent()):
            with pytest.raises(NotImplementedError):
                strat.respond(ctx, 0, 2, 0, 0)
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        params = ProtocolParams(n=10, rounds=2, eps=0.35, eta=4.0, C=8)
        with pytest.raises(NotImplementedError, match="Silent"):
            run_session(p, H, InfoModel.perfect_info((2, 2, 2)), SubsetView.of(0, 1), None,
                        Silent(), params, seed=21)

    def test_session_sends_each_rounds_reported_block(self):
        # a subclass whose begin_round skips super() is encoded from the
        # block it reports for each round
        class PerRound(HonestPassthrough):
            def begin_round(self, ctx, round_index):
                self._round = round_index

            def reported_block(self, ctx, sensor):
                return np.full(10, self._round % 2)

        p = three_sensor_law()
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        params = ProtocolParams(n=10, rounds=4, eps=0.35, eta=4.0, C=8)
        report = run_session(p, H, InfoModel.perfect_info((2, 2, 2)), SubsetView.of(0, 1),
                             None, PerRound(), params, seed=21)
        C = params.subcodebook_count(3, (2, 2, 2))
        cb = BinningCodebook(2, 10, 2, 0.35, params.nu_value, C, derive_seed(21, "codebook", 2))
        sent = [rec for rec in report.transcript if rec.sensor == 2]
        assert {rec.round for rec in sent} == set(range(4))
        for rec in sent:
            assert rec.bin_index == cb.encode_block(np.full(10, rec.round % 2), rec.c, rec.j)

    def test_honest_passthrough_matches_all_honest_session(self):
        p = three_sensor_law()
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        params = ProtocolParams(n=10, rounds=4, eps=0.35, eta=4.0, C=8)
        all_honest = run_session(p, H, im, SubsetView.of(0, 1, 2), None, None,
                                 params, seed=21)
        # same seed, sensor 2 a passthrough traitor: identical decodes and rate
        with_traitor = run_session(p, H, im, SubsetView.of(0, 1),
                                   None, HonestPassthrough(), params, seed=21)
        assert with_traitor.sum_rate == pytest.approx(all_honest.sum_rate, abs=0.8)
        assert not with_traitor.honest_error

    def test_fake_distribution_block_is_decoded_verbatim(self):
        # the decoder should recover exactly the fabricated sequence for the
        # traitor coordinate in nearly every round
        p = three_sensor_law()
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        honest = SubsetView.of(0, 1)
        rep = r_star_perfect(p, H)
        q_bar = optimal_fake_conditional(rep.per_pair_detail[honest][2],
                                         honest, (2, 2, 2))
        params = ProtocolParams(n=12, rounds=25, eps=0.35, eta=4.0, C=64)
        ok = total = 0
        for seed in (31, 32):
            strat = FakeDistribution(q_bar)
            report = run_session(p, H, im, honest, None, strat, params, seed=seed)
            assert not report.honest_error
            # replay the fabrication from the derived seed stream
            traitor_seed = derive_seed(seed, "traitor")
            for I in range(params.rounds):
                block = sample_block(p, params.n, derive_seed(seed, "block", I))
                w = sample_side_info(identity_channel((2, 2, 2)), block,
                                     derive_seed(seed, "sideinfo", I))
                replay_ctx = TraitorContext(traitors=SubsetView.of(2),
                                            seed=traitor_seed,
                                            alphabet_sizes=(2, 2, 2), w_block=w)
                fake = fabricate_block(replay_ctx, q_bar,
                                       derive_seed(traitor_seed,
                                                   "fabricate-round", I))
                total += 1
                est = report.round_estimates[I].get(2)
                ok += est is not None and np.array_equal(est, fake[0])
        assert ok / total >= 0.95


class TestNoTraitorDegeneration:
    def test_fake_strategy_with_empty_traitor_set_is_noop(self):
        # when the true honest set is everybody, the session ignores the
        # strategy entirely and matches the all-honest run bit for bit
        p = three_sensor_law()
        H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2], [0, 1, 2]])
        im = InfoModel.perfect_info((2, 2, 2))
        params = ProtocolParams(n=10, rounds=5, eps=0.35, eta=4.0, C=8)
        q_bar = optimal_fake_conditional(p, SubsetView.of(0, 1), (2, 2, 2))
        a = run_session(p, H, im, SubsetView.of(0, 1, 2), None, None,
                        params, seed=3)
        b = run_session(p, H, im, SubsetView.of(0, 1, 2), None,
                        FakeDistribution(q_bar), params, seed=3)
        assert a.transcript == b.transcript
        assert a.sum_rate == b.sum_rate


class TestAmbiguityAttack:
    def setup_code(self, rates, seed=0):
        return FixedRateCode(rates=rates, n=14, kind="deterministic", C=1,
                             seed=seed, eps_decode=1.4)

    def test_not_found_inside_sw(self):
        # R_1 well above H(X_1): no confusable sequence in the bin
        p = chain_law()
        honest = SubsetView.of(1, 2)
        misses = 0
        for seed in range(40):
            code = self.setup_code((1.5, 1.5, 1.5), seed=derive_seed(seed, "c"))
            ctx, block = perfect_ctx(p, honest, 14, seed)
            out = fixed_rate_ambiguity_attack(ctx, SubsetView.of(0, 1), honest,
                                              code, p, block)
            misses += not out.found
        assert misses >= 38

    def test_found_below_sw_and_messages_well_formed(self):
        p = chain_law()
        honest = SubsetView.of(1, 2)
        found = 0
        for seed in range(40):
            code = self.setup_code((0.92, 0.75, 0.95), seed=derive_seed(seed, "c"))
            ctx, block = perfect_ctx(p, honest, 14, seed + 1000)
            out = fixed_rate_ambiguity_attack(ctx, SubsetView.of(0, 1), honest,
                                              code, p, block)
            if out.found:
                found += 1
                assert set(out.messages) == {0}
                assert not np.array_equal(out.fake_intersection,
                                          block.subset([1]))
        assert found >= 30

    def test_zero_rate_trivially_found(self):
        p = chain_law()
        honest = SubsetView.of(1, 2)
        code = self.setup_code((0.9, 0.0, 0.9), seed=3)
        ctx, block = perfect_ctx(p, honest, 14, 77)
        out = fixed_rate_ambiguity_attack(ctx, SubsetView.of(0, 1), honest,
                                          code, p, block)
        assert out.found

    def test_requires_deterministic_kind(self):
        p = chain_law()
        honest = SubsetView.of(1, 2)
        code = FixedRateCode(rates=(1.0, 1.0, 1.0), n=14, kind="randomized",
                             C=4, seed=1)
        ctx, block = perfect_ctx(p, honest, 14, 5)
        with pytest.raises(ValueError):
            fixed_rate_ambiguity_attack(ctx, SubsetView.of(0, 1), honest, code,
                                        p, block)


# (alphabet sizes, true honest set, S1, n): every joint space at most 2^14
ORACLE_CONFIGS = [
    ((2, 2, 2), (1, 2), (0, 1), 14),            # 3 sensors, S1 = {0,1}
    ((2, 2, 2, 2), (1, 2, 3), (0, 1, 2), 7),    # two intersection sensors
    ((2, 2, 2, 2), (2, 3), (0, 1, 2), 7),       # two outer sensors
    ((3, 3, 3), (1, 2), (0, 1), 8),             # ternary
    ((2, 3, 2), (1, 2), (0, 1), 8),             # ternary intersection
    ((3, 2, 3), (1, 2), (0, 1), 8),             # ternary companion
    ((2, 2, 2, 2), (2, 3), (0, 2), 12),         # a traitor outside S1
]


def oracle_instance(k):
    """Seeded attack instance k: a Dirichlet law, rates for the intersection
    sensors from 0 (one bin) up, and a typicality width and attempt budget
    that leave a share of instances without a candidate or a companion."""
    rng = np.random.default_rng([10, k])
    sizes, honest, S1, n = ORACLE_CONFIGS[k % len(ORACLE_CONFIGS)]
    p = JointPMF(sizes, rng.dirichlet(np.full(int(np.prod(sizes)), 0.6)).reshape(sizes))
    honest, S1 = SubsetView(honest), SubsetView(S1)
    inter = S1.intersection(honest)
    rates = tuple((0.0 if k % 5 == 0 else float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])))
                  if i in inter else float(rng.uniform(0.5, 1.5))
                  for i in range(len(sizes)))
    code = FixedRateCode(rates=rates, n=n, kind="deterministic", C=1,
                         seed=derive_seed(k, "code"),
                         eps_decode=float(rng.choice([0.3, 0.6, 1.0, 1.4])))
    block = sample_block(p, n, derive_seed(k, "block"))
    traitors = honest.complement(len(sizes))
    ctx = TraitorContext(traitors=traitors, seed=derive_seed(k, "traitor"),
                         own_block=SourceBlock(n, block.subset(traitors.indices)))
    return (ctx, S1, honest, code, p, block), int(rng.choice([1, 4, 64, 64]))


class TestAmbiguityOracle:
    """The counting construction against the enumerating search it replaced."""

    def test_matches_enumeration(self):
        tally = {}
        for k in range(168):
            args, attempts = oracle_instance(k)
            got = fixed_rate_ambiguity_attack(*args, max_attempts=attempts)
            want = reference_ambiguity_attack(*args, max_attempts=attempts)
            assert got.found == want.found, k
            assert got.messages == want.messages, k
            assert got.confused_sensors == want.confused_sensors, k
            for name in ("fake_intersection", "fake_companion"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (k, name)
                if a is not None:
                    assert a.dtype == b.dtype and np.array_equal(a, b), (k, name)
            key = (k % len(ORACLE_CONFIGS), got.found)
            tally[key] = tally.get(key, 0) + 1
        # every configuration has both outcomes
        assert len(tally) == 2 * len(ORACLE_CONFIGS)

    @pytest.mark.parametrize("sizes,honest,S1,n", [
        ((2, 2, 2), (1, 2), (0, 1), 23),           # intersection 2^23
        ((3, 3, 3), (1, 2), (0, 1), 14),           # intersection 3^14
        ((2, 2, 2, 2), (2, 3), (0, 1, 2), 12),     # companions 4^12
    ])
    def test_same_guard_refusal(self, sizes, honest, S1, n):
        p = JointPMF(sizes, np.full(sizes, 1.0 / np.prod(sizes)))
        honest, S1 = SubsetView(honest), SubsetView(S1)
        code = FixedRateCode(rates=(0.5,) * len(sizes), n=n, kind="deterministic",
                             C=1, seed=1)
        block = sample_block(p, n, 3)
        traitors = honest.complement(len(sizes))
        ctx = TraitorContext(traitors=traitors, seed=2,
                             own_block=SourceBlock(n, block.subset(traitors.indices)))
        with pytest.raises(EnumerationGuardError) as got:
            fixed_rate_ambiguity_attack(ctx, S1, honest, code, p, block)
        with pytest.raises(EnumerationGuardError) as want:
            reference_ambiguity_attack(ctx, S1, honest, code, p, block)
        assert str(got.value) == str(want.value)
        assert "per-stage 2^22 guard" in str(got.value)


class TestStrategyFactory:
    def test_kinds(self):
        assert make_strategy("black_hole").kind == "black_hole"
        assert make_strategy("honest_passthrough").kind == "honest_passthrough"
        q_bar = ConditionalPMF((2,), 2, np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert make_strategy("fake_distribution", q_bar=q_bar).kind == "fake_distribution"
        with pytest.raises(ValueError):
            make_strategy("fake_distribution")
        with pytest.raises(ValueError):
            make_strategy("nonsense")
