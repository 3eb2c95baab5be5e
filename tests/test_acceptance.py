"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values. Exact golden-formula checks run at tight tolerances;
finite-blocklength protocol claims run as seeded Monte Carlo with the stated
budgets."""
import itertools
import math
import time
import warnings

import numpy as np

from byzsw.fixed_rate import FixedRateCode, encode_all
from byzsw.prob_core import (
    JointPMF,
    SubsetView,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    eta_ball_contains,
    type_of,
)
from byzsw.rate_region import (
    HonestCollection,
    InfoModel,
    fixed_rate_region_contains,
    max_entropy_with_marginals,
    r_star_perfect,
)
from byzsw.scenario import (
    PRESETS,
    canonical_dumps,
    run_trial,
)
from byzsw.source_model import derive_seed, sample_block
from byzsw.variable_rate import ProtocolParams, run_session

from oracles import pg_maxent_oracle


def random_positive_law(rng, sizes) -> JointPMF:
    cells = int(np.prod(sizes))
    mass = rng.dirichlet(np.full(cells, 2.0))
    return JointPMF(tuple(sizes), mass.reshape(sizes))


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


def test_criterion_1_region_golden_values():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    h1 = HonestCollection.threshold(3, 1)
    hm1 = HonestCollection.threshold(3, 2)
    h0 = HonestCollection.explicit([[0, 1, 2]])
    worst_a = worst_b = worst_c = 0.0
    for _ in range(20):
        p = random_positive_law(rng, (2, 2, 2))
        cmis = [conditional_mutual_information(
            p, SubsetView.of(i), SubsetView.of(j),
            given=SubsetView.of(({0, 1, 2} - {i, j}).pop()))
            for i, j in ((0, 1), (0, 2), (1, 2))]
        eq_pairwise = entropy(p) + max(cmis)
        got = r_star_perfect(p, h1).r_star
        worst_a = max(worst_a, abs(got - eq_pairwise))

        got_ind = r_star_perfect(p, hm1).r_star
        sum_h = sum(entropy(p, SubsetView.of(i)) for i in range(3))
        worst_b = max(worst_b, abs(got_ind - sum_h))

        got_sw = r_star_perfect(p, h0).r_star
        worst_c = max(worst_c, abs(got_sw - entropy(p)))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 1 region golden values: PASS "
          f"(|err| t=1 {worst_a:.2e}, t=m-1 {worst_b:.2e}, "
          f"no-traitor {worst_c:.2e}, {elapsed:.1f}s)")
    assert worst_a < 1e-6
    assert worst_b < 1e-6
    assert worst_c < 1e-9
    assert elapsed < 10.0


def test_criterion_2_max_entropy_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    # product-form factorization of the pair-chain maximizer
    worst_cell = 0.0
    for _ in range(5):
        p = random_positive_law(rng, (2, 2, 2))
        res = max_entropy_with_marginals(p, [SubsetView.of(0, 1), SubsetView.of(1, 2)])
        p01 = p.mass.sum(axis=2)
        p12 = p.mass.sum(axis=0)
        p1 = p.mass.sum(axis=(0, 2))
        want = np.einsum("ab,bc->abc", p01, p12 / p1[:, None])
        worst_cell = max(worst_cell, float(np.max(np.abs(res.q.mass - want))))
    assert worst_cell < 1e-7

    # irreducible three-set family on six binary sensors vs the independent
    # projected-gradient oracle
    V = [SubsetView.of(0, 1, 2), SubsetView.of(2, 3, 4), SubsetView.of(4, 5, 0)]
    worst_gap = 0.0
    for _ in range(3):
        p = random_positive_law(rng, (2,) * 6)
        res = max_entropy_with_marginals(p, V)
        assert res.converged
        oracle = pg_maxent_oracle(p, V)
        worst_gap = max(worst_gap, abs(res.value - oracle))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 2 max-entropy structure: PASS "
          f"(factorization {worst_cell:.2e}/cell, oracle gap {worst_gap:.2e}, "
          f"{elapsed:.1f}s)")
    assert worst_gap < 1e-4
    assert elapsed < 60.0


def test_criterion_3_fixed_rate_region_logic():
    p = chain_law()
    H = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
    R = InfoModel.perfect_info((2, 2, 2))
    hs = [entropy(p, SubsetView.of(i)) for i in range(3)]
    pair_bounds = {}
    single_bounds = {}
    for i in range(3):
        others = [j for j in range(3) if j != i]
        single_bounds[i] = max(conditional_entropy(p, SubsetView.of(i),
                                                   SubsetView.of(j))
                               for j in others)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pair_bounds[(i, j)] = entropy(p, SubsetView.of(i, j))

    def eq5_contains(rates):
        ok = all(rates[i] >= single_bounds[i] - 1e-9 for i in range(3))
        return ok and all(rates[i] + rates[j] >= pair_bounds[(i, j)] - 1e-9
                          for i, j in pair_bounds)

    grid = np.linspace(0.0, 1.3, 10)
    mismatches_det = mismatches_rand = inclusion_fail = 0
    for rates in itertools.product(grid, repeat=3):
        det = fixed_rate_region_contains(rates, p, H, R, "deterministic")
        rand = fixed_rate_region_contains(rates, p, H, R, "randomized")
        want_det = all(rates[i] >= hs[i] - 1e-9 for i in range(3))
        mismatches_det += det != want_det
        mismatches_rand += rand != eq5_contains(rates)
        inclusion_fail += det and not rand
    assert mismatches_det == 0
    assert mismatches_rand == 0
    assert inclusion_fail == 0

    # constructed law with I(X0 X1; X2) > I(X0; X1 | X2) and the latter the
    # largest pairwise penalty: the pairwise-sum bound exceeds the
    # variable-rate minimum
    mass = np.zeros((4, 4, 4))
    for y01 in range(2):
        for y02 in range(2):
            for y12 in range(2):
                pr = 0.5 * (0.75 if y02 == 0 else 0.25) * (0.75 if y12 == 0 else 0.25)
                mass[2 * y01 + y02, 2 * y01 + y12, 2 * y02 + y12] += pr
    py = JointPMF((4, 4, 4), mass)
    i_pair = conditional_mutual_information(py, SubsetView.of(0), SubsetView.of(1),
                                            given=SubsetView.of(2))
    i_joint = conditional_mutual_information(py, SubsetView.of(0, 1), SubsetView.of(2))
    assert i_joint > i_pair
    cmis = [conditional_mutual_information(
        py, SubsetView.of(i), SubsetView.of(j),
        given=SubsetView.of(({0, 1, 2} - {i, j}).pop()))
        for i, j in ((0, 1), (0, 2), (1, 2))]
    assert abs(max(cmis) - i_pair) < 1e-12
    eq4 = r_star_perfect(py, HonestCollection.threshold(3, 1)).r_star
    fixed_sum = entropy(py) + 0.5 * (i_pair + i_joint)
    half_sum = 0.5 * (entropy(py, SubsetView.of(0, 1))
                      + entropy(py, SubsetView.of(0, 2))
                      + entropy(py, SubsetView.of(1, 2)))
    assert abs(fixed_sum - half_sum) < 1e-6
    gap = fixed_sum - eq4
    assert gap > 1e-6
    assert abs(gap - 0.5 * (i_joint - i_pair)) < 1e-6
    print(f"ACCEPTANCE 3 fixed-rate region logic: PASS "
          f"(grid 1000 pts exact, sum-rate gap {gap:.6f} bits)")


def test_criterion_4_variable_rate_no_traitors():
    t0 = time.perf_counter()
    doc = PRESETS["two_sensor_baseline"]()
    assert doc["trials"] == 100
    doc_json = canonical_dumps(doc)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(doc["trials"]):
            rows.append(run_trial(doc_json, trial, "vr"))
    err_rate = sum(r["honest_error"] for r in rows) / len(rows)
    mean_rate = sum(float(r["sum_rate"]) for r in rows) / len(rows)
    p = JointPMF((2, 2), np.asarray(doc["pmf"]))
    eps, nu = doc["variable_rate"]["eps"], doc["variable_rate"]["nu"]
    bound = entropy(p) + 2 * (2 * eps + nu) + 0.1
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 4 variable-rate honest baseline: PASS "
          f"(error rate {err_rate:.3f} <= 0.05, mean rate {mean_rate:.3f} <= "
          f"{bound:.3f}, {elapsed:.0f}s)")
    assert err_rate <= 0.05
    assert mean_rate <= bound
    assert elapsed < 300.0


def test_criterion_5_variable_rate_under_attack():
    t0 = time.perf_counter()
    doc = PRESETS["three_sensor"]()
    assert doc["strategy"] == {"kind": "fake_distribution", "q_bar": "optimal",
                               "target_set": None}
    doc_json = canonical_dumps(doc)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(doc["trials"]):
            rows.append(run_trial(doc_json, trial, "attack-vr"))
    err_rate = sum(r["honest_error"] for r in rows) / len(rows)
    mean_rate = sum(float(r["sum_rate"]) for r in rows) / len(rows)
    indist = sum(r["indistinguishable"] for r in rows) / len(rows)

    p = JointPMF((2, 2, 2), np.asarray(doc["pmf"]))
    region = r_star_perfect(p, HonestCollection.explicit(
        doc["honest_collection"]["sets"]))
    eps, nu = doc["variable_rate"]["eps"], doc["variable_rate"]["nu"]
    budget = region.r_star + 3 * (2 * eps + nu)

    # over-budget rounds, asserted exactly for every session
    over_counts = [r["over_budget_rounds"] for r in rows]
    assert all(c <= 3 for c in over_counts)

    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 5 variable-rate under attack: PASS "
          f"(error {err_rate:.3f} <= 0.05, rate {mean_rate:.3f} <= "
          f"{budget + 0.2:.3f}, indistinguishable {indist:.2f} >= 0.9, "
          f"over-budget max {max(over_counts)} <= 3, {elapsed:.0f}s)")
    assert err_rate <= 0.05
    assert mean_rate <= budget + 0.2
    assert indist >= 0.9
    assert elapsed < 600.0


def test_criterion_6_fixed_rate_achievability_and_converse():
    t0 = time.perf_counter()
    doc = PRESETS["fixed_rate_randomized"]()
    assert doc["trials"] == 200
    # the rates are an interior point of the randomized region plus the
    # 0.1 margin per sensor
    p = JointPMF((2, 2, 2), np.asarray(doc["pmf"]))
    H = HonestCollection.explicit(doc["honest_collection"]["sets"])
    R = InfoModel.perfect_info((2, 2, 2))
    base = [r - 0.1 for r in doc["fixed_rate"]["rates"]]
    assert fixed_rate_region_contains(base, p, H, R, "randomized")

    doc_json = canonical_dumps(doc)
    rows = [run_trial(doc_json, t, "fr") for t in range(doc["trials"])]
    err_rate = sum(r["honest_error"] for r in rows) / len(rows)
    assert err_rate <= 0.1

    demo = PRESETS["fixed_rate_demo"]()
    assert demo["trials"] == 200
    # demo rates sit inside the randomized region but violate the
    # deterministic extra constraint R_1 >= H(X_1)
    drates = demo["fixed_rate"]["rates"]
    assert fixed_rate_region_contains(drates, p, H, R, "randomized")
    assert not fixed_rate_region_contains(drates, p, H, R, "deterministic")
    demo_json = canonical_dumps(demo)
    demo_rows = [run_trial(demo_json, t, "attack-fr") for t in range(demo["trials"])]
    demo_err = sum(r["honest_error"] for r in demo_rows) / len(demo_rows)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 6 fixed-rate achievability/converse: PASS "
          f"(worst-case error {err_rate:.3f} <= 0.1, converse error "
          f"{demo_err:.2f} >= 0.2, {elapsed:.0f}s)")
    assert demo_err >= 0.2
    assert elapsed < 600.0


def test_criterion_7_determinism(tmp_path):
    from byzsw.cli import main
    doc = PRESETS["two_sensor_baseline"]()
    doc["variable_rate"].update({"n": 8, "rounds": 5, "c_subcodebooks": 8})
    doc["trials"] = 3
    scn = tmp_path / "scenario.json"
    scn.write_text(canonical_dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("a", "b"):
            assert main(["simulate-vr", "--scenario", str(scn),
                         "--out", str(tmp_path / name)]) == 0
        for name in ("fa", "fb"):
            assert main(["simulate-fr", "--preset", "fixed_rate_randomized",
                         "--trials", "5", "--out", str(tmp_path / name)]) == 0
    vr_same = ((tmp_path / "a" / "vr_trials.csv").read_bytes()
               == (tmp_path / "b" / "vr_trials.csv").read_bytes())
    fr_same = ((tmp_path / "fa" / "fr_trials.csv").read_bytes()
               == (tmp_path / "fb" / "fr_trials.csv").read_bytes())
    print(f"ACCEPTANCE 7 determinism: PASS (vr CSV identical {vr_same}, "
          f"fr CSV identical {fr_same})")
    assert vr_same and fr_same


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    fails = dict.fromkeys(
        ["chain_rule", "ball_monotone", "v_monotone", "termination",
         "rate_identity", "c1_reduction"], 0)

    # entropy chain rule, 1000 random laws
    for _ in range(1000):
        m = int(rng.integers(2, 4))
        p = JointPMF((2,) * m, rng.dirichlet(np.ones(2 ** m)).reshape((2,) * m))
        cut = int(rng.integers(1, m))
        a = SubsetView(tuple(range(cut)))
        b = SubsetView(tuple(range(cut, m)))
        lhs = entropy(p, a.union(b))
        rhs = entropy(p, a) + conditional_entropy(p, b, a)
        fails["chain_rule"] += abs(lhs - rhs) > 1e-9

    # eta-ball monotonicity, 1000 cases
    for _ in range(1000):
        p = JointPMF((2, 2), rng.dirichlet(np.ones(4)).reshape(2, 2))
        t = type_of(rng.integers(0, 2, size=(2, 13)), (2, 2))
        eta = float(rng.uniform(0, 2))
        if eta_ball_contains(p, t, eta):
            fails["ball_monotone"] += not eta_ball_contains(
                p, t, eta + float(rng.uniform(0, 2)))

    # protocol properties over >= 1000 rounds / phases
    law = chain_law()
    coll = HonestCollection.explicit([[0, 1], [0, 2], [1, 2]])
    im = InfoModel.perfect_info((2, 2, 2))
    params = ProtocolParams(n=8, rounds=40, eps=0.35, nu=1.0, eta=0.5, C=8)
    j_cap = math.ceil(1 / 0.35)
    rounds_seen = phases_seen = 0
    from byzsw.adversary import BlackHole
    for seed in range(25):
        strat = BlackHole() if seed % 2 else None
        h_true = SubsetView.of(1, 2) if seed % 2 else SubsetView.of(0, 1, 2)
        coll_use = coll if seed % 2 else HonestCollection.explicit(
            [[0, 1], [0, 2], [1, 2], [0, 1, 2]])
        rep = run_session(law, coll_use, im, h_true, None, strat, params,
                          seed=derive_seed(5, "prop", seed))
        for a, b in zip(rep.v_trajectory, rep.v_trajectory[1:]):
            keys = {s.indices for s in a}
            fails["v_monotone"] += not all(s.indices in keys for s in b)
        for I, tx in enumerate(rep.phase_transactions):
            rounds_seen += 1
            expect = sum(rep.transcript[k].bits for k in range(len(rep.transcript))
                         if rep.transcript[k].round == I) / 8
            fails["rate_identity"] += abs(rep.round_rates[I] - expect) > 0
            for sensor, j in tx.items():
                phases_seen += 1
                fails["termination"] += not (1 <= j <= j_cap)
    assert rounds_seen >= 1000
    assert phases_seen >= 1000

    # a C=1 code sends subcodebook 0 and the one-shot bin of every row
    pair_law = JointPMF((2, 2), np.array([[0.4, 0.1], [0.1, 0.4]]))
    for k in range(1000):
        code_seed = int(rng.integers(0, 2 ** 60))
        enc_seed = int(rng.integers(0, 2 ** 60))
        rates = tuple(float(r) for r in rng.uniform(0, 1.6, size=2))
        code = FixedRateCode(rates=rates, n=10, C=1, seed=code_seed)
        blk = sample_block(pair_law, 10, int(rng.integers(0, 2 ** 60)))
        got = encode_all(code, blk, None, None, pair_law, seed=enc_seed)
        fails["c1_reduction"] += got != {i: (0, code.encode(i, 2, blk[i])) for i in range(2)}

    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 8 property suites: PASS ({fails}, "
          f"{rounds_seen} rounds / {phases_seen} phases, {elapsed:.0f}s)")
    assert all(v == 0 for v in fails.values()), fails
