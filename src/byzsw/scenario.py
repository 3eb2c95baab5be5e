"""Scenario files, presets, and the Monte Carlo trial runner.

A scenario file is canonical JSON (sorted keys, two-space indent, trailing
newline) with explicit probability tables and 0-based sensor indices, so that
serialize -> parse -> serialize is byte-identical. The same structures back
the CLI commands and the acceptance suite.

Every trial mode reads its row from one library call: ``run_session`` for
the variable-rate modes, ``run_fixed_rate_trial`` for the fixed-rate ones.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .adversary import STRATEGY_KINDS, TraitorStrategy, make_strategy, optimal_fake_conditional
from .fixed_rate import FixedRateCode, run_fixed_rate_trial
from .prob_core import ConditionalPMF, JointPMF, SubsetView
from .rate_region import (
    HonestCollection,
    InfoModel,
    RegionReport,
    r_star_perfect,
)
from .source_model import derive_seed
from .variable_rate import ProtocolParams, run_session

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _set_key(s: Sequence[int]) -> str:
    return ",".join(str(i) for i in s)


def _parse_set_key(key: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in key.split(",") if tok != "")


@dataclass
class Scenario:
    """Runtime form of a scenario file."""

    m: int
    alphabet_sizes: tuple[int, ...]
    p: JointPMF
    collection: HonestCollection
    info_model: InfoModel
    honest_true: SubsetView
    r_true: ConditionalPMF | None            # None means the identity channel
    strategy_kind: str | None
    q_bar_spec: Any                          # "optimal", nested table, or None
    target_set: SubsetView | None
    vr: ProtocolParams | None
    fr: FixedRateCode | None
    fr_plurality: bool
    trials: int
    seed: int

    _region_cache: RegionReport | None = field(default=None, repr=False)

    def region(self) -> RegionReport:
        if self._region_cache is None:
            if not self.info_model.perfect:
                raise ValueError("exact region evaluation requires perfect information")
            self._region_cache = r_star_perfect(self.p, self.collection)
        return self._region_cache

    def traitors(self) -> SubsetView:
        return self.honest_true.complement(self.m)

    def build_strategy(self) -> TraitorStrategy | None:
        if self.strategy_kind is None or len(self.traitors()) == 0:
            return None
        if self.strategy_kind == "fake_distribution":
            return make_strategy("fake_distribution", q_bar=self.q_bar())
        if self.strategy_kind == "fixed_rate_ambiguity":
            return make_strategy("fixed_rate_ambiguity", target_set=self.target_set)
        return make_strategy(self.strategy_kind)

    def q_bar(self) -> ConditionalPMF:
        traitors = self.traitors()
        sizes_t = tuple(self.alphabet_sizes[i] for i in traitors)
        cells_t = int(np.prod(sizes_t))
        if self.q_bar_spec == "optimal" or self.q_bar_spec is None:
            if not self.info_model.perfect:
                raise ValueError("optimal qbar derivation is implemented for "
                                 "perfect information only")
            _value, _V, q_star = self.region().per_pair_detail[self.honest_true]
            return optimal_fake_conditional(q_star, self.honest_true,
                                            self.alphabet_sizes)
        arr = np.asarray(self.q_bar_spec, dtype=float)
        w = arr.shape[0]
        return ConditionalPMF((w,), cells_t, arr.reshape(w, cells_t))


def _channel_to_nested(chan: ConditionalPMF) -> list:
    return chan.rows.tolist()


def _channel_from_nested(table, input_sizes, w=None) -> ConditionalPMF:
    arr = np.asarray(table, dtype=float)
    if w is None:
        w = arr.shape[-1]
    return ConditionalPMF(tuple(input_sizes), int(w), arr)


def scenario_to_dict(s: Scenario) -> dict:
    if s.collection.threshold_t is not None:
        coll: Any = {"threshold_t": s.collection.threshold_t}
    else:
        coll = {"sets": [list(c.indices) for c in s.collection.candidates]}
    if s.info_model.perfect:
        info: Any = "perfect"
    else:
        info = {"channels": {
            _set_key(k): [_channel_to_nested(ch) for ch in chans]
            for k, chans in sorted(s.info_model.channels.items())}}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "m": s.m,
        "alphabet_sizes": list(s.alphabet_sizes),
        "pmf": s.p.mass.tolist(),
        "honest_collection": coll,
        "info_model": info,
        "true_honest": list(s.honest_true.indices),
        "true_channel": "perfect" if s.r_true is None else _channel_to_nested(s.r_true),
        "strategy": None if s.strategy_kind is None else {
            "kind": s.strategy_kind,
            "q_bar": ("optimal" if s.q_bar_spec in ("optimal", None)
                      else np.asarray(s.q_bar_spec, dtype=float).tolist())
            if s.strategy_kind == "fake_distribution" else None,
            "target_set": list(s.target_set.indices) if s.target_set else None,
        },
        "variable_rate": None if s.vr is None else {
            "n": s.vr.n, "rounds": s.vr.rounds, "eps": s.vr.eps,
            "nu": s.vr.nu, "eta": s.vr.eta, "c_subcodebooks": s.vr.C,
            "alpha": s.vr.alpha,
        },
        "fixed_rate": None if s.fr is None else {
            "rates": list(s.fr.rates), "n": s.fr.n, "kind": s.fr.kind,
            "c_subcodebooks": s.fr.C, "eps_decode": s.fr.eps_decode,
            "plurality": s.fr_plurality,
        },
        "trials": s.trials,
        "seed": s.seed,
    }
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    m = int(doc["m"])
    sizes = tuple(int(a) for a in doc["alphabet_sizes"])
    if len(sizes) != m:
        raise ValueError("alphabet_sizes length != m")
    p = JointPMF(sizes, np.asarray(doc["pmf"], dtype=float))

    coll_doc = doc["honest_collection"]
    if "threshold_t" in coll_doc:
        collection = HonestCollection.threshold(m, int(coll_doc["threshold_t"]))
    else:
        collection = HonestCollection.explicit(coll_doc["sets"])

    info_doc = doc["info_model"]
    if info_doc == "perfect":
        info = InfoModel.perfect_info(sizes)
    else:
        channels = {}
        for key, chans in info_doc["channels"].items():
            channels[SubsetView(_parse_set_key(key))] = [
                _channel_from_nested(t, sizes) for t in chans]
        info = InfoModel.from_channels(channels, sizes)
        for cand in collection:
            info.channels_for(cand)   # raises if missing

    honest_true = SubsetView(tuple(int(i) for i in doc["true_honest"]))
    if honest_true not in collection:
        raise ValueError(f"true honest set {honest_true} not in the collection")

    tc = doc["true_channel"]
    if tc == "perfect":
        if not info.perfect:
            raise ValueError('true_channel "perfect" requires a perfect info model')
        r_true = None
    else:
        r_true = _channel_from_nested(tc, sizes)
        if not info.perfect:
            accepted = info.channels_for(honest_true)
            if not any(ch.rows.shape == r_true.rows.shape
                       and np.allclose(ch.rows, r_true.rows, atol=1e-12)
                       for ch in accepted):
                raise ValueError("true channel is not in the info model for the "
                                 "true honest set")

    strat_doc = doc.get("strategy")
    strategy_kind = q_bar_spec = None
    target_set = None
    if strat_doc is not None:
        strategy_kind = strat_doc["kind"]
        if strategy_kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {strategy_kind!r}; have {STRATEGY_KINDS}")
        q_bar_spec = strat_doc.get("q_bar")
        ts = strat_doc.get("target_set")
        target_set = SubsetView(tuple(int(i) for i in ts)) if ts else None
        if target_set is not None and not all(0 <= i < m for i in target_set):
            raise ValueError(f"target_set {target_set} has a sensor outside [0, {m})")
        if strategy_kind == "fixed_rate_ambiguity" and target_set is None:
            raise ValueError("fixed_rate_ambiguity strategy needs a nonempty target_set")

    vr_doc = doc.get("variable_rate")
    vr = None
    if vr_doc is not None:
        vr = ProtocolParams(n=int(vr_doc["n"]), rounds=int(vr_doc["rounds"]),
                            eps=float(vr_doc["eps"]),
                            nu=vr_doc.get("nu"), eta=vr_doc.get("eta"),
                            C=vr_doc.get("c_subcodebooks"),
                            alpha=float(vr_doc.get("alpha", 0.05)))

    fr_doc = doc.get("fixed_rate")
    fr = None
    fr_plurality = False
    if fr_doc is not None:
        fr = FixedRateCode(rates=tuple(float(r) for r in fr_doc["rates"]),
                           n=int(fr_doc["n"]), kind=fr_doc["kind"],
                           C=int(fr_doc.get("c_subcodebooks", 1)),
                           seed=0,
                           eps_decode=float(fr_doc.get("eps_decode", 1.4)))
        fr_plurality = bool(fr_doc.get("plurality", False))
        if len(fr.rates) != m:
            raise ValueError("fixed_rate.rates length != m")
        if strategy_kind is None and len(honest_true.complement(m)):
            # a variable-rate session lets such traitors behave honestly; a
            # fixed-rate trial needs their strategy
            raise ValueError("fixed_rate with traitors needs a strategy")
    if strategy_kind == "fixed_rate_ambiguity" and len(honest_true.complement(m)):
        # otherwise every trial fails, or the attack reads rows W lacks
        if fr is not None and fr.kind != "deterministic":
            raise ValueError("the ambiguity attack applies to deterministic coding")
        if not (target_set.intersection(honest_true) and target_set.difference(honest_true)):
            raise ValueError(f"target_set {target_set} must straddle the true honest "
                             f"set {honest_true}")
        if not info.perfect or r_true is not None:
            raise ValueError('the ambiguity attack needs perfect information: '
                             'info_model and true_channel "perfect"')

    if doc.get("eavesdropping", False):
        raise ValueError("eavesdropping traitors are not modeled")
    trials = int(doc.get("trials", 1))
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")

    return Scenario(m=m, alphabet_sizes=sizes, p=p, collection=collection,
                    info_model=info, honest_true=honest_true, r_true=r_true,
                    strategy_kind=strategy_kind, q_bar_spec=q_bar_spec,
                    target_set=target_set, vr=vr, fr=fr,
                    fr_plurality=fr_plurality,
                    trials=trials, seed=int(doc["seed"]))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(scenario_to_dict(s)))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _three_sensor_law() -> list:
    # x0 uniform, x1 = x0 with crossover 0.25, x2 = x0 exactly
    mass = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            mass[x0, x1, x0] = 0.5 * (0.75 if x1 == x0 else 0.25)
    return mass.tolist()


def _chain_law(cross: float = 0.15) -> list:
    mass = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x1 in range(2):
            for x2 in range(2):
                pr = 0.5
                pr *= 1 - cross if x1 == x0 else cross
                pr *= 1 - cross if x2 == x1 else cross
                mass[x0, x1, x2] = pr
    return mass.tolist()


def _star_law_m4(cross: float = 0.15) -> list:
    mass = np.zeros((2,) * 4)
    for x in itertools.product(range(2), repeat=4):
        pr = 0.5
        for i in (1, 2, 3):
            pr *= 1 - cross if x[i] == x[0] else cross
        mass[x] = pr
    return mass.tolist()


def _preset_three_sensor() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "m": 3,
        "alphabet_sizes": [2, 2, 2],
        "pmf": _three_sensor_law(),
        "honest_collection": {"sets": [[0, 1], [0, 2], [1, 2]]},
        "info_model": "perfect",
        "true_honest": [0, 1],
        "true_channel": "perfect",
        "strategy": {"kind": "fake_distribution", "q_bar": "optimal",
                     "target_set": None},
        # eta = 4.0: at n = 12 the per-cell type noise is ~0.14 while the
        # default 2*eps tolerance is 0.175/S-cell, so honest candidate sets
        # would be pruned by noise; the wide ball keeps the V update sound at
        # desk scale (eta is a tunable; it vanishes only in the eps -> 0
        # asymptotics).
        "variable_rate": {"n": 12, "rounds": 50, "eps": 0.35, "nu": 1.925,
                          "eta": 4.0, "c_subcodebooks": None, "alpha": 0.05},
        "fixed_rate": None,
        "trials": 100,
        "seed": 20260810,
    }


def _preset_two_sensor_baseline() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "m": 2,
        "alphabet_sizes": [2, 2],
        "pmf": [[0.445, 0.055], [0.055, 0.445]],
        "honest_collection": {"sets": [[0, 1]]},
        "info_model": "perfect",
        "true_honest": [0, 1],
        "true_channel": "perfect",
        "strategy": None,
        "variable_rate": {"n": 12, "rounds": 50, "eps": 0.35, "nu": 1.925,
                          "eta": None, "c_subcodebooks": None, "alpha": 0.05},
        "fixed_rate": None,
        "trials": 100,
        "seed": 20260810,
    }


def _preset_independent_coding() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "m": 3,
        "alphabet_sizes": [2, 2, 2],
        "pmf": _chain_law(),
        "honest_collection": {"threshold_t": 2},
        "info_model": "perfect",
        "true_honest": [0, 1, 2],
        "true_channel": "perfect",
        "strategy": None,
        "variable_rate": {"n": 12, "rounds": 50, "eps": 0.35, "nu": 1.925,
                          "eta": 4.0, "c_subcodebooks": None, "alpha": 0.05},
        "fixed_rate": None,
        "trials": 50,
        "seed": 20260810,
    }


def _preset_four_sensor_plurality() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "m": 4,
        "alphabet_sizes": [2, 2, 2, 2],
        "pmf": _star_law_m4(),
        "honest_collection": {"threshold_t": 1},
        "info_model": "perfect",
        "true_honest": [1, 2, 3],
        "true_channel": "perfect",
        "strategy": {"kind": "fake_distribution", "q_bar": "optimal",
                     "target_set": None},
        "variable_rate": None,
        # candidate sets here have 8 or 16 cells, so the decode ball needs
        # eps_decode ~ 3 at this blocklength; rates sit well above the
        # pairwise-intersection constraints
        "fixed_rate": {"rates": [1.6, 1.6, 1.6, 1.6], "n": 12,
                       "kind": "randomized", "c_subcodebooks": 8,
                       "eps_decode": 3.2, "plurality": True},
        "trials": 100,
        "seed": 20260810,
    }


def _preset_fixed_rate_randomized() -> dict:
    # Rates are an interior point of the pairwise Slepian-Wolf region plus the
    # 0.1 margin; at n = 14 the hash-bin spurious-match rate 2^{n(1-R)} must
    # be well below 1 for reliable decoding, which pins R >= ~1.3.
    return {
        "schema_version": SCHEMA_VERSION,
        "m": 3,
        "alphabet_sizes": [2, 2, 2],
        "pmf": _chain_law(),
        "honest_collection": {"sets": [[0, 1], [0, 2], [1, 2]]},
        "info_model": "perfect",
        "true_honest": [1, 2],
        "true_channel": "perfect",
        "strategy": {"kind": "fake_distribution", "q_bar": "optimal",
                     "target_set": None},
        "variable_rate": None,
        "fixed_rate": {"rates": [1.4, 1.4, 1.4], "n": 14, "kind": "randomized",
                       "c_subcodebooks": 8, "eps_decode": 1.4,
                       "plurality": False},
        "trials": 200,
        "seed": 20260810,
    }


def _preset_fixed_rate_demo() -> dict:
    # Inside the randomized region but outside the deterministic one
    # (R_1 < H(X_1)); the ambiguity attack targets S1 = {0,1} through the
    # known intersection {1}.
    return {
        "schema_version": SCHEMA_VERSION,
        "m": 3,
        "alphabet_sizes": [2, 2, 2],
        "pmf": _chain_law(),
        "honest_collection": {"sets": [[0, 1], [0, 2], [1, 2]]},
        "info_model": "perfect",
        "true_honest": [1, 2],
        "true_channel": "perfect",
        "strategy": {"kind": "fixed_rate_ambiguity", "q_bar": None,
                     "target_set": [0, 1]},
        "variable_rate": None,
        "fixed_rate": {"rates": [0.92, 0.75, 0.95], "n": 14,
                       "kind": "deterministic", "c_subcodebooks": 1,
                       "eps_decode": 1.4, "plurality": False},
        "trials": 200,
        "seed": 20260810,
    }


PRESETS = {
    "three_sensor": _preset_three_sensor,
    "two_sensor_baseline": _preset_two_sensor_baseline,
    "independent_coding": _preset_independent_coding,
    "four_sensor_plurality": _preset_four_sensor_plurality,
    "fixed_rate_randomized": _preset_fixed_rate_randomized,
    "fixed_rate_demo": _preset_fixed_rate_demo,
}


def preset_scenario(name: str) -> Scenario:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    return scenario_from_dict(builder())


# ---------------------------------------------------------------------------
# one trial runner for every mode (module-level for process-pool pickling)
# ---------------------------------------------------------------------------

_SCENARIO_CACHE: dict[str, Scenario] = {}


def _scenario_from_json(doc_json: str) -> Scenario:
    scn = _SCENARIO_CACHE.get(doc_json)
    if scn is None:
        scn = scenario_from_dict(json.loads(doc_json))
        _SCENARIO_CACHE[doc_json] = scn
    return scn


def _session_fields(scn: Scenario, session_seed: int) -> dict:
    strategy = scn.build_strategy()
    report = run_session(scn.p, scn.collection, scn.info_model, scn.honest_true,
                         scn.r_true, strategy, scn.vr, session_seed)
    over: Any = ""
    if scn.info_model.perfect:
        budget = scn.region().r_star + scn.m * (2 * scn.vr.eps + scn.vr.nu_value)
        over = sum(1 for r in report.round_rates if r > budget)
    return {
        "honest_error": int(report.honest_error),
        "sum_rate": repr(report.sum_rate),
        "v_final_size": len(report.final_V),
        "over_budget_rounds": over,
        "decode_forced": report.decode_forced,
        "v_empty_restores": report.v_empty_restores,
    }


def _attack_session_fields(scn: Scenario, session_seed: int) -> dict:
    # only attack rows carry this field, so simulate-vr summaries have no
    # indistinguishable_rate
    fields = _session_fields(scn, session_seed)
    fields["indistinguishable"] = int(fields["v_final_size"] >= 2)
    return fields


def _fixed_rate_trial(scn: Scenario, strategy: TraitorStrategy | None,
                      session_seed: int) -> tuple:
    code = replace(scn.fr, seed=derive_seed(session_seed, "fr-code"))
    return run_fixed_rate_trial(code, scn.p, scn.collection, scn.honest_true, strategy,
                                session_seed, r_true=scn.r_true,
                                plurality=scn.fr_plurality)


def _fixed_rate_fields(scn: Scenario, session_seed: int) -> dict:
    _block, table, wrong = _fixed_rate_trial(scn, scn.build_strategy(), session_seed)
    return {
        "honest_error": int(bool(wrong)),
        "num_null_finals": sum(1 for i in range(scn.m) if table.final[i] is None),
        "num_disagreements": len(table.disagreements),
    }


def _converse_fields(scn: Scenario, session_seed: int) -> dict:
    strategy = scn.build_strategy()      # None when there are no traitors
    _block, _table, wrong = _fixed_rate_trial(scn, strategy, session_seed)
    return {"attack_found": int(strategy is not None and strategy.last_outcome.found),
            "honest_error": int(bool(wrong))}


# row mode -> the trial's fields, as a function of (scenario, session seed)
TRIAL_MODES = {
    "vr": _session_fields,
    "attack-vr": _attack_session_fields,
    "fr": _fixed_rate_fields,
    "attack-fr": _converse_fields,
}


def run_trial(doc_json: str, trial: int, mode: str) -> dict:
    """``trial_row`` on the scenario a canonical JSON document describes,
    built once per process: the picklable entry point of worker processes."""
    return trial_row(_scenario_from_json(doc_json), trial, mode)


def trial_row(scn: Scenario, trial: int, mode: str) -> dict:
    """One Monte Carlo trial of ``mode`` (a key of ``TRIAL_MODES``) as a row.

    A trial that raises becomes a row with the message in ``error`` and the
    exception class in ``error_type``; ``wall_time_s`` times the trial
    itself, without the scenario's construction."""
    trial_fields = TRIAL_MODES[mode]
    t0 = time.perf_counter()
    session_seed = derive_seed(scn.seed, "trial", trial)
    row: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "mode": mode, "trial": trial}
    try:
        row.update(trial_fields(scn, session_seed), error="")
    except Exception as exc:   # any failing trial is a row, never a crashed run
        # never empty: an empty error reads as success downstream
        row["error"] = str(exc) or type(exc).__name__
        row["error_type"] = type(exc).__name__
    row["wall_time_s"] = time.perf_counter() - t0
    return row


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


_RATE_FIELDS = ("honest_error", "indistinguishable", "attack_found")
_MEAN_FIELDS = ("sum_rate", "v_final_size")
_TOTAL_FIELDS = ("decode_forced", "v_empty_restores")


def aggregate_rows(rows: list[dict]) -> dict:
    """Summary of trial rows: failures counted by exception type, then rates
    with 95% Wilson intervals, means and totals over the trials that did not
    fail."""
    agg: dict[str, Any] = {"trials": len(rows)}
    failures: dict[str, int] = {}
    values: dict[str, list[float]] = {}
    wall = 0.0
    for row in rows:
        if row.get("error"):
            failures[row["error_type"]] = failures.get(row["error_type"], 0) + 1
            continue
        wall += float(row.get("wall_time_s", 0.0))
        for name in _RATE_FIELDS + _MEAN_FIELDS + _TOTAL_FIELDS:
            if row.get(name, "") != "":
                values.setdefault(name, []).append(float(row[name]))
    if failures:
        agg["failures"] = failures
    if sum(failures.values()) == len(rows):
        return agg
    for name in _RATE_FIELDS:
        if name in values:
            k, n = sum(values[name]), len(values[name])
            agg[f"{name}_rate"] = k / n
            agg[f"{name}_ci95"] = list(wilson_interval(k, n))
    for name in _MEAN_FIELDS:
        if name in values:
            agg[f"mean_{name}"] = sum(values[name]) / len(values[name])
    for name in _TOTAL_FIELDS:
        if name in values:
            agg[f"total_{name}"] = int(sum(values[name]))
    agg["total_wall_time_s"] = wall
    return agg
