"""Scenario files, presets, and the Monte Carlo trial runner.

A scenario file is canonical JSON (sorted keys, two-space indent, trailing
newline) with explicit probability tables and 0-based sensor indices, so that
serialize -> parse -> serialize is byte-identical. The same structures back
the CLI commands and the acceptance suite.

Every trial mode reads its row from one library call: ``run_session`` for
the variable-rate modes, ``run_fixed_rate_trial`` for the fixed-rate ones.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .adversary import (
    STRATEGIES,
    FakeDistribution,
    FixedRateAmbiguity,
    TraitorStrategy,
    optimal_fake_conditional,
)
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
# schema: one table of fields per section, walked once by the loader
# ---------------------------------------------------------------------------

def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


REQUIRED = object()     # field default: the document must give the field
ABSENT = object()       # field default: an absent field stays absent


def _number(ok: Callable, integer: bool = False) -> Callable:
    """A finite JSON number that ``ok`` accepts; with ``integer``, a JSON
    integer only: not 3.0, not true."""
    return lambda v: (type(v) is int or (not integer and type(v) is float
                                         and math.isfinite(v))) and ok(v)


def _each(test: Callable) -> Callable:
    return lambda v: type(v) is list and all(map(test, v))


def _table(v) -> bool:
    """A probability table: nested lists of finite numbers >= 0."""
    return type(v) is list and all(_table(x) if type(x) is list else _NONNEGATIVE[1](x)
                                   for x in v)


# (what a field must be, its test); a tuple test lists the allowed values
_NONNEGATIVE = ("a finite number >= 0", _number(lambda x: x >= 0))
_COUNT = ("an integer >= 1", _number(lambda x: x >= 1, integer=True))
_NATURAL = ("an integer >= 0", _number(lambda x: x >= 0, integer=True))
_POSITIVE = ("a finite number > 0", _number(lambda x: x > 0))
_SENSORS = ("a list of sensor indices", _each(_NATURAL[1]))      # each < m: _sensors
_SECTION = ("null or an object", lambda v: v is None)            # an object is walked
_SENSOR_KEY = re.compile(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*))*")   # "i,j,...", no leading 0


def _maybe(want: str, test: Callable) -> tuple:
    return f"null or {want}", lambda v: v is None or test(v)


# every field of a scenario document, by section: key -> (what it must be,
# test, default); the default REQUIRED or ABSENT is never filled in
_FIELDS = {
    "": {
        "schema_version": (str(SCHEMA_VERSION),
                           lambda v: type(v) is int and v == SCHEMA_VERSION, REQUIRED),
        "m": (*_COUNT, REQUIRED),
        "alphabet_sizes": ("a list of integers in [1, 256]",     # a symbol is one byte
                           _each(_number(lambda x: 1 <= x <= 256, integer=True)), REQUIRED),
        "pmf": ("a table of finite numbers >= 0", _table, REQUIRED),
        "honest_collection": ("an object", lambda v: False, REQUIRED),     # walked
        "info_model": ('"perfect" or an object', lambda v: v == "perfect", REQUIRED),
        "true_honest": (*_SENSORS, REQUIRED),
        "true_channel": ('"perfect" or a table of finite numbers >= 0',
                         lambda v: v == "perfect" or _table(v), REQUIRED),
        "strategy": (*_SECTION, None),
        "variable_rate": (*_SECTION, None),
        "fixed_rate": (*_SECTION, None),
        "trials": (*_NATURAL, 1),
        "seed": ("an integer", lambda v: type(v) is int, REQUIRED),
    },
    "honest_collection": {      # exactly one of the two: checked by the loader
        "threshold_t": (*_NATURAL, ABSENT),
        "sets": ("a list of lists of sensor indices", _each(_SENSORS[1]), ABSENT),
    },
    "info_model": {
        "channels": ('an object mapping "i,j,..." to lists of channel tables',
                     lambda v: type(v) is dict and all(
                         type(key) is str and _SENSOR_KEY.fullmatch(key)
                         and _each(_table)(tables) for key, tables in v.items()), REQUIRED),
    },
    "strategy": {
        "kind": ("strategy kind", tuple(STRATEGIES), REQUIRED),
        "q_bar": ('null, "optimal" or a table of finite numbers >= 0',     # null: optimal
                  lambda v: v in (None, "optimal") or _table(v), None),
        "target_set": (*_maybe(*_SENSORS), None),
    },
    "variable_rate": {
        "n": (*_COUNT, REQUIRED),
        "rounds": (*_COUNT, REQUIRED),
        "eps": (*_POSITIVE, REQUIRED),
        "nu": (*_maybe(*_POSITIVE), None),
        "eta": (*_maybe(*_POSITIVE), None),
        "c_subcodebooks": (*_maybe(*_COUNT), None),
        "alpha": ("a number in (0, 1)", _number(lambda x: 0 < x < 1), 0.05),
    },
    "fixed_rate": {
        "rates": ("a list of finite numbers >= 0", _each(_NONNEGATIVE[1]), REQUIRED),
        "n": (*_COUNT, REQUIRED),
        "c_subcodebooks": (*_COUNT, 1),
        "eps_decode": (*_POSITIVE, 1.4),
        "plurality": ("true or false", lambda v: type(v) is bool, False),
    },
}


def _walk(doc: Any, section: str = "") -> None:
    """Check ``doc`` against the section's fields in place: refuse unknown
    fields, missing required ones and values that fail their test, each by
    its path, and fill in absent optional fields."""
    where = section + "." if section else ""
    if type(doc) is not dict:
        raise ValueError(f"{section or 'scenario'}: must be an object, got {doc!r}")
    fields = _FIELDS[section]
    for key, (want, test, default) in fields.items():
        value = doc.get(key, default)
        if value is REQUIRED:
            raise ValueError(f"{where}{key}: missing required field")
        if key not in doc:
            if value is not ABSENT:
                doc[key] = value
        elif key in _FIELDS and type(value) is dict:
            _walk(value, key)
        elif type(test) is tuple and value not in test:
            raise ValueError(f"{where}{key}: unknown {want} {value!r}; have {test}")
        elif type(test) is not tuple and not test(value):
            raise ValueError(f"{where}{key}: must be {want}, got {value!r}")
    unknown = doc.keys() - fields.keys()
    if unknown:
        raise ValueError(f"{where}{min(unknown)}: unknown field")


def _sensors(indices: list, path: str, m: int) -> SubsetView:
    """The sensor set a checked index list names: nonempty, strictly
    increasing, each in [0, m)."""
    if not indices or indices[-1] >= m or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"{path}: must be a nonempty, strictly increasing list of "
                         f"sensors in [0, {m}), got {indices}")
    return SubsetView(tuple(indices))


def _at(path: str, build: Callable, *args):
    """``build(*args)``, a refusal prefixed with the field path it came from."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _channel(sizes: tuple, table: list) -> ConditionalPMF:
    """The channel a checked table describes: one row per joint symbol."""
    return ConditionalPMF(sizes, np.shape(table)[-1], table)


def _q_bar_table(table: list, cells_t: int, w_size: int) -> ConditionalPMF:
    """The fake conditional a checked table describes: one row of ``cells_t``
    entries per side-information symbol."""
    arr = np.asarray(table, dtype=float)
    if len(arr) != w_size or arr.size != w_size * cells_t:
        raise ValueError(f"must have {w_size} rows, one per side-information symbol w, "
                         f"of {cells_t} entries, got shape {arr.shape}")
    return ConditionalPMF((w_size,), cells_t, arr.reshape(w_size, cells_t))


@dataclass(frozen=True)
class Scenario:
    """Runtime form of a scenario document: ``Scenario(doc)`` checks a copy of
    ``doc``, fills in its absent optional fields, keeps it and reads every
    other field from it, so ``dataclasses.replace`` can change only ``doc``."""

    doc: dict = field(repr=False)
    m: int = field(init=False)
    alphabet_sizes: tuple[int, ...] = field(init=False)
    p: JointPMF = field(init=False)
    collection: HonestCollection = field(init=False)
    info_model: InfoModel = field(init=False)
    honest_true: SubsetView = field(init=False)
    r_true: ConditionalPMF | None = field(init=False)    # None means the identity channel
    strategy_kind: str | None = field(init=False)
    q_bar_table: ConditionalPMF | None = field(init=False)   # None: optimal or unread
    target_set: SubsetView | None = field(init=False)
    vr: ProtocolParams | None = field(init=False)
    fr: FixedRateCode | None = field(init=False)
    trials: int = field(init=False)
    seed: int = field(init=False)
    _region_cache: RegionReport | None = field(init=False, default=None, repr=False)
    _strategy_cache: TraitorStrategy | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        """The field table's checks, then those that tie fields together."""
        doc = copy.deepcopy(self.doc)
        _walk(doc)
        m = doc["m"]
        sizes = tuple(doc["alphabet_sizes"])
        if len(sizes) != m:
            raise ValueError(f"alphabet_sizes: must have m = {m} entries, got {len(sizes)}")
        p = _at("pmf", JointPMF, sizes, doc["pmf"])

        coll_doc = doc["honest_collection"]
        if len(coll_doc) != 1:
            raise ValueError("honest_collection: must give exactly one of threshold_t and sets")
        if "threshold_t" in coll_doc:
            collection = _at("honest_collection.threshold_t", HonestCollection.threshold,
                             m, coll_doc["threshold_t"])
        else:
            collection = HonestCollection(tuple(
                _sensors(s, f"honest_collection.sets[{k}]", m)
                for k, s in enumerate(coll_doc["sets"])))

        if doc["info_model"] == "perfect":
            info = InfoModel.perfect_info(sizes)
        else:
            channels = doc["info_model"]["channels"]
            info = _at("info_model.channels", InfoModel.from_channels, {
                _sensors([int(tok) for tok in key.split(",")], f"info_model.channels.{key}", m):
                [_at(f"info_model.channels.{key}[{k}]", _channel, sizes, t)
                 for k, t in enumerate(tables)]
                for key, tables in channels.items()}, sizes)
            for cand in collection:
                if cand not in info.channels:
                    raise ValueError(f"info_model.channels: no channels for candidate {cand}")

        honest_true = _sensors(doc["true_honest"], "true_honest", m)
        if honest_true not in collection:
            raise ValueError(f"true honest set {honest_true} not in the collection")

        if doc["true_channel"] == "perfect":
            if not info.perfect:
                raise ValueError('true_channel "perfect" requires a perfect info model')
            r_true = None
        else:
            r_true = _at("true_channel", _channel, sizes, doc["true_channel"])
            if not info.perfect:
                accepted = info.channels_for(honest_true)
                if not any(ch.rows.shape == r_true.rows.shape
                           and np.allclose(ch.rows, r_true.rows, atol=1e-12)
                           for ch in accepted):
                    raise ValueError("true channel is not in the info model for the "
                                     "true honest set")

        traitors = honest_true.complement(m)
        if doc["strategy"] is not None and len(traitors) == 0:
            raise ValueError(f"strategy: no traitor plays it, true_honest {honest_true} "
                             "holds every sensor")
        strat_doc = doc["strategy"] or {"kind": None, "q_bar": None, "target_set": None}
        strategy_kind, q_bar, target_set = (strat_doc[key]
                                            for key in ("kind", "q_bar", "target_set"))
        for key, reader in (("q_bar", "fake_distribution"),
                            ("target_set", "fixed_rate_ambiguity")):
            if strat_doc[key] is not None and strategy_kind != reader:
                raise ValueError(f"strategy.{key}: only the {reader} strategy reads it, "
                                 f"not {strategy_kind}")
        if q_bar == "optimal":
            q_bar = None
        elif q_bar is not None:
            q_bar = _at("strategy.q_bar", _q_bar_table, q_bar,
                        math.prod(sizes[i] for i in traitors),
                        p.num_cells if r_true is None else r_true.output_alphabet_size)
        if target_set is not None:
            target_set = _sensors(target_set, "strategy.target_set", m)
        if strategy_kind == "fixed_rate_ambiguity" and target_set is None:
            raise ValueError("fixed_rate_ambiguity strategy needs a nonempty target_set")

        vr_doc = doc["variable_rate"]
        vr = None if vr_doc is None else ProtocolParams(
            n=vr_doc["n"], rounds=vr_doc["rounds"], eps=vr_doc["eps"], nu=vr_doc["nu"],
            eta=vr_doc["eta"], C=vr_doc["c_subcodebooks"], alpha=vr_doc["alpha"])

        fr_doc = doc["fixed_rate"]
        fr = None
        if fr_doc is not None:
            fr = FixedRateCode(rates=tuple(fr_doc["rates"]), n=fr_doc["n"],
                               C=fr_doc["c_subcodebooks"], eps_decode=fr_doc["eps_decode"],
                               plurality=fr_doc["plurality"])
            if len(fr.rates) != m:
                raise ValueError(f"fixed_rate.rates: must have m = {m} entries, "
                                 f"got {len(fr.rates)}")
            if strategy_kind is None and len(traitors):
                # a variable-rate session lets such traitors behave honestly; a
                # fixed-rate trial needs their strategy
                raise ValueError("fixed_rate with traitors needs a strategy")
        if strategy_kind == "fixed_rate_ambiguity":
            # otherwise every trial fails, or the attack reads rows W lacks
            if fr is not None and fr.kind != "deterministic":
                raise ValueError("the ambiguity attack applies to deterministic coding")
            if not (target_set.intersection(honest_true) and target_set.difference(honest_true)):
                raise ValueError(f"target_set {target_set} must straddle the true honest "
                                 f"set {honest_true}")
            if not info.perfect or r_true is not None:
                raise ValueError('the ambiguity attack needs perfect information: '
                                 'info_model and true_channel "perfect"')

        self.__dict__.update(   # frozen: set without __setattr__
            doc=doc, m=m, alphabet_sizes=sizes, p=p, collection=collection,
            info_model=info, honest_true=honest_true, r_true=r_true,
            strategy_kind=strategy_kind, q_bar_table=q_bar, target_set=target_set,
            vr=vr, fr=fr, trials=doc["trials"], seed=doc["seed"])

    def region(self) -> RegionReport:
        if self._region_cache is None:
            if not self.info_model.perfect:
                raise ValueError("exact region evaluation requires perfect information")
            self.__dict__["_region_cache"] = r_star_perfect(self.p, self.collection)
        return self._region_cache

    @property
    def strategy(self) -> TraitorStrategy | None:
        """The traitors' strategy, or None without a kind: built on first
        read and shared by every trial of the scenario, which is sound as a
        strategy keeps nothing from one trial that the next one reads. An
        optimal qbar reads the cached region."""
        if self._strategy_cache is None and self.strategy_kind is not None:
            kind, q_bar = self.strategy_kind, self.q_bar_table
            if kind == "fake_distribution" and q_bar is None:
                if not self.info_model.perfect:
                    raise ValueError("optimal qbar derivation is implemented for perfect "
                                     "information only")
                _value, _V, q_star = self.region().per_pair_detail[self.honest_true]
                q_bar = optimal_fake_conditional(q_star, self.honest_true, self.alphabet_sizes)
            self.__dict__["_strategy_cache"] = (
                FakeDistribution(q_bar) if kind == "fake_distribution"
                else FixedRateAmbiguity(self.target_set) if kind == "fixed_rate_ambiguity"
                else STRATEGIES[kind]())
        return self._strategy_cache


def scenario_to_dict(s: Scenario) -> dict:
    """A copy of the checked document ``s`` was loaded from, absent optional
    fields filled in."""
    return copy.deepcopy(s.doc)


scenario_from_dict = Scenario      # the scenario a copy of the document describes


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


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


def _preset(**fields) -> dict:
    """A preset's document: perfect information, seed 20260810 and the
    table's defaults wherever ``fields`` gives no value."""
    doc = {"schema_version": SCHEMA_VERSION, "info_model": "perfect",
           "true_channel": "perfect", "seed": 20260810, **fields}
    _walk(doc)
    return doc


def _preset_three_sensor() -> dict:
    # eta = 4.0: at n = 12 the per-cell type noise is ~0.14 while the
    # default 2*eps tolerance is 0.175/S-cell, so honest candidate sets
    # would be pruned by noise; the wide ball keeps the V update sound at
    # desk scale (eta is a tunable; it vanishes only in the eps -> 0
    # asymptotics).
    return _preset(m=3, alphabet_sizes=[2, 2, 2], pmf=_three_sensor_law(),
                   honest_collection={"sets": [[0, 1], [0, 2], [1, 2]]}, true_honest=[0, 1],
                   strategy={"kind": "fake_distribution", "q_bar": "optimal"},
                   variable_rate={"n": 12, "rounds": 50, "eps": 0.35, "nu": 1.925, "eta": 4.0},
                   trials=100)


def _preset_two_sensor_baseline() -> dict:
    return _preset(m=2, alphabet_sizes=[2, 2], pmf=[[0.445, 0.055], [0.055, 0.445]],
                   honest_collection={"sets": [[0, 1]]}, true_honest=[0, 1],
                   variable_rate={"n": 12, "rounds": 50, "eps": 0.35, "nu": 1.925},
                   trials=100)


def _preset_independent_coding() -> dict:
    return _preset(m=3, alphabet_sizes=[2, 2, 2], pmf=_chain_law(),
                   honest_collection={"threshold_t": 2}, true_honest=[0, 1, 2],
                   variable_rate={"n": 12, "rounds": 50, "eps": 0.35, "nu": 1.925, "eta": 4.0},
                   trials=50)


def _preset_four_sensor_plurality() -> dict:
    # candidate sets here have 8 or 16 cells, so the decode ball needs
    # eps_decode ~ 3 at this blocklength; rates sit well above the
    # pairwise-intersection constraints
    return _preset(m=4, alphabet_sizes=[2, 2, 2, 2], pmf=_star_law_m4(),
                   honest_collection={"threshold_t": 1}, true_honest=[1, 2, 3],
                   strategy={"kind": "fake_distribution", "q_bar": "optimal"},
                   fixed_rate={"rates": [1.6, 1.6, 1.6, 1.6], "n": 12, "c_subcodebooks": 8,
                               "eps_decode": 3.2, "plurality": True},
                   trials=100)


def _preset_fixed_rate_randomized() -> dict:
    # Rates are an interior point of the pairwise Slepian-Wolf region plus the
    # 0.1 margin; at n = 14 the hash-bin spurious-match rate 2^{n(1-R)} must
    # be well below 1 for reliable decoding, which pins R >= ~1.3.
    return _preset(m=3, alphabet_sizes=[2, 2, 2], pmf=_chain_law(),
                   honest_collection={"sets": [[0, 1], [0, 2], [1, 2]]}, true_honest=[1, 2],
                   strategy={"kind": "fake_distribution", "q_bar": "optimal"},
                   fixed_rate={"rates": [1.4, 1.4, 1.4], "n": 14, "c_subcodebooks": 8},
                   trials=200)


def _preset_fixed_rate_demo() -> dict:
    # Inside the randomized region but outside the deterministic one
    # (R_1 < H(X_1)); the ambiguity attack targets S1 = {0,1} through the
    # known intersection {1}.
    return _preset(m=3, alphabet_sizes=[2, 2, 2], pmf=_chain_law(),
                   honest_collection={"sets": [[0, 1], [0, 2], [1, 2]]}, true_honest=[1, 2],
                   strategy={"kind": "fixed_rate_ambiguity", "target_set": [0, 1]},
                   fixed_rate={"rates": [0.92, 0.75, 0.95], "n": 14},
                   trials=200)


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
    report = run_session(scn.p, scn.collection, scn.info_model, scn.honest_true,
                         scn.r_true, scn.strategy, scn.vr, session_seed)
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


def _fixed_rate_trial(scn: Scenario, session_seed: int) -> tuple:
    code = replace(scn.fr, seed=derive_seed(session_seed, "fr-code"))
    return run_fixed_rate_trial(code, scn.p, scn.collection, scn.honest_true, scn.strategy,
                                session_seed, r_true=scn.r_true)


def _fixed_rate_fields(scn: Scenario, session_seed: int) -> dict:
    _block, table, wrong = _fixed_rate_trial(scn, session_seed)
    return {
        "honest_error": int(bool(wrong)),
        "num_null_finals": sum(1 for i in range(scn.m) if table.final[i] is None),
        "num_disagreements": len(table.disagreements),
    }


def _converse_fields(scn: Scenario, session_seed: int) -> dict:
    _block, _table, wrong = _fixed_rate_trial(scn, session_seed)
    return {"attack_found": int(scn.strategy.last_outcome.found),
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
    """95% Wilson score interval for a binomial proportion, exact at k = 0 and k = n."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (0.0 if successes == 0 else center - half, 1.0 if successes == n else center + half)


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
