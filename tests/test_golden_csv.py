"""Golden digests of the per-trial CSVs.

Each preset runs through its CLI command at a small fixed trial count and
the SHA-256 of the emitted ``*_trials.csv`` is compared with a frozen value.
A change that alters any random draw (bins, subcodebook choices, sampled
blocks, traitor behaviour) or any reported field changes a digest; a change
that only restructures the code keeps every CSV byte-identical.

The fixed-rate CSVs carry no field that depends on the bin draws at these
presets, so the bins themselves are frozen too: the SHA-256 of every
sensor's full-space bin table under trial 0's code, and of the messages
``encode_all`` returns under each traitor strategy.

``byzsw region`` is frozen the same way: the SHA-256 of its stdout followed
by its ``region.json`` on seeded threshold laws, so every printed value, every
R* float and the maximizer q stay bit for bit the same.
"""
import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from byzsw import fixed_rate
from byzsw.binning import all_sequences, bin_count_for_rate, fixed_rate_header, hash_rows
from byzsw.cli import main
from byzsw.prob_core import SubsetView
from byzsw.scenario import PRESETS, preset_scenario, scenario_from_dict
from byzsw.source_model import derive_seed

# preset, command, CSV file, trials, SHA-256 of the CSV
GOLDEN = [
    ("three_sensor", "attack-demo", "attack_trials.csv", 2,
     "7d1baadc80371a365df2b9d70d949028efd1975e02cb53b98400c280029d4f85"),
    ("two_sensor_baseline", "simulate-vr", "vr_trials.csv", 2,
     "cc1f6601d7deedfcbe7df493cdd1882cf656e9cb10aa8501b4cf4f47af562699"),
    ("independent_coding", "simulate-vr", "vr_trials.csv", 1,
     "25ed6e8ec7b4ad2b9b73bd716aa97fb545ead0c4b4eabe7268cf8255c291acb4"),
    ("four_sensor_plurality", "simulate-fr", "fr_trials.csv", 8,
     "8e0bb50b5be8e1f47753289dcad701f21ef26284d60880788604128d9a577f73"),
    ("fixed_rate_randomized", "simulate-fr", "fr_trials.csv", 8,
     "8e0bb50b5be8e1f47753289dcad701f21ef26284d60880788604128d9a577f73"),
    ("fixed_rate_demo", "attack-demo", "attack_trials.csv", 8,
     "b7d36db2896f56e53a1b34ee7cd28d0ec11e332fb09f119ef628d0934413be61"),
]


@pytest.mark.parametrize("preset,command,csv_name,trials,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_trials_csv_digest(tmp_path, preset, command, csv_name, trials, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the subcodebook-cap warning
        assert main([command, "--preset", preset, "--trials", str(trials),
                     "--out", str(tmp_path)]) == 0
    data = (tmp_path / csv_name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# preset, SHA-256 of the little-endian int64 bins of all sequences, sensor by
# sensor, under subcodebook 0 of trial 0's code
GOLDEN_FR_BINS = [
    ("fixed_rate_randomized",
     "17e528af6fbc5f9769350f8ff55a58346378e2b4261fada9ae88d412ad5ea97a"),
    ("fixed_rate_demo",
     "9b0a064d8703243a1e9bcb9340719fb978f270f6f6f17d2b5bd2ddd3e665d88e"),
]


@pytest.mark.parametrize("preset,digest", GOLDEN_FR_BINS,
                         ids=[g[0] for g in GOLDEN_FR_BINS])
def test_fixed_rate_bin_draws_digest(preset, digest):
    """Digests computed with the keyed SplitMix64 kernel; the per-sequence
    blake2b kernel before it drew different bins."""
    scn = preset_scenario(preset)
    seed = derive_seed(derive_seed(scn.seed, "trial", 0), "fr-code")   # as the "fr" trial mode
    h = hashlib.sha256()
    for i, (alphabet, rate) in enumerate(zip(scn.alphabet_sizes, scn.fr.rates)):
        seqs = all_sequences(alphabet, scn.fr.n)
        bins = hash_rows(seed, [[fixed_rate_header(i, 0)] * len(seqs)], seqs,
                         [bin_count_for_rate(scn.fr.n, rate)])[0]
        h.update(bins.astype("<i8").tobytes())
    assert h.hexdigest() == digest


# (m, t, law seed, SHA-256 of stdout + region.json)
GOLDEN_REGION = [
    (4, 3, 4301, "5c2b42ec20d1518533c2f0a50d4c0ce65339a9f5d7c60cb765dc2975b8fa08e8"),
    (5, 2, 5201, "24d90e4d1bae23e809d29872bfb7cc291f621ab4accbd5f8f37bca0929955bad"),
    (3, 1, 3101, "007da9afaef60ae59a8295a72b2f8eef9ab73e5a94447292c4cbfb272311fd28"),
    (3, 2, 3201, "bb168773a828652e111759b7e4e1e34e8f213112cd8b95515029efa4b6fbda70"),
    (4, 1, 4101, "5ed64a0a0dd6a88112060d1a58821a6f5d3c0d0c134f33e6e35109570017c1e3"),
    (4, 2, 4201, "304092142c1448b74ebf8a282a3ac5160fe7436ee8f3a8d3a73de1a953b92d32"),
    (5, 1, 5101, "435d3faba9df061dfbb12c9fcf834b09e76734d91483c886cde61c1e77094beb"),
]

# preset, SHA-256 of stdout + region.json of ``byzsw region --preset``; the
# m = 3 preset also prints the conditional mutual informations and H(X_M)
GOLDEN_REGION_PRESET = [
    ("three_sensor", "c5bc4141b1fae90ff24542c5cb532d28e81eb51d67ee1b32061eeba085ba26ff"),
    ("two_sensor_baseline", "530d91fc8247e4249747e1847af7b116a542dbbc061ad22f1a821e0f54ce3c28"),
    ("independent_coding", "affd295287675d70f56acd85a86890bf53d6a5e6a801fae3cb727d3831664b3f"),
    ("four_sensor_plurality", "f44a6d1693051ddde0801710b9afedfbd9cbf7e3f467f6bbde14e0be8108a138"),
    ("fixed_rate_demo", "193d8fedf3e0a61c1fabcbd630700b20e37813c58a227fbd5cbaa71e0b3cdfd9"),
]


def threshold_region_doc(m: int, t: int, seed: int) -> dict:
    """A binary threshold scenario whose law is a seeded Dirichlet draw."""
    mass = np.random.default_rng(seed).dirichlet(np.ones(2 ** m))
    return {"schema_version": 1, "m": m, "alphabet_sizes": [2] * m,
            "pmf": mass.reshape((2,) * m).tolist(), "honest_collection": {"threshold_t": t},
            "info_model": "perfect", "true_honest": list(range(m - t)),
            "true_channel": "perfect", "seed": seed}


@pytest.mark.parametrize("m,t,seed,digest", GOLDEN_REGION,
                         ids=[f"m{g[0]}t{g[1]}" for g in GOLDEN_REGION])
def test_region_output_digest(tmp_path, capsys, m, t, seed, digest):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(threshold_region_doc(m, t, seed)))
    assert region_digest(tmp_path, capsys, ["--scenario", str(path)]) == digest


@pytest.mark.parametrize("preset,digest", GOLDEN_REGION_PRESET,
                         ids=[g[0] for g in GOLDEN_REGION_PRESET])
def test_region_preset_output_digest(tmp_path, capsys, preset, digest):
    assert region_digest(tmp_path, capsys, ["--preset", preset]) == digest


def region_digest(tmp_path, capsys, source: list[str]) -> str:
    capsys.readouterr()
    assert main(["region", *source, "--out", str(tmp_path / "out")]) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    h.update((tmp_path / "out" / "region.json").read_bytes())
    return h.hexdigest()


# preset, strategy kind (None: every sensor honest), SHA-256 of the messages
# ``encode_all`` returns on the first 40 trials of the "fr" trial mode
GOLDEN_FR_MESSAGES = [
    ("fixed_rate_demo", None,
     "51cebaf92c688b8e779d28a530b9e61c69d4bf5ef4ac3824edf61b3008587c09"),
    ("fixed_rate_demo", "honest_passthrough",
     "51cebaf92c688b8e779d28a530b9e61c69d4bf5ef4ac3824edf61b3008587c09"),
    ("fixed_rate_demo", "black_hole",
     "0786639968eaaa0b3e3f1e6ff2ecacd5d326b9c6e4ef87fcd7b265ba52e19a9d"),
    ("fixed_rate_demo", "fake_distribution",
     "4642b0d1daf4596758539f233659458149c87abea79ef1bcddbdbdd915d49454"),
    ("fixed_rate_demo", "fixed_rate_ambiguity",
     "c931d8f301467fccaa0cd73406ba0ff91f4e69e5f63e33512571dfb343717632"),
    ("fixed_rate_randomized", None,
     "9ca8e96b686528c86d710a2195d3dc01bcf9d7a43e78b42590e7a10221f00619"),
    ("fixed_rate_randomized", "honest_passthrough",
     "0db9013cc0560a0525d6b5d34a852c68d686c8fdb3b977b7b5d6d3513e92e221"),
    ("fixed_rate_randomized", "black_hole",
     "1d57d959b318d8ee246c49345767f601405ea3faf40a132e8653dd4fd126649e"),
    ("fixed_rate_randomized", "fake_distribution",
     "b4c86f8a4d0e8fb2975b5c121725a50e954857a9cd3f6f89da1f32660c814807"),
    ("four_sensor_plurality", None,
     "0812cfce8c887dc0dfcf99c02cb8a4addc9f23b66b6ff40d707ba4dedea441c7"),
    ("four_sensor_plurality", "honest_passthrough",
     "27b2d1293e40034a0608827160dabd872299706db14cc25f971841df321ff24a"),
    ("four_sensor_plurality", "black_hole",
     "2f80784b056f9939682292602e8057b158c076875be2c2b5f143ebd36906ab10"),
    ("four_sensor_plurality", "fake_distribution",
     "48e3c99319925066fc1ed922b36f396d6fee6f2af8c6b0c748048631d5611a52"),
]


class _Encoded(Exception):
    """Stops a trial once its messages are recorded."""


def fixed_rate_messages_digest(monkeypatch, preset: str, kind: str | None,
                               trials: int = 40) -> str:
    """SHA-256 of every sensor's (c, bin) on the first ``trials`` trials of
    ``preset`` with its traitors running ``kind``, or with every sensor
    honest when ``kind`` is None. Each trial stops after ``encode_all``."""
    doc = PRESETS[preset]()
    if kind is not None:
        target = doc["strategy"]["target_set"] if kind == "fixed_rate_ambiguity" else None
        doc["strategy"] = {"kind": kind, "target_set": target,
                           "q_bar": "optimal" if kind == "fake_distribution" else None}
    scn = scenario_from_dict(doc)
    honest = scn.honest_true if kind is not None else SubsetView(tuple(range(scn.m)))
    h = hashlib.sha256()
    encode_all = fixed_rate.encode_all

    def record(*args):
        messages = encode_all(*args)
        h.update(repr([(i, int(c), int(idx))
                       for i, (c, idx) in sorted(messages.items())]).encode())
        raise _Encoded

    monkeypatch.setattr(fixed_rate, "encode_all", record)
    for trial in range(trials):
        seed = derive_seed(scn.seed, "trial", trial)
        code = replace(scn.fr, seed=derive_seed(seed, "fr-code"))   # as the "fr" trial mode
        strategy = scn.strategy if kind is not None else None
        with pytest.raises(_Encoded):
            fixed_rate.run_fixed_rate_trial(code, scn.p, scn.collection, honest, strategy,
                                            seed, r_true=scn.r_true)
    return h.hexdigest()


@pytest.mark.parametrize("preset,kind,digest", GOLDEN_FR_MESSAGES,
                         ids=[f"{g[0]}-{g[1] or 'all_honest'}" for g in GOLDEN_FR_MESSAGES])
def test_fixed_rate_messages_digest(monkeypatch, preset, kind, digest):
    """Digests computed when each strategy still had its own fixed-rate
    messages; ``black_hole`` was recorded after it began to answer the
    variable-rate poll (its ``traitor-c`` and ``black-hole`` streams)."""
    assert fixed_rate_messages_digest(monkeypatch, preset, kind) == digest
