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
     "ae2f39c6efdffa7db9ea6b26c5b4177c9921e9e6f114bd73dae7016835ae1c9a"),
    ("two_sensor_baseline", "simulate-vr", "vr_trials.csv", 2,
     "179acb43f3a56f827c10b400deb96b52539e5d76222aabe184f517d457f41669"),
    ("independent_coding", "simulate-vr", "vr_trials.csv", 1,
     "1768fceb9e6a1700219a5935e3018fad4a5c51a8cf687d7a0648dd61744e94d4"),
    ("four_sensor_plurality", "simulate-fr", "fr_trials.csv", 8,
     "8e0bb50b5be8e1f47753289dcad701f21ef26284d60880788604128d9a577f73"),
    ("fixed_rate_randomized", "simulate-fr", "fr_trials.csv", 8,
     "ac783c208363f7ecfdc0b6a611bd293064a8ab668892c6992cc32112fac29d8b"),
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
        bins = hash_rows(seed, [fixed_rate_header(i, 0)], seqs,
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
     "7116eb03bfa48367fee0bbbd1fb355667e7c324ac759adf1bf869520490ba4f0"),
    ("fixed_rate_demo", "honest_passthrough",
     "7116eb03bfa48367fee0bbbd1fb355667e7c324ac759adf1bf869520490ba4f0"),
    ("fixed_rate_demo", "black_hole",
     "a07db1890fc9d80d164da6cf70056b97dbd27b23371e69600f73e9abca76bbf3"),
    ("fixed_rate_demo", "fake_distribution",
     "165ed10161d9497fd612d5bfd5f95e4fc1fd11aa126bccf3f588a88c78b3b824"),
    ("fixed_rate_demo", "fixed_rate_ambiguity",
     "4c1eaabddc57b68c2128f2b460166c1a747554b136b4773188fdc5688e9f47f0"),
    ("fixed_rate_randomized", None,
     "212d4fb1853909e3dbcef4d2d8b8bd3ae810d22915c5b5aa9f8abbf34fd2ed57"),
    ("fixed_rate_randomized", "honest_passthrough",
     "549d93d8a7fedab85a35e586ec43e6d13a87c032c0b6b6d2e1dbcbd69daa11c0"),
    ("fixed_rate_randomized", "black_hole",
     "8a15cb1474810124d13f5f76ff46126388b2c720cdabbc78923b29ee4c788cab"),
    ("fixed_rate_randomized", "fake_distribution",
     "2bc5a29a8a14a3ab400a9aa2155c36f9cc1286f67aa26da81304c16674ac43f8"),
    ("four_sensor_plurality", None,
     "9747baaa8de194515a9f99f4a0d8d9b2a59c7337f94ddda5e0f2c1d3b8bc25ae"),
    ("four_sensor_plurality", "honest_passthrough",
     "26929f6e1dff44e782772c23c5415730ca1c27851f6c2f0d52a31ff0d8b8eb46"),
    ("four_sensor_plurality", "black_hole",
     "c775669d87276c83a429bb0f8c6379c121dbae8f95f84af8d5a0c1b1caec16c2"),
    ("four_sensor_plurality", "fake_distribution",
     "378376af09e4cc8bdc9c859cd2421fcb21b792c69701d4aa7670be248ff058df"),
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
    """Digests recorded when every draw came from the keyed counter stream
    (``source_model.keyed_draws``)."""
    assert fixed_rate_messages_digest(monkeypatch, preset, kind) == digest
