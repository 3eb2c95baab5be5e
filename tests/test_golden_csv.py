"""Golden digests of the per-trial CSVs.

Each preset runs through its CLI command at a small fixed trial count and
the SHA-256 of the emitted ``*_trials.csv`` is compared with a frozen value.
A change that alters any random draw (bins, subcodebook choices, sampled
blocks, traitor behaviour) or any reported field changes a digest; a change
that only restructures the code keeps every CSV byte-identical.
"""
import hashlib
import warnings

import pytest

from byzsw.cli import main

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
