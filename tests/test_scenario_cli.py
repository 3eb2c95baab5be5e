"""Tests for scenario files, presets, and the CLI harness."""
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import byzsw.adversary
import byzsw.cli
import byzsw.rate_region
import byzsw.scenario
from byzsw.cli import main
from byzsw.scenario import (
    PRESETS,
    aggregate_rows,
    canonical_dumps,
    preset_scenario,
    run_trial,
    scenario_from_dict,
    scenario_to_dict,
    trial_row,
    wilson_interval,
)


def tiny_vr_doc() -> dict:
    doc = PRESETS["two_sensor_baseline"]()
    doc["variable_rate"].update({"n": 8, "rounds": 5, "c_subcodebooks": 8})
    doc["trials"] = 3
    return doc


def imperfect_toy_doc() -> dict:
    """Two sensors, collection {0}, {1}, and a side-information channel W
    that is constant (carries nothing) for every candidate."""
    doc = tiny_vr_doc()
    doc["pmf"] = [[0.4, 0.2], [0.1, 0.3]]
    doc["honest_collection"] = {"sets": [[0], [1]]}
    doc["true_honest"] = [0]
    rows = [[[1.0], [1.0]], [[1.0], [1.0]]]
    doc["info_model"] = {"channels": {"0": [rows], "1": [rows]}}
    doc["true_channel"] = rows
    doc["strategy"] = None
    return doc


def assert_cli_refuses(tmp_path, capsys, doc: dict, command: str, message: str) -> None:
    """``command`` on ``doc`` exits 2 with ``message`` and writes nothing."""
    path = tmp_path / "scenario_in.json"
    path.write_text(canonical_dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--trials", "2", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestSchema:
    def test_round_trip_byte_identical(self):
        for name in PRESETS:
            doc = PRESETS[name]()
            text = canonical_dumps(doc)
            reparsed = canonical_dumps(scenario_to_dict(scenario_from_dict(
                json.loads(text))))
            assert reparsed == text, name

    def test_presets_all_load(self):
        for name in PRESETS:
            scn = preset_scenario(name)
            assert scn.m == len(scn.alphabet_sizes)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_scenario("not-a-preset")

    def test_true_honest_must_be_candidate(self):
        doc = tiny_vr_doc()
        doc["true_honest"] = [0]
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [False, True])
    def test_eavesdropping_field_rejected(self, value):
        doc = tiny_vr_doc()
        scenario_from_dict(doc)    # absent: loads
        doc["eavesdropping"] = value
        with pytest.raises(ValueError, match="^eavesdropping: unknown field"):
            scenario_from_dict(doc)

    def test_imperfect_channel_membership_checked(self):
        doc = tiny_vr_doc()
        rows = [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
        other = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
        doc["info_model"] = {"channels": {"0,1": [rows]}}
        doc["true_channel"] = other
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    def test_missing_candidate_channel_rejected(self):
        doc = tiny_vr_doc()
        rows = [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
        doc["honest_collection"] = {"sets": [[0, 1], [0]]}
        doc["info_model"] = {"channels": {"0,1": [rows]}}   # {0} missing
        doc["true_channel"] = rows
        with pytest.raises((ValueError, KeyError)):
            scenario_from_dict(doc)

    def test_bad_pmf_rejected(self):
        doc = tiny_vr_doc()
        doc["pmf"] = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    def test_schema_version_checked(self):
        doc = tiny_vr_doc()
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            scenario_from_dict(doc)


# (preset, field path, malformed value): each must be refused at load, not
# cast, clamped or ignored
MALFORMED = [
    ("three_sensor", "m", 3.0),
    ("three_sensor", "alphabet_sizes", [2, 2, 2.5]),
    ("three_sensor", "trials", 2.7),
    ("three_sensor", "seed", 5.9),
    ("three_sensor", "variable_rate.n", 12.5),
    ("three_sensor", "variable_rate.n", True),
    ("three_sensor", "variable_rate.rounds", 3.9),
    ("three_sensor", "variable_rate.c_subcodebooks", 7.5),
    ("three_sensor", "variable_rate.alpha", 0.0),
    ("three_sensor", "variable_rate.alpha", 2.0),
    ("three_sensor", "variable_rate.eps", math.nan),
    ("fixed_rate_randomized", "fixed_rate.n", 14.5),
    ("fixed_rate_randomized", "fixed_rate.c_subcodebooks", 8.7),
    ("fixed_rate_randomized", "fixed_rate.eps_decode", -1.0),
    ("fixed_rate_randomized", "fixed_rate.plurality", "no"),
    ("fixed_rate_randomized", "fixed_rate.rates", [1.4, math.inf, 1.4]),
    ("three_sensor", "true_honest", [1.0, 2]),
    ("three_sensor", "true_honest", [0, 0, 1]),
    ("three_sensor", "true_honest", [1, 0]),
    ("fixed_rate_demo", "strategy.target_set", [1, 1]),
    ("three_sensor", "true_channel", 0.5),
    ("independent_coding", "honest_collection.threshold_t", 1.5),
    ("three_sensor", "honest_collection.sets", [[0, 1], [0, 5], [1, 2]]),
    ("three_sensor", "honest_collection.sets", [[0, 1], [0, 2], [1, 2], []]),
    ("three_sensor", "honest_collection.sets", [[0, 1], [0, 2], [1, 2, 2]]),
    ("three_sensor", "comment", "an unknown top-level field"),
    ("three_sensor", "variable_rate.c_subcodebook", 8),
    ("fixed_rate_demo", "fixed_rate.kind", "deterministic"),     # C = 1 is deterministic
    ("fixed_rate_randomized", "fixed_rate.kind", "randomized"),
    ("three_sensor", "eavesdropping", False),                    # not modeled
    ("three_sensor", "alphabet_sizes", [2, 2, 300]),             # a symbol is one byte
    ("three_sensor", "alphabet_sizes", [2, 2]),
    ("three_sensor", "pmf", [[0.25, 0.25], [0.25, 0.25]]),
    ("independent_coding", "honest_collection.threshold_t", 3),
    ("fixed_rate_demo", "fixed_rate.rates", [0.92, 0.75]),
    ("fixed_rate_demo", "strategy.q_bar", [[1.0]]),              # read by no other kind
    ("three_sensor", "strategy.target_set", [0, 1]),
    ("three_sensor", "true_channel", [[[[0.6, 0.3]] * 2] * 2] * 2),   # rows sum to 0.9
    ("three_sensor", "true_channel", [[0.5, 0.5]] * 7 + [[1.0]]),  # ragged
    ("three_sensor", "true_channel", [[1.0, 0.0]] * 8),          # flat, not (2, 2, 2, 2)
    ("imperfect_toy", "info_model.channels.0", [[[[0.5], [1.0]], [[1.0], [1.0]]]]),
    ("imperfect_toy", "info_model.channels.1", [[[[1.0], [1.0]], [[1.0]]]]),
    ("imperfect_toy", "info_model.channels.1", [[[1.0], [1.0]]]),
    ("imperfect_toy", "info_model.channels", {"0": [[[[1.0], [1.0]], [[1.0], [1.0]]]],
                                              "1": []}),
]


@pytest.mark.parametrize("preset, path, value", MALFORMED,
                         ids=[f"{path}={value!r}" for _preset, path, value in MALFORMED])
def test_malformed_field_refused_at_load(preset, path, value):
    doc = imperfect_toy_doc() if preset == "imperfect_toy" else PRESETS[preset]()
    *sections, key = path.split(".")
    target = doc
    for name in sections:
        target = target[name]
    target[key] = value
    with pytest.raises(ValueError) as refusal:
        scenario_from_dict(json.loads(canonical_dumps(doc)))
    # the message starts with the path, a list member's with its index
    assert re.match(rf"{re.escape(path)}(\[\d+\])?: ", str(refusal.value))


@pytest.mark.parametrize("keys", [("0", "1", "0,1", "1,0"), ("0", "1", "0,0"), ("00", "1")])
def test_channel_keys_name_one_sensor_set_each(keys):
    # "0,1" and "1,0" would name one candidate, and one of their table lists
    # would be dropped
    doc = imperfect_toy_doc()
    rows = doc["true_channel"]
    doc["info_model"]["channels"] = {key: [rows] for key in keys}
    with pytest.raises(ValueError) as refusal:
        scenario_from_dict(doc)
    assert str(refusal.value).startswith("info_model.channels")


def test_document_is_the_one_source_of_truth():
    from dataclasses import FrozenInstanceError, replace
    scn = preset_scenario("three_sensor")
    scn.region()
    with pytest.raises(ValueError, match="init=False"):
        replace(scn, trials=5)      # a field read from the document cannot drift from it
    with pytest.raises(FrozenInstanceError):
        scn.trials = 5
    doc = scenario_to_dict(scn)
    doc["trials"] = 5
    doc["pmf"] = PRESETS["independent_coding"]()["pmf"]
    changed = replace(scn, doc=doc)
    assert changed.trials == 5 and scenario_to_dict(changed)["trials"] == 5
    assert changed.region().r_star != scn.region().r_star     # not the old region
    assert scn.strategy is scn.strategy and changed.strategy is not scn.strategy
    assert not np.array_equal(changed.strategy.q_bar.rows, scn.strategy.q_bar.rows)
    assert scenario_to_dict(scn)["trials"] == 100
    with pytest.raises(ValueError, match="^trials"):
        replace(scn, doc={**doc, "trials": 2.7})    # the replaced document is checked


def benchmark_shaped_docs() -> list[dict]:
    """Documents shaped like the benchmark's (perfbench/run.py): threshold
    laws with only the required fields, and the imperfect-information toy."""
    rng = np.random.default_rng(5)
    docs = [{"schema_version": 1, "m": m, "alphabet_sizes": [2] * m,
             "pmf": rng.dirichlet(np.ones(2 ** m)).reshape((2,) * m).tolist(),
             "honest_collection": {"threshold_t": t}, "info_model": "perfect",
             "true_honest": list(range(m - t)), "true_channel": "perfect", "seed": 7 * m + t}
            for m, t in ((3, 1), (4, 2), (5, 3))]
    rows = [[[1.0], [1.0]], [[1.0], [1.0]]]
    docs.append({"schema_version": 1, "m": 2, "alphabet_sizes": [2, 2],
                 "pmf": [[0.4, 0.2], [0.1, 0.3]], "honest_collection": {"sets": [[0], [1]]},
                 "info_model": {"channels": {"0": [rows], "1": [rows]}},
                 "true_honest": [0], "true_channel": rows, "seed": 3})
    return docs


@pytest.mark.parametrize("doc", benchmark_shaped_docs(), ids=["m3t1", "m4t2", "m5t3", "toy"])
def test_round_trip_fills_defaults(doc):
    given = json.loads(canonical_dumps(doc))
    scn = scenario_from_dict(given)
    filled = scenario_to_dict(scn)
    assert filled == {**doc, "strategy": None, "variable_rate": None, "fixed_rate": None,
                      "trials": 1}
    text = canonical_dumps(filled)
    assert canonical_dumps(scenario_to_dict(scenario_from_dict(json.loads(text)))) == text
    # the kept document shares nothing with the caller's or with a returned copy
    given["true_honest"].append(1)
    filled["pmf"][0][0] = 2.0
    assert canonical_dumps(scenario_to_dict(scn)) == text


class TestRunners:
    def test_vr_rows_reproducible(self):
        doc_json = canonical_dumps(tiny_vr_doc())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = run_trial(doc_json, 0, "vr")
            b = run_trial(doc_json, 0, "vr")
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_fr_runner(self):
        doc = PRESETS["fixed_rate_randomized"]()
        doc["trials"] = 2
        row = run_trial(canonical_dumps(doc), 1, "fr")
        assert row["mode"] == "fr"
        assert row["honest_error"] in (0, 1)

    def test_fr_fake_traitors_with_unequal_alphabets(self, monkeypatch):
        # traitors 1 and 2 fabricate over 3 x 2 symbols: the sizes come from
        # the law, not from splitting the joint fake alphabet 6 evenly
        doc = PRESETS["fixed_rate_randomized"]()
        doc.update({"alphabet_sizes": [2, 3, 2],
                    "pmf": np.random.default_rng(3).dirichlet(np.ones(12))
                    .reshape(2, 3, 2).tolist(),
                    "honest_collection": {"sets": [[0, 1], [0, 2], [1, 2], [0]]},
                    "true_honest": [0]})
        doc["fixed_rate"].update({"rates": [1.5, 2.0, 1.5], "n": 8, "c_subcodebooks": 4,
                                  "eps_decode": 3.0})
        fakes = []
        fabricate = byzsw.adversary.fabricate_block

        def recorded(*args):
            fakes.append(fabricate(*args))
            return fakes[-1]

        monkeypatch.setattr(byzsw.adversary, "fabricate_block", recorded)
        row = trial_row(scenario_from_dict(doc), 0, "fr")
        assert row["error"] == ""
        assert len(fakes) == 1 and fakes[0].shape == (1, 2, 8)
        for symbols, size in zip(fakes[0][0], (3, 2)):
            assert 0 <= symbols.min() and symbols.max() < size

    def test_wilson_interval(self):
        for n in (1, 3, 100):
            lo, hi = wilson_interval(0, n)
            assert lo == 0.0 and hi < 1.0
            lo, hi = wilson_interval(n, n)
            assert lo > 0.0 and hi == 1.0
        assert wilson_interval(0, 100)[1] < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_aggregate(self):
        rows = [{"honest_error": 0, "sum_rate": "2.0", "v_final_size": 3,
                 "wall_time_s": 0.1},
                {"honest_error": 1, "sum_rate": "4.0", "v_final_size": 1,
                 "wall_time_s": 0.1}]
        agg = aggregate_rows(rows)
        assert agg["honest_error_rate"] == 0.5
        assert agg["mean_sum_rate"] == 3.0
        assert agg["mean_v_final_size"] == 2.0


class TestParser:
    @pytest.mark.parametrize("command", ["region", "simulate-vr", "simulate-fr",
                                         "attack-demo"])
    def test_every_command_takes_every_option(self, command):
        args = byzsw.cli.build_parser().parse_args([
            command, "--scenario", "s.json", "--preset", "three_sensor", "--trials", "3",
            "--seed", "7", "--workers", "2", "--out", "o"])
        assert (args.command, args.scenario, args.preset, args.trials, args.seed,
                args.workers, args.out) == (command, "s.json", "three_sensor", 3, 7, 2, "o")

    def test_defaults(self):
        args = byzsw.cli.build_parser().parse_args(["region"])
        assert (args.scenario, args.preset, args.trials, args.seed, args.workers,
                args.out) == (None, None, None, None, 1, None)

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["region", "--preset", "nope"], ["region", "--nope"],
        ["simulate-vr", "--trials", "two"]],
        ids=["no-command", "unknown-command", "unknown-preset", "unknown-option",
             "bad-int"])
    def test_bad_command_line_exits_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: byzsw")


class TestCli:
    def _write_tiny(self, tmp_path: Path) -> Path:
        path = tmp_path / "scenario.json"
        path.write_text(canonical_dumps(tiny_vr_doc()))
        return path

    def test_region_command(self, capsys):
        assert main(["region", "--preset", "three_sensor"]) == 0
        out = capsys.readouterr().out
        assert "R* (min achievable variable-rate sum rate): 2.622556" in out
        assert "closed-form cross-check (t=1): 2.622556  [match]" in out

    def test_region_warns_when_ipf_stops_at_its_sweep_cap(self, tmp_path, capsys,
                                                          monkeypatch):
        # the printed values and region.json are unchanged; stderr says they
        # are not exact
        assert main(["region", "--preset", "three_sensor", "--out", str(tmp_path / "a")]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        real = byzsw.rate_region.max_entropy_with_marginals
        monkeypatch.setattr(byzsw.rate_region, "max_entropy_with_marginals",
                            lambda *args, **kw: real(*args, **kw)._replace(converged=False))
        assert main(["region", "--preset", "three_sensor", "--out", str(tmp_path / "b")]) == 0
        flagged = capsys.readouterr()
        assert flagged.out == plain.out
        lines = flagged.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert ((tmp_path / "b" / "region.json").read_bytes()
                == (tmp_path / "a" / "region.json").read_bytes())

    def test_region_command_threshold_m_minus_1(self, capsys):
        assert main(["region", "--preset", "independent_coding"]) == 0
        out = capsys.readouterr().out
        assert "closed-form cross-check (t=2)" in out

    def test_region_command_imperfect_info(self, tmp_path, capsys):
        # two sensors whose W carries nothing: the bound is H(X0) + H(X1)
        path = tmp_path / "imperfect.json"
        path.write_text(canonical_dumps(imperfect_toy_doc()))
        assert main(["region", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(certified bracket)" in out
        lo, hi = map(float, out.split(" in [")[1].split("]")[0].split(","))
        assert lo <= 1.9709505944546686 <= hi
        assert hi - lo <= 2e-6

    def test_region_command_imperfect_info_writes_out(self, tmp_path, capsys):
        path = tmp_path / "imperfect.json"
        path.write_text(canonical_dumps(imperfect_toy_doc()))
        assert main(["region", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "scenario.json").read_text() == path.read_text()
        region = json.loads((tmp_path / "o" / "region.json").read_text())
        assert sorted(region) == ["maximizer_V", "r_star_lower", "r_star_upper"]
        # unrounded: the printed bracket is the written one rounded outward
        lo, hi = map(float, capsys.readouterr().out.split(" in [")[1].split("]")[0].split(","))
        assert lo <= region["r_star_lower"] <= 1.9709505944546686 <= region["r_star_upper"] <= hi
        assert all(isinstance(s, list) for s in region["maximizer_V"])

    def test_simulate_vr_csv_deterministic(self, tmp_path, capsys):
        scn = self._write_tiny(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate-vr", "--scenario", str(scn),
                         "--out", str(tmp_path / "a")]) == 0
            assert main(["simulate-vr", "--scenario", str(scn),
                         "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "vr_trials.csv").read_bytes()
        b = (tmp_path / "b" / "vr_trials.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header.startswith("schema_version,mode,trial,honest_error,sum_rate")
        summary = json.loads((tmp_path / "a" / "vr_trials_summary.json").read_text())
        assert summary["trials"] == 3
        assert "rate_gap_vs_r_star" in summary

    def test_simulate_vr_workers_match_serial(self, tmp_path):
        scn = self._write_tiny(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate-vr", "--scenario", str(scn),
                         "--out", str(tmp_path / "serial")]) == 0
            assert main(["simulate-vr", "--scenario", str(scn), "--workers", "2",
                         "--out", str(tmp_path / "par")]) == 0
        assert ((tmp_path / "serial" / "vr_trials.csv").read_bytes()
                == (tmp_path / "par" / "vr_trials.csv").read_bytes())

    def test_simulate_fr_and_attack_demo(self, tmp_path, capsys):
        assert main(["simulate-fr", "--preset", "fixed_rate_randomized",
                     "--trials", "3", "--out", str(tmp_path / "fr")]) == 0
        assert (tmp_path / "fr" / "fr_trials.csv").exists()
        assert main(["attack-demo", "--preset", "fixed_rate_demo",
                     "--trials", "3", "--out", str(tmp_path / "ad")]) == 0
        rows = (tmp_path / "ad" / "attack_trials.csv").read_text().splitlines()
        assert len(rows) == 4   # header + 3 trials
        out = capsys.readouterr().out
        assert "attack-demo" in out

    def test_scenario_file_round_trip_on_disk(self, tmp_path):
        scn = self._write_tiny(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(["simulate-vr", "--scenario", str(scn),
                  "--out", str(tmp_path / "o")])
        emitted = (tmp_path / "o" / "scenario.json").read_text()
        assert emitted == scn.read_text()

    def test_zero_trials_empty_stream_valid_summary(self, tmp_path):
        assert main(["simulate-fr", "--preset", "fixed_rate_randomized",
                     "--trials", "0", "--out", str(tmp_path / "z")]) == 0
        rows = (tmp_path / "z" / "fr_trials.csv").read_text().splitlines()
        assert len(rows) == 1   # header only
        summary = json.loads((tmp_path / "z" / "fr_trials_summary.json").read_text())
        assert summary == {"trials": 0}

    def test_negative_trials_refused(self, tmp_path, capsys):
        assert main(["simulate-fr", "--preset", "fixed_rate_randomized",
                     "--trials", "-3", "--out", str(tmp_path / "n")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "trials" in captured.err
        assert not (tmp_path / "n").exists()
        doc = tiny_vr_doc()
        doc["trials"] = -1
        with pytest.raises(ValueError, match="trials"):
            scenario_from_dict(doc)

    def test_invalid_scenario_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = tiny_vr_doc()
        doc["true_honest"] = [1]
        bad.write_text(canonical_dumps(doc))
        assert main(["region", "--scenario", str(bad)]) == 2

    def test_region_over_family_guard_exits_cleanly(self, tmp_path, capsys):
        # threshold(6, 5) has 10127 irredundant families, past FAMILY_GUARD
        doc = {"schema_version": 1, "m": 6, "alphabet_sizes": [2] * 6,
               "pmf": [[[[[[1 / 64] * 2] * 2] * 2] * 2] * 2] * 2,
               "honest_collection": {"threshold_t": 5}, "info_model": "perfect",
               "true_honest": [0], "true_channel": "perfect", "seed": 1}
        path = tmp_path / "big.json"
        path.write_text(canonical_dumps(doc))
        assert main(["region", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and lines[0].endswith("guard is 4096")
        assert not (tmp_path / "out" / "region.json").exists()

    @pytest.mark.parametrize("command, strategy", [
        ("simulate-vr", None),
        ("attack-demo", {"kind": "fake_distribution", "q_bar": "optimal",
                         "target_set": None}),
        ("simulate-fr", {"kind": "fake_distribution", "q_bar": "optimal",
                         "target_set": None})])
    def test_trials_over_family_guard_refused_before_any_trial(
            self, tmp_path, capsys, monkeypatch, command, strategy):
        # every trial, the optimal qbar and the summary's r_star need R* of
        # threshold(6, 5), past FAMILY_GUARD: refused once, up front, with
        # nothing written
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(byzsw.cli, "_run_trials", no_trials)
        doc = {"schema_version": 1, "m": 6, "alphabet_sizes": [2] * 6,
               "pmf": [[[[[[1 / 64] * 2] * 2] * 2] * 2] * 2] * 2,
               "honest_collection": {"threshold_t": 5}, "info_model": "perfect",
               "true_honest": [0], "true_channel": "perfect", "strategy": strategy,
               "variable_rate": {"n": 2, "rounds": 1, "eps": 0.35, "nu": 1.925,
                                 "eta": None, "c_subcodebooks": 2, "alpha": 0.05},
               "fixed_rate": {"rates": [1.0] * 6, "n": 2} if command == "simulate-fr" else None,
               "trials": 2, "seed": 1}
        path = tmp_path / "big.json"
        path.write_text(canonical_dumps(doc))
        out_dir = tmp_path / "out"
        assert main([command, "--scenario", str(path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and lines[0].endswith("guard is 4096")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, preset", [("attack-demo", "three_sensor"),
                                                 ("simulate-fr", "four_sensor_plurality"),
                                                 ("simulate-fr", "fixed_rate_randomized")])
    def test_in_process_trials_solve_the_region_once(self, capsys, monkeypatch, command,
                                                     preset):
        # the strategy is built once, before any trial, and every trial shares
        # it; it and every trial's budget read the one Scenario's region
        calls = {"r_star_perfect": 0, "optimal_fake_conditional": 0}

        def counted(name):
            solve = getattr(byzsw.scenario, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(byzsw.scenario, name, counted(name))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")       # the subcodebook cap
            assert main([command, "--preset", preset, "--trials", "3"]) == 0
        assert "trials: 3" in capsys.readouterr().out
        assert calls == {"r_star_perfect": 1, "optimal_fake_conditional": 1}

    def test_trials_and_seed_overrides(self, tmp_path):
        scn = self._write_tiny(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(["simulate-vr", "--scenario", str(scn), "--trials", "1",
                  "--seed", "99", "--out", str(tmp_path / "x")])
        emitted = json.loads((tmp_path / "x" / "scenario.json").read_text())
        assert emitted["trials"] == 1
        assert emitted["seed"] == 99


class TestTrialChecks:
    @pytest.mark.parametrize("command,preset,missing", [
        ("simulate-fr", "three_sensor", "fixed_rate"),
        ("simulate-vr", "fixed_rate_demo", "variable_rate"),
        ("attack-demo", "two_sensor_baseline", "strategy"),
    ])
    def test_bad_scenario_fails_before_any_trial(self, tmp_path, capsys, command,
                                                 preset, missing):
        assert main([command, "--preset", preset, "--trials", "2",
                     "--out", str(tmp_path)]) == 2
        assert missing in capsys.readouterr().err
        assert not list(tmp_path.glob("*_trials.csv"))

    @pytest.mark.parametrize("command,target,stem", [
        ("simulate-vr", "run_session", "vr_trials"),
        ("simulate-fr", "run_fixed_rate_trial", "fr_trials"),
    ])
    def test_failing_trial_becomes_error_row(self, tmp_path, monkeypatch, command,
                                             target, stem):
        real = getattr(byzsw.scenario, target)
        calls = []

        def fail_on_trial_1(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:     # one call per trial, in trial order
                raise RuntimeError("planted failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(byzsw.scenario, target, fail_on_trial_1)
        doc = tiny_vr_doc() if command == "simulate-vr" else PRESETS["fixed_rate_randomized"]()
        doc["trials"] = 4
        path = tmp_path / "scenario_in.json"
        path.write_text(canonical_dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--scenario", str(path), "--workers", "1",
                         "--out", str(out)]) == 0

        with open(out / f"{stem}.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [r["trial"] for r in table] == ["0", "1", "2", "3"]
        assert [r["error"] for r in table] == ["", "planted failure", "", ""]
        assert "error_type" not in table[0]

        rows = [json.loads(line) for line in (out / f"{stem}.jsonl").read_text().splitlines()]
        assert rows[1]["error_type"] == "RuntimeError"
        assert ["error_type" in r for r in rows] == [False, True, False, False]
        ok = [rows[0], rows[2], rows[3]]

        summary = json.loads((out / f"{stem}_summary.json").read_text())
        assert summary["trials"] == 4
        assert summary["failures"] == {"RuntimeError": 1}
        k = sum(r["honest_error"] for r in ok)
        assert summary["honest_error_rate"] == k / 3
        assert summary["honest_error_ci95"] == list(wilson_interval(k, 3))
        assert summary["total_wall_time_s"] == pytest.approx(
            sum(r["wall_time_s"] for r in ok))
        if command == "simulate-vr":
            assert summary["mean_sum_rate"] == pytest.approx(
                sum(float(r["sum_rate"]) for r in ok) / 3)

    @pytest.mark.parametrize("target_set", [None, [], [0, 3]])
    def test_bad_ambiguity_target_refused_at_load(self, tmp_path, capsys, target_set):
        doc = PRESETS["fixed_rate_demo"]()
        doc["strategy"]["target_set"] = target_set
        with pytest.raises(ValueError):
            scenario_from_dict(doc)
        path = tmp_path / "scenario_in.json"
        path.write_text(canonical_dumps(doc))
        out = tmp_path / "out"
        assert main(["attack-demo", "--scenario", str(path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert "target_set" in capsys.readouterr().err
        assert not out.exists()

    def test_ambiguity_on_randomized_code_refused_at_load(self, tmp_path, capsys):
        # every trial would be the error "applies to deterministic coding"
        doc = PRESETS["fixed_rate_demo"]()
        doc["fixed_rate"]["c_subcodebooks"] = 8
        with pytest.raises(ValueError, match="deterministic coding"):
            scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, "attack-demo", "deterministic coding")

    @pytest.mark.parametrize("target_set", [[1, 2], [0]])
    def test_ambiguity_target_not_straddling_refused_at_load(self, tmp_path, capsys,
                                                             target_set):
        # the true honest set is {1, 2}: every trial would be the error "need a
        # candidate set straddling the honest set"
        doc = PRESETS["fixed_rate_demo"]()
        doc["strategy"]["target_set"] = target_set
        with pytest.raises(ValueError, match="straddle"):
            scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, "attack-demo", "straddle")

    @pytest.mark.parametrize("blind", ["info_model", "true_channel"])
    def test_ambiguity_without_perfect_information_refused_at_load(self, tmp_path, capsys,
                                                                   blind):
        # W carries nothing: the attack would need rows the traitors never see
        doc = PRESETS["fixed_rate_demo"]()
        nothing = np.ones((2, 2, 2, 1)).tolist()
        doc["true_channel"] = nothing
        if blind == "info_model":
            doc["info_model"] = {"channels": {key: [nothing] for key in ("0,1", "0,2", "1,2")}}
        with pytest.raises(ValueError, match="perfect information"):
            scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, "attack-demo", "perfect information")

    def test_simulate_vr_refuses_the_ambiguity_strategy(self, tmp_path, capsys):
        # a session would let the traitor behave honestly, unannounced
        doc = PRESETS["three_sensor"]()
        doc["strategy"] = {"kind": "fixed_rate_ambiguity", "q_bar": None, "target_set": [1, 2]}
        scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, "simulate-vr", "fixed_rate_ambiguity")

    def test_unknown_strategy_kind_refused_at_load(self, tmp_path, capsys):
        # "honest" is not a kind: every trial would otherwise be an error row
        doc = PRESETS["three_sensor"]()
        doc["strategy"]["kind"] = "honest"
        with pytest.raises(ValueError, match="unknown strategy kind 'honest'"):
            scenario_from_dict(doc)
        path = tmp_path / "scenario_in.json"
        path.write_text(canonical_dumps(doc))
        out = tmp_path / "out"
        assert main(["attack-demo", "--scenario", str(path), "--trials", "2",
                     "--out", str(out)]) == 2
        assert "honest" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_rate_traitors_without_strategy_refused_at_load(self):
        # every fixed-rate trial would fail with "no strategy supplied"
        doc = PRESETS["fixed_rate_randomized"]()
        doc["strategy"] = None
        with pytest.raises(ValueError, match="needs a strategy"):
            scenario_from_dict(doc)
        doc["true_honest"] = [0, 1, 2]
        doc["honest_collection"] = {"sets": [[0, 1, 2]]}
        assert scenario_from_dict(doc).strategy_kind is None     # no traitors: loads

    def test_unbuildable_strategy_refused_before_any_trial(self, tmp_path, capsys,
                                                           monkeypatch):
        # an optimal qbar under imperfect information: every trial would be
        # the same error row, and attack-demo would exit 0
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(byzsw.cli, "_run_trials", no_trials)
        doc = imperfect_toy_doc()
        doc["strategy"] = {"kind": "fake_distribution", "q_bar": "optimal",
                           "target_set": None}
        scenario_from_dict(doc)         # loads: region can still read it
        path = tmp_path / "scenario_in.json"
        path.write_text(canonical_dumps(doc))
        out = tmp_path / "out"
        assert main(["attack-demo", "--scenario", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "perfect information" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("q_bar, message", [
        ([[0.6, 0.3]] * 8, "channel row does not sum to 1"),
        ([[0.5, 0.5]] * 7 + [[1.0]], "inhomogeneous"),
        ([[0.5, 0.5]] * 3, "must have 8 rows"),
        ([[0.5, 0.3, 0.2]] * 8, "of 2 entries, got shape (8, 3)")],
        ids=["rows summing to 0.9", "ragged", "3 rows of 8", "rows of three symbols"])
    def test_explicit_q_bar_refused_at_load(self, tmp_path, capsys, q_bar, message):
        # each loaded, and region ran on it: only a trial refused it
        doc = PRESETS["three_sensor"]()         # one binary traitor, |W| = 8
        doc["strategy"]["q_bar"] = q_bar
        with pytest.raises(ValueError) as refusal:
            scenario_from_dict(doc)
        assert str(refusal.value).startswith("strategy.q_bar: ")
        assert message in str(refusal.value)
        assert_cli_refuses(tmp_path, capsys, doc, "region", "strategy.q_bar: ")

    def test_strategy_without_traitors_refused_at_load(self, tmp_path, capsys):
        # no traitor played it: attack-demo exited 0 on rows no traitor acted in
        doc = PRESETS["two_sensor_baseline"]()
        doc["strategy"] = {"kind": "black_hole"}
        with pytest.raises(ValueError, match="^strategy: "):
            scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, "attack-demo", "strategy: ")

    @pytest.mark.parametrize("preset, command, rows", [
        ("three_sensor", "attack-demo", 2), ("fixed_rate_randomized", "simulate-fr", 3),
        ("three_sensor", "attack-demo", 12)])
    def test_q_bar_needs_one_row_per_side_information_symbol(self, tmp_path, capsys,
                                                             preset, command, rows):
        # |W| = |X_M| = 8 under perfect information: fewer rows made every
        # trial an error row, and more rows were never read
        doc = PRESETS[preset]()
        doc["strategy"]["q_bar"] = [[0.5, 0.5]] * rows
        assert_cli_refuses(tmp_path, capsys, doc, command, "strategy.q_bar: must have 8 rows")

    @pytest.mark.parametrize("command", ["simulate-vr", "simulate-fr"])
    def test_alphabet_past_one_byte_refused_at_load(self, tmp_path, capsys, command):
        # the uint8 sequence tables wrapped symbols 256 and above, and both
        # commands ran on the wrapped spaces
        doc = {"schema_version": 1, "m": 2, "alphabet_sizes": [300, 2],
               "pmf": np.full((300, 2), 1 / 600).tolist(),
               "honest_collection": {"sets": [[0, 1]]}, "info_model": "perfect",
               "true_honest": [0, 1], "true_channel": "perfect",
               "variable_rate": {"n": 2, "rounds": 1, "eps": 0.35, "nu": 1.925,
                                 "c_subcodebooks": 2},
               "fixed_rate": {"rates": [5.0, 1.0], "n": 2}, "trials": 1, "seed": 1}
        with pytest.raises(ValueError, match=r"^alphabet_sizes: .*\[1, 256\]"):
            scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, command, "alphabet_sizes")

    def test_variable_rate_traitors_without_strategy_load(self):
        # a variable-rate session lets strategy-less traitors behave honestly
        scn = scenario_from_dict(imperfect_toy_doc())
        assert scn.strategy_kind is None and len(scn.honest_true.complement(scn.m)) == 1

    @pytest.mark.parametrize("preset, section, key, value", [
        ("fixed_rate_demo", "fixed_rate", "rates", [0.92, 0.75, 3.0]),      # n * R = 42
        ("fixed_rate_demo", "fixed_rate", "rates", [0.92, 0.75, 200.0]),    # 2.0 ** 2800
        ("three_sensor", "variable_rate", "nu", 3.0),                       # n(eps + nu) = 40.2
    ], ids=["rate-3", "rate-200", "nu-3"])
    def test_bin_count_past_2_32_refused_at_load(self, tmp_path, capsys, preset, section,
                                                 key, value):
        # every trial would be the same ValueError or OverflowError row, and
        # attack-demo would exit 0
        doc = PRESETS[preset]()
        doc[section][key] = value
        with pytest.raises(ValueError, match=r"past the 2\^32 cap"):
            scenario_from_dict(doc)
        assert_cli_refuses(tmp_path, capsys, doc, "attack-demo", "past the 2^32 cap")


class TestSummaryCounts:
    def test_restore_and_forced_totals_match_rows(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate-vr", "--preset", "two_sensor_baseline", "--trials", "3",
                         "--out", str(tmp_path)]) == 0
        rows = [json.loads(line)
                for line in (tmp_path / "vr_trials.jsonl").read_text().splitlines()]
        summary = json.loads((tmp_path / "vr_trials_summary.json").read_text())
        restores = sum(r["v_empty_restores"] for r in rows)
        assert restores > 0     # eta = 0.7 at n = 12 empties V in many rounds
        assert summary["total_v_empty_restores"] == restores
        assert summary["total_decode_forced"] == sum(r["decode_forced"] for r in rows)
        # the cap shows in the summary only; the CSV header is unchanged
        assert (summary["subcodebooks_requested"], summary["subcodebooks_used"]) == (12000, 1024)
        header = (tmp_path / "vr_trials.csv").read_text().splitlines()[0]
        assert "total" not in header and "subcodebooks" not in header

    def test_three_sensor_cap_reported(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["attack-demo", "--preset", "three_sensor", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "subcodebooks_requested: 18000" in out
        assert "subcodebooks_used: 1024" in out

    def test_no_cap_keys_with_explicit_c(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = tmp_path / "scenario.json"
            path.write_text(canonical_dumps(tiny_vr_doc()))
            assert main(["simulate-vr", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "vr_trials_summary.json").read_text())
        assert "subcodebooks_requested" not in summary

    def test_aggregate_totals_skip_failed_rows(self):
        rows = [{"decode_forced": 2, "v_empty_restores": 1, "error": ""},
                {"error": "boom", "error_type": "RuntimeError"},
                {"decode_forced": 0, "v_empty_restores": 4, "error": ""}]
        agg = aggregate_rows(rows)
        assert agg["total_decode_forced"] == 2
        assert agg["total_v_empty_restores"] == 5
        assert "total_decode_forced" not in aggregate_rows([{"honest_error": 0, "error": ""}])


# Run in a fresh interpreter: the imperfect-information solver and the
# region command must not load scipy (it doubles a process's peak RSS) or
# numpy.ma.
IMPORT_PROBE = """
import contextlib, io, json, sys
from byzsw.cli import main
from byzsw.rate_region import r_star_general
from byzsw.scenario import load_scenario

scn = load_scenario(sys.argv[1])
r_star_general(scn.p, scn.collection, scn.info_model, scn.honest_true, scn.r_true,
               seed=scn.seed, starts=16)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["region", "--scenario", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""


def test_imperfect_region_loads_no_scipy(tmp_path):
    path = tmp_path / "imperfect.json"
    path.write_text(canonical_dumps(imperfect_toy_doc()))
    src = str(Path(byzsw.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == []


# Run in a fresh interpreter: every draw comes from the keyed counter stream,
# so no CLI trial pays for importing numpy.random.
TRIALS_PROBE = """
import contextlib, io, json, sys, tempfile, warnings
from byzsw.cli import main

warnings.simplefilter("ignore")      # the subcodebook cap
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for argv in (["attack-demo", "--preset", "three_sensor", "--trials", "1"],
                 ["attack-demo", "--preset", "fixed_rate_demo", "--trials", "2"],
                 ["simulate-fr", "--preset", "fixed_rate_randomized", "--trials", "2"]):
        assert main(argv + ["--out", out]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])))
"""


def test_cli_trials_load_no_numpy_random():
    src = str(Path(byzsw.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", TRIALS_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == []
