"""Command-line harness: region evaluation, Monte Carlo simulation, attack demos.

Outputs: human-readable summary on stdout; per-trial CSV plus JSON summaries
under --out. CSV rows carry only deterministic fields and are sorted by trial
index, so identical (scenario, seed) pairs reproduce byte-identical files
regardless of worker scheduling; wall-clock times go to the JSONL record
stream instead.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .prob_core import SubsetView, conditional_mutual_information, entropy
from .rate_region import (
    closed_form_t,
    deterministic_extra_constraints,
    sw_facets,
)
from .scenario import (
    PRESETS,
    Scenario,
    aggregate_rows,
    canonical_dumps,
    load_scenario,
    preset_scenario,
    run_attack_trial,
    run_fr_trial,
    run_vr_trial,
    scenario_from_dict,
    scenario_to_dict,
)

CSV_COLUMNS = {
    "vr": ["schema_version", "mode", "trial", "honest_error", "sum_rate",
           "v_final_size", "over_budget_rounds", "decode_forced",
           "v_empty_restores", "error"],
    "fr": ["schema_version", "mode", "trial", "honest_error",
           "num_null_finals", "num_disagreements", "error"],
    "attack": ["schema_version", "mode", "trial", "attack_found",
               "honest_error", "indistinguishable", "v_final_size",
               "sum_rate", "over_budget_rounds", "error"],
}


def _load(args) -> Scenario:
    if args.scenario and args.preset:
        raise SystemExit("give either --scenario or --preset, not both")
    if args.preset:
        scn = preset_scenario(args.preset)
    elif args.scenario:
        scn = load_scenario(args.scenario)
    else:
        raise SystemExit("one of --scenario or --preset is required")
    doc = scenario_to_dict(scn)
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.seed is not None:
        doc["seed"] = args.seed
    return scenario_from_dict(doc)


def _write_outputs(out_dir: str | None, stem: str, mode: str, rows: list[dict],
                   summary: dict, scn: Scenario) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.json").write_text(canonical_dumps(scenario_to_dict(scn)))
    cols = CSV_COLUMNS[mode]
    with open(out / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    with open(out / f"{stem}.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    (out / f"{stem}_summary.json").write_text(canonical_dumps(summary))


def _run_trials(scn: Scenario, runner, workers: int) -> list[dict]:
    doc_json = canonical_dumps(scenario_to_dict(scn))
    trials = range(scn.trials)
    if workers <= 1:
        rows = [runner(doc_json, t) for t in trials]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(runner, [doc_json] * scn.trials, trials))
    rows.sort(key=lambda r: r["trial"])
    return rows


def cmd_region(args) -> int:
    scn = _load(args)
    p = scn.p
    m = scn.m
    print(f"sensors: {m}, alphabet sizes: {list(scn.alphabet_sizes)}")
    print("honest collection:",
          " ".join(str(c) for c in scn.collection.candidates))
    if not scn.info_model.perfect:
        from .rate_region import r_star_general
        res = r_star_general(p, scn.collection, scn.info_model,
                             scn.honest_true, scn.r_true, seed=scn.seed)
        print(f"R*({scn.honest_true}, r) ~ {res.value:.6f} bits/symbol "
              f"(estimate, residual {res.residual:.2e})")
        print("maximizer V:", " ".join(str(s) for s in res.maximizer_V))
        return 0
    report = scn.region()
    print(f"R* (min achievable variable-rate sum rate): {report.r_star:.6f} bits/symbol")
    print("maximizer V:", " ".join(str(s) for s in report.maximizer_V))
    for h_true in scn.collection.candidates:
        print(f"  R*(H={h_true}, perfect) = {report.per_pair[h_true]:.6f}")
    t = scn.collection.detect_threshold(m)
    if t is not None and (t in (1, 2) or t == m - 1):
        cf = closed_form_t(p, t)
        tag = "match" if abs(cf - report.r_star) < 1e-6 else "MISMATCH"
        print(f"closed-form cross-check (t={t}): {cf:.6f}  [{tag}]")
    if m == 3:
        cmis = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            k = ({0, 1, 2} - {i, j}).pop()
            v = conditional_mutual_information(
                p, SubsetView.of(i), SubsetView.of(j), given=SubsetView.of(k))
            cmis.append(f"I(X{i};X{j}|X{k})={v:.6f}")
        print("conditional MI penalties:", " ".join(cmis))
        print(f"joint entropy H(X_M) = {entropy(p):.6f}")
    print("fixed-rate randomized region facets (per candidate set):")
    for S in scn.collection.candidates:
        parts = [f"R_{{{','.join(str(i) for i in sub)}}} >= {b:.6f}"
                 for sub, b in sw_facets(p, S)]
        print(f"  S={S}: " + "; ".join(parts))
    extras = deterministic_extra_constraints(p, scn.collection, scn.info_model)
    if extras:
        print("deterministic-coding extra constraints (intersections known to traitors):")
        for inter in extras:
            parts = [f"R_{{{','.join(str(i) for i in sub)}}} >= {b:.6f}"
                     for sub, b in sw_facets(p, inter)]
            print(f"  {inter}: " + "; ".join(parts))
    if args.out:
        out = {
            "r_star": report.r_star,
            "maximizer_V": [list(s.indices) for s in report.maximizer_V],
            "per_pair": {",".join(map(str, k.indices)): v
                         for k, v in report.per_pair.items()},
            "maximizer_q": report.maximizer_q.mass.tolist(),
        }
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        (path / "region.json").write_text(canonical_dumps(out))
        (path / "scenario.json").write_text(canonical_dumps(scenario_to_dict(scn)))
    return 0


def _print_summary(summary: dict) -> None:
    for key in sorted(summary):
        print(f"  {key}: {summary[key]}")


def cmd_simulate_vr(args) -> int:
    scn = _load(args)
    if scn.vr is None:
        raise SystemExit("scenario has no variable_rate section")
    rows = _run_trials(scn, run_vr_trial, args.workers)
    summary = aggregate_rows(rows)
    if scn.info_model.perfect:
        r_star = scn.region().r_star
        summary["r_star"] = r_star
        if "mean_sum_rate" in summary:
            summary["rate_gap_vs_r_star"] = summary["mean_sum_rate"] - r_star
    print(f"simulate-vr: {scn.trials} trials")
    _print_summary(summary)
    _write_outputs(args.out, "vr_trials", "vr", rows, summary, scn)
    return 0


def cmd_simulate_fr(args) -> int:
    scn = _load(args)
    if scn.fr is None:
        raise SystemExit("scenario has no fixed_rate section")
    rows = _run_trials(scn, run_fr_trial, args.workers)
    summary = aggregate_rows(rows)
    print(f"simulate-fr: {scn.trials} trials")
    _print_summary(summary)
    _write_outputs(args.out, "fr_trials", "fr", rows, summary, scn)
    return 0


def cmd_attack_demo(args) -> int:
    scn = _load(args)
    if scn.strategy_kind is None:
        raise SystemExit("attack-demo needs a scenario with a strategy")
    rows = _run_trials(scn, run_attack_trial, args.workers)
    summary = aggregate_rows(rows)
    print(f"attack-demo ({rows[0]['mode'] if rows else '?'}): {scn.trials} trials")
    _print_summary(summary)
    _write_outputs(args.out, "attack_trials", "attack", rows, summary, scn)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzsw",
        description="Distributed source coding under Byzantine sensors: "
                    "rate regions and protocol simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("region", cmd_region),
                     ("simulate-vr", cmd_simulate_vr),
                     ("simulate-fr", cmd_simulate_fr),
                     ("attack-demo", cmd_attack_demo)):
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", help="path to a scenario JSON file")
        sp.add_argument("--preset", choices=sorted(PRESETS),
                        help="use a built-in scenario")
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", default=None, help="directory for CSV/JSON records")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
