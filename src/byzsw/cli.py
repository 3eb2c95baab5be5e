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
# argparse imports locale when it builds its first parser: importing it with
# the module keeps that one-off ~1 ms out of the command's run
import locale  # noqa: F401
import math
import sys
from pathlib import Path

from .binning import EnumerationGuardError
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
    run_trial,
    scenario_from_dict,
    scenario_to_dict,
    trial_row,
)

# trial command -> (output stem, CSV columns)
TRIAL_COMMANDS = {
    "simulate-vr": ("vr_trials",
                    ["schema_version", "mode", "trial", "honest_error", "sum_rate",
                     "v_final_size", "over_budget_rounds", "decode_forced",
                     "v_empty_restores", "error"]),
    "simulate-fr": ("fr_trials",
                    ["schema_version", "mode", "trial", "honest_error",
                     "num_null_finals", "num_disagreements", "error"]),
    "attack-demo": ("attack_trials",
                    ["schema_version", "mode", "trial", "attack_found",
                     "honest_error", "indistinguishable", "v_final_size",
                     "sum_rate", "over_budget_rounds", "error"]),
}


def _load(args) -> Scenario:
    if args.scenario and args.preset:
        raise SystemExit("give either --scenario or --preset, not both")
    if args.preset:
        doc = PRESETS[args.preset]()        # argparse admits only preset names
    elif args.scenario:
        with open(args.scenario) as fh:
            doc = json.load(fh)
    else:
        raise SystemExit("one of --scenario or --preset is required")
    if type(doc) is dict:       # any other document is refused by the load below
        doc.update((key, value) for key, value in (("trials", args.trials),
                                                   ("seed", args.seed)) if value is not None)
    return scenario_from_dict(doc)


def _write_outputs(out_dir: str | None, command: str, rows: list[dict],
                   summary: dict, scn: Scenario) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.json").write_text(canonical_dumps(scenario_to_dict(scn)))
    stem, cols = TRIAL_COMMANDS[command]
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


def _trial_mode(command: str, scn: Scenario) -> str:
    """Row mode that a trial command runs on ``scn``; refuses, before any
    trial runs, a scenario that lacks the strategy or section it needs or
    whose strategy the mode cannot play."""
    if command == "attack-demo":
        if scn.strategy_kind is None:
            raise ValueError("attack-demo needs a scenario with a strategy")
        mode = "attack-fr" if scn.strategy_kind == "fixed_rate_ambiguity" else "attack-vr"
    else:
        mode = "vr" if command == "simulate-vr" else "fr"
    if mode.endswith("fr") and scn.fr is None:
        raise ValueError(f"{command} ({mode}) needs a fixed_rate section")
    if mode.endswith("vr") and scn.vr is None:
        raise ValueError(f"{command} ({mode}) needs a variable_rate section")
    if mode == "vr" and scn.strategy_kind == "fixed_rate_ambiguity":
        raise ValueError(f"{command} ({mode}): the fixed_rate_ambiguity strategy "
                         "attacks fixed-rate codes only")
    return mode


def _run_trials(scn: Scenario, mode: str, workers: int) -> list[dict]:
    """Rows of every trial in trial order (``map`` keeps its input order).
    In-process trials share ``scn``, so a region it has solved and the
    strategy it has built are not made again; each worker process rebuilds
    the scenario, and so its strategy, once."""
    trials = range(scn.trials)
    if workers <= 1:
        return [trial_row(scn, t, mode) for t in trials]
    from concurrent.futures import ProcessPoolExecutor     # only a pool run pays its import
    doc_json = canonical_dumps(scenario_to_dict(scn))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_trial, [doc_json] * scn.trials, trials,
                             [mode] * scn.trials))


def _write_region(out_dir: str | None, region: dict, scn: Scenario) -> None:
    if not out_dir:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "region.json").write_text(canonical_dumps(region))
    (out / "scenario.json").write_text(canonical_dumps(scenario_to_dict(scn)))


def cmd_region(args) -> int:
    scn = _load(args)
    p = scn.p
    m = scn.m
    # each branch solves before it prints, so a refused instance prints nothing
    header = (f"sensors: {m}, alphabet sizes: {list(scn.alphabet_sizes)}\n"
              "honest collection: " + " ".join(str(c) for c in scn.collection.candidates))
    if not scn.info_model.perfect:
        from .rate_region import r_star_general
        res = r_star_general(p, scn.collection, scn.info_model,
                             scn.honest_true, scn.r_true)
        # rounded outward, so the printed interval still holds R*
        lo, hi = math.floor(res.lower * 1e6) / 1e6, math.ceil(res.upper * 1e6) / 1e6
        print(header)
        print(f"R*({scn.honest_true}, r) in [{lo:.6f}, {hi:.6f}] bits/symbol "
              "(certified bracket)")
        print("maximizer V:", " ".join(str(s) for s in res.maximizer_V))
        _write_region(args.out, {"r_star_lower": res.lower, "r_star_upper": res.upper,
                                 "maximizer_V": [list(s.indices) for s in res.maximizer_V]},
                      scn)
        return 0
    report = scn.region()
    if not report.all_converged:
        print("warning: IPF stopped at its sweep cap; the R* values are approximate",
              file=sys.stderr)
    print(header)
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
    _write_region(args.out, {
        "r_star": report.r_star,
        "maximizer_V": [list(s.indices) for s in report.maximizer_V],
        "per_pair": {",".join(map(str, k.indices)): v for k, v in report.per_pair.items()},
        "maximizer_q": report.maximizer_q.mass.tolist(),
    }, scn)
    return 0


def cmd_trials(args) -> int:
    scn = _load(args)
    mode = _trial_mode(args.command, scn)
    if mode.endswith("vr") and scn.info_model.perfect:
        # every such trial and the summary need R*: a collection past the
        # enumeration guard is refused here, before any trial runs
        scn.region()
    scn.strategy     # as is a strategy no trial could build: an optimal qbar solves R*
    rows = _run_trials(scn, mode, args.workers)
    summary = aggregate_rows(rows)
    if mode.endswith("vr"):
        requested, used = scn.vr.subcodebook_counts(scn.m, scn.alphabet_sizes)
        if used < requested:
            summary["subcodebooks_requested"] = requested
            summary["subcodebooks_used"] = used
    if mode == "vr" and scn.info_model.perfect:
        r_star = scn.region().r_star
        summary["r_star"] = r_star
        if "mean_sum_rate" in summary:
            summary["rate_gap_vs_r_star"] = summary["mean_sum_rate"] - r_star
    print(f"{args.command} ({mode}): {scn.trials} trials")
    for key in sorted(summary):
        print(f"  {key}: {summary[key]}")
    _write_outputs(args.out, args.command, rows, summary, scn)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzsw",
        description="Distributed source coding under Byzantine sensors: "
                    "rate regions and protocol simulation.")
    parser.add_argument("command", choices=("region", *TRIAL_COMMANDS))
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="use a built-in scenario")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="directory for CSV/JSON records")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = cmd_region if args.command == "region" else cmd_trials
    try:
        return run(args)
    except (ValueError, FileNotFoundError, EnumerationGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
