"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \
        --pairs region:11101-11110 --pairs vr_attack:11201-11206 \
        --traced region:2001 --claim region:trial_s_p50:0.3

Both sides run from fresh copies in a work directory (``--workdir``, a
new temporary directory by default): the parent from ``git archive REV``,
the change from the working tree's tracked and untracked, not ignored,
files. For every workload and seed of ``--pairs`` both copies run
``perfbench/run.py --workload W --seed S --seconds 40 --trace 0`` one after
the other; the side that runs first alternates from pair to pair, starting
with the parent. ``--traced W:S`` adds one ``--trace 1`` run per side,
parent first. The output keeps every run (its RECORD and result lines) and,
per workload, each end-to-end metric of BENCHMARK.json plus the raw
``wall_trial_s_p50``: the medians and inclusive quartiles of both sides,
the pairs the change wins (lower or higher as the metric is better) and
rel_change = (change median - parent median) / parent median. ``--claim
W:METRIC:GAIN`` checks the rule a gain must meet: the change wins at least
9 of every 10 pairs, the gap between the medians exceeds the parent's
interquartile range, and the change improves the median by at least GAIN.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("wall_trial_s_p50", "lower")


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def make_copies(parent: str, workdir: Path) -> dict[str, Path]:
    copies = {"parent": workdir / "parent", "change": workdir / "change"}
    for path in copies.values():
        path.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(copies["parent"])], input=archive, check=True)
    files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                           check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, files):
        src, dst = ROOT / name, copies["change"] / name
        if src.is_file():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return copies


def run_once(copy: Path, side: str, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "40", "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    row = {"side": side, "workload": workload, "seed": seed, "trace": trace,
           "exit": proc.returncode, "started_unix": started,
           "stderr_tail": proc.stderr[-2000:]}
    if proc.returncode == 0:
        row["record"] = json.loads(lines[-2].removeprefix("RECORD "))
        row["result"] = json.loads(lines[-1])
    print(f"{side:6s} {workload} seed {seed} trace {trace}: exit {proc.returncode}",
          file=sys.stderr, flush=True)
    return row


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    by_pair: dict = {}
    for row in runs:
        if row["trace"] == 0 and row["exit"] == 0:
            by_pair.setdefault((row["workload"], row["seed"]), {})[row["side"]] = row
    out: dict = {}
    for (workload, seed), sides in sorted(by_pair.items()):
        if len(sides) < 2:
            continue
        entry = out.setdefault(workload, {"pairs": 0, "seeds": []})
        entry["pairs"] += 1
        entry["seeds"].append(seed)
        for name, better in metrics:
            vals = {s: sides[s]["record"]["metrics"].get(name, {}).get("value")
                    for s in ("parent", "change")}
            if None in vals.values():
                continue
            m = entry.setdefault(name, {"better": better, "parent": [], "change": [],
                                        "change_wins": 0, "ties": 0})
            m["parent"].append(vals["parent"])
            m["change"].append(vals["change"])
            if vals["parent"] == vals["change"]:
                m["ties"] += 1
            elif (vals["change"] < vals["parent"]) == (better == "lower"):
                m["change_wins"] += 1
    for entry in out.values():
        for name, better in metrics:
            m = entry.get(name)
            if m is None:
                continue
            pq, cq = quartiles(m["parent"]), quartiles(m["change"])
            m.update(parent_median=pq[1], parent_q1=pq[0], parent_q3=pq[2],
                     change_median=cq[1], change_q1=cq[0], change_q3=cq[2],
                     rel_change=(cq[1] - pq[1]) / pq[1] if pq[1] else 0.0)
            del m["parent"], m["change"]
    return out


def check_claim(summary: dict, text: str) -> dict:
    workload, metric, gain = text.split(":")
    m = summary[workload][metric]
    pairs = summary[workload]["pairs"]
    gap = abs(m["change_median"] - m["parent_median"])
    iqr = m["parent_q3"] - m["parent_q1"]
    improved = -m["rel_change"] if m["better"] == "lower" else m["rel_change"]
    return {"workload": workload, "metric": metric, "pairs": pairs,
            "change_wins": m["change_wins"], "parent_median": m["parent_median"],
            "parent_iqr": iqr, "change_median": m["change_median"], "median_gap": gap,
            "rel_change": m["rel_change"],
            "rule": f"change wins >= 9 of 10 pairs, median gap > parent IQR, "
                    f"median improved by >= {float(gain):.0%}",
            "met": (10 * m["change_wins"] >= 9 * pairs and gap > iqr
                    and improved >= float(gain))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", action="append", default=[], metavar="W:SEEDS")
    parser.add_argument("--traced", action="append", default=[], metavar="W:SEED")
    parser.add_argument("--claim", action="append", default=[], metavar="W:METRIC:GAIN")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    parent = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    copies = make_copies(parent, workdir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]] + [RAW]

    runs, k = [], 0
    for plan in args.pairs:
        workload, _, seeds = plan.partition(":")
        for seed in seeds_of(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                row = run_once(copies[side], side, workload, seed, 0)
                row["ran_first_in_pair"] = order[0]
                runs.append(row)
            k += 1
    traced = {}
    for plan in args.traced:
        workload, _, seed = plan.partition(":")
        rows = {side: run_once(copies[side], side, workload, int(seed), 1)
                for side in ("parent", "change")}
        runs.extend(rows.values())
        traced[f"{workload}_seed_{seed}"] = {
            side: {name: m["value"] for name, m in row.get("record", {})
                   .get("metrics", {}).items()} for side, row in rows.items()}

    summary = summarize(runs, metrics)
    out = {"parent": parent,
           "script": "python3 tools/bench_pairs.py " + " ".join(
               argv if argv is not None else sys.argv[1:]),
           "units": "times in reference seconds (perfbench/README.md) unless marked "
                    "wall_*; quartiles inclusive; reference seconds compare only inside "
                    "this file",
           "claims": [check_claim(summary, c) for c in args.claim],
           "summary": summary, "traced": traced,
           "failed_runs": sum(row["exit"] != 0 for row in runs), "runs": runs}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
