"""Self-test of the benchmark on tiny inputs: ``python3 perfbench/run.py --smoke``.

Runs every workload untraced and traced with the SMOKE profile (one short
chunk or pass each) and checks that every metric the benchmark defines is
emitted with its unit, or marked absent by the traced run; that the final
line carries exactly the metrics BENCHMARK.json lists; that a missing wrap
target is marked absent instead of failing; and that the correctness gates
fire on known-wrong values, including through a whole run, which must then
end in BenchError instead of a result.
"""
from __future__ import annotations

import sys

import numpy as np

import reference as ref
import run

# The metrics each workload must report, as the benchmark's issue names them.
END_TO_END = {
    "vr_attack": ["setup_s", "trial_s_p50", "trial_s_tail", "trials_per_s",
                  "sum_rate_bits", "honest_error_rate", "failed_frac", "peak_rss_mb"],
    "fr_converse": ["setup_s", "trial_s_p50", "trial_s_tail", "trials_per_s",
                    "failed_frac", "peak_rss_mb"],
    "region": ["setup_s", "solve_s", "failed_frac", "peak_rss_mb"],
}
PER_LAYER = [
    "binning.hash_calls", "binning.hash_s", "binning.enum_s",
    "variable_rate.phases", "variable_rate.transactions",
    "variable_rate.hashes_per_phase", "variable_rate.phase_s",
    "variable_rate.update_v_calls", "variable_rate.update_v_s",
    "variable_rate.forced_frac",
    "fixed_rate.decode_s", "fixed_rate.tuples_tested", "fixed_rate.encode_s",
    "adversary.attack_s", "adversary.attack_found_frac", "adversary.strategy_s",
    "rate_region.enum_s", "rate_region.ipf_calls", "rate_region.ipf_s",
    "rate_region.ipf_sweeps", "rate_region.pg_s",
    *[f"rate_region.solve_s.m{m}t{t}" for m, t in run.REGION_FAMILIES],
    "rate_region.solve_s.imperfect",
    "source_model.sample_calls", "source_model.sample_s",
    "prob_core.type_calls", "prob_core.type_s",
    "scenario.runner_s", "trace.overhead_frac", "trace.call_cost_ns",
]


def _check_run(workload: str, trace: bool, spec: dict, problems: list[str]) -> None:
    out = run.run_workload(workload, seed=1, seconds=0, trace=trace, profile=run.SMOKE)
    record, result = out["record"], out["result"]
    where = f"{workload} trace={int(trace)}"
    wanted = PER_LAYER if trace else END_TO_END[workload]
    for name in wanted:
        m = record["metrics"].get(name)
        if m is None and name not in record.get("absent", {}):
            problems.append(f"{where}: {name} neither emitted nor marked absent")
        elif m is not None and not (m["unit"] and isinstance(m["value"], (int, float))
                                    and m["samples"] >= 0):
            problems.append(f"{where}: {name} lacks a unit, value or sample count")
    declared = spec["per_layer" if trace else "end_to_end"]
    for d in declared:
        got = result["metrics"].get(d["name"])
        if got is None and d["name"] not in record.get("absent", {}):
            problems.append(f"{where}: BENCHMARK.json metric {d['name']} missing from result")
        elif got is not None and got["unit"] != d["unit"]:
            problems.append(f"{where}: {d['name']} unit {got['unit']} != {d['unit']}")
    extra = set(result["metrics"]) - {d["name"] for d in declared}
    if extra:
        problems.append(f"{where}: result has metrics BENCHMARK.json does not list: {extra}")
    if not trace and not all(result["metrics"][d["name"]]["value"] > 0 for d in declared):
        problems.append(f"{where}: an end-to-end metric reads 0")
    print(f"smoke: {where}: {len(record['metrics'])} metrics, "
          f"{len(record.get('absent', {}))} absent")


def _check_absent(problems: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    import tracer
    t = tracer.Tracer()
    t.install([("byzsw.variable_rate", "_no_such_phase_search", "variable_rate.round", "span")])
    if t.missing != ["byzsw.variable_rate._no_such_phase_search"]:
        problems.append(f"a missing wrap target was not recorded: {t.missing}")
    child = {"trace": t.report(), "call_cost_ns": 1.0, "factor": 1.0}
    layers = run.layer_metrics([child], [1.0], 0.0, {})
    if "variable_rate.phase_s" not in layers["absent"]:
        problems.append("a metric whose target is missing was not marked absent")


def _check_gates(problems: list[str]) -> None:
    law = np.random.default_rng(0).dirichlet(np.ones(8)).reshape(2, 2, 2)
    right = ref.closed_form_r_star(law, 1)
    cases = {
        "closed form": ref.gate_region_instance("m3t1", law, 1, right + 1e-3),
        "imperfect toy": ref.gate_toy(ref.TOY_VALUE + 0.1),
        "vr_attack": ref.gate_vr_attack(errors=20, indistinguishable=20, trials=20,
                                        mean_rate=8.4, budget=10.5),
        "fr_converse": ref.gate_fr_converse(errors=0, attacks_found=0, trials=50),
    }
    for name, fired in cases.items():
        if not fired:
            problems.append(f"the {name} gate did not fire on a known-wrong value")
    if ref.gate_region_instance("m3t1", law, 1, right):
        problems.append("the closed-form gate fired on the right value")
    # a whole run whose output disagrees with the reference must not print a result
    saved = ref.TOY_VALUE
    ref.TOY_VALUE = saved + 0.1
    try:
        run.run_workload("region", seed=1, seconds=0, trace=False, profile=run.SMOKE)
        problems.append("a region run against a wrong toy value printed a result")
    except run.BenchError as exc:
        if "gate" not in str(exc):
            problems.append(f"the wrong toy value failed the run for another reason: {exc}")
    finally:
        ref.TOY_VALUE = saved


def main() -> int:
    spec = run.spec()
    problems: list[str] = []
    for workload in ("vr_attack", "fr_converse", "region"):
        for trace in (False, True):
            _check_run(workload, trace, spec, problems)
    _check_absent(problems)
    _check_gates(problems)
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0
