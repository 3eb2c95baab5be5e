"""byzsw benchmark: end-to-end and per-layer metrics through the documented CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout; the program is taken from
``src/`` next to this directory. Workloads (README.md says why each exists):

  vr_attack    byzsw attack-demo --preset three_sensor, chunks of 3 trials
  fr_converse  byzsw attack-demo --preset fixed_rate_demo, chunks of 40 trials
  region       byzsw region on seeded threshold laws, one child per instance,
               plus the imperfect-information toy through r_star_general

Every CLI call runs in a fresh child process (child.py) with --workers 1 and
BLAS pinned to one thread, closed loop, one after another, until the next
chunk would overrun --seconds (an untraced protocol run always makes three
chunks, so its rates repeat exactly for a seed). The seed picks the CLI --seed of each chunk
and the region laws; the program sees only those inputs. --trace 0 prints
the end-to-end metrics of BENCHMARK.json; --trace 1 wraps the layers from
outside (tracer.py) and prints the per-layer metrics. Every run checks the
outputs (reference.py) and exits 1 without a result when a gate fails. The
last stdout line is the JSON result; the line before it, prefixed RECORD,
holds every metric with its sample count and the machine.

Times are reported in reference seconds. While a run lasts, a thread of
this process times a fixed probe every PROBE_PAUSE_S (SpeedMonitor), beside
the child, and each child's measured times are scaled by PROBE_NOMINAL_S
over the median probe time during that child. On a shared machine whose
speed drifts by tens of percent from minute to minute, on both cores at
once, this cancels the drift, which raw seconds would carry into every
comparison. The probe and the child slow each other (by about 2x on the
probe's side, alike on all three workloads); README.md discusses the
limits. RECORD keeps the probe statistics and the raw seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# one BLAS thread here (for the speed probe) and in every child, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DEADLINE_S = 170.0          # the whole run, set-up included, must end within 180 s

# The probe's time beside a running child on a calm 2-core Intel Xeon
# (Python 3.11, numpy 2.4): reference seconds are about wall seconds there.
PROBE_NOMINAL_S = 0.03
PROBE_PAUSE_S = 0.5          # under 10% of one core

REGION_FAMILIES = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]
# Instances under 0.5 s each at the seed commit: the traced region run times
# them untraced as well, to measure the tracer's overhead.
REGION_QUICK = [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]


@dataclass(frozen=True)
class Profile:
    vr_chunk: int            # trials per attack-demo call
    fr_chunk: int
    exact_chunks: int        # calls every untraced run makes, whatever the time
    families: tuple          # region threshold families
    toy_starts: int          # r_star_general multi-starts for the toy


FULL = Profile(vr_chunk=3, fr_chunk=40, exact_chunks=3, families=tuple(REGION_FAMILIES),
               toy_starts=16)
SMOKE = Profile(vr_chunk=1, fr_chunk=3, exact_chunks=1, families=((3, 1), (3, 2), (4, 1)),
                toy_starts=1)


class BenchError(RuntimeError):
    """The run could not produce trustworthy numbers."""


class Absent(KeyError):
    """A per-layer metric whose wrapped target is missing from the program."""


def derive(seed: int, *labels) -> int:
    text = ":".join(str(x) for x in (seed,) + labels).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=7).digest(), "big")


def inst_name(m: int, t: int) -> str:
    return f"m{m}t{t}"


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above
    it; with fewer than 20 samples that percentile lies below the median, so
    the median is reported instead, at percentile 50."""
    v = sorted(values)
    n = len(v)
    if n >= 20:
        return v[n - 11], 100.0 * (n - 10) / n
    return statistics.median(v), 50.0


def metric(value, unit, samples, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter loop, keyed hashing and
    small numpy kernels, the kinds of work byzsw does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(12_000):
        digest = hashlib.blake2b(i.to_bytes(8, "big"), digest_size=16).digest()
        acc ^= int.from_bytes(digest, "big") % 1009
    m = np.linspace(0.5, 1.5, 256).reshape(16, 16)
    for _ in range(300):
        m = np.tanh(m @ m.T / 16.0)
    x = np.arange(4096)
    for i in range(200):
        x = (x * 31 + i) % 4099
    return time.perf_counter() - t0


class SpeedMonitor:
    """Runs speed_probe in a background thread, PROBE_PAUSE_S apart, while the
    main thread waits for children; ``factor`` converts seconds measured in
    an interval into reference seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (probe midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            d = speed_probe()
            self.samples.append((t0 + d / 2, d))
            self._stop.wait(PROBE_PAUSE_S)

    def __enter__(self) -> "SpeedMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """PROBE_NOMINAL_S over the median probe time in [t0, t1]; an interval
        too short to hold three probes uses the three nearest to it."""
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [d for _t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
        if not inside:
            raise BenchError("the speed monitor took no samples")
        return PROBE_NOMINAL_S / statistics.median(inside)

    def summary(self) -> dict:
        d = [s[1] for s in self.samples]
        return {"nominal_s": PROBE_NOMINAL_S, "count": len(d), "median_s": statistics.median(d),
                "min_s": min(d), "max_s": max(d)} if d else {}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts child processes in a scratch directory and keeps the clock."""

    def __init__(self, workdir: Path, start: float, monitor: SpeedMonitor):
        self.workdir = workdir
        self.start = start
        self.monitor = monitor
        self.calls = 0
        # bytecode is cached under WORK whatever the caller's environment says,
        # so set-up time never includes compiling the sources
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        self.info: dict | None = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, jobs: list[dict], trace: bool) -> tuple[float, dict, float]:
        """Run jobs in one child. Returns the child's wall seconds, its result,
        and the factor that turns its seconds into reference seconds."""
        self.calls += 1
        tag = self.workdir / f"child{self.calls}"
        jobs_path, result_path = tag.with_suffix(".jobs.json"), tag.with_suffix(".result.json")
        jobs_path.write_text(json.dumps({"trace": trace, "jobs": jobs}))
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before a child could start")
        with open(tag.with_suffix(".log"), "w") as log:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(jobs_path), str(result_path)],
                    env=self.env, cwd=self.workdir, stdout=log, stderr=log,
                    timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(
                    f"child {self.calls} ran past the {DEADLINE_S:.0f} s deadline") from None
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            log_tail = tag.with_suffix(".log").read_text()[-2000:]
            raise BenchError(f"child {self.calls} exited {proc.returncode}:\n{log_tail}")
        result = json.loads(result_path.read_text())
        if not Path(result["byzsw_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"byzsw imported from {result['byzsw_file']}, not {SRC}")
        if self.info is None:
            self.info = {"python": result["python"], "numpy": result["numpy"]}
        return wall, result, self.monitor.factor(t0, t0 + wall)


# ---------------------------------------------------------------------------
# protocol workloads: attack-demo in chunks
# ---------------------------------------------------------------------------

def _attack_chunk(runner: Runner, preset: str, trials: int, seed: int, c: int,
                  trace: bool) -> dict:
    out = runner.workdir / f"{'traced' if trace else 'plain'}{c}"
    argv = ["attack-demo", "--preset", preset, "--trials", str(trials),
            "--seed", str(derive(seed, preset, c)), "--workers", "1", "--out", str(out)]
    wall, res, factor = runner.child([{"argv": argv, "stdout": str(out) + ".txt"}], trace)
    job = res["jobs"][0]
    if job["exit"] != 0:
        raise BenchError(f"attack-demo exited {job['exit']}: {job['error']}")
    rows = [json.loads(line) for line in (out / "attack_trials.jsonl").read_text().splitlines()]
    if [r["trial"] for r in rows] != list(range(trials)):
        raise BenchError(f"attack-demo wrote trials {[r['trial'] for r in rows]}, "
                         f"expected 0..{trials - 1}")
    scenario = json.loads((out / "scenario.json").read_text())
    return {"rows": rows, "times": [r["wall_time_s"] * factor for r in rows],
            "setup_s": (wall - sum(r["wall_time_s"] for r in rows)) * factor,
            "factor": factor, "scenario": scenario, "trace": res.get("trace"),
            "call_cost_ns": res.get("call_cost_ns")}


def _chunks(runner: Runner, preset: str, size: int, seed: int, seconds: float,
            trace: bool, at_least: int) -> list[dict]:
    """Closed loop of chunks: the first ``at_least`` always, each next one
    only if it should end within ``seconds`` of the run's start."""
    chunks = []
    last = 0.0
    while len(chunks) < at_least or runner.elapsed() + last <= seconds:
        t0 = time.perf_counter()
        chunks.append(_attack_chunk(runner, preset, size, seed, len(chunks), trace))
        last = time.perf_counter() - t0
    return chunks


def run_protocol(workload: str, runner: Runner, seed: int, seconds: float,
                 trace: bool, profile: Profile) -> dict:
    preset, size = {"vr_attack": ("three_sensor", profile.vr_chunk),
                    "fr_converse": ("fixed_rate_demo", profile.fr_chunk)}[workload]
    plain, traced = [], []
    if trace:
        # chunk 0 untraced, then the same chunk traced: the tracer's overhead
        plain = [_attack_chunk(runner, preset, size, seed, 0, False)]
        traced = _chunks(runner, preset, size, seed, seconds, True, 1)
    else:
        plain = _chunks(runner, preset, size, seed, seconds, False, profile.exact_chunks)
    rows = [r for ch in plain + traced for r in ch["rows"]]
    ok = [r for r in rows if not r.get("error")]
    scenario = (plain or traced)[0]["scenario"]
    errors = sum(int(r["honest_error"]) for r in ok)
    # The rates in RECORD cover the chunks every run makes, so they repeat
    # exactly for a seed; the gates use every trial.
    exact = [r for ch in plain[:profile.exact_chunks] for r in ch["rows"]]
    exact_ok = [r for r in exact if not r.get("error")]

    def rate(field):
        return metric(statistics.fmean(int(r[field]) for r in exact_ok) if exact_ok else 0.0,
                      "frac", len(exact_ok))

    gates, record = [], {}
    if workload == "vr_attack":
        vr = scenario["variable_rate"]
        coll = scenario["honest_collection"]
        t = coll.get("threshold_t") or ref.threshold_of(scenario["m"], coll["sets"])
        if t is None or vr["nu"] is None:
            raise BenchError("three_sensor is no longer a threshold preset with explicit nu")
        budget = (ref.closed_form_r_star(scenario["pmf"], t)
                  + scenario["m"] * (2 * vr["eps"] + vr["nu"]))
        mean_rate = statistics.fmean(float(r["sum_rate"]) for r in ok) if ok else float("nan")
        indist = sum(int(r["indistinguishable"]) for r in ok)
        gates = ref.gate_vr_attack(errors, indist, len(ok), mean_rate, budget)
        if exact_ok:
            record["sum_rate_bits"] = metric(
                statistics.fmean(float(r["sum_rate"]) for r in exact_ok), "bit/symbol",
                len(exact_ok))
        record["honest_error_rate"] = rate("honest_error")
        record["indistinguishable_rate"] = rate("indistinguishable")
    else:
        fr = scenario["fixed_rate"]
        found = sum(int(r["attack_found"]) for r in ok)
        gates = ref.gate_fr_converse(errors, found, len(ok))
        record["sum_rate_bits"] = metric(ref.fixed_rate_sum_rate(fr["rates"], fr["n"]),
                                         "bit/symbol", 1)
        record["converse_error_rate"] = rate("honest_error")
        record["attack_found_rate"] = rate("attack_found")

    out = {"attempted": len(rows), "failed": len(rows) - len(ok), "gates": gates}
    if trace:
        overhead = sum(traced[0]["times"]) / sum(plain[0]["times"]) - 1.0
        out["layers"] = layer_metrics(traced, [t for ch in traced for t in ch["times"]],
                                      overhead, {})
        return out
    times = [t for ch in plain for t in ch["times"]]
    value, pct = tail(times)
    wall = [r["wall_time_s"] for ch in plain for r in ch["rows"]]
    record.update({
        "wall_trial_s_p50": metric(statistics.median(wall), "s", len(wall)),
        "setup_s": metric(statistics.median(ch["setup_s"] for ch in plain), "s", len(plain)),
        "trial_s_p50": metric(statistics.median(times), "s", len(times)),
        "trial_s_tail": metric(value, "s", len(times), percentile=pct),
        "trials_per_s": metric(len(times) / sum(times), "1/s", len(times)),
        "failed_frac": metric((len(exact) - len(exact_ok)) / len(exact), "frac", len(exact)),
    })
    out["record"] = record
    return out


# ---------------------------------------------------------------------------
# region workload
# ---------------------------------------------------------------------------

# Scenario files carry only the required fields, so that they stay valid
# while optional fields come and go.
def _threshold_doc(mass: np.ndarray, m: int, t: int, seed: int) -> dict:
    return {"schema_version": 1, "m": m, "alphabet_sizes": [2] * m,
            "pmf": mass.tolist(), "honest_collection": {"threshold_t": t},
            "info_model": "perfect", "true_honest": list(range(m - t)),
            "true_channel": "perfect", "seed": seed}


def toy_doc(seed: int) -> dict:
    """Two sensors whose side information W is constant (it carries
    nothing), each set of the collection {0}, {1} known to the traitors."""
    rows = [[[1.0], [1.0]], [[1.0], [1.0]]]
    return {"schema_version": 1, "m": 2, "alphabet_sizes": [2, 2], "pmf": ref.TOY_PMF,
            "honest_collection": {"sets": [[0], [1]]},
            "info_model": {"channels": {"0": [rows], "1": [rows]}},
            "true_honest": [0], "true_channel": rows, "seed": seed}


def _region_jobs(runner: Runner, seed: int, families, tag: str) -> list[tuple]:
    """(name, job, law, t, generation seconds) per instance; the laws are
    seeded Dirichlet(1) draws over the 2^m binary cells."""
    jobs = []
    for m, t in families:
        t0 = time.perf_counter()
        name = inst_name(m, t)
        mass = np.random.default_rng(derive(seed, "region", m, t)).dirichlet(np.ones(2 ** m))
        mass = mass.reshape((2,) * m)
        path = runner.workdir / f"{tag}-{name}.json"
        path.write_text(json.dumps(_threshold_doc(mass, m, t, derive(seed, name)), indent=2))
        out = runner.workdir / f"{tag}-{name}"
        job = {"argv": ["region", "--scenario", str(path), "--workers", "1", "--out", str(out)],
               "stdout": str(out) + ".txt"}
        jobs.append((name, job, mass, t, time.perf_counter() - t0))
    return jobs


def _region_pass(runner: Runner, seed: int, profile: Profile, trace: bool, tag: str) -> dict:
    solve, setups, gates, r_stars, children = {}, [], [], [], []
    failed, wall_s = 0, 0.0
    jobs = _region_jobs(runner, seed, profile.families, tag)
    t0 = time.perf_counter()
    toy = {"toy": toy_doc(derive(seed, "toy")), "starts": profile.toy_starts}
    toy_gen = time.perf_counter() - t0
    for name, job, mass, t, gen_s in jobs + [("imperfect", toy, None, None, toy_gen)]:
        wall, res, factor = runner.child([job], trace)
        row = res["jobs"][0]
        solve[name] = row["main_s"] * factor
        wall_s += row["main_s"]
        setups.append((wall - row["main_s"] + gen_s) * factor)
        children.append({"trace": res.get("trace"), "call_cost_ns": res.get("call_cost_ns"),
                         "factor": factor})
        if row["exit"] != 0:
            # a refused instance is a failed operation, not a wrong answer
            failed += 1
            print(f"warning: {name} failed: {row['error']}", file=sys.stderr)
        elif mass is None:
            gates += ref.gate_toy(row["value"])
        else:
            r_star = json.loads((Path(job["argv"][-1]) / "region.json").read_text())["r_star"]
            r_stars.append(r_star)
            gates += ref.gate_region_instance(name, mass, t, r_star)
    return {"solve": solve, "setups": setups, "gates": gates, "r_stars": r_stars,
            "failed": failed, "attempted": len(solve), "children": children,
            "wall_s": wall_s}


def run_region(runner: Runner, seed: int, seconds: float, trace: bool,
               profile: Profile) -> dict:
    if trace:
        quick = [f for f in profile.families if f in REGION_QUICK]
        base = 0.0
        for name, job, _mass, _t, _gen in _region_jobs(runner, seed, quick, "plain"):
            _wall, res, factor = runner.child([job], False)
            base += res["jobs"][0]["main_s"] * factor
        p = _region_pass(runner, seed, profile, True, "traced")
        again = sum(p["solve"][inst_name(*f)] for f in quick)
        out = {"attempted": p["attempted"], "failed": p["failed"], "gates": p["gates"]}
        per_instance = {f"rate_region.solve_s.{k}": metric(v, "s", 1)
                        for k, v in p["solve"].items()}
        out["layers"] = layer_metrics(p["children"], [sum(p["solve"].values())],
                                      again / base - 1.0, per_instance)
        return out
    passes = []
    last = 0.0
    while not passes or runner.elapsed() + last <= seconds:
        t0 = time.perf_counter()
        passes.append(_region_pass(runner, seed, profile, False, f"pass{len(passes)}"))
        last = time.perf_counter() - t0
    times = [sum(p["solve"].values()) for p in passes]
    setups = [s for p in passes for s in p["setups"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    value, pct = tail(times)
    r_stars = passes[0]["r_stars"]
    record = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "solve_s": metric(statistics.median(times), "s", len(times)),
        "trial_s_p50": metric(statistics.median(times), "s", len(times)),
        "wall_trial_s_p50": metric(statistics.median(p["wall_s"] for p in passes), "s",
                                   len(passes)),
        "trial_s_tail": metric(value, "s", len(times), percentile=pct),
        "trials_per_s": metric(len(times) / sum(times), "1/s", len(times)),
        "sum_rate_bits": metric(statistics.fmean(r_stars) if r_stars else float("nan"),
                                "bit/symbol", len(r_stars)),
        "failed_frac": metric(failed / attempted, "frac", attempted),
    }
    return {"attempted": attempted, "failed": failed,
            "gates": [g for p in passes for g in p["gates"]], "record": record}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced children
# ---------------------------------------------------------------------------

class Spans:
    """Span totals summed over traced children, in reference seconds; reading
    a layer or counter that no wrapped target fed raises Absent."""

    def __init__(self, children: list[dict]):
        self.layers: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.root_s = 0.0
        self.enum_per_child = []
        reports = [ch["trace"] for ch in children]
        for rep, ch in zip(reports, children):
            f = ch["factor"]
            for k, v in rep["layers"].items():
                acc = self.layers.setdefault(k, [0, 0.0])
                acc[0] += v["calls"]
                acc[1] += v["self_s"] * f
            for k, v in rep["counters"].items():
                self.counters[k] = self.counters.get(k, 0) + v
            self.root_s += rep["root_s"] * f
            if "binning.enum" in rep["layers"]:
                self.enum_per_child.append(rep["layers"]["binning.enum"]["self_s"] * f)
        self.missing = sorted({t for rep in reports for t in rep["missing"]})
        self.hook_errors = sorted({e for rep in reports for e in rep["hook_errors"]})

    def calls(self, layer: str) -> int:
        if layer not in self.layers:
            raise Absent(layer)
        return self.layers[layer][0]

    def self_s(self, layer: str) -> float:
        if layer not in self.layers:
            raise Absent(layer)
        return self.layers[layer][1]

    def counter(self, name: str) -> int:
        if name not in self.counters:
            raise Absent(name)
        return self.counters[name]

    def enum_s(self) -> float:
        """Median over children of the sequence-table fill time; the tables
        are cached, so each process pays the fill once."""
        if "binning.enum" not in self.layers:
            raise Absent("binning.enum")
        return statistics.median(self.enum_per_child)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, value from (spans, units)); values are per trial on the
# protocol workloads and per pass over the instance list on region, and 0
# where the workload leaves the layer idle.
LAYER_METRICS = {
    "binning.hash_calls": ("count", lambda s, u: s.calls("binning.hash") / u),
    "binning.hash_s": ("s", lambda s, u: s.self_s("binning.hash") / u),
    "binning.enum_s": ("s", lambda s, u: s.enum_s()),
    "variable_rate.phases": ("count", lambda s, u: s.counter("variable_rate.phases") / u),
    "variable_rate.transactions": (
        "count", lambda s, u: s.counter("variable_rate.transactions") / u),
    "variable_rate.hashes_per_phase": (
        "count/phase",
        lambda s, u: _ratio(s.calls("binning.hash"), s.counter("variable_rate.phases"))),
    "variable_rate.phase_s": ("s", lambda s, u: s.self_s("variable_rate.round") / u),
    "variable_rate.update_v_calls": ("count", lambda s, u: s.calls("variable_rate.update_v") / u),
    "variable_rate.update_v_s": ("s", lambda s, u: s.self_s("variable_rate.update_v") / u),
    "variable_rate.forced_frac": (
        "frac", lambda s, u: _ratio(s.counter("variable_rate.forced"),
                                    s.counter("variable_rate.phases"))),
    "fixed_rate.decode_s": ("s", lambda s, u: s.self_s("fixed_rate.decode") / u),
    "fixed_rate.tuples_tested": ("count", lambda s, u: s.calls("fixed_rate.tuple_test") / u),
    "fixed_rate.encode_s": ("s", lambda s, u: s.self_s("fixed_rate.encode") / u),
    "adversary.attack_s": ("s", lambda s, u: s.self_s("adversary.attack") / u),
    "adversary.attack_found_frac": (
        "frac", lambda s, u: _ratio(s.counter("adversary.attacks_found"),
                                    s.calls("adversary.attack"))),
    "adversary.strategy_s": ("s", lambda s, u: s.self_s("adversary.strategy") / u),
    "rate_region.enum_s": ("s", lambda s, u: s.self_s("rate_region.perfect") / u),
    "rate_region.ipf_calls": ("count", lambda s, u: s.calls("rate_region.ipf") / u),
    "rate_region.ipf_s": ("s", lambda s, u: s.self_s("rate_region.ipf") / u),
    "rate_region.ipf_sweeps": ("count", lambda s, u: s.counter("rate_region.ipf_sweeps") / u),
    "rate_region.pg_s": ("s", lambda s, u: s.self_s("rate_region.general") / u),
    "source_model.sample_calls": ("count", lambda s, u: s.calls("source_model.sample") / u),
    "source_model.sample_s": ("s", lambda s, u: s.self_s("source_model.sample") / u),
    "prob_core.type_calls": ("count", lambda s, u: s.calls("prob_core.type") / u),
    "prob_core.type_s": ("s", lambda s, u: s.self_s("prob_core.type") / u),
}
REGION_INSTANCE_METRICS = ([f"rate_region.solve_s.{inst_name(m, t)}" for m, t in REGION_FAMILIES]
                           + ["rate_region.solve_s.imperfect"])


def layer_metrics(children: list[dict], unit_times: list[float], overhead: float,
                  per_instance: dict) -> dict:
    """Per-layer metrics from the traced children ({"trace", "call_cost_ns",
    "factor"} each), per unit of work (trial or pass, in reference seconds),
    with the names whose wrapped targets are missing listed under "absent"."""
    spans = Spans(children)
    costs = [ch["call_cost_ns"] * ch["factor"] for ch in children]
    units = len(unit_times)
    out, absent = {}, {}
    for name, (unit, fn) in LAYER_METRICS.items():
        try:
            out[name] = metric(fn(spans, units), unit, units)
        except Absent as exc:
            absent[name] = f"no wrapped target feeds {exc.args[0]}"
    for name in REGION_INSTANCE_METRICS:
        out[name] = per_instance.get(name, metric(0.0, "s", 0))
    out["scenario.runner_s"] = metric((sum(unit_times) - spans.root_s) / units, "s", units)
    out["trace.overhead_frac"] = metric(overhead, "frac", 1)
    out["trace.call_cost_ns"] = metric(statistics.median(costs), "ns", len(costs))
    return {"metrics": out, "absent": absent, "missing_targets": spans.missing,
            "hook_errors": spans.hook_errors}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "byzsw").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(runner: Runner, seed: int) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), **(runner.info or {}),
            "blas_threads": 1, "commit": _commit(), "src_sha256": _src_digest(),
            "seed": seed, "speed_probe": runner.monitor.summary()}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 profile: Profile = FULL) -> dict:
    """One benchmark run. Returns {"result": final line, "record": details};
    raises BenchError when the run fails or a gate fires."""
    if not (SRC / "byzsw" / "__init__.py").is_file():
        raise BenchError(f"no byzsw sources under {SRC}")
    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        with SpeedMonitor() as monitor:
            runner = Runner(workdir, start, monitor)
            # untimed warm-up: compiles the sources once, as an installed
            # package would be, while the monitor takes its first samples
            runner.child([], False)
            runner.start = time.perf_counter()
            if workload == "region":
                res = run_region(runner, seed, seconds, trace, profile)
            else:
                res = run_protocol(workload, runner, seed, seconds, trace, profile)
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res["gates"]:
        raise BenchError("correctness gate failed:\n  " + "\n  ".join(res["gates"]))
    names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    if trace:
        record = res["layers"]
        details = record["metrics"]
    else:
        details = res["record"]
        details["peak_rss_mb"] = metric(peak_mb, "MB", runner.calls - 1)
        record = {"metrics": details}
    record.update(workload=workload, trace=int(trace), seconds=seconds,
                  elapsed_s=runner.elapsed(), machine=machine(runner, seed))
    result = {"correct": True, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {n: {"value": details[n]["value"], "unit": details[n]["unit"]}
                          for n in names if n in details}}
    return {"result": result, "record": record}


def emit(out: dict) -> None:
    for name, m in out["record"]["metrics"].items():
        extra = f", p{m['percentile']:.1f}" if "percentile" in m else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']} (n={m['samples']}{extra})")
    for name, why in out["record"].get("absent", {}).items():
        print(f"{name:34s} absent: {why}")
    print("RECORD " + json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("vr_attack", "fr_converse", "region"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself on tiny inputs")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            import smoke
            return smoke.main()
        if args.workload is None:
            parser.error("--workload is required")
        emit(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
