"""In-process timing of the variable-rate phase search and the V prune, per
sensor-pass.

    PYTHONPATH=src python3 tools/phase_timing.py [--trials 12] [--sizes 12,16,20] [--rounds 16]

A session plays its rounds in passes; in each pass every sensor of U(V)
runs its phases for all of the pass's rounds in one ``_decode_phases``
call, a *sensor-pass*. Prints one JSON object with two parts.

``attack``: ``attack-demo --preset three_sensor`` run in this process (one
warm-up call of 3 trials, then ``--trials`` trials at seed 7), with
``variable_rate._decode_phases`` and ``update_V`` wrapped by timers. It
reports the sensor-passes, the phases per sensor-pass, the median and mean
time per sensor-pass and per phase, the kernel calls per sensor-pass the
decoder makes (calls into ``binning.hash_bins``, ``hash_rows`` and
``space_bins``; calls made while a traitor is polled are not counted),
and the median and mean time per ``update_V`` call.

``sizes``: the median time of one sensor-pass of ``--rounds`` phases at
binary block length n, eps 0.35, nu 1.0, C 1024, for honest senders of
sequences drawn from a doubly symmetric binary source (crossover 0.11),
once with no prior and once with the other sensor's sequences as the one
prior (nu 1.925, the three_sensor value, would need more than 2^32 block-0
bins from n = 15 on), with the peak of numpy's allocations during one
pass (``tracemalloc``). Each case keeps one codebook, as a session does,
and draws fresh subcodebooks and blocks per pass. The senders' chains are
encoded before the clock starts; the sequence tables and caches are
warmed by one untimed pass per case.

Run it against two source trees (``PYTHONPATH=<tree>/src``) to compare them.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

import byzsw.binning as binning
import byzsw.cli as cli
import byzsw.variable_rate as vr

KERNELS = ("hash_bins", "hash_rows", "space_bins")


def attack_layers(trials: int) -> dict:
    counts = {"calls": 0}
    paused = [True]
    kernels = {name: getattr(binning, name) for name in KERNELS}
    for name, inner in kernels.items():
        def counted(*args, _inner=inner, **kw):
            if not paused[0]:
                counts["calls"] += 1
            return _inner(*args, **kw)
        setattr(binning, name, counted)
    pass_s, phases, update_s = [], [], []
    decode, update = vr._decode_phases, vr.update_V

    def timed_pass(cb, cs, cells, eps, message):
        def polled(j, ks):
            paused[0] = True
            try:
                return message(j, ks)
            finally:
                paused[0] = False
        paused[0] = False
        start = time.perf_counter()
        try:
            return decode(cb, cs, cells, eps, polled)
        finally:
            pass_s.append(time.perf_counter() - start)
            phases.append(len(cs))
            paused[0] = True

    def timed_update(*args):
        start = time.perf_counter()
        try:
            return update(*args)
        finally:
            update_s.append(time.perf_counter() - start)

    vr._decode_phases, vr.update_V = timed_pass, timed_update
    try:
        with tempfile.TemporaryDirectory() as out:
            argv = ["attack-demo", "--preset", "three_sensor", "--seed", "7",
                    "--workers", "1", "--out", out, "--trials"]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv + ["3"])
                pass_s.clear(), phases.clear(), update_s.clear()
                counts["calls"] = 0
                cli.main(argv + [str(trials)])
    finally:
        vr._decode_phases, vr.update_V = decode, update
        for name, inner in kernels.items():
            setattr(binning, name, inner)
    return {"trials": trials, "sensor_passes": len(pass_s),
            "phases_per_pass": statistics.fmean(phases),
            "pass_us_median": 1e6 * statistics.median(pass_s),
            "pass_us_mean": 1e6 * statistics.fmean(pass_s),
            "phase_us_mean": 1e6 * sum(pass_s) / sum(phases),
            "kernel_calls_per_pass": counts["calls"] / len(pass_s),
            "update_v_calls": len(update_s),
            "update_v_us_median": 1e6 * statistics.median(update_s),
            "update_v_us_mean": 1e6 * statistics.fmean(update_s)}


def pass_at(n: int, with_prior: bool, rounds: int, reps: int) -> dict:
    rng = np.random.default_rng([n, with_prior])
    cb = binning.BinningCodebook(1, n, 2, 0.35, 1.0, 1024, int(rng.integers(1 << 62)))
    times, peak = [], 0.0
    for rep in range(reps + 2):
        x0 = rng.integers(0, 2, (rounds, n))
        x1 = x0 ^ (rng.random((rounds, n)) < 0.11)
        cs = [int(c) for c in rng.integers(cb.C, size=rounds)]
        chains = cb.encode_rows(x1, cs, range(cb.J))
        cells = x0 if with_prior else None
        if rep == 1:    # after the warm-up pass: numpy's peak allocation
            tracemalloc.start()
        start = time.perf_counter()
        vr._decode_phases(cb, cs, cells, 0.35, lambda j, ks: chains[j, ks])
        elapsed = time.perf_counter() - start
        if rep == 1:
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
        elif rep > 1:
            times.append(elapsed)
    return {"pass_us": 1e6 * statistics.median(times), "peak_mb": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--sizes", default="12,16,20")
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    out = {"attack": attack_layers(args.trials), "sizes": {}}
    for n in (int(v) for v in args.sizes.split(",")):
        reps = max(5, 2 ** (22 - n) // (16 * args.rounds))
        out["sizes"][f"n{n}"] = {"rounds": args.rounds, "reps": reps,
                                 "no_prior": pass_at(n, False, args.rounds, reps),
                                 "one_prior": pass_at(n, True, args.rounds, reps)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
