"""In-process timing of the variable-rate phase search and the V prune.

    PYTHONPATH=src python3 tools/phase_timing.py [--trials 12] [--sizes 12,16,20]

Prints one JSON object with two parts.

``attack``: ``attack-demo --preset three_sensor`` run in this process (one
warm-up call of 3 trials, then ``--trials`` trials at seed 7), with
``variable_rate._decode_phase`` and ``update_V`` wrapped by timers. It
reports the phases, the median and mean time per phase, the kernel calls
per phase the decoder makes (calls into ``binning.hash_bins`` and, where it
exists, ``binning.space_bins``; calls made while the sender is polled are
not counted), and the median and mean time per ``update_V`` call.

``sizes``: the median time of one ``_decode_phase`` call at binary block
length n, eps 0.35, nu 1.0, C 1024, for an honest sender of a sequence
drawn from a doubly symmetric binary source (crossover 0.11), once with no
prior and once with the other sensor's sequence as the one prior (nu 1.925,
the three_sensor value, would need more than 2^32 block-0 bins from n = 15
on). Each case keeps one codebook, as a session does, and draws a fresh
subcodebook and block per call. The sender's chain is encoded before the
clock starts; the sequence tables and caches are warmed by one untimed
call per case.

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

import numpy as np

import byzsw.binning as binning
import byzsw.cli as cli
import byzsw.variable_rate as vr


def attack_layers(trials: int) -> dict:
    counts = {"calls": 0}
    paused = [True]
    kernels = {name: getattr(binning, name) for name in ("hash_bins", "space_bins")
               if hasattr(binning, name)}
    for name, inner in kernels.items():
        def counted(*args, _inner=inner, **kw):
            if not paused[0]:
                counts["calls"] += 1
            return _inner(*args, **kw)
        setattr(binning, name, counted)
    phase_s, update_s = [], []
    phase, update = vr._decode_phase, vr.update_V

    def timed_phase(cb, prior, sizes, c, eps, next_message):
        def sender(j):
            paused[0] = True
            try:
                return next_message(j)
            finally:
                paused[0] = False
        paused[0] = False
        start = time.perf_counter()
        try:
            return phase(cb, prior, sizes, c, eps, sender)
        finally:
            phase_s.append(time.perf_counter() - start)
            paused[0] = True

    def timed_update(*args):
        start = time.perf_counter()
        try:
            return update(*args)
        finally:
            update_s.append(time.perf_counter() - start)

    vr._decode_phase, vr.update_V = timed_phase, timed_update
    try:
        with tempfile.TemporaryDirectory() as out:
            argv = ["attack-demo", "--preset", "three_sensor", "--seed", "7",
                    "--workers", "1", "--out", out, "--trials"]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv + ["3"])
                phase_s.clear(), update_s.clear()
                counts["calls"] = 0
                cli.main(argv + [str(trials)])
    finally:
        vr._decode_phase, vr.update_V = phase, update
        for name, inner in kernels.items():
            setattr(binning, name, inner)
    return {"trials": trials, "phases": len(phase_s),
            "phase_us_median": 1e6 * statistics.median(phase_s),
            "phase_us_mean": 1e6 * statistics.fmean(phase_s),
            "kernel_calls_per_phase": counts["calls"] / len(phase_s),
            "update_v_calls": len(update_s),
            "update_v_us_median": 1e6 * statistics.median(update_s),
            "update_v_us_mean": 1e6 * statistics.fmean(update_s)}


def phase_at(n: int, with_prior: bool, reps: int) -> float:
    rng = np.random.default_rng([n, with_prior])
    cb = binning.BinningCodebook(1, n, 2, 0.35, 1.0, 1024, int(rng.integers(1 << 62)))
    times = []
    for rep in range(reps + 1):
        x0 = rng.integers(0, 2, n)
        x1 = x0 ^ (rng.random(n) < 0.11)
        c = int(rng.integers(cb.C))
        chain = cb.encode_chain(x1, c)
        prior = [(0, x0)] if with_prior else []
        start = time.perf_counter()
        vr._decode_phase(cb, prior, [2, 2], c, 0.35, chain.__getitem__)
        if rep:     # the first call fills the caches
            times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--sizes", default="12,16,20")
    args = parser.parse_args(argv)
    out = {"attack": attack_layers(args.trials), "sizes": {}}
    for n in (int(v) for v in args.sizes.split(",")):
        reps = max(5, 2 ** (22 - n) // 16)
        out["sizes"][f"n{n}"] = {"reps": reps,
                                 "no_prior_us": phase_at(n, False, reps),
                                 "one_prior_us": phase_at(n, True, reps)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
