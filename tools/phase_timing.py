"""In-process timing of the variable-rate phase search and the V prune, per
sensor-pass, and of the round draws, per trial.

    PYTHONPATH=src python3 tools/phase_timing.py [--trials 12] [--sizes 12,16,20] [--rounds 16]

A session plays its rounds in passes; in each pass every sensor of U(V)
runs its phases for all of the pass's rounds in one ``_decode_phases``
call, a *sensor-pass*. Prints one JSON object with three parts.

``attack``: ``attack-demo --preset three_sensor`` run in this process (one
warm-up call of 3 trials, then ``--trials`` trials at seed 7), with
``variable_rate._decode_phases`` and ``update_V`` wrapped by timers. It
reports the sensor-passes, the phases per sensor-pass, the median and mean
time per sensor-pass and per phase, the kernel calls per sensor-pass the
decoder makes (calls into the two binning kernels, ``binning.hash_rows``
and ``space_bins``), and the median and mean time per ``update_V`` call.

``draw``: from the same trials, the median and mean time per trial spent
drawing the rounds (``variable_rate._draw_rounds`` without the senders:
blocks, side information and honest subcodebooks, one call per session),
the median and mean time per trial of the senders (``send_rounds``, the
traitor protocol and every sensor's chains, one call per session, made
inside ``_draw_rounds``), the median time per trial (``run_session``), and
the calls per trial of the keyed counter stream
(``source_model.keyed_draws``) that every random draw of every byzsw
module goes through.

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
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import byzsw.binning as binning
import byzsw.cli as cli
import byzsw.scenario as scenario
import byzsw.source_model as source_model
import byzsw.variable_rate as vr

KERNELS = ("hash_rows", "space_bins")


def attack_layers(trials: int) -> tuple[dict, dict]:
    """The ``attack`` and ``draw`` parts, from one run of the trials."""
    counts = {"calls": 0, "draws": 0}
    paused = [True]
    kernels = {name: getattr(binning, name) for name in KERNELS}
    for name, inner in kernels.items():
        def counted(*args, _inner=inner, **kw):
            if not paused[0]:
                counts["calls"] += 1
            return _inner(*args, **kw)
        setattr(binning, name, counted)
    pass_s, phases, update_s, draw_s, send_s, session_s = [], [], [], [], [], []
    decode, update, send = vr._decode_phases, vr.update_V, vr.send_rounds
    draw, session = vr._draw_rounds, scenario.run_session
    keyed_draws = source_model.keyed_draws
    draw_owners = [mod for name, mod in sys.modules.items() if name.startswith("byzsw")
                   and getattr(mod, "keyed_draws", None) is keyed_draws]

    def counted_draws(*args):
        counts["draws"] += 1
        return keyed_draws(*args)

    def timed_pass(cb, cs, cells, chains):
        paused[0] = False
        start = time.perf_counter()
        try:
            return decode(cb, cs, cells, chains)
        finally:
            pass_s.append(time.perf_counter() - start)
            phases.append(len(cs))
            paused[0] = True

    def timer(inner, times):
        def timed(*args):
            start = time.perf_counter()
            try:
                return inner(*args)
            finally:
                times.append(time.perf_counter() - start)
        return timed

    vr._decode_phases, vr.update_V = timed_pass, timer(update, update_s)
    vr.send_rounds = timer(send, send_s)
    vr._draw_rounds, scenario.run_session = timer(draw, draw_s), timer(session, session_s)
    for mod in draw_owners:
        mod.keyed_draws = counted_draws
    try:
        with tempfile.TemporaryDirectory() as out:
            argv = ["attack-demo", "--preset", "three_sensor", "--seed", "7",
                    "--workers", "1", "--out", out, "--trials"]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv + ["3"])
                for times in (pass_s, phases, update_s, draw_s, send_s, session_s):
                    times.clear()
                counts["calls"] = counts["draws"] = 0
                cli.main(argv + [str(trials)])
    finally:
        vr._decode_phases, vr.update_V, vr.send_rounds = decode, update, send
        vr._draw_rounds, scenario.run_session = draw, session
        for mod in draw_owners:
            mod.keyed_draws = keyed_draws
        for name, inner in kernels.items():
            setattr(binning, name, inner)
    draws_only = [total - senders for total, senders in zip(draw_s, send_s)]
    draw_row = {"trials": len(session_s),
                "draw_us_median": 1e6 * statistics.median(draws_only),
                "draw_us_mean": 1e6 * statistics.fmean(draws_only),
                "send_us_median": 1e6 * statistics.median(send_s),
                "send_us_mean": 1e6 * statistics.fmean(send_s),
                "trial_us_median": 1e6 * statistics.median(session_s),
                "draw_calls_per_trial": counts["draws"] / len(session_s)}
    return {"trials": trials, "sensor_passes": len(pass_s),
            "phases_per_pass": statistics.fmean(phases),
            "pass_us_median": 1e6 * statistics.median(pass_s),
            "pass_us_mean": 1e6 * statistics.fmean(pass_s),
            "phase_us_mean": 1e6 * sum(pass_s) / sum(phases),
            "kernel_calls_per_pass": counts["calls"] / len(pass_s),
            "update_v_calls": len(update_s),
            "update_v_us_median": 1e6 * statistics.median(update_s),
            "update_v_us_mean": 1e6 * statistics.fmean(update_s)}, draw_row


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
        vr._decode_phases(cb, cs, cells, chains)
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
    attack, draw = attack_layers(args.trials)
    out = {"attack": attack, "draw": draw, "sizes": {}}
    for n in (int(v) for v in args.sizes.split(",")):
        reps = max(5, 2 ** (22 - n) // (16 * args.rounds))
        out["sizes"][f"n{n}"] = {"rounds": args.rounds, "reps": reps,
                                 "no_prior": pass_at(n, False, args.rounds, reps),
                                 "one_prior": pass_at(n, True, args.rounds, reps)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
