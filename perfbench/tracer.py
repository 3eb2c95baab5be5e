"""Span tracer for the benchmark's traced run.

It wraps byzsw functions and methods by name from outside the program, so
the program itself carries no tracing code. Each wrapped call is a span
charged to a layer; a layer's time is its self time (span duration minus the
spans nested under it), so layer times add up without double counting. A
call nested directly in a span of the same layer (``encode_block`` calling
``encode_block_bytes``) is not counted again. Targets missing from the
program are recorded and their metrics reported absent, never an error.

Only the traced child process imports this module.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path, layer, kind). A "span" target times the call and
# also replaces every byzsw module's alias of a module-level function. A
# "count" target only counts calls, leaving their time in the caller's layer,
# and patches only the named module's binding, so it sees only the calls made
# from that module.
TARGETS = [
    ("byzsw.binning", "BinningCodebook.encode_block", "binning.hash", "span"),
    ("byzsw.binning", "BinningCodebook.encode_block_bytes", "binning.hash", "span"),
    ("byzsw.binning", "fixed_rate_encode", "binning.hash", "span"),
    ("byzsw.binning", "fixed_rate_encode_bytes", "binning.hash", "span"),
    ("byzsw.binning", "all_sequences", "binning.enum", "span"),
    ("byzsw.binning", "all_sequence_bytes", "binning.enum", "span"),
    ("byzsw.variable_rate", "run_session", "variable_rate.session", "span"),
    ("byzsw.variable_rate", "run_round", "variable_rate.round", "span"),
    ("byzsw.variable_rate", "update_V", "variable_rate.update_v", "span"),
    ("byzsw.fixed_rate", "encode_all", "fixed_rate.encode", "span"),
    ("byzsw.fixed_rate", "decode_all", "fixed_rate.decode", "span"),
    ("byzsw.fixed_rate", "eta_ball_contains", "fixed_rate.tuple_test", "count"),
    ("byzsw.adversary", "fixed_rate_ambiguity_attack", "adversary.attack", "span"),
    ("byzsw.adversary", "fabricate_block", "adversary.strategy", "span"),
    ("byzsw.adversary", "TraitorStrategy.begin_round", "adversary.strategy", "span"),
    ("byzsw.adversary", "FakeDistribution.begin_round", "adversary.strategy", "span"),
    ("byzsw.adversary", "TraitorStrategy.respond", "adversary.strategy", "span"),
    ("byzsw.adversary", "BlackHole.respond", "adversary.strategy", "span"),
    ("byzsw.rate_region", "r_star_perfect", "rate_region.perfect", "span"),
    ("byzsw.rate_region", "max_entropy_with_marginals", "rate_region.ipf", "span"),
    ("byzsw.rate_region", "r_star_general", "rate_region.general", "span"),
    ("byzsw.source_model", "sample_block", "source_model.sample", "span"),
    ("byzsw.source_model", "sample_side_info", "source_model.sample", "span"),
    ("byzsw.prob_core", "type_of", "prob_core.type", "span"),
]


def _session_counts(report, counters):
    tx = report.phase_transactions
    counters["variable_rate.phases"] += sum(len(r) for r in tx)
    counters["variable_rate.transactions"] += sum(sum(r.values()) for r in tx)
    counters["variable_rate.forced"] += report.decode_forced


def _ipf_counts(result, counters):
    counters["rate_region.ipf_sweeps"] += result.sweeps


def _attack_counts(outcome, counters):
    counters["adversary.attacks_found"] += int(bool(outcome.found))


# Counters read from return values, keyed by the target that returns them:
# (hook, the counters it adds to).
RETURN_HOOKS = {
    ("byzsw.variable_rate", "run_session"): (
        _session_counts, ("variable_rate.phases", "variable_rate.transactions",
                          "variable_rate.forced")),
    ("byzsw.rate_region", "max_entropy_with_marginals"): (
        _ipf_counts, ("rate_region.ipf_sweeps",)),
    ("byzsw.adversary", "fixed_rate_ambiguity_attack"): (
        _attack_counts, ("adversary.attacks_found",)),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []           # open spans: [layer, child seconds]
        self.layers: dict[str, list] = {}     # layer -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.root_s = 0.0                     # time inside outermost spans
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self.broken: set[str] = set()         # counters whose hook failed

    def span(self, layer, fn, hook=None, keys=()):
        stack = self.stack
        stats = self.layers.setdefault(layer, [0, 0.0])
        counters = self.counters
        clock = perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[1] += dt - frame[1]
                if outer is None:
                    stats[0] += 1
                    tracer.root_s += dt
                else:
                    outer[1] += dt
                    if outer[0] != layer:
                        stats[0] += 1
            if hook is not None:
                try:
                    hook(result, counters)
                except (AttributeError, TypeError) as exc:
                    # the return value changed shape: its counters are absent
                    tracer.hook_errors.append(f"{layer}: {exc!r}")
                    tracer.broken.update(keys)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, layer, fn):
        stats = self.layers.setdefault(layer, [0, 0.0])

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, path, layer, kind in targets:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            hook, keys = RETURN_HOOKS.get((module_name, path), (None, ()))
            for key in keys:
                self.counters.setdefault(key, 0)
            wrapped = (self.count(layer, original) if kind == "count"
                       else self.span(layer, original, hook, keys))
            setattr(owner, attr, wrapped)
            if kind == "span" and not isinstance(owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.startswith("byzsw") and mod is not owner
                            and getattr(mod, attr, None) is original):
                        setattr(mod, attr, wrapped)

    def report(self) -> dict:
        return {
            "layers": {k: {"calls": v[0], "self_s": v[1]} for k, v in self.layers.items()},
            "counters": {k: v for k, v in self.counters.items()
                         if k not in self.broken},
            "root_s": self.root_s,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
        }


def call_cost_ns(calls: int = 50_000, repeats: int = 5) -> float:
    """Added cost of one traced call, in nanoseconds: a wrapped no-op against
    the bare no-op, best of ``repeats`` loops of ``calls`` calls each."""
    def noop():
        return None

    wrapped = Tracer().span("calibration", noop)
    loop = range(calls)

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in loop:
                fn()
            times.append(perf_counter() - t0)
        return min(times)

    return max(0.0, best(wrapped) - best(noop)) / calls * 1e9
