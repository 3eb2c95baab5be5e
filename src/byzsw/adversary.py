"""Pluggable traitor strategies.

A strategy sees only what the model grants the traitors: their side
information W^n, their own observations, the public codebooks, the polling
history, and shared randomness derived from the scenario seed. The context
object deliberately has no field for honest sensors' private randomness or
honest message contents, so no strategy can read them.

Strategies:

* honest_passthrough - behave exactly like an honest sensor (meaningful when
  W includes the traitors' own observations);
* black_hole        - emit uniformly random but in-range indices;
* fake_distribution - fabricate a counterfeit source block from qbar(x_T | w)
  once per round, then run the honest encoding logic on it verbatim;
* fixed_rate_ambiguity - the deterministic fixed-rate converse construction:
  search for a confusable sequence in the same bins as the truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .binning import (
    BinningCodebook,
    EnumerationGuardError,
    all_sequences,
    bin_count_for_rate,
    fixed_rate_encode,
    fixed_rate_header,
    hash_bins,
)
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    marginal,
)
from .source_model import SideInfoBlock, SourceBlock, rng_for


@dataclass
class TraitorContext:
    """Capability surface handed to a strategy. Contains everything the
    traitors may legitimately use and nothing else."""

    traitors: SubsetView
    seed: int
    w_block: SideInfoBlock | None = None
    own_block: SourceBlock | None = None          # the traitors' own rows
    codebooks: Mapping[int, BinningCodebook] | None = None
    polling_history: list = field(default_factory=list)

    def note_poll(self, record) -> None:
        self.polling_history.append(record)


def fabricate_block(ctx: TraitorContext, q_bar: ConditionalPMF, seed: int) -> np.ndarray:
    """Per-slot draw of fake traitor symbols x_T,t ~ qbar(. | w_t).

    Returns a (|T|, n) table aligned with ctx.traitors; the fake block is then
    used verbatim by honest encoding logic for the rest of the round.
    """
    if ctx.w_block is None:
        raise ValueError("fabrication requires side information")
    w = ctx.w_block.w_symbols
    n = w.shape[0]
    rng = rng_for(seed, "fabricate")
    rows = q_bar.rows.reshape(q_bar.num_inputs, q_bar.output_alphabet_size)
    if q_bar.num_inputs < int(w.max(initial=0)) + 1:
        raise ValueError("qbar input alphabet smaller than observed W symbols")
    cs = np.cumsum(rows, axis=1)[w]               # (n, |X_T| flattened)
    u = rng.random(n)
    flat = (cs < u[:, None]).sum(axis=1)
    flat = np.minimum(flat, q_bar.output_alphabet_size - 1)
    sizes_t = _traitor_sizes(ctx, q_bar)
    return np.stack(np.unravel_index(flat, sizes_t)).astype(np.int64)


def _traitor_sizes(ctx: TraitorContext, q_bar: ConditionalPMF) -> tuple[int, ...]:
    k = len(ctx.traitors)
    out = int(q_bar.output_alphabet_size)
    # qbar's output alphabet is the joint fake alphabet; recover per-sensor
    # sizes from the codebooks when available, else assume a uniform split.
    if ctx.codebooks:
        sizes = tuple(ctx.codebooks[i].alphabet_size for i in ctx.traitors)
        if int(np.prod(sizes)) == out:
            return sizes
    root = round(out ** (1.0 / k))
    if root ** k != out:
        raise ValueError(f"cannot factor fake alphabet {out} across {k} traitors")
    return (root,) * k


def optimal_fake_conditional(q_star: JointPMF, honest: SubsetView,
                             alphabet_sizes) -> ConditionalPMF:
    """Worst-case qbar(x_T | w) for perfect information: condition the
    rate-maximizing joint law q* on the honest coordinates carried by W."""
    sizes = tuple(int(a) for a in alphabet_sizes)
    m = len(sizes)
    traitors = honest.complement(m)
    if len(traitors) == 0:
        raise ValueError("no traitors to fabricate for")
    cells = int(np.prod(sizes))
    sizes_t = tuple(sizes[i] for i in traitors)
    cells_t = int(np.prod(sizes_t))
    qh = marginal(q_star, honest).mass
    perm = tuple(honest.indices) + tuple(traitors.indices)
    q_ht = np.transpose(q_star.mass, perm).reshape(qh.size, cells_t)
    rows = np.empty((cells, cells_t))
    filled = []
    for w in range(cells):
        x = np.unravel_index(w, sizes)
        xh = tuple(x[i] for i in honest)
        k = int(np.ravel_multi_index(xh, qh.shape)) if len(honest) else 0
        den = qh.reshape(-1)[k]
        if den > 0:
            rows[w] = q_ht[k] / den
        else:
            rows[w] = 1.0 / cells_t
            filled.append(w)
    rows /= rows.sum(axis=1, keepdims=True)
    return ConditionalPMF((cells,), cells_t, rows.reshape((cells, cells_t)),
                          uniform_filled_rows=tuple(filled))


# ---------------------------------------------------------------------------
# strategy objects
# ---------------------------------------------------------------------------

class TraitorStrategy:
    """Base class: by default behave honestly with the true block."""

    kind = "honest_passthrough"
    _round = 0
    _phase: tuple | None = None     # (round, sensor, c) whose chain ``_chain`` holds
    _chain: np.ndarray | None = None

    def begin_round(self, ctx: TraitorContext, round_index: int) -> None:
        self._round = round_index
        self._phase = None      # a new session may reuse round indices

    def reported_block(self, ctx: TraitorContext, sensor: int) -> np.ndarray | None:
        """The sequence this traitor pretends is its observation, or None if
        it sends garbage instead of encoding anything."""
        if ctx.own_block is None:
            raise ValueError("honest passthrough requires the traitors' own block")
        row = list(ctx.traitors).index(sensor)
        return ctx.own_block.symbols[row]

    def choose_subcodebook(self, ctx: TraitorContext, sensor: int, C: int) -> int:
        return int(rng_for(ctx.seed, "traitor-c", self.kind, self._round, sensor)
                   .integers(C))

    def respond(self, ctx: TraitorContext, sensor: int, c: int, j: int) -> int:
        """Block j's index of the reported block under subcodebook c. The
        whole chain is encoded in one call at the phase's first poll and
        kept until the round, the sensor or c changes."""
        phase = (self._round, sensor, c)
        if self._phase != phase:
            block = self.reported_block(ctx, sensor)
            self._chain = ctx.codebooks[sensor].encode_chain(block, c)
            self._phase = phase
        return int(self._chain[j])

    def fixed_rate_messages(self, ctx: TraitorContext, code, block: SourceBlock,
                            p: JointPMF) -> dict[int, tuple[int, int]]:
        out = {}
        for sensor in ctx.traitors:
            c = 0
            if code.kind == "randomized":
                c = self.choose_subcodebook(ctx, sensor, code.C)
            rep = self.reported_block(ctx, sensor)
            idx = fixed_rate_encode(code.seed, sensor, rep, code.rates[sensor], c)
            out[sensor] = (c, idx)
        return out


class HonestPassthrough(TraitorStrategy):
    kind = "honest_passthrough"


class BlackHole(TraitorStrategy):
    """Garbage messages, always within the alphabet contract."""

    kind = "black_hole"

    def reported_block(self, ctx, sensor):
        return None

    def respond(self, ctx: TraitorContext, sensor: int, c: int, j: int) -> int:
        bins = ctx.codebooks[sensor].bin_count(j)
        return int(rng_for(ctx.seed, "black-hole", self._round, sensor, j).integers(bins))

    def fixed_rate_messages(self, ctx, code, block, p):
        out = {}
        for sensor in ctx.traitors:
            rng = rng_for(ctx.seed, "black-hole-fr", sensor)
            c = int(rng.integers(code.C)) if code.kind == "randomized" else 0
            bins = bin_count_for_rate(code.n, code.rates[sensor])
            out[sensor] = (c, int(rng.integers(bins)))
        return out


class FakeDistribution(TraitorStrategy):
    """Simulate qbar(x_T | w) once per round and act honestly on the result."""

    kind = "fake_distribution"

    def __init__(self, q_bar: ConditionalPMF):
        self.q_bar = q_bar
        self._fake: np.ndarray | None = None

    def begin_round(self, ctx: TraitorContext, round_index: int) -> None:
        super().begin_round(ctx, round_index)
        self._fake = fabricate_block(ctx, self.q_bar,
                                     _fab_seed(ctx.seed, round_index))

    def reported_block(self, ctx, sensor):
        row = list(ctx.traitors).index(sensor)
        return self._fake[row]

    def fixed_rate_messages(self, ctx, code, block, p):
        self.begin_round(ctx, 0)
        return super().fixed_rate_messages(ctx, code, block, p)


def _fab_seed(seed: int, round_index: int) -> int:
    from .source_model import derive_seed
    return derive_seed(seed, "fabricate-round", round_index)


# ---------------------------------------------------------------------------
# fixed-rate ambiguity attack (deterministic converse construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbiguityOutcome:
    found: bool
    messages: dict | None              # sensor -> (c, index) for all traitors
    confused_sensors: tuple[int, ...]  # S1 n H, the coordinates under attack
    fake_intersection: np.ndarray | None
    fake_companion: np.ndarray | None


def _joint_flat_space(sizes: tuple[int, ...], n: int) -> np.ndarray:
    """All joint sequences over a coordinate set, as (count, n) per-slot flat
    joint symbols in lexicographic order."""
    cells = int(np.prod(sizes))
    if n * math.log2(cells) > 22 + 1e-9:
        raise EnumerationGuardError(
            f"joint space {cells}^{n} exceeds the per-stage 2^22 guard")
    return all_sequences(cells, n)


def _ball_distances(flat_seqs: np.ndarray, cells: int, p_flat: np.ndarray) -> np.ndarray:
    """max_cell |type - p| for every sequence of per-slot flat symbols."""
    k, n = flat_seqs.shape
    flat = (np.arange(k)[:, None] * cells + flat_seqs.astype(np.int64)).reshape(-1)
    counts = np.bincount(flat, minlength=k * cells).reshape(k, cells)
    return np.max(np.abs(counts / n - p_flat[None, :]), axis=1)


def fixed_rate_ambiguity_attack(ctx: TraitorContext, S1: SubsetView,
                                honest_true: SubsetView, code, p: JointPMF,
                                true_block: SourceBlock, *,
                                max_attempts: int = 64) -> AmbiguityOutcome:
    """Search for a confusable substitute for X_{S1 n H}: same bins as the
    truth, strongly typical, different from the truth, and admitting a
    companion for S1 - H jointly typical with it. Candidates are tried most
    typical first (up to ``max_attempts``). Returns not-found when the search
    fails, which is the likely outcome whenever the rates lie inside
    SW(X_{S1 n H}).
    """
    if code.kind != "deterministic":
        raise ValueError("the ambiguity attack applies to deterministic coding")
    inter = S1.intersection(honest_true)
    outer = S1.difference(honest_true)
    if len(inter) == 0 or len(outer) == 0:
        raise ValueError("need a candidate set straddling the honest set")
    if not outer.is_subset_of(ctx.traitors):
        raise ValueError("attack coordinates must be traitors")
    n = code.n
    sizes_inter = tuple(p.alphabet_sizes[i] for i in inter)
    cells_inter = int(np.prod(sizes_inter))
    truth_inter = true_block.subset(inter.indices)
    p_inter = marginal(p, inter)
    tol_inter = code.eps_decode / cells_inter

    cands = _joint_flat_space(sizes_inter, n)
    dist = _ball_distances(cands, cells_inter, p_inter.mass.reshape(-1))
    keep = np.nonzero(dist <= tol_inter + 1e-12)[0]
    keep = keep[np.argsort(dist[keep], kind="stable")]

    # companion space, shared across attempts
    sizes_outer = tuple(p.alphabet_sizes[i] for i in outer)
    cells_outer = int(np.prod(sizes_outer))
    comp = _joint_flat_space(sizes_outer, n)
    p_s1 = marginal(p, S1)
    cells_s1 = int(np.prod(p_s1.alphabet_sizes))
    tol_s1 = code.eps_decode / cells_s1
    # per-slot stride map from (inter coords, outer coords) to sorted-S1 cells
    strides = {}
    acc = 1
    for i in reversed(S1.indices):
        strides[i] = acc
        acc *= p.alphabet_sizes[i]
    inter_mult = np.array([strides[i] for i in inter])
    outer_mult = np.array([strides[i] for i in outer])

    comp_syms_all = np.stack(np.unravel_index(
        comp.reshape(-1).astype(np.int64),
        sizes_outer)).reshape(len(sizes_outer), comp.shape[0], n)
    # bin prefilter over every kept candidate at once, one kernel call per
    # intersection sensor; per-sensor symbols stay uint8 so the temporaries
    # stay small next to the 2^n-row candidate tables
    flat = cands[keep]
    truth_flat = np.ravel_multi_index(tuple(truth_inter), sizes_inter)
    match = np.any(flat != truth_flat[None, :], axis=1)
    stride = cells_inter
    for size, i in zip(sizes_inter, inter):
        stride //= size
        syms = flat // stride % size
        truth_bin = fixed_rate_encode(code.seed, i, true_block.sensor(i), code.rates[i], 0)
        match &= hash_bins(code.seed, fixed_rate_header(i, 0), syms,
                           bin_count_for_rate(n, code.rates[i])) == truth_bin

    for k in keep[match][:max_attempts]:
        cand_syms = np.stack(np.unravel_index(cands[k].astype(np.int64),
                                              sizes_inter))
        base = (cand_syms * inter_mult[:, None]).sum(axis=0)      # (n,)
        joint_codes = base[None, :] + np.tensordot(outer_mult,
                                                   comp_syms_all, axes=(0, 0))
        dist_s1 = _ball_distances(joint_codes, cells_s1, p_s1.mass.reshape(-1))
        hits = np.nonzero(dist_s1 <= tol_s1 + 1e-12)[0]
        if hits.size == 0:
            continue
        fake_outer = comp_syms_all[:, hits[0], :]
        messages = {}
        for row, i in enumerate(outer):
            messages[i] = (0, fixed_rate_encode(code.seed, i, fake_outer[row],
                                                code.rates[i], 0))
        for i in ctx.traitors.difference(outer):
            rng = rng_for(ctx.seed, "ambiguity-garbage", i)
            messages[i] = (0, int(rng.integers(bin_count_for_rate(n, code.rates[i]))))
        return AmbiguityOutcome(True, messages, inter.indices, cand_syms,
                                fake_outer)
    return AmbiguityOutcome(False, None, inter.indices, None, None)


class FixedRateAmbiguity(TraitorStrategy):
    """Strategy wrapper around the converse construction; requires perfect
    information so the traitors actually know X_{S1 n H}."""

    kind = "fixed_rate_ambiguity"

    def __init__(self, target_set: SubsetView):
        self.target_set = target_set
        self.last_outcome: AmbiguityOutcome | None = None

    def fixed_rate_messages(self, ctx, code, block, p):
        honest_true = ctx.traitors.complement(len(code.rates))
        self.last_outcome = fixed_rate_ambiguity_attack(
            ctx, self.target_set, honest_true, code, p, block)
        if self.last_outcome.found:
            return dict(self.last_outcome.messages)
        # no confusable sequence this trial: fall back to honest behavior
        return super().fixed_rate_messages(ctx, code, block, p)


def make_strategy(kind: str, *, q_bar: ConditionalPMF | None = None,
                  target_set: SubsetView | None = None) -> TraitorStrategy:
    if kind == "honest_passthrough":
        return HonestPassthrough()
    if kind == "black_hole":
        return BlackHole()
    if kind == "fake_distribution":
        if q_bar is None:
            raise ValueError("fake_distribution needs qbar")
        return FakeDistribution(q_bar)
    if kind == "fixed_rate_ambiguity":
        if target_set is None:
            raise ValueError("ambiguity attack needs a target candidate set")
        return FixedRateAmbiguity(target_set)
    raise ValueError(f"unknown strategy kind {kind!r}")
