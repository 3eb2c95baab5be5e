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

The ambiguity search enumerates no joint space. Its candidates are the
product of each intersection sensor's members of the truth's bin, found by
one kernel call over that sensor's own sequences. Its companion is built
from counts: the S1 typicality test is a max over cells, so it splits into
one composition per intersection symbol. The greedy lexicographically least
companion is exactly the first hit of a scan over every companion.
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
)
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    marginal,
    type_counts,
)
from .source_model import SideInfoBlock, SourceBlock, rng_for


@dataclass
class TraitorContext:
    """Capability surface handed to a strategy. Contains everything the
    traitors may legitimately use and nothing else.

    A variable-rate session fills ``polling_history`` with (round, sensor,
    block) for each of its transactions only after each pass of rounds, so
    during a pass a strategy sees it a pass behind; at the end of the
    session it holds every transaction in order."""

    traitors: SubsetView
    seed: int
    alphabet_sizes: tuple[int, ...] | None = None   # the law's, as public as p
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
    if ctx.w_block is None or ctx.alphabet_sizes is None:
        raise ValueError("fabrication requires side information and the alphabet sizes")
    sizes_t = tuple(ctx.alphabet_sizes[i] for i in ctx.traitors)
    if int(np.prod(sizes_t)) != q_bar.output_alphabet_size:
        raise ValueError(f"qbar's output alphabet {q_bar.output_alphabet_size} is not "
                         f"the traitors' joint alphabet {sizes_t}")
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
    return np.stack(np.unravel_index(flat, sizes_t)).astype(np.int64)


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
    """Base class: by default behave honestly with the true block.

    A variable-rate session calls ``begin_round`` for a round, with the
    round's side information and own block in the context, and then reads
    ``reported_block`` for each traitor, keeping the rows it returns, before
    the next round begins. A traitor that reports a block is encoded by the
    session like an honest sensor; one that reports None is polled through
    ``respond``, block by block, for the transactions its phase uses. The
    round index is passed to every call that depends on it.

    The session draws every round's blocks before it plays any, and plays
    the rounds in passes, so a strategy must depend only on the round index
    and the context's round data, not on ``polling_history`` or on how
    earlier rounds went: ``begin_round`` runs for every round before the
    first is played, and ``respond`` may be called again for a round whose
    pass is discarded and replayed after V changes."""

    kind = "honest_passthrough"

    def begin_round(self, ctx: TraitorContext, round_index: int) -> None:
        """Prepare the round's reported blocks; the base strategy has none
        to prepare."""

    def reported_block(self, ctx: TraitorContext, sensor: int) -> np.ndarray | None:
        """The sequence this traitor pretends is its observation, or None if
        it sends garbage instead of encoding anything."""
        if ctx.own_block is None:
            raise ValueError("honest passthrough requires the traitors' own block")
        row = list(ctx.traitors).index(sensor)
        return ctx.own_block.symbols[row]

    def choose_subcodebook(self, ctx: TraitorContext, round_index: int, sensor: int,
                           C: int) -> int:
        return int(rng_for(ctx.seed, "traitor-c", self.kind, round_index, sensor)
                   .integers(C))

    def respond(self, ctx: TraitorContext, round_index: int, sensor: int, c: int,
                j: int) -> int:
        """Block j's bin index sent by a traitor that reports no block. The
        session encodes a reported block itself, so only a strategy whose
        ``reported_block`` returns None is polled, and it must answer."""
        raise NotImplementedError(f"{type(self).__name__} reports no block for sensor "
                                  f"{sensor} but does not answer polls")

    def fixed_rate_messages(self, ctx: TraitorContext, code, block: SourceBlock,
                            p: JointPMF) -> dict[int, tuple[int, int]]:
        out = {}
        for sensor in ctx.traitors:
            c = 0
            if code.kind == "randomized":
                c = self.choose_subcodebook(ctx, 0, sensor, code.C)
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

    def respond(self, ctx: TraitorContext, round_index: int, sensor: int, c: int,
                j: int) -> int:
        bins = ctx.codebooks[sensor].bin_count(j)
        return int(rng_for(ctx.seed, "black-hole", round_index, sensor, j).integers(bins))

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


def _check_joint_space(cells: int, n: int) -> None:
    """Refuse a joint space of cells^n sequences past the per-stage 2^22
    desk-scale guard: the attack refuses the sizes a scan of the space would
    refuse, whatever the bins hold."""
    if n * math.log2(cells) > 22 + 1e-9:
        raise EnumerationGuardError(
            f"joint space {cells}^{n} exceeds the per-stage 2^22 guard")


def _flat_cells(S: SubsetView, part: SubsetView, sizes) -> np.ndarray:
    """Offset of each flat joint symbol of ``part`` in the flat cells of S,
    whose last (highest-index) sensor varies fastest."""
    part_sizes = tuple(sizes[i] for i in part)
    syms = np.unravel_index(np.arange(math.prod(part_sizes)), part_sizes)
    stride = {i: math.prod(sizes[j] for j in S if j > i) for i in S}
    return sum(stride[i] * x for i, x in zip(part, syms))


def _lex_least_companion(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The lexicographically least outer sequence y such that, for every
    intersection symbol a and outer symbol b, #{t : x_t = a, y_t = b} lies in
    [lo[a, b], hi[a, b]]; the caller has checked that one exists.

    Slot by slot, y_t is the least b that leaves the row a = x_t completable:
    the row's remaining slots can reach counts c >= used with every c in its
    interval and sum(c) = #{t : x_t = a} iff max(lo, used) <= hi and
    sum(max(lo, used)) <= #{t : x_t = a} (sum(hi) is already large enough)."""
    slots = np.bincount(x, minlength=lo.shape[0]).tolist()
    lo, hi = lo.tolist(), hi.tolist()
    used = [[0] * len(row) for row in lo]
    y = []
    for a in x.tolist():
        row_lo, row_hi, row_used = lo[a], hi[a], used[a]
        for b in range(len(row_lo)):
            row_used[b] += 1
            if (row_used[b] <= row_hi[b]
                    and sum(map(max, row_lo, row_used)) <= slots[a]):
                y.append(b)
                break
            row_used[b] -= 1
    return np.array(y, dtype=np.int64)


def fixed_rate_ambiguity_attack(ctx: TraitorContext, S1: SubsetView,
                                honest_true: SubsetView, code, p: JointPMF,
                                true_block: SourceBlock, *,
                                max_attempts: int = 64) -> AmbiguityOutcome:
    """Search for a confusable substitute for X_{S1 n H}: same bins as the
    truth, strongly typical, different from the truth, and admitting a
    companion for S1 - H jointly typical with it. Candidates are tried most
    typical first (up to ``max_attempts``), ties in lexicographic order, and
    the companion is the lexicographically least one. Returns not-found when
    the search fails, which is the likely outcome whenever the rates lie
    inside SW(X_{S1 n H}).

    Nothing is enumerated beyond each intersection sensor's own sequence
    space, whose bins (``code.space_bins``, hashed once per code and shared
    with the decoder) give the truth's bin and its members.

    * **Candidates.** The product of those members, as per-slot flat joint
      symbols in lexicographic order, minus the truth; ball distances are
      computed for these rows only and stably sorted.
    * **Companion.** The S1 ball distance is a max over cells (a, b) of
      intersection symbol a and outer symbol b, so it is met iff every count
      #{t : x_t = a, y_t = b} is one the cell admits. |k/n - p| is monotone
      on each side of p, also in floating point, so the admitted counts of a
      cell form an interval of 0..n, computed once with the arithmetic of
      the distance itself. Rows are independent: a candidate has a companion
      iff every row a, with n_a = #{t : x_t = a} slots, has a composition of
      n_a inside its intervals (an absent row needs 0 admitted everywhere),
      and the least companion is built greedily slot by slot.

    Both joint spaces stay behind the per-stage 2^22 guard, and the outcome
    is the one a scan of every candidate and every companion would give.
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
    sizes = p.alphabet_sizes
    sizes_inter = tuple(sizes[i] for i in inter)
    sizes_outer = tuple(sizes[i] for i in outer)
    cells_inter = math.prod(sizes_inter)
    _check_joint_space(cells_inter, n)
    _check_joint_space(math.prod(sizes_outer), n)

    # candidates: each sensor's members of the truth's bin, joined per slot
    cands = np.zeros((1, n), dtype=np.int64)
    stride = cells_inter
    for size, i in zip(sizes_inter, inter):
        stride //= size
        bins = code.space_bins(i, size)
        truth_bin = bins[np.ravel_multi_index(tuple(true_block.sensor(i)), (size,) * n)]
        members = all_sequences(size, n)[np.flatnonzero(bins == truth_bin)]
        cands = (cands[:, None, :]
                 + stride * members[None, :, :].astype(np.int64)).reshape(-1, n)
    cands = cands[np.lexsort(cands.T[::-1])]
    truth_flat = np.ravel_multi_index(tuple(true_block.subset(inter.indices)), sizes_inter)
    cands = cands[np.any(cands != truth_flat[None, :], axis=1)]
    counts = type_counts(cands, cells_inter)
    dist = np.max(np.abs(counts / n - marginal(p, inter).mass.reshape(1, -1)), axis=1)
    keep = np.nonzero(dist <= code.eps_decode / cells_inter + 1e-12)[0]
    keep = keep[np.argsort(dist[keep], kind="stable")][:max_attempts]

    # admitted counts [lo, hi] of each S1 cell (a, b); lo > hi when none
    p_s1 = marginal(p, S1).mass.reshape(-1)
    p_cells = p_s1[_flat_cells(S1, inter, sizes)[:, None]
                   + _flat_cells(S1, outer, sizes)[None, :]]
    admitted = (np.abs(np.arange(n + 1) / n - p_cells[..., None])
                <= code.eps_decode / p_s1.size + 1e-12)
    lo = np.where(admitted.any(axis=-1), admitted.argmax(axis=-1), n + 1)
    hi = n - admitted[..., ::-1].argmax(axis=-1)
    feasible = np.all(lo <= hi) & np.all((lo.sum(axis=1) <= counts[keep])
                                         & (counts[keep] <= hi.sum(axis=1)), axis=1)
    if not feasible.any():
        return AmbiguityOutcome(False, None, inter.indices, None, None)

    x = cands[keep[np.argmax(feasible)]]
    cand_syms = np.stack(np.unravel_index(x, sizes_inter))
    fake_outer = np.stack(np.unravel_index(_lex_least_companion(x, lo, hi), sizes_outer))
    messages = {}
    for row, i in enumerate(outer):
        index = np.ravel_multi_index(tuple(fake_outer[row]), (sizes[i],) * n)
        messages[i] = (0, int(code.space_bins(i, sizes[i])[index]))
    for i in ctx.traitors.difference(outer):
        rng = rng_for(ctx.seed, "ambiguity-garbage", i)
        messages[i] = (0, int(rng.integers(bin_count_for_rate(n, code.rates[i]))))
    return AmbiguityOutcome(True, messages, inter.indices, cand_syms, fake_outer)


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


STRATEGY_KINDS = ("honest_passthrough", "black_hole", "fake_distribution",
                  "fixed_rate_ambiguity")


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
