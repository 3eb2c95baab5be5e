"""Pluggable traitor strategies: one protocol for both schemes.

A strategy sees only what the model grants the traitors: the source law,
their side information W^n, their own observations, the public codes, and
shared randomness derived from the scenario seed. The context object
deliberately has no field for honest sensors' private randomness or honest
message contents, so no strategy can read them. A strategy only decides
blocks, subcodebooks and garbage; the scheme encodes. Both schemes make
every sensor's messages in one ``send_rounds`` call before the decoder reads
any: one bin chain per round, the encoding of the sender's true or reported
rows or, for a traitor that reports none, ``respond``'s (J, R) array.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .binning import _check_space, all_sequences
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    conditional_rows,
    marginal,
    type_counts,
)
from .source_model import keyed_draws

if TYPE_CHECKING:
    from .fixed_rate import FixedRateCode


@dataclass
class TraitorContext:
    """Capability surface handed to a strategy by either scheme. Contains
    everything the traitors may legitimately use and nothing else.

    The round data covers the rounds of the last ``begin_round`` call, row
    k for its k-th round: ``w_block`` holds each round's side information
    W^n, an (R, n) array, and ``own_block`` the traitors' own rows, an
    (R, |T|, n) array aligned with ``traitors``. A fixed-rate trial is the
    one round R = 1."""

    traitors: SubsetView
    seed: int
    law: JointPMF | None = None                   # the source law, as public as its alphabets
    w_block: np.ndarray | None = None             # (R, n) side information per round
    own_block: np.ndarray | None = None           # (R, |T|, n) the traitors' own rows
    code: FixedRateCode | None = None             # fixed-rate only, set by encode_all


def fabricate_block(ctx: TraitorContext, q_bar: ConditionalPMF,
                    rounds: Sequence[int]) -> np.ndarray:
    """Per-slot draw of fake traitor symbols x_T,t ~ qbar(. | w_t) for every
    round of the context, row k from round ``rounds[k]``'s draws of the
    traitors' seed.

    Returns an (R, |T|, n) array, row k a (|T|, n) table aligned with
    ctx.traitors; each round's fake block is then used verbatim by honest
    encoding logic.
    """
    if ctx.w_block is None or ctx.law is None:
        raise ValueError("fabrication requires side information and the source law")
    sizes_t = tuple(ctx.law.alphabet_sizes[i] for i in ctx.traitors)
    if int(np.prod(sizes_t)) != q_bar.output_alphabet_size:
        raise ValueError(f"qbar's output alphabet {q_bar.output_alphabet_size} is not "
                         f"the traitors' joint alphabet {sizes_t}")
    w = ctx.w_block
    rows = q_bar.rows.reshape(q_bar.num_inputs, q_bar.output_alphabet_size)
    if q_bar.num_inputs < int(w.max(initial=0)) + 1:
        raise ValueError("qbar input alphabet smaller than observed W symbols")
    cs = np.cumsum(rows, axis=1)[w]               # (R, n, |X_T| flattened)
    u = keyed_draws(ctx.seed, ("fabricate",), rounds, w.shape[1])
    flat = (cs < u[..., None]).sum(axis=2)
    flat = np.minimum(flat, q_bar.output_alphabet_size - 1)
    return np.stack(np.unravel_index(flat, sizes_t), axis=1).astype(np.int64, copy=False)


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
    cells_t = int(np.prod([sizes[i] for i in traitors]))
    qh = marginal(q_star, honest).mass
    perm = tuple(honest.indices) + tuple(traitors.indices)
    q_ht = np.transpose(q_star.mass, perm).reshape(qh.size, cells_t)
    x = np.unravel_index(np.arange(cells), sizes)
    k = np.ravel_multi_index(tuple(x[i] for i in honest), qh.shape)   # each w's honest cell
    rows, filled = conditional_rows(q_ht[k], qh.reshape(-1)[k])
    return ConditionalPMF((cells,), cells_t, rows, uniform_filled_rows=filled)


# ---------------------------------------------------------------------------
# strategy objects
# ---------------------------------------------------------------------------

class TraitorStrategy:
    """Base class: by default behave honestly with the true block.

    One protocol for both schemes, played by ``send_rounds``: a scheme draws
    the round data of its rounds into the context, and ``begin_round`` is
    called once with their indices. It returns the rows the traitors
    report, which are encoded like honest sensors' rows, under
    ``choose_subcodebook``'s subcodebooks; or None, and every traitor sends
    ``respond``'s bins instead, one chain per round. A variable-rate session
    is one call over all its rounds; a fixed-rate trial is round 0 with one
    block (``fixed_rate.encode_all``). Each hook is called once per session
    or trial (``choose_subcodebook`` and ``respond`` once per traitor) with
    the indices of every round it answers for.

    Every message is made before the decoder reads any, so a strategy
    depends only on the round index and the context's round data, not on
    how earlier rounds were decoded."""

    kind = "honest_passthrough"

    def begin_round(self, ctx: TraitorContext, rounds: Sequence[int]) -> np.ndarray | None:
        """The sequences the traitors pretend are their observations, an
        (R, |T|, n) array with one row per round of ``rounds``, aligned with
        ``ctx.traitors``; or None if they send garbage instead of encoding
        anything. The base strategy reports the true rows."""
        if ctx.own_block is None:
            raise ValueError("honest passthrough requires the traitors' own block")
        return ctx.own_block

    def choose_subcodebook(self, ctx: TraitorContext, rounds: Sequence[int], sensor: int,
                           C: int) -> np.ndarray:
        """The subcodebook a traitor announces in each round of ``rounds``,
        an int64 array in range(C)."""
        return keyed_draws(ctx.seed, ("traitor-c", self.kind, sensor), rounds, 1, C)[:, 0]

    def respond(self, ctx: TraitorContext, rounds: Sequence[int], sensor: int,
                bins: Sequence[int]) -> np.ndarray:
        """The bin chains sent by a traitor that reports no block, a
        (len(bins), len(rounds)) int64 array: entry (j, k) is block j's bin
        index in round ``rounds[k]``, in range(bins[j]). Only such a
        strategy is asked, and it must answer."""
        raise NotImplementedError(f"{type(self).__name__} reports no block for sensor "
                                  f"{sensor} but does not answer polls")


class HonestPassthrough(TraitorStrategy):
    kind = "honest_passthrough"


class BlackHole(TraitorStrategy):
    """Garbage messages, always within the alphabet contract: block j's
    index in a round is that round's column j of the sensor's stream."""

    kind = "black_hole"

    def begin_round(self, ctx, rounds):
        return None

    def respond(self, ctx: TraitorContext, rounds: Sequence[int], sensor: int,
                bins: Sequence[int]) -> np.ndarray:
        return keyed_draws(ctx.seed, ("black-hole", sensor), rounds, len(bins), bins).T


class FakeDistribution(TraitorStrategy):
    """Simulate qbar(x_T | w) once per round, every round of ``begin_round``
    in one draw, and act honestly on the result."""

    kind = "fake_distribution"

    def __init__(self, q_bar: ConditionalPMF):
        self.q_bar = q_bar

    def begin_round(self, ctx: TraitorContext, rounds: Sequence[int]) -> np.ndarray:
        return fabricate_block(ctx, self.q_bar, rounds)


def send_rounds(strategy: TraitorStrategy | None, ctx: TraitorContext | None,
                blocks: np.ndarray, rounds: Sequence[int], cs: np.ndarray, C: int,
                encode: Callable, bins: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Every sensor's messages for ``rounds``, the traitor protocol played
    once. ``blocks`` holds the rounds' (R, m, n) true rows and ``ctx`` their
    side information (the traitors' own rows are put in it); ``cs`` the
    (R, m) honest subcodebooks, whose traitors' columns ``choose_subcodebook``
    overwrites in place when C > 1. Returns each sensor's (J, R) chains:
    ``encode(i, rows, cs_i)`` of its true or reported (R, n) rows, or, when
    the traitors report none, a traitor's ``respond`` chains under its bin
    counts ``bins[i]``. Without a strategy every sensor encodes its rows."""
    traitors = [] if strategy is None or ctx is None else list(ctx.traitors.indices)
    sent, silent = blocks, False
    if traitors:
        ctx.own_block = blocks[:, traitors]
        reported = strategy.begin_round(ctx, rounds)
        silent = reported is None
        if not silent:
            sent = blocks.copy()
            sent[:, traitors] = reported
        if C > 1:
            for i in traitors:
                cs[:, i] = strategy.choose_subcodebook(ctx, rounds, i, C)
    return [strategy.respond(ctx, rounds, i, bins[i]) if silent and i in traitors
            else encode(i, sent[:, i], cs[:, i].tolist())
            for i in range(blocks.shape[1])]


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
                                true_block: np.ndarray, *,
                                max_attempts: int = 64) -> AmbiguityOutcome:
    """Search for a confusable substitute for X_{S1 n H}: same bins as the
    truth, strongly typical, different from the truth, and admitting a
    companion for S1 - H jointly typical with it. Candidates are tried most
    typical first (up to ``max_attempts``), ties in lexicographic order, and
    the companion is the lexicographically least one. Returns not-found when
    the search fails, which is the likely outcome whenever the rates lie
    inside SW(X_{S1 n H}).

    ``true_block`` is the block's (m, n) symbol array. Nothing is
    enumerated beyond each intersection sensor's own sequence
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

    Both joint spaces stay behind the 2^22 enumeration guard
    (``binning._check_space``), so the attack refuses the sizes a scan of
    either space would refuse, whatever the bins hold, and the outcome is the
    one a scan of every candidate and every companion would give.
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
    _check_space(cells_inter, n)
    _check_space(math.prod(sizes_outer), n)

    # candidates: each sensor's members of the truth's bin, joined per slot
    cands = np.zeros((1, n), dtype=np.int64)
    stride = cells_inter
    for size, i in zip(sizes_inter, inter):
        stride //= size
        truth_bin = code.encode(i, size, true_block[i])
        members = all_sequences(size, n)[np.flatnonzero(code.space_bins(i, size) == truth_bin)]
        cands = (cands[:, None, :]
                 + stride * members[None, :, :].astype(np.int64)).reshape(-1, n)
    cands = cands[np.lexsort(cands.T[::-1])]
    truth_flat = np.ravel_multi_index(tuple(true_block[list(inter.indices)]), sizes_inter)
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
        messages[i] = (0, code.encode(i, sizes[i], fake_outer[row]))
    rest = ctx.traitors.difference(outer)
    if rest:
        garbage = keyed_draws(ctx.seed, ("ambiguity-garbage",), [0], code.m, code.bin_counts)[0]
        for i in rest:
            messages[i] = (0, int(garbage[i]))
    return AmbiguityOutcome(True, messages, inter.indices, cand_syms, fake_outer)


class FixedRateAmbiguity(TraitorStrategy):
    """The converse construction on ``ctx.code``. Under perfect information
    W is the flat joint symbol, so the traitors know X_{S1 n H}. When the
    attack finds a confusable sequence every traitor sends its message;
    otherwise they behave honestly."""

    kind = "fixed_rate_ambiguity"

    def __init__(self, target_set: SubsetView):
        self.target_set = target_set
        self.last_outcome: AmbiguityOutcome | None = None

    def begin_round(self, ctx: TraitorContext, rounds: Sequence[int]) -> np.ndarray | None:
        if ctx.code is None:
            raise ValueError("the ambiguity attack needs a fixed-rate code")
        sizes = ctx.law.alphabet_sizes
        [w] = ctx.w_block                 # a fixed-rate trial is one round
        self.last_outcome = fixed_rate_ambiguity_attack(
            ctx, self.target_set, ctx.traitors.complement(len(sizes)), ctx.code,
            ctx.law, np.stack(np.unravel_index(w, sizes)))
        return None if self.last_outcome.found else super().begin_round(ctx, rounds)

    def respond(self, ctx: TraitorContext, rounds: Sequence[int], sensor: int,
                bins: Sequence[int]) -> np.ndarray:
        return np.full((len(bins), len(rounds)), self.last_outcome.messages[sensor][1],
                       dtype=np.int64)


# every strategy class by its kind, the scenario field's allowed values
STRATEGIES = {cls.kind: cls for cls in (HonestPassthrough, BlackHole, FakeDistribution,
                                        FixedRateAmbiguity)}
