"""Decoder-driven variable-rate polling protocol.

A session is N rounds over fresh length-n blocks. Each round runs one phase
per still-plausible sensor, in ascending index order. In phase i the sensor
announces a uniformly chosen subcodebook c and streams incremental bin
indices; after j transactions the decoder searches the set

    T_j(prior) = { x : H_type(X_i | X_prior) <= j * eps }

for sequences matching the received composite bin, stops at the first
non-empty intersection, and takes the lexicographically least member.

Every candidate must match block 0, the block with the most bins, so the
search bins the whole alphabet^n space on block 0 once, from cached
words, as soon as the first index arrives; about one sequence shares the
received bin. Only those members are scored. The empirical conditional
entropy splits over the cells of the prior sensors' decoded symbols, so a
member's score is a sum of reads from small cached per-cell tables. If
the phase goes on, the members are binned on blocks 1..J-1 in one more
kernel call, and each later transaction is a comparison on these few
rows: at most two kernel calls per phase, however many transactions it
takes. An honest sender encodes its whole block chain for the phase in
one kernel call.
At the end of a round the decoder prunes the collection V of candidate
honest sets by testing the empirical type of the decoded block against the
eta-blurred simulable-law sets of each candidate.

Rate accounting is exact: the reported sum rate is the sum of
log2(actual bin count) over all transactions divided by n*N. The subcodebook
announcements (log2 C bits each) are tracked separately, matching the
zero-rate-feedback treatment of the scheme.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .adversary import TraitorContext, TraitorStrategy
from .binning import BinningCodebook, EnumerationGuardError, all_sequences
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    marginal,
    union_of,
)
from .rate_region import (
    HonestCollection,
    InfoModel,
    LinearProgram,
    _effective_channel,
    _row_sums,
    _simulability_matrix,
)
from .source_model import SourceBlock, derive_seed, rng_for, sample_block, sample_side_info

SUBCODEBOOK_CAP = 1 << 10


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters. nu > eps is required by the error analysis; the
    default nu = 5.5*eps also covers the imperfect-information requirement
    nu > 5*eps. eta >= eps with eta -> 0 as eps -> 0; default eta = 2*eps.
    C defaults to the analysis bound ceil(3*N*m*B / alpha) with
    B = ceil(log2|X_M| / (nu - eps)), capped at 1024 for desk scale."""

    n: int
    rounds: int
    eps: float
    nu: float | None = None
    eta: float | None = None
    C: int | None = None
    alpha: float = 0.05

    def __post_init__(self):
        if self.n < 1 or self.rounds < 1:
            raise ValueError("n and rounds must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.nu_value <= self.eps:
            raise ValueError("nu must exceed eps")
        if self.eta_value < self.eps:
            raise ValueError("eta must be at least eps")

    @property
    def nu_value(self) -> float:
        return 5.5 * self.eps if self.nu is None else self.nu

    @property
    def eta_value(self) -> float:
        return 2.0 * self.eps if self.eta is None else self.eta

    def subcodebook_counts(self, m: int, alphabet_sizes: Sequence[int]) -> tuple[int, int]:
        """(requested, used) subcodebook counts: an explicit C is used as
        given; the analysis bound is capped at SUBCODEBOOK_CAP."""
        if self.C is not None:
            return self.C, self.C
        log_xm = sum(math.log2(a) for a in alphabet_sizes)
        b = max(1, math.ceil(log_xm / (self.nu_value - self.eps)))
        c = max(8, math.ceil(3 * self.rounds * m * b / self.alpha))
        return c, min(c, SUBCODEBOOK_CAP)

    def subcodebook_count(self, m: int, alphabet_sizes: Sequence[int]) -> int:
        requested, used = self.subcodebook_counts(m, alphabet_sizes)
        if used < requested:
            warnings.warn(
                f"subcodebook count {requested} capped at {used} for desk scale",
                RuntimeWarning, stacklevel=2)
        return used


@dataclass
class TranscriptRecord:
    round: int
    sensor: int
    c: int
    j: int
    bin_index: int
    bits: float


@dataclass
class DecoderState:
    """Everything the decoder carries across a session."""

    V: tuple[SubsetView, ...]
    estimates: dict = field(default_factory=dict)   # sensor -> sequence or None
    transcript: list = field(default_factory=list)

    def U(self) -> SubsetView:
        return union_of(self.V)


@dataclass(frozen=True)
class SessionReport:
    """Per-session outcome summary."""

    honest_error_rounds: tuple[bool, ...]
    round_rates: tuple[float, ...]          # bin bits per source symbol, per round
    sum_rate: float                         # total bin bits / (n * rounds)
    v_trajectory: tuple[tuple[SubsetView, ...], ...]
    phase_transactions: tuple[dict, ...]    # per round: sensor -> j count
    subcode_bits_total: float               # announced c indices, bits
    decode_forced: int                      # phases resolved by the exhaustion rule
    v_empty_restores: int
    feedback_ratio: float                   # log2(C * Jmax) / min block bits
    transcript: tuple
    round_estimates: tuple = ()             # per round: sensor -> decoded sequence

    @property
    def honest_error(self) -> bool:
        return any(self.honest_error_rounds)

    @property
    def final_V(self) -> tuple[SubsetView, ...]:
        return self.v_trajectory[-1]


# ---------------------------------------------------------------------------
# phase decoding
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cell_entropies(alphabet: int, s: int, n: int) -> np.ndarray:
    """G(y) = [f(s) - sum_a f(#a in y)] / n for every y in alphabet^s, as a
    read-only array in ``all_sequences`` order, with f(c) = c log2 c: one
    prior cell's share of an empirical conditional entropy at block length
    n."""
    f = np.arange(n + 1) * np.log2(np.maximum(np.arange(n + 1), 1))
    seqs = all_sequences(alphabet, s)
    fsum = sum(f[(seqs == a).sum(axis=1)] for a in range(alphabet))
    g = (f[s] - fsum) / n
    g.setflags(write=False)
    return g


def _conditional_type_entropies(rows: np.ndarray, alphabet: int,
                                prior_flat: np.ndarray | None) -> np.ndarray:
    """H_type(X_i | X_prior) in bits for every row of a (k, n) candidate
    array.

    The entropy splits over prior cells: with S_p the slots whose prior
    symbol is p, H(x) = sum_p G_p(x restricted to S_p) (``_cell_entropies``),
    each G_p read at the index of x's S_p symbols in ``all_sequences``
    order. Cells are added in increasing p, starting from zero, so a row's
    value does not depend on which other rows are scored. Without a prior
    the one cell holds every slot.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    cells = np.zeros(n, dtype=np.int64) if prior_flat is None else prior_flat
    slot_counts = np.bincount(cells)
    h = np.zeros(len(rows))
    for p in np.flatnonzero(slot_counts):
        s = int(slot_counts[p])
        h += _cell_entropies(alphabet, s, n)[
            np.ravel_multi_index(rows[:, cells == p].T, (alphabet,) * s)]
    return h


def _decode_phase(cb: BinningCodebook, prior: list[tuple[int, np.ndarray]],
                  sizes: Sequence[int], c: int, eps: float,
                  next_message: Callable[[int], int]):
    """Run transactions with one sensor until the T_j search succeeds.

    Returns (estimate, j_used (1-based count), received indices, forced flag).
    ``next_message(j)`` polls the sensor for block j's bin index.
    """
    n = cb.n
    received = [int(next_message(0))]
    # block 0 has the most bins: of the whole space, about one sequence
    # shares the received bin, and only those can match any later block
    members = np.nonzero(cb.encode_space(c, 0) == received[0])[0]
    rows = all_sequences(cb.alphabet_size, n)[members]
    prior_flat = None
    if prior:
        prior_flat = np.ravel_multi_index(tuple(np.stack([seq for _s, seq in prior])),
                                          [sizes[s] for s, _seq in prior])
    cond_h = _conditional_type_entropies(rows, cb.alphabet_size, prior_flat)
    matched = np.ones(len(rows), dtype=bool)    # rows matching every received index
    later = None                                # rows' bins on blocks 1..J-1
    for j in range(cb.J):
        if j:
            received.append(int(next_message(j)))
            if matched.any():
                if later is None:
                    later = cb.encode_blocks(rows, c, range(1, cb.J))
                matched &= later[j - 1] == received[j]
        hit = np.nonzero(matched & (cond_h <= (j + 1) * eps + 1e-12))[0]
        if hit.size:
            return np.array(rows[hit[0]], dtype=np.int64), j + 1, received, False
    # Exhausted all blocks with no candidate matching the full chain; this is
    # only reachable when the sender's messages are inconsistent with every
    # sequence (a garbage-spewing traitor). Take the lexicographically least
    # sequence as the forced estimate; the V update will handle elimination.
    return np.zeros(n, dtype=np.int64), cb.J, received, True


# ---------------------------------------------------------------------------
# V update
# ---------------------------------------------------------------------------

def _ball_marginal_feasible_perfect(t_u: np.ndarray, sizes_u: Sequence[int],
                                    pos_in_u: dict, S: SubsetView,
                                    p_s: np.ndarray, tau_u: float) -> bool:
    """Exact perfect-information membership test of a type in the eta-blurred
    simulable set of candidate S, restricted to the decoded coordinates U.

    A law q over X_U with q(x_S) = p(x_S) exists within the tau_u-ball of the
    type iff, for every x_S fiber,

        sum_fiber max(0, t - tau_u)  <=  p(x_S)  <=  sum_fiber (t + tau_u),

    because cells inside a fiber can be adjusted independently. The induced
    tolerance on the S-marginal is tau_u * |fiber| = eta / |X_S|: marginalizing
    a per-cell ball multiplies the per-cell tolerance by the number of
    collapsed cells.
    """
    axes_keep = tuple(pos_in_u[i] for i in S)
    move = np.moveaxis(t_u, axes_keep, range(len(axes_keep)))
    flat = move.reshape(int(np.prod([sizes_u[k] for k in axes_keep])), -1)
    lower = np.maximum(flat - tau_u, 0.0).sum(axis=1)
    upper = (flat + tau_u).sum(axis=1)
    ps = p_s.reshape(-1)
    return bool(np.all(lower - 1e-12 <= ps) and np.all(ps <= upper + 1e-12))


def _ball_membership_general(t_u: np.ndarray, U: SubsetView, S: SubsetView,
                             r_tilde: ConditionalPMF, p: JointPMF, tau_u: float,
                             *, tol: float = 1e-7) -> bool:
    """Imperfect-information membership: does some simulable law sit within
    the tau_u-ball (widened by ``tol``) of the type? An LP feasibility
    question, decided by phase 1 of the simplex: y = A qbar with each row
    of qbar on its simplex and lo <= y <= hi, the box held by slack columns
    as A qbar - s = max(lo, 0) and A qbar + s' = hi."""
    p_u = marginal(p, U)
    inner = SubsetView(tuple(i for i in U if i not in S))
    if len(inner) == 0:
        p_s = marginal(p, S).mass
        return bool(np.max(np.abs(t_u.reshape(p_s.shape) - p_s)) <= tau_u + 1e-12)
    # Re-index the problem to live on the U coordinates only.
    pos = {i: k for k, i in enumerate(U)}
    A = _simulability_matrix(p_u, SubsetView(tuple(pos[i] for i in S)), r_tilde)
    w = r_tilde.output_alphabet_size
    target = t_u.reshape(-1)
    eye = np.eye(target.size)
    zero = np.zeros_like(eye)
    rows = np.block([[A, -eye, zero], [A, zero, eye],
                     [_row_sums(w, A.shape[1] // w), np.zeros((w, 2 * target.size))]])
    rhs = np.concatenate([np.maximum(target - tau_u - tol, 0.0), target + tau_u + tol,
                          np.ones(w)])
    return LinearProgram(rows, rhs).feasible


def update_V(V: Sequence[SubsetView], estimates: dict, U_prev: SubsetView,
             p: JointPMF, info_model: InfoModel, eta: float, n: int,
             marginals: dict):
    """One end-of-round prune of the candidate collection: keep S iff the
    empirical type of the decoded block is consistent with some channel the
    code accepts for S. Returns (new V, emptied flag); on emptying, the caller
    restores the previous V (vanishing-probability event at proper
    parameters) and logs it.

    The type is the count of each X_U cell over the n decoded slots,
    divided by n. ``marginals`` maps each candidate S to
    ``marginal(p, S).mass``, which the perfect-information test reads; a
    session computes them once, since p is fixed."""
    sizes_u = tuple(p.alphabet_sizes[i] for i in U_prev)
    flat = np.ravel_multi_index(tuple(estimates[i] for i in U_prev), sizes_u)
    t_u = (np.bincount(flat, minlength=math.prod(sizes_u)) / n).reshape(sizes_u)
    tau_u = eta / int(np.prod(sizes_u))
    pos_in_u = {i: k for k, i in enumerate(U_prev)}

    kept = []
    for S in V:
        if not S.is_subset_of(U_prev):
            continue
        if info_model.perfect:
            ok = _ball_marginal_feasible_perfect(t_u, sizes_u, pos_in_u, S,
                                                 marginals[S], tau_u)
        else:
            ok = False
            for chan in info_model.channels_for(S):
                r_t = _effective_channel(chan, p, S)
                if _ball_membership_general(t_u, U_prev, S, r_t, p, tau_u):
                    ok = True
                    break
        if ok:
            kept.append(S)
    if not kept:
        return tuple(V), True
    return tuple(kept), False


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def run_round(state: DecoderState, block: SourceBlock, w_block,
              codebooks: dict, strategy: TraitorStrategy | None,
              ctx: TraitorContext, params: ProtocolParams, seed: int,
              round_index: int):
    """Play one round on a fresh block: one phase per sensor in U(V), in
    ascending order, updating the decoder state in place.

    Returns (round bin bits, per-sensor transaction counts, forced-phase
    count). The candidate-collection prune happens after the round, in the
    caller, so U(V) stays fixed for the whole round.
    """
    m = len(codebooks)
    sizes = [codebooks[i].alphabet_size for i in range(m)]
    traitors = ctx.traitors
    C = codebooks[0].C
    ctx.w_block = w_block
    ctx.own_block = (SourceBlock(params.n, block.subset(traitors.indices))
                     if len(traitors) else None)
    if strategy is not None:
        strategy.begin_round(ctx, round_index)

    state.estimates = {i: None for i in range(m)}
    round_bits = 0.0
    tx_counts = {}
    forced_count = 0
    prior: list[tuple[int, np.ndarray]] = []
    for i in sorted(state.U().indices):
        cb = codebooks[i]
        if i in traitors and strategy is not None:
            c = strategy.choose_subcodebook(ctx, i, C)
            sender = lambda j, _i=i, _c=c: strategy.respond(ctx, _i, _c, j)
        else:
            c = int(rng_for(seed, "subcode", round_index, i).integers(C))
            sender = cb.encode_chain(block.sensor(i), c).__getitem__
        est, j_used, received, forced = _decode_phase(
            cb, prior, sizes, c, params.eps, sender)
        assert j_used <= cb.J
        forced_count += forced
        state.estimates[i] = est
        prior.append((i, est))
        tx_counts[i] = j_used
        for j in range(j_used):
            bits = cb.block_bits(j)
            round_bits += bits
            state.transcript.append(
                TranscriptRecord(round_index, i, c, j, received[j], bits))
            ctx.note_poll((round_index, i, j))
    return round_bits, tx_counts, forced_count


def run_session(p: JointPMF, H: HonestCollection, info_model: InfoModel,
                honest_true: SubsetView, r_true: ConditionalPMF | None,
                strategy: TraitorStrategy | None, params: ProtocolParams,
                seed: int) -> SessionReport:
    """Play one full session and account for every bit.

    ``r_true`` may be None under perfect information (the identity channel is
    implied). ``strategy`` may be None when there are no traitors.
    """
    m = p.m
    sizes = p.alphabet_sizes
    n = params.n
    traitors = honest_true.complement(m)
    if len(traitors) == 0:
        strategy = None
    C = params.subcodebook_count(m, sizes)

    if r_true is None:
        if not info_model.perfect:
            raise ValueError("imperfect information requires the true channel")
        from .prob_core import identity_channel
        r_true = identity_channel(sizes)

    if n * math.log2(max(sizes)) > 22 + 1e-9:
        # before any sender encodes: bin counts may overflow at such n
        raise EnumerationGuardError("phase search space exceeds the 2^22 guard")
    codebooks = {
        i: BinningCodebook(i, n, sizes[i], params.eps, params.nu_value, C,
                           derive_seed(seed, "codebook", i))
        for i in range(m)
    }
    ctx = TraitorContext(traitors=traitors, seed=derive_seed(seed, "traitor"),
                         alphabet_sizes=sizes, codebooks=codebooks)

    state = DecoderState(V=tuple(H.candidates))
    marginals = {S: marginal(p, S).mass for S in H.candidates}
    honest_errors = []
    round_rates = []
    v_traj = [state.V]
    phase_tx = []
    round_estimates = []
    subcode_bits = 0.0
    forced_count = 0
    restores = 0

    j_max = max(cb.J for cb in codebooks.values())
    min_block_bits = min(cb.block_bits(j) for cb in codebooks.values()
                         for j in range(cb.J))
    feedback_ratio = math.log2(C * j_max) / min_block_bits if min_block_bits > 0 else math.inf

    for I in range(params.rounds):
        block = sample_block(p, n, derive_seed(seed, "block", I))
        w_block = sample_side_info(r_true, block, derive_seed(seed, "sideinfo", I))
        round_bits, tx_counts, forced = run_round(
            state, block, w_block, codebooks, strategy, ctx, params, seed, I)
        forced_count += forced

        newV, emptied = update_V(state.V, state.estimates, state.U(), p,
                                 info_model, params.eta_value, n, marginals)
        if emptied:
            restores += 1
        else:
            assert all(any(s.indices == v.indices for v in state.V) for s in newV)
            state.V = newV
        v_traj.append(state.V)

        err = False
        for i in honest_true:
            est = state.estimates.get(i)
            if est is None or not np.array_equal(est, block.sensor(i)):
                err = True
                break
        honest_errors.append(err)
        round_rates.append(round_bits / n)
        phase_tx.append(tx_counts)
        round_estimates.append({i: e for i, e in state.estimates.items()
                                if e is not None})
        subcode_bits += len(tx_counts) * math.log2(C)

    # canonical accounting: one left-to-right sum over the transcript, so the
    # reported rate equals sum(log2 bin count) / (n N) bit-exactly
    total_rate = sum(rec.bits for rec in state.transcript) / (n * params.rounds)
    return SessionReport(
        honest_error_rounds=tuple(honest_errors),
        round_rates=tuple(round_rates),
        sum_rate=total_rate,
        v_trajectory=tuple(v_traj),
        phase_transactions=tuple(phase_tx),
        subcode_bits_total=subcode_bits,
        decode_forced=forced_count,
        v_empty_restores=restores,
        feedback_ratio=feedback_ratio,
        transcript=tuple(state.transcript),
        round_estimates=tuple(round_estimates),
    )


def transcript_lines(report: SessionReport) -> list[str]:
    """Transcript export: one structured line per transaction, for audit and
    replay. Phases are identified with sensors (phase i polls sensor i)."""
    import json
    return [json.dumps({"round": r.round, "phase": r.sensor, "sensor": r.sensor,
                        "c": r.c, "j": r.j, "bin": r.bin_index, "bits": r.bits},
                       sort_keys=True)
            for r in report.transcript]
