"""Decoder-driven variable-rate polling protocol.

A session is N rounds over fresh length-n blocks. Each round runs one phase
per still-plausible sensor, in ascending index order. In phase i the sensor
announces a uniformly chosen subcodebook c and streams incremental bin
indices; after j transactions the decoder searches the set

    T_j(prior) = { x : H_type(X_i | X_prior) <= j * eps }

for sequences matching the received composite bin, stops at the first
non-empty intersection, and takes the lexicographically least member.
At the end of a round the decoder prunes the collection V of candidate
honest sets by testing the empirical type of the decoded block against the
eta-blurred simulable-law sets of each candidate.

Rounds depend on each other only through U(V), the union of the candidate
sets still in V, which decides the sensors that get a phase; every random
draw is keyed by (seed, label, round). So the session plays its rounds in
passes, in lockstep: a pass plays every remaining round under the current
U(V), one sensor at a time over all of the pass's rounds, and then prunes V
round by round. If a round's prune changes U(V), the pass's later rounds
are discarded and the next pass starts after that round. Each round is
thus played under the U(V) its predecessors left, and the report is the
one a round-by-round session gives, field for field.

Within a pass, each sensor's phases for all rounds run at once:

* the senders that report a block have the chains of every round encoded
  in one kernel call, one key per (round's subcodebook, block);
* every candidate must match block 0, the block with the most bins, so the
  whole alphabet^n space is binned on block 0 under each round's
  subcodebook, as many keys per kernel call as fit in 2^14 states (4 at
  binary n = 12, one from binary n = 14 on); about one sequence per round
  shares the received bin, and only those members are scored;
* the empirical conditional entropy splits over the cells of the prior
  sensors' decoded symbols, so all members are scored, each under its own
  round's prior, from one count of (member, cell, symbol);
* the j-loop then runs over the still-undecided rounds together: the
  members are binned on blocks 1..J-1 in one more kernel call, and each
  later transaction is a comparison on these few rows. A traitor that
  reports no block is polled for exactly the blocks its phases use.

The prune tests every round's type against each candidate set in one array
expression under perfect information, and one LP per round and candidate
under imperfect information.

Rate accounting is exact: the reported sum rate is the sum of
log2(actual bin count) over all transactions divided by n*N. The subcodebook
announcements (log2 C bits each) are tracked separately, matching the
zero-rate-feedback treatment of the scheme.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
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

# Whole-space states per block-0 kernel call: as many keys as fit, 4 at
# binary n = 12 and one from binary n = 14 on. Measured on three_sensor
# trials, 4 keys per call beat 2 and 8 on time, and peak memory grows with
# the keys: the (keys, space) arrays are the pass's largest.
_SPACE_STATES = 1 << 14


@lru_cache(maxsize=None)
def _xlogx(n: int) -> np.ndarray:
    """f(c) = c log2 c for c = 0..n, cached and read-only."""
    f = np.arange(n + 1) * np.log2(np.maximum(np.arange(n + 1), 1))
    f.setflags(write=False)
    return f


def _conditional_type_entropies(rows: np.ndarray, alphabet: int,
                                cells: np.ndarray | None) -> np.ndarray:
    """H_type(X_i | X_prior) in bits for every row of a (k, n) candidate
    array, row r under the prior cells ``cells[r]`` (a (k, n) array of flat
    prior symbols per slot, an (n,) array shared by every row, or None
    without a prior).

    The entropy splits over prior cells: with S_p the s_p slots whose prior
    symbol is p, H(x) = sum_p [f(s_p) - sum_a f(#a in x restricted to S_p)]
    / n, f(c) = c log2 c. One ``bincount`` counts every (row, cell, symbol);
    the symbols' terms are added in increasing a and the cells in increasing
    p, starting from zero, so a row's value does not depend on which other
    rows are scored.
    """
    rows = np.asarray(rows)
    k, n = rows.shape
    cells = np.zeros((k, n), dtype=np.int64) if cells is None else np.broadcast_to(cells, (k, n))
    num_cells = int(cells.max()) + 1 if k else 1
    code = (np.arange(k)[:, None] * num_cells + cells) * alphabet + rows
    counts = np.bincount(code.ravel(), minlength=k * num_cells * alphabet).reshape(
        k, num_cells, alphabet)
    f = _xlogx(n)
    fsum = f[counts[..., 0]]
    for a in range(1, alphabet):
        fsum = fsum + f[counts[..., a]]
    g = (f[counts.sum(axis=2)] - fsum) / n
    return np.cumsum(g, axis=1)[:, -1]


def _decode_phases(cb: BinningCodebook, cs: Sequence[int], cells: np.ndarray | None,
                   eps: float, message: Callable[[int, np.ndarray], np.ndarray]):
    """Run one sensor's phases of a pass at once, one per subcodebook in
    ``cs``, each until its T_j search succeeds.

    ``cells`` gives each phase's prior cells per slot (an (R, n) array, or
    None without a prior), and ``message(j, ks)`` polls the phases ``ks`` (an
    index array) for block j's bin index; phase k is polled for block j only
    while it is undecided. Returns the estimates as an (R, n) int64 array,
    the transactions each phase used, the received indices as a (J, R)
    array (-1 where a phase was not polled) and the forced-decode flags.
    """
    R, n, J = len(cs), cb.n, cb.J
    received = np.full((J, R), -1, dtype=np.int64)
    received[0] = message(0, np.arange(R))
    # block 0 has the most bins: of the whole space, about one sequence per
    # phase shares its received bin, and only those can match a later block
    space = cb.alphabet_size ** n
    keys = max(1, _SPACE_STATES // space)
    found = [np.flatnonzero(cb.encode_space(cs[lo:lo + keys], 0)
                            == received[0, lo:lo + keys, None]) + lo * space
             for lo in range(0, R, keys)]
    phase, members = np.divmod(np.concatenate(found), space)    # by phase, then index
    rows = all_sequences(cb.alphabet_size, n)[members]
    cond_h = _conditional_type_entropies(rows, cb.alphabet_size,
                                         None if cells is None else cells[phase])

    estimates = np.zeros((R, n), dtype=np.int64)
    j_used = np.full(R, J)
    forced = np.ones(R, dtype=bool)
    open_ = np.ones(R, dtype=bool)              # phases still searching
    matched = np.ones(len(rows), dtype=bool)    # members matching every received index
    later = None                                # members' bins on blocks 1..J-1
    for j in range(J):
        if j:
            received[j, open_] = message(j, np.flatnonzero(open_))
            live = matched & open_[phase]
            if live.any():
                if later is None:
                    later = np.full((J - 1, len(rows)), -1, dtype=np.int64)
                    pick = open_[phase]
                    later[:, pick] = cb.encode_rows(rows[pick], [cs[k] for k in phase[pick]],
                                                    range(1, J))
                matched &= later[j - 1] == received[j, phase]
        hits = np.flatnonzero(matched & open_[phase] & (cond_h <= (j + 1) * eps + 1e-12))
        ks, first = np.unique(phase[hits], return_index=True)   # least member per phase
        estimates[ks] = rows[hits[first]]
        j_used[ks] = j + 1
        forced[ks] = False
        open_[ks] = False
        if not open_.any():
            break
    # A phase still open has exhausted all blocks with no member matching the
    # full chain; this is only reachable when the sender's messages fit no
    # sequence (a garbage-spewing traitor). Its forced estimate is the
    # lexicographically least sequence; the V update handles elimination.
    return estimates, j_used, received, forced


# ---------------------------------------------------------------------------
# V update
# ---------------------------------------------------------------------------

def _ball_marginal_feasible_perfect(t_u: np.ndarray, U: SubsetView, S: SubsetView,
                                    p_s: np.ndarray, tau_u: float) -> np.ndarray:
    """Exact perfect-information membership test of each round's type in the
    eta-blurred simulable set of candidate S, restricted to the decoded
    coordinates U: ``t_u`` is an (R, *sizes_U) array of types, and the
    result has one flag per round.

    A law q over X_U with q(x_S) = p(x_S) exists within the tau_u-ball of the
    type iff, for every x_S fiber,

        sum_fiber max(0, t - tau_u)  <=  p(x_S)  <=  sum_fiber (t + tau_u),

    because cells inside a fiber can be adjusted independently. The induced
    tolerance on the S-marginal is tau_u * |fiber| = eta / |X_S|: marginalizing
    a per-cell ball multiplies the per-cell tolerance by the number of
    collapsed cells.
    """
    axes_keep = [1 + U.indices.index(i) for i in S]
    move = np.moveaxis(t_u, axes_keep, range(1, 1 + len(axes_keep)))
    flat = move.reshape(len(t_u), p_s.size, -1)       # (rounds, |X_S|, fiber)
    lower = np.maximum(flat - tau_u, 0.0).sum(axis=2)
    upper = (flat + tau_u).sum(axis=2)
    ps = p_s.reshape(-1)
    return np.all(lower - 1e-12 <= ps, axis=1) & np.all(ps <= upper + 1e-12, axis=1)


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


def update_V(V: Sequence[SubsetView], round_estimates: Sequence[dict], U: SubsetView,
             p: JointPMF, info_model: InfoModel, eta: float, n: int,
             marginals: dict) -> tuple[list, list]:
    """The end-of-round prunes of the candidate collection over a pass, round
    by round: keep S iff the empirical type of the round's decoded block is
    consistent with some channel the code accepts for S. If a prune empties
    V, the previous V is restored (a vanishing-probability event at proper
    parameters) and the round is flagged.

    ``round_estimates`` holds one dict per round of the pass, mapping each
    sensor of U = U(V) to its decoded block. Returns (the V after each
    round's prune, the emptied flags), stopping after the first round whose
    prune changes U(V): the later rounds were played under a U that no
    longer holds.

    The type is the count of each X_U cell over the n decoded slots,
    divided by n. Under perfect information every candidate is tested on
    every round's type at once; ``marginals`` maps each candidate S to
    ``marginal(p, S).mass``, which that test reads. Under imperfect
    information each round's remaining candidates are tested one LP at a
    time."""
    sizes_u = tuple(p.alphabet_sizes[i] for i in U)
    cells_u = math.prod(sizes_u)
    flat = np.ravel_multi_index(
        tuple(np.array([[est[i] for est in round_estimates] for i in U])), sizes_u)
    rounds = len(round_estimates)
    counts = np.bincount((np.arange(rounds)[:, None] * cells_u + flat).ravel(),
                         minlength=rounds * cells_u)
    t_u = (counts / n).reshape((rounds,) + sizes_u)
    tau_u = eta / cells_u
    if info_model.perfect:
        passed = {S: _ball_marginal_feasible_perfect(t_u, U, S, marginals[S], tau_u)
                  for S in V}

    V = tuple(V)
    trajectory, emptied = [], []
    for r in range(rounds):
        if info_model.perfect:
            kept = tuple(S for S in V if passed[S][r])
        else:
            kept = tuple(S for S in V if any(
                _ball_membership_general(t_u[r], U, S, _effective_channel(chan, p, S), p,
                                         tau_u)
                for chan in info_model.channels_for(S)))
        emptied.append(not kept)
        V = kept or V
        trajectory.append(V)
        if union_of(V).indices != U.indices:
            break
    return trajectory, emptied


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

@dataclass
class RoundDraws:
    """One round's draws: its source block, and each traitor's reported
    block (None for a traitor that is polled instead)."""

    block: SourceBlock
    reported: dict


@dataclass
class RoundResult:
    """One played round: the decoded blocks and transaction counts per
    sensor of U (ascending), its transcript records, its bin bits (summed
    in transcript order) and its forced phases."""

    estimates: dict
    tx_counts: dict
    records: list
    bits: float
    forced: int


def _draw_round(p: JointPMF, r_true: ConditionalPMF, strategy: TraitorStrategy | None,
                ctx: TraitorContext, n: int, seed: int, round_index: int) -> RoundDraws:
    """The round's block and side information from their keyed streams,
    then the traitors' reported blocks for the round."""
    block = sample_block(p, n, derive_seed(seed, "block", round_index))
    ctx.w_block = sample_side_info(r_true, block, derive_seed(seed, "sideinfo", round_index))
    traitors = ctx.traitors
    ctx.own_block = (SourceBlock(n, block.subset(traitors.indices))
                     if len(traitors) else None)
    if strategy is None:
        return RoundDraws(block, {})
    strategy.begin_round(ctx, round_index)
    return RoundDraws(block, {i: strategy.reported_block(ctx, i) for i in traitors})


def run_round(U: SubsetView, rounds: Sequence[RoundDraws], first: int, codebooks: dict,
              strategy: TraitorStrategy | None, ctx: TraitorContext,
              params: ProtocolParams, seed: int) -> list[RoundResult]:
    """Play the phases of one pass: rounds first, first+1, ... (one per
    entry of ``rounds``), all under the same U(V), one phase per sensor of U
    in ascending order. Each sensor's phases for every round of the pass run
    at once, with the estimates of the sensors before it as their priors.

    A sender that reports a block (an honest sensor, or a traitor whose
    strategy reports one) has the chains of all its rounds encoded in one
    kernel call; a traitor that reports None is polled through ``respond``.
    The candidate-collection prune happens after the pass, in the caller.
    Returns one result per round.
    """
    R = len(rounds)
    C = codebooks[0].C
    results = [RoundResult({}, {}, [], 0.0, 0) for _ in range(R)]
    prior, prior_sizes = [], []
    for i in sorted(U.indices):
        cb = codebooks[i]
        if strategy is not None and i in ctx.traitors:
            cs = [strategy.choose_subcodebook(ctx, first + k, i, C) for k in range(R)]
            sent = [rd.reported[i] for rd in rounds]
        else:
            cs = [int(rng_for(seed, "subcode", first + k, i).integers(C)) for k in range(R)]
            sent = [rd.block.sensor(i) for rd in rounds]
        polled = np.array([row is None for row in sent])
        chains = np.full((cb.J, R), -1, dtype=np.int64)
        if not polled.all():
            ks = np.flatnonzero(~polled)
            chains[:, ks] = cb.encode_rows(np.stack([sent[k] for k in ks]),
                                           [cs[k] for k in ks], range(cb.J))

        def message(j, ks):     # called only while this sensor's phases run
            for k in ks[polled[ks]].tolist():
                chains[j, k] = strategy.respond(ctx, first + k, i, cs[k], j)
            return chains[j, ks]

        cells = np.ravel_multi_index(tuple(prior), prior_sizes) if prior else None
        est, j_used, received, forced = _decode_phases(cb, cs, cells, params.eps, message)
        prior.append(est)
        prior_sizes.append(cb.alphabet_size)
        bits = [cb.block_bits(j) for j in range(cb.J)]
        for k, res in enumerate(results):
            res.estimates[i] = est[k]
            used = int(j_used[k])
            res.tx_counts[i] = used
            res.forced += bool(forced[k])
            for j in range(used):
                res.bits += bits[j]
                res.records.append(TranscriptRecord(first + k, i, cs[k], j,
                                                    int(received[j, k]), bits[j]))
    return results


def run_session(p: JointPMF, H: HonestCollection, info_model: InfoModel,
                honest_true: SubsetView, r_true: ConditionalPMF | None,
                strategy: TraitorStrategy | None, params: ProtocolParams,
                seed: int) -> SessionReport:
    """Play one full session and account for every bit.

    ``r_true`` may be None under perfect information (the identity channel is
    implied). ``strategy`` may be None when there are no traitors.

    Every round is drawn first. Then each pass plays the remaining rounds
    under the current U(V) (``run_round``) and prunes V over them in order
    (``update_V``), keeping the rounds up to the first whose prune changes
    U(V); the next pass starts after it.
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
    draws = [_draw_round(p, r_true, strategy, ctx, n, seed, r) for r in range(params.rounds)]

    V = tuple(H.candidates)
    marginals = {S: marginal(p, S).mass for S in H.candidates}
    transcript = []
    honest_errors = []
    round_rates = []
    v_traj = [V]
    phase_tx = []
    round_estimates = []
    subcode_bits = 0.0
    forced_count = 0
    restores = 0

    j_max = max(cb.J for cb in codebooks.values())
    min_block_bits = min(cb.block_bits(j) for cb in codebooks.values()
                         for j in range(cb.J))
    feedback_ratio = math.log2(C * j_max) / min_block_bits if min_block_bits > 0 else math.inf

    first = 0
    while first < params.rounds:
        U = union_of(V)
        results = run_round(U, draws[first:], first, codebooks, strategy, ctx, params, seed)
        trajectory, emptied = update_V(V, [res.estimates for res in results], U, p,
                                       info_model, params.eta_value, n, marginals)
        for res, V_after, was_emptied, rd in zip(results, trajectory, emptied, draws[first:]):
            restores += was_emptied
            v_traj.append(V_after)
            transcript.extend(res.records)
            for rec in res.records:
                ctx.note_poll((rec.round, rec.sensor, rec.j))
            forced_count += res.forced
            honest_errors.append(any(
                i not in res.estimates or not np.array_equal(res.estimates[i], rd.block.sensor(i))
                for i in honest_true))
            round_rates.append(res.bits / n)
            phase_tx.append(res.tx_counts)
            round_estimates.append(res.estimates)
            subcode_bits += len(res.tx_counts) * math.log2(C)
        first += len(trajectory)
        V = trajectory[-1]

    # canonical accounting: one left-to-right sum over the transcript, so the
    # reported rate equals sum(log2 bin count) / (n N) bit-exactly
    total_rate = sum(rec.bits for rec in transcript) / (n * params.rounds)
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
        transcript=tuple(transcript),
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
