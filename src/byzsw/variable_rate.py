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
draw is keyed by (seed, label, round). What a sensor sends depends only on
its rows and its randomness, and U(V) decides only whether the decoder
reads it. So the session draws every round before it plays any, as arrays
with a leading round axis: one inverse-CDF pass gives the (R, m, n)
blocks, one pass the (R, n) side information and one the (R, m) honest
subcodebooks. Then one ``adversary.send_rounds`` call makes every
sensor's messages for every round, a (J, R) array of bin chains per
sensor: a sender that reports a block has them encoded in one kernel call,
one key per (round's subcodebook, block), and a traitor that reports none
sends the chains its strategy's ``respond`` returns (the fake-distribution
traitor fabricates all its rows under qbar in one pass). A round's draws
are its own entries of the keyed streams (``keyed_draws``), so every draw
is the one a round-by-round session makes.

The session then decodes its rounds in passes, in lockstep: a pass decodes
every remaining round under the current U(V), one sensor at a time over
all of the pass's rounds, into one (R, |U|, n) array of estimates
(``run_round``), and then prunes V round by round on that array. If a
round's prune changes U(V), the pass's later rounds are discarded and the
next pass starts after that round, reading the same messages. Each round
is thus played under the U(V) its predecessors left, and the report is the
one a round-by-round session gives, field for field: the session builds
its transcript and per-round dicts from the kept rounds' arrays.

Within a pass, each sensor's phases for all rounds run at once:

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
  later transaction is a comparison on these few rows; a round's transcript
  holds the first j_used blocks of its chain.

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
from typing import Sequence

import numpy as np

from .adversary import TraitorContext, TraitorStrategy, send_rounds
from .binning import BinningCodebook, _check_space, all_sequences, bin_count_for_rate
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    marginal,
    type_counts,
    union_of,
)
from .rate_region import HonestCollection, InfoModel, _ball_membership_general
from .source_model import derive_seed, keyed_draws, sample_blocks, sample_side_infos

SUBCODEBOOK_CAP = 1 << 10


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters. nu > eps is required by the error analysis; the
    default nu = 5.5*eps also covers the imperfect-information requirement
    nu > 5*eps. eta >= eps with eta -> 0 as eps -> 0; default eta = 2*eps.
    C defaults to the analysis bound ceil(3*N*m*B / alpha) with
    B = ceil(log2|X_M| / (nu - eps)), capped at 1024 for desk scale. Block
    0's n*(eps+nu) bits must fit the binning kernels' 2^32 bins."""

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
        bin_count_for_rate(self.n, self.eps + self.nu_value)    # block 0 within 2^32 bins

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
                   chains: np.ndarray):
    """Run one sensor's phases of a pass at once, one per subcodebook in
    ``cs``, each until its T_j search succeeds at the codebook's eps.

    ``cells`` gives each phase's prior cells per slot (an (R, n) array, or
    None without a prior), and ``chains`` the sender's (J, R) bin indices,
    phase k's chain in column k; phase k reads block j only while it is
    undecided. Returns the estimates as an (R, n) int64 array, the
    transactions each phase used and the forced-decode flags.
    """
    R, n, J, eps = len(cs), cb.n, cb.J, cb.eps
    # block 0 has the most bins: of the whole space, about one sequence per
    # phase shares its block-0 bin, and only those can match a later block
    space = cb.alphabet_size ** n
    keys = max(1, _SPACE_STATES // space)
    found = [np.flatnonzero(cb.encode_space(cs[lo:lo + keys], 0)
                            == chains[0, lo:lo + keys, None]) + lo * space
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
            live = matched & open_[phase]
            if live.any():
                if later is None:
                    later = np.full((J - 1, len(rows)), -1, dtype=np.int64)
                    pick = open_[phase]
                    later[:, pick] = cb.encode_rows(rows[pick], [cs[k] for k in phase[pick]],
                                                    range(1, J))
                matched &= later[j - 1] == chains[j, phase]
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
    return estimates, j_used, forced


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


def update_V(V: Sequence[SubsetView], estimates: np.ndarray, p: JointPMF,
             info_model: InfoModel, eta: float) -> tuple[list, list]:
    """The end-of-round prunes of the candidate collection over a pass, round
    by round: keep S iff the empirical type of the round's decoded block is
    consistent with some channel the code accepts for S. If a prune empties
    V, the previous V is restored (a vanishing-probability event at proper
    parameters) and the round is flagged.

    ``estimates`` is the pass's (R, |U|, n) array of decoded blocks:
    ``estimates[k]`` holds round k's blocks of the sensors of U = U(V) in
    ascending order. Returns (the V after each round's prune, the emptied
    flags), stopping after the first round whose prune changes U(V): the
    later rounds were played under a U that no longer holds.

    The type is the count of each X_U cell over the n decoded slots,
    divided by n. Under perfect information every candidate S is tested on
    every round's type at once against ``marginal(p, S)``, memoized on the
    law. Under imperfect information each round's remaining candidates are
    tested one LP at a time."""
    U, n = union_of(V), estimates.shape[-1]
    sizes_u = tuple(p.alphabet_sizes[i] for i in U)
    cells_u = math.prod(sizes_u)
    flat = np.ravel_multi_index(tuple(np.moveaxis(estimates, 1, 0)), sizes_u)
    rounds = len(estimates)
    t_u = (type_counts(flat, cells_u) / n).reshape((rounds,) + sizes_u)
    tau_u = eta / cells_u
    if info_model.perfect:
        passed = {S: _ball_marginal_feasible_perfect(t_u, U, S, marginal(p, S).mass, tau_u)
                  for S in V}

    V = tuple(V)
    trajectory, emptied = [], []
    for r in range(rounds):
        if info_model.perfect:
            kept = tuple(S for S in V if passed[S][r])
        else:
            kept = tuple(S for S in V if any(
                _ball_membership_general(t_u[r], U, S, chan, p, tau_u)
                for chan in info_model.channels_for(S)))
        emptied.append(not kept)
        V = kept or V
        trajectory.append(V)
        if union_of(V) != U:
            break
    return trajectory, emptied


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def _draw_rounds(p: JointPMF, r_true: ConditionalPMF, strategy: TraitorStrategy | None,
                 ctx: TraitorContext, seed: int, rounds: int,
                 codebooks: Sequence[BinningCodebook]):
    """Every round's block, side information and honest subcodebooks, one
    draw each, then every sensor's messages for all the rounds from one
    ``send_rounds`` call.

    Returns the (R, m, n) true blocks, the (R, m) subcodebooks each sensor
    announces, and each sensor's (J, R) bin chains."""
    indices = range(rounds)
    blocks = sample_blocks(p, codebooks[0].n, seed, indices)
    ctx.w_block = sample_side_infos(r_true, blocks, seed, indices)
    C = codebooks[0].C
    cs = keyed_draws(seed, ("subcode",), indices, p.m, C)
    chains = send_rounds(strategy, ctx, blocks, indices, cs, C,
                         lambda i, x, c: codebooks[i].encode_rows(x, c, range(codebooks[i].J)),
                         [cb.bin_counts for cb in codebooks])
    return blocks, cs, chains


def run_round(U: SubsetView, cs: np.ndarray, chains: Sequence[np.ndarray],
              codebooks: Sequence[BinningCodebook]):
    """Decode the phases of one pass, all under the same U(V): one round per
    row of ``cs``, the (R, m) subcodebooks, whose chains are the columns of
    each sensor's (J, R) ``chains``. One phase per sensor of U in ascending
    order; each sensor's phases for every round of the pass run at once,
    with the estimates of the sensors before it as their priors. The
    candidate-collection prune happens after the pass, in the caller.

    Returns, for the sensors of U in order: the (R, |U|, n) estimates, and
    the (|U|, R) transactions used and forced flags.
    """
    cells = None        # the flat prior symbol of each (round, slot)
    phases = []
    for i in U:
        cb = codebooks[i]
        est, j_used, forced = _decode_phases(cb, cs[:, i].tolist(), cells, chains[i])
        cells = est if cells is None else cells * cb.alphabet_size + est
        phases.append((est, j_used, forced))
    estimates, j_used, forced = zip(*phases)
    return np.stack(estimates, axis=1), np.array(j_used), np.array(forced)


def run_session(p: JointPMF, H: HonestCollection, info_model: InfoModel,
                honest_true: SubsetView, r_true: ConditionalPMF | None,
                strategy: TraitorStrategy | None, params: ProtocolParams,
                seed: int) -> SessionReport:
    """Play one full session and account for every bit.

    ``r_true`` may be None under perfect information (the identity channel is
    implied). ``strategy`` may be None when there are no traitors.

    Every round is drawn first, in one pass, and every sensor's messages
    are made from the draws (``_draw_rounds``). Then each pass decodes the
    remaining rounds under the current U(V) (``run_round``) and prunes V
    over them in order (``update_V``), keeping the rounds up to the first
    whose prune changes U(V); the next pass starts after it. The kept
    rounds' honest errors are one comparison of the honest sensors' rows of
    the estimates array with their drawn rows, and their transcript
    records, round by round, then sensor by sensor, then block by block:
    each record's subcodebook and bin index read from the session's
    arrays.
    """
    m, sizes, n = p.m, p.alphabet_sizes, params.n
    traitors = honest_true.complement(m)
    if len(traitors) == 0:
        strategy = None
    C = params.subcodebook_count(m, sizes)

    if r_true is None:
        if not info_model.perfect:
            raise ValueError("imperfect information requires the true channel")
        from .prob_core import identity_channel
        r_true = identity_channel(sizes)

    _check_space(max(sizes), n)     # before any sender encodes: bin counts may overflow
    codebooks = [BinningCodebook(i, n, sizes[i], params.eps, params.nu_value, C,
                                 derive_seed(seed, "codebook", i)) for i in range(m)]
    ctx = TraitorContext(traitors=traitors, seed=derive_seed(seed, "traitor"), law=p)
    blocks, cs, chains = _draw_rounds(p, r_true, strategy, ctx, seed, params.rounds, codebooks)
    block_bits = [[cb.block_bits(j) for j in range(cb.J)] for cb in codebooks]

    V = tuple(H.candidates)
    transcript, honest_errors, round_rates, phase_tx, round_estimates = [], [], [], [], []
    v_traj = [V]
    subcode_bits, forced_count, restores = 0.0, 0, 0

    j_max = max(cb.J for cb in codebooks)
    min_block_bits = min(min(bits) for bits in block_bits)
    feedback_ratio = math.log2(C * j_max) / min_block_bits if min_block_bits > 0 else math.inf

    first = 0
    while first < params.rounds:
        U = union_of(V)
        estimates, j_used, forced = run_round(U, cs[first:],
                                              [chain[:, first:] for chain in chains], codebooks)
        trajectory, emptied = update_V(V, estimates, p, info_model, params.eta_value)
        kept = len(trajectory)
        if honest_true.is_subset_of(U):
            honest = list(honest_true.indices)
            decoded = estimates[:kept, [U.indices.index(i) for i in honest]]
            honest_errors.extend(np.any(decoded != blocks[first:first + kept, honest],
                                        axis=(1, 2)).tolist())
        else:       # an honest sensor outside U(V) is decoded in none of the rounds
            honest_errors.extend([True] * kept)
        restores += sum(emptied)
        v_traj.extend(trajectory)
        forced_count += int(forced[:, :kept].sum())
        for k in range(kept):
            r, bits, tx, ests = first + k, 0.0, {}, {}
            for u, i in enumerate(U):
                tx[i] = int(j_used[u, k])
                ests[i] = estimates[k, u]
                for j in range(tx[i]):
                    bits += block_bits[i][j]
                    transcript.append(TranscriptRecord(r, i, int(cs[r, i]), j,
                                                       int(chains[i][j, r]), block_bits[i][j]))
            round_rates.append(bits / n)
            phase_tx.append(tx)
            round_estimates.append(ests)
            subcode_bits += len(tx) * math.log2(C)
        first += kept
        V = trajectory[-1]

    # canonical accounting: one left-to-right sum over the transcript, so the
    # reported rate equals sum(log2 bin count) / (n N) bit-exactly
    return SessionReport(
        honest_error_rounds=tuple(honest_errors),
        round_rates=tuple(round_rates),
        sum_rate=sum(rec.bits for rec in transcript) / (n * params.rounds),
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
