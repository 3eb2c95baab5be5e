"""One-shot fixed-rate coding: deterministic and randomized variants.

Every sensor sends a single bin index at its fixed rate (a code with C > 1
subcodebooks, randomized coding, prepends a uniformly chosen subcodebook
index; C = 1 is deterministic coding), read from the bins of its whole
sequence space, which the whole-space kernel hashes once per key of a code
(``FixedRateCode.space_bins``); the encoder, the decoder and the
ambiguity attack share those bins. A code whose n * rate exceeds 32 for some
sensor, past the kernels' 2^32 bins, is refused at construction. A block is
an (m, n) int64 array. The senders are the traitor protocol's driver
(``adversary.send_rounds``) over the one round 0 with the one-shot encoder,
the call a variable-rate session makes over all its rounds
(``encode_all``): a traitor that reports no block sends block 0 of its
``respond`` chain. Deterministic coding draws no subcodebook.
The decoder runs one Slepian-Wolf style search per candidate honest set S:
it enumerates the sequences matching each received bin and keeps the
lexicographically least jointly typical tuple, or null when none exists. The
search types a block of candidate tuples with one ``bincount`` and checks
its winner with ``eta_ball_contains``, and one call of the row kernel
(``hash_rows``) rechecks that every estimate lies in the bin received, each
estimate read under its own sender's key. Per-sensor final estimates are
reconciled across candidate sets by a deterministic preference order
(largest candidate set first, then the code's optional plurality voting,
then lexicographic set order); disagreements between non-null estimates are
reported as diagnostics.

``run_fixed_rate_trial`` plays one block end to end, the fixed-rate
counterpart of ``variable_rate.run_session``: the schemes' trials and the
deterministic-coding converse (traitors running the ambiguity attack) are
the same call with different strategies.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adversary import TraitorContext, TraitorStrategy, send_rounds
from .binning import (
    EnumerationGuardError,
    all_sequences,
    bin_count_for_rate,
    fixed_rate_header,
    hash_rows,
    space_bins,
)
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    eta_ball_contains,
    identity_channel,
    marginal,
    type_counts,
    type_of,
)
from .rate_region import HonestCollection
from .source_model import derive_seed, keyed_draws, sample_block, sample_side_infos

COMBO_GUARD = 1 << 22
_TUPLE_BLOCK = 1 << 12    # candidate tuples typed per bincount


@dataclass(frozen=True)
class FixedRateCode:
    """Fixed per-sensor rates in bits/symbol, block length and the number C
    of subcodebooks: C = 1 is deterministic coding, C > 1 randomized coding.

    The decoder's settings: ``eps_decode`` is its search's typicality width
    (vanishing in the asymptotic theory; at desk-scale n wide enough that the
    true tuple's type lands inside the ball, per-cell type fluctuations being
    O(1/sqrt(n))), and ``plurality`` reconciles by plurality vote first.
    ``bin_counts`` holds each sensor's bin count at its rate.
    """

    rates: tuple[float, ...]
    n: int
    C: int = 1
    seed: int = 0
    eps_decode: float = 1.4
    plurality: bool = False

    def __post_init__(self):
        # the whole-space bins of each (sensor, alphabet, c) key, filled by
        # space_bins(); not a field, so it takes no part in equality or repr
        object.__setattr__(self, "_space", {})
        # each sensor's bin count; refuses a negative rate or past 2^32 bins
        object.__setattr__(self, "bin_counts",
                           tuple(bin_count_for_rate(self.n, r) for r in self.rates))
        if self.C < 1:
            raise ValueError("need at least one subcodebook")
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    @property
    def m(self) -> int:
        return len(self.rates)

    @property
    def kind(self) -> str:
        return "deterministic" if self.C == 1 else "randomized"

    def space_bins(self, i: int, alphabet: int, c: int = 0) -> np.ndarray:
        """Bin of every sequence of ``all_sequences(alphabet, n)`` under the
        one-shot encoder of (sensor i, subcodebook c): one whole-space kernel
        call per key, kept read-only for as long as the code lives. A trial
        makes its own code (its seed is drawn per trial), so the decoder and
        the ambiguity attack share each pass and no bins outlive the trial."""
        key = (i, alphabet, c)
        bins = self._space.get(key)
        if bins is None:
            bins = space_bins(self.seed, [fixed_rate_header(i, c)], alphabet, self.n,
                              [self.bin_counts[i]])[0]
            bins.setflags(write=False)
            self._space[key] = bins
        return bins

    def encode(self, i: int, alphabet: int, row, c: int = 0) -> int:
        """Bin of sequence ``row`` under the one-shot encoder of (sensor i,
        subcodebook c): one lookup in ``space_bins``."""
        index = np.ravel_multi_index(tuple(row), (alphabet,) * self.n)
        return int(self.space_bins(i, alphabet, c)[index])


@dataclass
class EstimateTable:
    """Per-(sensor, candidate-set) estimates plus reconciled finals."""

    per_set: dict          # SubsetView -> tuple of sequences (aligned) or None
    final: dict            # sensor -> sequence or None
    disagreements: list    # (sensor, set_a, set_b) where both non-null differ


def encode_all(code: FixedRateCode, block: np.ndarray,
               strategy: TraitorStrategy | None, ctx: TraitorContext | None,
               p: JointPMF, seed: int) -> dict[int, tuple[int, int]]:
    """Messages (c, bin) from every sensor of the (m, n) ``block``: the
    traitor protocol's one round 0 (``send_rounds``), the context holding
    that round's data. An honest sensor bins its true row (under a uniform c
    when C > 1), a traitor the row its strategy's ``begin_round`` reports,
    or, when it reports none, block 0 of the strategy's ``respond`` chain."""
    if ctx is not None and len(ctx.traitors) > 0:
        if strategy is None:
            raise ValueError("traitors present but no strategy supplied")
        ctx.code = code
    cs = (keyed_draws(seed, ("fr-subcode",), [0], code.m, code.C) if code.C > 1
          else np.zeros((1, code.m), dtype=np.int64))
    chains = send_rounds(strategy, ctx, block[None], [0], cs, code.C,
                         lambda i, x, c: [[code.encode(i, p.alphabet_sizes[i], x[0], c[0])]],
                         [[bins] for bins in code.bin_counts])
    return {i: (int(cs[0, i]), int(chain[0][0])) for i, chain in enumerate(chains)}


def _first_typical(p_s: JointPMF, rows: list[np.ndarray],
                   eps: float) -> tuple[np.ndarray, ...] | None:
    """The first tuple, in ``itertools.product`` order over each sensor's
    candidate rows, whose joint type lies in the eps ball around p_s, or
    None. Tuples are tested a block at a time: one ``bincount`` counts the
    types of a block, and max|p_s - counts/n| <= eps/cells is computed as
    ``eta_ball_contains`` computes it, which checks the winner once more."""
    shape = tuple(len(r) for r in rows)
    guarded = math.prod(max(1, k) for k in shape)
    if guarded > COMBO_GUARD:
        raise EnumerationGuardError(
            f"candidate tuple space {guarded} exceeds guard {COMBO_GUARD}")
    sizes, cells = p_s.alphabet_sizes, p_s.num_cells
    n = rows[0].shape[1]
    flat_rows = [math.prod(sizes[k + 1:]) * r.astype(np.int64) for k, r in enumerate(rows)]
    q = p_s.mass.reshape(1, -1)
    tol = eps / cells
    total = math.prod(shape)
    for start in range(0, total, _TUPLE_BLOCK):
        picks = np.unravel_index(np.arange(start, min(total, start + _TUPLE_BLOCK)), shape)
        counts = type_counts(sum(fr[k] for fr, k in zip(flat_rows, picks)), cells)
        typical = np.max(np.abs(q - counts / n), axis=1) <= tol
        if typical.any():
            r = int(typical.argmax())
            found = tuple(np.array(rw[k[r]], dtype=np.int64) for rw, k in zip(rows, picks))
            assert eta_ball_contains(p_s, type_of(np.stack(found), sizes), eps)
            return found
    return None


def decode_all(code: FixedRateCode, messages: Mapping[int, tuple[int, int]],
               p: JointPMF, H: HonestCollection) -> EstimateTable:
    """Per-candidate-set typical-search decoding plus final reconciliation."""
    sizes = p.alphabet_sizes
    members = {}
    for i in range(code.m):
        c, idx = messages[i]
        in_bin = np.flatnonzero(code.space_bins(i, sizes[i], c) == idx)
        members[i] = all_sequences(sizes[i], code.n)[in_bin]
    per_set = {S: _first_typical(marginal(p, S), [members[i] for i in S], code.eps_decode)
               for S in H.candidates}
    # bin-membership recheck: never emit an estimate inconsistent with what
    # was actually received. One kernel call bins every decoded row under
    # every sender's key, one row of bins per sender (its header repeated, so
    # derived once); row r is read under its own sensor's key.
    decoded = [(i, seq) for S, tup in per_set.items() if tup is not None
               for i, seq in zip(S, tup)]
    if decoded:
        senders = sorted({i for i, _ in decoded})
        bins = hash_rows(code.seed,
                         [[fixed_rate_header(i, messages[i][0])] * len(decoded) for i in senders],
                         np.stack([seq for _, seq in decoded]),
                         [code.bin_counts[i] for i in senders])
        got = bins[[senders.index(i) for i, _ in decoded], np.arange(len(decoded))]
        assert got.tolist() == [messages[i][1] for i, _ in decoded]

    final = {}
    disagreements = []
    order = sorted(H.candidates, key=lambda s: (-len(s), s.indices))
    for i in range(code.m):
        containing = [S for S in order if i in S]
        values = []
        for S in containing:
            tup = per_set[S]
            if tup is not None:
                values.append((S, tup[list(S.indices).index(i)]))
        for (sa, va), (sb, vb) in itertools.combinations(values, 2):
            if not np.array_equal(va, vb):
                disagreements.append((i, sa, sb))
        if not values:
            final[i] = None
        elif code.plurality and len(values) > 1:
            votes = {}                    # value -> [count, value], in preference order
            for _, v in values:
                votes.setdefault(v.tobytes(), [0, v])[0] += 1
            final[i] = max(votes.values(), key=lambda vote: vote[0])[1]
        else:
            final[i] = values[0][1]
    return EstimateTable(per_set, final, disagreements)


def run_fixed_rate_trial(code: FixedRateCode, p: JointPMF, H: HonestCollection,
                         honest_true: SubsetView, strategy: TraitorStrategy | None,
                         seed: int, *, r_true: ConditionalPMF | None = None
                         ) -> tuple[np.ndarray, EstimateTable, tuple[int, ...]]:
    """One fixed-rate block end to end: sample it, let the traitors answer
    through ``strategy`` from their side information (W drawn through
    ``r_true``, the identity channel when None) and own rows, encode every
    sensor and decode. Returns the (m, n) block, the estimate table and the
    true honest sensors decoded wrongly or not at all."""
    block = sample_block(p, code.n, derive_seed(seed, "fr-block"))
    traitors = honest_true.complement(code.m)
    ctx = None
    if len(traitors) > 0:
        r = r_true if r_true is not None else identity_channel(p.alphabet_sizes)
        ctx = TraitorContext(traitors=traitors, seed=derive_seed(seed, "traitor"), law=p,
                             w_block=sample_side_infos(r, block[None],
                                                       derive_seed(seed, "fr-sideinfo"), [0]))
    messages = encode_all(code, block, strategy, ctx, p, derive_seed(seed, "fr-honest"))
    table = decode_all(code, messages, p, H)
    wrong = tuple(i for i in honest_true
                  if table.final[i] is None
                  or not np.array_equal(table.final[i], block[i]))
    return block, table, wrong
