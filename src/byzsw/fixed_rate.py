"""One-shot fixed-rate coding: deterministic and randomized variants.

Every sensor sends a single bin index at its fixed rate (randomized coding
prepends a uniformly chosen subcodebook index). The decoder runs one
Slepian-Wolf style search per candidate honest set S: it enumerates the
sequences matching each received bin and keeps the lexicographically least
jointly typical tuple, or null when none exists. Per-sensor final estimates
are reconciled across candidate sets by a deterministic preference order
(largest candidate set first, then optional plurality voting, then
lexicographic set order); disagreements between non-null estimates are
reported as diagnostics.

``run_fixed_rate_trial`` plays one block end to end, the fixed-rate
counterpart of ``variable_rate.run_session``: the schemes' trials and the
deterministic-coding converse (traitors running the ambiguity attack) are
the same call with different strategies.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adversary import TraitorContext, TraitorStrategy
from .binning import (
    EnumerationGuardError,
    all_sequences,
    bin_members,
    fixed_rate_encode,
)
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    eta_ball_contains,
    identity_channel,
    marginal,
    type_of,
)
from .rate_region import HonestCollection
from .source_model import SourceBlock, derive_seed, rng_for, sample_block, sample_side_info

COMBO_GUARD = 1 << 22


@dataclass(frozen=True)
class FixedRateCode:
    """Fixed per-sensor rates in bits/symbol, block length, coding kind.

    ``eps_decode`` is the typicality width used by the decoder's search. The
    asymptotic theory wants it vanishing; at desk-scale n it must be wide
    enough that the true tuple's type lands inside the ball (per-cell type
    fluctuations are O(1/sqrt(n))).
    """

    rates: tuple[float, ...]
    n: int
    kind: str = "deterministic"
    C: int = 1
    seed: int = 0
    eps_decode: float = 1.4

    def __post_init__(self):
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be nonnegative")
        if self.kind not in ("deterministic", "randomized"):
            raise ValueError(f"unknown kind {self.kind!r}")
        # C >= 2 is what gives randomized coding its power; C = 1 is legal and
        # reduces bit-exactly to the deterministic kind.
        if self.C < 1:
            raise ValueError("need at least one subcodebook")
        if self.kind == "deterministic" and self.C != 1:
            raise ValueError("deterministic coding has exactly one codebook")
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    @property
    def m(self) -> int:
        return len(self.rates)


@dataclass
class EstimateTable:
    """Per-(sensor, candidate-set) estimates plus reconciled finals."""

    per_set: dict          # SubsetView -> tuple of sequences (aligned) or None
    final: dict            # sensor -> sequence or None
    disagreements: list    # (sensor, set_a, set_b) where both non-null differ


def encode_all(code: FixedRateCode, block: SourceBlock,
               strategy: TraitorStrategy | None, ctx: TraitorContext | None,
               p: JointPMF, seed: int) -> dict[int, tuple[int, int]]:
    """Messages from every sensor: honest ones bin their true sequences
    (randomized kind draws c uniformly), traitors follow their strategy."""
    messages = {}
    traitors = ctx.traitors if ctx is not None else SubsetView(())
    for i in range(code.m):
        if i in traitors:
            continue
        c = 0
        if code.kind == "randomized":
            c = int(rng_for(seed, "fr-subcode", i).integers(code.C))
        idx = fixed_rate_encode(code.seed, i, block.sensor(i), code.rates[i], c)
        messages[i] = (c, idx)
    if strategy is not None and len(traitors) > 0:
        messages.update(strategy.fixed_rate_messages(ctx, code, block, p))
    elif len(traitors) > 0:
        raise ValueError("traitors present but no strategy supplied")
    if sorted(messages) != list(range(code.m)):
        raise ValueError("incomplete message set")
    return messages


def decode_all(code: FixedRateCode, messages: Mapping[int, tuple[int, int]],
               p: JointPMF, H: HonestCollection, *,
               plurality: bool = False) -> EstimateTable:
    """Per-candidate-set typical-search decoding plus final reconciliation."""
    sizes = p.alphabet_sizes
    match_lists = {i: bin_members(code.seed, i, messages[i][1], sizes[i], code.n,
                                  code.rates[i], messages[i][0])
                   for i in range(code.m)}
    seq_tables = {i: all_sequences(sizes[i], code.n) for i in range(code.m)}

    per_set = {}
    for S in H.candidates:
        idx_lists = [match_lists[i] for i in S]
        total = 1
        for lst in idx_lists:
            total *= max(1, len(lst))
        if total > COMBO_GUARD:
            raise EnumerationGuardError(
                f"candidate tuple space {total} exceeds guard {COMBO_GUARD}")
        p_s = marginal(p, S)
        found = None
        for combo in itertools.product(*idx_lists):
            tup = np.stack([seq_tables[i][k] for i, k in zip(S, combo)])
            if eta_ball_contains(p_s, type_of(tup, p_s.alphabet_sizes),
                                 code.eps_decode):
                found = tuple(np.array(seq_tables[i][k], dtype=np.int64)
                              for i, k in zip(S, combo))
                break
        if found is not None:
            # bin-membership recheck: never emit an estimate inconsistent
            # with what was actually received
            for i, seq in zip(S, found):
                c, idx = messages[i]
                assert fixed_rate_encode(code.seed, i, seq, code.rates[i], c) == idx
        per_set[S.indices] = found

    final = {}
    disagreements = []
    order = sorted(H.candidates, key=lambda s: (-len(s), s.indices))
    for i in range(code.m):
        containing = [S for S in order if i in S]
        values = []
        for S in containing:
            tup = per_set[S.indices]
            if tup is not None:
                values.append((S, tup[list(S.indices).index(i)]))
        for (sa, va), (sb, vb) in itertools.combinations(values, 2):
            if not np.array_equal(va, vb):
                disagreements.append((i, sa, sb))
        if not values:
            final[i] = None
        elif plurality and len(values) > 1:
            buckets: list[list] = []      # [count, value, first preference rank]
            for rank, (S, v) in enumerate(values):
                for bucket in buckets:
                    if np.array_equal(bucket[1], v):
                        bucket[0] += 1
                        break
                else:
                    buckets.append([1, v, rank])
            best = max(buckets, key=lambda b: (b[0], -b[2]))
            final[i] = best[1]
        else:
            final[i] = values[0][1]
    return EstimateTable(per_set, final, disagreements)


def run_fixed_rate_trial(code: FixedRateCode, p: JointPMF, H: HonestCollection,
                         honest_true: SubsetView, strategy: TraitorStrategy | None,
                         seed: int, *, r_true: ConditionalPMF | None = None,
                         plurality: bool = False
                         ) -> tuple[SourceBlock, EstimateTable, tuple[int, ...]]:
    """One fixed-rate block end to end: sample it, let the traitors answer
    through ``strategy`` from their side information (W drawn through
    ``r_true``, the identity channel when None) and own rows, encode every
    sensor and decode. Returns the block, the estimate table and the true
    honest sensors decoded wrongly or not at all."""
    block = sample_block(p, code.n, derive_seed(seed, "fr-block"))
    traitors = honest_true.complement(code.m)
    ctx = None
    if len(traitors) > 0:
        r = r_true if r_true is not None else identity_channel(p.alphabet_sizes)
        ctx = TraitorContext(traitors=traitors, seed=derive_seed(seed, "traitor"),
                             alphabet_sizes=p.alphabet_sizes,
                             w_block=sample_side_info(r, block,
                                                      derive_seed(seed, "fr-sideinfo")),
                             own_block=SourceBlock(code.n, block.subset(traitors.indices)))
    messages = encode_all(code, block, strategy, ctx, p, derive_seed(seed, "fr-honest"))
    table = decode_all(code, messages, p, H, plurality=plurality)
    wrong = tuple(i for i in honest_true
                  if table.final[i] is None
                  or not np.array_equal(table.final[i], block.sensor(i)))
    return block, table, wrong
