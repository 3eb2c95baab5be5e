"""Seeded i.i.d. generation of source blocks and traitor side information,
and the one keyed counter stream behind every random draw.

One top-level 64-bit seed drives everything. Every draw is an array from
``keyed_draws``, keyed by (seed, label) and indexed by round: the label's
key is derived once per call by keyed hashing (``derive_seed``), and entry
(r, j) is the draw at position ``rounds[r] * 2^32 + j + 1`` of that key's
counter stream, which the bins' SplitMix64 mixer makes in one numpy pass
(``binning.stream_draws``). This is counter-based generation (Salmon et
al., SC 2011): a draw depends only on its key and its position, so each
round keeps its own entries however the rounds are batched, and adding a
new label never perturbs the draws of existing ones. Uniforms carry 53 bits,
``(z >> 11) * 2^-53``; a bounded integer is z reduced modulo its bound as
bins are, with relative bias at most 2^-32 for bounds up to 2^32.

Sampling is inverse-CDF over the fixed row-major cell order, which keeps
blocks reproducible across platforms. A block is a plain int64 array, one
row of symbols per sensor. The draws take a leading round axis: a session
draws the blocks and side information of all its rounds in one pass
(``sample_blocks``, ``sample_side_infos``), and ``sample_block`` is the
one-round call of the first; round r alone is ``sample_blocks(p, n, seed,
[r])[0]`` and ``sample_side_infos(r_chan, block[None], seed, [r])[0]``.
"""
from __future__ import annotations

from hashlib import blake2b
from typing import Sequence

import numpy as np

from .binning import stream_draws
from .prob_core import ConditionalPMF, JointPMF

_SEED_MASK = (1 << 64) - 1


def derive_seed(master: int, *labels) -> int:
    """Derive an independent 64-bit stream seed from (master, labels)."""
    key = (int(master) & _SEED_MASK).to_bytes(8, "big")
    payload = "\x1f".join(str(l) for l in labels).encode()
    return int.from_bytes(blake2b(payload, key=key, digest_size=8).digest(), "big")


def keyed_draws(seed: int, label: tuple, rounds: Sequence[int], k: int,
                bounds=None) -> np.ndarray:
    """An (R, k) array of draws from the stream of (seed, label), row r for
    round ``rounds[r]``: 53-bit uniforms on [0, 1) when ``bounds`` is None,
    otherwise int64 integers in range(bound), one bound in [1, 2^32] for
    every column or one per column, each biased by at most 2^-32 relative.
    Row r is the same whatever the other rounds are."""
    pos = (np.asarray(rounds, dtype=np.uint64)[:, None] << np.uint64(32)) + np.arange(
        1, k + 1, dtype=np.uint64)
    return stream_draws(derive_seed(seed, *label), pos, bounds)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="left")
    return np.minimum(idx, cdf.shape[0] - 1)


def sample_blocks(p: JointPMF, n: int, seed: int, rounds: Sequence[int]) -> np.ndarray:
    """The source blocks of R rounds, an (R, m, n) int64 array: row k holds n
    i.i.d. joint symbols from p, round ``rounds[k]``'s draws of ``seed``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cdf = np.cumsum(p.mass.ravel(order="C"))
    flat = _inverse_cdf(cdf, keyed_draws(seed, ("block",), rounds, n))
    symbols = np.stack(np.unravel_index(flat, p.alphabet_sizes), axis=1)
    return symbols.astype(np.int64, copy=False)


def sample_block(p: JointPMF, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. joint symbols from p as an (m, n) int64 array;
    deterministic given seed. Round 0 of ``sample_blocks``."""
    return sample_blocks(p, n, seed, [0])[0]


def sample_side_infos(r: ConditionalPMF, blocks: np.ndarray, seed: int,
                      rounds: Sequence[int]) -> np.ndarray:
    """The side information of R rounds, an (R, n) int64 array: per-slot
    independent draws w_t ~ r(. | x_1,t ... x_m,t) of round k's block
    ``blocks[k]`` (an (R, m, n) array), round ``rounds[k]``'s draws of
    ``seed``."""
    if blocks.shape[1] != len(r.input_alphabet_sizes):
        raise ValueError("block sensor count does not match channel input")
    cs = np.cumsum(r.rows.reshape(r.num_inputs, r.output_alphabet_size), axis=1)
    flat_in = np.ravel_multi_index(tuple(blocks.transpose(1, 0, 2)), r.input_alphabet_sizes)
    u = keyed_draws(seed, ("sideinfo",), rounds, blocks.shape[2])
    w = (cs[flat_in] < u[..., None]).sum(axis=2)      # cs[flat_in] is (R, n, |W|)
    return np.minimum(w, r.output_alphabet_size - 1).astype(np.int64, copy=False)
