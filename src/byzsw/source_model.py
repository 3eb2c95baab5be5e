"""Seeded i.i.d. generation of source blocks and traitor side information.

One top-level 64-bit seed drives everything; per-purpose streams are derived
by keyed hashing of (seed, purpose labels) so that adding a new consumer never
perturbs the draws of existing ones. Sampling is inverse-CDF over the fixed
row-major cell order, which keeps blocks reproducible across platforms.

A block is a plain int64 array, one row of symbols per sensor. The draws
take a leading round axis: a session draws the blocks and side information
of all its rounds in one pass (``sample_blocks``, ``sample_side_infos``),
each round from its own keyed stream, and ``sample_block`` is the one-round
call of the first; a one-round side information is
``sample_side_infos(r, block[None], [seed])[0]``.
"""
from __future__ import annotations

from hashlib import blake2b

import numpy as np

from .prob_core import ConditionalPMF, JointPMF

_SEED_MASK = (1 << 64) - 1


def derive_seed(master: int, *labels) -> int:
    """Derive an independent 64-bit stream seed from (master, labels)."""
    key = (int(master) & _SEED_MASK).to_bytes(8, "big")
    payload = "\x1f".join(str(l) for l in labels).encode()
    return int.from_bytes(blake2b(payload, key=key, digest_size=8).digest(), "big")


def rng_for(master: int, *labels) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(master, *labels)))


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="left")
    return np.minimum(idx, cdf.shape[0] - 1)


def keyed_uniforms(seeds, label: str, n: int) -> np.ndarray:
    """An (R, n) array of uniforms on [0, 1): row k holds the first n draws
    of ``rng_for(seeds[k], label)``, so each round keeps its own stream."""
    u = np.empty((len(seeds), n))
    for row, seed in zip(u, seeds):
        rng_for(seed, label).random(out=row)
    return u


def sample_blocks(p: JointPMF, n: int, seeds) -> np.ndarray:
    """The source blocks of R rounds, an (R, m, n) int64 array: row k holds n
    i.i.d. joint symbols from p, drawn from the stream of ``seeds[k]``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cdf = np.cumsum(p.mass.ravel(order="C"))
    flat = _inverse_cdf(cdf, keyed_uniforms(seeds, "source-block", n))
    symbols = np.stack(np.unravel_index(flat, p.alphabet_sizes), axis=1)
    return symbols.astype(np.int64, copy=False)


def sample_block(p: JointPMF, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. joint symbols from p as an (m, n) int64 array;
    deterministic given seed. The one-round case of ``sample_blocks``."""
    return sample_blocks(p, n, [seed])[0]


def sample_side_infos(r: ConditionalPMF, blocks: np.ndarray, seeds) -> np.ndarray:
    """The side information of R rounds, an (R, n) int64 array: per-slot
    independent draws w_t ~ r(. | x_1,t ... x_m,t) of round k's block
    ``blocks[k]`` (an (R, m, n) array), from the stream of ``seeds[k]``."""
    if blocks.shape[1] != len(r.input_alphabet_sizes):
        raise ValueError("block sensor count does not match channel input")
    cs = np.cumsum(r.rows.reshape(r.num_inputs, r.output_alphabet_size), axis=1)
    flat_in = np.ravel_multi_index(tuple(blocks.transpose(1, 0, 2)), r.input_alphabet_sizes)
    u = keyed_uniforms(seeds, "side-info", blocks.shape[2])
    w = (cs[flat_in] < u[..., None]).sum(axis=2)      # cs[flat_in] is (R, n, |W|)
    return np.minimum(w, r.output_alphabet_size - 1).astype(np.int64, copy=False)

