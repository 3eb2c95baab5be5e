"""Seeded random-binning codebooks.

The idealized uniform random binning of the coding scheme is realized by one
kernel, :func:`hash_bins`. Each (seed, tag, sensor, subcodebook, block) gets
a 64-bit key, derived once with keyed blake2b; the bin of a sequence is a
SplitMix64 chain over the sequence's bytes, started from that key and
reduced modulo the block's bin count. Uniform binning is all the scheme
needs (the traitors know the codebooks anyway), so a non-cryptographic mixer
suffices, and it bins a whole array of candidate sequences in a few numpy
operations. The mixer replaced a per-sequence keyed blake2b-128: the bin
draws changed, the preset CSV digests in the tests did not. Decoders test
every candidate of a block at once; the scalar encoders are thin wrappers
over the kernel. Codebooks stay O(1) memory while behaving statistically
like stored random bins. Bin counts are rounded up to integers; rate
accounting elsewhere uses log2(actual bin count) so it stays exact.

The kernel also takes a header axis: a sequence of headers with one bin
count each gives one row of bins per header, from the same single pass over
the rows. ``encode_blocks`` bins a set of rows under a sequence of blocks
this way. Each row equals the single-header call bit for bit. ``hash_rows``
keys each row by its own header instead, so a variable-rate pass encodes
every round's chain, each under its round's subcodebook, in one call
(``encode_rows``).

One mixing core, ``_mix``, absorbs and reduces for every entry.
``hash_bins`` and ``hash_rows`` pad the rows they are given into native
64-bit words on every call. ``space_bins`` bins the whole
``all_sequences(alphabet, n)`` space without the sequence table: the chain
state after a word depends only on the symbols absorbed so far, so the core
starts from the key and fans each state out over the cached native words of
one 8-symbol chunk (256 words for binary), one mix per distinct prefix
rather than one per sequence and word. It gives the bins of ``hash_bins``
over that table bit for bit. On long rows the reduction
divides by a scalar, which numpy does about twice as fast as ``%``, and
wide arrays are mixed and reduced a cache-sized block of columns at a time.
The phase search bins the whole space on block 0 with ``space_bins``
(``BinningCodebook.encode_space``, several subcodebooks per call), and a
fixed-rate code keeps the bins of each of its keys for its decoder and the
ambiguity attack (``FixedRateCode.space_bins``).

A variable-rate codebook for sensor i consists of C subcodebooks, each a chain
of J_i block encoders: the first block carries n*(eps+nu) bits, later blocks
n*eps bits each. The indices a sender has sent after block j are the first
j+1 entries of its chain, so they are prefixes of one another by
construction; a decoder keeps the candidates whose ``encode_blocks`` rows
match them. The same kernel realizes one-shot fixed-rate encoders.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from hashlib import blake2b
from typing import Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1
_MAX_BINS = 1 << 32
_BLOCK = 1 << 14    # states per pass: the temporaries of a block stay in cache
_SHORT_ROW = 1 << 10    # rows shorter than this are reduced by one % (see _reduce)


class EnumerationGuardError(RuntimeError):
    """Raised when a requested exhaustive search exceeds the desk-scale guard."""


def _check_space(alphabet: int, n: int) -> None:
    """Refuse an alphabet^n sequence space past the 2^22 desk-scale guard."""
    if n * math.log2(alphabet) > 22 + 1e-9:
        raise EnumerationGuardError(
            f"sequence space {alphabet}^{n} exceeds the 2^22 enumeration guard")


@lru_cache(maxsize=None)
def all_sequences(alphabet: int, n: int) -> np.ndarray:
    """All length-n sequences over {0..alphabet-1} in lexicographic order, a
    read-only (alphabet^n, n) uint8 array built column by column: column k
    repeats each symbol alphabet^(n-1-k) times, alphabet^k times over."""
    _check_space(alphabet, n)
    rows = np.empty((alphabet ** n, n), dtype=np.uint8)
    symbols = np.arange(alphabet, dtype=np.uint8)
    for k in range(n):
        rows[:, k] = np.tile(np.repeat(symbols, alphabet ** (n - 1 - k)), alphabet ** k)
    rows.setflags(write=False)
    return rows


# 0-d arrays rather than numpy scalars: cheaper per ufunc call on small arrays
_MIX1, _MIX2, _S27, _S30, _S31 = (np.array(v, dtype=np.uint64) for v in (
    0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 27, 30, 31))


def _splitmix64(z: np.ndarray) -> None:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014), in place on a 2-D
    uint64 array with wrap-around arithmetic; a wide array goes a
    cache-sized block of columns at a time."""
    if z.shape[1] > _BLOCK:
        for start in range(0, z.shape[1], _BLOCK):
            _splitmix64(z[:, start:start + _BLOCK])
        return
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31


def _keys(seed: int, headers: Sequence[bytes]) -> list[int]:
    """The 64-bit key of each header: its 8-byte blake2b digest keyed by the
    seed."""
    seed_key = (seed & _SEED_MASK).to_bytes(8, "big")
    return [int.from_bytes(blake2b(hd, key=seed_key, digest_size=8).digest(), "big")
            for hd in headers]


def _check_counts(counts: Sequence[int], rows: int) -> tuple[int, ...]:
    """Bin counts as ints, one per header row, each checked against
    [1, 2^32]."""
    if len(counts) != rows:
        raise ValueError(f"{rows} header rows but {len(counts)} bin counts")
    for b in counts:
        if not 1 <= b <= _MAX_BINS:
            raise ValueError(f"bin count {b} outside [1, 2^32]")
    return tuple(map(int, counts))


def _keys_and_counts(seed: int, header: bytes | Sequence[bytes],
                     bins: int | Sequence[int]) -> tuple[bool, np.ndarray, tuple[int, ...]]:
    """(single-header flag, uint64 keys, bin counts) of a call to the kernel,
    with the bin counts checked against [1, 2^32]."""
    single = isinstance(header, bytes)
    headers = (header,) if single else tuple(header)
    counts = _check_counts((bins,) if single else tuple(bins), len(headers))
    return single, np.array(_keys(seed, headers), dtype=np.uint64), counts


def _mix(keys: np.ndarray, words, counts: tuple[int, ...],
         fan_out: bool = False) -> np.ndarray:
    """The mixing core: start every state from ``h = key``, absorb each word
    as ``h = splitmix64(h ^ word)`` and reduce ``h mod`` the key's bin count.
    Returns an (h, k) int64 array, one row per key.

    ``words`` is either a native (words, k) uint64 array, absorbed column by
    column, one state per key and column; or, with ``fan_out``, a sequence of
    1-D word tables, each fanning every state out over every word of the
    table, so the k = product of the table lengths columns run over the
    product of the tables in lexicographic order (first table slowest).
    Without ``fan_out`` the keys may also be an (h, k) array, one key per
    row of output and column, reduced by ``counts`` row by row.
    """
    if fan_out:
        h = keys[:, None]
    else:
        h = np.empty((len(keys), words.shape[1]), dtype=np.uint64)
        h[:] = keys if keys.ndim == 2 else keys[:, None]
    for word in words:
        if fan_out:
            h = (h[:, :, None] ^ word).reshape(len(keys), -1)
        else:
            h ^= word
        _splitmix64(h)
    _reduce(h, counts)
    return h.view(np.int64)    # every bin is below 2^32


def _reduce(h: np.ndarray, counts: tuple[int, ...]) -> None:
    """Row r of a 2-D uint64 array mod ``counts[r]``, in place. Long rows
    take h - (h // count) * count, a block of columns at a time: numpy
    divides by a scalar about twice as fast as it takes ``%``, and the block's
    temporaries stay in cache. Below ~1000 columns the three passes per row
    cost more than one ``%`` by the column of counts, which takes over."""
    if h.shape[1] < _SHORT_ROW:
        h %= np.array(counts, dtype=np.uint64)[:, None]
        return
    for row, count in zip(h, counts):
        for start in range(0, len(row), _BLOCK):
            b = row[start:start + _BLOCK]
            b -= b // count * count


def _native_words(rows: np.ndarray) -> np.ndarray:
    """A (k, n) uint8 array as the (words, k) native uint64 array the mixing
    core reads: each row zero-padded to a multiple of 8 bytes, every 8 bytes
    read as one big-endian word."""
    k, n = rows.shape
    padded = np.zeros((k, -(-n // 8) * 8), dtype=np.uint8)
    padded[:, :n] = rows
    return np.ascontiguousarray(padded.view(">u8").T, dtype=np.uint64)


@lru_cache(maxsize=None)
def _chunk_words(alphabet: int, length: int) -> np.ndarray:
    """The native words of ``all_sequences(alphabet, length)`` for one word's
    worth of symbols (length <= 8), in lexicographic order: cached and
    read-only, 256 entries for a binary alphabet."""
    words = _native_words(all_sequences(alphabet, length))[0]
    words.setflags(write=False)
    return words


def hash_bins(seed: int, header: bytes | Sequence[bytes], seqs: np.ndarray,
              bins: int | Sequence[int]) -> np.ndarray:
    """Bin index of every row of a (k, n) symbol array under a keyed 64-bit
    mixer, for one header or for each header of a sequence.

    A header's key is the 8-byte blake2b digest of the header, keyed by the
    seed; every key is derived once per call. Each row (one byte per symbol)
    is zero-padded to a multiple of 8 bytes and read as big-endian 64-bit
    words; starting from ``h = key``, every word is absorbed as
    ``h = splitmix64(h ^ word)``, and the bin is ``h mod bins``. n is fixed
    per codebook, so the padding is unambiguous. Each bin count is capped at
    2^32, which keeps the relative bias of the reduction at most 2^-32.

    ``header`` is either one ``bytes`` with one int ``bins``, giving a (k,)
    array, or a sequence of h headers with a sequence of h bin counts, giving
    an (h, k) array whose row r equals the single-header call on header r.
    Either way the mixing runs once, over an (h, k) array of states.
    """
    single, keys, counts = _keys_and_counts(seed, header, bins)
    out = _mix(keys, _native_words(_byte_rows(seqs)), counts)
    return out[0] if single else out


def _byte_rows(seqs) -> np.ndarray:
    """A (k, n) symbol array as uint8, refusing symbols outside one byte."""
    rows = np.asarray(seqs)
    if rows.ndim != 2:
        raise ValueError("expected a (k, n) array of sequences")
    if rows.dtype != np.uint8:
        if rows.size and (rows.min() < 0 or rows.max() > 255):
            raise ValueError("symbols must fit in one byte")
        rows = rows.astype(np.uint8)
    return rows


def hash_rows(seed: int, headers: Sequence[Sequence[bytes]], seqs: np.ndarray,
              bins: Sequence[int]) -> np.ndarray:
    """``hash_bins`` with one header per row: ``headers`` holds h sequences
    of k headers, header ``headers[b][r]`` keying row r of the (k, n) array
    ``seqs`` under bin count ``bins[b]``. Returns the (h, k) array whose entry
    (b, r) equals ``hash_bins(seed, headers[b][r], seqs[r:r + 1],
    bins[b])[0]``, from one pass of the mixing core."""
    counts = _check_counts(tuple(bins), len(headers))
    rows = _byte_rows(seqs)
    if any(len(row) != len(rows) for row in headers):
        raise ValueError(f"expected {len(rows)} headers per row")
    keys = np.array([_keys(seed, row) for row in headers], dtype=np.uint64)
    return _mix(keys.reshape(len(headers), len(rows)), _native_words(rows), counts)


def space_bins(seed: int, header: bytes | Sequence[bytes], alphabet: int, n: int,
               bins: int | Sequence[int]) -> np.ndarray:
    """``hash_bins(seed, header, all_sequences(alphabet, n), bins)``, bit for
    bit, without the sequence table: the chain state after a word depends
    only on the symbols absorbed so far, so each 8-symbol chunk fans the
    states of the distinct prefixes out over that chunk's cached words
    (``_chunk_words``), one mix per distinct prefix. It refuses the spaces
    ``all_sequences`` refuses."""
    _check_space(alphabet, n)
    single, keys, counts = _keys_and_counts(seed, header, bins)
    tables = [_chunk_words(alphabet, min(8, n - start)) for start in range(0, n, 8)]
    out = _mix(keys, tables, counts, True)    # fan_out
    return out[0] if single else out


def bin_count_for_rate(n: int, rate: float) -> int:
    """ceil(2^(n*rate)) bins; a zero rate yields the single trivial bin."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    return max(1, math.ceil(2.0 ** (n * rate)))


@dataclass(frozen=True)
class BinningCodebook:
    """Incremental-rate subcodebook family for one sensor.

    Block j=0 has ceil(2^(n(eps+nu))) bins, blocks j>=1 have ceil(2^(n eps));
    there are J = max(1, ceil(log2(alphabet)/eps)) blocks per subcodebook and
    C subcodebooks, all derived from one master seed.
    """

    sensor_id: int
    n: int
    alphabet_size: int
    eps: float
    nu: float
    C: int
    master_seed: int

    def __post_init__(self):
        if self.eps <= 0 or self.nu <= 0:
            raise ValueError("eps and nu must be positive")
        if self.C < 1:
            raise ValueError("need at least one subcodebook")

    @cached_property
    def J(self) -> int:
        return max(1, math.ceil(math.log2(self.alphabet_size) / self.eps))

    def bin_count(self, j: int) -> int:
        self._check_block(j)
        return self._bin_counts[j]

    @cached_property
    def _bin_counts(self) -> tuple[int, ...]:
        return tuple(bin_count_for_rate(self.n, self.eps + self.nu if j == 0 else self.eps)
                     for j in range(self.J))

    def block_bits(self, j: int) -> float:
        """Exact payload size of block j in bits: log2(actual bin count)."""
        return math.log2(self.bin_count(j))

    def _check_block(self, j: int, c: int | None = None) -> None:
        if not 0 <= j < self.J:
            raise ValueError(f"block index {j} out of range [0, {self.J})")
        if c is not None and not 0 <= c < self.C:
            raise ValueError(f"subcodebook index {c} out of range [0, {self.C})")

    def encode_blocks(self, seqs, c: int, blocks: Sequence[int]) -> np.ndarray:
        """Bin indices of every row of ``seqs`` under subcodebook c, one row
        per block in ``blocks``: a (len(blocks), k) array from one kernel
        call."""
        blocks = tuple(blocks)
        for j in blocks:
            self._check_block(j, c)
        rows = np.asarray(seqs)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"expected sequences of length n={self.n}, got shape {rows.shape}")
        return hash_bins(self.master_seed, [self._header(c, j) for j in blocks],
                         rows, [self._bin_counts[j] for j in blocks])

    def encode_rows(self, seqs, cs: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
        """Bin indices of row k of ``seqs`` under its own subcodebook
        ``cs[k]``, one row per block in ``blocks``: a (len(blocks), k) array
        from one kernel call."""
        blocks = tuple(blocks)
        for j in blocks:
            self._check_block(j)
        for c in cs:
            self._check_block(0, c)
        rows = np.asarray(seqs)
        if rows.ndim != 2 or rows.shape[1] != self.n or len(rows) != len(cs):
            raise ValueError(f"expected {len(cs)} sequences of length n={self.n}, "
                             f"got shape {rows.shape}")
        return hash_rows(self.master_seed, [[self._header(c, j) for c in cs] for j in blocks],
                         rows, [self._bin_counts[j] for j in blocks])

    def encode_space(self, cs: Sequence[int], j: int) -> np.ndarray:
        """Bin index of every sequence of ``all_sequences(alphabet_size, n)``
        under block j of each subcodebook in ``cs``, without the sequence
        table: a (len(cs), alphabet_size**n) array from one kernel call."""
        for c in cs:
            self._check_block(j, c)
        return space_bins(self.master_seed, [self._header(c, j) for c in cs],
                          self.alphabet_size, self.n, [self._bin_counts[j]] * len(cs))

    def _header(self, c: int, j: int) -> bytes:
        return struct.pack(">BIII", 0x01, self.sensor_id, c, j)

    def encode_block(self, x, c: int, j: int) -> int:
        """Bin index of sequence x under subcodebook c, block j."""
        return int(self.encode_blocks(np.asarray(x)[None], c, [j])[0, 0])


def fixed_rate_header(sensor_id: int, c: int) -> bytes:
    """Hash header of the one-shot fixed-rate encoder of (sensor, c)."""
    return struct.pack(">BIII", 0x02, sensor_id, c, 0)


def fixed_rate_encode(seed: int, sensor_id: int, x, rate: float, c: int = 0) -> int:
    """One-shot fixed-rate bin index: deterministic in (seed, sensor, c, x)."""
    x = np.asarray(x)
    bins = bin_count_for_rate(x.size, rate)
    return int(hash_bins(seed, fixed_rate_header(sensor_id, c), x[None], bins)[0])
