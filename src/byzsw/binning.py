"""Seeded random-binning codebooks.

The idealized uniform random binning of the coding scheme is realized by
kernels over one keyed mixer. Each (seed, tag, sensor, subcodebook, block)
header gets a 64-bit key, its 8-byte blake2b digest keyed by the seed
(``_derive``; ``_keys`` derives each distinct header of a call once, and a
``BinningCodebook`` each of its headers once in its life, which for a
variable-rate session is the session); the bin of a sequence is a
SplitMix64 chain over the sequence's bytes, started from its header's key
and reduced modulo the bin count. Uniform binning is all the scheme needs
(the traitors know the codebooks anyway), so a non-cryptographic mixer
suffices, and it bins a whole array of candidate sequences in a few numpy
operations. The same mixer and reduction make every random draw of the
package: ``stream_draws`` mixes the counter positions of a keyed stream
(``source_model.keyed_draws`` lays them out by round).
Codebooks stay O(1) memory while behaving statistically like stored random
bins. Bin counts are rounded up to integers; rate accounting elsewhere uses
log2(actual bin count) so it stays exact.

``hash_rows`` bins given rows, each row under its own header, one row of
bins per bin count (the row kernel ``_bin_rows`` on their keys): a
variable-rate pass encodes every round's chain, each under its round's
subcodebook, in one call (``encode_rows``), and the fixed-rate decoder
rechecks every estimate in one call. It pads the rows into native 64-bit
words on every call. ``space_bins`` bins the whole
``all_sequences(alphabet, n)`` space under each of a sequence of headers
without the sequence table (``_fan_out``): the chain state after a word
depends only on the symbols absorbed so far, so each state fans out over the
cached native words of one 8-symbol chunk (256 words for binary), one mix
per distinct prefix rather than one per sequence and word. It gives the
bins of ``hash_rows`` over that table bit for bit. ``_match_space`` walks
the same chunks but keeps only the (key, sequence) pairs whose bin equals
the key's target: the phase search scans the whole space on block 0 for
every round of a pass in one call (``BinningCodebook.match_space``). The
kernels share the mixer (``_splitmix64``) and the reduction (``_reduce``,
``_reduce_by``): on long rows the reduction divides by a scalar, which
numpy does about twice as fast as ``%``, and wide arrays are mixed and
reduced a cache-sized block of columns at a time, through one scratch array
per call rather than a temporary per step: a fresh temporary the size of a
block can fault its pages in again on every step, when the allocator has
handed the last one back. A fixed-rate code keeps
the bins of each of its keys for its decoder and the ambiguity attack
(``FixedRateCode.space_bins``).

A variable-rate codebook for sensor i consists of C subcodebooks, each a chain
of J_i block encoders: the first block carries n*(eps+nu) bits, later blocks
n*eps bits each. The indices a sender has sent after block j are the first
j+1 entries of its chain, so they are prefixes of one another by
construction; a decoder keeps the candidates whose ``encode_rows`` rows
match them. The scalar encoders ``BinningCodebook.encode_block`` and
``fixed_rate_encode`` are one-line wrappers over the kernels.
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
_FAN_STATES = 1 << 15   # states per block of the whole-space match (_match_space)
_PREFIX_STATES = 1 << 19    # prefix states it mixes at once: 4 MB
_SHORT_ROW = 1 << 10    # rows shorter than this are reduced by one % (see _reduce)


class EnumerationGuardError(RuntimeError):
    """Raised when a requested exhaustive search exceeds the desk-scale guard."""


def _check_space(alphabet: int, n: int) -> None:
    """Refuse an alphabet^n sequence space past the 2^22 desk-scale guard,
    and an alphabet whose symbols do not fit in the tables' one byte."""
    if alphabet > 256:
        raise ValueError(f"alphabet of {alphabet} symbols: symbols must fit in one byte")
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
_MIX1, _MIX2, _GAMMA, _S11, _S27, _S30, _S31 = (np.array(v, dtype=np.uint64) for v in (
    0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0x9E3779B97F4A7C15, 11, 27, 30, 31))


def _splitmix64(z: np.ndarray, tmp: np.ndarray | None = None) -> None:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014), in place on a 2-D
    uint64 array with wrap-around arithmetic. The shifts go through ``tmp``,
    a scratch array of z's shape; without one, one is made, and a wide
    array goes a cache-sized block of columns at a time through it."""
    if tmp is None:
        tmp = np.empty((len(z), min(z.shape[1], _BLOCK)), dtype=np.uint64)
        if z.shape[1] > _BLOCK:
            for start in range(0, z.shape[1], _BLOCK):
                block = z[:, start:start + _BLOCK]
                _splitmix64(block, tmp[:, :block.shape[1]])
            return
    for shift, mix in ((_S30, _MIX1), (_S27, _MIX2), (_S31, None)):
        z ^= np.right_shift(z, shift, out=tmp)
        if mix is not None:
            z *= mix


def _derive(seed: int, headers) -> np.ndarray:
    """The uint64 key of each header, its 8-byte blake2b digest keyed by the
    seed, one digest per header given: the keyed state is set up once and
    copied for each header."""
    keyed = blake2b(key=(seed & _SEED_MASK).to_bytes(8, "big"), digest_size=8)
    digests = []
    for hd in headers:
        h = keyed.copy()
        h.update(hd)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)


def _keys(seed: int, headers: Sequence[Sequence[bytes]]) -> np.ndarray:
    """The keys (``_derive``) of rows of headers, as a new (rows, k) array.
    Each distinct header is derived once, however often it repeats, and the
    entries take their keys through one index array: a row that repeats one
    header (one ``count``, which matches by identity first) is indexed
    whole, any other row entry by entry."""
    distinct: dict[bytes, int] = {}
    index = np.empty((len(headers), len(headers[0]) if len(headers) else 0), dtype=np.intp)
    for out, row in zip(index, headers):
        if len(row) and row.count(row[0]) == len(row):
            out[:] = distinct.setdefault(row[0], len(distinct))
        else:
            out[:] = [distinct.setdefault(hd, len(distinct)) for hd in row]
    return _derive(seed, distinct)[index]


def _check_counts(counts: Sequence[int], rows: int) -> tuple[int, ...]:
    """Bin counts as ints, one per header row, each checked against
    [1, 2^32]."""
    if len(counts) != rows:
        raise ValueError(f"{rows} header rows but {len(counts)} bin counts")
    for b in counts:
        if not 1 <= b <= _MAX_BINS:
            raise ValueError(f"bin count {b} outside [1, 2^32]")
    return tuple(map(int, counts))


def _reduce(h: np.ndarray, counts: Sequence[int]) -> None:
    """Row r of a 2-D uint64 array mod ``counts[r]``, in place. Long rows
    are reduced by ``_reduce_by``, a block of columns at a time through one
    scratch array, so the block stays in cache. Below ~1000
    columns the three passes per row cost more than one ``%`` by the column
    of counts, which takes over."""
    if h.shape[1] < _SHORT_ROW:
        h %= np.array(counts, dtype=np.uint64)[:, None]
        return
    tmp = np.empty(min(h.shape[1], _BLOCK), dtype=np.uint64)
    for row, count in zip(h, counts):
        for start in range(0, len(row), _BLOCK):
            block = row[start:start + _BLOCK]
            _reduce_by(block, count, tmp[:len(block)])


def _reduce_by(h: np.ndarray, count: int, tmp: np.ndarray) -> None:
    """A uint64 array mod one bin count, in place, as h - (h // count) *
    count through ``tmp``, a scratch array of h's shape: numpy divides by a
    scalar about twice as fast as it takes ``%``."""
    np.floor_divide(h, count, out=tmp)
    tmp *= count
    h -= tmp


def stream_draws(key: int, positions: np.ndarray, bounds=None) -> np.ndarray:
    """The draws at ``positions`` (a 2-D uint64 array) of the counter stream
    keyed by ``key``: each is the SplitMix64 output key + position * gamma,
    mixed like a bin. Returns 53-bit uniforms on [0, 1), ``(z >> 11) *
    2^-53``, when ``bounds`` is None; otherwise int64 integers, column j
    reduced like bins modulo its bound (one bound for every column or one per
    column, each in [1, 2^32], so biased by at most 2^-32 relative)."""
    z = positions * _GAMMA + np.uint64(key)
    _splitmix64(z)
    if bounds is None:
        return (z >> _S11) * 2.0 ** -53
    k = z.shape[1]
    _reduce(z.T, _check_counts([bounds] * k if np.ndim(bounds) == 0 else bounds, k))
    return z.view(np.int64)

def _native_words(rows: np.ndarray) -> np.ndarray:
    """A (k, n) uint8 array as the (words, k) native uint64 array the kernels
    absorb: each row zero-padded to a multiple of 8 bytes, every 8 bytes read
    as one big-endian word."""
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
    """Bin index of every row of a (k, n) symbol array under a keyed 64-bit
    mixer, each row under its own header: ``headers`` holds h sequences of k
    headers, header ``headers[b][r]`` keying row r under bin count
    ``bins[b]``. Returns an (h, k) int64 array.

    Each row (one byte per symbol) is zero-padded to a multiple of 8 bytes
    and read as big-endian 64-bit words; starting from ``h = key``, every
    word is absorbed as ``h = splitmix64(h ^ word)``, and the bin is ``h mod
    bins``. n is fixed per codebook, so the padding is unambiguous. Each bin
    count is capped at 2^32, which keeps the relative bias of the reduction
    at most 2^-32. A header repeated across rows or header rows has its key
    derived once.
    """
    counts = _check_counts(tuple(bins), len(headers))
    rows = _byte_rows(seqs)
    if any(len(row) != len(rows) for row in headers):
        raise ValueError(f"expected {len(rows)} headers per row")
    return _bin_rows(_keys(seed, headers).reshape(len(headers), len(rows)), rows, counts)


def _bin_rows(h: np.ndarray, rows: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """The row kernel on given keys: ``h`` is an (h, k) uint64 array, the
    key of each row of the (k, n) uint8 ``rows`` under each bin count, mixed
    into the bins in place."""
    for word in _native_words(rows):
        h ^= word
        _splitmix64(h)
    _reduce(h, counts)
    return h.view(np.int64)    # every bin is below 2^32


def _fan_out(h: np.ndarray, alphabet: int, length: int) -> np.ndarray:
    """The chain states after each state of a 2-D uint64 array absorbs every
    sequence of ``all_sequences(alphabet, length)``: an (rows, columns *
    alphabet**length) array, each state's sequences in lexicographic order.
    The chain state after a word depends only on the symbols absorbed so
    far, so each 8-symbol chunk fans the states of the distinct prefixes out
    over that chunk's cached words (``_chunk_words``), one mix per distinct
    prefix."""
    for start in range(0, length, 8):
        h = (h[:, :, None] ^ _chunk_words(alphabet, min(8, length - start))).reshape(len(h), -1)
        _splitmix64(h)
    return h


def space_bins(seed: int, headers: Sequence[bytes], alphabet: int, n: int,
               bins: Sequence[int]) -> np.ndarray:
    """The (h, alphabet**n) bins of ``all_sequences(alphabet, n)``, row b
    under header ``headers[b]`` and bin count ``bins[b]``: ``hash_rows`` over
    that table with ``headers[b]`` on every sequence, bit for bit, but
    without the sequence table (``_fan_out``). It refuses the spaces
    ``all_sequences`` refuses."""
    _check_space(alphabet, n)
    counts = _check_counts(tuple(bins), len(headers))
    h = _fan_out(_keys(seed, [headers])[0][:, None], alphabet, n)
    _reduce(h, counts)
    return h.view(np.int64)    # every bin is below 2^32


def _match_space(keys: np.ndarray, alphabet: int, n: int, bins: int,
                 targets) -> np.ndarray:
    """The flat indices k * alphabet**n + x, ascending, of every sequence x
    of ``all_sequences(alphabet, n)`` whose bin under ``keys[k]`` is
    ``targets[k]``, every key under the one bin count ``bins``: the nonzero
    entries of the whole-space bins == ``targets[:, None]``, bit for bit,
    without the (keys, space) array. The states after all but the last
    8-symbol chunk are mixed for as many keys at once as fit in
    ``_PREFIX_STATES``; the last chunk fans them out about ``_FAN_STATES``
    states at a time, and each such block is mixed, reduced by the one bin
    count and compared in scratch arrays made once per call. It refuses
    what ``space_bins`` refuses."""
    _check_space(alphabet, n)
    (count,) = _check_counts((bins,), 1)
    targets = np.asarray(targets).astype(np.uint64)
    if targets.shape != keys.shape:
        raise ValueError(f"{len(keys)} keys but {len(targets)} targets")
    prefix = max(n - 1, 0) // 8 * 8
    per_key, last = alphabet ** prefix, alphabet ** (n - prefix)
    group = max(1, _PREFIX_STATES // per_key)
    keys_per_block = max(1, _FAN_STATES // (per_key * last))
    span = min(per_key, max(1, _FAN_STATES // last))    # prefix states per block
    words = _chunk_words(alphabet, n - prefix) if n else None
    size = min(keys_per_block, len(keys)) * span * last
    buf, tmp = np.empty((2, size), dtype=np.uint64)
    equal = np.empty(size, dtype=bool)
    found = [np.empty(0, dtype=np.int64)]
    for g0 in range(0, len(keys), group):
        states = _fan_out(keys[g0:g0 + group, None], alphabet, prefix)
        for k0 in range(0, len(states), keys_per_block):
            for s0 in range(0, per_key, span):
                block = states[k0:k0 + keys_per_block, s0:s0 + span]
                shape = (len(block), block.shape[1] * last)
                h, t, eq = (a[:math.prod(shape)].reshape(shape) for a in (buf, tmp, equal))
                if words is None:   # n = 0: no symbol to absorb
                    h[:] = block
                else:
                    np.bitwise_xor(block[:, :, None], words, out=h.reshape(*block.shape, -1))
                    _splitmix64(h, t)
                _reduce_by(h, count, t)
                np.equal(h, targets[g0 + k0:g0 + k0 + len(h), None], out=eq)
                found.append(np.flatnonzero(eq) + ((g0 + k0) * per_key + s0) * last)
        del states, block   # before the next group's are mixed
    return np.concatenate(found)


def bin_count_for_rate(n: int, rate: float) -> int:
    """ceil(2^(n*rate)) bins; a zero rate yields the single trivial bin. A
    rate past 32/n bits per symbol would need more than the kernels' 2^32
    bins and is refused before it is exponentiated."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    if n * rate > 32:
        raise ValueError(f"rate {rate:g} at n = {n} needs 2^{n * rate:g} bins, "
                         f"past the 2^32 cap (n * rate must be at most 32)")
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
        return self.bin_counts[j]

    @cached_property
    def bin_counts(self) -> tuple[int, ...]:
        """Each block's bin count, block 0 first."""
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

    @cached_property
    def _key_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The key of each (subcodebook, block) header at index c * J + j,
        and which of them are derived: the codebook's calls share its keys,
        so each is derived once, the first time a call needs it."""
        return (np.zeros(self.C * self.J, dtype=np.uint64),
                np.zeros(self.C * self.J, dtype=bool))

    def _keys_for(self, cs: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
        """The (len(blocks), len(cs)) keys of subcodebooks ``cs`` on
        ``blocks``, as a new array, read from the key table through one index
        array."""
        cs, blocks = np.asarray(cs, dtype=np.int64), np.asarray(blocks, dtype=np.int64)
        for values, top, what in ((cs, self.C, "subcodebook"), (blocks, self.J, "block")):
            wrapped = values.view(np.uint64)    # a negative index wraps past top
            if values.size and wrapped.max() >= top:
                raise ValueError(f"{what} index {values[wrapped >= top][0]} "
                                 f"out of range [0, {top})")
        index = cs * self.J + blocks[:, None]
        table, derived = self._key_table
        new = index[~derived[index]]
        if new.size:
            # a set, not np.unique: that imports numpy.ma on its first call
            new = sorted(set(new.tolist()))
            table[new] = _derive(self.master_seed,
                                 (self._header(*divmod(x, self.J)) for x in new))
            derived[new] = True
        return table[index]

    def encode_rows(self, seqs, cs: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
        """Bin indices of row k of ``seqs`` under its own subcodebook
        ``cs[k]``, one row per block in ``blocks``: a (len(blocks), k) array
        from one kernel call."""
        blocks = tuple(blocks)
        keys = self._keys_for(cs, blocks)
        rows = np.asarray(seqs)
        if rows.ndim != 2 or rows.shape[1] != self.n or len(rows) != keys.shape[1]:
            raise ValueError(f"expected {keys.shape[1]} sequences of length n={self.n}, "
                             f"got shape {rows.shape}")
        return _bin_rows(keys, _byte_rows(rows), [self.bin_counts[j] for j in blocks])

    def match_space(self, cs: Sequence[int], j: int, targets) -> np.ndarray:
        """The flat indices k * alphabet_size**n + x, ascending, of every
        sequence x of ``all_sequences(alphabet_size, n)`` whose block-j bin
        under subcodebook ``cs[k]`` is ``targets[k]``: the nonzero entries of
        ``encode_space(cs, j) == targets[:, None]``, from one kernel call
        without the (len(cs), space) array."""
        return _match_space(self._keys_for(cs, [j])[0], self.alphabet_size, self.n,
                            self.bin_counts[j], targets)

    def encode_space(self, cs: Sequence[int], j: int) -> np.ndarray:
        """Bin index of every sequence of ``all_sequences(alphabet_size, n)``
        under block j of each subcodebook in ``cs``, without the sequence
        table: a (len(cs), alphabet_size**n) array from one kernel call."""
        # Kept though the program calls match_space: the phase-search
        # oracles bin the whole space through it.
        for c in cs:
            self._check_block(j, c)
        return space_bins(self.master_seed, [self._header(c, j) for c in cs],
                          self.alphabet_size, self.n, [self.bin_counts[j]] * len(cs))

    def _header(self, c: int, j: int) -> bytes:
        return struct.pack(">BIII", 0x01, self.sensor_id, c, j)

    def encode_block(self, x, c: int, j: int) -> int:
        """Bin index of sequence x under subcodebook c, block j."""
        # Kept though the program calls encode_rows: this and
        # fixed_rate_encode are the benchmark tracer's only binning.hash
        # targets, and CI's traced run fails if that layer loses them all.
        return int(self.encode_rows(np.asarray(x)[None], [c], [j])[0, 0])


def fixed_rate_header(sensor_id: int, c: int) -> bytes:
    """Hash header of the one-shot fixed-rate encoder of (sensor, c)."""
    return struct.pack(">BIII", 0x02, sensor_id, c, 0)


def fixed_rate_encode(seed: int, sensor_id: int, x, rate: float, c: int = 0) -> int:
    """One-shot fixed-rate bin index: deterministic in (seed, sensor, c, x)."""
    # Kept for the benchmark tracer, as BinningCodebook.encode_block is.
    x = np.asarray(x)
    return int(hash_rows(seed, [[fixed_rate_header(sensor_id, c)]], x[None],
                         [bin_count_for_rate(x.size, rate)])[0, 0])
