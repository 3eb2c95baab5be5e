"""Tests for the hashed random-binning codebooks."""
import math
import struct
from hashlib import blake2b

import numpy as np
import pytest
from scipy import stats

import byzsw.binning as binning
from byzsw.binning import (
    BinningCodebook,
    EnumerationGuardError,
    _chunk_words,
    _reduce,
    all_sequences,
    bin_count_for_rate,
    fixed_rate_encode,
    fixed_rate_header,
    hash_rows,
    space_bins,
)
from byzsw.fixed_rate import FixedRateCode
from oracles import reference_bin


def small_codebook(seed=0, eps=0.1, nu=0.15, n=12, C=4) -> BinningCodebook:
    return BinningCodebook(sensor_id=0, n=n, alphabet_size=2, eps=eps, nu=nu,
                           C=C, master_seed=seed)


def same_header(header: bytes, seqs) -> list[list[bytes]]:
    """One header row keying every row of ``seqs`` by ``header``."""
    return [[header] * len(seqs)]


def chains(cb: BinningCodebook, seqs, c: int, blocks) -> np.ndarray:
    """Bins of every row of ``seqs`` under subcodebook c, one row per block
    in ``blocks``."""
    seqs = np.asarray(seqs)
    return cb.encode_rows(seqs, [c] * len(seqs), blocks)


class TestHashRows:
    @pytest.mark.parametrize("tag", [0x01, 0x02])
    @pytest.mark.parametrize("seed,sensor,c,j,bins", [
        (0, 0, 0, 0, 7),
        (123456789, 1, 7, 0, 1),
        ((1 << 64) + 5, 3, 2, 1, 2 ** 32),
        (2 ** 63 + 11, 2, 1023, 4, 2 ** 32),
    ])
    def test_matches_per_sequence_reference(self, tag, seed, sensor, c, j, bins):
        seqs = all_sequences(2, 10)
        header = struct.pack(">BIII", tag, sensor, c, j)
        got = hash_rows(seed, same_header(header, seqs), seqs, [bins])
        assert got.dtype == np.int64 and got.shape == (1, len(seqs))
        assert got[0].tolist() == [reference_bin(seed, header, s, bins) for s in seqs]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 24])
    def test_matches_reference_across_word_boundaries(self, n):
        # rows shorter than, equal to and longer than whole 8-byte words
        seqs = np.random.default_rng(n).integers(0, 256, size=(64, n), dtype=np.uint8)
        header = struct.pack(">BIII", 0x01, 5, 3, 2)
        got = hash_rows(99, same_header(header, seqs), seqs, [1000003])[0]
        assert got.tolist() == [reference_bin(99, header, s, 1000003) for s in seqs]

    @pytest.mark.parametrize("n", [5, 8, 12, 17])
    def test_matches_reference_row_by_row(self, n):
        rng = np.random.default_rng(n)
        seqs = rng.integers(0, 3, size=(30, n), dtype=np.uint8)
        headers = [[struct.pack(">BIII", 0x01, 2, int(c), j) for c in rng.integers(0, 9, 30)]
                   for j in range(3)]
        bins = [2 ** 32, 7, 1000003]
        seed = (1 << 64) + 3 * n
        got = hash_rows(seed, headers, seqs, bins)
        assert got.dtype == np.int64 and got.shape == (3, 30)
        assert got.tolist() == [[reference_bin(seed, hd, x, b) for hd, x in zip(row, seqs)]
                                for row, b in zip(headers, bins)]

    @pytest.mark.parametrize("n", [5, 8, 12, 17])
    def test_repeated_headers_derive_each_key_once(self, n, monkeypatch):
        derived = []

        def counted(data, **kw):
            derived.append(data)
            return blake2b(data, **kw)

        monkeypatch.setattr(binning, "blake2b", counted)
        rng = np.random.default_rng(n)
        seqs = rng.integers(0, 3, size=(200, n), dtype=np.uint8)
        pool = [struct.pack(">BIII", 0x01, 2, c, j) for c in (0, 7) for j in range(4)]
        # one header row per pool header, repeated over every row, and one
        # mixing them row by row
        headers = ([[hd] * len(seqs) for hd in pool]
                   + [[pool[int(k)] for k in rng.integers(0, len(pool), len(seqs))]])
        bins = [1, 2, 1000003, 2 ** 32 - 1, 2 ** 32, 7, 2 ** 31 + 5, 2 ** 32, 1000003]
        seed = (1 << 64) + 3 * n
        got = hash_rows(seed, headers, seqs, bins)
        assert sorted(derived) == sorted(pool)
        assert got.shape == (len(headers), len(seqs))
        assert got.tolist() == [[reference_bin(seed, hd, x, b) for hd, x in zip(row, seqs)]
                                for row, b in zip(headers, bins)]

    def test_scalar_wrappers_agree_with_kernel(self):
        cb = small_codebook(seed=9)
        seqs = all_sequences(2, 12)[::37]
        for c, j in ((0, 0), (3, 1), (2, cb.J - 1)):
            assert (chains(cb, seqs, c, [j])[0].tolist()
                    == [cb.encode_block(x, c, j) for x in seqs])
        bins = bin_count_for_rate(12, 0.9)
        assert (hash_rows(4, same_header(fixed_rate_header(1, 5), seqs), seqs, [bins])[0].tolist()
                == [fixed_rate_encode(4, 1, x, 0.9, 5) for x in seqs])

    def test_bin_count_must_fit_int64(self):
        seqs = all_sequences(2, 4)
        for bins in (0, 2 ** 63):
            with pytest.raises(ValueError):
                hash_rows(0, same_header(b"", seqs), seqs, [bins])

    def test_bin_count_capped_at_2_32(self):
        seqs = all_sequences(2, 4)
        assert hash_rows(0, same_header(b"", seqs), seqs, [2 ** 32]).max() < 2 ** 32
        with pytest.raises(ValueError):
            hash_rows(0, same_header(b"", seqs), seqs, [2 ** 32 + 1])

    def test_symbols_must_fit_a_byte(self):
        with pytest.raises(ValueError):
            hash_rows(0, [[b""]], np.array([[0, 256]]), [4])
        with pytest.raises(ValueError):
            hash_rows(0, [[b""] * 2], np.array([0, 1]), [4])     # 1-D input

    def test_empty_rows_and_headers(self):
        seqs = np.zeros((0, 6), dtype=np.uint8)
        assert hash_rows(1, [[], []], seqs, [3, 4]).shape == (2, 0)
        assert hash_rows(1, [], all_sequences(2, 4), []).shape == (0, 16)

    def test_checks_fire_on_every_header_row(self):
        seqs = all_sequences(2, 3)
        two = [[b"a"] * 8, [b"b"] * 8]
        for bins in ([4, 0], [2 ** 32 + 1, 4], [4, 2 ** 63]):
            with pytest.raises(ValueError):
                hash_rows(0, two, seqs, bins)
        with pytest.raises(ValueError):
            hash_rows(0, two, seqs, [4])
        with pytest.raises(ValueError):
            hash_rows(0, [[b"a"] * 7], seqs, [4])
        with pytest.raises(ValueError):
            hash_rows(0, [[b"a"] * 8, [b"b"] * 7], seqs, [4, 4])


class TestCodebookRows:
    """``encode_rows`` keys each row by its own subcodebook, block by block."""

    @pytest.mark.parametrize("eps,nu,n", [(0.1, 0.15, 12), (0.35, 1.925, 12), (0.3, 0.5, 17)])
    def test_chain_matches_block_by_block(self, eps, nu, n):
        cb = BinningCodebook(sensor_id=3, n=n, alphabet_size=2, eps=eps, nu=nu,
                             C=5, master_seed=2 ** 63 + n)
        rng = np.random.default_rng(n)
        for c in range(cb.C):
            x = rng.integers(0, 2, n)
            chain = cb.encode_rows(x[None], [c], range(cb.J))
            assert chain.shape == (cb.J, 1)
            assert chain[:, 0].tolist() == [cb.encode_block(x, c, j) for j in range(cb.J)]
            assert chain[:, 0].tolist() == [reference_bin(cb.master_seed, cb._header(c, j), x,
                                                          cb.bin_count(j))
                                            for j in range(cb.J)]

    def test_rows_match_reference(self):
        cb = small_codebook(seed=17, eps=0.35, nu=1.0)
        rng = np.random.default_rng(17)
        seqs = rng.integers(0, 2, (10, 12))
        cs = [int(c) for c in rng.integers(0, cb.C, 10)]
        got = cb.encode_rows(seqs, cs, range(cb.J))
        assert got.tolist() == [[reference_bin(17, cb._header(c, j), x, cb.bin_count(j))
                                 for x, c in zip(seqs, cs)] for j in range(cb.J)]
        assert np.array_equal(cb.encode_rows(seqs, cs, [2, 0]), got[[2, 0]])

    def test_checks_subcodebook_block_and_length(self):
        cb = small_codebook()
        seqs = np.zeros((3, 12), dtype=int)
        for bad_cs, blocks in (([0, 1, cb.C], [0]), ([0, 1, 2], [cb.J]), ([0, 1], [0])):
            with pytest.raises(ValueError):
                cb.encode_rows(seqs, bad_cs, blocks)
        with pytest.raises(ValueError):
            cb.encode_rows(np.zeros((1, 5), dtype=int), [0], range(cb.J))


class TestSpaceBins:
    """The whole-space kernel, fed from the cached native words, equals
    ``hash_rows`` over ``all_sequences`` bit for bit."""

    BINS = [1, 2, 7, 1000003, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32]

    @pytest.mark.parametrize("alphabet,n", [(2, 1), (2, 7), (2, 8), (2, 9), (2, 16), (2, 17),
                                            (3, 1), (3, 7), (3, 8), (3, 9)])
    def test_matches_hash_rows_over_all_sequences(self, alphabet, n):
        seqs = all_sequences(alphabet, n)
        headers = [struct.pack(">BIII", 0x01, 4, c, j) for c, j in zip(range(7), (0, 1) * 4)]
        seed = (1 << 64) + 7 * n + alphabet
        got = space_bins(seed, headers, alphabet, n, self.BINS)
        assert got.dtype == np.int64 and got.shape == (len(headers), len(seqs))
        assert np.array_equal(got, hash_rows(seed, [[hd] * len(seqs) for hd in headers],
                                             seqs, self.BINS))
        for row, hd, b in zip(got, headers, self.BINS):
            assert np.array_equal(space_bins(seed, [hd], alphabet, n, [b])[0], row)

    @pytest.mark.parametrize("alphabet,n", [(3, 16), (3, 17)])
    def test_guard_as_for_all_sequences(self, alphabet, n):
        with pytest.raises(EnumerationGuardError):
            all_sequences(alphabet, n)
        with pytest.raises(EnumerationGuardError):
            space_bins(0, [b""], alphabet, n, [4])

    def test_alphabet_past_one_byte_refused(self):
        # a uint8 table wrapped symbol 299 to 43: all_sequences(300, 2) held
        # 65536 distinct rows of 90000, and sensor 0's bin of (299, 5) was
        # that of (43, 5)
        for refused in (lambda: all_sequences(300, 2),
                        lambda: space_bins(0, [b""], 300, 2, [4]),
                        lambda: FixedRateCode(rates=(1.0, 1.0), n=2).encode(0, 300, [299, 5])):
            with pytest.raises(ValueError, match="one byte"):
                refused()
        assert all_sequences(256, 2)[-1].tolist() == [255, 255]

    def test_word_table_cached_read_only_and_untouched(self):
        words = _chunk_words(2, 8)
        before = words.copy()
        space_bins(5, [b"x"], 2, 12, [1000])
        assert _chunk_words(2, 8) is words
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0] = 1
        assert np.array_equal(words, before)
        assert words.shape == (2 ** 8,) and words.dtype == np.uint64

    @pytest.mark.parametrize("alphabet,n", [(3, 13), (2, 20)])
    def test_matches_hash_rows_at_large_spaces(self, alphabet, n):
        # three word chunks at binary n = 20; a short last chunk at ternary
        # n = 13. The rows are built uncached, so the test keeps no 2^20 table.
        seqs = all_sequences.__wrapped__(alphabet, n)
        headers = [fixed_rate_header(1, 0), fixed_rate_header(2, 5)]
        bins = [2 ** 32, 1000003]
        assert np.array_equal(space_bins(3 * n, headers, alphabet, n, bins),
                              hash_rows(3 * n, [[hd] * len(seqs) for hd in headers],
                                        seqs, bins))

    def test_bin_count_outside_range_rejected_like_hash_rows(self):
        seqs = all_sequences(2, 4)
        for bins in (0, 2 ** 32 + 1, 2 ** 63):
            with pytest.raises(ValueError) as want:
                hash_rows(0, same_header(b"", seqs), seqs, [bins])
            with pytest.raises(ValueError) as got:
                space_bins(0, [b""], 2, 4, [bins])
            assert str(got.value) == str(want.value)
            with pytest.raises(ValueError):
                space_bins(0, [b"a", b"b"], 2, 4, [4, bins])

    def test_codebook_and_fixed_rate_entries(self):
        cb = small_codebook(seed=21)
        seqs = all_sequences(2, 12)
        for c, j in ((0, 0), (3, 1), (1, cb.J - 1)):
            assert np.array_equal(cb.encode_space([c], j), chains(cb, seqs, c, [j]))
        with pytest.raises(ValueError):
            cb.encode_space([cb.C], 0)
        with pytest.raises(ValueError):
            cb.encode_space([0], cb.J)
        # several subcodebooks: one row each, from one call
        assert np.array_equal(cb.encode_space([2, 0, 2], 1),
                              np.stack([cb.encode_space([c], 1)[0] for c in (2, 0, 2)]))
        with pytest.raises(ValueError):
            cb.encode_space([0, cb.C], 0)
        bins = hash_rows(8, same_header(fixed_rate_header(2, 3), seqs), seqs,
                         [bin_count_for_rate(12, 0.5)])[0]
        code = FixedRateCode(rates=(1.0, 1.0, 0.5), n=12, C=4, seed=8)
        got = code.space_bins(2, 2, 3)
        assert np.array_equal(got, bins)
        assert code.space_bins(2, 2, 3) is got and not got.flags.writeable


class TestReduction:
    """The reduction the kernels share equals ``%``, on short rows and on
    long ones (floor division, a block of columns at a time)."""

    @pytest.mark.parametrize("width", [5, 2 ** 14 + 7])
    @pytest.mark.parametrize("bins", [1, 2, 2 ** 32 - 1, 2 ** 32])
    def test_matches_mod(self, bins, width):
        rng = np.random.default_rng(bins)
        h = rng.integers(0, 2 ** 64, size=(2, width), dtype=np.uint64)
        h[0, :4] = [0, 2 ** 64 - 1, bins, 2 ** 64 - bins]
        want = h % np.array([[bins], [7]], dtype=np.uint64)
        _reduce(h, (bins, 7))
        assert np.array_equal(h, want)


class TestAllSequences:
    @staticmethod
    def by_unravel(alphabet, n):
        """The former construction: every index unravelled to its digits."""
        rows = np.stack(np.unravel_index(np.arange(alphabet ** n), (alphabet,) * n), axis=1)
        return np.ascontiguousarray(rows.astype(np.uint8))

    @pytest.mark.parametrize("alphabet,n", [(2, 1), (2, 8), (2, 9), (2, 14), (3, 1), (3, 9)])
    def test_same_bytes_as_unravel(self, alphabet, n):
        got = all_sequences(alphabet, n)
        want = self.by_unravel(alphabet, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        assert all_sequences(alphabet, n) is got


class TestEncodeBlock:
    def test_deterministic(self):
        cb = small_codebook()
        x = np.array([0, 1] * 6)
        assert cb.encode_block(x, 1, 0) == cb.encode_block(x, 1, 0)
        assert cb.encode_block(x, 1, 1) == cb.encode_block(x, 1, 1)

    def test_range_contract(self):
        cb = small_codebook()
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = rng.integers(0, 2, size=12)
            j = int(rng.integers(0, cb.J))
            c = int(rng.integers(0, cb.C))
            assert 0 <= cb.encode_block(x, c, j) < cb.bin_count(j)

    def test_out_of_range_rejected(self):
        cb = small_codebook()
        x = np.zeros(12, dtype=int)
        with pytest.raises(ValueError):
            cb.encode_block(x, cb.C, 0)
        with pytest.raises(ValueError):
            cb.encode_block(x, 0, cb.J)
        with pytest.raises(ValueError):
            cb.encode_block(np.zeros(5, dtype=int), 0, 0)

    def test_chi_square_uniformity_over_seeds(self):
        # block 0 at eps=0.1, nu=0.15, n=12: ceil(2^3) = 8 bins over all 4096
        # sequences; the keyed hash should look uniform for nearly every seed
        passed = 0
        seqs = all_sequences(2, 12)
        for seed in range(100):
            cb = small_codebook(seed=seed)
            idx = chains(cb, seqs, 0, [0])[0]
            counts = np.bincount(idx, minlength=cb.bin_count(0))
            p_value = stats.chisquare(counts).pvalue
            passed += p_value > 0.001
        assert passed >= 99

    def test_first_block_carries_nu(self):
        cb = small_codebook()
        assert cb.bin_count(0) == math.ceil(2 ** (12 * 0.25))
        assert cb.bin_count(1) == math.ceil(2 ** (12 * 0.1))
        assert cb.J == max(1, math.ceil(1 / 0.1))


def matching_rows(cb: BinningCodebook, seqs, c: int, sent) -> np.ndarray:
    """The rows of ``seqs`` whose bins under subcodebook c in blocks
    0..len(sent)-1 equal ``sent``, in row order: what a decoder keeps after
    those blocks."""
    seqs = np.asarray(seqs)
    bins = chains(cb, seqs, c, range(len(sent)))
    return seqs[(bins == np.asarray(sent)[:, None]).all(axis=0)]


class TestComposite:
    def test_single_block_chain(self):
        cb = small_codebook()
        x = np.array([1] * 12)
        chain = chains(cb, x[None], 2, range(cb.J))[:, 0]
        assert chain.shape == (cb.J,)
        assert chain[0] == cb.encode_block(x, 2, 0)

    def test_prefix_property(self):
        cb = small_codebook()
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.integers(0, 2, size=12)
            c = int(rng.integers(0, cb.C))
            j = int(rng.integers(0, cb.J - 1))
            a = chains(cb, x[None], c, range(j + 1))[:, 0]
            b = chains(cb, x[None], c, range(j + 2))[:, 0]
            assert list(b[:j + 1]) == list(a)
            assert list(b) == [cb.encode_block(x, c, k) for k in range(j + 2)]

    def test_collision_rate_matches_bin_counts(self):
        cb = small_codebook(seed=3)
        rng = np.random.default_rng(2)
        j = 1
        nominal = 1.0
        for k in range(j + 1):
            nominal /= cb.bin_count(k)
        trials = 40_000
        # the same stream as drawing x then y, pair by pair
        pairs = rng.integers(0, 2, size=(trials, 2, 12))
        x, y = pairs[:, 0], pairs[:, 1]
        same_chain = np.any(x != y, axis=1)
        for k in range(j + 1):
            same_chain &= chains(cb, x, 0, [k])[0] == chains(cb, y, 0, [k])[0]
        hits = int(same_chain.sum())
        freq = hits / trials
        sigma = math.sqrt(nominal * (1 - nominal) / trials)
        assert abs(freq - nominal) < 4 * sigma + 1e-4

    def test_subcodebook_change_rerandomizes(self):
        # among pairs colliding at c=0, collisions at c=1 occur at the
        # nominal rate; the first 3000 distinct colliding pairs of the stream
        # that draws x then y, pair by pair, hashed in batches
        cb = small_codebook(seed=4)
        rng = np.random.default_rng(3)
        j = 0
        nominal = 1.0 / cb.bin_count(0)
        batches, found = [], 0
        while found < 3000:
            pairs = rng.integers(0, 2, size=(8192, 2, 12))
            x, y = pairs[:, 0], pairs[:, 1]
            keep = np.any(x != y, axis=1) & (
                chains(cb, x, 0, [j])[0] == chains(cb, y, 0, [j])[0])
            batches.append(pairs[keep])
            found += int(keep.sum())
        colliding = np.concatenate(batches)[:3000]
        hits = int((chains(cb, colliding[:, 0], 1, [j])[0]
                    == chains(cb, colliding[:, 1], 1, [j])[0]).sum())
        freq = hits / len(colliding)
        sigma = math.sqrt(nominal * (1 - nominal) / len(colliding))
        assert abs(freq - nominal) < 3.5 * sigma


class TestSearchBin:
    """A bin search is ``encode_rows`` over the candidates, compared with
    the first entries of the sender's chain."""

    def test_true_sequence_found_iff_chain_matches(self):
        cb = small_codebook()
        x = np.array([0, 1, 1, 0] * 3)
        chain = chains(cb, x[None], 0, range(2))[:, 0]
        assert [tuple(s) for s in matching_rows(cb, [x], 0, chain)] == [tuple(x)]
        wrong = [(chain[0] + 1) % cb.bin_count(0), chain[1]]
        assert len(matching_rows(cb, [x], 0, wrong)) == 0

    def test_empty_candidates(self):
        cb = small_codebook()
        none = np.zeros((0, 12), dtype=np.uint8)
        assert chains(cb, none, 0, [0]).shape == (1, 0)
        assert len(matching_rows(cb, none, 0, [0])) == 0

    def test_results_lexicographic(self):
        cb = small_codebook(eps=0.05, nu=0.05001, n=8)
        seqs = all_sequences(2, 8)
        chain = chains(cb, seqs[37:38], 0, [0])[:, 0]
        found = matching_rows(cb, seqs, 0, chain)
        keys = [tuple(int(v) for v in s) for s in found]
        assert keys == sorted(keys)
        assert tuple(seqs[37]) in keys

    def test_unique_recovery_above_conditional_entropy(self):
        # candidate set of ~200 random sequences plus the truth; composite
        # rate j*eps + nu well above log2(200)/n isolates the truth
        rng = np.random.default_rng(5)
        wins = 0
        for seed in range(200):
            cb = BinningCodebook(0, 12, 2, eps=0.35, nu=0.8, C=2, master_seed=seed)
            truth = rng.integers(0, 2, size=12)
            cands = [truth] + [rng.integers(0, 2, size=12) for _ in range(200)]
            chain = chains(cb, truth[None], 0, range(2))[:, 0]  # rate 2*0.35+0.8 = 1.5b/sym
            found = matching_rows(cb, cands, 0, chain)
            wins += (len(found) == 1
                     and np.array_equal(found[0], truth))
        assert wins >= 190

    def test_partition_property(self):
        # every sequence maps to exactly one chain; searching all chains of a
        # fixed (c, j) recovers the candidate set exactly once
        cb = small_codebook(eps=0.2, nu=0.21, n=8)
        seqs = all_sequences(2, 8)
        seen = {}
        for s in seqs:
            chain = chains(cb, s[None], 1, range(2))[:, 0]
            seen.setdefault(tuple(chain), []).append(tuple(int(v) for v in s))
        total = sum(len(v) for v in seen.values())
        assert total == len(seqs)
        recovered = sorted(t for chain, members in seen.items()
                           for t in (tuple(int(v) for v in s)
                                     for s in matching_rows(cb, seqs, 1, chain)))
        assert recovered == sorted(tuple(int(v) for v in s) for s in seqs)


class TestFixedRate:
    def test_zero_rate_single_bin(self):
        x = np.array([1, 0, 1, 1])
        assert bin_count_for_rate(4, 0.0) == 1
        assert fixed_rate_encode(9, 0, x, 0.0) == 0

    def test_determinism(self):
        x = np.array([1, 0] * 7)
        assert fixed_rate_encode(1, 2, x, 0.9, 3) == fixed_rate_encode(1, 2, x, 0.9, 3)
        assert fixed_rate_encode(1, 2, x, 0.9, 3) != fixed_rate_encode(2, 2, x, 0.9, 3) \
            or True   # different seeds may collide; only equality is contractual

    def test_pairwise_collision_census_at_full_rate(self):
        # R = log2|X|: 2^12 bins over 2^12 sequences; the pairwise collision
        # rate over the full census tracks 1/bins
        n = 12
        bins = bin_count_for_rate(n, 1.0)
        idx = np.array([fixed_rate_encode(7, 0, x, 1.0) for x in all_sequences(2, n)])
        counts = np.bincount(idx, minlength=bins)
        pairs = float((counts * (counts - 1) // 2).sum())
        total_pairs = len(idx) * (len(idx) - 1) / 2
        ratio = pairs / (total_pairs / bins)
        assert 0.8 < ratio < 1.25

    def test_guard_on_enumeration(self):
        with pytest.raises(EnumerationGuardError):
            all_sequences(2, 30)
