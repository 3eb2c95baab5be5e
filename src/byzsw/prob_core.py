"""Exact finite-alphabet probability and method-of-types utilities.

Everything downstream (rate regions, protocols, adversaries) is built on the
four types defined here: joint probability tables, conditional channels,
empirical types with an explicit denominator, and sensor-index subsets.

Conventions:

* all entropies and rates are in bits (log base 2),
* 0 * log 0 = 0 by continuity,
* probabilities are 64-bit floats; tables must sum to 1 within 1e-12,
* all types are immutable after construction and safe to share across
  concurrent workers; every operation is a pure function. A JointPMF
  memoizes its subset entropies in one list indexed by the subset's bitmask
  (``subset_entropy``); the memo only ever gains the value a fresh
  computation would give, so sharing stays safe.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

PROB_ATOL = 1e-12    # normalization slack for probability tables


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubsetView:
    """A sorted subset of sensor indices (0-based)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError(f"negative sensor index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, *indices: int) -> "SubsetView":
        return cls(tuple(sorted({int(i) for i in indices})))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    @functools.cached_property
    def mask(self) -> int:
        """The set as a bitmask: bit i is sensor i."""
        return sum(1 << i for i in self.indices)

    def union(self, other: "SubsetView") -> "SubsetView":
        return SubsetView.of(*self.indices, *other.indices)

    def intersection(self, other: "SubsetView") -> "SubsetView":
        return SubsetView(tuple(i for i in self.indices if i in other.indices))

    def difference(self, other: "SubsetView") -> "SubsetView":
        return SubsetView(tuple(i for i in self.indices if i not in other.indices))

    def complement(self, m: int) -> "SubsetView":
        return SubsetView(tuple(i for i in range(m) if i not in self.indices))

    def is_subset_of(self, other: "SubsetView") -> bool:
        return all(i in other.indices for i in self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices) + "}"


def union_of(subsets: Iterable[SubsetView]) -> SubsetView:
    out: set[int] = set()
    for s in subsets:
        out.update(s.indices)
    return SubsetView(tuple(sorted(out)))


@dataclass(frozen=True)
class JointPMF:
    """Exact probability table over the m-fold product alphabet."""

    alphabet_sizes: tuple[int, ...]
    mass: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(a) for a in self.alphabet_sizes)
        if any(a < 1 for a in sizes):
            raise ValueError(f"alphabet sizes must be positive, got {sizes}")
        arr = np.asarray(self.mass, dtype=float)
        if arr.shape != sizes:
            raise ValueError(f"mass shape {arr.shape} != alphabet sizes {sizes}")
        if np.any(arr < 0):
            raise ValueError("negative probability cell")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"mass sums to {total!r}, not 1")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "mass", _frozen(arr))
        # H(X_A) by the bitmask of A, allocated and filled lazily by
        # subset_entropy(), and the marginal laws by bitmask, filled by
        # marginal(); not fields, so they take no part in equality or repr
        object.__setattr__(self, "_entropies", [])
        object.__setattr__(self, "_marginals", {})

    @property
    def m(self) -> int:
        return len(self.alphabet_sizes)

    @property
    def num_cells(self) -> int:
        return math.prod(self.alphabet_sizes)


@dataclass(frozen=True)
class ConditionalPMF:
    """Channel r(w | x): one output distribution per joint input symbol.

    ``uniform_filled_rows`` flags (flat) input symbols whose row was not
    derivable (conditioning on a zero-probability event) and was therefore
    filled with the uniform distribution instead of raising.
    """

    input_alphabet_sizes: tuple[int, ...]
    output_alphabet_size: int
    rows: np.ndarray
    uniform_filled_rows: tuple[int, ...] = ()

    def __post_init__(self):
        sizes = tuple(int(a) for a in self.input_alphabet_sizes)
        w = int(self.output_alphabet_size)
        arr = np.asarray(self.rows, dtype=float)
        if arr.shape != sizes + (w,):
            raise ValueError(f"rows shape {arr.shape} != {sizes + (w,)}")
        if np.any(arr < 0):
            raise ValueError("negative channel entry")
        sums = arr.reshape(-1, w).sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PROB_ATOL):
            raise ValueError("channel row does not sum to 1")
        object.__setattr__(self, "input_alphabet_sizes", sizes)
        object.__setattr__(self, "output_alphabet_size", w)
        object.__setattr__(self, "rows", _frozen(arr))
        object.__setattr__(self, "uniform_filled_rows",
                           tuple(int(i) for i in self.uniform_filled_rows))

    @property
    def num_inputs(self) -> int:
        return int(np.prod(self.input_alphabet_sizes))


@dataclass(frozen=True)
class EmpiricalType:
    """Integer count table with denominator n; the type of a block."""

    alphabet_sizes: tuple[int, ...]
    counts: np.ndarray
    n: int

    def __post_init__(self):
        sizes = tuple(int(a) for a in self.alphabet_sizes)
        arr = np.asarray(self.counts)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("counts must be integers")
        if arr.shape != sizes:
            raise ValueError(f"counts shape {arr.shape} != {sizes}")
        if np.any(arr < 0):
            raise ValueError("negative count")
        n = int(self.n)
        if n < 1:
            raise ValueError("denominator must be positive")
        if int(arr.sum()) != n:
            raise ValueError(f"counts sum to {int(arr.sum())}, not n={n}")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "counts", _frozen(arr))
        object.__setattr__(self, "n", n)

    def normalized(self) -> JointPMF:
        return JointPMF(self.alphabet_sizes, self.counts / self.n)


# ---------------------------------------------------------------------------
# entropy arithmetic
# ---------------------------------------------------------------------------

def entropy_of_table(table: np.ndarray) -> float:
    """-sum(p log2 p) over the raw table, skipping zero cells."""
    flat = np.asarray(table, dtype=float).ravel()
    nz = flat[flat > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _validate_subset(pmf: JointPMF, s: SubsetView) -> None:
    if any(i >= pmf.m for i in s):
        raise ValueError(f"subset {s} out of range for m={pmf.m}")


def marginal(pmf: JointPMF, s: SubsetView) -> JointPMF:
    """Marginal table p(x_s), coordinates kept in ascending index order.

    Each law builds a subset's marginal once and keeps it by bitmask; the
    kept law is immutable, so every caller may share it."""
    if len(s) == 0:
        raise ValueError("marginal over the empty subset is undefined")
    out = pmf._marginals.get(s.mask)
    if out is None:
        _validate_subset(pmf, s)
        out = pmf._marginals[s.mask] = JointPMF(tuple(pmf.alphabet_sizes[i] for i in s),
                                                marginal_table(pmf, s.mask))
    return out


def marginal_table(pmf: JointPMF, mask: int) -> np.ndarray:
    """The array ``marginal`` wraps, for a nonempty bitmask and with no
    checks: p(x_A) summed over the other axes and renormalized to sum 1."""
    drop = tuple(i for i in range(pmf.m) if not mask >> i & 1)
    table = pmf.mass.sum(axis=drop) if drop else np.array(pmf.mass)
    return table / table.sum()


def subset_entropy(pmf: JointPMF, mask: int) -> float:
    """H(X_A) in bits, A given as a bitmask (bit i is sensor i, 0 <= mask <
    2^m); the empty set has entropy 0.0.

    Every subset entropy of a law is read from one list indexed by the mask,
    each entry computed once on first read: the full set from the table
    itself, any other set from its renormalized marginal
    (``marginal_table``). So an entry is bit for bit the value a fresh
    computation gives."""
    memo = pmf._entropies
    if not memo:
        memo = [None] * (1 << pmf.m)
        memo[0] = 0.0
        object.__setattr__(pmf, "_entropies", memo)
    h = memo[mask]
    if h is None:
        full = mask == len(memo) - 1
        h = memo[mask] = entropy_of_table(pmf.mass if full else marginal_table(pmf, mask))
    return h


def entropy(pmf: JointPMF, s: SubsetView | None = None) -> float:
    """H(X_s) in bits; s=None means the full joint entropy (``subset_entropy``)."""
    if s is None:
        return subset_entropy(pmf, (1 << pmf.m) - 1)
    _validate_subset(pmf, s)
    return subset_entropy(pmf, s.mask)


def conditional_entropy(pmf: JointPMF, target: SubsetView, given: SubsetView) -> float:
    """H(X_target | X_given) = H(target u given) - H(given), in bits."""
    if any(i in given for i in target):
        raise ValueError(f"target {target} and given {given} must be disjoint")
    _validate_subset(pmf, target)
    _validate_subset(pmf, given)
    return subset_entropy(pmf, target.mask | given.mask) - subset_entropy(pmf, given.mask)


def conditional_mutual_information(pmf: JointPMF, *parts: SubsetView,
                                   given: SubsetView = SubsetView(())) -> float:
    """I(X_a; X_b | X_given) for two parts, or the three-way form
    I(X;Y;Z|W) = H(X|W)+H(Y|W)+H(Z|W)-H(XYZ|W) for three.
    """
    if len(parts) < 2:
        raise ValueError("need at least two subsets")
    seen: set[int] = set(given.indices)
    for p in parts:
        if seen.intersection(p.indices):
            raise ValueError("subsets must be pairwise disjoint")
        seen.update(p.indices)
    if any(i >= pmf.m for i in seen):
        raise ValueError(f"subsets out of range for m={pmf.m}")
    return mutual_information_of_masks(pmf, [p.mask for p in parts], given.mask)


def mutual_information_of_masks(pmf: JointPMF, parts: Sequence[int], given: int = 0) -> float:
    """``conditional_mutual_information`` on disjoint bitmasks: the sum of
    H(X_a | X_given) over the parts minus H(X_union | X_given)."""
    h_given = subset_entropy(pmf, given)
    total = sum(subset_entropy(pmf, a | given) - h_given for a in parts)
    return total - (subset_entropy(pmf, functools.reduce(operator.or_, parts) | given)
                    - h_given)


# ---------------------------------------------------------------------------
# types and typicality
# ---------------------------------------------------------------------------

def type_of(symbols: np.ndarray, alphabet_sizes: Sequence[int]) -> EmpiricalType:
    """Joint empirical type of a (k, n) block of per-sensor sequences."""
    arr = np.asarray(symbols)
    if arr.ndim == 1:
        arr = arr[None, :]
    sizes = tuple(int(a) for a in alphabet_sizes)
    if arr.shape[0] != len(sizes):
        raise ValueError(f"{arr.shape[0]} sequences but {len(sizes)} alphabets")
    n = arr.shape[1]
    if n < 1:
        raise ValueError("empty block")
    if np.any(arr < 0) or any(arr[k].max() >= sizes[k] for k in range(len(sizes))):
        raise ValueError("symbol out of alphabet range")
    flat = np.ravel_multi_index(tuple(arr), sizes)
    counts = np.bincount(flat, minlength=math.prod(sizes)).reshape(sizes)
    return EmpiricalType(sizes, counts, n)


def type_counts(flat_seqs: np.ndarray, cells: int) -> np.ndarray:
    """(k, cells) symbol counts of each row of a (k, n) array of flat joint
    symbols (each below ``cells``), from one ``bincount``."""
    k = flat_seqs.shape[0]
    flat = (np.arange(k)[:, None] * cells + flat_seqs.astype(np.int64)).reshape(-1)
    return np.bincount(flat, minlength=k * cells).reshape(k, cells)


def eta_ball_contains(q: JointPMF, t: Union[EmpiricalType, JointPMF], eta: float) -> bool:
    """Pointwise ball test: |q(x) - t(x)/n| <= eta/|alphabet| for every cell."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if q.alphabet_sizes != t.alphabet_sizes:
        raise ValueError("alphabet mismatch")
    other = t.normalized().mass if isinstance(t, EmpiricalType) else t.mass
    tol = eta / q.num_cells
    return bool(np.max(np.abs(q.mass - other)) <= tol)


# ---------------------------------------------------------------------------
# side-information channels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def identity_channel(alphabet_sizes: tuple[int, ...]) -> ConditionalPMF:
    """The perfect-information channel W = (X_1, ..., X_m), one shared
    read-only instance per size tuple."""
    sizes = tuple(int(a) for a in alphabet_sizes)
    cells = int(np.prod(sizes))
    rows = np.eye(cells).reshape(sizes + (cells,))
    return ConditionalPMF(sizes, cells, rows)


def joint_with_channel(p: JointPMF, r: ConditionalPMF) -> np.ndarray:
    """Raw joint table p(x) r(w|x), shape = alphabet_sizes + (|W|,)."""
    if r.input_alphabet_sizes != p.alphabet_sizes:
        raise ValueError("channel input alphabet does not match source")
    return p.mass[..., None] * r.rows


def conditional_rows(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Condition a (k, w) table on its rows: row k becomes num[k] / den[k],
    or the uniform row where den[k] is not positive, and every row is then
    renormalized. Returns the rows and the indices of the uniform-filled
    ones."""
    filled = ~(den > 0.0)
    rows = np.empty(num.shape)
    rows[~filled] = num[~filled] / den[~filled, None]
    rows[filled] = 1.0 / num.shape[1]
    rows /= rows.sum(axis=1, keepdims=True)
    return rows, tuple(np.flatnonzero(filled).tolist())


def marginalize_info_channel(r: ConditionalPMF, p: JointPMF, h: SubsetView) -> ConditionalPMF:
    """Collapse r(w | x_1..x_m) to the channel seen from x_h only:

        r~(w | x_h) = sum_{x_hc} p(x_hc | x_h) r(w | x_h x_hc).

    Rows conditioned on zero-probability x_h are set to uniform and flagged
    in ``uniform_filled_rows`` so degenerate scenarios still load.
    """
    if len(h) == 0:
        raise ValueError("h must be nonempty")
    _validate_subset(p, h)
    joint = joint_with_channel(p, r)
    drop = tuple(i for i in range(p.m) if i not in h)
    num = joint.sum(axis=drop) if drop else joint                 # (sizes_h..., W)
    den = p.mass.sum(axis=drop) if drop else np.array(p.mass)     # (sizes_h...)
    w = r.output_alphabet_size
    rows, filled = conditional_rows(num.reshape(-1, w), den.reshape(-1))
    sizes_h = tuple(p.alphabet_sizes[i] for i in h)
    return ConditionalPMF(sizes_h, w, rows.reshape(sizes_h + (w,)),
                          uniform_filled_rows=filled)


def channel_conditional_entropy(p: JointPMF, r: ConditionalPMF, target: SubsetView) -> float:
    """H(X_target | W) in bits under the joint law p(x) r(w|x)."""
    _validate_subset(p, target)
    joint = joint_with_channel(p, r)
    drop = tuple(i for i in range(p.m) if i not in target)
    tw = joint.sum(axis=drop) if drop else joint
    w_marg = joint.sum(axis=tuple(range(p.m)))
    return entropy_of_table(tw) - entropy_of_table(w_marg)
