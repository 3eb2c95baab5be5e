"""Achievable-rate calculators.

Four groups of operations live here:

* the max-entropy value with prescribed marginals, behind the variable-rate
  minimum sum rate under perfect traitor information: one walk lists the
  families of every search (overall and per true honest set) and one scan
  scores each family once, by a junction-tree closed form for alpha-acyclic
  families and iterative proportional fitting (IPF) for cyclic ones, then
  IPF solves each search's winner, whose law q the traitors need; plus the
  analytic closed forms for 1, 2, and m-1 tolerated traitors;
* one small linear-programming kernel, a dense two-phase simplex in numpy
  (``LinearProgram``), behind everything that asks which joint laws the
  traitors can simulate;
* simulability of a joint law for a given candidate honest set and
  side-information channel (phase 1 of that simplex), and the minimum sum
  rate under imperfect information, bracketed per (sub-collection,
  channel) system by Frank-Wolfe over the simplex's linear oracle: a lower
  bound at a simulable law and an upper bound certified by LP duality;
* membership tests for the fixed-rate regions (per-candidate Slepian-Wolf
  constraints, plus the extra deterministic-coding constraint for pairs of
  candidates whose intersection the traitors can know exactly).

Sensor sets are int bitmasks wherever enumeration is hot (bit i is sensor
i), and every subset entropy is read from the law's one table indexed by
mask (``prob_core.subset_entropy``): the closed forms, the family scores and
the Slepian-Wolf facets H(X_S' | X_{S - S'}) = H[S] - H[S - S'] build no
subset object in their loops. Everything is pure computation on in-memory
tables; desk-scale guards refuse instances that would require exponential
work beyond ~2^20 cells.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .binning import EnumerationGuardError
from .prob_core import (
    ConditionalPMF,
    JointPMF,
    SubsetView,
    channel_conditional_entropy,
    entropy_of_table,
    identity_channel,
    marginal,
    marginal_table,
    marginalize_info_channel,
    mutual_information_of_masks,
    subset_entropy,
    union_of,
)

FAMILY_GUARD = 4096            # max irredundant sub-collections per enumeration
JOINT_CELL_GUARD = 256         # max joint alphabet size for the general optimizer
FW_GAP = 1e-7                  # bracket width, bits, at which one system stops
FW_MAX_STEPS = 2000            # LP-vertex steps per system at most


@dataclass(frozen=True)
class HonestCollection:
    """The list of candidate honest sets the code must tolerate."""

    candidates: tuple[SubsetView, ...]

    def __post_init__(self):
        cands = tuple(self.candidates)
        if not cands:
            raise ValueError("honest collection must be nonempty")
        if len(set(cands)) != len(cands):
            raise ValueError("duplicate candidate sets")
        object.__setattr__(self, "candidates",
                           tuple(sorted(cands, key=lambda s: (len(s), s.indices))))

    @classmethod
    def threshold(cls, m: int, t: int) -> "HonestCollection":
        """All subsets with at least m - t sensors (at most t traitors)."""
        if not 0 <= t < m:
            raise ValueError(f"threshold t={t} out of range for m={m}")
        sets = []
        for size in range(m - t, m + 1):
            for combo in itertools.combinations(range(m), size):
                sets.append(SubsetView(combo))
        return cls(tuple(sets))

    @classmethod
    def explicit(cls, sets: Iterable[Sequence[int]]) -> "HonestCollection":
        return cls(tuple(SubsetView.of(*s) for s in sets))

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, s: SubsetView) -> bool:
        return s in self.candidates

    def detect_threshold(self, m: int) -> int | None:
        """Recognize threshold-style collections, including the variant that
        lists only the minimum-size sets (exactly t traitors)."""
        smallest = min(map(len, self.candidates))
        exact = {SubsetView(c) for c in itertools.combinations(range(m), smallest)}
        full = set(HonestCollection.threshold(m, m - smallest))
        return m - smallest if set(self.candidates) in (full, exact) else None


@dataclass(frozen=True)
class InfoModel:
    """Map from candidate honest sets to the side-information channels the
    code is willing to accept for them; ``channels`` None is perfect
    information, where every candidate's one channel is the identity."""

    channels: Mapping[SubsetView, tuple[ConditionalPMF, ...]] | None
    alphabet_sizes: tuple[int, ...]

    @property
    def perfect(self) -> bool:
        return self.channels is None

    @classmethod
    def perfect_info(cls, alphabet_sizes: Sequence[int]) -> "InfoModel":
        return cls(None, tuple(int(a) for a in alphabet_sizes))

    @classmethod
    def from_channels(cls, channels: Mapping[SubsetView, Sequence[ConditionalPMF]],
                      alphabet_sizes: Sequence[int]) -> "InfoModel":
        table = {}
        for s, chans in channels.items():
            if not chans:
                raise ValueError(f"candidate {s} has no channels")
            table[s] = tuple(chans)
        return cls(table, tuple(int(a) for a in alphabet_sizes))

    def channels_for(self, s: SubsetView) -> tuple[ConditionalPMF, ...]:
        if self.perfect:
            return (identity_channel(self.alphabet_sizes),)
        try:
            return self.channels[s]
        except KeyError:
            raise KeyError(f"no channels registered for candidate {s}") from None


# ---------------------------------------------------------------------------
# max-entropy projection (IPF)
# ---------------------------------------------------------------------------

class MaxEntropyResult(NamedTuple):
    q: JointPMF
    value: float          # H_q(X_U) in bits, U = union of the constraint sets
    converged: bool
    residual: float       # worst marginal mismatch at exit
    sweeps: int


def max_entropy_with_marginals(p: JointPMF, V: Sequence[SubsetView], *,
                               tol: float = 1e-10,
                               max_sweeps: int = 100_000) -> MaxEntropyResult:
    """Maximize H_q(X_U) subject to q(x_S) = p(x_S) for every S in V.

    Solved by iterative proportional fitting from the uniform start, cycling
    the updates q <- q * p(x_S)/q(x_S). Cells where a target marginal is zero
    are driven to zero on the first sweep and stay there (supported-cell
    arithmetic). The returned q is extended to the full alphabet with the
    coordinates outside U independent and uniform, which preserves the
    product form of the maximizer.
    """
    if not V:
        raise ValueError("constraint family must be nonempty")
    U = union_of(V)
    sizes_u = tuple(p.alphabet_sizes[i] for i in U)
    pos_in_u = {i: k for k, i in enumerate(U)}

    constraints = []
    for S in V:
        target = marginal_table(p, S.mask)
        axes_keep = tuple(pos_in_u[i] for i in S)
        axes_drop = tuple(k for k in range(len(U.indices)) if k not in axes_keep)
        shape = tuple(sizes_u[k] if k in axes_keep else 1 for k in range(len(U.indices)))
        constraints.append((target.reshape(shape), axes_drop, target))

    q = np.full(sizes_u, 1.0 / int(np.prod(sizes_u)))
    residual = math.inf
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        for target_keepdims, axes_drop, _ in constraints:
            cur = q.sum(axis=axes_drop, keepdims=True) if axes_drop else q
            ratio = np.divide(target_keepdims, cur, out=np.zeros_like(cur),
                              where=cur > 0)
            q = q * ratio
        residual = 0.0
        for _, axes_drop, target in constraints:
            cur = q.sum(axis=axes_drop) if axes_drop else q
            residual = max(residual, float(np.max(np.abs(cur - target.reshape(cur.shape)))))
        if residual <= tol:
            converged = True
            break

    q = q / q.sum()
    value = entropy_of_table(q)

    comp = U.complement(p.m)
    comp_cells = int(np.prod([p.alphabet_sizes[i] for i in comp])) if len(comp) else 1
    shape_full = tuple(p.alphabet_sizes[i] if i in U else 1 for i in range(p.m))
    full = np.broadcast_to(q.reshape(shape_full) / comp_cells, p.alphabet_sizes).copy()
    return MaxEntropyResult(JointPMF(p.alphabet_sizes, full), value,
                            converged, residual, sweeps)


# ---------------------------------------------------------------------------
# variable-rate minimum sum rate, perfect information
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    """Evaluation of the variable-rate minimum achievable sum rate."""

    r_star: float
    maximizer_V: tuple[SubsetView, ...]
    maximizer_q: JointPMF
    per_pair_detail: dict     # SubsetView (true honest set) -> (value in bits, V, q)
    all_converged: bool

    @property
    def per_pair(self) -> dict:
        """SubsetView (true honest set) -> value in bits."""
        return {h: detail[0] for h, detail in self.per_pair_detail.items()}


def _lex_key(V: Sequence[SubsetView]):
    return tuple(sorted(s.indices for s in V))


def _families(candidates: Sequence[SubsetView]):
    """Every family some R* search scores: every nonempty V in which at most
    one member lacks a private sensor (one no other member covers). An
    irredundant family (singletons always are) belongs to the overall search
    and to the search pinned to each of its members; a family whose one
    redundant member is P only to P's search, for per-true-honest-set
    evaluations.

    One depth-first walk over int bitmasks with members in candidate order,
    carrying the sensors covered exactly once and those covered more than
    once, cut as soon as a second member lacks a private sensor: private
    sensors only shrink as sets join. So a family with a redundant member
    extends only to such families; those are walked last. Returns
    (V, union, lone) triples, lone the redundant member or None, sorted once
    by (-|union|, _lex_key(V)), the second key read as the members' sorted
    ranks in index-tuple order. The key depends on the family alone, so each
    search's families keep the order that search alone would give them.

    Raises EnumerationGuardError past FAMILY_GUARD irredundant families, as
    early as a walk of the overall search alone. Dropping P maps P's
    redundant families one to one onto irredundant families without P, so
    no pinned search outnumbers the overall one, and this refuses exactly
    the collections in which some search has more than FAMILY_GUARD.
    """
    masks = [s.mask for s in candidates]
    n = len(candidates)
    rank = [0] * n
    for r, k in enumerate(sorted(range(n), key=lambda k: candidates[k].indices)):
        rank[k] = r
    families = []
    irredundant = 0
    stack = [((k,), masks[k], 0, None) for k in reversed(range(n))]
    later = []              # families with a redundant member, walked last
    while stack or later:
        members, once, more, lone = (stack or later).pop()
        families.append((members, once | more, lone))
        if lone is None:
            irredundant += 1
            if irredundant > FAMILY_GUARD:
                raise EnumerationGuardError(
                    f"more than {FAMILY_GUARD} irredundant sub-collections of "
                    f"{n} candidate sets; enumeration guard is {FAMILY_GUARD}")
        for k in range(members[-1] + 1, n):
            mk = masks[k]
            new = mk & ~(once | more)
            if not new and lone is not None:
                continue            # k would be a second member without one
            once_k = (once & ~mk) | new
            bare = [i for i in members if not masks[i] & once_k]
            if not new:
                bare.append(k)
            if len(bare) <= 1:
                (later if bare else stack).append(
                    ((*members, k), once_k, more | (once & mk), bare[0] if bare else None))
    families.sort(key=lambda f: (-f[1].bit_count(), sorted(map(rank.__getitem__, f[0]))))
    return [(tuple(map(candidates.__getitem__, members)), union,
             None if lone is None else candidates[lone])
            for members, union, lone in families]


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _acyclic_entropy(p: JointPMF, V: Sequence[SubsetView]) -> float | None:
    """Max-entropy value H(X_U) with the marginals of every set in V pinned
    to p, in closed form when V is alpha-acyclic; None when it is cyclic.

    GYO ear reduction (Beeri et al. 1983): a set is an ear when the sensors
    it shares with the other sets all lie in one of them. Removing ears one
    at a time empties an acyclic family, in any order, and stalls on a
    cyclic one. Read backwards, the removals are a running-intersection
    order, so the max-entropy law is the junction-tree product and
    H = sum H(X_E) - sum H(X_{E n rest}) over the removed ears E (Darroch,
    Lauritzen & Speed 1980). Edges and separators are bitmasks, and every
    entropy is read from the law's table (``subset_entropy``).
    """
    edges = [s.mask for s in V]
    value = 0.0
    while len(edges) > 1:
        for k, e in enumerate(edges):
            rest = edges[:k] + edges[k + 1:]
            shared = e & functools.reduce(operator.or_, rest)
            if any(shared & ~f == 0 for f in rest):
                value = value + subset_entropy(p, e) - subset_entropy(p, shared)
                del edges[k]
                break
        else:
            return None
    return value + subset_entropy(p, edges[0])


def r_star_perfect(p: JointPMF, H: HonestCollection) -> RegionReport:
    """Minimum achievable variable-rate sum rate under perfect traitor
    information: the supremum over sub-collections V of the max-entropy value
    with the marginals of every set in V pinned to p.

    One walk (``_families``) lists the families of every search, overall and
    per true honest set, in one order, and one scan over it scores each
    family once: in closed form when it is alpha-acyclic
    (``_acyclic_entropy``), by IPF when it is cyclic. Each family updates
    the best of every search it belongs to, and displaces that best only by
    more than 1e-12, so each search sees its own families in its own order.
    The winner of each search is then solved by IPF for its law q and
    convergence flag, and its IPF value is the one reported. On an acyclic
    family the closed form and IPF agree to a few ulps, far inside the
    1e-12 margin a family needs to displace an earlier one, so unless two
    families' values differ by that margin to within a few ulps, the
    winners, and so every reported float, are those of scoring every family
    by IPF."""
    memo: dict = {}

    def solve(V):
        if V not in memo:
            memo[V] = max_entropy_with_marginals(p, V)
        return memo[V]

    best: dict = {}         # search (None overall, else the true honest set) -> (value, V)
    for V, _u, lone in _families(H.candidates):
        value = _acyclic_entropy(p, V)
        if value is None:
            value = solve(V).value
        for search in ((None, *V) if lone is None else (lone,)):
            held = best.get(search)
            if held is None or value > held[0] + 1e-12:
                best[search] = (value, V)

    res = {search: solve(V) for search, (_value, V) in best.items()}
    per_pair_detail = {h: (res[h].value, best[h][1], res[h].q) for h in H.candidates}
    return RegionReport(res[None].value, best[None][1], res[None].q, per_pair_detail,
                        all(r.converged for r in res.values()))


def closed_form_t(p: JointPMF, t: int) -> float:
    """Analytic minimum sum rate for threshold collections with t in
    {1, 2, m-1}: joint entropy plus the worst conditional (multi-)information
    penalty. Sets are bitmasks read from the law's entropy table."""
    m = p.m
    full = (1 << m) - 1
    if t == m - 1:
        return sum(subset_entropy(p, 1 << i) for i in range(m))
    h_all = subset_entropy(p, full)
    if t == 1:
        best = 0.0
        for i, j in itertools.combinations(range(m), 2):
            parts = (1 << i, 1 << j)
            best = max(best, mutual_information_of_masks(p, parts, full & ~sum(parts)))
        return h_all + best
    if t == 2:
        best = 0.0
        for a, b in itertools.combinations(range(m), 2):
            for c, d in itertools.combinations(range(m), 2):
                if {a, b} & {c, d} or (c, d) <= (a, b):
                    continue
                parts = ((1 << a) | (1 << b), (1 << c) | (1 << d))
                best = max(best, mutual_information_of_masks(p, parts, full & ~sum(parts)))
        for i, j, k in itertools.combinations(range(m), 3):
            parts = (1 << i, 1 << j, 1 << k)
            best = max(best, mutual_information_of_masks(p, parts, full & ~sum(parts)))
        return h_all + best
    raise ValueError(f"no closed form implemented for t={t} (supported: 1, 2, m-1)")


# ---------------------------------------------------------------------------
# linear programs: one dense two-phase simplex
# ---------------------------------------------------------------------------

LP_TOL = 1e-9


class LPSolution(NamedTuple):
    status: str           # "optimal" or "unbounded"
    x: np.ndarray         # basic primal point
    y: np.ndarray         # duals, one per row of A (0 on the redundant rows dropped)
    value: float          # c @ x


def _pivot(T: np.ndarray, rhs: np.ndarray, r: int, j: int) -> None:
    rhs[r] /= T[r, j]
    T[r] /= T[r, j]
    f = T[:, j].copy()
    f[r] = 0.0
    T -= np.outer(f, T[r])
    rhs -= f * rhs[r]


def _simplex(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             tol: float) -> str:
    """Maximize cost @ x from the canonical tableau T = B^-1 A, rhs = B^-1 b,
    pivoting in place. The entering column follows Bland's rule (the
    lowest-indexed one whose reduced cost exceeds 1e-3 tol of the cost
    scale, so the final duals are feasible to that slack). The leaving row
    comes from Harris' two-pass ratio test: of the rows whose ratio is at
    most the least ratio with every right side relaxed by ``tol``, the one
    with the largest pivot, ties to the lowest-indexed basic column. On
    these highly degenerate polytopes the plain least-ratio row is often a
    tiny pivot that makes the basis singular."""
    floor = 1e-3 * tol * (1.0 + float(np.abs(cost).max(initial=0.0)))
    for _ in range(50 * sum(T.shape)):
        enter = np.flatnonzero(cost - cost[basis] @ T > floor)
        if not enter.size:
            return "optimal"
        j = enter[0]
        col = T[:, j]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            return "unbounded"
        room = np.maximum(rhs[rows], 0.0)
        near = rows[room / col[rows] <= ((room + tol) / col[rows]).min()]
        best = col[near].max()
        r = min((i for i in near if col[i] == best), key=lambda i: basis[i])
        _pivot(T, rhs, r, j)
        basis[r] = j
    raise RuntimeError("simplex did not terminate")


def _independent_rows(A: np.ndarray, tol: float) -> np.ndarray:
    """Indices of a maximal linearly independent set of A's rows, taken
    greedily in order: a row joins when its Gram-Schmidt residual against
    the rows already taken (orthogonalized twice) keeps more than ``tol`` of
    its norm."""
    Q = np.zeros((0, A.shape[1]))
    kept = []
    for i, a in enumerate(A):
        res = a - Q.T @ (Q @ a)
        res -= Q.T @ (Q @ res)
        size = float(np.linalg.norm(res))
        if size > tol * float(np.linalg.norm(a)):
            Q = np.vstack([Q, res / size])
            kept.append(i)
    return np.array(kept, dtype=int)


class LinearProgram:
    """The polytope {x >= 0 : A x = b}, put in canonical form once by phase 1
    of a dense two-phase simplex and then maximized over for any number of
    objectives by phase 2.

    Redundant rows go first: phase 1 runs on a maximal independent set of
    rows, and the dropped rows, each a combination of the kept ones, must
    then hold at phase 1's point. (Reading redundancy off the artificials
    left basic after phase 1 mistakes pivoting noise for structure on these
    degenerate systems.) Phase 1 minimizes the sum of one artificial column
    per row, rows with b < 0 negated first; the polytope is empty when that
    minimum, or a dropped row's residual, exceeds ``tol`` times max(1, |b|).
    Artificials still basic at level zero are then pivoted out (a row where
    no column of A can replace one is dropped too). Each
    ``maximize`` starts from the basis the previous call ended on,
    refactored from A itself so no pivoting error carries over: a
    Frank-Wolfe loop that only changes the objective warm starts every
    solve.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, *, tol: float = LP_TOL):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        self.tol = tol
        self.num_rows = len(b)
        self.rows = _independent_rows(A, tol)
        self.A, self.b = A[self.rows], b[self.rows]
        nrow, ncol = self.A.shape
        sign = np.where(self.b < 0, -1.0, 1.0)
        M = np.hstack([self.A * sign[:, None], np.eye(nrow)])
        T, rhs = M.copy(), self.b * sign
        basis = np.arange(ncol, ncol + nrow)
        _simplex(T, rhs, basis, np.concatenate([np.zeros(ncol), -np.ones(nrow)]), tol)
        x = np.zeros(ncol + nrow)
        x[basis] = np.maximum(rhs, 0.0)
        self.infeasibility = float(x[ncol:].sum()
                                   + np.abs(A @ x[:ncol] - b).max(initial=0.0))
        self.feasible = self.infeasibility <= tol * max(1.0, float(np.abs(b).max(initial=0.0)))
        keep = np.ones(nrow, dtype=bool)
        for r in np.flatnonzero(basis >= ncol):
            j = int(np.argmax(np.abs(T[r, :ncol])))
            if abs(T[r, j]) <= tol:
                keep[r] = False           # dependent to within rounding after all
                continue
            _pivot(T, rhs, r, j)
            basis[r] = j
        self.rows, self.A, self.b = self.rows[keep], self.A[keep], self.b[keep]
        self.basis = basis[keep]

    def maximize(self, c: np.ndarray) -> LPSolution:
        """Maximize c @ x over the polytope, which must be nonempty."""
        if not self.feasible:
            raise ValueError("the polytope is empty")
        c = np.asarray(c, dtype=float)
        B = self.A[:, self.basis]
        T = np.linalg.solve(B, self.A)
        rhs = np.linalg.solve(B, self.b)
        status = _simplex(T, rhs, self.basis, c, self.tol)
        x = np.zeros(self.A.shape[1])
        x[self.basis] = np.maximum(rhs, 0.0)
        y = np.zeros(self.num_rows)
        y[self.rows] = np.linalg.solve(self.A[:, self.basis].T, c[self.basis])
        return LPSolution(status, x, y, float(c @ x))


def _row_sums(w: int, cells: int) -> np.ndarray:
    """Rows summing each of the w rows of a (w, cells) table, flattened."""
    return np.kron(np.eye(w), np.ones((1, cells)))


# ---------------------------------------------------------------------------
# simulability of a joint law given a candidate set and channel
# ---------------------------------------------------------------------------

def _effective_channel(r: ConditionalPMF, p: JointPMF, S: SubsetView) -> ConditionalPMF:
    """Accept channels given on the full input alphabet or already on x_S."""
    sizes_s = tuple(p.alphabet_sizes[i] for i in S)
    if r.input_alphabet_sizes == sizes_s:
        return r
    if r.input_alphabet_sizes == p.alphabet_sizes:
        return marginalize_info_channel(r, p, S)
    raise ValueError("channel input alphabet matches neither x_S nor the full source")


def _simulability_matrix(p: JointPMF, S: SubsetView, r_tilde: ConditionalPMF) -> np.ndarray:
    """Matrix A with q.flat = A @ qbar.flat, q in canonical axis order and
    qbar[w, x_Sc] the traitors' simulation table (x_Sc flattened in
    ascending sensor order):

        A[(x_S, x_Sc), (w, x_Sc')] = p(x_S) r~(w | x_S) [x_Sc = x_Sc'],

    which is coef kron I with coef[x_S, w] = p(x_S) r~(w | x_S), its rows
    then moved from (S, Sc) order to canonical order."""
    comp = S.complement(p.m)
    cells_c = int(np.prod([p.alphabet_sizes[i] for i in comp]))
    w = r_tilde.output_alphabet_size
    p_s = marginal(p, S).mass.reshape(-1) if len(S) else np.ones(1)
    A = np.kron(p_s[:, None] * r_tilde.rows.reshape(-1, w), np.eye(cells_c))
    perm = tuple(S.indices) + tuple(comp.indices)
    shape = tuple(p.alphabet_sizes[i] for i in perm) + (A.shape[1],)
    order = tuple(int(k) for k in np.argsort(perm)) + (len(perm),)
    return A.reshape(shape).transpose(order).reshape(A.shape)


def q_set_feasible(q: JointPMF, S: SubsetView, r_prime: ConditionalPMF,
                   p: JointPMF) -> bool:
    """Can traitors holding side information r' simulate the joint law q when
    the honest set is S?  Feasible iff there is a table qbar(x_Sc | w) with

        q(x) = p(x_S) sum_w r'~(w | x_S) qbar(x_Sc | w),

    each row qbar(. | w) a distribution: phase 1 of the simplex on these
    linear constraints decides it, ``LP_TOL`` bounding the residual it may
    leave."""
    if q.alphabet_sizes != p.alphabet_sizes:
        raise ValueError("q and p must share the joint alphabet")
    r_tilde = _effective_channel(r_prime, p, S)
    A = _simulability_matrix(p, S, r_tilde)
    w = r_tilde.output_alphabet_size
    lp = LinearProgram(np.vstack([A, _row_sums(w, A.shape[1] // w)]),
                       np.concatenate([q.mass.reshape(-1), np.ones(w)]))
    return lp.feasible


def _ball_membership_general(t_u: np.ndarray, U: SubsetView, S: SubsetView,
                             r_prime: ConditionalPMF, p: JointPMF, tau_u: float) -> bool:
    """Imperfect-information membership of a type ``t_u`` over X_U, S within
    U: can traitors holding side information r' simulate, for the honest
    set S, a law within the tau_u-ball (widened by 1e-7) of the type? Phase
    1 of the simplex decides it: y = A qbar with each row of qbar on its
    simplex and lo <= y <= hi, the box held by slack columns as
    A qbar - s = max(lo, 0) and A qbar + s' = hi."""
    r_tilde = _effective_channel(r_prime, p, S)
    if S == U:          # no traitor coordinate to simulate
        p_s = marginal(p, S).mass
        return bool(np.max(np.abs(t_u.reshape(p_s.shape) - p_s)) <= tau_u + 1e-12)
    # Re-index the problem to live on the U coordinates only.
    A = _simulability_matrix(marginal(p, U), SubsetView(tuple(U.indices.index(i) for i in S)),
                             r_tilde)
    w = r_tilde.output_alphabet_size
    target = t_u.reshape(-1)
    eye = np.eye(target.size)
    zero = np.zeros_like(eye)
    rows = np.block([[A, -eye, zero], [A, zero, eye],
                     [_row_sums(w, A.shape[1] // w), np.zeros((w, 2 * target.size))]])
    rhs = np.concatenate([np.maximum(target - tau_u - 1e-7, 0.0), target + tau_u + 1e-7,
                          np.ones(w)])
    return LinearProgram(rows, rhs).feasible


# ---------------------------------------------------------------------------
# general (imperfect-information) optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralRateResult:
    value: float              # = lower
    residual: float           # worst max_k |A_k qbar_k - q| at the maximizer
    maximizer_V: tuple[SubsetView, ...]
    lower: float              # H_q(X_U) at a law every system simulates
    upper: float              # certified: no (V, channel) system exceeds it
    tables: tuple[np.ndarray, ...]          # qbar[w, x_Sc] per system of the maximizer
    channels: tuple[ConditionalPMF, ...]    # the channel of each of those systems


class _System:
    """One (V, channel) combination as a polytope over x = (qbar_0, ...,
    qbar_K, q): A_k qbar_k = q for every (set, channel) pair k, each row of
    each table qbar_k[w, x_Sc] on its simplex, all of x nonnegative."""

    def __init__(self, p: JointPMF, sets: Sequence[SubsetView],
                 channels: Sequence[ConditionalPMF]):
        mats, ws = [], []
        for S, chan in zip(sets, channels):
            r_t = _effective_channel(chan, p, S)
            mats.append(_simulability_matrix(p, S, r_t))
            ws.append(r_t.output_alphabet_size)
        cells = p.num_cells
        self.cuts = np.cumsum([0] + [A.shape[1] for A in mats])
        self.shapes = [(w,) + tuple(p.alphabet_sizes[i] for i in S.complement(p.m))
                       for w, S in zip(ws, sets)]
        width = int(self.cuts[-1]) + cells
        rows = np.zeros((len(mats) * cells + sum(ws), width))
        top = len(mats) * cells
        for k, (A, w) in enumerate(zip(mats, ws)):
            lo, hi = self.cuts[k], self.cuts[k + 1]
            rows[k * cells:(k + 1) * cells, lo:hi] = A
            rows[k * cells:(k + 1) * cells, -cells:] = -np.eye(cells)
            rows[top:top + w, lo:hi] = _row_sums(w, A.shape[1] // w)
            top += w
        self.mats = mats
        self.mass = sum(ws) + 1.0          # sum of x over the polytope
        self.lp = LinearProgram(rows, np.concatenate([np.zeros(len(mats) * cells),
                                                      np.ones(sum(ws))]))

    def tables(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(x[self.cuts[k]:self.cuts[k + 1]].reshape(shape)
                     for k, shape in enumerate(self.shapes))

    def residual(self, x: np.ndarray) -> float:
        q = x[self.cuts[-1]:]
        return max(float(np.max(np.abs(A @ x[self.cuts[k]:self.cuts[k + 1]] - q)))
                   for k, A in enumerate(self.mats))


def _line_search(q: np.ndarray, d: np.ndarray, top: float) -> float:
    """argmax of the concave H(q + g d) over g in [0, top], for q > 0 with
    H's slope positive at 0: Newton's method on the slope, kept inside a
    bisection bracket, until the step is below 1e-12 of ``top``."""
    end = q + top * d
    if end.min() > 0 and -(d * np.log2(end)).sum() >= 0:
        return top
    lo, hi, g = 0.0, top, 0.5 * top
    for _ in range(100):
        r = q + g * d
        slope = -(d * np.log2(r)).sum()
        if slope > 0:
            lo = g
        else:
            hi = g
        nxt = g + slope * math.log(2.0) / (d * d / r).sum()
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - g) <= 1e-12 * top:
            return nxt
        g = nxt
    return g


def _frank_wolfe(system: _System, p: JointPMF, U: SubsetView, floor: float,
                 ceiling: float):
    """Bracket sup H_q(X_U) over one system's polytope: (lower, upper, x).

    Pairwise Frank-Wolfe (Lacoste-Julien & Jaggi 2015) keeps x a convex
    combination of LP vertices, so every iterate is feasible and H_q(X_U)
    there is a lower bound. Concavity gives the upper bound
    H(x) + max_P grad H(x).(y - x) (the Frank-Wolfe duality gap, Jaggi 2013),
    read from the LP's dual objective b.y, or ``ceiling`` if that is lower.
    It is finite when q_U > 0 on every cell some feasible law charges, so
    the start is the mean of one vertex per such cell; cells no vertex
    charges are zero on the whole polytope and drop out of H. Each step
    moves weight from the active vertex worst for the gradient to the LP's
    vertex, by exact line search. Stops when upper - lower <= FW_GAP, when
    upper <= floor (the system cannot beat the best found so far), or after
    FW_MAX_STEPS steps."""
    lp = system.lp
    cells = p.num_cells
    drop = tuple(i for i in range(p.m) if i not in U)
    shape_u = tuple(p.alphabet_sizes[i] if i in U else 1 for i in range(p.m))
    cells_u = int(np.prod(shape_u))

    def objective(g_u):
        c = np.zeros(lp.A.shape[1])
        c[-cells:] = np.broadcast_to(g_u.reshape(shape_u), p.alphabet_sizes).reshape(-1)
        return c

    def q_u(x):
        q = x[-cells:].reshape(p.alphabet_sizes)
        return (q.sum(axis=drop) if drop else q).reshape(-1)

    # active set: vertex bytes, vertices, their q_U, weights
    keys, verts, vert_u = [], [], []
    for u in range(cells_u):
        if not any(vu[u] > 0 for vu in vert_u):
            sol = lp.maximize(objective(np.eye(cells_u)[u]))
            if sol.value > 0.0:
                keys.append(sol.x.tobytes())
                verts.append(sol.x)
                vert_u.append(q_u(sol.x))
    support = np.any(np.array(vert_u) > 0, axis=0)
    weights = [1.0 / len(verts)] * len(verts)
    for it in range(FW_MAX_STEPS + 1):
        x = np.array(weights) @ np.array(verts)
        qu = (np.array(weights) @ np.array(vert_u))[support]
        lower = entropy_of_table(qu)
        g_u = np.zeros(cells_u)
        g_u[support] = -np.log2(qu) - 1.0 / math.log(2.0)
        c = objective(g_u)
        sol = lp.maximize(c)
        # b.y bounds c.x over the polytope up to the duals' rounding slack
        # max(c - A^T y), times the polytope's total mass
        y = sol.y[lp.rows]
        slack = max(0.0, float(np.max(c - lp.A.T @ y)))
        upper = min(ceiling, lower + float(lp.b @ y) + slack * system.mass - float(c @ x))
        if upper - lower <= FW_GAP or upper <= floor or it == FW_MAX_STEPS:
            return lower, max(upper, lower), x
        key = sol.x.tobytes()
        if key not in keys:
            keys.append(key)
            verts.append(sol.x)
            vert_u.append(q_u(sol.x))
            weights.append(0.0)
        # pairwise steps inside the active set, which need no LP, until its
        # own gap is a small part of the gap the LP vertex showed
        for _ in range(50):
            scores = np.array(vert_u) @ g_u
            toward, away = int(np.argmax(scores)), int(np.argmin(scores))
            if scores[toward] - scores[away] <= 0.1 * (upper - lower):
                break
            step = _line_search(qu, (vert_u[toward] - vert_u[away])[support], weights[away])
            weights[toward] += step
            weights[away] -= step
            if weights[away] <= 0.0:
                for lst in (keys, verts, vert_u, weights):
                    del lst[away]
            qu = (np.array(weights) @ np.array(vert_u))[support]
            g_u[support] = -np.log2(qu) - 1.0 / math.log(2.0)


def r_star_general(p: JointPMF, H: HonestCollection, R: InfoModel,
                   H_true: SubsetView, r: ConditionalPMF | None, *,
                   seed: int = 0, starts: int = 16) -> GeneralRateResult:
    """Minimum achievable sum rate for one (true honest set, channel) pair:
    the supremum of H_q(X_U(V)) over sub-collections V and joint laws q
    simultaneously simulable for (H_true, r) and for every set in V.

    Perfect information falls back to the exact IPF path. Otherwise each
    (V, channel) combination is a concave maximization over a polytope,
    bracketed by ``_frank_wolfe`` to within FW_GAP bits: the result's
    ``lower`` is H_q(X_U) at a law every system of the maximizer simulates
    (``tables`` are those systems' simulation tables, H_true's first), and
    ``upper`` bounds every combination. A combination whose phase 1 finds
    no simulable law is dropped; one whose bound sum_{i in U} H(X_i) (each
    honest marginal is pinned to p) cannot beat the best lower bound so far
    is skipped unsolved, and one whose bracket is not finite is refused.
    ``seed`` and ``starts`` are accepted for callers of the earlier
    multi-start optimizer and do not change the result; ``starts`` must
    still be at least 1.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    if p.num_cells > JOINT_CELL_GUARD:
        raise EnumerationGuardError(
            f"joint alphabet {p.num_cells} exceeds guard {JOINT_CELL_GUARD}")
    if H_true not in H:
        raise ValueError(f"true honest set {H_true} not in the collection")
    if R.perfect:
        value, V, _q = r_star_perfect(p, H).per_pair_detail[H_true]
        return GeneralRateResult(value, 0.0, V, value, value, (), ())
    if r is None:
        raise ValueError("imperfect information requires the true channel r")

    best = None
    upper = -math.inf
    for V, umask, lone in _families(H.candidates):
        if lone is not None:
            continue
        U = SubsetView(_mask_indices(umask))
        members = list(V)
        sets = [H_true] + members
        bound = sum(subset_entropy(p, 1 << i) for i in U)
        for pairs in itertools.product([(0, r)], *(enumerate(R.channels_for(S)) for S in members)):
            picks, combo = zip(*pairs)
            floor = -math.inf if best is None else best[0]
            if bound <= floor:
                continue
            system = _System(p, sets, combo)
            if not system.lp.feasible:
                continue
            lo, hi, x = _frank_wolfe(system, p, U, floor, bound)
            if not (math.isfinite(lo) and math.isfinite(hi)):   # a NaN passes both tests below
                raise ValueError(f"Frank-Wolfe bracket [{lo}, {hi}] is not finite for "
                                 f"true honest set {H_true}, V = {' '.join(map(str, V))} "
                                 f"with channel {list(picks[1:])} of R(S) for each S in V")
            upper = max(upper, hi)
            if best is None or lo > best[0] + 1e-12:
                best = (lo, tuple(V), system, x, combo)
    if best is None:
        raise ValueError(f"no law is simulable for true honest set {H_true}")
    lower, V, system, x, combo = best
    return GeneralRateResult(lower, system.residual(x), V, lower, max(upper, lower),
                             system.tables(x), tuple(combo))


# ---------------------------------------------------------------------------
# fixed-rate regions
# ---------------------------------------------------------------------------

def sw_facets(p: JointPMF, S: SubsetView) -> list[tuple[tuple[int, ...], float]]:
    """All facets of the Slepian-Wolf region on X_S:
    (S', H(X_S' | X_{S - S'})) for every nonempty S' subset of S, S' as its
    ascending index tuple, by size and then lexicographically. The bound is
    H[S] - H[S - S'] from the law's entropy table."""
    full = S.mask
    h_s = subset_entropy(p, full)
    return [(combo, h_s - subset_entropy(p, full & ~sum(1 << i for i in combo)))
            for k in range(1, len(S) + 1)
            for combo in itertools.combinations(S.indices, k)]


def sw_region_contains(rates: Sequence[float], p: JointPMF, S: SubsetView) -> bool:
    """Does the rate vector restricted to S lie in SW(X_S), up to a 1e-9
    slack on each facet?"""
    if any(r < 0 for r in rates):
        raise ValueError("rates must be nonnegative")
    for sub, bound in sw_facets(p, S):
        if sum(rates[i] for i in sub) < bound - 1e-9:
            return False
    return True


def deterministic_extra_constraints(p: JointPMF, H: HonestCollection,
                                    R: InfoModel) -> list[SubsetView]:
    """Intersections S1 n S2 of candidate pairs for which some channel in
    R(S2) lets the traitors know X_{S1 n S2} exactly (H(X_{S1 n S2} | W) below
    1e-9); deterministic fixed-rate coding must put these intersections in
    their own SW regions. Each distinct one is listed once, in the order of
    its first pair (S1 outer, S2 inner, candidate order). Under perfect
    information the traitors know X_{S2}, so H(X_{S1 n S2} | W) = 0 and
    every nonempty intersection is listed without a channel test."""
    cands = H.candidates
    masks = [s.mask for s in cands]
    extra = []
    seen = set()
    for m1 in masks:
        for s2, m2 in zip(cands, masks):
            inter = m1 & m2
            if not inter or inter in seen:
                continue
            view = SubsetView(_mask_indices(inter))
            if R.perfect or any(channel_conditional_entropy(p, chan, view) < 1e-9
                                for chan in R.channels_for(s2)):
                extra.append(view)
                seen.add(inter)
    return extra


def fixed_rate_region_contains(rates: Sequence[float], p: JointPMF,
                               H: HonestCollection, R: InfoModel,
                               kind: str) -> bool:
    """Membership in the randomized or deterministic fixed-rate region."""
    if kind not in ("deterministic", "randomized"):
        raise ValueError(f"unknown kind {kind!r}")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be nonnegative")
    for S in H.candidates:
        if not sw_region_contains(rates, p, S):
            return False
    if kind == "randomized":
        return True
    for inter in deterministic_extra_constraints(p, H, R):
        if not sw_region_contains(rates, p, inter):
            return False
    return True
