"""Achievable-rate calculators.

Three groups of operations live here:

* the max-entropy value with prescribed marginals, behind the variable-rate
  minimum sum rate under perfect traitor information: a junction-tree
  closed form over memoized marginal entropies for alpha-acyclic families,
  iterative proportional fitting (IPF) for cyclic families and for each
  search's winner, whose law q the traitors need; plus the analytic closed
  forms for 1, 2, and m-1 tolerated traitors;
* feasibility of a joint law for a given candidate honest set and
  side-information channel (the set the traitors can simulate), solved as a
  linear feasibility problem by alternating projections;
* membership tests for the fixed-rate regions (per-candidate Slepian-Wolf
  constraints, plus the extra deterministic-coding constraint for pairs of
  candidates whose intersection the traitors can know exactly).

Everything is pure computation on in-memory tables; desk-scale guards refuse
instances that would require exponential work beyond ~2^20 cells.
"""
from __future__ import annotations

import enum
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
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    entropy_of_table,
    identity_channel,
    marginal,
    marginalize_info_channel,
    union_of,
)

FAMILY_GUARD = 4096            # max irredundant sub-collections per enumeration
JOINT_CELL_GUARD = 256         # max joint alphabet size for the general optimizer


@dataclass(frozen=True)
class HonestCollection:
    """The list of candidate honest sets the code must tolerate."""

    candidates: tuple[SubsetView, ...]
    threshold_t: int | None = None

    def __post_init__(self):
        cands = tuple(self.candidates)
        if not cands:
            raise ValueError("honest collection must be nonempty")
        if len({c.indices for c in cands}) != len(cands):
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
        return cls(tuple(sets), threshold_t=t)

    @classmethod
    def explicit(cls, sets: Iterable[Sequence[int]]) -> "HonestCollection":
        return cls(tuple(SubsetView.of(*s) for s in sets))

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, s: SubsetView) -> bool:
        return any(c.indices == s.indices for c in self.candidates)

    def detect_threshold(self, m: int) -> int | None:
        """Recognize threshold-style collections, including the variant that
        lists only the minimum-size sets (exactly t traitors)."""
        if self.threshold_t is not None:
            return self.threshold_t
        sizes = {len(c) for c in self.candidates}
        smallest = min(sizes)
        t = m - smallest
        full = HonestCollection.threshold(m, t)
        mine = {c.indices for c in self.candidates}
        if mine == {c.indices for c in full.candidates}:
            return t
        if mine == {tuple(c) for c in itertools.combinations(range(m), smallest)}:
            return t
        return None


@dataclass(frozen=True)
class InfoModel:
    """Map from candidate honest sets to the side-information channels the
    code is willing to accept for them."""

    perfect: bool
    channels: Mapping[tuple[int, ...], tuple[ConditionalPMF, ...]] | None = None
    alphabet_sizes: tuple[int, ...] = ()

    @classmethod
    def perfect_info(cls, alphabet_sizes: Sequence[int]) -> "InfoModel":
        return cls(True, None, tuple(int(a) for a in alphabet_sizes))

    @classmethod
    def from_channels(cls, channels: Mapping[SubsetView, Sequence[ConditionalPMF]],
                      alphabet_sizes: Sequence[int]) -> "InfoModel":
        table = {}
        for s, chans in channels.items():
            key = s.indices if isinstance(s, SubsetView) else tuple(s)
            if not chans:
                raise ValueError(f"candidate {key} has no channels")
            table[key] = tuple(chans)
        return cls(False, table, tuple(int(a) for a in alphabet_sizes))

    def channels_for(self, s: SubsetView) -> tuple[ConditionalPMF, ...]:
        if self.perfect:
            return (identity_channel(self.alphabet_sizes),)
        try:
            return self.channels[s.indices]
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
    V = [s if isinstance(s, SubsetView) else SubsetView.of(*s) for s in V]
    if not V:
        raise ValueError("constraint family must be nonempty")
    U = union_of(V)
    sizes_u = tuple(p.alphabet_sizes[i] for i in U)
    pos_in_u = {i: k for k, i in enumerate(U)}

    constraints = []
    for S in V:
        target = marginal(p, S).mass
        axes_keep = tuple(pos_in_u[i] for i in S)
        axes_drop = tuple(k for k in range(len(U.indices)) if k not in axes_keep)
        shape = tuple(sizes_u[k] if k in axes_keep else 1 for k in range(len(U.indices)))
        constraints.append((target.reshape(shape), axes_drop, target, axes_keep))

    q = np.full(sizes_u, 1.0 / int(np.prod(sizes_u)))
    residual = math.inf
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        for target_keepdims, axes_drop, _, _ in constraints:
            cur = q.sum(axis=axes_drop, keepdims=True) if axes_drop else q
            ratio = np.divide(target_keepdims, cur, out=np.zeros_like(cur),
                              where=cur > 0)
            q = q * ratio
        residual = 0.0
        for target_keepdims, axes_drop, target, _ in constraints:
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
    per_pair: dict            # SubsetView (true honest set) -> value in bits
    maximizer_V: tuple[SubsetView, ...]
    maximizer_q: JointPMF
    per_pair_detail: dict     # SubsetView -> (value, V, q)
    all_converged: bool


def _lex_key(V: Sequence[SubsetView]):
    return tuple(sorted(s.indices for s in V))


def _candidate_collections(candidates: Sequence[SubsetView],
                           must_contain: SubsetView | None):
    """Irredundant sub-collections: every nonempty V in which each member
    covers a sensor no other member covers. A member without such a private
    sensor can be dropped without changing the union, so the smaller family
    dominates; singletons always qualify. ``must_contain`` pins one set that
    every family holds and that needs no private sensor, for
    per-true-honest-set evaluations.

    Depth-first over int bitmasks with members in candidate order, carrying
    the sensors covered exactly once and those covered more than once. A set
    joins only if it brings a new sensor, and a branch is cut as soon as an
    unpinned member loses its last private sensor: private sensors only
    shrink as sets join, so no family below the cut qualifies. Returns
    (V, union) pairs sorted by (-|union|, _lex_key(V)); raises
    EnumerationGuardError past FAMILY_GUARD families.
    """
    masks = [sum(1 << i for i in s.indices) for s in candidates]
    n = len(candidates)
    pin = None
    if must_contain is not None:
        pin = next((k for k, s in enumerate(candidates)
                    if s.indices == must_contain.indices), None)
        if pin is None:
            return []
    families = []

    def walk(members, start, once, more):
        families.append(members)
        if len(families) > FAMILY_GUARD:
            raise EnumerationGuardError(
                f"more than {FAMILY_GUARD} irredundant sub-collections of "
                f"{n} candidate sets; enumeration guard is {FAMILY_GUARD}")
        for k in range(start, n):
            mk = masks[k]
            new = mk & ~(once | more)
            if k == pin or not new:
                continue
            once_k = (once & ~mk) | new
            if all(masks[i] & once_k for i in members if i != pin):
                walk(members + (k,), k + 1, once_k, more | (once & mk))

    if pin is None:
        for k in range(n):
            walk((k,), k + 1, masks[k], 0)
    else:
        walk((pin,), 0, masks[pin], 0)
    out = []
    for members in families:
        V = tuple(candidates[k] for k in sorted(members))
        out.append((V, union_of(V)))
    out.sort(key=lambda vu: (-len(vu[1].indices), _lex_key(vu[0])))
    return out


def _acyclic_entropy(p: JointPMF, V: Sequence[SubsetView]) -> float | None:
    """Max-entropy value H(X_U) with the marginals of every set in V pinned
    to p, in closed form when V is alpha-acyclic; None when it is cyclic.

    GYO ear reduction (Beeri et al. 1983): a set is an ear when the sensors
    it shares with the other sets all lie in one of them. Removing ears one
    at a time empties an acyclic family, in any order, and stalls on a
    cyclic one. Read backwards, the removals are a running-intersection
    order, so the max-entropy law is the junction-tree product and
    H = sum H(X_E) - sum H(X_{E n rest}) over the removed ears E (Darroch,
    Lauritzen & Speed 1980). Entropies come from the law's memo.
    """
    edges = [(sum(1 << i for i in s.indices), s) for s in V]
    value = 0.0
    while len(edges) > 1:
        for k, (e, s) in enumerate(edges):
            rest = [f for j, (f, _) in enumerate(edges) if j != k]
            shared = e & functools.reduce(operator.or_, rest)
            if any(shared & ~f == 0 for f in rest):
                value += entropy(p, s)
                if shared:
                    value -= entropy(p, SubsetView(tuple(
                        i for i in range(shared.bit_length()) if shared >> i & 1)))
                del edges[k]
                break
        else:
            return None
    return value + entropy(p, edges[0][1])


def r_star_perfect(p: JointPMF, H: HonestCollection, *,
                   tol: float = 1e-10, max_sweeps: int = 100_000) -> RegionReport:
    """Minimum achievable variable-rate sum rate under perfect traitor
    information: the supremum over sub-collections V of the max-entropy value
    with the marginals of every set in V pinned to p.

    Each family is scored in closed form when it is alpha-acyclic
    (``_acyclic_entropy``) and by IPF when it is cyclic. The winner of each
    search, overall and per true honest set, is then solved by IPF for its
    law q and convergence flag, and its IPF value is the one reported. On an
    acyclic family the closed form and IPF agree to a few ulps, far inside
    the 1e-12 margin a family needs to displace an earlier one, so unless
    two families' values differ by that margin to within a few ulps, the
    winners, and so every reported float, are those of scoring every family
    by IPF."""
    cands = list(H.candidates)
    memo: dict = {}

    def solve(V):
        key = _lex_key(V)
        if key not in memo:
            memo[key] = max_entropy_with_marginals(p, V, tol=tol, max_sweeps=max_sweeps)
        return memo[key]

    def best_over(must_contain):
        best = None
        for V, _u in _candidate_collections(cands, must_contain):
            value = _acyclic_entropy(p, V)
            if value is None:
                value = solve(V).value
            if best is None or value > best[0] + 1e-12:
                best = (value, V)
        res = solve(best[1])
        return res.value, best[1], res

    value, maxV, maxres = best_over(None)
    per_pair = {}
    per_pair_detail = {}
    all_conv = maxres.converged
    for h_true in cands:
        v, V, res = best_over(h_true)
        per_pair[h_true] = v
        per_pair_detail[h_true] = (v, V, res.q)
        all_conv = all_conv and res.converged
    return RegionReport(value, per_pair, maxV, maxres.q, per_pair_detail, all_conv)


def closed_form_t(p: JointPMF, t: int) -> float:
    """Analytic minimum sum rate for threshold collections with t in
    {1, 2, m-1}: joint entropy plus the worst conditional (multi-)information
    penalty."""
    m = p.m
    full = SubsetView(tuple(range(m)))
    if t == m - 1:
        return sum(entropy(p, SubsetView.of(i)) for i in range(m))
    h_all = entropy(p, full)
    if t == 1:
        best = 0.0
        for i, j in itertools.combinations(range(m), 2):
            rest = SubsetView(tuple(k for k in range(m) if k not in (i, j)))
            best = max(best, conditional_mutual_information(
                p, SubsetView.of(i), SubsetView.of(j), given=rest))
        return h_all + best
    if t == 2:
        best = 0.0
        for a, b in itertools.combinations(range(m), 2):
            for c, d in itertools.combinations(range(m), 2):
                if {a, b} & {c, d} or (c, d) <= (a, b):
                    continue
                rest = SubsetView(tuple(k for k in range(m) if k not in (a, b, c, d)))
                best = max(best, conditional_mutual_information(
                    p, SubsetView.of(a, b), SubsetView.of(c, d), given=rest))
        for i, j, k in itertools.combinations(range(m), 3):
            rest = SubsetView(tuple(x for x in range(m) if x not in (i, j, k)))
            best = max(best, conditional_mutual_information(
                p, SubsetView.of(i), SubsetView.of(j), SubsetView.of(k), given=rest))
        return h_all + best
    raise ValueError(f"no closed form implemented for t={t} (supported: 1, 2, m-1)")


# ---------------------------------------------------------------------------
# simulability of a joint law given a candidate set and channel
# ---------------------------------------------------------------------------

class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"

    def __bool__(self) -> bool:
        return self is Feasibility.FEASIBLE


def _project_rows_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    k = np.arange(1, v.shape[1] + 1)
    cond = u + (1.0 - css) / k > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    lam = (1.0 - css[np.arange(v.shape[0]), rho]) / (rho + 1)
    return np.maximum(v + lam[:, None], 0.0)


def _effective_channel(r: ConditionalPMF, p: JointPMF, S: SubsetView) -> ConditionalPMF:
    """Accept channels given on the full input alphabet or already on x_S."""
    sizes_s = tuple(p.alphabet_sizes[i] for i in S)
    if r.input_alphabet_sizes == sizes_s:
        return r
    if r.input_alphabet_sizes == p.alphabet_sizes:
        return marginalize_info_channel(r, p, S)
    raise ValueError("channel input alphabet matches neither x_S nor the full source")


def _simulability_matrix(p: JointPMF, S: SubsetView, r_tilde: ConditionalPMF):
    """Matrix A with q.flat = A @ qbar.flat, where qbar(x_Sc | w) is the
    traitors' simulation table, plus the axis permutation used."""
    m = p.m
    comp = S.complement(m)
    sizes_s = tuple(p.alphabet_sizes[i] for i in S)
    sizes_c = tuple(p.alphabet_sizes[i] for i in comp)
    cells_s = int(np.prod(sizes_s)) if sizes_s else 1
    cells_c = int(np.prod(sizes_c)) if sizes_c else 1
    w = r_tilde.output_alphabet_size
    p_s = marginal(p, S).mass.reshape(cells_s) if len(S) else np.ones(1)
    rt = r_tilde.rows.reshape(cells_s, w)
    # A[(xs, xc), (w, xc')] = p_s[xs] * rt[xs, w] * [xc == xc']
    A = np.zeros((cells_s * cells_c, w * cells_c))
    coef = p_s[:, None] * rt                      # (cells_s, w)
    for xc in range(cells_c):
        rows = np.arange(cells_s) * cells_c + xc
        cols = np.arange(w) * cells_c + xc
        A[np.ix_(rows, cols)] = coef
    perm = tuple(S.indices) + tuple(comp.indices)
    return A, perm, w, cells_c


def q_set_feasible(q: JointPMF, S: SubsetView, r_prime: ConditionalPMF, p: JointPMF, *,
                   tol: float = 1e-7, indeterminate_tol: float = 1e-5,
                   max_iters: int = 20_000) -> Feasibility:
    """Can traitors holding side information r' simulate the joint law q when
    the honest set is S?  Feasible iff there is a table qbar(x_Sc | w) with

        q(x) = p(x_S) sum_w r'~(w | x_S) qbar(x_Sc | w).

    Solved by alternating projections between the affine equality set and the
    per-w probability simplexes; feasible when the equality residual drops
    below ``tol``, infeasible when it stalls above ``indeterminate_tol``, and
    indeterminate in between (tri-state result).
    """
    if q.alphabet_sizes != p.alphabet_sizes:
        raise ValueError("q and p must share the joint alphabet")
    r_tilde = _effective_channel(r_prime, p, S)
    # Necessary condition: the honest marginal is untouched by any simulation.
    if float(np.max(np.abs(marginal(q, S).mass - marginal(p, S).mass))) > 1e-4:
        return Feasibility.INFEASIBLE
    A, perm, w, cells_c = _simulability_matrix(p, S, r_tilde)
    b = np.transpose(q.mass, perm).reshape(-1)
    pinvA = np.linalg.pinv(A)

    v = np.full((w, cells_c), 1.0 / cells_c)
    best = math.inf
    stall = 0
    for _ in range(max_iters):
        flat = v.reshape(-1)
        flat = flat - pinvA @ (A @ flat - b)
        v = _project_rows_to_simplex(flat.reshape(w, cells_c))
        residual = float(np.max(np.abs(A @ v.reshape(-1) - b)))
        if residual < tol:
            return Feasibility.FEASIBLE
        if residual < best - 1e-14:
            best = residual
            stall = 0
        else:
            stall += 1
            if stall > 100:
                break
    if best > indeterminate_tol:
        return Feasibility.INFEASIBLE
    return Feasibility.INDETERMINATE


# ---------------------------------------------------------------------------
# general (imperfect-information) optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralRateResult:
    value: float              # estimate of the supremum, bits (not a bound)
    residual: float           # constraint mismatch at the reported point
    maximizer_V: tuple[SubsetView, ...]


def _pg_sup_entropy(p: JointPMF, U: SubsetView, systems, rngs: Sequence[np.random.Generator],
                    *, outer: int = 150, inner: int = 40) -> list[tuple[float, float]]:
    """Projected-gradient ascent of H(X_U) over joint laws expressible in
    every (S, r') system simultaneously. Variables are the stacked simulation
    tables; projection onto the coupling constraints is by alternating
    projections. Returns one (value, residual) per start.

    Start b draws its initial tables from ``rngs[b]``, and every array
    carries the starts on a leading axis, so one pass does the work of all
    of them. The starts never mix: each product with A, pinv(A) or A.T is a
    stacked matrix-vector product (one gemv per start) and the simplex
    projection is row-wise, so each start's floats equal those of running it
    alone."""
    B = len(rngs)
    # permutations and shapes carry the start axis in front
    mats = [(A, np.linalg.pinv(A), (0,) + tuple(1 + i for i in perm),
             (0,) + tuple(1 + i for i in np.argsort(perm)),
             (B,) + tuple(p.alphabet_sizes[i] for i in perm), w, cells_c)
            for A, perm, w, cells_c in systems]
    drop = tuple(1 + i for i in range(p.m) if i not in U)

    def q_of(vs):
        qs = []
        for (A, _pinv, _perm, inv_perm, shape, w, cells_c), v in zip(mats, vs):
            qp = (A @ v.reshape(B, -1, 1)).reshape(shape)
            qs.append(np.transpose(qp, inv_perm))
        return sum(qs) / len(qs), qs

    def project(vs, iters):
        for _ in range(iters):
            qbar, _ = q_of(vs)
            new_vs = []
            for (A, pinvA, perm, _inv, _shape, w, cells_c), v in zip(mats, vs):
                target = np.transpose(qbar, perm).reshape(B, -1, 1)
                flat = v.reshape(B, -1, 1)
                flat = flat - pinvA @ (A @ flat - target)
                new_vs.append(_project_rows_to_simplex(flat.reshape(B * w, cells_c))
                              .reshape(B, w, cells_c))
            vs = new_vs
        return vs

    vs = [_project_rows_to_simplex(np.concatenate([rng.random((w, cells_c)) for rng in rngs])
                                   + 1e-3).reshape(B, w, cells_c)
          for *_, w, cells_c in mats]
    vs = project(vs, inner)
    step = 0.5
    shape_full = (B,) + tuple(p.alphabet_sizes[i] if i in U else 1 for i in range(p.m))
    for _ in range(outer):
        qbar, qs = q_of(vs)
        qU = qbar.sum(axis=drop) if drop else qbar
        grad_qU = -(np.log2(np.maximum(qU, 1e-12)) + 1.0 / math.log(2.0))
        grad_q = np.broadcast_to(grad_qU.reshape(shape_full), qbar.shape)
        new_vs = []
        for (A, _pinv, perm, _inv, _shape, w, cells_c), v in zip(mats, vs):
            g = (A.T @ np.transpose(grad_q, perm).reshape(B, -1, 1)).reshape(B, w, cells_c)
            new_vs.append(v + step * g / len(mats))
        vs = project(new_vs, 5)
    vs = project(vs, inner * 4)
    qbar, qs = q_of(vs)
    qU = qbar.sum(axis=drop) if drop else qbar
    out = []
    for b in range(B):
        residual = max(float(np.max(np.abs(qk[b] - qbar[b]))) for qk in qs)
        total = qU[b].sum()
        out.append((0.0 if total <= 0 else entropy_of_table(qU[b] / total), residual))
    return out


def r_star_general(p: JointPMF, H: HonestCollection, R: InfoModel,
                   H_true: SubsetView, r: ConditionalPMF | None, *,
                   seed: int = 0, starts: int = 16) -> GeneralRateResult:
    """Minimum achievable sum rate for one (true honest set, channel) pair:
    the supremum of H_q(X_U(V)) over sub-collections V and joint laws q
    simultaneously simulable for (H_true, r) and for every set in V.

    Perfect information falls back to the exact IPF path; otherwise a
    multi-start projected-gradient ascent over the stacked simulation tables
    reports an estimate with its constraint residual attached. The estimate
    is taken at a point whose residual is below 1e-4, not at an exactly
    feasible one, so it may overshoot the supremum: it is not a bound.

    Each (V, channel) system is solved once for all ``starts`` starts, start
    k seeded by ``rng_for(seed, "rstar-general", V, k)``; every start's
    floats equal those of running it on its own, and the results are taken
    in k order, so value, residual and maximizer do not depend on the
    stacking. ``starts`` must be at least 1.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    if p.num_cells > JOINT_CELL_GUARD:
        raise EnumerationGuardError(
            f"joint alphabet {p.num_cells} exceeds guard {JOINT_CELL_GUARD}")
    if H_true not in H:
        raise ValueError(f"true honest set {H_true} not in the collection")
    if R.perfect:
        report = r_star_perfect(p, H)
        return GeneralRateResult(report.per_pair[H_true], 0.0, report.maximizer_V)
    if r is None:
        raise ValueError("imperfect information requires the true channel r")

    from .source_model import rng_for
    best_value = -math.inf
    best_res = math.inf
    best_V: tuple[SubsetView, ...] = (H_true,)
    for V, U in _candidate_collections(list(H.candidates), None):
        members = list(V)
        channel_lists = [[r]] + [list(R.channels_for(S)) for S in members]
        sets = [H_true] + members
        for combo in itertools.product(*channel_lists):
            systems = []
            for S, chan in zip(sets, combo):
                r_t = _effective_channel(chan, p, S)
                systems.append(_simulability_matrix(p, S, r_t))
            rngs = [rng_for(seed, "rstar-general", _lex_key(V), k) for k in range(starts)]
            for value, residual in _pg_sup_entropy(p, U, systems, rngs):
                if residual < 1e-4 and value > best_value + 1e-9:
                    best_value, best_res, best_V = value, residual, tuple(V)
    if best_value == -math.inf:
        return GeneralRateResult(0.0, math.inf, (H_true,))
    return GeneralRateResult(best_value, best_res, best_V)


# ---------------------------------------------------------------------------
# fixed-rate regions
# ---------------------------------------------------------------------------

def sw_facets(p: JointPMF, S: SubsetView) -> list[tuple[SubsetView, float]]:
    """All facets of the Slepian-Wolf region on X_S:
    (S', H(X_S' | X_{S - S'})) for every nonempty S' subset of S."""
    facets = []
    idx = list(S.indices)
    for k in range(1, len(idx) + 1):
        for combo in itertools.combinations(idx, k):
            sub = SubsetView(combo)
            rest = S.difference(sub)
            facets.append((sub, conditional_entropy(p, sub, rest)))
    return facets


def sw_region_contains(rates: Sequence[float], p: JointPMF, S: SubsetView,
                       *, slack: float = 1e-9) -> bool:
    """Does the rate vector restricted to S lie in SW(X_S)?"""
    if any(r < 0 for r in rates):
        raise ValueError("rates must be nonnegative")
    for sub, bound in sw_facets(p, S):
        if sum(rates[i] for i in sub) < bound - slack:
            return False
    return True


def deterministic_extra_constraints(p: JointPMF, H: HonestCollection, R: InfoModel,
                                    *, zero_tol: float = 1e-9) -> list[SubsetView]:
    """Intersections S1 n S2 of candidate pairs for which some channel in
    R(S2) lets the traitors know X_{S1 n S2} exactly; deterministic fixed-rate
    coding must put these intersections in their own SW regions."""
    extra = []
    seen = set()
    for s1 in H.candidates:
        for s2 in H.candidates:
            inter = s1.intersection(s2)
            if len(inter) == 0 or inter.indices in seen:
                continue
            for chan in R.channels_for(s2):
                if channel_conditional_entropy(p, chan, inter) < zero_tol:
                    extra.append(inter)
                    seen.add(inter.indices)
                    break
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
