"""Independent oracles used to freeze expected values in the tests.

Each oracle deliberately avoids the code path it checks: entropies by
explicit per-cell loops, marginals by nested summation, the max-entropy value
by projected-gradient ascent with Dykstra projection, simulability by grid
search over the simulation table, bins by integer arithmetic one sequence
at a time, conditional type entropies by explicit type counts, the phase
search by the lazy candidate-by-candidate loop, the variable-rate session
by the round-by-round loop (one phase, then one prune, per round), the fixed-rate per-set
search by the tuple-by-tuple typicality loop, the irredundant
sub-collections by coverer counts over every subset mask, the one family
walk and scan of the region report by one walk and one scan per search,
linear programs by scipy's HiGHS solver, the simulation constraints and
simulated laws by per-cell loops, the region report by running IPF on every
family, the
deterministic-coding extra constraints by a channel test on every candidate
pair, and the ambiguity attack by enumerating both joint sequence spaces.
"""
from __future__ import annotations

import itertools
import math
import struct
from hashlib import blake2b

import numpy as np

from byzsw.adversary import AmbiguityOutcome, TraitorContext
from byzsw.binning import (
    EnumerationGuardError,
    all_sequences,
    bin_count_for_rate,
    fixed_rate_encode,
    fixed_rate_header,
    hash_rows,
    space_bins,
)
from byzsw.prob_core import (
    JointPMF,
    SubsetView,
    channel_conditional_entropy,
    eta_ball_contains,
    marginal,
    type_of,
    union_of,
)
from byzsw.rate_region import (
    FAMILY_GUARD,
    HonestCollection,
    InfoModel,
    RegionReport,
    _acyclic_entropy,
    _lex_key,
    max_entropy_with_marginals,
)
from byzsw.source_model import derive_seed


def brute_entropy(table) -> float:
    total = 0.0
    for cell in np.asarray(table, dtype=float).ravel():
        if cell > 0:
            total -= cell * math.log2(cell)
    return total


def brute_marginal(mass: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    mass = np.asarray(mass, dtype=float)
    sizes = mass.shape
    out_shape = tuple(sizes[i] for i in keep)
    out = np.zeros(out_shape)
    for idx in itertools.product(*(range(s) for s in sizes)):
        out[tuple(idx[i] for i in keep)] += mass[idx]
    return out


def literal_typicality_check(symbols: np.ndarray, p: JointPMF, eps: float) -> bool:
    """Per-cell frequency check written independently of the library."""
    arr = np.atleast_2d(np.asarray(symbols))
    n = arr.shape[1]
    cells = int(np.prod(p.alphabet_sizes))
    tol = eps / cells
    for idx in itertools.product(*(range(s) for s in p.alphabet_sizes)):
        freq = np.mean(np.all(arr == np.asarray(idx)[:, None], axis=0))
        if abs(freq - p.mass[idx]) > tol:
            return False
    return True


def pg_maxent_oracle(p: JointPMF, V, *, iters: int = 800,
                     dykstra_iters: int = 50) -> float:
    """Projected-gradient ascent of H(q) over {q >= 0, sum q = 1,
    q(x_S) = p(x_S) for S in V}; projection onto the constraint set by
    Dykstra's alternating method."""
    sizes = p.alphabet_sizes
    cells = int(np.prod(sizes))
    rows, b = [], []
    for S in V:
        pS = marginal(p, S).mass
        s_axes = [i for i in range(len(sizes)) if i in S]
        for flat_s in range(pS.size):
            ind = np.zeros(sizes)
            idx_s = np.unravel_index(flat_s, pS.shape)
            sl = [slice(None)] * len(sizes)
            for pos, axis in enumerate(s_axes):
                sl[axis] = idx_s[pos]
            ind[tuple(sl)] = 1.0
            rows.append(ind.ravel())
            b.append(pS.ravel()[flat_s])
    rows.append(np.ones(cells))
    b.append(1.0)
    A = np.array(rows)
    b = np.array(b)
    pinvA = np.linalg.pinv(A)

    def dykstra(v: np.ndarray) -> np.ndarray:
        pvar = np.zeros_like(v)
        qvar = np.zeros_like(v)
        x = v.copy()
        for _ in range(dykstra_iters):
            y = (x + pvar) - pinvA @ (A @ (x + pvar) - b)
            pvar = x + pvar - y
            x = np.maximum(y + qvar, 0.0)
            qvar = y + qvar - x
        return x

    q = dykstra(np.full(cells, 1.0 / cells))
    ln2 = math.log(2.0)
    stall = 0
    best = brute_entropy(q)
    for _ in range(iters):
        grad = -(np.log2(np.maximum(q, 1e-300)) + 1.0 / ln2)
        step = 0.5
        improved = False
        while step > 1e-12:
            qn = dykstra(q + step * grad)
            if brute_entropy(qn) > best + 1e-14:
                improved = True
                break
            step *= 0.5
        if not improved:
            stall += 1
            if stall >= 3:
                break
            continue
        q = qn
        best = brute_entropy(q)
    return best


def product_form_feasible(q: JointPMF, p: JointPMF, S: SubsetView,
                          grid: int = 400) -> bool:
    """Exhaustive oracle for simulability with a constant (uninformative) W
    in the two-sensor binary case: q must factor as p(x_S) g(x_Sc) for some
    distribution g; search g on a fine grid."""
    m = q.m
    comp = S.complement(m)
    assert len(S) == 1 and len(comp) == 1 and q.alphabet_sizes == (2, 2)
    p_s = marginal(p, S).mass
    axis_s = S.indices[0]
    best = math.inf
    for k in range(grid + 1):
        g = np.array([k / grid, 1 - k / grid])
        cand = np.empty((2, 2))
        for xs in range(2):
            for xc in range(2):
                idx = [0, 0]
                idx[axis_s] = xs
                idx[comp.indices[0]] = xc
                cand[tuple(idx)] = p_s[xs] * g[xc]
        best = min(best, float(np.max(np.abs(cand - q.mass))))
    return best < 1e-6


def reference_bin(seed: int, header: bytes, seq, bins: int) -> int:
    """Bin of one sequence, in plain Python integers: a 64-bit key from keyed
    blake2b of the header, then a SplitMix64 finalizer over the sequence's
    bytes (one per symbol, zero-padded to whole big-endian 8-byte words),
    each word XORed into the state before mixing, reduced modulo the bin
    count."""
    mask = (1 << 64) - 1
    key = blake2b(header, key=(seed & mask).to_bytes(8, "big"), digest_size=8)
    payload = bytes(int(v) for v in np.asarray(seq).ravel())
    payload += bytes(-len(payload) % 8)
    h = int.from_bytes(key.digest(), "big")
    for off in range(0, len(payload), 8):
        z = h ^ int.from_bytes(payload[off:off + 8], "big")
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        h = z ^ (z >> 31)
    return h % bins


def codebook_space_bins(cb, cs, j: int) -> np.ndarray:
    """The block-j bins of every sequence of ``all_sequences(alphabet_size,
    n)`` under each subcodebook in ``cs``, a (len(cs), space) array:
    ``space_bins`` under the codebook's (c, j) headers."""
    return space_bins(cb.master_seed, [cb._header(c, j) for c in cs], cb.alphabet_size, cb.n,
                      [cb.bin_count(j)] * len(cs))


def reference_draw(key: int, position: int) -> int:
    """Output ``position`` (1 for the first) of the SplitMix64 generator
    started at state ``key``, in plain Python integers: the state advanced
    by ``position`` golden-ratio increments, then finalized."""
    mask = (1 << 64) - 1
    z = (key + position * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def brute_conditional_type_entropy(seq, prior_seqs) -> float:
    """Empirical H(X | X_prior) of one sequence, in bits, by explicit counting
    of joint and prior types: sum over joint cells of c/n * log2(n_prior / c)."""
    n = len(seq)
    joint, prior = {}, {}
    for t in range(n):
        ctx = tuple(int(s[t]) for s in prior_seqs)
        joint[ctx, int(seq[t])] = joint.get((ctx, int(seq[t])), 0) + 1
        prior[ctx] = prior.get(ctx, 0) + 1
    return sum(c / n * math.log2(prior[ctx] / c) for (ctx, _a), c in joint.items())


def reference_decode_phase(cb, prior, sizes, c: int, eps: float, next_message):
    """Lazy phase search: after block j arrives, walk the members of T_j in
    index order, verify each chain block by block (remembering verified and
    failed prefixes), and return the first full match; force the least
    sequence when every block is exhausted. Same arguments and return shape
    as ``variable_rate._decode_phase``; ``sizes`` goes unused, since the
    brute entropy counts types without alphabet sizes."""
    cands = all_sequences(cb.alphabet_size, cb.n)
    prior_seqs = [seq for _s, seq in prior]
    cond_h = np.array([brute_conditional_type_entropy(x, prior_seqs) for x in cands])

    def bin_of(idx, k):
        header = struct.pack(">BIII", 0x01, cb.sensor_id, c, k)
        return reference_bin(cb.master_seed, header, cands[idx], cb.bin_count(k))

    verified = np.zeros(len(cands), dtype=np.int32)
    failed = np.zeros(len(cands), dtype=bool)
    received = []
    for j in range(cb.J):
        received.append(int(next_message(j)))
        for idx in np.nonzero(cond_h <= (j + 1) * eps + 1e-12)[0]:
            if failed[idx]:
                continue
            k = int(verified[idx])
            ok = True
            while k <= j:
                if bin_of(idx, k) != received[k]:
                    ok = False
                    failed[idx] = True
                    break
                k += 1
            verified[idx] = k
            if ok:
                return np.array(cands[idx], dtype=np.int64), j + 1, received, False
    return np.array(cands[0], dtype=np.int64), cb.J, received, True


def reference_first_typical(p_s: JointPMF, rows, eps: float):
    """The fixed-rate decoder's per-set search one tuple at a time: walk
    ``itertools.product`` over each sensor's candidate rows and return the
    first tuple (as int64 sequences) whose type passes
    ``eta_ball_contains``, or None."""
    for combo in itertools.product(*[range(len(r)) for r in rows]):
        tup = np.stack([r[k] for r, k in zip(rows, combo)])
        if eta_ball_contains(p_s, type_of(tup, p_s.alphabet_sizes), eps):
            return tuple(np.array(r[k], dtype=np.int64) for r, k in zip(rows, combo))
    return None


def reference_candidate_collections(candidates, must_contain):
    """Nonempty sub-collections, skipping any whose union and constraint set
    are both dominated by a smaller one (dropping one set leaves the union
    unchanged). ``must_contain`` pins one set that may not be dropped, for
    per-true-honest-set evaluations. Returns (V, union bitmask) pairs, the
    shape ``per_search_candidate_collections`` returns.

    Every subset mask at once: count each sensor's coverers per family; a
    member is redundant iff each of its sensors has a second coverer, and a
    family of more than one member with a redundant member other than the
    pin is dropped. On at most 10 sets the result is checked against
    ``scan_candidate_collections``, the mask-by-mask definition."""
    n = len(candidates)
    pin = None
    if must_contain is not None:
        pin = next((k for k, s in enumerate(candidates)
                    if s.indices == must_contain.indices), None)
        if pin is None:
            return []
    m = max((i + 1 for s in candidates for i in s.indices), default=0)
    incidence = np.array([[int(i in s.indices) for i in range(m)] for s in candidates],
                         dtype=np.int32).reshape(n, m)
    families = np.arange(1, 1 << n)
    member = (families[:, None] >> np.arange(n) & 1).astype(np.int32)      # (F, n)
    coverers = member @ incidence                                          # (F, m)
    # per (family, set): how many of the set's sensors have at most one coverer
    lonely = (coverers < 2).astype(np.int32) @ incidence.T
    redundant = (member == 1) & (lonely == 0)
    if pin is not None:
        redundant[:, pin] = False
    keep = ~((member.sum(axis=1) > 1) & redundant.any(axis=1))
    if pin is not None:
        keep &= member[:, pin] == 1
    unions = (coverers > 0).astype(np.int64) @ (1 << np.arange(m, dtype=np.int64))
    out = [(tuple(candidates[k] for k in range(n) if mask >> k & 1), int(u))
           for mask, u in zip(families[keep].tolist(), unions[keep].tolist())]
    out.sort(key=lambda vu: (-bin(vu[1]).count("1"), _lex_key(vu[0])))
    if n <= 10:
        assert out == scan_candidate_collections(candidates, must_contain)
    return out


def scan_candidate_collections(candidates, must_contain):
    """``reference_candidate_collections`` by a Python scan over every subset
    mask, one family at a time."""
    out = []
    n = len(candidates)
    for mask in range(1, 1 << n):
        V = [candidates[k] for k in range(n) if mask >> k & 1]
        if must_contain is not None and all(s.indices != must_contain.indices for s in V):
            continue
        u = union_of(V)
        dominated = False
        for s in V:
            if must_contain is not None and s.indices == must_contain.indices:
                continue
            rest = [x for x in V if x is not s]
            if rest and union_of(rest).indices == u.indices:
                dominated = True
                break
        if not dominated:
            out.append((tuple(V), sum(1 << i for i in u.indices)))
    out.sort(key=lambda vu: (-bin(vu[1]).count("1"), _lex_key(vu[0])))
    return out


def per_search_candidate_collections(candidates, must_contain):
    """Irredundant sub-collections: every nonempty V in which each member
    covers a sensor no other member covers. A member without such a private
    sensor can be dropped without changing the union, so the smaller family
    dominates; singletons always qualify. ``must_contain`` pins one set that
    every family holds and that needs no private sensor, for
    per-true-honest-set evaluations.

    Kept verbatim from before one walk served every search: one depth-first
    walk per search over int bitmasks with members in candidate order,
    carrying the sensors covered exactly once and those covered more than
    once. A set joins only if it brings a new sensor, and a branch is cut as
    soon as an unpinned member loses its last private sensor. Returns
    (V, union) pairs sorted by (-|union|, _lex_key(V)), the second key read
    as the members' sorted ranks in index-tuple order; raises
    EnumerationGuardError past FAMILY_GUARD families.
    """
    masks = [s.mask for s in candidates]
    n = len(candidates)
    rank = [0] * n
    for r, k in enumerate(sorted(range(n), key=lambda k: candidates[k].indices)):
        rank[k] = r
    pin = None
    if must_contain is not None:
        pin = next((k for k, s in enumerate(candidates) if s == must_contain), None)
        if pin is None:
            return []
    families = []

    def walk(members, start, once, more):
        families.append((members, once | more))
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
    families.sort(key=lambda mu: (-mu[1].bit_count(), sorted(map(rank.__getitem__, mu[0]))))
    return [(tuple(map(candidates.__getitem__, sorted(members))), union)
            for members, union in families]


def per_search_r_star_perfect(p: JointPMF, H: HonestCollection) -> RegionReport:
    """Minimum achievable variable-rate sum rate under perfect traitor
    information, kept verbatim from before one walk and one scan served
    every search: each search, overall and per true honest set, walks its
    own families (``per_search_candidate_collections``) and scans them, a
    family met again in a later search reading its score. The one scan must
    give this report bit for bit."""
    cands = list(H.candidates)
    memo: dict = {}
    scores: dict = {}

    def solve(V):
        if V not in memo:
            memo[V] = max_entropy_with_marginals(p, V)
        return memo[V]

    def best_over(must_contain):
        best = None
        for V, _u in per_search_candidate_collections(cands, must_contain):
            value = scores.get(V)
            if value is None:
                value = _acyclic_entropy(p, V)
                if value is None:
                    value = solve(V).value
                scores[V] = value
            if best is None or value > best[0] + 1e-12:
                best = (value, V)
        res = solve(best[1])
        return res.value, best[1], res

    value, maxV, maxres = best_over(None)
    per_pair_detail = {}
    all_conv = maxres.converged
    for h_true in cands:
        v, V, res = best_over(h_true)
        per_pair_detail[h_true] = (v, V, res.q)
        all_conv = all_conv and res.converged
    return RegionReport(value, maxV, maxres.q, per_pair_detail, all_conv)


def reference_linprog(A, b, c):
    """max c @ x subject to A x = b, x >= 0, by scipy's HiGHS solver:
    (status, value) with status "optimal", "infeasible" or "unbounded"."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(c, dtype=float), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-res.fun if res.status == 0 else None)


def reference_simulated_law(p: JointPMF, S: SubsetView, chan, table) -> np.ndarray:
    """q(x) = p(x_S) sum_w r(w | x_S) qbar[w, x_Sc], one cell at a time;
    ``chan`` is given on x_S and ``table`` has shape (w,) + sizes of Sc in
    ascending sensor order."""
    sizes = p.alphabet_sizes
    comp = [i for i in range(len(sizes)) if i not in S]
    p_s = brute_marginal(p.mass, tuple(S.indices))
    q = np.zeros(sizes)
    for x in itertools.product(*(range(a) for a in sizes)):
        xs = tuple(x[i] for i in S)
        xc = tuple(x[i] for i in comp)
        q[x] = p_s[xs] * sum(chan.rows[xs + (w,)] * table[(w,) + xc]
                             for w in range(chan.output_alphabet_size))
    return q


def reference_simulation_lp(p: JointPMF, sets, channels):
    """Rows (A, b) of the polytope over x = (qbar_0, ..., qbar_K, q), built
    cell by cell: for each (set, channel) pair k, q(x) - p(x_S) sum_w
    r(w | x_S) qbar_k[w, x_Sc] = 0 for every cell x, and sum_{x_Sc}
    qbar_k[w, x_Sc] = 1 for every w. Channels are given on x_S; each table
    is flattened from shape (w,) + sizes of Sc, q in canonical order."""
    sizes = p.alphabet_sizes
    cells = int(np.prod(sizes))
    blocks = []
    for S, chan in zip(sets, channels):
        comp = [i for i in range(len(sizes)) if i not in S]
        shape = (chan.output_alphabet_size,) + tuple(sizes[i] for i in comp)
        blocks.append((S, comp, chan, shape, int(np.prod(shape))))
    width = sum(blk[-1] for blk in blocks) + cells
    rows, rhs = [], []
    offset = 0
    for S, comp, chan, shape, size in blocks:
        p_s = brute_marginal(p.mass, tuple(S.indices))
        for flat, x in enumerate(itertools.product(*(range(a) for a in sizes))):
            row = np.zeros(width)
            row[width - cells + flat] = 1.0
            xs = tuple(x[i] for i in S)
            xc = tuple(x[i] for i in comp)
            for w in range(shape[0]):
                row[offset + np.ravel_multi_index((w,) + xc, shape)] -= \
                    p_s[xs] * chan.rows[xs + (w,)]
            rows.append(row)
            rhs.append(0.0)
        for w in range(shape[0]):
            row = np.zeros(width)
            for xc in itertools.product(*(range(a) for a in shape[1:])):
                row[offset + np.ravel_multi_index((w,) + xc, shape)] = 1.0
            rows.append(row)
            rhs.append(1.0)
        offset += size
    return np.array(rows), np.array(rhs)


def reference_r_star_perfect(p: JointPMF, H: HonestCollection, *,
                             tol: float = 1e-10, max_sweeps: int = 100_000) -> RegionReport:
    """Minimum achievable variable-rate sum rate under perfect traitor
    information: the supremum over sub-collections V of the max-entropy value
    with the marginals of every set in V pinned to p.

    Kept verbatim from before families were scored in closed form: every
    family is solved by IPF. The closed-form scoring must give this report
    bit for bit."""
    cands = list(H.candidates)
    memo: dict = {}

    def solve(V):
        key = _lex_key(V)
        if key not in memo:
            memo[key] = max_entropy_with_marginals(p, V, tol=tol, max_sweeps=max_sweeps)
        return memo[key]

    def best_over(must_contain):
        best = None
        for V, _u in per_search_candidate_collections(cands, must_contain):
            res = solve(V)
            if best is None or res.value > best[0] + 1e-12:
                best = (res.value, V, res)
        return best

    value, maxV, maxres = best_over(None)
    per_pair_detail = {}
    all_conv = maxres.converged
    for h_true in cands:
        v, V, res = best_over(h_true)
        per_pair_detail[h_true] = (v, V, res.q)
        all_conv = all_conv and res.converged
    return RegionReport(value, maxV, maxres.q, per_pair_detail, all_conv)


def reference_deterministic_extra_constraints(p: JointPMF, H: HonestCollection, R: InfoModel,
                                              *, zero_tol: float = 1e-9) -> list[SubsetView]:
    """Intersections S1 n S2 of candidate pairs for which some channel in
    R(S2) lets the traitors know X_{S1 n S2} exactly, each listed once.

    Kept verbatim from before perfect information skipped the channel test:
    every pair is tested on its channels, the identity channel included."""
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


def _joint_flat_space(sizes: tuple[int, ...], n: int) -> np.ndarray:
    """All joint sequences over a coordinate set, as (count, n) per-slot flat
    joint symbols in lexicographic order; ``all_sequences`` refuses a space
    past its guard."""
    return all_sequences(int(np.prod(sizes)), n)


def _ball_distances(flat_seqs: np.ndarray, cells: int, p_flat: np.ndarray) -> np.ndarray:
    """max_cell |type - p| for every sequence of per-slot flat symbols."""
    k, n = flat_seqs.shape
    flat = (np.arange(k)[:, None] * cells + flat_seqs.astype(np.int64)).reshape(-1)
    counts = np.bincount(flat, minlength=k * cells).reshape(k, cells)
    return np.max(np.abs(counts / n - p_flat[None, :]), axis=1)


def reference_ambiguity_attack(ctx: TraitorContext, S1: SubsetView,
                               honest_true: SubsetView, code, p: JointPMF,
                               true_block: np.ndarray, *,
                               max_attempts: int = 64) -> AmbiguityOutcome:
    """Search for a confusable substitute for X_{S1 n H}: same bins as the
    truth, strongly typical, different from the truth, and admitting a
    companion for S1 - H jointly typical with it. Candidates are tried most
    typical first (up to ``max_attempts``). Returns not-found when the search
    fails, which is the likely outcome whenever the rates lie inside
    SW(X_{S1 n H}).

    Kept verbatim from before the attack stopped enumerating: it scores
    every joint sequence of the intersection and, per candidate, every
    companion sequence. The counting construction must give this outcome
    field for field.
    """
    if code.kind != "deterministic":
        raise ValueError("the ambiguity attack applies to deterministic coding")
    inter = S1.intersection(honest_true)
    outer = S1.difference(honest_true)
    if len(inter) == 0 or len(outer) == 0:
        raise ValueError("need a candidate set straddling the honest set")
    if not outer.is_subset_of(ctx.traitors):
        raise ValueError("attack coordinates must be traitors")
    n = code.n
    sizes_inter = tuple(p.alphabet_sizes[i] for i in inter)
    cells_inter = int(np.prod(sizes_inter))
    truth_inter = true_block[list(inter.indices)]
    p_inter = marginal(p, inter)
    tol_inter = code.eps_decode / cells_inter

    cands = _joint_flat_space(sizes_inter, n)
    dist = _ball_distances(cands, cells_inter, p_inter.mass.reshape(-1))
    keep = np.nonzero(dist <= tol_inter + 1e-12)[0]
    keep = keep[np.argsort(dist[keep], kind="stable")]

    # companion space, shared across attempts
    sizes_outer = tuple(p.alphabet_sizes[i] for i in outer)
    cells_outer = int(np.prod(sizes_outer))
    comp = _joint_flat_space(sizes_outer, n)
    p_s1 = marginal(p, S1)
    cells_s1 = int(np.prod(p_s1.alphabet_sizes))
    tol_s1 = code.eps_decode / cells_s1
    # per-slot stride map from (inter coords, outer coords) to sorted-S1 cells
    strides = {}
    acc = 1
    for i in reversed(S1.indices):
        strides[i] = acc
        acc *= p.alphabet_sizes[i]
    inter_mult = np.array([strides[i] for i in inter])
    outer_mult = np.array([strides[i] for i in outer])

    comp_syms_all = np.stack(np.unravel_index(
        comp.reshape(-1).astype(np.int64),
        sizes_outer)).reshape(len(sizes_outer), comp.shape[0], n)
    # bin prefilter over every kept candidate at once, one kernel call per
    # intersection sensor; per-sensor symbols stay uint8 so the temporaries
    # stay small next to the 2^n-row candidate tables
    flat = cands[keep]
    truth_flat = np.ravel_multi_index(tuple(truth_inter), sizes_inter)
    match = np.any(flat != truth_flat[None, :], axis=1)
    stride = cells_inter
    for size, i in zip(sizes_inter, inter):
        stride //= size
        syms = flat // stride % size
        truth_bin = fixed_rate_encode(code.seed, i, true_block[i], code.rates[i], 0)
        match &= hash_rows(code.seed, [fixed_rate_header(i, 0)], syms,
                           [bin_count_for_rate(n, code.rates[i])])[0] == truth_bin

    for k in keep[match][:max_attempts]:
        cand_syms = np.stack(np.unravel_index(cands[k].astype(np.int64),
                                              sizes_inter))
        base = (cand_syms * inter_mult[:, None]).sum(axis=0)      # (n,)
        joint_codes = base[None, :] + np.tensordot(outer_mult,
                                                   comp_syms_all, axes=(0, 0))
        dist_s1 = _ball_distances(joint_codes, cells_s1, p_s1.mass.reshape(-1))
        hits = np.nonzero(dist_s1 <= tol_s1 + 1e-12)[0]
        if hits.size == 0:
            continue
        fake_outer = comp_syms_all[:, hits[0], :]
        messages = {}
        for row, i in enumerate(outer):
            messages[i] = (0, fixed_rate_encode(code.seed, i, fake_outer[row],
                                                code.rates[i], 0))
        key = derive_seed(ctx.seed, "ambiguity-garbage")
        for i in ctx.traitors.difference(outer):     # column i of round 0
            messages[i] = (0, reference_draw(key, i + 1)
                           % bin_count_for_rate(n, code.rates[i]))
        return AmbiguityOutcome(True, messages, inter.indices, cand_syms,
                                fake_outer)
    return AmbiguityOutcome(False, None, inter.indices, None, None)


# ---------------------------------------------------------------------------
# the per-round variable-rate session
# ---------------------------------------------------------------------------

def _sequential_cell_entropies(alphabet: int, s: int, n: int) -> np.ndarray:
    """G(y) = [f(s) - sum_a f(#a in y)] / n over alphabet^s, f(c) = c log2 c."""
    f = np.arange(n + 1) * np.log2(np.maximum(np.arange(n + 1), 1))
    seqs = all_sequences(alphabet, s)
    fsum = sum(f[(seqs == a).sum(axis=1)] for a in range(alphabet))
    return (f[s] - fsum) / n


def _sequential_type_entropies(rows, alphabet: int, prior_flat) -> np.ndarray:
    """H_type(X_i | X_prior) of every row under one prior: the per-cell
    tables summed in increasing cell order."""
    n = rows.shape[1]
    cells = np.zeros(n, dtype=np.int64) if prior_flat is None else prior_flat
    slot_counts = np.bincount(cells)
    h = np.zeros(len(rows))
    for p in np.flatnonzero(slot_counts):
        s = int(slot_counts[p])
        h += _sequential_cell_entropies(alphabet, s, n)[
            np.ravel_multi_index(rows[:, cells == p].T, (alphabet,) * s)]
    return h


def sequential_decode_phase(cb, prior, sizes, c: int, eps: float, next_message):
    """One phase: bin the whole space on block 0, score the members of the
    received bin, then walk j, binning the members on blocks 1..J-1 once.
    Returns (estimate, j_used, received indices, forced flag)."""
    n = cb.n
    received = [int(next_message(0))]
    members = np.nonzero(codebook_space_bins(cb, [c], 0)[0] == received[0])[0]
    rows = all_sequences(cb.alphabet_size, n)[members]
    prior_flat = None
    if prior:
        prior_flat = np.ravel_multi_index(tuple(np.stack([seq for _s, seq in prior])),
                                          [sizes[s] for s, _seq in prior])
    cond_h = _sequential_type_entropies(rows, cb.alphabet_size, prior_flat)
    matched = np.ones(len(rows), dtype=bool)
    later = None
    for j in range(cb.J):
        if j:
            received.append(int(next_message(j)))
            if matched.any():
                if later is None:
                    later = cb.encode_rows(rows, [c] * len(rows), range(1, cb.J))
                matched &= later[j - 1] == received[j]
        hit = np.nonzero(matched & (cond_h <= (j + 1) * eps + 1e-12))[0]
        if hit.size:
            return np.array(rows[hit[0]], dtype=np.int64), j + 1, received, False
    return np.zeros(n, dtype=np.int64), cb.J, received, True


def sequential_update_V(V, estimates: dict, U: SubsetView, p: JointPMF, info_model,
                        eta: float, n: int):
    """One end-of-round prune on one round's decoded block: (new V, emptied)."""
    from byzsw.rate_region import _ball_membership_general

    sizes_u = tuple(p.alphabet_sizes[i] for i in U)
    flat = np.ravel_multi_index(tuple(estimates[i] for i in U), sizes_u)
    t_u = (np.bincount(flat, minlength=math.prod(sizes_u)) / n).reshape(sizes_u)
    tau_u = eta / int(np.prod(sizes_u))
    kept = []
    for S in V:
        if info_model.perfect:
            axes_keep = tuple(U.indices.index(i) for i in S)
            move = np.moveaxis(t_u, axes_keep, range(len(axes_keep)))
            flat_s = move.reshape(int(np.prod([sizes_u[k] for k in axes_keep])), -1)
            lower = np.maximum(flat_s - tau_u, 0.0).sum(axis=1)
            upper = (flat_s + tau_u).sum(axis=1)
            ps = marginal(p, S).mass.reshape(-1)
            ok = bool(np.all(lower - 1e-12 <= ps) and np.all(ps <= upper + 1e-12))
        else:
            ok = any(_ball_membership_general(t_u, U, S, chan, p, tau_u)
                     for chan in info_model.channels_for(S))
        if ok:
            kept.append(S)
    if not kept:
        return tuple(V), True
    return tuple(kept), False


def sequential_run_session(p: JointPMF, H: HonestCollection, info_model,
                           honest_true: SubsetView, r_true, strategy, params,
                           seed: int):
    """``variable_rate.run_session`` one round at a time: draw the round
    with the one-round draws, call ``begin_round`` for that round alone,
    run one phase per sensor of U(V) in ascending order, prune V, repeat.
    Same draws, same report; a traitor whose strategy reports no block
    sends its one-round chain from ``respond``."""
    from byzsw.binning import BinningCodebook
    from byzsw.prob_core import identity_channel
    from byzsw.source_model import keyed_draws, sample_blocks, sample_side_infos
    from byzsw.variable_rate import SessionReport, TranscriptRecord

    m, sizes, n = p.m, p.alphabet_sizes, params.n
    traitors = honest_true.complement(m)
    if len(traitors) == 0:
        strategy = None
    C = params.subcodebook_count(m, sizes)
    if r_true is None:
        r_true = identity_channel(sizes)
    codebooks = {i: BinningCodebook(i, n, sizes[i], params.eps, params.nu_value, C,
                                    derive_seed(seed, "codebook", i))
                 for i in range(m)}
    ctx = TraitorContext(traitors=traitors, seed=derive_seed(seed, "traitor"), law=p)
    V = tuple(H.candidates)
    transcript, honest_errors, round_rates, phase_tx, round_estimates = [], [], [], [], []
    v_traj = [V]
    subcode_bits = 0.0
    forced_count = restores = 0
    j_max = max(cb.J for cb in codebooks.values())
    min_block_bits = min(cb.block_bits(j) for cb in codebooks.values() for j in range(cb.J))
    feedback_ratio = math.log2(C * j_max) / min_block_bits if min_block_bits > 0 else math.inf

    for I in range(params.rounds):
        block = sample_blocks(p, n, seed, [I])[0]
        ctx.w_block = sample_side_infos(r_true, block[None], seed, [I])
        ctx.own_block = block[None, list(traitors.indices)] if len(traitors) else None
        reported = None if strategy is None else strategy.begin_round(ctx, [I])
        U = union_of(V)
        estimates, tx_counts, prior = {}, {}, []
        round_bits = 0.0
        for i in sorted(U.indices):
            cb = codebooks[i]
            if i in traitors and strategy is not None:
                c = int(strategy.choose_subcodebook(ctx, [I], i, C)[0])
                sent = None if reported is None else reported[0, traitors.indices.index(i)]
            else:
                c = int(keyed_draws(seed, ("subcode",), [I], m, C)[0, i])
                sent = block[i]
            if sent is None:
                bins = [cb.bin_count(j) for j in range(cb.J)]
                chain = strategy.respond(ctx, [I], i, bins)[:, 0]
            else:
                chain = cb.encode_rows(np.asarray(sent)[None], [c], range(cb.J))[:, 0]
            sender = chain.__getitem__
            est, j_used, received, forced = sequential_decode_phase(
                cb, prior, sizes, c, params.eps, sender)
            forced_count += forced
            estimates[i] = est
            prior.append((i, est))
            tx_counts[i] = j_used
            for j in range(j_used):
                bits = cb.block_bits(j)
                round_bits += bits
                transcript.append(TranscriptRecord(I, i, c, j, received[j], bits))
        newV, emptied = sequential_update_V(V, estimates, U, p, info_model,
                                            params.eta_value, n)
        restores += emptied
        V = newV
        v_traj.append(V)
        honest_errors.append(any(i not in estimates
                                 or not np.array_equal(estimates[i], block[i])
                                 for i in honest_true))
        round_rates.append(round_bits / n)
        phase_tx.append(tx_counts)
        round_estimates.append(estimates)
        subcode_bits += len(tx_counts) * math.log2(C)

    return SessionReport(
        honest_error_rounds=tuple(honest_errors),
        round_rates=tuple(round_rates),
        sum_rate=sum(rec.bits for rec in transcript) / (n * params.rounds),
        v_trajectory=tuple(v_traj),
        phase_transactions=tuple(phase_tx),
        subcode_bits_total=subcode_bits,
        decode_forced=forced_count,
        v_empty_restores=restores,
        feedback_ratio=feedback_ratio,
        transcript=tuple(transcript),
        round_estimates=tuple(round_estimates),
    )


def report_differences(a, b) -> list[str]:
    """Names of the ``SessionReport`` fields on which two reports differ;
    decoded blocks are compared as arrays, with their dtypes."""
    out = []
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if name == "round_estimates":
            same = len(x) == len(y) and all(
                list(ex) == list(ey) and all(np.array_equal(ex[i], ey[i])
                                             and ex[i].dtype == ey[i].dtype for i in ex)
                for ex, ey in zip(x, y))
        elif name == "phase_transactions":
            same = [list(d.items()) for d in x] == [list(d.items()) for d in y]
        else:
            same = x == y and type(x) is type(y)
        if not same:
            out.append(name)
    return out
