"""Independent references and correctness gates for the benchmark.

Nothing here imports byzsw: the gates judge the program's outputs against
formulas written out again from the paper (closed forms of the minimum sum
rate for threshold collections) and against the acceptance bounds, so a
defect in the program cannot also hide in its own check.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Imperfect-information two-sensor toy: the side information W carries
# nothing, so the bound is H(X0) + H(X1) for the law [[0.4, 0.2], [0.1, 0.3]].
TOY_PMF = [[0.4, 0.2], [0.1, 0.3]]
TOY_VALUE = 1.9709505944546686
TOY_TOL = 5e-3
CLOSED_FORM_TOL = 1e-6

# Acceptance criterion 5 (variable rate under attack) and 6 (fixed-rate converse).
VR_MAX_ERROR = 0.05
VR_RATE_SLACK = 0.2
VR_MIN_INDISTINGUISHABLE = 0.9
FR_MIN_CONVERSE_ERROR = 0.2


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _h(mass: np.ndarray, keep: tuple[int, ...]) -> float:
    """Entropy in bits of the marginal of ``mass`` on the axes ``keep``."""
    if not keep:
        return 0.0
    drop = tuple(k for k in range(mass.ndim) if k not in keep)
    table = mass.sum(axis=drop) if drop else mass
    flat = table.ravel()
    flat = flat[flat > 0]
    return float(-(flat * np.log2(flat)).sum())


def _cmi(mass: np.ndarray, parts: list[tuple[int, ...]], given: tuple[int, ...]) -> float:
    """sum_k H(X_part_k | X_given) - H(X_all_parts | X_given)."""
    h_given = _h(mass, given)
    joint = tuple(sorted(set(given).union(*parts)))
    total = sum(_h(mass, tuple(sorted(set(given) | set(p)))) - h_given for p in parts)
    return total - (_h(mass, joint) - h_given)


def closed_form_r_star(mass, t: int) -> float:
    """Minimum variable-rate sum rate of a threshold collection (at most t
    traitors among m sensors) under perfect information, for t in {1, 2, m-1}:
    the joint entropy plus the worst conditional (multi-)information
    penalty; with t = m-1 every sensor codes alone."""
    mass = np.asarray(mass, dtype=float)
    m = mass.ndim
    everyone = tuple(range(m))
    if t == m - 1:
        return sum(_h(mass, (i,)) for i in everyone)
    h_all = _h(mass, everyone)

    def rest(*used):
        return tuple(k for k in everyone if k not in used)

    if t == 1:
        return h_all + max(_cmi(mass, [(i,), (j,)], rest(i, j))
                           for i, j in itertools.combinations(everyone, 2))
    if t == 2:
        best = 0.0
        pairs = list(itertools.combinations(everyone, 2))
        for a, b in pairs:
            for c, d in pairs:
                if {a, b} & {c, d}:
                    continue
                best = max(best, _cmi(mass, [(a, b), (c, d)], rest(a, b, c, d)))
        for i, j, k in itertools.combinations(everyone, 3):
            best = max(best, _cmi(mass, [(i,), (j,), (k,)], rest(i, j, k)))
        return h_all + best
    raise ValueError(f"no closed form for t={t} with m={m}")


def threshold_of(m: int, sets: list[list[int]]) -> int | None:
    """t when ``sets`` is exactly the family of all (m-t)-subsets, else None."""
    size = len(sets[0]) if sets else 0
    want = sorted(list(c) for c in itertools.combinations(range(m), size))
    return m - size if sorted(sorted(s) for s in sets) == want else None


def fixed_rate_sum_rate(rates: list[float], n: int) -> float:
    """Bits per symbol a one-shot fixed-rate code pays: sum_i log2(ceil(2^(n R_i))) / n."""
    return sum(math.log2(max(1, math.ceil(2.0 ** (n * r)))) for r in rates) / n


# ---------------------------------------------------------------------------
# gates: each returns a list of failure messages, empty when the gate holds
# ---------------------------------------------------------------------------

def gate_region_instance(name: str, mass, t: int, r_star: float) -> list[str]:
    want = closed_form_r_star(mass, t)
    if not abs(r_star - want) <= CLOSED_FORM_TOL:
        return [f"{name}: R* {r_star!r} differs from the closed form {want!r} "
                f"by more than {CLOSED_FORM_TOL}"]
    return []


def gate_toy(value: float) -> list[str]:
    if not abs(value - TOY_VALUE) < TOY_TOL:
        return [f"imperfect toy: R* {value!r} is not within {TOY_TOL} of {TOY_VALUE}"]
    return []


def gate_vr_attack(errors: int, indistinguishable: int, trials: int,
                   mean_rate: float, budget: float) -> list[str]:
    """Criterion 5. A proportion fails only when its whole Wilson interval
    lies on the wrong side of the bound, so the gate holds at any trial
    count the run reaches and on any seed."""
    out = []
    lo, _ = wilson_interval(errors, trials)
    if lo > VR_MAX_ERROR:
        out.append(f"vr_attack: honest error {errors}/{trials} has Wilson lower "
                   f"bound {lo:.4f} > {VR_MAX_ERROR}")
    _, hi = wilson_interval(indistinguishable, trials)
    if hi < VR_MIN_INDISTINGUISHABLE:
        out.append(f"vr_attack: indistinguishable {indistinguishable}/{trials} has "
                   f"Wilson upper bound {hi:.4f} < {VR_MIN_INDISTINGUISHABLE}")
    if not mean_rate <= budget + VR_RATE_SLACK:
        out.append(f"vr_attack: mean sum rate {mean_rate!r} exceeds budget "
                   f"{budget!r} + {VR_RATE_SLACK}")
    return out


def gate_fr_converse(errors: int, attacks_found: int, trials: int) -> list[str]:
    """Criterion 6: the ambiguity attack must succeed, so the honest error is
    bounded from below."""
    out = []
    _, hi = wilson_interval(errors, trials)
    if hi < FR_MIN_CONVERSE_ERROR:
        out.append(f"fr_converse: honest error {errors}/{trials} has Wilson upper "
                   f"bound {hi:.4f} < {FR_MIN_CONVERSE_ERROR}")
    if attacks_found < 1:
        out.append(f"fr_converse: no ambiguity attack found in {trials} trials")
    return out
