"""Brute-force and identity checks of the machinery behind the bounds, at
sample sizes where exhaustive subset enumeration is feasible.

The telescoping decomposition f(x) - f(x') = sum_k F_k(x, x') evaluates f
once on each of the 2^n swap configurations and sums each term's 2^k
subset differences with compensated summation, so that residuals stay at
the 1e-9 scale the identity checks assert.  The swap table is built in
blocks of BATCH_BLOCK consecutive masks, each evaluated by one
``Statistic.batch`` call, so only one block of configurations exists at a
time, never the whole 2^n table.

Result records derive their numbers: a CheckResult's pass and slack follow
from lhs, rhs and tol, and an FkDecomposition's residual from its terms.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
import numpy as np

from .bounds import UnboundedLipschitzError
from .core import BATCH_BLOCK, FunctionClass, SeededRng, Statistic, as_points, evaluate_class
from .seminorms import BudgetError, _differences, _row

__all__ = [
    "MAX_EXHAUSTIVE_N",
    "FkDecomposition",
    "VkVector",
    "CheckResult",
    "DeviationEstimate",
    "fk_decompose",
    "fk_term",
    "vk_vector",
    "jlip_lemma_check",
    "fk_difference_check",
    "sup_deviation_estimate",
    "lstat_condition_check",
]

MAX_EXHAUSTIVE_N = 14

IDENTITY_RTOL = 1e-9
INEQUALITY_SLACK = 1e-7


@dataclass(frozen=True)
class FkDecomposition:
    """Per-coordinate telescoping terms of lhs = f(x) - f(x'), with the
    reconstruction residual |lhs - sum terms| (compensated sum)."""

    terms: tuple
    lhs: float

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def residual(self) -> float:
        return abs(self.lhs - _kahan_sum(self.terms))

    def ok(self, rtol: float = IDENTITY_RTOL) -> bool:
        return self.residual <= rtol * max(1.0, abs(self.lhs))


@dataclass(frozen=True)
class VkVector:
    """Comparison vector in R^{2n}: two entries scaled by 2M at the active
    coordinate, the rest by J/sqrt(n)."""

    k: int
    values: np.ndarray


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numerical inequality or identity check: it passes
    when lhs <= rhs + tol, with slack rhs + tol - lhs."""

    name: str
    lhs: float
    rhs: float
    tol: float
    inputs_digest: str

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs + self.tol)

    @property
    def slack(self) -> float:
        return self.rhs + self.tol - self.lhs

    def to_record(self) -> dict:
        return {
            "check": self.name,
            "inputs": self.inputs_digest,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class DeviationEstimate:
    """Monte-Carlo estimate of the expected supremum deviation."""

    mean: float
    std_error: float
    replicates: int


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _kahan_sum(values) -> float:
    """Compensated sum of the values, in their order."""
    total = comp = 0.0
    for value in values:
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _check_pair(f: Statistic, x, xp) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_points(x), as_points(xp)
    if a.shape != b.shape:
        raise ValueError(f"configuration shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n > MAX_EXHAUSTIVE_N:
        raise BudgetError(
            f"exhaustive decomposition needs n <= {MAX_EXHAUSTIVE_N} "
            f"(cost grows as 2^n), got n={n}"
        )
    return a, b


def fk_decompose(f: Statistic, x, xp) -> FkDecomposition:
    """Exact telescoping decomposition of f(x) - f(x') into n per-coordinate
    terms, each a 2^k-subset average of partial differences.

    f is evaluated once on each of the 2^n swap configurations, which take
    rows from x' on a bitmask and from x elsewhere, one block of masks per
    ``f.batch`` call.  F_k sums, over the masks A of the first k
    coordinates, f(A) - f(A + k) + f(A^c - k) - f(A^c) with the complement
    A^c taken in all n coordinates.

    The residual |f(x) - f(x') - sum terms| is zero in exact arithmetic for
    every f; it is reported so callers can assert float-level smallness.
    """
    a, b = _check_pair(f, x, xp)
    n = a.shape[0]
    bits = np.arange(n)
    vals = np.empty(1 << n)
    for start in range(0, 1 << n, BATCH_BLOCK):
        masks = np.arange(start, min(start + BATCH_BLOCK, 1 << n))
        swapped = ((masks[:, None] >> bits) & 1).astype(bool)
        vals[start:start + len(masks)] = f.batch(np.where(swapped[..., None], b, a))
    full = (1 << n) - 1
    terms = []
    for k in range(n):
        bit = 1 << k
        A = np.arange(1 << k)
        rest = full ^ A
        total = _kahan_sum((vals[A] - vals[A | bit] + vals[rest & ~bit] - vals[rest]).tolist())
        terms.append(total / float(2 ** (k + 1)))
    return FkDecomposition(tuple(terms), float(vals[0] - vals[full]))


def fk_term(f: Statistic, x, xp, k: int) -> float:
    """Single telescoping term F_k(x, x')."""
    terms = fk_decompose(f, x, xp).terms
    if not 0 <= k < len(terms):
        raise IndexError(f"coordinate index k={k} out of range for n={len(terms)}")
    return terms[k]


def vk_vector(x, xp, k: int, m_lip: float, j_lip: float) -> VkVector:
    """Comparison vector whose Gaussian inner products dominate differences
    of the telescoping terms (scalar configurations only)."""
    a, b = as_points(x), as_points(xp)
    if a.shape[1] != 1 or b.shape[1] != 1:
        raise ValueError("the comparison vector is defined for d=1 configurations")
    n = a.shape[0]
    if not 0 <= k < n:
        raise IndexError(f"coordinate index k={k} out of range for n={n}")
    scale = j_lip / math.sqrt(n)
    v = np.empty(2 * n)
    v[:n] = scale * a[:, 0]
    v[n:] = scale * b[:, 0]
    v[k] = 2.0 * m_lip * a[k, 0]
    v[n + k] = 2.0 * m_lip * b[k, 0]
    return VkVector(k=k, values=v)


def jlip_lemma_check(f: Statistic, x, xp, k: int, a, b, j_lip_bound: float,
                     tol: float = INEQUALITY_SLACK) -> CheckResult:
    """Check that moving the off-k rows from x to x' changes the k-th partial
    difference by at most (J/n) * sum of off-k row distances."""
    pa, pb = as_points(x), as_points(xp)
    if pa.shape != pb.shape:
        raise ValueError("configurations must share a shape")
    n = pa.shape[0]
    if not 0 <= k < n:
        raise IndexError(f"coordinate index k={k} out of range for n={n}")
    diff = _differences(f, 1, np.stack([pa, pb]), np.array([[k], [k]]),
                        [np.stack([_row(a)] * 2), np.stack([_row(b)] * 2)])
    lhs = float(diff[0] - diff[1])
    dists = np.linalg.norm(pa - pb, axis=1)
    dists[k] = 0.0
    rhs = j_lip_bound / n * float(np.sum(dists))
    return CheckResult("jlip_lemma", lhs, rhs, tol,
                       _digest(pa, pb, [k], np.atleast_1d(a), np.atleast_1d(b)))


def fk_difference_check(f: Statistic, x, xp, y, yp, k: int, m_lip: float,
                        j_lip: float, tol: float = INEQUALITY_SLACK) -> CheckResult:
    """Check F_k(x, x') - F_k(y, y') <= |v^k(x, x') - v^k(y, y')| using the
    closed form of the expected absolute Gaussian inner product."""
    lhs = fk_term(f, x, xp, k) - fk_term(f, y, yp, k)
    diff = vk_vector(x, xp, k, m_lip, j_lip).values - vk_vector(y, yp, k, m_lip, j_lip).values
    rhs = float(np.linalg.norm(diff))
    return CheckResult("fk_difference", lhs, rhs, tol,
                       _digest(as_points(x), as_points(xp), as_points(y), as_points(yp), [k]))


def sup_deviation_estimate(f: Statistic, fclass: FunctionClass,
                           outer_reps: int, pop_reps: int,
                           rng: SeededRng) -> DeviationEstimate:
    """Monte-Carlo estimate of E sup_h [ E f(h(X')) - f(h(X)) ].

    Each outer replicate draws one sample X, estimates the population value
    per member from ``pop_reps`` fresh samples (shared across members), and
    records the supremum gap.  With outer_reps=1 the estimate is a single
    draw of the supremum deviation and the standard error is reported as 0.
    """
    if outer_reps < 1 or pop_reps < 1:
        raise ValueError("replicate counts must be positive")
    sampler = fclass.raw_space.sampler
    n = f.n

    def one(r: int) -> float:
        stream = rng.split(r)
        gen_data = stream.split(0).generator()
        emp = f.batch(evaluate_class(fclass, sampler(gen_data, n)))
        gen_pop = stream.split(1).generator()
        pop = np.zeros(fclass.size)
        for _ in range(pop_reps):
            pop += f.batch(evaluate_class(fclass, sampler(gen_pop, n)))
        pop /= pop_reps
        return float(np.max(pop - emp))

    vals = np.array([one(r) for r in range(outer_reps)])
    se = float(vals.std(ddof=1) / math.sqrt(outer_reps)) if outer_reps > 1 else 0.0
    return DeviationEstimate(mean=float(vals.mean()), std_error=se, replicates=outer_reps)


def _intersection_diam(a: float, b: float, c: float, d: float) -> float:
    lo = max(min(a, b), min(c, d))
    hi = min(max(a, b), max(c, d))
    return max(0.0, hi - lo)


def lstat_condition_check(F, x, k: int, l: int, y: float, yp: float,
                          z: float, zp: float,
                          tol: float = INEQUALITY_SLACK) -> tuple[CheckResult, CheckResult]:
    """Check the two response conditions of the rank-weighted L-statistic on
    scalar data: the first-order difference against sup-norm times the pair
    interval, and the second-order difference against the Lipschitz norm
    times the diameter of the interval intersection.

    A weight of infinite Lipschitz norm (the step weight, zeta=0) meets no
    second-order condition of this form and raises UnboundedLipschitzError.
    """
    from .statistics import l_statistic

    if not math.isfinite(F.lip_norm):
        raise UnboundedLipschitzError(f"weight {F.label} has Lipschitz norm {F.lip_norm}")
    pts = as_points(x)
    if pts.shape[1] != 1:
        raise ValueError("the L-statistic conditions are stated for scalar data")
    n = pts.shape[0]

    # the two first-order configurations, then the four second-order corners
    stack = np.repeat(pts[None], 6, axis=0)
    stack[:2, k, 0] = (y, yp)
    stack[2:, k, 0] = (y, yp, y, yp)
    stack[2:, l, 0] = (z, z, zp, zp)
    vals = l_statistic(F, stack).tolist()
    digest = _digest(pts, [k, l], [y, yp, z, zp])
    first = CheckResult("lstat_first_order", abs(vals[0] - vals[1]),
                        F.sup_norm * abs(y - yp) / n, tol, digest)
    second = CheckResult("lstat_second_order", abs(vals[2] - vals[3] - vals[4] + vals[5]),
                         F.lip_norm * _intersection_diam(z, zp, y, yp) / (n * n), tol, digest)
    return first, second
