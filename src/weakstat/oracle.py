"""Brute-force and identity checks of the machinery behind the bounds, at
sample sizes where exhaustive subset enumeration is feasible.

The telescoping decomposition f(x) - f(x') = sum_k F_k(x, x') evaluates f
once on each of the 2^n swap configurations and sums each term's 2^k
subset differences with the correctly rounded math.fsum, so that
residuals stay at the 1e-9 scale the identity checks assert.  The rows
each swap configuration takes and the indices of every term's subset
differences depend only on n, and are built once per n and cached.  The
configurations are gathered in blocks of _SWAP_BLOCK (128) consecutive
masks, each evaluated by one ``Statistic.batch`` call, so only one block
of configurations exists at a time, never the whole 2^n table; all n
terms' differences then come from one gather.

Result records derive their numbers: a CheckResult's pass and slack follow
from lhs, rhs and tol, and an FkDecomposition's residuals from its terms.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
import numpy as np

from .bounds import UnboundedLipschitzError
from .core import FunctionClass, SeededRng, Statistic, as_points, evaluate_class
from .seminorms import BudgetError, _differences, _row
from .statistics import _BLOCK_VALUES, l_statistic

__all__ = [
    "MAX_EXHAUSTIVE_N",
    "NonFiniteStatisticError",
    "FkDecomposition",
    "CheckResult",
    "DeviationEstimate",
    "fk_decompose",
    "fk_term",
    "vk_vector",
    "jlip_lemma_check",
    "fk_difference_check",
    "sup_deviation_estimate",
    "lstat_condition_check",
    "lstat_condition_counts",
]

MAX_EXHAUSTIVE_N = 14

# Swap configurations per f.batch call in fk_decompose.  Evaluating all
# 4096 of them at n = 12 at once raised the peak RSS of the telescoping
# benchmark from 43 to 61 MB, and 512-mask blocks made the AUC slower.
_SWAP_BLOCK = 128

IDENTITY_RTOL = 1e-9
INEQUALITY_SLACK = 1e-7


class NonFiniteStatisticError(ValueError):
    """Raised when a checked statistic is not finite or its telescoping terms overflow."""


@dataclass(frozen=True)
class FkDecomposition:
    """Per-coordinate telescoping terms of lhs = f(x) - f(x'), with the
    reconstruction residual |lhs - sum terms| (correctly rounded sum)."""

    terms: tuple
    lhs: float

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def residual(self) -> float:
        return abs(self.lhs - math.fsum(self.terms))

    @property
    def relative_residual(self) -> float:
        return self.residual / max(1.0, abs(self.lhs))


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


@functools.cache
def _swap_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only swap rows and telescoping indices of n coordinates.

    Row s of the (2^n, n) uint8 swap rows gives the rows of (x; x'), x
    stacked on x', that swap configuration s takes: i + n at coordinate i
    if bit i of s is set (the row of x'), i otherwise.  The (4, 2^n - 1)
    int32 index table holds, for each term k in its segment
    [2^k - 1, 2^(k+1) - 1), the configurations A, A | bit, rest & ~bit and
    rest, where A runs over the 2^k masks of the first k coordinates,
    bit = 2^k and rest is the complement of A in all n coordinates.
    """
    # the little-endian bytes of each 32-bit mask, unpacked low bit first,
    # so that no (2^n, n) temporary wider than a byte is made
    counts = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    rows = np.unpackbits(counts, axis=1, count=n, bitorder="little")
    rows *= n
    rows += np.arange(n, dtype=np.uint8)
    sizes = 1 << np.arange(n, dtype=np.int32)
    A = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes.tolist()])
    bit = np.repeat(sizes, sizes)
    rest = ((1 << n) - 1) ^ A
    index = np.stack([A, A | bit, rest & ~bit, rest])
    rows.setflags(write=False)
    index.setflags(write=False)
    return rows, index


def fk_decompose(f: Statistic, x, xp) -> FkDecomposition:
    """Exact telescoping decomposition of f(x) - f(x') into n per-coordinate
    terms, each a 2^k-subset average of partial differences.

    f is evaluated once on each of the 2^n swap configurations, which take
    rows from x' on a bitmask and from x elsewhere, gathered from (x; x')
    one block of masks per ``f.batch`` call (exact copies of the rows, so
    the configurations equal np.where(mask, x', x) bit for bit, at a
    fraction of its broadcasting cost).  F_k sums, over the masks A of the first k
    coordinates, f(A) - f(A + k) + f(A^c - k) - f(A^c) with the complement
    A^c taken in all n coordinates.  The swap rows and these four indices
    per difference come from tables cached per n; one gather gives the
    differences of every term, and math.fsum sums each term's slice of
    them through a memoryview, the same floats as a list slice without
    copying 2^n - 1 of them into a list.  At d = 1 the families evaluate
    each block on bit-identical fast paths (the 1 x 1 ridge solve as a
    division, the product kernel as a product; see README, "Numerical
    notes"), so the terms do not depend on them.

    The residual |f(x) - f(x') - sum terms| is zero in exact arithmetic for
    every f; it is reported so callers can assert float-level smallness.
    """
    a, b = _check_pair(f, x, xp)
    n = a.shape[0]
    rows, index = _swap_tables(n)
    both = np.concatenate([a, b])
    vals = np.empty(1 << n)
    for start in range(0, 1 << n, _SWAP_BLOCK):
        block = rows[start:start + _SWAP_BLOCK]
        vals[start:start + len(block)] = f.batch(both.take(block, axis=0))
    if not np.isfinite(vals).all():
        raise NonFiniteStatisticError(f"{f.label} takes a value that is not finite")
    g = vals.take(index)  # the gather of vals[index], at under half its cost
    diffs = memoryview(g[0] - g[1] + g[2] - g[3])
    try:
        terms = tuple(math.fsum(diffs[(1 << k) - 1:(2 << k) - 1]) / float(2 ** (k + 1))
                      for k in range(n))
    except OverflowError as exc:  # finite values whose differences sum past the largest float
        raise NonFiniteStatisticError(f"the telescoping terms of {f.label} overflow") from exc
    return FkDecomposition(terms, float(vals[0] - vals[-1]))


def fk_term(f: Statistic, x, xp, k: int) -> float:
    """Single telescoping term F_k(x, x')."""
    terms = fk_decompose(f, x, xp).terms
    if not 0 <= k < len(terms):
        raise IndexError(f"coordinate index k={k} out of range for n={len(terms)}")
    return terms[k]


def vk_vector(x, xp, k: int, m_lip: float, j_lip: float) -> np.ndarray:
    """Comparison vector in R^{2n} whose Gaussian inner products dominate
    differences of the telescoping terms (scalar configurations only): two
    entries scaled by 2M at the active coordinate k, the rest by J/sqrt(n)."""
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
    return v


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
    closed form of the expected absolute Gaussian inner product: the
    comparison lemma behind the symmetrization bound."""
    lhs = fk_term(f, x, xp, k) - fk_term(f, y, yp, k)
    diff = vk_vector(x, xp, k, m_lip, j_lip) - vk_vector(y, yp, k, m_lip, j_lip)
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
    Criterion 4 holds it to the symmetrization bound.
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


def _lstat_sides(F, xs, k, l, y, yp, z, zp, tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(2, P) lhs and rhs of the first- and second-order conditions of P
    probes, and the (P,) tolerance of each probe: ``tol``, or the derived
    one if it is None (see lstat_condition_counts).

    Probe t evaluates six configurations of xs[t]: row k at y and y', then
    the four corners of row k at (y, y') and row l at (z, z').  The
    configurations of up to max(_BLOCK_VALUES // (6 n), 1) probes go to
    one l_statistic call, so one block of them exists at a time.
    """
    if not math.isfinite(F.lip_norm):
        raise UnboundedLipschitzError(f"weight {F.label} has Lipschitz norm {F.lip_norm}")
    xs, k, l = np.asarray(xs, dtype=float), np.asarray(k), np.asarray(l)
    y, yp, z, zp = (np.asarray(v, dtype=float) for v in (y, yp, z, zp))
    if xs.shape[2:] != (1,):
        raise ValueError("the L-statistic conditions are stated for scalar data")
    P, n = xs.shape[:2]
    k_rows = np.stack([y, yp, y, yp, y, yp], axis=1)
    l_rows = np.stack([z, z, zp, zp], axis=1)
    vals = np.empty((P, 6))
    size = max(_BLOCK_VALUES // (6 * n), 1)
    for s in range(0, P, size):
        b = slice(s, s + size)
        stack = np.repeat(xs[b, None], 6, axis=1)
        t = np.arange(len(stack))[:, None]
        stack[t, range(6), k[b, None], 0] = k_rows[b]
        stack[t, range(2, 6), l[b, None], 0] = l_rows[b]
        vals[b] = l_statistic(F, stack.reshape(-1, n, 1)).reshape(-1, 6)
        if not np.isfinite(vals[b]).all():
            raise NonFiniteStatisticError(f"lstat[{F.label}] takes a value that is not finite")
    # the length max(0, hi - lo) of the intervals' intersection, +0.0 if empty
    lo = np.maximum(np.minimum(z, zp), np.minimum(y, yp))
    hi = np.minimum(np.maximum(z, zp), np.maximum(y, yp))
    lhs = np.stack([np.abs(vals[:, 0] - vals[:, 1]),
                    np.abs(vals[:, 2] - vals[:, 3] - vals[:, 4] + vals[:, 5])])
    rhs = np.stack([F.sup_norm * np.abs(y - yp) / n,
                    F.lip_norm * np.where(hi > lo, hi - lo, 0.0) / (n * n)])
    if tol is None:
        # max |x| by two reductions, since np.abs(xs) would copy every probe
        largest = np.maximum(np.maximum(xs.max(axis=(1, 2)), -xs.min(axis=(1, 2))),
                             np.abs([y, yp, z, zp]).max(axis=0))
        # scalar factors first, so that the product cannot overflow
        tol = INEQUALITY_SLACK + 16 * n * np.finfo(float).eps * F.sup_norm * largest
    return lhs, rhs, np.broadcast_to(np.asarray(tol, dtype=float), (P,))


def lstat_condition_counts(F, xs, k, l, y, yp, z, zp,
                           tol: float | None = None) -> tuple[int, float]:
    """(failures, worst violation max(0, -slack)) of the two response
    conditions over P probes, as lstat_condition_check per probe would
    count and reduce them: xs is the (P, n, 1) stack of configurations, and
    k, l, y, y', z and z' are the (P,) indices and rows of the probes.

    A condition holds for a probe when lhs <= rhs + tol.  A given ``tol``
    is that absolute slack for every probe.  By default a probe's tol is
    INEQUALITY_SLACK + 16 n eps S X, with eps = 2^-52, S the weight's sup
    norm and X the largest |x| of the probe's configuration and rows, so
    that rounding alone cannot fail a condition that holds on any box:

    - l_statistic computes each value v as fl(fl(sum_i w_i x_(i)) / n); the
      sort is exact and |w_i| <= S.  A dot product of n terms, in any order
      and with or without fused multiply-adds, is off by at most
      gamma_n sum_i |w_i x_(i)| <= gamma_n n S X, where u = eps / 2 and
      gamma_n = n u / (1 - n u) (Higham 2002, section 3.1).  The division
      adds u |v|, so each value is off by at most gamma_(n+1) S X.
    - The first-order lhs |v0 - v1| is one subtraction of two values, off
      by at most (2n + 4) u S X to first order in u.  The second-order lhs
      |v2 - v3 - v4 + v5| makes three subtractions of partial sums of
      size at most 4 S X from four values, off by at most (4n + 16) u S X.
    - Each rhs takes three roundings, a relative error of at most 3u.  The
      first-order rhs S |y - y'| / n is at most 2 S X / n.  A second-order
      rhs above twice the largest lhs, 8 S X, passes whatever the rounding,
      so where rounding can matter its error is at most 24 u S X.

    The sum, (4n + 40) u S X = (2n + 20) eps S X, lies below 16 n eps S X
    for every n >= 2 (each probe needs k != l) with room for the terms of
    order u^2.  Both sides scale with the box, and so does this term: it is
    3.8e-14 on the unit box at n = 8 with S = 4/3, and 3.8e186 on
    [0, 1e200].
    """
    lhs, rhs, tol = _lstat_sides(F, xs, k, l, y, yp, z, zp, tol)
    fails = int(np.count_nonzero(~(lhs <= rhs + tol)))
    # fmax skips NaN, as a running Python max does
    return fails, float(np.fmax.reduce(-(rhs + tol - lhs), axis=None, initial=0.0))


def lstat_condition_check(F, x, k: int, l: int, y: float, yp: float,
                          z: float, zp: float,
                          tol: float | None = None) -> tuple[CheckResult, CheckResult]:
    """Check the two response conditions of the rank-weighted L-statistic on
    scalar data: the first-order difference against sup-norm times the pair
    interval, and the second-order difference against the Lipschitz norm
    times the diameter of the interval intersection.

    This is the one-probe case of lstat_condition_counts, with the lhs and
    rhs of each condition, the probe's tolerance (the derived one by
    default) and a digest of the probe in its CheckResult.
    Criterion 8 runs it; the tests hold lstat_condition_counts to it.
    A weight of infinite Lipschitz norm (the step weight, zeta=0) meets no
    second-order condition of this form and raises UnboundedLipschitzError.
    """
    pts = as_points(x)
    (lhs1, lhs2), (rhs1, rhs2), (tol,) = _lstat_sides(F, pts[None], [k], [l], [y], [yp],
                                                      [z], [zp], tol)
    digest = _digest(pts, [k, l], [y, yp, z, zp])
    return (CheckResult("lstat_first_order", float(lhs1[0]), float(rhs1[0]), float(tol), digest),
            CheckResult("lstat_second_order", float(lhs2[0]), float(rhs2[0]), float(tol), digest))
