"""Concrete statistic families: means, V/U-statistics, the smoothed
two-sample ranking statistic, rank-weighted L-statistics, K-means losses
and the ridge-regression error functional.

Every operation is a pure function of its arguments.  Functions accept an
(n, d) array or a plain sequence (treated as d=1).  The statistic families
(the mean, the V/U-statistics, the smoothed AUC, the L-statistic and the
ridge error) also accept a (B, n, d) stack and return its (B,) values,
each bit-identical to the value of that configuration alone, which is
the evaluator contract of the Statistic builders at the end.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .core import Domain, Statistic, _readonly, as_points, box, unit_interval

__all__ = [
    "Kernel",
    "WeightFunction",
    "LossFunction",
    "RidgeProblem",
    "sample_mean",
    "v_statistic",
    "u_statistic",
    "smoothed_auc",
    "l_statistic",
    "f_zeta",
    "nearest_center_losses",
    "ridge_solution",
    "ridge_error",
    "product_kernel",
    "f_zeta_weight",
    "constant_weight",
    "ramp_loss",
    "indicator_loss",
    "mean_statistic",
    "v_stat_statistic",
    "u_stat_statistic",
    "auc_statistic",
    "lstat_statistic",
    "ridge_error_statistic",
]


@dataclass(frozen=True)
class Kernel:
    """An m-ary kernel on U^m with certified Lipschitz and range constants.

    ``evaluator`` takes m arguments, each shaped (..., d), and returns a
    (...)-shaped array (numpy broadcasting), so tuple enumeration can be
    batched.  V-statistics pass the n^m grid as read-only broadcast views,
    each of shape (n, ..., n, d) for one configuration and (B, n, ..., n, d)
    for a stack of B, with argument j running along grid axis j.
    U-statistics pass gathered (T, d) arrays, or (B, T, d) for a stack,
    where T counts the strictly increasing index tuples.  Each output entry
    must depend only on its own arguments, so that a stack's values equal
    the lone configurations' bit for bit.
    ``lipschitz_L`` bounds the change under moving one argument (per unit
    Euclidean distance); ``range_B`` bounds the change itself.
    """

    m: int
    evaluator: Callable
    lipschitz_L: float
    range_B: float
    label: str = ""

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("kernel arity must be >= 1")
        if self.lipschitz_L < 0 or self.range_B < 0:
            raise ValueError("kernel constants must be nonnegative")


@dataclass(frozen=True)
class WeightFunction:
    """Rank weight F: [0,1] -> R with certified sup and Lipschitz norms."""

    evaluator: Callable
    sup_norm: float
    lip_norm: float
    label: str = ""


@dataclass(frozen=True)
class LossFunction:
    """Pairwise loss l: R -> [0,1]; ``below_indicator`` certifies l <= 1_(0,inf)."""

    evaluator: Callable
    lipschitz_L: float
    below_indicator: bool = False
    label: str = ""


@dataclass(frozen=True)
class RidgeProblem:
    """Regularized least squares on rows (z, y) in the box [-1, 1]^(d+1)
    (the domain of ridge_error_statistic)."""

    lam: float
    d: int

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"regularization weight must lie in (0, 1), got {self.lam}")
        if self.d < 1:
            raise ValueError("feature dimension must be >= 1")


def _scalar_column(x, op: str) -> np.ndarray:
    pts = as_points(x)
    if pts.shape[-1] != 1:
        raise ValueError(f"{op} requires d=1 configurations, got d={pts.shape[-1]}")
    return pts[..., 0]


def _mean(v: np.ndarray):
    """Mean over the last axis, with np.mean's pairwise sum and division."""
    return np.add.reduce(v, axis=-1) / v.shape[-1]


def _result(v):
    """A float for one configuration, the (B,) array for a stack."""
    return float(v) if np.ndim(v) == 0 else v


def sample_mean(x) -> float:
    """Arithmetic mean of a scalar configuration."""
    return _result(_mean(_scalar_column(x, "sample_mean")))


def _check_arity(m: int, n: int) -> None:
    if m > n:
        raise ValueError(f"kernel arity m={m} exceeds sample size n={n}")


# Values that one block of a (B, n, d) stack may hold.  The tuple averages
# of the V- and U-statistics hold n^m or C(n, m) kernel values per
# configuration, and the AUC (n/2)^2 losses, so these families evaluate a
# stack in blocks of at most this many values (and at least one
# configuration); every other family's temporaries are the size of its
# configurations and it takes a stack whole.  The budget is 128
# configurations of the pairwise V-statistic at n = 12, so that a swap
# block of fk_decompose (128 configurations, n <= 12) stays one call for
# each pairwise family.
_BLOCK_VALUES = 128 * 12**2


def _in_blocks(evaluate, a: np.ndarray, values: int, stacked: bool):
    """evaluate(a) for one configuration; for a stack along axis 0 whose
    configurations hold ``values`` temporaries each, evaluate over blocks
    of max(_BLOCK_VALUES // values, 1) configurations, concatenated."""
    size = max(_BLOCK_VALUES // values, 1)
    if not stacked or len(a) <= size:
        return evaluate(a)
    return np.concatenate([evaluate(a[s:s + size]) for s in range(0, len(a), size)])


@functools.cache
def _index_tuples(n: int, m: int) -> np.ndarray:
    """Read-only (m, T) array whose columns are the strictly increasing
    index tuples of a U-statistic."""
    idx = np.array(list(combinations(range(n), m))).T.copy()
    idx.setflags(write=False)
    return idx


def _kernel_mean(kernel: Kernel, args, shape: tuple, lead: tuple):
    """Kernel values at the arguments, which must have the given shape,
    averaged over all axes after the ``lead`` ones.  The values are summed
    along the last axis of a C-contiguous array, so each configuration of
    a stack is summed pairwise, as it is alone; a stack gathered by fancy
    indexing in the middle axis is not contiguous, and numpy would then add
    its terms in sequence instead."""
    vals = np.ascontiguousarray(kernel.evaluator(*args))
    if vals.shape != shape:
        raise ValueError(
            f"kernel {kernel.label or kernel.evaluator!r} returned shape {vals.shape} for "
            f"arguments of shape {args[0].shape}; it must reduce over the last axis only"
        )
    return _result(_mean(vals.reshape(lead + (-1,))))


def _kernel_average(kernel: Kernel, pts: np.ndarray, idx: np.ndarray):
    """Kernel average over the index tuples in the columns of ``idx``,
    gathered from the (..., n, d) points."""
    lead = pts.shape[:-2]
    return _kernel_mean(kernel, [pts.take(i, axis=-2) for i in idx], lead + idx.shape[1:], lead)


def _grid_average(kernel: Kernel, pts: np.ndarray, m: int):
    """Kernel average over the n^m grid of ordered index tuples, passed as
    read-only broadcast views: argument j is the points laid along grid
    axis j.  The C-order grid lists the tuples i-major, as a meshgrid of
    the indices does, so the sum is the gathered tuples' bit for bit."""
    lead, (n, d) = pts.shape[:-2], pts.shape[-2:]
    grid = lead + (n,) * m
    args = [np.broadcast_to(pts.reshape(lead + (1,) * j + (n,) + (1,) * (m - 1 - j) + (d,)),
                            grid + (d,))
            for j in range(m)]
    return _kernel_mean(kernel, args, grid, lead)


def _kernel_statistic(kernel: Kernel, x, ordered: bool):
    """Kernel average over the ordered index tuples (V) or the strictly
    increasing ones (U)."""
    pts = as_points(x)
    n, m = pts.shape[-2], kernel.m
    _check_arity(m, n)
    stacked = pts.ndim == 3
    if ordered:
        return _in_blocks(lambda p: _grid_average(kernel, p, m), pts, n**m, stacked)
    idx = _index_tuples(n, m)
    return _in_blocks(lambda p: _kernel_average(kernel, p, idx), pts, idx.shape[1], stacked)


def v_statistic(kernel: Kernel, x) -> float:
    """V-statistic: n^-m average of the kernel over all ordered index tuples."""
    return _kernel_statistic(kernel, x, ordered=True)


def u_statistic(kernel: Kernel, x) -> float:
    """U-statistic: average of the kernel over strictly increasing index tuples."""
    return _kernel_statistic(kernel, x, ordered=False)


def smoothed_auc(loss: LossFunction, x) -> float:
    """Two-block pairwise-loss average (4/n^2) sum_{i<=n/2, j>n/2} l(x_i - x_j).

    With the indicator loss this is the balanced Wilcoxon two-sample
    statistic; with a Lipschitz surrogate it is the smoothed variant.
    """
    s = _scalar_column(x, "smoothed_auc")
    n = s.shape[-1]
    if n % 2 != 0:
        raise ValueError(f"smoothed_auc requires an even sample size, got n={n}")
    half = n // 2

    def pair_mean(v):
        vals = np.ascontiguousarray(loss.evaluator(v[..., :half, None] - v[..., None, half:]),
                                    dtype=float)
        return _mean(vals.reshape(*vals.shape[:-2], half * half))

    return _result(_in_blocks(pair_mean, s, half * half, s.ndim == 2))


def l_statistic(F: WeightFunction, x) -> float:
    """Rank-weighted average of order statistics: (1/n) sum F(i/n) x_(i).

    Values are sorted ascending with a stable sort, so tied values keep
    their input order (tied values contribute identically either way).
    """
    s = _scalar_column(x, "l_statistic")
    return _result(_order_average(s, _order_weights(F, s.shape[-1])))


@functools.lru_cache(maxsize=64)
def _order_weights(F: WeightFunction, n: int) -> np.ndarray:
    """The read-only (n,) order-statistic weights F(i/n), i = 1..n."""
    return _readonly(np.array(F.evaluator(np.arange(1, n + 1) / n), dtype=float))


def _order_average(s: np.ndarray, w: np.ndarray):
    """(1/n) sum_i w_i s_(i) over the last axis of s, with s sorted ascending
    (stable): the one float order of every L-statistic value."""
    order = np.sort(s, axis=-1, kind="stable")
    return (order[..., None, :] @ w)[..., 0] / s.shape[-1]


def f_zeta(t, zeta: float):
    """Ramp-smoothed 75%-quantile trimming weight.

    Equals 4/3 on [0, 3/4 - zeta], ramps linearly down to 0 on
    (3/4 - zeta, 3/4 + zeta], and is 0 above.  At zeta=0 the ramp is empty
    and the weight drops from 4/3 to 0 immediately after t=3/4.
    """
    if not (0.0 <= zeta <= 0.25):
        raise ValueError(f"zeta must lie in [0, 1/4], got {zeta}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("weight argument must lie in [0, 1]")
    if zeta == 0.0:
        out = np.where(t_arr <= 0.75, 4.0 / 3.0, 0.0)
    else:
        ramp = -(2.0 / (3.0 * zeta)) * (t_arr - 0.75 - zeta)
        out = np.where(t_arr <= 0.75 - zeta, 4.0 / 3.0, np.where(t_arr <= 0.75 + zeta, ramp, 0.0))
    return out if isinstance(t, np.ndarray) else float(out)


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., n, K) squared Euclidean distances from n points to K centers of
    shape (..., K, m), each set in a stack with its lone values.  They are
    numpy's sum over a contiguous axis, which adds fewer than 8 terms left
    to right; below 8 coordinates that order runs over one (..., K, n) plane
    per coordinate, about 5x faster on 2-D points (test_statistics pins it)."""
    m = points.shape[1]
    if m >= 8:
        return np.sum((points[:, None, :] - centers[..., None, :, :]) ** 2, axis=-1)
    planes = np.ascontiguousarray(points.T).reshape((m,) + (1,) * (centers.ndim - 1) + (-1,))
    return np.sum((planes - np.moveaxis(centers, -1, 0)[..., None]) ** 2, axis=0).swapaxes(-1, -2)


def nearest_center_losses(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., n) squared Euclidean distances from each of n points to its
    nearest center, for centers of shape (..., K, m)."""
    return np.min(_squared_distances(points, centers), axis=-1)


def _ridge_split(x, problem: RidgeProblem):
    pts = as_points(x)
    if pts.shape[-1] != problem.d + 1:
        raise ValueError(
            f"ridge rows must be (z, y) of length {problem.d + 1}, got d={pts.shape[-1]}"
        )
    return pts[..., : problem.d], pts[..., problem.d]


def _ridge_weights(Z: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """(..., d, 1) ridge weights of (..., n, d) features and (..., n) targets.

    At d = 1 the system is 1 x 1 and the weight is b / A: LAPACK's solve
    of a 1 x 1 system (an LU with one pivot, then one division) is that
    division, signed zeros included, so the fast path is bit-identical and
    skips one LAPACK call per stack.  d >= 2 keeps np.linalg.solve.
    """
    n, d = Z.shape[-2:]
    Zt = np.swapaxes(Z, -1, -2)
    A = Zt @ Z / n + lam * np.eye(d)
    b = Zt @ y[..., None] / n
    return b / A if d == 1 else np.linalg.solve(A, b)


def ridge_solution(x, problem: RidgeProblem) -> np.ndarray:
    """The ridge fit of the paper's third application, (d,) per configuration.

    Solves ((1/n) sum z_i z_i^T + lam I) w = (1/n) sum y_i z_i; the matrix
    is positive definite for lam > 0, so the solve cannot fail.
    """
    return _ridge_weights(*_ridge_split(x, problem), problem.lam)[..., 0]


def ridge_error(x, problem: RidgeProblem) -> float:
    """Mean squared residual of the closed-form ridge fit on its own sample."""
    Z, y = _ridge_split(x, problem)
    w = _ridge_weights(Z, y, problem.lam)
    # at d = 1 each fitted value is one product, as in the (n x 1) @ (1 x 1)
    # matmul; that can differ from it only in the sign of a zero, which r * r drops
    fit = Z[..., 0] * w[..., 0] if problem.d == 1 else (Z @ w)[..., 0]
    r = fit - y
    return _result(_mean(r * r))


# ---------------------------------------------------------------------------
# Ready-made kernels, weights and losses

def _inner_product(a, b) -> np.ndarray:
    """<a, b> over the last axis.  At d = 1 it is the product plus 0.0: the
    sum of one term is 0.0 + term in numpy, so adding 0.0 in place gives
    its bits (a -0.0 product becomes +0.0) without a reduction over a
    length-1 axis.  d >= 2 keeps np.sum."""
    prod = np.asarray(a) * np.asarray(b)
    if prod.shape[-1] != 1:
        return np.sum(prod, axis=-1)
    prod += 0.0
    return prod[..., 0]


def product_kernel() -> Kernel:
    """kappa(a, b) = <a, b>; L = B = 1 hold on [0, 1] only (d = 1).  On
    [0, 1]^d moving one argument changes <a, b> by up to sqrt(d) per unit
    distance, so L = sqrt(2) on [0, 1]^2, where the spot check of
    tests/test_statistics.py observes up to sqrt(d) on [0, 1]^d; ROADMAP
    item 2 owns the fix."""
    return Kernel(
        m=2,
        evaluator=_inner_product,
        lipschitz_L=1.0,
        range_B=1.0,
        label="product",
    )


def f_zeta_weight(zeta: float) -> WeightFunction:
    """WeightFunction wrapper for f_zeta; the step weight (zeta=0) has an
    infinite Lipschitz norm."""
    if not (0.0 <= zeta <= 0.25):
        raise ValueError(f"zeta must lie in [0, 1/4], got {zeta}")
    lip = math.inf if zeta == 0.0 else 2.0 / (3.0 * zeta)
    return WeightFunction(
        evaluator=lambda t: f_zeta(t, zeta),
        sup_norm=4.0 / 3.0,
        lip_norm=lip,
        label=f"f_zeta({zeta})",
    )


def constant_weight(c: float = 1.0) -> WeightFunction:
    return WeightFunction(
        evaluator=lambda t: np.full_like(np.asarray(t, dtype=float), c),
        sup_norm=abs(c),
        lip_norm=0.0,
        label=f"const({c})",
    )


def ramp_loss(width: float = 1.0) -> LossFunction:
    """clamp(t/width, 0, 1); vanishes for t <= 0, so it sits below the
    indicator of the positive reals."""
    if width <= 0:
        raise ValueError("ramp width must be positive")
    return LossFunction(
        evaluator=lambda t: np.clip(np.asarray(t, dtype=float) / width, 0.0, 1.0),
        lipschitz_L=1.0 / width,
        below_indicator=True,
        label=f"ramp({width})",
    )


def indicator_loss() -> LossFunction:
    """Exact indicator of the positive reals (not Lipschitz), criterion 10's held-out AUC."""
    return LossFunction(
        evaluator=lambda t: (np.asarray(t, dtype=float) > 0).astype(float),
        lipschitz_L=math.inf,
        below_indicator=True,
        label="indicator",
    )


# ---------------------------------------------------------------------------
# Statistic builders used by the seminorm search, oracle and applications

def mean_statistic(n: int, domain: Domain | None = None) -> Statistic:
    dom = domain if domain is not None else unit_interval()
    if dom.d != 1:
        raise ValueError("mean_statistic requires a d=1 domain")
    return Statistic(sample_mean, dom, n, label="mean")


def _kernel_stat_statistic(kernel: Kernel, n: int, domain: Domain, value, name: str) -> Statistic:
    _check_arity(kernel.m, n)
    return Statistic(lambda pts: value(kernel, pts), domain, n,
                     label=f"{name}[{kernel.label},m={kernel.m}]")


def v_stat_statistic(kernel: Kernel, n: int, domain: Domain) -> Statistic:
    return _kernel_stat_statistic(kernel, n, domain, v_statistic, "vstat")


def u_stat_statistic(kernel: Kernel, n: int, domain: Domain) -> Statistic:
    return _kernel_stat_statistic(kernel, n, domain, u_statistic, "ustat")


def auc_statistic(loss: LossFunction, n: int, domain: Domain | None = None) -> Statistic:
    if n % 2 != 0:
        raise ValueError(f"smoothed ranking statistic requires even n, got {n}")
    dom = domain if domain is not None else unit_interval()
    return Statistic(
        lambda pts: smoothed_auc(loss, pts), dom, n, label=f"auc[{loss.label}]"
    )


def lstat_statistic(F: WeightFunction, n: int, domain: Domain | None = None) -> Statistic:
    dom = domain if domain is not None else unit_interval()
    if dom.d != 1:
        raise ValueError("lstat_statistic requires a d=1 domain")
    return Statistic(lambda pts: l_statistic(F, pts), dom, n, label=f"lstat[{F.label}]")


def ridge_error_statistic(problem: RidgeProblem, n: int) -> Statistic:
    dom = box([-1.0] * (problem.d + 1), [1.0] * (problem.d + 1))
    return Statistic(
        lambda pts: ridge_error(pts, problem), dom, n,
        label=f"ridge_error[lam={problem.lam},d={problem.d}]",
    )
