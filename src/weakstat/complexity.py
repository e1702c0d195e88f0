"""Monte-Carlo estimation of Gaussian and Rademacher averages of finite
point sets, linear classes (LinearClass) with their closed-form Gaussian
complexity (linear_gaussian_complexity, which holds the proof), and the
standard conversion factor between the two averages.

The Monte-Carlo draws fill one coefficient block per call, reused across
chunks of at most _CHUNK replicates, which bounds memory.  Gaussian
coefficients are ``standard_normal(out=...)``.  Each chunk of Rademacher
signs takes every bit of its own ceil(size / 64) raw 64-bit Philox words of
the stream: sign 64 k + b of the chunk, in C order, comes from bit b of word
k, a set bit meaning +1, and the unused high bits of the last word are
dropped.  The bits are independent fair coins, so the estimator stays
unbiased.  Each chunk's product is one ``block @ vectors.T``; splitting it
into smaller row blocks changes the last bits of the BLAS result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Domain, FunctionClass, RawSpace, SeededRng, as_points, evaluate_class

__all__ = [
    "GAUSSIAN",
    "RADEMACHER",
    "MONTE_CARLO",
    "CLOSED_FORM",
    "ComplexityEstimate",
    "LinearClass",
    "gaussian_average",
    "rademacher_average",
    "class_complexity",
    "linear_gaussian_complexity",
    "gaussian_from_rademacher",
]

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

MONTE_CARLO = "monte_carlo"
CLOSED_FORM = "closed_form"

_CHUNK = 8192


@dataclass(frozen=True)
class ComplexityEstimate:
    """Gaussian or Rademacher average, estimated or bounded.

    A ``MONTE_CARLO`` estimate has at least 2 replicates, and ``std_error``
    is the sample standard deviation of the per-replicate values divided by
    sqrt(replicates).  A ``CLOSED_FORM`` value is a proven upper bound with
    ``replicates`` 0 and ``std_error`` 0 (see linear_gaussian_complexity).
    """

    mean: float
    std_error: float
    replicates: int
    kind: str
    method: str = MONTE_CARLO

    def __post_init__(self):
        if self.method == CLOSED_FORM:
            if self.replicates != 0 or self.std_error != 0:
                raise ValueError("a closed-form value has 0 replicates and std_error 0")
        elif self.method == MONTE_CARLO:
            if self.replicates < 2:
                raise ValueError("a Monte-Carlo estimate needs at least 2 replicates")
        else:
            raise ValueError(f"unknown complexity method {self.method!r}")
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")
        if self.kind not in (GAUSSIAN, RADEMACHER):
            raise ValueError(f"unknown complexity kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "replicates": self.replicates,
            "kind": self.kind,
            "method": self.method,
        }


def _as_vectors(Y) -> np.ndarray:
    arr = np.asarray(Y, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("the point set must be a nonempty collection of equal-length vectors")
    return arr


def _average(Y, replicates: int, rng: SeededRng, kind: str,
             fill: Callable[[np.random.Generator, np.ndarray], None]) -> ComplexityEstimate:
    vectors = _as_vectors(Y)
    if replicates < 2:
        raise ValueError("at least 2 replicates are required")
    block = np.empty((min(replicates, _CHUNK), vectors.shape[1]))
    gen = rng.generator()
    sups = np.empty(replicates)
    done = 0
    while done < replicates:  # chunked to bound memory at large replicate counts
        take = min(_CHUNK, replicates - done)
        coeff = block[:take]
        fill(gen, coeff)
        _member_max(coeff @ vectors.T, sups[done:done + take])
        done += take
    mean = float(sups.mean())
    se = float(sups.std(ddof=1) / math.sqrt(replicates))
    return ComplexityEstimate(mean=mean, std_error=se, replicates=replicates, kind=kind)


def _member_max(prod: np.ndarray, out: np.ndarray) -> None:
    """Row maxima of ``prod`` into ``out`` by one sweep per column, which on
    finite values equals ``prod.max(axis=1)`` up to the sign of a zero."""
    out[:] = prod[:, 0]
    for j in range(1, prod.shape[1]):
        np.maximum(out, prod[:, j], out=out)


def _fill_signs(gen: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` in C order with the signs 2 * bit - 1 of the raw words'
    bits, little-endian: sign 64 k + b is bit b of word k."""
    flat = out.reshape(-1)
    words = gen.bit_generator.random_raw(-(-flat.size // 64))
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=flat.size,
                         bitorder="little")
    np.multiply(bits, 2, out=bits)
    np.subtract(bits, 1, out=bits)  # wraps to 255, which is -1 as int8
    np.copyto(flat, bits.view(np.int8))


def gaussian_average(Y, replicates: int, rng: SeededRng) -> ComplexityEstimate:
    """Estimate E sup_{y in Y} <gamma, y> with standard normal gamma."""
    return _average(Y, replicates, rng, GAUSSIAN,
                    lambda gen, out: gen.standard_normal(out=out))


def rademacher_average(Y, replicates: int, rng: SeededRng) -> ComplexityEstimate:
    """Estimate E sup_{y in Y} <eps, y> with eps uniform on {-1, +1}^N."""
    return _average(Y, replicates, rng, RADEMACHER, _fill_signs)


def class_complexity(fclass: FunctionClass | LinearClass, n: int, kind: str,
                     outer_reps: int = 64, inner_reps: int = 2048,
                     rng: SeededRng = SeededRng(0)) -> ComplexityEstimate:
    """Expected complexity of the evaluated class: outer replicates draw a
    raw sample, build the point set H(X) in R^{dn}, and average the inner
    conditional estimate.

    The reported standard error is the spread of the outer means, which
    already folds in the inner Monte-Carlo noise.
    """
    if kind not in (GAUSSIAN, RADEMACHER):
        raise ValueError(f"unknown complexity kind {kind!r}")
    if outer_reps < 2:
        raise ValueError("at least 2 outer replicates are required")
    inner = gaussian_average if kind == GAUSSIAN else rademacher_average

    def one(r: int) -> float:
        stream = rng.split(r)
        raw = fclass.raw_space.sampler(stream.split(0).generator(), n)
        vectors = evaluate_class(fclass, raw).reshape(fclass.size, -1)
        return inner(vectors, inner_reps, stream.split(1)).mean

    means = np.array([one(r) for r in range(outer_reps)])
    return ComplexityEstimate(
        mean=float(means.mean()),
        std_error=float(means.std(ddof=1) / math.sqrt(outer_reps)),
        replicates=outer_reps,
        kind=kind,
    )


def _hull(points: np.ndarray) -> list:
    """Vertices of the convex hull of planar points in counterclockwise
    order (Andrew's monotone chain).  Collinear points give the two end
    points of their segment, and coincident points give one vertex."""
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def linear_gaussian_complexity(weights, n: int, second_moment) -> ComplexityEstimate:
    """Closed-form upper bound on the expected Gaussian complexity
    E sup_j <gamma, X w_j> of the linear class {x -> <w_j, x>} on n
    independent raw data x_i in R^k, k <= 2.

    ``weights`` is either a list of scalars with ``second_moment`` the
    scalar E x^2, or a (count, k) array with ``second_moment`` the k x k
    positive semidefinite matrix M = (1/n) sum_i E[x_i x_i^T].  The value
    is perimeter(conv{w_j}) / (2 sqrt(2 pi)), where each edge D of the hull
    is measured as |L^T D| with L L^T = n M; M may be singular.

    Proof.  Fix the sample, stacked as the n x k matrix X, and let
    A = X^T X.  The vector X^T gamma is N(0, A), so
    sup_j <gamma, X w_j> has the law of sup_j <g, A^(1/2) w_j> with g
    standard normal in R^k: the Gaussian supremum over the image points
    A^(1/2) w_j, or over their convex hull.  By Cauchy's formula (Santalo
    1976) the mean width of a planar convex set is its perimeter over pi,
    so E_theta of its support function h(theta) is perimeter / (2 pi), and
    E |g| = sqrt(pi / 2); hence the conditional complexity is exactly
    perimeter(conv{A^(1/2) w_j}) / (2 sqrt(2 pi)).  A linear map keeps the
    boundary order of the hull vertices (a singular one folds the polygon
    onto a segment, whose perimeter is twice its length, and each chain of
    the polygon runs along it once), so that perimeter is
    sum over the edges D of conv{w_j} of sqrt(D^T A D).  Each term is
    concave in A, so over the sample Jensen's inequality replaces A by
    E A = n M.  Hence

        E G(H(X)) <= sum_D sqrt(n D^T M D) / (2 sqrt(2 pi)),

    with no estimation error; with M = X^T X and n = 1 the same function
    gives the exact conditional complexity of one sample.  In one dimension
    the hull is [w_min, w_max] traversed there and back, so the value is
    (w_max - w_min) sqrt(n E x^2) / sqrt(2 pi), bit for bit, since
    (2 x) / (2 y) = x / y in floating point.  A single member (or equal
    weights) gives 0.
    """
    w = np.asarray(weights, dtype=float)
    M = np.asarray(second_moment, dtype=float)
    if w.ndim == 1 and M.ndim == 0:
        w, M = w[:, None], M.reshape(1, 1)
    if w.ndim != 2 or w.shape[0] == 0 or not 1 <= w.shape[1] <= 2:
        raise ValueError("the linear class needs a nonempty list of weights of dimension 1 or 2")
    k = w.shape[1]
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if M.shape != (k, k):
        raise ValueError(f"{k}-dimensional weights need a {k} x {k} second moment, "
                         f"got shape {M.shape}")
    if not (np.all(np.isfinite(M)) and np.array_equal(M, M.T)
            and np.linalg.eigvalsh(M)[0] >= -1e-12 * np.abs(M).max()):
        raise ValueError(f"the second moment must be finite, symmetric and positive "
                         f"semidefinite, got {M.tolist()}")
    # L = [[l00, 0], [l10, l11]] with L L^T = n M, so |L^T D|^2 = n D^T M D
    padded = np.zeros((2, 2))
    padded[:k, :k] = n * M
    l00 = math.sqrt(max(padded[0, 0], 0.0))
    l10 = padded[0, 1] / l00 if l00 > 0 else 0.0
    l11 = math.sqrt(max(padded[1, 1] - l10 * l10, 0.0))
    planar = np.zeros((w.shape[0], 2))
    planar[:, :k] = w
    vertices = np.array(_hull(planar))
    edges = np.roll(vertices, -1, axis=0) - vertices
    lengths = np.hypot(l00 * edges[:, 0] + l10 * edges[:, 1], l11 * edges[:, 1])
    mean = float(lengths.sum()) / (2.0 * math.sqrt(2.0 * math.pi))
    return ComplexityEstimate(mean=mean, std_error=0.0, replicates=0, kind=GAUSSIAN,
                              method=CLOSED_FORM)


@dataclass(frozen=True, eq=False)
class LinearClass:
    """The maps h_j(x) = <w_j, x> / scale, one per row of the (count, k)
    ``weights`` (scalar weights make one column), from raw data in R^k into
    a one-coordinate box.  ``images`` is one stacked product of per-row
    dots, which ``X @ W.T`` and einsum can round differently.  With one
    coordinate each dot is one product, and the broadcast product plus 0.0
    has its bits (the matmul sums from 0.0, so a -0.0 product comes out
    +0.0) at about half the cost; k >= 2 keeps the stacked matmul."""

    weights: np.ndarray
    raw_space: RawSpace
    domain: Domain
    scale: float = 1.0
    label: str = "linear"

    def __post_init__(self):
        if self.domain.d != 1:
            raise ValueError(f"linear scores need a one-coordinate box, got {self.domain.d}")
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w[:, None] if w.ndim == 1 else w)

    @property
    def size(self) -> int:
        return len(self.weights)

    def images(self, raw_sample) -> np.ndarray:
        X = as_points(raw_sample)
        W = self.weights
        if W.shape[1] == X.shape[-1] == 1:
            out = W[:, None, :] * X[None]
            out += 0.0
        else:
            out = (X[None, :, None, :] @ W[:, None, :, None])[..., 0]
        out /= self.scale
        return out

    def gaussian_upper(self, n: int) -> ComplexityEstimate:
        """linear_gaussian_complexity of the weights over scale on n data of
        the raw space, whose k x k second moment must cover every weight."""
        M = self.raw_space.second_moment
        if M is None:
            raise ValueError(f"the raw space {self.raw_space.label!r} has no second moment")
        if np.any(self.weights[:, len(M):]):
            raise ValueError(f"a weight uses a coordinate beyond the {len(M)} that the second "
                             f"moment of {self.raw_space.label!r} covers")
        return linear_gaussian_complexity(self.weights[:, :len(M)] / self.scale, n, M)


def gaussian_from_rademacher(r_value: float, n: int) -> float:
    """Upper bound on the Gaussian average given the Rademacher average:
    an extra factor of 3 sqrt(ln(n+1))."""
    if r_value < 0:
        raise ValueError("the Rademacher average of a set containing 0 is nonnegative")
    return 3.0 * math.sqrt(math.log(n + 1)) * r_value
