"""Monte-Carlo estimation of Gaussian and Rademacher averages of finite
point sets, the closed-form Gaussian complexity of scalar linear classes,
and the standard conversion factor between the two averages."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import FunctionClass, SeededRng, evaluate_class

__all__ = [
    "GAUSSIAN",
    "RADEMACHER",
    "MONTE_CARLO",
    "CLOSED_FORM",
    "ComplexityEstimate",
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

    def inflated(self, z: float) -> "ComplexityEstimate":
        """Conservative copy with the mean shifted up by z standard errors."""
        return replace(self, mean=self.mean + z * self.std_error)

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
             draw: Callable[[np.random.Generator, int, int], np.ndarray]) -> ComplexityEstimate:
    vectors = _as_vectors(Y)
    if replicates < 2:
        raise ValueError("at least 2 replicates are required")
    gen = rng.generator()
    N = vectors.shape[1]
    sups = np.empty(replicates)
    done = 0
    while done < replicates:  # chunked to bound memory at large replicate counts
        take = min(_CHUNK, replicates - done)
        coeff = draw(gen, take, N)
        sups[done:done + take] = (coeff @ vectors.T).max(axis=1)
        done += take
    mean = float(sups.mean())
    se = float(sups.std(ddof=1) / math.sqrt(replicates))
    return ComplexityEstimate(mean=mean, std_error=se, replicates=replicates, kind=kind)


def gaussian_average(Y, replicates: int, rng: SeededRng) -> ComplexityEstimate:
    """Estimate E sup_{y in Y} <gamma, y> with standard normal gamma."""
    return _average(Y, replicates, rng, GAUSSIAN,
                    lambda gen, r, N: gen.standard_normal((r, N)))


def rademacher_average(Y, replicates: int, rng: SeededRng) -> ComplexityEstimate:
    """Estimate E sup_{y in Y} <eps, y> with eps uniform on {-1, +1}^N."""
    return _average(Y, replicates, rng, RADEMACHER,
                    lambda gen, r, N: gen.integers(0, 2, size=(r, N)).astype(float) * 2.0 - 1.0)


def class_complexity(fclass: FunctionClass, n: int, kind: str,
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


def linear_gaussian_complexity(weights, n: int, second_moment: float) -> ComplexityEstimate:
    """Closed-form upper bound on the expected Gaussian complexity
    E sup_j <gamma, w_j X> of the scalar linear class {x -> w_j x} on n iid
    raw data with E x^2 = ``second_moment``.

    Proof.  Fix the sample x in R^n and write s = <gamma, x>, which is
    N(0, |x|^2).  The supremum sup_j w_j s equals w_max s+ - w_min s-, with
    s+ = max(s, 0) and s- = max(-s, 0), since a linear function of w peaks
    at w_max when s > 0 and at w_min when s < 0.  E s+ = E s- =
    |x| / sqrt(2 pi), so the conditional complexity is exactly
    (w_max - w_min) |x| / sqrt(2 pi).  Over the sample, Jensen's inequality
    gives E |x| <= sqrt(E |x|^2) = sqrt(n E x^2).  Hence

        E G(H(X)) <= (w_max - w_min) sqrt(n E x^2) / sqrt(2 pi),

    with no estimation error.  For x uniform on [low, high],
    E x^2 = (low^2 + low high + high^2) / 3.  A single member (or equal
    weights) gives 0.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("the linear class needs a nonempty list of weights")
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if not second_moment >= 0:
        raise ValueError(f"the second moment must be nonnegative, got {second_moment}")
    spread = float(w.max() - w.min())
    mean = spread * math.sqrt(n * second_moment) / math.sqrt(2.0 * math.pi)
    return ComplexityEstimate(mean=mean, std_error=0.0, replicates=0, kind=GAUSSIAN,
                              method=CLOSED_FORM)


def gaussian_from_rademacher(r_value: float, n: int) -> float:
    """Upper bound on the Gaussian average given the Rademacher average:
    an extra factor of 3 sqrt(ln(n+1))."""
    if r_value < 0:
        raise ValueError("the Rademacher average of a set containing 0 is nonnegative")
    return 3.0 * math.sqrt(math.log(n + 1)) * r_value
