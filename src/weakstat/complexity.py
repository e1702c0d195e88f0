"""Monte-Carlo estimation of Gaussian and Rademacher averages of finite
point sets, plus the standard conversion factor between the two."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import FunctionClass, SeededRng, evaluate_class

__all__ = [
    "GAUSSIAN",
    "RADEMACHER",
    "ComplexityEstimate",
    "gaussian_average",
    "rademacher_average",
    "class_complexity",
    "gaussian_from_rademacher",
]

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

_CHUNK = 8192


@dataclass(frozen=True)
class ComplexityEstimate:
    """Monte-Carlo estimate of a Gaussian or Rademacher average.

    ``std_error`` is the sample standard deviation of the per-replicate
    values divided by sqrt(replicates).
    """

    mean: float
    std_error: float
    replicates: int
    kind: str

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("a Monte-Carlo estimate needs at least 2 replicates")
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


def gaussian_from_rademacher(r_value: float, n: int) -> float:
    """Upper bound on the Gaussian average given the Rademacher average:
    an extra factor of 3 sqrt(ln(n+1))."""
    if r_value < 0:
        raise ValueError("the Rademacher average of a set containing 0 is nonnegative")
    return 3.0 * math.sqrt(math.log(n + 1)) * r_value
