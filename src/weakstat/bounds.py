"""Assembly of bound certificates: the symmetrization inequality for weakly
interactive statistics, the high-probability uniform bound, and the
bounded-difference tail.  BoundCertificate is the one certificate formula,
which the clustering and ranking certificates instantiate."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import CLOSED_FORM, GAUSSIAN, ComplexityEstimate
from .seminorms import ANALYTIC_BOUND, SeminormReport

__all__ = [
    "POP_MINUS_EMP",
    "SQRT_2PI",
    "BoundCertificate",
    "CertifiedBoundError",
    "InapplicableCertificateError",
    "UnboundedLipschitzError",
    "symmetrization_bound",
    "uniform_bound",
    "mcdiarmid_tail",
]

POP_MINUS_EMP = "pop_minus_emp"

SQRT_2PI = math.sqrt(2.0 * math.pi)


class CertifiedBoundError(ValueError):
    """Raised when search lower bounds are offered where a certificate needs
    certified upper bounds."""


class InapplicableCertificateError(ValueError):
    """Raised when a certificate's preconditions on the loss are not met."""


class UnboundedLipschitzError(ValueError):
    """A seminorm is infinite, so no finite certificate exists; the step
    weight (zeta=0) is the case in point, as its Lipschitz norm is infinite."""


@dataclass(frozen=True)
class BoundCertificate:
    """Uniform bound on sup_h (population - empirical), derived from its
    inputs: ``symmetrization_term`` is the symmetrization bound at the
    complexity, ``tail_term`` m_plain * sqrt(n ln(1/delta)), and ``total``
    their sum.  Search lower bounds, finite-difference estimates, a
    complexity that is not a closed-form Gaussian bound, a sample size n
    below 1, delta outside (0, 1) and infinite seminorms are refused."""

    seminorms: SeminormReport
    complexity: ComplexityEstimate
    n: int
    delta: float

    def __post_init__(self):
        _require_upper_bound(self.seminorms)
        g = self.complexity
        if g.kind != GAUSSIAN:
            raise ValueError(
                f"certificates need the Gaussian complexity, got a {g.kind!r} average; "
                "complexity.gaussian_from_rademacher converts a Rademacher average soundly"
            )
        if g.method != CLOSED_FORM:
            raise ValueError(
                f"certificates need a closed-form complexity, got a {g.method!r} value; "
                "the stated delta does not cover the error of an estimate"
            )
        if not self.n >= 1:
            raise ValueError(f"the sample size n must be at least 1, got n={self.n}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        rep = self.seminorms
        if not all(map(math.isfinite, (rep.m_lip, rep.j_lip, rep.m_plain, rep.j_plain))):
            raise UnboundedLipschitzError(f"no finite certificate for seminorms {rep.to_dict()}")
        if self.symmetrization_term < 0 or self.tail_term < 0:
            raise ValueError("certificate terms must be nonnegative")

    @property
    def symmetrization_term(self) -> float:
        return symmetrization_bound(self.seminorms, self.complexity)

    @property
    def tail_term(self) -> float:
        return self.seminorms.m_plain * math.sqrt(self.n * math.log(1.0 / self.delta))

    @property
    def total(self) -> float:
        return self.symmetrization_term + self.tail_term

    def to_dict(self) -> dict:
        return {
            "kind": "bound_certificate",
            "symmetrization_term": self.symmetrization_term,
            "tail_term": self.tail_term,
            "delta": self.delta,
            "total": self.total,
            "n": self.n,
            "direction": POP_MINUS_EMP,
            "seminorms": self.seminorms.to_dict(),
            "complexity": self.complexity.to_dict(),
        }


def _require_upper_bound(report: SeminormReport) -> None:
    if report.method != ANALYTIC_BOUND:
        raise CertifiedBoundError(
            f"certificates require closed-form upper-bound seminorms, got {report.method!r}; "
            "search results are lower bounds and finite differences are estimates"
        )


def symmetrization_bound(report: SeminormReport, g: ComplexityEstimate) -> float:
    """In-expectation bound sqrt(2 pi) (2 m_lip + j_lip) * g.mean, with the
    complexity used as given (certificates pass only closed forms)."""
    _require_upper_bound(report)
    return SQRT_2PI * (2.0 * report.m_lip + report.j_lip) * g.mean


def uniform_bound(report: SeminormReport, g: ComplexityEstimate, n: int,
                  delta: float) -> BoundCertificate:
    """High-probability uniform bound: the symmetrization term at the
    closed-form complexity, plus the bounded-difference tail
    m_plain * sqrt(n ln(1/delta)), holding with probability at least
    1 - delta (see BoundCertificate)."""
    return BoundCertificate(report, g, n, delta)


def mcdiarmid_tail(coordinate_ranges, t: float) -> float:
    """Bounded-difference tail exp(-2 t^2 / sum_k c_k^2) for a statistic whose
    k-th coordinate response is bounded by c_k: McDiarmid's inequality,
    which gives BoundCertificate's tail term its form."""
    c = np.asarray(coordinate_ranges, dtype=float)
    if np.any(c < 0):
        raise ValueError("coordinate ranges must be nonnegative")
    if t < 0:
        raise ValueError("the tail is defined for t >= 0")
    denom = float(np.sum(c * c))
    if t == 0.0:
        return 1.0
    if denom == 0.0:
        return 0.0
    return math.exp(-2.0 * t * t / denom)
