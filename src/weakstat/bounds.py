"""Assembly of bound certificates: the symmetrization inequality for weakly
interactive statistics, the high-probability uniform bound, the ranking
surrogate certificate, and the bounded-difference tail.

A BoundCertificate takes only its inputs and computes its terms from them;
it refuses search lower bounds and infinite seminorms (such as those of
the step weight zeta = 0)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import ComplexityEstimate
from .seminorms import ANALYTIC_BOUND, DERIVATIVE_BOUND, SeminormReport

__all__ = [
    "POP_MINUS_EMP",
    "SE_Z",
    "SQRT_2PI",
    "BoundCertificate",
    "CertifiedBoundError",
    "InapplicableCertificateError",
    "UnboundedLipschitzError",
    "symmetrization_bound",
    "uniform_bound",
    "auc_certificate",
    "mcdiarmid_tail",
]

POP_MINUS_EMP = "pop_minus_emp"

# Standard errors added to a Monte-Carlo complexity estimate before it enters
# a certificate; fixed, and recorded in every certificate as ``se_z``.
SE_Z = 3.0

SQRT_2PI = math.sqrt(2.0 * math.pi)

_UPPER_BOUND_METHODS = (ANALYTIC_BOUND, DERIVATIVE_BOUND)


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
    inputs: ``g_effective`` is the complexity estimate inflated by ``se_z``
    (= SE_Z) standard errors, ``symmetrization_term`` the symmetrization
    bound at it, ``tail_term`` m_plain * sqrt(n ln(1/delta)), and ``total``
    their sum.  Search lower bounds, delta outside (0, 1) and infinite
    seminorms are refused."""

    seminorms: SeminormReport
    complexity: ComplexityEstimate
    n: int
    delta: float

    se_z = SE_Z

    def __post_init__(self):
        _require_upper_bound(self.seminorms)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        rep = self.seminorms
        if not all(map(math.isfinite, (rep.m_lip, rep.j_lip, rep.m_plain, rep.j_plain))):
            raise UnboundedLipschitzError(f"no finite certificate for seminorms {rep.to_dict()}")
        if self.symmetrization_term < 0 or self.tail_term < 0:
            raise ValueError("certificate terms must be nonnegative")

    @property
    def g_effective(self) -> float:
        return self.complexity.inflated(SE_Z).mean

    @property
    def symmetrization_term(self) -> float:
        return symmetrization_bound(self.seminorms, self.complexity.inflated(SE_Z))

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
            "g_effective": self.g_effective,
            "se_z": self.se_z,
            "seminorms": self.seminorms.to_dict(),
            "complexity": self.complexity.to_dict(),
        }


def _require_upper_bound(report: SeminormReport) -> None:
    if report.method not in _UPPER_BOUND_METHODS:
        raise CertifiedBoundError(
            "certificates require upper-bound seminorms (analytic or derivative), "
            f"got {report.method!r}; search results are lower bounds"
        )


def symmetrization_bound(report: SeminormReport, g: ComplexityEstimate) -> float:
    """In-expectation bound sqrt(2 pi) (2 m_lip + j_lip) * g.mean.

    The complexity estimate is used as given; uniform_bound passes it
    inflated by SE_Z standard errors (see ComplexityEstimate.inflated).
    """
    _require_upper_bound(report)
    return SQRT_2PI * (2.0 * report.m_lip + report.j_lip) * g.mean


def uniform_bound(report: SeminormReport, g: ComplexityEstimate, n: int,
                  delta: float) -> BoundCertificate:
    """High-probability uniform bound: the symmetrization term at the
    complexity estimate inflated by SE_Z standard errors, plus the
    bounded-difference tail m_plain * sqrt(n ln(1/delta)), holding with
    probability at least 1 - delta (see BoundCertificate)."""
    return BoundCertificate(report, g, n, delta)


def auc_certificate(auc_emp: float, L: float, n: int, g: ComplexityEstimate,
                    delta: float, *, below_indicator: bool) -> float:
    """High-probability lower bound on the population AUC of a ranker chosen
    by maximizing the smoothed surrogate.

    Requires a surrogate loss dominated by the indicator of the positive
    reals; the penalty combines the surrogate's symmetrization term, at the
    complexity estimate inflated by SE_Z standard errors, with the
    two-sample tail.
    """
    if not below_indicator:
        raise InapplicableCertificateError(
            "the AUC certificate needs a surrogate loss below the indicator of (0, inf)"
        )
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    g_eff = g.inflated(SE_Z).mean
    return auc_emp - 12.0 * SQRT_2PI * L * g_eff / n - 2.0 * math.sqrt(math.log(1.0 / delta) / n)


def mcdiarmid_tail(coordinate_ranges, t: float) -> float:
    """Bounded-difference tail exp(-2 t^2 / sum_k c_k^2) for a statistic whose
    k-th coordinate response is bounded by c_k."""
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
