"""End-to-end applications of the bound machinery: rank-weighted trimmed
K-means clustering with a deviation certificate, and certificate-backed
selection of a ranking function, plus the synthetic benchmark generators
both experiments run on."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .bounds import BoundCertificate, UnboundedLipschitzError, auc_certificate, uniform_bound
from .complexity import ComplexityEstimate
from .core import FunctionClass, RawSpace, SeededRng, box, evaluate_class
from .seminorms import analytic_seminorms_lstat
from .statistics import (LossFunction, WeightFunction, _squared_distances, f_zeta_weight,
                         l_statistic, smoothed_auc)

__all__ = [
    "ClusteringResult",
    "RankingSelection",
    "DescentViolationError",
    "UnboundedLipschitzError",
    "weighted_rank_kmeans",
    "trimmed_kmeans",
    "clustering_certificate",
    "select_ranker",
    "center_matching_error",
    "gaussian_mixture_with_noise",
    "uniform_ball",
    "two_block_ranking_space",
    "linear_ranker_class",
]

_CONVERGENCE_TOL = 1e-10
_DESCENT_TOL = 1e-12


class DescentViolationError(RuntimeError):
    """The recorded clustering objective increased between iterations."""


@dataclass(frozen=True)
class ClusteringResult:
    """Best-restart clustering output.

    ``history`` records the rank-weighted average of sorted per-point losses
    per iteration of the winning restart; ``objective`` is its last entry.
    """

    centers: np.ndarray
    restarts_used: int
    history: tuple
    reseeds: int

    @property
    def objective(self) -> float:
        return self.history[-1]

    @property
    def iterations(self) -> int:
        return len(self.history)


@dataclass(frozen=True)
class RankingSelection:
    """Outcome of surrogate maximization over a candidate class."""

    chosen_index: int
    empirical_auc: float
    certificate_lower_bound: float
    delta: float


def _rank_weights(losses: np.ndarray, weight: WeightFunction) -> np.ndarray:
    """Per-point weights F(rank/n) where rank is the ascending position of
    the point's loss (stable ties)."""
    n = losses.shape[0]
    order = np.argsort(losses, kind="stable")
    w = np.empty(n)
    w[order] = np.asarray(weight.evaluator(np.arange(1, n + 1) / n), dtype=float)
    return w


def _plus_plus_init(data: np.ndarray, K: int, gen: np.random.Generator) -> np.ndarray:
    """Distance-squared-proportional seeding."""
    n = data.shape[0]
    centers = [data[int(gen.integers(n))]]
    for _ in range(K - 1):
        d2 = np.min(_squared_distances(data, np.stack(centers)), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(data[int(gen.integers(n))])
            continue
        centers.append(data[int(gen.choice(n, p=d2 / total))])
    return np.stack(centers)


def _lloyd_run(data: np.ndarray, K: int, weight: WeightFunction, max_iters: int,
               gen: np.random.Generator) -> tuple[np.ndarray, list, int]:
    n = data.shape[0]
    centers = _plus_plus_init(data, K, gen)
    history = []
    reseeds = 0
    prev = math.inf
    for _ in range(max_iters):
        d2 = _squared_distances(data, centers)
        assign = np.argmin(d2, axis=1)
        losses = d2[np.arange(n), assign]
        w = _rank_weights(losses, weight)
        reseeded = False
        for k in range(K):
            mask = (assign == k) & (w > 0)
            wk = w[mask]
            if wk.sum() > 0:
                centers[k] = (data[mask] * wk[:, None]).sum(axis=0) / wk.sum()
            else:
                # Cluster carries no weight: restart it at the point whose
                # weighted loss is largest, so mass moves where it hurts most.
                centers[k] = data[int(np.argmax(w * losses))]
                reseeds += 1
                reseeded = True
        d2 = _squared_distances(data, centers)
        obj = l_statistic(weight, np.min(d2, axis=1))
        history.append(obj)
        if not reseeded and obj > prev + _DESCENT_TOL:
            raise DescentViolationError(
                f"objective increased from {prev!r} to {obj!r} without a reseed"
            )
        if abs(prev - obj) < _CONVERGENCE_TOL:
            break
        prev = obj
    return centers, history, reseeds


def weighted_rank_kmeans(data: np.ndarray, K: int, weight: WeightFunction,
                         max_iters: int = 100, restarts: int = 10,
                         rng: SeededRng = SeededRng(0)) -> ClusteringResult:
    """Weighted Lloyd iteration where each point's weight is a function of
    the rank of its current loss.

    Weights are frozen during the center update and ranks recomputed after,
    which keeps the recorded objective nonincreasing (the old ranking is a
    feasible ranking for the new losses); an increase without a reseed
    aborts loudly.  Restarts run on indexed streams and the best objective
    wins, ties to the lowest restart index.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be an (n, m) array")
    n = data.shape[0]
    if K < 1 or K > n:
        raise ValueError(f"cluster count K={K} must lie in [1, n={n}]")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    def run(r: int):
        return _lloyd_run(data, K, weight, max_iters, rng.split(r).generator())

    outcomes = [run(r) for r in range(max(1, restarts))]
    centers, history, reseeds = min(outcomes, key=lambda outcome: outcome[1][-1])
    return ClusteringResult(centers, max(1, restarts), tuple(history), reseeds)


def trimmed_kmeans(data: np.ndarray, K: int, zeta: float, max_iters: int = 100,
                   restarts: int = 10, rng: SeededRng = SeededRng(0)) -> ClusteringResult:
    """Smoothed trimmed K-means: cluster under the ramp-trimming rank weight,
    so roughly the top quartile of current losses is down-weighted to zero
    at each step."""
    if not (0.0 <= zeta <= 0.25):
        raise ValueError(f"zeta must lie in [0, 1/4], got {zeta}")
    return weighted_rank_kmeans(data, K, f_zeta_weight(zeta), max_iters, restarts, rng)


def clustering_certificate(result: ClusteringResult, ball_radius: float, zeta: float,
                           n: int, g: ComplexityEstimate, delta: float) -> BoundCertificate:
    """Uniform deviation certificate for the trimmed clustering objective.

    Losses are squared distances inside a ball of the given radius, so the
    loss range has diameter (2 r)^2; the trimming weight enters through its
    sup norm 4/3 and Lipschitz norm 2/(3 zeta).  The step weight (zeta=0)
    has an infinite Lipschitz norm, so the certificate raises
    UnboundedLipschitzError.
    """
    loss_diameter = (2.0 * ball_radius) ** 2
    report = analytic_seminorms_lstat(f_zeta_weight(zeta), loss_diameter, n)
    return uniform_bound(report, g, n, delta)


def select_ranker(candidates: FunctionClass, data, loss: LossFunction,
                  g: ComplexityEstimate, delta: float) -> RankingSelection:
    """Pick the candidate maximizing the smoothed two-sample surrogate on a
    two-block sample (first half positives, second half negatives) and
    attach the population-AUC lower bound.  Ties go to the lowest index."""
    configs = evaluate_class(candidates, data)
    n = configs.shape[1]
    if n % 2 != 0:
        raise ValueError(f"the two-block sample must have even size, got n={n}")
    values = smoothed_auc(loss, configs)
    chosen = int(np.argmax(values))
    emp = float(values[chosen])
    lower = auc_certificate(emp, loss.lipschitz_L, n, g, delta,
                            below_indicator=loss.below_indicator)
    return RankingSelection(
        chosen_index=chosen, empirical_auc=emp,
        certificate_lower_bound=lower, delta=delta,
    )


def center_matching_error(estimated: np.ndarray, reference: np.ndarray) -> float:
    """Mean Euclidean distance between center sets under the best matching."""
    est = np.atleast_2d(np.asarray(estimated, dtype=float))
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    if est.shape != ref.shape:
        raise ValueError(f"center sets must match in shape, got {est.shape} vs {ref.shape}")
    K = est.shape[0]
    dists = np.linalg.norm(est[:, None, :] - ref[None, :, :], axis=2)
    best = math.inf
    for perm in permutations(range(K)):
        best = min(best, float(dists[list(perm), range(K)].mean()))
    return best


# ---------------------------------------------------------------------------
# Synthetic benchmark generators

def uniform_ball(gen: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform in the centered ball of the given radius."""
    raw = gen.standard_normal((n, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    r = radius * gen.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
    return raw * r


def gaussian_mixture_with_noise(n: int, centers: np.ndarray, cluster_std: float,
                                noise_fraction: float, ball_radius: float,
                                rng) -> np.ndarray:
    """Isotropic Gaussian clusters plus uniform ball noise, all clipped into
    the ball; cluster labels cycle so counts stay balanced.

    ``rng`` may be a SeededRng or a numpy Generator.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    K, dim = centers.shape
    if not (0.0 <= noise_fraction < 1.0):
        raise ValueError("noise fraction must lie in [0, 1)")
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    n_noise = int(round(noise_fraction * n))
    n_signal = n - n_noise
    labels = np.arange(n_signal) % K
    pts = centers[labels] + cluster_std * gen.standard_normal((n_signal, dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.where(norms > ball_radius, pts * (ball_radius / norms), pts)
    noise = uniform_ball(gen, n_noise, dim, ball_radius)
    data = np.vstack([pts, noise])
    return data[gen.permutation(n)]


def two_block_ranking_space(dim: int, separation: float, box_scale: float = 3.0,
                            label: str = "two-block") -> RawSpace:
    """Raw data for ranking: the first half of each sample is drawn from a
    positive population at +separation/2 along the first axis, the second
    half from a negative population at -separation/2, clipped to the scale box."""

    def sampler(gen: np.random.Generator, n: int):
        if n % 2 != 0:
            raise ValueError(f"two-block samples need even n, got {n}")
        half = n // 2
        shift = np.zeros(dim)
        shift[0] = separation / 2.0
        pos = gen.standard_normal((half, dim)) + shift
        neg = gen.standard_normal((half, dim)) - shift
        return np.clip(np.vstack([pos, neg]), -box_scale, box_scale)

    return RawSpace(sampler, label=label)


def linear_ranker_class(dim: int, count: int, raw_space: RawSpace,
                        box_scale: float = 3.0) -> FunctionClass:
    """Unit-direction linear scores normalized into [-1, 1].

    Directions are spread evenly on the circle of the first two coordinates
    (the first direction is the separating axis), and scores are divided by
    the largest attainable magnitude so the score domain is a fixed box.
    """
    norm = box_scale * math.sqrt(dim)
    angles = np.arange(count) * 2.0 * math.pi / count

    def make(theta: float):
        w = np.zeros(dim)
        w[0] = math.cos(theta)
        if dim > 1:
            w[1] = math.sin(theta)
        # a dot product per row, as X @ w can round differently in the last bit
        return lambda X: (np.asarray(X, dtype=float)[:, None, :] @ w)[:, 0] / norm

    members = tuple(make(t) for t in angles)
    domain = box([-1.0], [1.0])
    return FunctionClass(members, raw_space, domain, label=f"linear-rankers({count})")
