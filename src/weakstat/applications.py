"""End-to-end applications of the bound machinery: rank-weighted trimmed
K-means clustering and the selection of a ranking function, each certified
by bounds.uniform_bound at its statistic's closed-form seminorms, plus the
synthetic benchmark generators both experiments run on."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .bounds import (BoundCertificate, InapplicableCertificateError, UnboundedLipschitzError,
                     uniform_bound)
from .complexity import ComplexityEstimate, LinearClass
from .core import FunctionClass, RawSpace, SeededRng, box, evaluate_class
from .seminorms import analytic_seminorms_auc, analytic_seminorms_lstat
from .statistics import (_BLOCK_VALUES, LossFunction, WeightFunction, _order_average,
                         _order_weights, _squared_distances, f_zeta_weight,
                         nearest_center_losses, smoothed_auc)

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
    "two_block_second_moment",
    "linear_ranker_class",
]

_CONVERGENCE_TOL = 1e-10
_DESCENT_TOL = 1e-12
# half-width of the box [-3, 3]^dim that ranking data are clipped to
_BOX_SCALE = 3.0


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
    """Outcome of surrogate maximization over a candidate class; its
    population-AUC lower bound is the surrogate minus the certificate."""

    chosen_index: int
    empirical_auc: float
    certificate: BoundCertificate

    @property
    def certificate_lower_bound(self) -> float:
        return self.empirical_auc - self.certificate.total

    @property
    def delta(self) -> float:
        return self.certificate.delta


def _lockstep(data: np.ndarray, K: int, order_weights: np.ndarray, max_iters: int,
              gens: list) -> list:
    """Seed and run one restart per generator in lockstep: (centers, history, reseeds) of each."""
    n = data.shape[0]
    # k-means++: step k takes the nearest-center losses of every restart in
    # one (R, n, k) computation; each generator draws as a lone seeding would
    picks = [[int(gen.integers(n))] for gen in gens]
    for _ in range(K - 1):
        near = nearest_center_losses(data, data[picks])
        for pick, gen, d2, total in zip(picks, gens, near, near.sum(axis=1)):
            pick.append(int(gen.integers(n)) if total <= 0 else int(gen.choice(n, p=d2 / total)))
    centers = data[picks]
    histories, reseeds, prev = [[] for _ in gens], [0] * len(gens), [math.inf] * len(gens)
    live = np.arange(len(gens))
    d2 = _squared_distances(data, centers)
    assign, losses = np.argmin(d2, axis=2), d2.min(axis=2)
    for _ in range(max_iters):
        groups = live.size * K
        rows = np.arange(live.size)[:, None]
        w = np.empty_like(losses)
        w[rows, np.argsort(losses, axis=1, kind="stable")] = order_weights
        # positive-weight points by (restart, cluster) group, in input order
        key = np.where(w > 0, assign + K * rows, groups).ravel()
        order = np.argsort(key, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=groups + 1))))
        ws = w.ravel()[order]
        terms = data[order % n] * ws[:, None]
        spans = list(zip(bounds[:groups].tolist(), bounds[1:groups + 1].tolist()))
        totals = np.array([ws[a:b].sum() for a, b in spans])
        sums = np.array([terms[a:b].sum(axis=0) for a, b in spans])
        flat = centers[live].reshape(groups, -1)
        fed = totals > 0
        flat[fed] = sums[fed] / totals[fed, None]
        c = flat.reshape(live.size, K, -1)
        # a cluster that carries no weight restarts at the point whose
        # weighted loss is largest, so mass moves where it hurts most
        starved = ~fed.reshape(live.size, K)
        for i, k in zip(*np.nonzero(starved)):
            c[i, k] = data[np.argmax(w[i] * losses[i])]
        # the losses at the updated centers give this round's objectives
        # and the next round's assignment
        centers[live] = c
        d2 = _squared_distances(data, c)
        assign, losses = np.argmin(d2, axis=2), d2.min(axis=2)
        objs = _order_average(losses, order_weights).tolist()
        going = []
        for i, (r, obj, starts) in enumerate(zip(live.tolist(), objs, starved.sum(1).tolist())):
            histories[r].append(obj)
            reseeds[r] += starts
            if not starts and obj > prev[r] + _DESCENT_TOL:
                raise DescentViolationError(f"objective increased from {prev[r]!r} to {obj!r} "
                                            "without a reseed")
            if abs(prev[r] - obj) < _CONVERGENCE_TOL:
                continue
            prev[r] = obj
            going.append(i)
        if not going:
            break
        live, assign, losses = live[going], assign[going], losses[going]
    return list(zip(centers, histories, reseeds))


def weighted_rank_kmeans(data: np.ndarray, K: int, weight: WeightFunction,
                         max_iters: int = 100, restarts: int = 10,
                         rng: SeededRng = SeededRng(0)) -> ClusteringResult:
    """Weighted Lloyd iteration where each point's weight is a function of
    the rank of its current loss.

    Weights are frozen during the center update and ranks recomputed after,
    which keeps the recorded objective nonincreasing (the old ranking is a
    feasible ranking for the new losses); an increase without a reseed
    aborts loudly.

    Restart r runs on stream ``rng.split(r)``.  Blocks of max(_BLOCK_VALUES
    // (n K m), 1) restarts, which bound the (R, n, K, m) distance
    temporary, advance in lockstep: one k-means++ step for all, then up to
    ``max_iters`` Lloyd rounds over the (R, n, K) stack of those not yet
    converged.  Each gets a lone run's bits: ``_squared_distances``, a
    stable argsort per row for the ranks, ``_order_average`` of the stack
    for the objectives, and per (restart, cluster) group a pairwise ``sum``
    of its weights and an in-order ``sum(axis=0)`` of its weighted rows,
    each over one contiguous slice.  The lowest final objective wins, ties
    to the lowest restart index.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be an (n, m) array")
    n, m = data.shape
    if K < 1 or K > n:
        raise ValueError(f"cluster count K={K} must lie in [1, n={n}]")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    order_weights = _order_weights(weight, n)
    size = max(_BLOCK_VALUES // (n * K * max(m, 1)), 1)
    runs = []
    for start in range(0, restarts, size):
        gens = [rng.split(r).generator() for r in range(start, min(start + size, restarts))]
        runs += _lockstep(data, K, order_weights, max_iters, gens)
    centers, history, reseeds = min(runs, key=lambda run: run[1][-1])
    return ClusteringResult(centers.copy(), restarts, tuple(history), reseeds)


def trimmed_kmeans(data: np.ndarray, K: int, zeta: float, max_iters: int = 100,
                   restarts: int = 10, rng: SeededRng = SeededRng(0)) -> ClusteringResult:
    """Smoothed trimmed K-means: cluster under the ramp-trimming rank weight,
    so roughly the top quartile of current losses is down-weighted to zero
    at each step."""
    if not (0.0 <= zeta <= 0.25):
        raise ValueError(f"zeta must lie in [0, 1/4], got {zeta}")
    return weighted_rank_kmeans(data, K, f_zeta_weight(zeta), max_iters, restarts, rng)


def clustering_certificate(ball_radius: float, zeta: float, n: int, g: ComplexityEstimate,
                           delta: float) -> BoundCertificate:
    """Uniform deviation certificate for the trimmed clustering objective on
    n points, over a loss class of closed-form Gaussian complexity g (the
    CLI passes one loss map fixed before a held-out sample, so g = 0).

    Losses are squared distances inside a ball of the given radius, so the
    loss range has diameter (2 r)^2; the trimming weight enters through its
    sup norm 4/3 and Lipschitz norm 2/(3 zeta).  The step weight (zeta=0)
    has an infinite Lipschitz norm, so the certificate raises
    UnboundedLipschitzError.
    """
    loss_diameter = (2.0 * ball_radius) ** 2
    report = analytic_seminorms_lstat(f_zeta_weight(zeta), loss_diameter, n)
    return uniform_bound(report, g, n, delta)


def select_ranker(candidates: FunctionClass | LinearClass, data, loss: LossFunction,
                  g: ComplexityEstimate, delta: float) -> RankingSelection:
    """Pick the candidate maximizing the smoothed two-sample surrogate on a
    two-block sample (first half positives, second half negatives), ties to
    the lowest index, and certify it by the uniform bound at
    analytic_seminorms_auc and g, for a loss below the indicator of (0, inf)."""
    if not loss.below_indicator:
        raise InapplicableCertificateError(
            "the AUC certificate needs a surrogate loss below the indicator of (0, inf)"
        )
    configs = evaluate_class(candidates, data)
    n = configs.shape[1]
    cert = uniform_bound(analytic_seminorms_auc(loss.lipschitz_L, n), g, n, delta)
    values = smoothed_auc(loss, configs)
    chosen = int(np.argmax(values))
    return RankingSelection(chosen, float(values[chosen]), cert)


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


def two_block_ranking_space(dim: int, separation: float) -> RawSpace:
    """Raw data for ranking: the first half of each sample is drawn from a
    positive population at +separation/2 along the first axis, the second
    half from a negative population at -separation/2, clipped to the box
    [-_BOX_SCALE, _BOX_SCALE]^dim."""

    def sampler(gen: np.random.Generator, n: int):
        if n % 2 != 0:
            raise ValueError(f"two-block samples need even n, got {n}")
        half = n // 2
        shift = np.zeros(dim)
        shift[0] = separation / 2.0
        pos = gen.standard_normal((half, dim)) + shift
        neg = gen.standard_normal((half, dim)) - shift
        return np.clip(np.vstack([pos, neg]), -_BOX_SCALE, _BOX_SCALE)

    return RawSpace(sampler, "two-block", two_block_second_moment(dim, separation))


def _clipped_normal_second_moment(mu: float, c: float) -> float:
    """E x^2 for x = clip(mu + Z, -c, c) with Z standard normal: the part of
    the normal inside (a, b) = (-c - mu, c - mu) plus c^2 times the mass
    outside it; c^2 once mu^2 overflows, as every draw is then clipped."""
    if math.isinf(mu * mu):
        return c * c
    a, b = -c - mu, c - mu
    cdf = lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0))
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    inside = cdf(b) - cdf(a)
    return ((1.0 + mu * mu) * inside + a * pdf(a) - b * pdf(b) + 2.0 * mu * (pdf(a) - pdf(b))
            + c * c * (cdf(a) + 0.5 * math.erfc(b / math.sqrt(2.0))))


def two_block_second_moment(dim: int, separation: float) -> np.ndarray:
    """The k x k matrix (1/n) sum_i E[x_i x_i^T] over the first k = min(dim, 2)
    coordinates of a two_block_ranking_space sample.

    Every coordinate is a clipped unit normal, independent of the others:
    the first is centered at +-separation/2 (the two halves share E x^2 by
    symmetry), the second at 0, so the off-diagonal term is
    E x_1 E x_2 = 0.
    """
    k = min(dim, 2)
    diag = [_clipped_normal_second_moment(separation / 2.0, _BOX_SCALE),
            _clipped_normal_second_moment(0.0, _BOX_SCALE)]
    return np.diag(diag[:k])


def linear_ranker_class(dim: int, count: int, raw_space: RawSpace) -> LinearClass:
    """Unit-direction linear scores normalized into the box [-1, 1]: member
    j scores x -> <x, w_j> / (_BOX_SCALE sqrt(dim)), the largest attainable
    score magnitude, for directions w_j spread evenly on the circle of the
    first two coordinates (w_0 is the separating axis)."""
    directions = np.zeros((count, dim))
    for j, theta in enumerate(np.arange(count) * 2.0 * math.pi / count):
        directions[j, 0] = math.cos(theta)
        if dim > 1:
            directions[j, 1] = math.sin(theta)
    return LinearClass(directions, raw_space, box([-1.0], [1.0]), _BOX_SCALE * math.sqrt(dim),
                       label=f"linear-rankers({count})")
