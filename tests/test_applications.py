import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakstat import (
    ComplexityEstimate,
    FunctionClass,
    InapplicableCertificateError,
    LossFunction,
    SeededRng,
    analytic_seminorms_auc,
    box,
    center_matching_error,
    clustering_certificate,
    constant_weight,
    f_zeta,
    f_zeta_weight,
    gaussian_mixture_with_noise,
    class_complexity,
    evaluate_class,
    indicator_loss,
    linear_ranker_class,
    ramp_loss,
    select_ranker,
    smoothed_auc,
    trimmed_kmeans,
    two_block_ranking_space,
    two_block_second_moment,
    uniform_bound,
    uniform_raw_space,
    weighted_rank_kmeans,
)
from weakstat import applications
from weakstat.applications import (DescentViolationError, UnboundedLipschitzError,
                                   _clipped_normal_second_moment)
from weakstat.statistics import _BLOCK_VALUES, _order_average, _order_weights

SQRT_2PI = math.sqrt(2.0 * math.pi)
TRUE_CENTERS = np.array([[3.0, 0.0], [-1.5, 2.6], [-1.5, -2.6]])


def _g(mean):
    return ComplexityEstimate(mean=mean, std_error=0.0, replicates=0, kind="gaussian",
                              method="closed_form")


class TestTrimmedKmeans:
    def test_identical_points_single_cluster(self):
        data = np.tile([2.0, -1.0], (12, 1))
        res = trimmed_kmeans(data, 1, 0.125, restarts=2, rng=SeededRng(0))
        assert np.allclose(res.centers[0], [2.0, -1.0])
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_hard_trimming_ignores_far_outliers(self):
        gen = SeededRng(1).generator()
        inliers = gen.normal(0.0, 0.05, size=(30, 2))
        outliers = np.tile([50.0, 50.0], (10, 1))  # exactly the top quartile
        data = np.vstack([inliers, outliers])
        res = trimmed_kmeans(data, 1, 0.0, restarts=4, rng=SeededRng(2))
        # oracle: at the fixed point the center is the step-weighted mean of
        # the 30 nearest points, i.e. the plain mean of the inliers
        assert np.linalg.norm(res.centers[0] - inliers.mean(axis=0)) < 0.05
        # the objective never sees the outlier losses (weights are zero there)
        assert res.objective < 1.0

    def test_hard_trimming_matches_direct_weighted_mean(self):
        gen = SeededRng(3).generator()
        data = gen.uniform(-1, 1, size=(16, 2))
        res = trimmed_kmeans(data, 1, 0.0, restarts=1, max_iters=200, rng=SeededRng(4))
        # recompute the fixed point directly from the final assignment
        losses = np.sum((data - res.centers[0]) ** 2, axis=1)
        order = np.argsort(losses, kind="stable")
        w = np.empty(16)
        w[order] = [float(f_zeta((i + 1) / 16, 0.0)) for i in range(16)]
        direct = (data * w[:, None]).sum(axis=0) / w.sum()
        assert np.allclose(res.centers[0], direct, atol=1e-8)

    def test_matches_plain_kmeans_on_tight_clean_clusters(self):
        gen = SeededRng(5).generator()
        centers = TRUE_CENTERS
        data = np.vstack([
            c + 1e-8 * gen.standard_normal((40, 2)) for c in centers
        ])
        data = data[gen.permutation(len(data))]
        trimmed = trimmed_kmeans(data, 3, 0.0, restarts=8, rng=SeededRng(6))
        plain = weighted_rank_kmeans(data, 3, constant_weight(1.0), restarts=8,
                                     rng=SeededRng(6))
        assert center_matching_error(trimmed.centers, plain.centers) <= 1e-6

    def test_history_is_nonincreasing(self):
        data = gaussian_mixture_with_noise(120, TRUE_CENTERS, 0.4, 0.25, 6.0, SeededRng(7))
        res = trimmed_kmeans(data, 3, 0.125, restarts=6, rng=SeededRng(8))
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_centers_stay_in_data_ball(self):
        data = gaussian_mixture_with_noise(100, TRUE_CENTERS, 0.4, 0.25, 6.0, SeededRng(9))
        res = trimmed_kmeans(data, 3, 0.125, restarts=4, rng=SeededRng(10))
        radius = np.linalg.norm(data, axis=1).max()
        assert np.all(np.linalg.norm(res.centers, axis=1) <= radius + 1e-9)

    def test_shape_errors(self):
        data = np.zeros((4, 2))
        with pytest.raises(ValueError):
            trimmed_kmeans(data, 5, 0.1)
        with pytest.raises(ValueError):
            trimmed_kmeans(data, 1, 0.5)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restart_floor(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            weighted_rank_kmeans(np.zeros((4, 2)), 1, constant_weight(1.0), restarts=restarts)

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="max_iters"):
            trimmed_kmeans(np.zeros((4, 2)), 1, 0.1, max_iters=0)

    def test_outputs_match_the_recorded_digest(self):
        # centers, history, reseeds and restarts_used over two mixtures x
        # seeds x K x zeta; a change to the float order of the Lloyd loop
        # shows here.  The tight mixture makes some winning runs reseed.
        digest = hashlib.sha256()
        reseeds = 0
        for std, noise in ((0.5, 0.25), (0.05, 0.2)):
            for seed in range(6):
                data = gaussian_mixture_with_noise(60, TRUE_CENTERS, std, noise, 6.0,
                                                   SeededRng(seed).split(0))
                for K in (1, 2, 3, 5):
                    for zeta in (0.0, 0.05, 0.125, 0.25):
                        res = trimmed_kmeans(data, K, zeta, max_iters=50, restarts=2,
                                             rng=SeededRng(seed).split(1))
                        reseeds += res.reseeds
                        digest.update(np.ascontiguousarray(res.centers).tobytes())
                        digest.update(np.array(res.history).tobytes())
                        digest.update(np.array([res.reseeds, res.restarts_used]).tobytes())
        assert reseeds > 0
        assert digest.hexdigest() == (
            "2eedd790a5407bb9aefa897a2daf97a951194f32e72a2dc5d9f0c41be3ef2749")

    def test_noise_robustness_smoke(self):
        # small-sample version of the benchmark property; the 50-seed run
        # lives in the acceptance suite
        tr, pl = [], []
        for seed in range(5):
            data = gaussian_mixture_with_noise(240, TRUE_CENTERS, 0.35, 0.25, 6.0,
                                               SeededRng(seed, 20))
            a = trimmed_kmeans(data, 3, 0.125, restarts=10, rng=SeededRng(seed, 21))
            b = weighted_rank_kmeans(data, 3, constant_weight(1.0), restarts=10,
                                     rng=SeededRng(seed, 22))
            tr.append(center_matching_error(a.centers, TRUE_CENTERS))
            pl.append(center_matching_error(b.centers, TRUE_CENTERS))
        assert float(np.median(tr)) < float(np.median(pl))


def _lone_distances(data, centers):
    return np.sum((data[:, None, :] - centers[None]) ** 2, axis=2)


def _lone_seeds(data, K, gen):
    """Reference k-means++ seeding of one restart, one center at a time."""
    n = data.shape[0]
    centers = [data[int(gen.integers(n))]]
    for _ in range(K - 1):
        d2 = np.min(_lone_distances(data, np.stack(centers)), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(data[int(gen.integers(n))])
            continue
        centers.append(data[int(gen.choice(n, p=d2 / total))])
    return np.stack(centers)


def _lone_lloyd(data, K, weight, max_iters, gen):
    """Reference Lloyd run of one restart, one cluster at a time."""
    n = data.shape[0]
    centers = _lone_seeds(data, K, gen)
    order_weights = _order_weights(weight, n)
    rows = np.arange(n)
    history = []
    reseeds = 0
    prev = math.inf
    d2 = _lone_distances(data, centers)
    assign = np.argmin(d2, axis=1)
    losses = d2[rows, assign]
    for _ in range(max_iters):
        w = np.empty(n)
        w[np.argsort(losses, kind="stable")] = order_weights
        positive = w > 0
        reseeded = False
        for k in range(K):
            mask = (assign == k) & positive
            wk = w[mask]
            total = wk.sum()
            if total > 0:
                centers[k] = (data[mask] * wk[:, None]).sum(axis=0) / total
            else:
                centers[k] = data[int(np.argmax(w * losses))]
                reseeds += 1
                reseeded = True
        d2 = _lone_distances(data, centers)
        assign = np.argmin(d2, axis=1)
        losses = d2[rows, assign]
        obj = float(_order_average(losses, order_weights))
        history.append(obj)
        if not reseeded and obj > prev + 1e-12:
            raise DescentViolationError(f"objective increased from {prev!r} to {obj!r}")
        if abs(prev - obj) < 1e-10:
            break
        prev = obj
    return centers, history, reseeds


def _lone_restarts(data, K, weight, max_iters, restarts, rng):
    """Reference restart loop: each restart run alone on its stream, the
    lowest final objective winning, ties to the lowest index."""
    outcomes = [_lone_lloyd(data, K, weight, max_iters, rng.split(r).generator())
                for r in range(restarts)]
    return min(outcomes, key=lambda outcome: outcome[1][-1])


_WEIGHTS = [f_zeta_weight(0.0), f_zeta_weight(0.05), f_zeta_weight(0.25), constant_weight(1.0)]


@st.composite
def _clustering_cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.sampled_from([1, 2, 3, 7, 8, 9]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = 3.0 * gen.standard_normal((draw(st.integers(1, 4)), dim))
    spread = draw(st.sampled_from([0.0, 1e-9, 0.05, 1.0]))
    data = modes[gen.integers(len(modes), size=n)] + spread * gen.standard_normal((n, dim))
    if draw(st.booleans()):
        # a grid with repeated points and -0.0 coordinates
        data = np.round(data)
    if draw(st.booleans()):
        # a coordinate at -0.0 throughout, where each center sums -0.0 terms
        data[:, draw(st.integers(0, dim - 1))] = -0.0
    return dict(data=data, K=draw(st.integers(1, min(5, n))),
                weight=draw(st.sampled_from(_WEIGHTS)), max_iters=draw(st.integers(1, 12)),
                restarts=draw(st.integers(1, 10)), seed=draw(st.integers(0, 1000)),
                # the default, one restart per block, or blocks of any size
                budget=draw(st.sampled_from([_BLOCK_VALUES, 1]) | st.integers(1, 4000)))


class TestLockstepRestarts:
    @settings(max_examples=150, deadline=None)
    @given(case=_clustering_cases())
    def test_lockstep_equals_lone_restarts(self, case):
        rng = SeededRng(case["seed"])
        args = (case["data"], case["K"], case["weight"], case["max_iters"], case["restarts"])
        centers, history, reseeds = _lone_restarts(*args, rng)
        with mock.patch.object(applications, "_BLOCK_VALUES", case["budget"]):
            res = weighted_rank_kmeans(*args, rng)
        assert res.centers.tobytes() == np.ascontiguousarray(centers).tobytes()
        assert np.array(res.history).tobytes() == np.array(history).tobytes()
        assert (res.reseeds, res.restarts_used) == (reseeds, case["restarts"])

    @pytest.mark.parametrize("n, sizes", [(240, [10]), (1000, [3, 3, 3, 1]), (20000, [1] * 10)])
    def test_restarts_run_in_blocks_of_the_budget(self, n, sizes):
        # max(_BLOCK_VALUES // (n K m), 1) restarts per block at K = 3, m = 2
        data = SeededRng(1).generator().standard_normal((n, 2))
        blocks = []
        lockstep = applications._lockstep

        def counted(data, K, order_weights, max_iters, gens):
            blocks.append(len(gens))
            return lockstep(data, K, order_weights, max_iters, gens)

        with mock.patch.object(applications, "_lockstep", counted):
            trimmed_kmeans(data, 3, 0.25, max_iters=2, restarts=10, rng=SeededRng(5))
        assert blocks == sizes

    def test_peak_memory_at_n20000(self):
        # one restart per block: 3.4 MiB, against 2.7 MiB for a lone
        # restart and 32 MiB with all 10 restarts in one block
        data = SeededRng(1).generator().standard_normal((20000, 2))
        run = lambda: trimmed_kmeans(data, 3, 0.25, max_iters=3, restarts=10, rng=SeededRng(5))
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestClusteringCertificate:
    def test_trimming_slope_enters_second_order_term(self):
        cert = clustering_certificate(ball_radius=6.0, zeta=0.25, n=60, g=_g(1.0), delta=0.1)
        diam = (2.0 * 6.0) ** 2
        # J_Lip is scale-free; the range form carries the loss diameter
        assert cert.seminorms.j_lip == pytest.approx((8.0 / 3.0) / 60)
        assert cert.seminorms.j_plain == pytest.approx(diam * (8.0 / 3.0) / 60)

    def test_step_weight_is_refused(self):
        with pytest.raises(UnboundedLipschitzError):
            clustering_certificate(6.0, 0.0, 60, _g(1.0), 0.1)

    def test_vanishing_complexity_and_tail(self):
        cert = clustering_certificate(6.0, 0.25, 60, _g(0.0), 1 - 1e-12)
        assert cert.total == pytest.approx(0.0, abs=1e-4)

    def test_total_monotone_in_inverse_zeta(self):
        totals = [
            clustering_certificate(6.0, z, 60, _g(1.0), 0.1).total
            for z in (0.25, 0.125, 0.0625)
        ]
        assert totals[0] < totals[1] < totals[2]


def _two_block_data(n, hi=1.0, lo=0.0):
    return np.concatenate([np.full(n // 2, hi), np.full(n // 2, lo)])


def _identity_class():
    return FunctionClass(
        (lambda x: np.asarray(x, dtype=float),),
        uniform_raw_space(0.0, 1.0),
        box([-10.0], [10.0]),
    )


def _hand_lower_bound(auc_emp, L, n, g, delta):
    """The population-AUC lower bound written out by hand, as the removed
    bounds.auc_certificate computed it: (2 m_lip + j_lip) = 12 L / n and
    m_plain = 2 / n put into the uniform bound."""
    return auc_emp - 12.0 * SQRT_2PI * L * g / n - 2.0 * math.sqrt(math.log(1.0 / delta) / n)


class TestSelectRanker:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(half=st.integers(1, 200), width=st.floats(1e-3, 1e3), g=st.floats(0.0, 1e3),
           delta=st.floats(1e-300, 1.0, exclude_max=True), seed=st.integers(0, 2**16))
    def test_lower_bound_is_the_uniform_bound(self, half, width, g, delta, seed):
        n, loss = 2 * half, ramp_loss(width)
        data = SeededRng(seed).generator().uniform(size=n)
        sel = select_ranker(_identity_class(), data, loss, _g(g), delta)
        cert = uniform_bound(analytic_seminorms_auc(loss.lipschitz_L, n), _g(g), n, delta)
        assert sel.certificate == cert and sel.delta == delta
        assert sel.certificate_lower_bound == sel.empirical_auc - cert.total
        hand = _hand_lower_bound(sel.empirical_auc, loss.lipschitz_L, n, g, delta)
        scale = max(abs(hand), sel.empirical_auc - hand)
        assert abs(sel.certificate_lower_bound - hand) <= 1e-12 * scale

    @pytest.mark.parametrize("g", [0.0, 1.0])
    def test_infinite_slope_is_refused(self, g):
        # the hand formula returned NaN at L = inf and g = 0
        with pytest.raises(UnboundedLipschitzError):
            select_ranker(_identity_class(), _two_block_data(8), indicator_loss(), _g(g), 0.1)

    @pytest.mark.parametrize("n", [1, 7, 101])
    def test_odd_sample_is_refused(self, n):
        with pytest.raises(ValueError, match="even"):
            select_ranker(_identity_class(), np.linspace(0.0, 1.0, n), ramp_loss(), _g(1.0),
                          0.1)

    def test_single_candidate_is_chosen(self):
        from weakstat import ramp_loss

        sel = select_ranker(_identity_class(), _two_block_data(8), ramp_loss(),
                            _g(0.5), 0.1)
        assert sel.chosen_index == 0

    def test_perfect_separation_with_margin(self):
        from weakstat import ramp_loss

        sel = select_ranker(_identity_class(), _two_block_data(12, hi=1.5, lo=0.0),
                            ramp_loss(), _g(0.5), 0.1)
        assert sel.empirical_auc == pytest.approx(1.0)

    def test_certificate_below_empirical_value(self):
        from weakstat import ramp_loss

        sel = select_ranker(_identity_class(), _two_block_data(10), ramp_loss(),
                            _g(2.3), 0.1)
        assert sel.certificate_lower_bound <= sel.empirical_auc

    def test_loss_without_flag_rejected(self):
        bad = LossFunction(lambda t: np.clip(t, 0.0, 1.0), 1.0, below_indicator=False)
        with pytest.raises(InapplicableCertificateError):
            select_ranker(_identity_class(), _two_block_data(8), bad, _g(0.5), 0.1)

    def test_common_shift_leaves_choice_unchanged(self):
        from weakstat import ramp_loss

        space = two_block_ranking_space(2, 1.5)
        cands = linear_ranker_class(2, 8, space)
        data = space.sampler(SeededRng(13).generator(), 40)
        base = select_ranker(cands, data, ramp_loss(), _g(1.0), 0.1)

        shift = 0.35
        shifted_members = tuple(
            (lambda x, j=j: cands.images(x)[j] + shift) for j in range(cands.size)
        )
        shifted = FunctionClass(shifted_members, space, box([-2.0], [2.0]))
        after = select_ranker(shifted, data, ramp_loss(), _g(1.0), 0.1)
        assert after.chosen_index == base.chosen_index


class TestMatchingError:
    def test_permuted_centers_have_zero_error(self):
        assert center_matching_error(TRUE_CENTERS[[2, 0, 1]], TRUE_CENTERS) == 0.0

    def test_known_displacement(self):
        shifted = TRUE_CENTERS + np.array([0.3, 0.4])
        assert center_matching_error(shifted, TRUE_CENTERS) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            center_matching_error(TRUE_CENTERS[:2], TRUE_CENTERS)


class TestGenerators:
    def test_mixture_respects_ball_and_noise_count(self):
        data = gaussian_mixture_with_noise(200, TRUE_CENTERS, 0.3, 0.25, 6.0, SeededRng(14))
        assert data.shape == (200, 2)
        assert np.all(np.linalg.norm(data, axis=1) <= 6.0 + 1e-9)

    def test_two_block_space_orders_populations(self):
        space = two_block_ranking_space(2, 3.0)
        raw = space.sampler(SeededRng(15).generator(), 400)
        pos, neg = raw[:200], raw[200:]
        assert pos[:, 0].mean() > neg[:, 0].mean() + 1.0

    def test_ranker_scores_stay_in_unit_box(self):
        space = two_block_ranking_space(2, 1.5)
        cands = linear_ranker_class(2, 8, space)
        from weakstat import evaluate_class

        raw = space.sampler(SeededRng(16).generator(), 100)
        assert np.all(np.abs(evaluate_class(cands, raw)) <= 1.0)


class TestRankerComplexity:
    @pytest.mark.parametrize("mu, c", [(0.0, 3.0), (0.75, 3.0), (1.5, 1.0), (-2.0, 0.5),
                                       (0.3, 0.05)])
    def test_clipped_normal_moment_matches_sampling(self, mu, c):
        draws = 1_000_000
        x = np.clip(mu + SeededRng(21).generator().standard_normal(draws), -c, c)
        sq = x * x
        assert abs(_clipped_normal_second_moment(mu, c) - sq.mean()) <= (
            4.0 * sq.std(ddof=1) / np.sqrt(draws))
        m = two_block_second_moment(2, 2.0 * mu)
        assert m[0, 1] == m[1, 0] == 0.0

    def test_second_moment_matrix_matches_two_block_sample(self):
        draws = 1_000_000
        raw = two_block_ranking_space(3, 1.5).sampler(SeededRng(22).generator(), draws)[:, :2]
        prods = (raw[:, :, None] * raw[:, None, :]).reshape(draws, 4)
        se = prods.std(axis=0, ddof=1) / np.sqrt(draws)
        m = two_block_second_moment(3, 1.5)
        assert np.all(np.abs(m.ravel() - prods.mean(axis=0)) <= 4.0 * se)
        assert two_block_second_moment(1, 1.5).shape == (1, 1)

    def test_rank_defaults_value(self):
        # n = 200, 8 directions, separation 1.5, box 3: E A = diag(306.85, 199.00)
        assert np.allclose(200 * two_block_second_moment(2, 1.5), np.diag([306.85, 199.00]),
                           atol=0.01)
        g = linear_ranker_class(2, 8, two_block_ranking_space(2, 1.5)).gaussian_upper(200)
        assert g.mean == pytest.approx(4.5652, abs=1e-4)

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [4, 8])
    @pytest.mark.parametrize("separation", [0.0, 1.5])
    def test_closed_form_bounds_class_complexity(self, n, dim, count, separation):
        space = two_block_ranking_space(dim, separation)
        candidates = linear_ranker_class(dim, count, space)
        est = class_complexity(candidates, n, "gaussian",
                               outer_reps=16, inner_reps=256, rng=SeededRng(n, dim * count))
        closed = candidates.gaussian_upper(n)
        assert closed.method == "closed_form"
        assert closed.mean >= est.mean - 4.0 * est.std_error

    def test_closed_form_certificate_covers_held_out_auc(self):
        # criterion 10's simulation with the closed-form complexity
        n, count, delta, trials = 200, 8, 0.1, 200
        space = two_block_ranking_space(2, 1.5)
        candidates = linear_ranker_class(2, count, space)
        g = candidates.gaussian_upper(n)
        covered = 0
        for seed in range(trials):
            rng = SeededRng(seed, 99)
            sel = select_ranker(candidates, space.sampler(rng.split(0).generator(), n),
                                ramp_loss(1.0), g, delta)
            held = space.sampler(rng.split(1).generator(), 10 * n)
            held_auc = smoothed_auc(indicator_loss(),
                                    evaluate_class(candidates, held)[sel.chosen_index])
            covered += bool(held_auc >= sel.certificate_lower_bound)
        assert covered >= 170
