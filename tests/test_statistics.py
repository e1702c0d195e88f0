import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest

from weakstat import (
    Kernel,
    LossFunction,
    RidgeProblem,
    SeededRng,
    auc_statistic,
    box,
    empirical_seminorms,
    f_zeta,
    f_zeta_weight,
    constant_weight,
    indicator_loss,
    l_statistic,
    nearest_center_losses,
    product_kernel,
    ramp_loss,
    ridge_error,
    ridge_solution,
    sample_mean,
    smoothed_auc,
    u_stat_statistic,
    u_statistic,
    unit_interval,
    v_stat_statistic,
    v_statistic,
)
from weakstat import cli, oracle
from weakstat.oracle import fk_decompose
from weakstat.statistics import _BLOCK_VALUES, _squared_distances


class TestSampleMean:
    def test_plain_average(self):
        assert sample_mean([0.1, 0.2, 0.3, 0.4]) == pytest.approx(0.25)

    def test_constant_input(self):
        assert sample_mean([0.7] * 5) == pytest.approx(0.7)

    def test_two_points(self):
        assert sample_mean([0.0, 1.0]) == 0.5

    def test_rejects_vector_rows(self):
        with pytest.raises(ValueError):
            sample_mean(np.ones((3, 2)))


class TestVStatistic:
    def test_arity_one_reduces_to_mean(self):
        k = Kernel(1, lambda a: a[..., 0], 1.0, 1.0)
        assert v_statistic(k, [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_product_kernel_all_ordered_pairs(self):
        x = [1.0, 2.0, 3.0]
        # oracle: enumerate the 9 ordered pairs directly
        expected = sum(a * b for a, b in product(x, repeat=2)) / 9
        assert expected == pytest.approx(4.0)
        assert v_statistic(product_kernel(), x) == pytest.approx(expected)

    def test_zero_kernel(self):
        k = Kernel(2, lambda a, b: np.zeros(np.asarray(a).shape[:-1]), 0.0, 0.0)
        assert v_statistic(k, [1.0, 2.0, 3.0]) == 0.0

    def test_arity_error(self):
        with pytest.raises(ValueError, match="arity"):
            v_statistic(product_kernel(), [1.0])

    @pytest.mark.parametrize("build", [v_stat_statistic, u_stat_statistic])
    @pytest.mark.parametrize("evaluator", [
        lambda a, b: np.sum(a * b, axis=1),
        lambda a, b: a[:, 0] * b[:, 0],
    ], ids=["axis1", "positional"])
    def test_kernel_reducing_the_wrong_axis_is_refused_on_a_stack(self, build, evaluator):
        # U: right on one (T, d) configuration, wrong on a (B, T, d) stack;
        # V: wrong on the (n, n, d) grid of one configuration already
        k = Kernel(2, evaluator, 1.0, 1.0, label="wrong_axis")
        f = build(k, 4, unit_interval())
        x = SeededRng(2).generator().uniform(size=(3, 4, 1))
        if build is v_stat_statistic:
            with pytest.raises(ValueError, match=r"kernel 'wrong_axis' returned shape \(4, 1\)"):
                f.value(x[0])
            stack_shape = r"\(3, 4, 1\)"
        else:
            assert f.value(x[0]) == build(product_kernel(), 4, unit_interval()).value(x[0])
            stack_shape = r"\(3, 1\)"
        with pytest.raises(ValueError, match=rf"kernel 'wrong_axis' returned shape {stack_shape}"):
            f.batch(x)


    def test_peak_memory_of_one_block_at_n100(self):
        # a configuration holds n^2 = 10^4 kernel values, so the value
        # budget gives blocks of one configuration: its (1, 100, 100, 1)
        # kernel products and (1, 100, 100) values, 160 KB (224 KiB in all);
        # blocks of 128 took 19.5 MiB, and blocks of two 478 KiB
        f = v_stat_statistic(product_kernel(), 100, unit_interval())
        assert _BLOCK_VALUES // 100**2 == 1
        stack = SeededRng(6).generator().uniform(size=(128, 100, 1))
        assert _traced_peak(lambda: f.batch(stack)) <= 256 * 2**10


def _traced_peak(run) -> int:
    """Peak traced bytes of a second call of ``run``; the first fills the
    caches of the index and swap tables."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocks:
    """The kernel tuple averages and the AUC pair matrix evaluate a stack in
    blocks of at most _BLOCK_VALUES kernel values, and at least one
    configuration; the pins fail a change that lets blocks grow."""

    @pytest.mark.parametrize("family, values", [
        ("vstat", 8 * 8), ("ustat", 8 * 7 // 2), ("auc", 4 * 4),
    ])
    def test_a_stack_is_evaluated_in_blocks_of_the_budget(self, family, values):
        calls = []

        def counted(evaluate):
            def wrapper(*args):
                calls.append(len(args[0]))
                return evaluate(*args)
            return wrapper

        if family == "auc":
            f = auc_statistic(LossFunction(counted(ramp_loss().evaluator), 1.0), 8)
        else:
            build = v_stat_statistic if family == "vstat" else u_stat_statistic
            f = build(Kernel(2, counted(product_kernel().evaluator), 1.0, 1.0), 8, unit_interval())
        size = _BLOCK_VALUES // values
        stack = SeededRng(9).generator().uniform(size=(2 * size + 3, 8, 1))
        out = f.batch(stack)
        assert calls == [size, size, 3]
        assert (out == np.array([f.value(p) for p in stack])).all()

    def test_peak_memory_of_the_vstat_n8_search(self):
        # the seminorm-vstat-n8 search of the benchmark: 563 KiB, against
        # 846 KiB at twice the budget and 1.24 MiB with no blocks
        f = v_stat_statistic(product_kernel(), 8, unit_interval())
        assert _traced_peak(lambda: empirical_seminorms(f, 20000, SeededRng(5))) <= 640 * 2**10

    def test_peak_memory_of_fk_decompose_at_n12(self):
        # 128 swap configurations per call: 336 KiB, against 774 KiB for
        # the whole 2^12 table at once
        f = v_stat_statistic(product_kernel(), 12, unit_interval())
        gen = SeededRng(3).generator()
        x, xp = gen.uniform(size=(12, 1)), gen.uniform(size=(12, 1))
        assert _traced_peak(lambda: fk_decompose(f, x, xp)) <= 384 * 2**10


class TestConditionBlocks:
    """The verify condition probes evaluate their six configurations each
    in blocks of max(_BLOCK_VALUES // (6 n), 1) probes, one l_statistic
    call per block; the pin fails a change that stacks them all."""

    @staticmethod
    def _verify(n: int, probes: int) -> dict:
        # max_n = 1 leaves only the condition phase of any size
        return {"kind": "verify", "seed": 5, "statistic": {"family": "lstat", "n": n},
                "verify": {"max_n": 1, "pairs": 1, "probes": probes}}

    @pytest.mark.parametrize("n, probes", [(12, 200), (12, 600), (100, 200)])
    def test_one_l_statistic_call_per_block(self, n, probes):
        size = max(_BLOCK_VALUES // (6 * n), 1)
        calls = []

        def counted(F, stack):
            calls.append(len(stack))
            return l_statistic(F, stack)

        with mock.patch.object(oracle, "l_statistic", counted):
            doc, status = cli.run(self._verify(n, probes))
        assert status == cli.EXIT_OK
        assert len(calls) == -(-probes // size)
        assert calls == [6 * min(size, probes - s) for s in range(0, probes, size)]

    def test_peak_memory_of_the_conditions_at_n1000(self):
        # the drawn probes take 7.6 MiB (1000 configurations of 1000
        # points) and one block of 3 probes the rest: 8.1 MiB in all,
        # against 99 MiB with all 6000 configurations in one call
        assert _traced_peak(lambda: cli.run(self._verify(1000, 1000))) <= 9 * 2**20


class TestUStatistic:
    def test_product_kernel_increasing_pairs(self):
        x = [1.0, 2.0, 3.0]
        expected = sum(a * b for a, b in combinations(x, 2)) / 3
        assert expected == pytest.approx(11.0 / 3.0)
        assert u_statistic(product_kernel(), x) == pytest.approx(expected)

    def test_arity_one_is_mean(self):
        k = Kernel(1, lambda a: a[..., 0], 1.0, 1.0)
        x = SeededRng(0).generator().uniform(size=7)
        assert u_statistic(k, x) == pytest.approx(sample_mean(x))

    def test_full_arity_single_term(self):
        k = Kernel(3, lambda a, b, c: (a + b + c)[..., 0], 1.0, 1.0)
        assert u_statistic(k, [0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_symmetric_kernel_permutation_invariance(self):
        gen = SeededRng(4).generator()
        x = gen.uniform(size=6)
        base = u_statistic(product_kernel(), x)
        for _ in range(10):
            assert u_statistic(product_kernel(), gen.permutation(x)) == pytest.approx(base)

    def test_u_equals_v_for_arity_one(self):
        k = Kernel(1, lambda a: np.sin(a[..., 0]), 1.0, 2.0)
        x = SeededRng(8).generator().uniform(size=9)
        assert u_statistic(k, x) == pytest.approx(v_statistic(k, x))


class TestSmoothedAuc:
    def test_separated_blocks(self):
        assert smoothed_auc(ramp_loss(), [1.0, 1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_mixed_blocks(self):
        # oracle: pair differences are 0.5, 1, 0.5, 1 under the ramp
        assert smoothed_auc(ramp_loss(), [1.0, 1.0, 0.5, 0.0]) == pytest.approx(0.75)

    def test_zero_loss(self):
        zero = ramp_loss()
        zero = type(zero)(lambda t: np.zeros_like(np.asarray(t, dtype=float)), 0.0, True)
        assert smoothed_auc(zero, [0.3, 0.4, 0.1, 0.2]) == 0.0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            smoothed_auc(ramp_loss(), [1.0, 2.0, 3.0])

    def test_surrogate_below_indicator_wilcoxon(self):
        gen = SeededRng(12).generator()
        for _ in range(50):
            x = gen.uniform(size=8)
            assert smoothed_auc(ramp_loss(), x) <= smoothed_auc(indicator_loss(), x) + 1e-12


class TestLStatistic:
    def test_constant_weight_is_mean(self):
        x = SeededRng(3).generator().uniform(size=11)
        assert l_statistic(constant_weight(1.0), x) == pytest.approx(sample_mean(x))

    def test_step_weight_drops_top_quartile(self):
        # oracle: direct formula (1/4) * (4/3) * (0.1 + 0.2 + 0.3), top value weighted 0
        assert l_statistic(f_zeta_weight(0.0), [0.1, 0.2, 0.3, 0.9]) == pytest.approx(0.2)

    def test_permutation_invariance(self):
        gen = SeededRng(5).generator()
        x = gen.uniform(size=9)
        F = f_zeta_weight(0.25)
        assert l_statistic(F, gen.permutation(x)) == pytest.approx(l_statistic(F, x))

    def test_direct_formula_oracle(self):
        gen = SeededRng(6).generator()
        F = f_zeta_weight(0.125)
        for _ in range(20):
            x = gen.uniform(size=10)
            s = np.sort(x)
            expected = sum(float(f_zeta((i + 1) / 10, 0.125)) * s[i] for i in range(10)) / 10
            assert l_statistic(F, x) == pytest.approx(expected)

    def test_monotone_in_each_coordinate_for_nonnegative_weight(self):
        gen = SeededRng(7).generator()
        F = f_zeta_weight(0.25)
        for _ in range(40):
            x = gen.uniform(size=8)
            base = l_statistic(F, x)
            i = int(gen.integers(8))
            bumped = x.copy()
            bumped[i] = min(1.0, bumped[i] + gen.uniform(0, 0.3))
            assert l_statistic(F, bumped) >= base - 1e-12


class TestFZeta:
    def test_plateau_value(self):
        assert f_zeta(0.5, 0.25) == pytest.approx(4.0 / 3.0)

    def test_ramp_midpoint(self):
        assert f_zeta(0.75, 0.25) == pytest.approx(2.0 / 3.0)

    def test_ramp_endpoint(self):
        assert f_zeta(1.0, 0.25) == 0.0

    def test_continuity_at_branch_points(self):
        for zeta in (0.05, 0.125, 0.25):
            lo, hi = 0.75 - zeta, 0.75 + zeta
            assert f_zeta(lo, zeta) == pytest.approx(4.0 / 3.0)
            assert f_zeta(lo + 1e-9, zeta) == pytest.approx(4.0 / 3.0, abs=1e-6)
            assert f_zeta(hi, zeta) == pytest.approx(0.0, abs=1e-12)

    def test_step_weight_at_zero_zeta(self):
        assert f_zeta(0.75, 0.0) == pytest.approx(4.0 / 3.0)
        assert f_zeta(0.7500001, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_zeta(1.2, 0.1)
        with pytest.raises(ValueError):
            f_zeta(0.5, 0.3)


def _one_point_loss(centers, point) -> float:
    """nearest_center_losses of a single point."""
    return float(nearest_center_losses(np.array([point], dtype=float),
                                       np.array(centers, dtype=float))[0])


class TestKmeansLoss:
    def test_single_center(self):
        assert _one_point_loss([[0.0, 0.0]], [3.0, 4.0]) == pytest.approx(25.0)

    def test_point_on_center(self):
        assert _one_point_loss([[1.0, 2.0], [0.0, 0.0]], [1.0, 2.0]) == 0.0

    def test_min_over_centers(self):
        assert _one_point_loss([[0.0, 0.0], [1.0, 0.0]], [0.9, 0.0]) == pytest.approx(0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _one_point_loss([[0.0, 0.0]], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("m", range(1, 14))
    def test_distances_equal_the_contiguous_sum(self, m):
        # below 8 coordinates the planes must add in numpy's order for a
        # contiguous axis; magnitudes spread over 1e-8..1e8 make any other
        # order round differently
        gen = SeededRng(m).generator()
        scale = 10.0 ** gen.integers(-8, 9, size=m)
        points = gen.standard_normal((500, m)) * scale
        for stack in [(), (1,), (7,), (2, 3)]:
            centers = gen.standard_normal(stack + (3, m)) * scale
            out = _squared_distances(points, centers)
            ref = np.sum((points[:, None, :] - centers[..., None, :, :]) ** 2, axis=-1)
            assert out.shape == stack + (500, 3)
            assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


class TestRidge:
    def test_scalar_closed_form(self):
        # w = 1/(1 + lam) when all z=1, y=1
        for lam in (0.01, 0.5, 0.99):
            prob = RidgeProblem(lam=lam, d=1)
            x = np.column_stack([np.ones(6), np.ones(6)])
            assert ridge_solution(x, prob)[0] == pytest.approx(1.0 / (1.0 + lam))

    def test_zero_targets_zero_solution(self):
        prob = RidgeProblem(lam=0.3, d=2)
        gen = SeededRng(10).generator()
        Z = gen.uniform(-0.5, 0.5, size=(8, 2))
        x = np.column_stack([Z, np.zeros(8)])
        assert np.allclose(ridge_solution(x, prob), 0.0)
        assert ridge_error(x, prob) == 0.0

    def test_error_matches_residuals(self):
        prob = RidgeProblem(lam=0.5, d=2)
        gen = SeededRng(11).generator()
        Z = gen.uniform(-0.5, 0.5, size=(10, 2))
        y = gen.uniform(-1, 1, size=10)
        x = np.column_stack([Z, y])
        w = ridge_solution(x, prob)
        assert ridge_error(x, prob) == pytest.approx(float(np.mean((Z @ w - y) ** 2)))

    def test_scalar_error_value(self):
        prob = RidgeProblem(lam=0.5, d=1)
        x = np.column_stack([np.ones(4), np.ones(4)])
        # residual (2/3 - 1)^2 from the scalar closed form
        assert ridge_error(x, prob) == pytest.approx(1.0 / 9.0)

    def test_error_bounded_by_zero_predictor(self):
        prob = RidgeProblem(lam=0.2, d=3)
        gen = SeededRng(12).generator()
        for _ in range(10):
            Z = gen.uniform(-0.5, 0.5, size=(12, 3))
            y = gen.uniform(-1, 1, size=12)
            x = np.column_stack([Z, y])
            assert ridge_error(x, prob) <= float(np.mean(y * y)) + 1e-12

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            RidgeProblem(lam=0.0, d=1)
        with pytest.raises(ValueError):
            RidgeProblem(lam=1.0, d=1)


def _looped_kernel_probe(kernel, domain, rng, probes=200):
    """Largest one-argument difference quotient of a kernel, one probe per
    loop step: the arguments of every probe, then every slot, then every
    moved argument are drawn first, each in one draw."""
    gen = rng.generator()
    args = domain.uniform(gen, (kernel.m, probes))
    slot = gen.integers(kernel.m, size=probes)
    alt = domain.uniform(gen, probes)
    worst = 0.0
    for t in range(probes):
        moved = list(args[:, t])
        moved[slot[t]] = alt[t]
        dist = float(np.linalg.norm(args[slot[t], t] - alt[t]))
        if dist < 1e-9:
            continue
        change = abs(float(kernel.evaluator(*args[:, t]) - kernel.evaluator(*moved)))
        worst = max(worst, change / dist)
    return worst


def _looped_weight_probe(F, rng, probes=500):
    """(max |F| on a grid, max difference quotient over random pairs), one
    pair per loop step: the spot check of the norms that
    analytic_seminorms_lstat takes."""
    gen = rng.generator()
    grid = np.linspace(0.0, 1.0, 101)
    sup = float(np.max(np.abs(np.asarray(F.evaluator(grid), dtype=float))))
    worst = 0.0
    for _ in range(probes):
        t, s = gen.uniform(0.0, 1.0, size=2)
        if abs(t - s) < 1e-9:
            continue
        quot = abs(float(F.evaluator(t)) - float(F.evaluator(s))) / abs(t - s)
        worst = max(worst, quot)
    return sup, worst


def _looped_loss_probe(loss, rng, probes=500, span=3.0):
    """(range excess beyond [0, 1], max difference quotient, below-indicator
    ok), one pair per loop step: the spot check of what the ranking
    certificate takes of a loss."""
    gen = rng.generator()
    ts = gen.uniform(-span, span, size=probes)
    vals = np.asarray(loss.evaluator(ts), dtype=float)
    excess = float(max(np.max(vals - 1.0, initial=0.0), np.max(-vals, initial=0.0)))
    worst = 0.0
    for _ in range(probes):
        t, s = gen.uniform(-span, span, size=2)
        if abs(t - s) < 1e-9:
            continue
        quot = abs(float(loss.evaluator(t)) - float(loss.evaluator(s))) / abs(t - s)
        worst = max(worst, quot)
    below = bool(np.all(vals <= (ts > 0).astype(float) + 1e-12))
    return excess, worst, below


def _one_pass_quotient(evaluator, t: np.ndarray, s: np.ndarray) -> float:
    """The loops' largest quotient from one evaluator call per side, over
    the pairs whose gap is at least 1e-9."""
    keep = np.abs(t - s) >= 1e-9
    change = (np.asarray(evaluator(t[keep]), dtype=float)
              - np.asarray(evaluator(s[keep]), dtype=float))
    return float(np.max(np.abs(change) / np.abs(t - s)[keep], initial=0.0))


class TestProbes:
    def test_product_kernel_constants_hold(self):
        worst = _looped_kernel_probe(product_kernel(), unit_interval(), SeededRng(1))
        assert worst <= 1.0 + 1e-9

    def test_trimming_weight_norms_hold(self):
        F = f_zeta_weight(0.25)
        sup, lip = _looped_weight_probe(F, SeededRng(2))
        assert sup <= F.sup_norm + 1e-9
        assert lip <= F.lip_norm + 1e-9

    def test_ramp_loss_certificates_hold(self):
        excess, lip, below = _looped_loss_probe(ramp_loss(), SeededRng(3))
        assert excess == 0.0
        assert lip <= 1.0 + 1e-9
        assert below


class TestProbesInOnePass:
    """A weight or a loss evaluates an array of pairs in one call, as
    l_statistic and smoothed_auc call it, with the bits of the one-pair
    loop; each stated norm, range and below-indicator flag holds on that
    loop's probes."""

    @pytest.mark.parametrize("seed", [0, 2, 11])
    @pytest.mark.parametrize("probes", [1, 7, 500])
    @pytest.mark.parametrize("F", [f_zeta_weight(0.25), f_zeta_weight(0.05), f_zeta_weight(0.0),
                                   constant_weight(-2.0)], ids=lambda F: F.label)
    def test_weight_probe_equals_the_loop(self, F, probes, seed):
        sup, lip = _looped_weight_probe(F, SeededRng(seed), probes)
        t, s = SeededRng(seed).generator().uniform(0.0, 1.0, size=(probes, 2)).T
        one_pass = _one_pass_quotient(F.evaluator, t, s)
        assert np.array_equal(np.array(one_pass).view(np.uint64), np.array(lip).view(np.uint64))
        assert sup <= F.sup_norm + 1e-9
        assert lip <= F.lip_norm + 1e-9

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("probes, span", [(1, 3.0), (7, 0.5), (500, 3.0), (500, 40.0)])
    @pytest.mark.parametrize("loss", [ramp_loss(), ramp_loss(0.25), indicator_loss()],
                             ids=lambda loss: loss.label)
    def test_loss_probe_equals_the_loop(self, loss, probes, span, seed):
        excess, lip, below = _looped_loss_probe(loss, SeededRng(seed), probes, span)
        gen = SeededRng(seed).generator()
        gen.uniform(-span, span, size=probes)  # the range probes come first
        t, s = gen.uniform(-span, span, size=(probes, 2)).T
        one_pass = _one_pass_quotient(loss.evaluator, t, s)
        assert np.array_equal(np.array(one_pass).view(np.uint64), np.array(lip).view(np.uint64))
        assert excess == 0.0
        assert lip <= loss.lipschitz_L + 1e-9
        assert below == loss.below_indicator

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_probe_draws_arguments_then_slots_then_moves(self, d):
        # the constant L = 1 holds on [0, 1] only; the products reach
        # sqrt(d) on the unit cube
        dom = box([0.0] * d, [1.0] * d)
        assert _looped_kernel_probe(product_kernel(), dom, SeededRng(4), 50) <= np.sqrt(d) + 1e-9
