import math

import numpy as np
import pytest

import weakstat.cli
import weakstat.complexity
from weakstat import (
    DomainViolationError,
    FunctionClass,
    LinearClass,
    RawSpace,
    SeededRng,
    box,
    class_complexity,
    evaluate_class,
    gaussian_average,
    gaussian_from_rademacher,
    rademacher_average,
    symmetric_interval,
    uniform_raw_space,
)
from weakstat.complexity import ComplexityEstimate, linear_gaussian_complexity


class TestGaussianAverage:
    def test_zero_vector_is_exactly_zero(self):
        est = gaussian_average(np.zeros((1, 3)), 1000, SeededRng(0))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_sign_pair_matches_half_normal_mean(self):
        est = gaussian_average(np.array([[1.0], [-1.0]]), 100000, SeededRng(1))
        target = math.sqrt(2.0 / math.pi)
        assert abs(est.mean - target) <= 3.0 * est.std_error

    def test_single_vector_is_mean_zero(self):
        est = gaussian_average(np.array([[1.0]]), 100000, SeededRng(2))
        assert abs(est.mean) <= 3.0 * est.std_error

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            gaussian_average(np.empty((0, 2)), 100, SeededRng(0))

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            gaussian_average(np.ones((1, 1)), 1, SeededRng(0))


class TestDrawBlock:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (1, 64), (2, 32), (5, 13), (2, 65),
                                       (64, 3)])
    def test_sign_64k_plus_b_is_bit_b_of_word_k(self, shape):
        # a set bit means +1; the next fill starts at the next unused word
        gen = SeededRng(4).generator()
        first, second = np.empty(shape), np.empty(shape)
        weakstat.complexity._fill_signs(gen, first)
        weakstat.complexity._fill_signs(gen, second)
        size = first.size
        used = -(-size // 64)
        words = SeededRng(4).generator().bit_generator.random_raw(2 * used)
        for block, offset in ((first, 0), (second, used)):
            bits = [(words[offset + i // 64] >> np.uint64(i % 64)) & np.uint64(1)
                    for i in range(size)]
            assert np.array_equal(block.reshape(-1), np.array(bits) * 2.0 - 1.0)

    def test_signs_are_balanced_and_uncorrelated(self):
        # 10^6 signs, column b from bit b of each of 15625 words; each count
        # lies within 5 standard deviations of its binomial mean (products of
        # neighbouring fair signs are fair signs, so agreements are binomial)
        words = 15625
        block = np.empty((words, 64))
        weakstat.complexity._fill_signs(SeededRng(8).generator(), block)
        signs = block.reshape(-1)

        def within(count, trials):
            return np.all(np.abs(count - trials / 2) <= 5.0 * math.sqrt(trials / 4))

        assert within(np.count_nonzero(signs > 0), signs.size)
        assert within(np.count_nonzero(signs[1:] == signs[:-1]), signs.size - 1)
        assert within(np.count_nonzero(block > 0, axis=0), words)


class TestRademacherSandwich:
    def test_certify_class_stays_below_its_closed_form(self):
        # For h_j(x) = w_j x, E sup_j w_j <eps, x> = (w_max - w_min) E|<eps, x>| / 2,
        # at most (w_max - w_min) sqrt(n E x^2) / 2 by Jensen.  On the sampler
        # [0, 1] signs that are all +1 would give about sum_i x_i = 32, so a
        # biased sign source fails here, while on [-1, 1] it could pass.
        config = {"function_class": {"kind": "linear", "count": 16},
                  "sampler": {"kind": "uniform", "low": 0.0, "high": 1.0}}
        fclass = weakstat.cli._linear_spec(config)
        weights = fclass.weights[:, 0]
        n = 64
        second_moment = fclass.raw_space.second_moment[0, 0]
        bound = (max(weights) - min(weights)) * math.sqrt(n * second_moment) / 2.0
        assert bound == pytest.approx(2.165, abs=1e-3)
        for seed in range(20):
            est = class_complexity(fclass, n, "rademacher", 32, 2048, SeededRng(seed))
            assert est.mean - 3.0 * est.std_error <= bound


class TestMemberMax:
    @pytest.mark.parametrize("members", [1, 2, 16, 17, 33])
    @pytest.mark.parametrize("ties", [False, True])
    def test_column_sweeps_equal_the_axis_max(self, members, ties):
        # bit for bit on finite products; small integers give exact ties
        gen = SeededRng(members, int(ties)).generator()
        if ties:
            prod = gen.integers(-2, 3, size=(2049, members)).astype(float)
        else:
            prod = gen.standard_normal((2049, members)) * 10.0 ** gen.integers(-3, 4, size=members)
        out = np.full(2049, np.nan)
        weakstat.complexity._member_max(prod, out)
        assert out.tobytes() == prod.max(axis=1).tobytes()


class TestRademacherAverage:
    def test_sign_pair_is_exactly_one(self):
        est = rademacher_average(np.array([[1.0], [-1.0]]), 500, SeededRng(3))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_zero_vector(self):
        est = rademacher_average(np.zeros((1, 4)), 500, SeededRng(4))
        assert est.mean == 0.0

    def test_diagonal_pair_mean(self):
        # oracle: max(<eps, (1,1)>, <eps, (-1,-1)>) = |eps1 + eps2|,
        # averaging 2, 0, 0, 2 over the four sign patterns = 1
        est = rademacher_average(np.array([[1.0, 1.0], [-1.0, -1.0]]), 40000, SeededRng(5))
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error


class TestMatchedSeedProperties:
    def test_supersets_never_decrease(self):
        small = np.array([[1.0, 0.0], [0.0, 1.0]])
        large = np.vstack([small, [[0.5, 0.5], [-1.0, 0.3]]])
        for seed in range(5):
            a = gaussian_average(small, 2000, SeededRng(seed))
            b = gaussian_average(large, 2000, SeededRng(seed))
            assert b.mean >= a.mean

    def test_scale_equivariance_is_exact(self):
        Y = np.array([[1.0, -2.0], [0.5, 0.25]])
        a = gaussian_average(Y, 3000, SeededRng(9))
        b = gaussian_average(2.5 * Y, 3000, SeededRng(9))
        assert b.mean == pytest.approx(2.5 * a.mean, rel=1e-12)

    def test_symmetric_sets_are_nonnegative(self):
        gen = SeededRng(10).generator()
        for seed in range(5):
            Y = gen.uniform(-1, 1, size=(3, 4))
            sym = np.vstack([Y, -Y])
            assert gaussian_average(sym, 500, SeededRng(seed)).mean >= 0.0
            assert rademacher_average(sym, 500, SeededRng(seed)).mean >= 0.0


def _point_mass_space(value: float) -> RawSpace:
    return RawSpace(lambda gen, n: np.full(n, value), label=f"delta({value})")


class TestClassComplexity:
    def test_constant_member_is_mean_zero(self):
        fc = FunctionClass(
            (lambda x: np.full(len(x), 0.5),), uniform_raw_space(), symmetric_interval(1.0)
        )
        est = class_complexity(fc, 8, "gaussian", outer_reps=8, inner_reps=2000,
                               rng=SeededRng(0))
        assert abs(est.mean) <= 3.0 * max(est.std_error, 1e-3)

    def test_sign_pair_class_matches_closed_form(self):
        n = 16
        fc = FunctionClass(
            (lambda x: x, lambda x: -x),
            _point_mass_space(1.0),
            symmetric_interval(1.0),
        )
        est = class_complexity(fc, n, "gaussian", outer_reps=8, inner_reps=20000,
                               rng=SeededRng(1))
        target = math.sqrt(2.0 * n / math.pi)
        assert abs(est.mean - target) <= 3.0 * max(est.std_error, 0.01)

    def test_duplicates_do_not_change_matched_seed_estimate(self):
        members = (lambda x: x, lambda x: -x)
        base = FunctionClass(members, uniform_raw_space(-1, 1), symmetric_interval(1.0))
        doubled = FunctionClass(members + members, uniform_raw_space(-1, 1),
                                symmetric_interval(1.0))
        a = class_complexity(base, 6, "rademacher", outer_reps=4, inner_reps=500,
                             rng=SeededRng(2))
        b = class_complexity(doubled, 6, "rademacher", outer_reps=4, inner_reps=500,
                             rng=SeededRng(2))
        assert a.mean == b.mean

    def test_outer_replicate_floor(self):
        fc = FunctionClass((lambda x: x,), uniform_raw_space(), symmetric_interval())
        with pytest.raises(ValueError):
            class_complexity(fc, 4, "gaussian", outer_reps=1, rng=SeededRng(0))

    @pytest.mark.parametrize("inner_reps", [1, 0, -3])
    def test_inner_replicate_floor(self, inner_reps):
        fc = FunctionClass((lambda x: x,), uniform_raw_space(), symmetric_interval())
        with pytest.raises(ValueError, match="at least 2 replicates"):
            class_complexity(fc, 4, "gaussian", inner_reps=inner_reps, rng=SeededRng(0))

    def test_domain_violations_propagate(self):
        from weakstat import DomainViolationError

        fc = FunctionClass(
            (lambda x: np.full(len(x), 5.0),), uniform_raw_space(), symmetric_interval(1.0)
        )
        with pytest.raises(DomainViolationError):
            class_complexity(fc, 4, "gaussian", outer_reps=2, inner_reps=16,
                             rng=SeededRng(0))


class TestLinearGaussianComplexity:
    def test_sign_class_plugin(self):
        # criterion 5's class: spread 2, n = 32, E x^2 = 1/3 on [-1, 1]
        g = linear_gaussian_complexity([0.125 * (j + 1) for j in range(8)]
                                       + [-0.125 * (j + 1) for j in range(8)], 32, 1.0 / 3.0)
        assert g.mean == pytest.approx(2.0 * math.sqrt(32.0 / 3.0) / math.sqrt(2.0 * math.pi))
        assert g.mean == pytest.approx(2.6059, abs=1e-4)
        assert (g.std_error, g.replicates, g.kind, g.method) == (0.0, 0, "gaussian",
                                                                  "closed_form")

    def test_single_member_gives_zero(self):
        assert linear_gaussian_complexity([0.7], 16, 0.5).mean == 0.0

    @pytest.mark.parametrize("weights, n, second_moment", [
        ([], 4, 1.0), ([[1.0, 2.0]], 4, 1.0), ([1.0], 0, 1.0), ([1.0], 4, -0.1),
        ([1.0], 4, math.nan),
    ])
    def test_bad_inputs_rejected(self, weights, n, second_moment):
        with pytest.raises(ValueError):
            linear_gaussian_complexity(weights, n, second_moment)


class TestPlanarGaussianComplexity:
    def test_column_weights_match_scalar_weights_bit_for_bit(self):
        weights = [0.3, -1.1, 0.7, 2.5]
        scalar = linear_gaussian_complexity(weights, 40, 0.37)
        column = linear_gaussian_complexity(np.array(weights)[:, None], 40, [[0.37]])
        padded = linear_gaussian_complexity(np.column_stack([weights, np.zeros(4)]), 40,
                                            np.diag([0.37, 2.0]))
        assert column.mean == scalar.mean == padded.mean
        assert scalar.mean == 3.6 * math.sqrt(40 * 0.37) / math.sqrt(2.0 * math.pi)

    def test_square_gives_perimeter_over_two_sqrt_two_pi(self):
        # the unit square with an interior point: perimeter 4 sqrt(n m)
        square = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [1, 0.5]]
        g = linear_gaussian_complexity(square, 9, np.eye(2) * 0.25)
        assert g.mean == pytest.approx(4.0 * 1.5 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-15)
        assert (g.std_error, g.replicates, g.method) == (0.0, 0, "closed_form")

    def test_singular_moment_measures_the_projection(self):
        # M = diag(m, 0): the hull folds onto its first-coordinate range
        pts = np.array([[0.2, 1.0], [-0.4, -3.0], [0.9, 0.5], [0.1, 2.0]])
        g = linear_gaussian_complexity(pts, 16, np.diag([0.5, 0.0]))
        assert g.mean == pytest.approx(linear_gaussian_complexity(pts[:, 0], 16, 0.5).mean,
                                       rel=1e-14)
        assert linear_gaussian_complexity(pts, 16, np.zeros((2, 2))).mean == 0.0

    def test_linear_map_of_the_weights(self):
        # <g, L^T w> depends on (L, w) only through L^T w: moving L into the
        # weights leaves the value unchanged
        gen = np.random.default_rng(3)
        W = gen.standard_normal((9, 2))
        B = gen.standard_normal((2, 2))
        g = linear_gaussian_complexity(W, 5, B @ B.T)
        moved = linear_gaussian_complexity(W @ B, 5, np.eye(2))
        assert g.mean == pytest.approx(moved.mean, rel=1e-12)

    @pytest.mark.parametrize("seed, n, count", [(0, 5, 3), (1, 30, 8), (2, 12, 16)])
    def test_conditional_perimeter_matches_gaussian_average(self, seed, n, count):
        # with M = X^T X and n = 1 the closed form is the exact conditional
        # complexity of the fixed sample X
        gen = SeededRng(seed).generator()
        X = gen.standard_normal((n, 2)) + [0.75, 0.0]
        W = gen.uniform(-1.0, 1.0, size=(count, 2))
        exact = linear_gaussian_complexity(W, 1, X.T @ X).mean
        est = gaussian_average(W @ X.T, 200000, SeededRng(seed, 1))
        assert abs(est.mean - exact) <= 4.0 * est.std_error

    @pytest.mark.parametrize("weights, second_moment", [
        ([[1.0, 0.0], [0.0, 1.0]], np.eye(3)),
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.4, 1.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]),
        ([[1.0, 0.0, 0.0]], np.eye(3)),
        ([1.0, 2.0], np.eye(1)),
        ([[1.0], [2.0]], [[-0.5]]),
    ])
    def test_bad_planar_inputs_rejected(self, weights, second_moment):
        with pytest.raises(ValueError):
            linear_gaussian_complexity(weights, 4, second_moment)


class TestLinearClass:
    def test_raw_space_without_moment_is_refused(self):
        fclass = LinearClass([1.0, -1.0], _point_mass_space(0.5), symmetric_interval(1.0))
        with pytest.raises(ValueError, match=r"'delta\(0.5\)' has no second moment"):
            fclass.gaussian_upper(8)

    def test_weight_beyond_the_moment_is_refused(self):
        space = RawSpace(lambda gen, n: np.zeros((n, 3)), "zeros", second_moment=np.eye(2))
        fclass = LinearClass([[1.0, 0.0, 0.0], [0.0, 0.0, 0.5]], space, box([-1.0], [1.0]))
        with pytest.raises(ValueError, match="beyond the 2 that"):
            fclass.gaussian_upper(8)
        # zero weights on the third coordinate are covered
        zeros = LinearClass([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], space, box([-1.0], [1.0]))
        assert zeros.gaussian_upper(8) == linear_gaussian_complexity(np.eye(2), 8, np.eye(2))

    def test_image_outside_the_box_names_member_and_datum(self):
        fclass = LinearClass([0.5, 2.0], uniform_raw_space(), box([0.0], [1.0]))
        with pytest.raises(DomainViolationError) as exc:
            evaluate_class(fclass, np.array([0.25, 0.75]))
        assert str(exc.value) == ("member 1 maps datum 1 outside the domain box at coordinate "
                                  "0: value 1.5 not in [0.0, 1.0]")


class TestConversion:
    def test_zero_maps_to_zero(self):
        assert gaussian_from_rademacher(0.0, 10) == 0.0

    def test_plugin_value(self):
        assert gaussian_from_rademacher(1.0, 1) == pytest.approx(3.0 * math.sqrt(math.log(2.0)))

    def test_monotone_in_n(self):
        vals = [gaussian_from_rademacher(1.0, n) for n in (1, 2, 5, 50)]
        assert vals == sorted(vals)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_from_rademacher(-0.1, 5)


class TestEstimateInvariants:
    def test_replicates_floor(self):
        with pytest.raises(ValueError):
            ComplexityEstimate(mean=1.0, std_error=0.1, replicates=1, kind="gaussian")

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            ComplexityEstimate(mean=1.0, std_error=0.1, replicates=4, kind="cauchy")

    def test_closed_form_has_no_replicates_or_error(self):
        ComplexityEstimate(mean=1.0, std_error=0.0, replicates=0, kind="gaussian",
                           method="closed_form")
        for se, reps in ((0.1, 0), (0.0, 4)):
            with pytest.raises(ValueError):
                ComplexityEstimate(mean=1.0, std_error=se, replicates=reps, kind="gaussian",
                                   method="closed_form")

    def test_method_checked(self):
        with pytest.raises(ValueError):
            ComplexityEstimate(mean=1.0, std_error=0.1, replicates=4, kind="gaussian",
                               method="guess")
