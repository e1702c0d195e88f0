import dataclasses
import math

import numpy as np
import pytest

from weakstat import (
    SeededRng,
    Statistic,
    class_complexity,
    f_zeta_weight,
    fk_decompose,
    fk_difference_check,
    fk_term,
    jlip_lemma_check,
    linear_class,
    lstat_condition_check,
    lstat_statistic,
    mean_statistic,
    product_kernel,
    sup_deviation_estimate,
    symmetric_interval,
    uniform_raw_space,
    unit_interval,
    v_stat_statistic,
    vk_vector,
)
from weakstat.bounds import UnboundedLipschitzError
from weakstat.core import BATCH_BLOCK
from weakstat.seminorms import BudgetError


def _cubic_statistic(n: int, seed: int) -> Statistic:
    gen = SeededRng(seed).generator()
    c1 = gen.uniform(-1, 1, size=n)
    c2 = gen.uniform(-1, 1, size=(n, n))
    c3 = gen.uniform(-1, 1, size=n)

    def ev(pts):
        v = pts[:, 0]
        return float(c1 @ v + v @ c2 @ v + c3 @ (v**3))

    return Statistic(ev, unit_interval(), n, f"cubic({seed})")


class TestFkDecompose:
    def test_single_coordinate_base_case(self):
        f = _cubic_statistic(1, 0)
        x, xp = np.array([[0.8]]), np.array([[0.1]])
        dec = fk_decompose(f, x, xp)
        assert dec.terms[0] == pytest.approx(f.value(x) - f.value(xp))
        assert dec.residual <= 1e-12

    def test_mean_telescopes(self):
        f = mean_statistic(3)
        dec = fk_decompose(f, np.ones((3, 1)), np.zeros((3, 1)))
        assert sum(dec.terms) == pytest.approx(1.0)
        assert dec.residual <= 1e-12

    def test_random_cubic_identity(self):
        f = _cubic_statistic(8, 3)
        gen = SeededRng(4).generator()
        for _ in range(10):
            x = gen.uniform(size=(8, 1))
            xp = gen.uniform(size=(8, 1))
            dec = fk_decompose(f, x, xp)
            assert dec.ok(1e-9)

    def test_golden_values(self):
        # exact floats at a fixed input, pinned so that a refactor of the
        # swap enumeration cannot change any result document
        f = _cubic_statistic(6, 5)
        gen = SeededRng(6).generator()
        x, xp = gen.uniform(size=(6, 1)), gen.uniform(size=(6, 1))
        dec = fk_decompose(f, x, xp)
        assert dec.terms == (0.37526346913759756, 0.04946192798960004, -0.05687614501705675,
                             0.031118690518820203, 0.29870458431168295, 0.17924664662621553)
        assert dec.lhs == 0.8769191735668596
        assert dec.residual == 0.0

    @pytest.mark.parametrize("f", [
        v_stat_statistic(product_kernel(), 9, unit_interval()),
        lstat_statistic(f_zeta_weight(0.25), 9),
    ], ids=["vstat", "lstat"])
    def test_batched_equals_scalar_evaluation(self, f):
        # the 2^9 swap configurations span several blocks of the batched path
        assert f.batched and 2**9 > 2 * BATCH_BLOCK
        gen = SeededRng(8).generator()
        x, xp = gen.uniform(size=(9, 1)), gen.uniform(size=(9, 1))
        batched = fk_decompose(f, x, xp)
        scalar = fk_decompose(dataclasses.replace(f, batched=False), x, xp)
        assert batched.terms == scalar.terms
        assert batched.lhs == scalar.lhs
        assert batched.residual == scalar.residual

    def test_size_budget(self):
        f = mean_statistic(15)
        with pytest.raises(BudgetError):
            fk_decompose(f, np.zeros((15, 1)), np.ones((15, 1)))


class TestFkTermSymmetries:
    def test_exchanging_earlier_rows_leaves_term_invariant(self):
        f = _cubic_statistic(6, 7)
        gen = SeededRng(8).generator()
        x, xp = gen.uniform(size=(6, 1)), gen.uniform(size=(6, 1))
        k = 4
        for i in range(k):
            xs, xps = x.copy(), xp.copy()
            xs[i], xps[i] = xp[i], x[i]
            assert fk_term(f, xs, xps, k) == pytest.approx(fk_term(f, x, xp, k), abs=1e-9)

    def test_exchanging_active_rows_negates_exactly(self):
        f = _cubic_statistic(5, 9)
        gen = SeededRng(10).generator()
        x, xp = gen.uniform(size=(5, 1)), gen.uniform(size=(5, 1))
        k = 2
        xs, xps = x.copy(), xp.copy()
        xs[k], xps[k] = xp[k], x[k]
        assert fk_term(f, xs, xps, k) == -fk_term(f, x, xp, k)


class TestJlipLemma:
    def test_identical_configurations(self):
        f = mean_statistic(4)
        x = SeededRng(0).generator().uniform(size=(4, 1))
        res = jlip_lemma_check(f, x, x, 1, 0.9, 0.2, j_lip_bound=0.0)
        assert res.passed and res.lhs == 0.0

    def test_mean_has_zero_interaction(self):
        f = mean_statistic(5)
        gen = SeededRng(1).generator()
        for _ in range(20):
            x, xp = gen.uniform(size=(5, 1)), gen.uniform(size=(5, 1))
            res = jlip_lemma_check(f, x, xp, 2, 0.7, 0.1, j_lip_bound=0.0)
            assert res.passed

    def test_bilinear_statistic_with_unit_bound(self):
        n = 2
        f = Statistic(lambda pts: pts[0, 0] * pts[1, 0] / n, unit_interval(), n, "x1x2/n")
        gen = SeededRng(2).generator()
        for _ in range(200):
            x, xp = gen.uniform(size=(n, 1)), gen.uniform(size=(n, 1))
            a, b = gen.uniform(size=2)
            res = jlip_lemma_check(f, x, xp, int(gen.integers(n)), a, b, j_lip_bound=1.0)
            assert res.passed


class TestFkDifference:
    def test_identical_pairs(self):
        f = mean_statistic(4)
        x = SeededRng(3).generator().uniform(size=(4, 1))
        xp = SeededRng(4).generator().uniform(size=(4, 1))
        res = fk_difference_check(f, x, xp, x, xp, 1, m_lip=0.25, j_lip=0.0)
        assert res.passed and res.lhs == 0.0 and res.rhs == 0.0

    def test_mean_pairs_hold(self):
        f = mean_statistic(4)
        gen = SeededRng(5).generator()
        for _ in range(30):
            x, xp, y, yp = (gen.uniform(size=(4, 1)) for _ in range(4))
            res = fk_difference_check(f, x, xp, y, yp, int(gen.integers(4)),
                                      m_lip=0.25, j_lip=0.0)
            assert res.passed

    def test_cubic_pairs_hold_with_generous_bounds(self):
        f = _cubic_statistic(5, 11)
        # crude but certified constants: each coordinate moves the cubic by
        # at most |c1_k| + 2 sum|c2| + 3|c3_k| per unit distance on [0,1]
        gen = SeededRng(12).generator()
        m_bound = 30.0
        j_bound = 30.0
        for _ in range(20):
            x, xp, y, yp = (gen.uniform(size=(5, 1)) for _ in range(4))
            res = fk_difference_check(f, x, xp, y, yp, int(gen.integers(5)),
                                      m_lip=m_bound, j_lip=j_bound)
            assert res.passed

    def test_vk_vector_structure(self):
        x = np.arange(1.0, 5.0)[:, None]
        xp = -x
        v = vk_vector(x, xp, 2, m_lip=0.5, j_lip=math.sqrt(4.0))
        # entries k and n+k carry the 2 m_lip scaling, the rest j_lip/sqrt(n)
        assert v.values[2] == pytest.approx(2 * 0.5 * 3.0)
        assert v.values[6] == pytest.approx(2 * 0.5 * -3.0)
        others = np.delete(v.values, [2, 6])
        expected = np.delete(
            np.concatenate([x[:, 0], xp[:, 0]]) * (2.0 / 2.0), [2, 6]
        )
        assert np.allclose(others, expected)


class TestSupDeviation:
    def test_singleton_class_is_centered(self):
        n = 16
        dom = symmetric_interval(1.0)
        fclass = linear_class([1.0], uniform_raw_space(-1, 1), dom)
        f = mean_statistic(n, dom)
        est = sup_deviation_estimate(f, fclass, outer_reps=64, pop_reps=8,
                                     rng=SeededRng(0))
        assert abs(est.mean) <= 3.0 * est.std_error

    def test_sign_pair_matches_direct_simulation(self):
        n = 16
        dom = symmetric_interval(1.0)
        fclass = linear_class([1.0, -1.0], uniform_raw_space(-1, 1), dom)
        f = mean_statistic(n, dom)
        est = sup_deviation_estimate(f, fclass, outer_reps=300, pop_reps=4,
                                     rng=SeededRng(1))
        # independent oracle: sup over {h, -h} of (pop - emp) is
        # |pop_mean - sample_mean|; simulate it with plain numpy
        gen = SeededRng(2).generator()
        vals = []
        for _ in range(300):
            emp = gen.uniform(-1, 1, size=n).mean()
            pop = gen.uniform(-1, 1, size=(4, n)).mean()
            vals.append(abs(pop - emp))
        direct = float(np.mean(vals))
        direct_se = float(np.std(vals, ddof=1) / math.sqrt(300))
        assert abs(est.mean - direct) <= 3.0 * (est.std_error + direct_se)

    def test_classical_two_over_n_rademacher_bound(self):
        n = 16
        dom = symmetric_interval(1.0)
        weights = [(j + 1) / 4 for j in range(4)]
        fclass = linear_class(weights + [-w for w in weights],
                              uniform_raw_space(-1, 1), dom)
        f = mean_statistic(n, dom)
        r_hat = class_complexity(fclass, n, "rademacher", outer_reps=16,
                                 inner_reps=1024, rng=SeededRng(3))
        for seed in range(3):
            est = sup_deviation_estimate(f, fclass, outer_reps=32, pop_reps=16,
                                         rng=SeededRng(seed, 30))
            bound = (2.0 / n) * (r_hat.mean + 3.0 * r_hat.std_error)
            assert est.mean <= bound + 3.0 * est.std_error


class TestLstatConditions:
    def test_disjoint_intervals_force_zero_interaction(self):
        F = f_zeta_weight(0.25)
        x = SeededRng(6).generator().uniform(size=(8, 1))
        first, second = lstat_condition_check(F, x, 0, 3, 0.1, 0.2, 0.8, 0.9)
        assert second.rhs == 0.0
        assert second.passed  # the interaction itself must vanish within tolerance

    def test_collapsed_pair_zeroes_both_sides(self):
        F = f_zeta_weight(0.25)
        x = SeededRng(7).generator().uniform(size=(6, 1))
        first, second = lstat_condition_check(F, x, 1, 4, 0.5, 0.5, 0.3, 0.9)
        assert first.lhs == 0.0 and second.lhs == 0.0
        assert first.passed and second.passed

    def test_random_probes_never_violate(self):
        F = f_zeta_weight(0.25)
        gen = SeededRng(8).generator()
        n = 10
        for _ in range(500):
            x = gen.uniform(size=(n, 1))
            k = int(gen.integers(n))
            l = int(gen.integers(n - 1))
            if l >= k:
                l += 1
            y, yp, z, zp = gen.uniform(size=4)
            first, second = lstat_condition_check(F, x, k, l, y, yp, z, zp)
            assert first.passed and second.passed

    def test_step_weight_is_refused(self):
        x = SeededRng(10).generator().uniform(size=(4, 1))
        with pytest.raises(UnboundedLipschitzError):
            lstat_condition_check(f_zeta_weight(0.0), x, 0, 1, 0.1, 0.2, 0.8, 0.9)

    def test_records_serialize(self):
        F = f_zeta_weight(0.25)
        x = SeededRng(9).generator().uniform(size=(5, 1))
        first, _ = lstat_condition_check(F, x, 0, 2, 0.4, 0.6, 0.1, 0.9)
        rec = first.to_record()
        assert set(rec) == {"check", "inputs", "lhs", "rhs", "slack", "pass"}
