import numpy as np
import pytest

from weakstat import (
    RidgeProblem,
    SeededRng,
    Statistic,
    analytic_seminorms_auc,
    analytic_seminorms_lstat,
    analytic_seminorms_ustat,
    auc_statistic,
    box,
    constant_weight,
    derivative_seminorms,
    double_difference,
    empirical_seminorms,
    f_zeta_weight,
    lstat_statistic,
    mean_statistic,
    partial_difference,
    product_kernel,
    ramp_loss,
    ridge_error_statistic,
    u_stat_statistic,
    unit_interval,
    v_stat_statistic,
)
from weakstat import seminorms
from weakstat.seminorms import BudgetError, StepError

FLOAT_SLACK = 1e-9  # relative allowance when a search lands exactly on the supremum


class TestPartialDifference:
    def test_mean_is_linear_response(self):
        f = mean_statistic(4)
        x = np.full((4, 1), 0.5)
        assert partial_difference(f, x, 2, 0.9, 0.1) == pytest.approx(0.2)

    def test_equal_points_give_zero(self):
        f = mean_statistic(4)
        x = SeededRng(0).generator().uniform(size=(4, 1))
        assert partial_difference(f, x, 1, 0.3, 0.3) == 0.0

    def test_constant_weight_lstat_reduces_to_mean(self):
        f = lstat_statistic(constant_weight(1.0), 5)
        x = SeededRng(1).generator().uniform(size=(5, 1))
        assert partial_difference(f, x, 0, 1.0, 0.0) == pytest.approx(0.2)

    def test_index_error(self):
        f = mean_statistic(4)
        with pytest.raises(IndexError):
            partial_difference(f, np.zeros((4, 1)), 4, 0.1, 0.2)


def _product_of_first_two(n: int) -> Statistic:
    return Statistic(lambda pts: pts[..., 0, 0] * pts[..., 1, 0], unit_interval(), n, "x1*x2")


class TestDoubleDifference:
    def test_mean_has_no_interactions(self):
        f = mean_statistic(5)
        gen = SeededRng(2).generator()
        for _ in range(20):
            x = gen.uniform(size=(5, 1))
            y, yp, z, zp = gen.uniform(size=4)
            assert double_difference(f, x, 1, 3, y, yp, z, zp) == pytest.approx(0.0, abs=1e-14)

    def test_trivial_when_pair_collapses(self):
        f = _product_of_first_two(3)
        x = np.full((3, 1), 0.5)
        assert double_difference(f, x, 0, 1, 0.4, 0.4, 0.9, 0.1) == 0.0

    def test_bilinear_expansion(self):
        f = _product_of_first_two(2)
        x = np.zeros((2, 1))
        # oracle: (1*1 - 0*1) - (1*0 - 0*0) = 1
        assert double_difference(f, x, 0, 1, 1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_order_symmetry_is_exact(self):
        f = _product_of_first_two(4)
        gen = SeededRng(3).generator()
        for _ in range(20):
            x = gen.uniform(size=(4, 1))
            y, yp, z, zp = gen.uniform(size=4)
            assert double_difference(f, x, 0, 1, y, yp, z, zp) == double_difference(
                f, x, 1, 0, z, zp, y, yp
            )

    def test_same_index_rejected(self):
        with pytest.raises(IndexError):
            double_difference(mean_statistic(3), np.zeros((3, 1)), 1, 1, 0, 1, 0, 1)


class TestEmpiricalSearch:
    def test_mean_recovers_known_values(self):
        f = mean_statistic(5)
        rep = empirical_seminorms(f, 20000, SeededRng(0))
        assert 0.95 / 5 <= rep.m_lip <= (1.0 / 5) * (1 + FLOAT_SLACK)
        assert rep.j_lip <= 1e-9
        assert rep.method == "empirical_search"
        assert rep.search_evals > 0
        assert rep.argmax_witness is not None

    def test_constant_statistic_all_zero(self):
        f = Statistic(lambda pts: np.full(pts.shape[:-2], 3.5), unit_interval(), 4, "const")
        rep = empirical_seminorms(f, 4000, SeededRng(1))
        assert rep.m_lip == 0.0 and rep.j_lip == 0.0
        assert rep.m_plain == 0.0 and rep.j_plain == 0.0

    def test_zero_budget_rejected(self):
        with pytest.raises(BudgetError):
            empirical_seminorms(mean_statistic(3), 0, SeededRng(0))

    @pytest.mark.parametrize("lower, upper", [(1e307, 1.7e308), (0.0, 1e200)])
    def test_overflowing_diameter_rejected(self, lower, upper):
        # a finite width whose norm overflows gives an infinite separation
        # floor, under which the search would keep no pair
        f = lstat_statistic(f_zeta_weight(0.25), 8, box([lower], [upper]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="separation floor"):
                empirical_seminorms(f, 2000, SeededRng(5))

    def test_auc_search_attains_grid_oracle(self):
        n = 4
        f = auc_statistic(ramp_loss(), n)
        # independent oracle: coarse grid over (x3, x4, y, y') for k=0; the
        # supremum 2L/n is attained on this grid at x3=x4=0, y'=0.5, y=1
        grid = np.linspace(0.0, 1.0, 11)
        oracle = 0.0
        for x3 in grid:
            for x4 in grid:
                x = np.array([[0.0], [0.0], [x3], [x4]])
                for y in grid:
                    for yp in grid:
                        if abs(y - yp) < 0.05:
                            continue
                        ratio = abs(partial_difference(f, x, 0, y, yp)) / abs(y - yp)
                        oracle = max(oracle, ratio)
        assert oracle == pytest.approx(0.5)
        rep = empirical_seminorms(f, 20000, SeededRng(7))
        assert rep.m_lip >= 0.45
        assert rep.m_lip <= 0.5 * (1 + FLOAT_SLACK)

    def test_search_is_deterministic(self):
        f = auc_statistic(ramp_loss(), 4)
        a = empirical_seminorms(f, 5000, SeededRng(3))
        b = empirical_seminorms(f, 5000, SeededRng(3))
        assert (a.m_lip, a.j_lip, a.m_plain, a.j_plain) == (b.m_lip, b.j_lip, b.m_plain, b.j_plain)

    def test_sign_change_leaves_values_unchanged(self):
        base = mean_statistic(6)
        neg = Statistic(lambda pts: -np.mean(pts[..., 0], axis=-1), base.domain, base.n, "-mean")
        a = empirical_seminorms(base, 6000, SeededRng(4))
        b = empirical_seminorms(neg, 6000, SeededRng(4))
        assert (a.m_lip, a.j_lip, a.m_plain, a.j_plain) == (b.m_lip, b.j_lip, b.m_plain, b.j_plain)

    def test_subadditivity_over_shared_probes(self, monkeypatch):
        n = 6
        dom = unit_interval()
        f = mean_statistic(n, dom)
        g = lstat_statistic(f_zeta_weight(0.25), n, dom)
        a, b = 0.7, 0.5
        combo = Statistic(
            lambda pts: a * f.evaluator(pts) + b * g.evaluator(pts), dom, n, "combo"
        )
        # pure exploration: probes depend only on the seed, so all three
        # searches scan exactly the same points and subadditivity is exact
        monkeypatch.setattr(seminorms, "_EXPLORE_FRACTION", 1.0)
        monkeypatch.setattr(seminorms, "_RESTARTS", 4)
        rc = empirical_seminorms(combo, 8000, SeededRng(5))
        rf = empirical_seminorms(f, 8000, SeededRng(5))
        rg = empirical_seminorms(g, 8000, SeededRng(5))
        assert rc.m_lip <= a * rf.m_lip + b * rg.m_lip + 1e-12
        assert rc.j_lip <= a * rf.j_lip + b * rg.j_lip + 1e-12

    @pytest.mark.parametrize("f, expected", [
        (mean_statistic(5),
         (0.20000000000000717, 6.569466937814278e-14, 0.20000000000000012,
          2.220446049250313e-15, 3928)),
        (lstat_statistic(f_zeta_weight(0.25), 8),
         (0.16666666666667385, 0.3333333333333476, 0.16516620076404076,
          0.2518255178810733, 3960)),
        # the cases below also pin the witness: (k, x, y, y')
        (auc_statistic(ramp_loss(), 4),
         (0.5000000000000036, 1.000000000000011, 0.5, 0.9999999999999999, 3972,
          (2, [[0.8614208716441659], [0.40056847434876797], [0.39898519686095507],
               [0.5773671949363511]], [0.0], [0.028938346692042108]))),
        (u_stat_statistic(product_kernel(), 8, unit_interval()),
         (0.23910035329090815, 0.2857142857142882, 0.23505191070456444,
          0.2857142857142856, 3974,
          (7, [[0.9467119689379041], [1.0], [1.0], [0.9762708009790659],
               [0.8355767988294237], [0.9362503233990329], [1.0], [0.33887050684001674]],
           [0.028768508743671317], [0.9909251004267468]))),
        (v_stat_statistic(product_kernel(), 8, unit_interval()),
         (0.21548717511164736, 0.250000000000002, 0.21172926046671892, 0.25, 3974,
          (7, [[1.0], [1.0], [1.0], [0.5421068066631718], [0.9034444116685546],
               [0.9509562158301104], [0.9892353648256689], [1.0]],
           [0.028768508743671317], [0.9909251004267468]))),
        (ridge_error_statistic(RidgeProblem(0.5, 2), 4),
         (0.4720153446956007, 1.0075439715764951, 0.5215431480766632, 1.8340275225337301,
          3984,
          (0, [[-0.10048551892715962, -0.08986505319272749, 0.6003008382299153],
               [0.7445032603781341, 0.06748289958891254, -0.7149725283578157],
               [0.16741646792452403, 0.16931192190619784, -0.8538384785060448],
               [1.0, -0.618117590500758, -0.8223311240000638]],
           [0.3207332108278958, -0.4026874638139275, 0.9199687478210078],
           [0.12779593683027132, -0.5379701857937776, 0.6336399121175572]))),
    ])
    def test_golden_values(self, f, expected):
        # exact floats of the search at a fixed seed, pinned so that a
        # refactor of the search cannot change any result document
        rep = empirical_seminorms(f, 4000, SeededRng(13))
        assert (rep.m_lip, rep.j_lip, rep.m_plain, rep.j_plain, rep.search_evals) == expected[:5]
        if len(expected) > 5:
            k, *rows = rep.argmax_witness
            assert (k, *(r.tolist() for r in rows)) == expected[5]

    def test_constant_statistic_draws_no_refinement(self):
        f = Statistic(lambda pts: np.full(pts.shape[:-2], 3.5), unit_interval(), 4, "const")
        rep = empirical_seminorms(f, 4000, SeededRng(1))
        assert (rep.m_lip, rep.j_lip, rep.m_plain, rep.j_plain) == (0.0, 0.0, 0.0, 0.0)
        assert rep.argmax_witness is None
        # each of the 8 restarts per order explores 80% of its probes and,
        # with no witness to refine, stops there: 100 probes of 2 corners
        # at order 1 and 50 of 4 corners at order 2
        assert rep.search_evals == 8 * (100 * 2 + 50 * 4)

    @pytest.mark.parametrize("block", [1, 16])
    def test_underflowing_ratios_refine_the_range_witness_alone(self, block, monkeypatch):
        # differences of one subnormal unit over pairs at least 20 apart:
        # every ratio underflows to 0, so only the range witness is set and
        # only the odd refinement steps run (2 restarts x 37 steps x 2 corners)
        monkeypatch.setattr(seminorms, "_REFINE_BLOCK", block)
        monkeypatch.setattr(seminorms, "_RESTARTS", 2)
        f = Statistic(lambda pts: 5e-324 * (pts[..., 0] > 0.0).sum(axis=-1),
                      box([-1000.0], [1000.0]), 4, "tiny")
        rep = empirical_seminorms(f, 3000, SeededRng(3))
        assert (rep.m_lip, rep.m_plain, rep.argmax_witness) == (0.0, 5e-324, None)
        assert rep.search_evals == 2400 + 2 * 37 * 2

    def test_unbatched_statistic_gives_the_batched_report(self):
        f = auc_statistic(ramp_loss(), 4)
        # evaluated one configuration at a time
        one = Statistic(lambda s: np.array([f.value(p) for p in s]), f.domain, f.n, f.label)
        a = empirical_seminorms(f, 3000, SeededRng(8))
        b = empirical_seminorms(one, 3000, SeededRng(8))
        assert (a.m_lip, a.j_lip, a.m_plain, a.j_plain, a.search_evals) == \
            (b.m_lip, b.j_lip, b.m_plain, b.j_plain, b.search_evals)
        for u, v in zip(a.argmax_witness, b.argmax_witness):
            assert np.array_equal(u, v)

    def test_range_values_bounded_by_lipschitz_times_diameter(self):
        for f in (
            mean_statistic(5),
            auc_statistic(ramp_loss(), 4),
            lstat_statistic(f_zeta_weight(0.25), 6),
        ):
            rep = empirical_seminorms(f, 8000, SeededRng(6))
            diam = f.domain.diameter
            assert rep.m_plain <= rep.m_lip * diam * (1 + FLOAT_SLACK)
            assert rep.j_plain <= rep.j_lip * diam * (1 + FLOAT_SLACK) + 1e-15


class TestAnalyticBounds:
    def test_ustat_first_order(self):
        rep = analytic_seminorms_ustat(1.0, 1.0, 1, 10)
        assert rep.m_lip == pytest.approx(0.1)
        assert rep.j_lip == pytest.approx(0.1)
        assert rep.method == "analytic_bound"

    def test_ustat_second_order_scaling(self):
        rep = analytic_seminorms_ustat(1.0, 1.0, 2, 8)
        assert rep.j_lip == pytest.approx(0.5)

    def test_ustat_zero_constants(self):
        rep = analytic_seminorms_ustat(0.0, 0.0, 2, 8)
        assert rep.m_lip == 0 and rep.j_lip == 0 and rep.m_plain == 0 and rep.j_plain == 0

    def test_auc_values(self):
        rep = analytic_seminorms_auc(1.0, 4)
        assert rep.m_lip == pytest.approx(0.5)
        assert rep.j_lip == pytest.approx(2.0)
        assert rep.m_plain == pytest.approx(0.5)

    def test_auc_zero_lipschitz(self):
        rep = analytic_seminorms_auc(0.0, 4)
        assert rep.m_lip == 0.0 and rep.j_lip == 0.0

    def test_auc_odd_n_rejected(self):
        with pytest.raises(ValueError):
            analytic_seminorms_auc(1.0, 5)

    def test_lstat_constant_weight(self):
        rep = analytic_seminorms_lstat(constant_weight(1.0), 1.0, 10)
        assert rep.m_lip == pytest.approx(0.1)
        assert rep.j_lip == 0.0
        assert rep.m_plain == pytest.approx(0.1)

    def test_lstat_trimming_weight_slope(self):
        n, diam = 8, 1.0
        rep = analytic_seminorms_lstat(f_zeta_weight(0.25), diam, n)
        assert rep.j_lip == pytest.approx(diam * (8.0 / 3.0) / n)

    def test_lstat_zero_weight(self):
        rep = analytic_seminorms_lstat(constant_weight(0.0), 1.0, 10)
        assert rep.m_lip == 0.0 and rep.m_plain == 0.0


class TestSeminormReport:
    _FIELDS = ("m_lip", "j_lip", "m_plain", "j_plain")

    def _report(self, name, value):
        values = {field: 0.5 for field in self._FIELDS}
        values[name] = value
        return seminorms.SeminormReport(**values, method=seminorms.ANALYTIC_BOUND)

    @pytest.mark.parametrize("name", _FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), -1.0, -np.inf])
    def test_nan_and_negative_values_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            self._report(name, value)

    @pytest.mark.parametrize("name", _FIELDS)
    def test_an_infinite_value_is_written_as_null(self, name):
        # the closed form of a weight with an infinite Lipschitz norm
        doc = self._report(name, np.inf).to_dict()
        assert doc[name] is None
        assert all(doc[field] == 0.5 for field in self._FIELDS if field != name)


class TestSandwich:
    @pytest.mark.parametrize("seed", range(3))
    def test_empirical_below_analytic(self, seed):
        cases = [
            (auc_statistic(ramp_loss(), 4), analytic_seminorms_auc(1.0, 4)),
            (
                u_stat_statistic(product_kernel(), 8, unit_interval()),
                analytic_seminorms_ustat(1.0, 1.0, 2, 8),
            ),
            (
                lstat_statistic(f_zeta_weight(0.25), 8),
                analytic_seminorms_lstat(f_zeta_weight(0.25), 1.0, 8),
            ),
        ]
        for f, bound in cases:
            emp = empirical_seminorms(f, 8000, SeededRng(seed))
            for name in ("m_lip", "j_lip", "m_plain", "j_plain"):
                assert getattr(emp, name) <= getattr(bound, name) * (1 + FLOAT_SLACK) + 1e-12


def _random_box(gen):
    """An interval of diameter log-uniform on [0.05, 20], placed in [-10, 30]."""
    diam = float(np.exp(gen.uniform(np.log(0.05), np.log(20.0))))
    lower = float(gen.uniform(-10.0, 10.0))
    return box([lower], [lower + diam])


class TestLstatOffTheUnitBox:
    """The L-statistic closed form holds on boxes of any diameter: J_Lip is
    scale-free, so no diameter enters it (ROADMAP item 29)."""

    @pytest.mark.parametrize("zeta", [0.05, 0.125, 0.25])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_search_stays_below_the_closed_form(self, n, zeta):
        F, gen = f_zeta_weight(zeta), SeededRng(n, int(zeta * 1000)).generator()
        for rep in range(3):
            dom = _random_box(gen)
            emp = empirical_seminorms(lstat_statistic(F, n, dom), 6000, SeededRng(rep))
            bound = analytic_seminorms_lstat(F, dom.diameter, n)
            for name in ("m_lip", "j_lip", "m_plain", "j_plain"):
                assert getattr(emp, name) <= getattr(bound, name) * (1 + FLOAT_SLACK) + 1e-12

    def test_search_reaches_the_closed_form_j_lip(self):
        # at zeta = 0.25 a rank step moves the weight by lip_norm / n, and
        # the search finds it on a box of diameter 0.3 as on one of 20
        n, F = 8, f_zeta_weight(0.25)
        for dom in (box([0.0], [0.3]), box([-10.0], [10.0])):
            emp = empirical_seminorms(lstat_statistic(F, n, dom), 6000, SeededRng(5))
            assert emp.j_lip >= 0.95 * analytic_seminorms_lstat(F, dom.diameter, n).j_lip


# family -> (degree p of homogeneity, closed form on the box scaled by c):
# scaling the box by c (and the AUC's ramp width with it) scales the
# statistic by c^p
_SCALED_FORMS = {
    "mean": (1, lambda c: analytic_seminorms_lstat(constant_weight(1.0), c * 1.5, 8)),
    "lstat": (1, lambda c: analytic_seminorms_lstat(f_zeta_weight(0.125), c * 1.5, 8)),
    "auc": (0, lambda c: analytic_seminorms_auc(1.0 / (c * 0.5), 8)),
}


@pytest.mark.parametrize("family", sorted(_SCALED_FORMS))
@pytest.mark.parametrize("c", [2.0**-6, 0.5, 2.0, 2.0**9, 0.3, 7.0])
def test_closed_forms_scale_with_the_box(family, c):
    # m_lip and j_lip scale by c^(p - 1), m_plain and j_plain by c^p;
    # exactly at powers of two, where every product and quotient is exact
    p, form = _SCALED_FORMS[family]
    base, scaled = form(1.0), form(c)
    exact = np.log2(c).is_integer()
    for name, power in (("m_lip", p - 1), ("j_lip", p - 1), ("m_plain", p), ("j_plain", p)):
        want = getattr(base, name) * c**power
        assert getattr(scaled, name) == (want if exact else pytest.approx(want, rel=1e-12))


class TestDerivativeSeminorms:
    def test_mean_gradient_is_one_over_n(self):
        f = mean_statistic(4)
        rep = derivative_seminorms(f, f.domain.diameter, probes=3, rng=SeededRng(0))
        assert rep.m_lip == pytest.approx(0.25, rel=1e-6)
        assert rep.j_lip == pytest.approx(0.0, abs=1e-6)
        assert rep.method == "derivative_estimate"

    def test_oversized_step_rejected(self):
        f = mean_statistic(4)
        with pytest.raises(StepError):
            derivative_seminorms(f, f.domain.diameter, probes=2, rng=SeededRng(0), step=0.6)

    def test_probe_budget_required(self):
        f = mean_statistic(4)
        with pytest.raises(BudgetError):
            derivative_seminorms(f, f.domain.diameter, probes=0, rng=SeededRng(0))

    def test_ridge_golden_values(self):
        # d = 2 makes each gradient block a vector, so at this seed the
        # norm's reduction order shows in m_lip (a summed square, as
        # np.linalg.norm(axis=1) takes it, gives 0.46098433642921144); each
        # Hessian entry is a double difference ((v0 + v3) - (v1 + v2)) / 4h^2
        f = ridge_error_statistic(RidgeProblem(0.5, 2), 4)
        rep = derivative_seminorms(f, f.domain.diameter, probes=3, rng=SeededRng(2))
        assert rep.m_lip == 0.4609843364292115
        assert rep.j_lip == 3.379281296736545
        assert rep.search_evals == 504
