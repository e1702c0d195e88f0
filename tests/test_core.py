import re

import numpy as np
import pytest

from weakstat import (
    DomainViolationError,
    FunctionClass,
    LinearClass,
    SeededRng,
    Statistic,
    box,
    evaluate_class,
    empirical_seminorms,
    mean_statistic,
    uniform_raw_space,
    unit_interval,
)


class TestDomain:
    def test_diameter_is_euclidean_norm_of_widths(self):
        dom = box([0.0, -1.0], [2.0, 1.0])
        assert dom.diameter == pytest.approx(np.sqrt(4.0 + 4.0))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            box([1.0], [0.0])

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            box([0.0], [np.inf])

    def test_rejects_widths_that_overflow(self):
        # each bound is finite, but upper - lower is not, and no draw spans it
        with pytest.raises(ValueError, match="widths must be finite"):
            box([-1e308, 0.0], [1e308, 1.0])

    def test_uniform_draws_stay_inside(self):
        dom = box([-2.0, 0.0], [-1.0, 3.0])
        pts = dom.uniform(SeededRng(5).generator(), 100)
        assert np.all((pts >= dom.lower) & (pts <= dom.upper))


class TestEvaluateClass:
    def test_identity_member(self):
        fc = FunctionClass((lambda x: x,), uniform_raw_space(), unit_interval())
        out = evaluate_class(fc, np.array([0.2, 0.7]))
        assert out.shape == (1, 2, 1)
        assert out[0, :, 0].tolist() == [0.2, 0.7]

    def test_identity_and_constant_members(self):
        fc = FunctionClass(
            (lambda x: x, lambda x: np.zeros(len(x))),
            uniform_raw_space(),
            unit_interval(),
        )
        a, b = evaluate_class(fc, np.array([0.5]))
        assert a[0, 0] == 0.5
        assert b[0, 0] == 0.0

    def test_linear_member_on_vector_datum(self):
        w = np.array([1.0, 1.0])
        fc = FunctionClass((lambda X: X @ w,), uniform_raw_space(), unit_interval())
        (cfg,) = evaluate_class(fc, np.array([[0.3, 0.4]]))
        assert cfg[0, 0] == pytest.approx(0.7)

    def test_violation_names_member_and_coordinate(self):
        fc = FunctionClass(
            (lambda x: x, lambda x: np.where(x > 0.4, 2.0, x)),
            uniform_raw_space(),
            unit_interval(),
        )
        with pytest.raises(DomainViolationError,
                           match=r"member 1 maps datum 1 .* coordinate 0"):
            evaluate_class(fc, np.array([0.3, 0.5]))

    def test_first_violation_in_member_datum_coordinate_order(self):
        # member 0 leaves the box only at datum 2, coordinate 1; member 1 at
        # datum 0 in both coordinates
        dom = box([0.0, 0.0], [1.0, 1.0])
        first = lambda x: np.stack([x, np.where(x > 0.8, 1.5, x)], axis=1)
        second = lambda x: np.stack([x - 1.0, x - 1.0], axis=1)
        fc = FunctionClass((first, second), uniform_raw_space(), dom)
        with pytest.raises(DomainViolationError) as exc:
            evaluate_class(fc, np.array([0.5, 0.6, 0.9]))
        assert str(exc.value) == ("member 0 maps datum 2 outside the domain box at "
                                  "coordinate 1: value 1.5 not in [0.0, 1.0]")

    def test_wrong_shape_is_reported_before_an_earlier_box_violation(self):
        # the box is checked once, after every member's shape
        fc = FunctionClass(
            (lambda x: x + 5.0, lambda x: np.zeros((len(x), 2))),
            uniform_raw_space(),
            unit_interval(),
        )
        with pytest.raises(ValueError) as exc:
            evaluate_class(fc, np.array([0.3, 0.5]))
        assert type(exc.value) is ValueError
        assert str(exc.value) == "member 1 returned points of shape (2, 2), expected (2, 1)"

    def test_clipped_linear_classes_stay_inside(self):
        # domain closure: members that clip into the box can never trip the check
        dom = unit_interval()
        gen = SeededRng(17).generator()
        for _ in range(20):
            w = float(gen.uniform(-3, 3))
            fc = FunctionClass(
                (lambda x, w=w: np.clip(w * x, dom.lower, dom.upper),),
                uniform_raw_space(-1.0, 1.0),
                dom,
            )
            raw = fc.raw_space.sampler(gen, 50)
            (cfg,) = evaluate_class(fc, raw)
            assert np.all((cfg >= dom.lower) & (cfg <= dom.upper))


class TestStatistic:
    @pytest.mark.parametrize("evaluator, count, shape", [
        (lambda p: float(p[:, 0].max()), 1, "()"),  # written for one configuration
        (lambda p: float(p[:, 0].max()), 3, "()"),
        (lambda p: p[..., 0], 3, "(3, 4)"),  # one value per row
        (lambda p: p[:1, 0, 0], 3, "(1,)"),  # one value for the whole stack
    ], ids=["float-1", "float-3", "rows", "first"])
    def test_batch_refuses_a_result_not_one_per_configuration(self, evaluator, count, shape):
        # batch would otherwise broadcast a float over the whole stack
        f = Statistic(evaluator, unit_interval(), 4, "peak")
        stack = SeededRng(1).generator().uniform(size=(count, 4, 1))
        want = f"statistic 'peak' returned shape {shape} for a stack of shape ({count}, 4, 1), " \
               f"not ({count},)"
        with pytest.raises(ValueError, match=re.escape(want)):
            f.batch(stack)


class TestSeededRng:
    def test_same_pair_same_draws(self):
        a = SeededRng(42, 7).generator().standard_normal(5)
        b = SeededRng(42, 7).generator().standard_normal(5)
        assert a.tolist() == b.tolist()

    def test_distinct_streams_differ(self):
        a = SeededRng(42, 0).generator().standard_normal(5)
        b = SeededRng(42, 1).generator().standard_normal(5)
        assert not np.allclose(a, b)

    def test_split_is_deterministic_and_distinct(self):
        r = SeededRng(3)
        assert r.split(5) == SeededRng(3).split(5)
        assert r.split(5) != r.split(6)
        assert r.split(5).seed == r.seed

    def test_pipeline_is_bit_identical_across_runs(self):
        f = mean_statistic(6)
        a = empirical_seminorms(f, 2000, SeededRng(9))
        b = empirical_seminorms(f, 2000, SeededRng(9))
        assert (a.m_lip, a.j_lip, a.m_plain, a.j_plain) == (b.m_lip, b.j_lip, b.m_plain, b.j_plain)


def test_linear_class_builds_ordered_members():
    fc = LinearClass([0.5, 1.0], uniform_raw_space(), unit_interval())
    a, b = evaluate_class(fc, [0.8])
    assert a[0, 0] == pytest.approx(0.4)
    assert b[0, 0] == pytest.approx(0.8)
