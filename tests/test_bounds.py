import json
import math

import numpy as np
import pytest

from weakstat import applications
from weakstat import (
    BoundCertificate,
    CertifiedBoundError,
    InapplicableCertificateError,
    SeededRng,
    Statistic,
    auc_certificate,
    class_complexity,
    derivative_seminorms,
    linear_class,
    mcdiarmid_tail,
    mean_statistic,
    sample_mean,
    symmetric_interval,
    symmetrization_bound,
    uniform_bound,
    uniform_raw_space,
)
from weakstat.bounds import UnboundedLipschitzError
from weakstat.cli import validate_certificate
from weakstat.complexity import ComplexityEstimate
from weakstat.core import evaluate_class
from weakstat.seminorms import (
    ANALYTIC_BOUND,
    EMPIRICAL_SEARCH,
    SeminormReport,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _report(m_lip=0.0, j_lip=0.0, m_plain=0.0, j_plain=0.0, method=ANALYTIC_BOUND):
    return SeminormReport(m_lip, j_lip, m_plain, j_plain, method)


def _estimate(mean, se=0.0):
    return ComplexityEstimate(mean=mean, std_error=se, replicates=4, kind="gaussian")


class TestSymmetrizationBound:
    def test_mean_plugin(self):
        # n=4 mean: sqrt(2 pi) * (2/4) * 1
        val = symmetrization_bound(_report(m_lip=0.25), _estimate(1.0))
        assert val == pytest.approx(SQRT_2PI * 0.5)
        assert val == pytest.approx(1.2533, abs=1e-4)

    def test_zero_complexity(self):
        assert symmetrization_bound(_report(m_lip=0.3, j_lip=0.2), _estimate(0.0)) == 0.0

    def test_search_reports_are_rejected(self):
        emp = _report(m_lip=0.25, method=EMPIRICAL_SEARCH)
        with pytest.raises(CertifiedBoundError):
            symmetrization_bound(emp, _estimate(1.0))

    def test_scaling_in_first_order_term(self):
        g = _estimate(1.0)
        one = symmetrization_bound(_report(m_lip=0.1), g)
        two = symmetrization_bound(_report(m_lip=0.2), g)
        assert two == pytest.approx(2.0 * one)


class TestUniformBound:
    def test_tail_vanishes_as_delta_approaches_one(self):
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.1), _estimate(1.0), 10, 1 - 1e-12)
        assert cert.tail_term == pytest.approx(0.0, abs=1e-5)

    def test_mean_tail_plugin(self):
        # mean on [0,1], n=100, delta=e^-2: (1/100) * sqrt(100 * 2)
        cert = uniform_bound(
            _report(m_lip=0.01, m_plain=0.01), _estimate(0.0), 100, math.exp(-2.0)
        )
        assert cert.tail_term == pytest.approx(math.sqrt(2.0) / 10.0)
        assert cert.tail_term == pytest.approx(0.1414, abs=1e-4)

    def test_total_is_sum_of_terms(self):
        cert = uniform_bound(_report(m_lip=0.1, j_lip=0.05, m_plain=0.2),
                             _estimate(1.5, se=0.1), 25, 0.05)
        assert cert.total == pytest.approx(cert.symmetrization_term + cert.tail_term)

    def test_se_inflation_recorded_and_used(self):
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.0), _estimate(1.0, se=0.1), 16, 0.5)
        assert cert.se_z == 3.0
        assert cert.g_effective == pytest.approx(1.3)
        assert cert.symmetrization_term == pytest.approx(SQRT_2PI * 0.2 * 1.3)

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                uniform_bound(_report(), _estimate(1.0), 10, bad)

    def test_monotone_in_every_input(self):
        base = uniform_bound(_report(0.1, 0.05, 0.2, 0.3), _estimate(1.0), 25, 0.1).total
        assert uniform_bound(_report(0.2, 0.05, 0.2, 0.3), _estimate(1.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.10, 0.2, 0.3), _estimate(1.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.05, 0.4, 0.3), _estimate(1.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.05, 0.2, 0.3), _estimate(2.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.05, 0.2, 0.3), _estimate(1.0), 25, 0.05).total > base

    def test_sign_change_gives_identical_symmetrization_term(self):
        f = mean_statistic(6)
        neg = Statistic(lambda pts: -float(np.mean(pts[:, 0])), f.domain, f.n, "-mean")
        rep_f = derivative_seminorms(f, f.domain.diameter, probes=3, rng=SeededRng(1))
        rep_n = derivative_seminorms(neg, f.domain.diameter, probes=3, rng=SeededRng(1))
        g = _estimate(1.2)
        assert symmetrization_bound(rep_f, g) == symmetrization_bound(rep_n, g)


class TestAucCertificate:
    def test_vanishing_penalties_return_empirical_value(self):
        val = auc_certificate(0.9, 1.0, 100, _estimate(0.0), 1 - 1e-12, below_indicator=True)
        assert val == pytest.approx(0.9, abs=1e-5)

    def test_plugin_value(self):
        val = auc_certificate(0.8, 1.0, 100, _estimate(1.0), math.exp(-1.0),
                              below_indicator=True)
        penalty = 12.0 * SQRT_2PI / 100.0 + 0.2
        assert val == pytest.approx(0.8 - penalty)
        assert penalty == pytest.approx(0.5008, abs=1e-4)

    def test_flag_required(self):
        with pytest.raises(InapplicableCertificateError):
            auc_certificate(0.8, 1.0, 100, _estimate(1.0), 0.1, below_indicator=False)

    def test_penalty_decreases_with_n(self):
        vals = [
            auc_certificate(0.8, 1.0, n, _estimate(1.0), 0.1, below_indicator=True)
            for n in (50, 100, 400, 1600)
        ]
        assert vals == sorted(vals)


class TestMcdiarmidTail:
    def test_mean_plugin(self):
        tail = mcdiarmid_tail([0.01] * 100, 0.1)
        assert tail == pytest.approx(math.exp(-2.0))
        assert tail == pytest.approx(0.1353, abs=1e-4)

    def test_zero_threshold(self):
        assert mcdiarmid_tail([0.1, 0.2], 0.0) == 1.0

    def test_halved_ranges_fourth_power(self):
        c = np.full(20, 0.05)
        assert mcdiarmid_tail(c / 2, 0.07) == pytest.approx(mcdiarmid_tail(c, 0.07) ** 4)

    def test_degenerate_statistic(self):
        assert mcdiarmid_tail([0.0, 0.0], 0.5) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            mcdiarmid_tail([-0.1], 0.5)
        with pytest.raises(ValueError):
            mcdiarmid_tail([0.1], -0.5)


class TestCertificateSerialization:
    def test_round_trip_through_schema(self):
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.2), _estimate(1.0, se=0.05), 16, 0.1)
        doc = json.loads(json.dumps(cert.to_dict()))
        validate_certificate(doc)

    def test_corrupted_document_rejected(self):
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.2), _estimate(1.0), 16, 0.1)
        doc = cert.to_dict()
        doc["seminorms"]["method"] = "empirical_search"
        with pytest.raises(Exception):
            validate_certificate(doc)

    def test_certificate_rejects_search_inputs(self):
        with pytest.raises(CertifiedBoundError):
            uniform_bound(_report(m_lip=0.1, method=EMPIRICAL_SEARCH), _estimate(1.0), 16, 0.1)

    @pytest.mark.parametrize("field", ["m_lip", "j_lip", "m_plain", "j_plain"])
    def test_certificate_rejects_infinite_seminorms(self, field):
        with pytest.raises(UnboundedLipschitzError):
            BoundCertificate(_report(**{field: math.inf}), _estimate(1.0), 16, 0.1)

    def test_applications_reexports_the_same_error(self):
        assert applications.UnboundedLipschitzError is UnboundedLipschitzError


class TestCoverageSmoke:
    def test_uniform_bound_covers_mean_deviations(self):
        # 50-trial version of the coverage simulation; the full 500-trial
        # run with the binomial slack lives in the acceptance suite
        n, delta = 32, 0.1
        dom = symmetric_interval(1.0)
        weights = [(j + 1) / 8 for j in range(8)]
        fclass = linear_class(weights + [-w for w in weights],
                              uniform_raw_space(-1.0, 1.0), dom)
        from weakstat import analytic_seminorms_lstat, constant_weight

        report = analytic_seminorms_lstat(constant_weight(1.0), dom.diameter, n)
        g = class_complexity(fclass, n, "gaussian", outer_reps=16, inner_reps=512,
                             rng=SeededRng(100))
        total = uniform_bound(report, g, n, delta).total
        violations = 0
        for seed in range(50):
            raw = fclass.raw_space.sampler(SeededRng(seed, 55).generator(), n)
            emp = np.array([sample_mean(c) for c in evaluate_class(fclass, raw)])
            # population means are exactly zero for centered uniform data
            violations += bool(np.max(0.0 - emp) > total)
        assert violations <= 5
