import json
import math

import jsonschema
import numpy as np
import pytest

from weakstat import applications
from weakstat import (
    BoundCertificate,
    CertifiedBoundError,
    FunctionClass,
    InapplicableCertificateError,
    LinearClass,
    LossFunction,
    SeededRng,
    Statistic,
    analytic_seminorms_auc,
    box,
    derivative_seminorms,
    mcdiarmid_tail,
    mean_statistic,
    ramp_loss,
    sample_mean,
    select_ranker,
    symmetric_interval,
    symmetrization_bound,
    uniform_bound,
    uniform_raw_space,
)
from weakstat.bounds import UnboundedLipschitzError
from weakstat.cli import validate_certificate
from weakstat.complexity import ComplexityEstimate, linear_gaussian_complexity
from weakstat.core import evaluate_class
from weakstat.seminorms import (
    ANALYTIC_BOUND,
    DERIVATIVE_ESTIMATE,
    EMPIRICAL_SEARCH,
    SeminormReport,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _report(m_lip=0.0, j_lip=0.0, m_plain=0.0, j_plain=0.0, method=ANALYTIC_BOUND):
    return SeminormReport(m_lip, j_lip, m_plain, j_plain, method)


def _estimate(mean):
    return ComplexityEstimate(mean=mean, std_error=0.0, replicates=0, kind="gaussian",
                              method="closed_form")


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
                             _estimate(1.5), 25, 0.05)
        assert cert.total == pytest.approx(cert.symmetrization_term + cert.tail_term)

    def test_monte_carlo_complexity_is_refused(self):
        # the stated delta does not cover an estimate's error, so only a
        # closed form enters a certificate, and it enters as given
        est = ComplexityEstimate(mean=1.0, std_error=0.1, replicates=4, kind="gaussian")
        with pytest.raises(ValueError, match="'monte_carlo'"):
            uniform_bound(_report(m_lip=0.1), est, 16, 0.5)
        with pytest.raises(ValueError, match="'monte_carlo'"):
            _select(100, est, 0.1)
        cert = uniform_bound(_report(m_lip=0.1), _estimate(1.3), 16, 0.5)
        assert cert.symmetrization_term == SQRT_2PI * 0.2 * 1.3

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                uniform_bound(_report(), _estimate(1.0), 10, bad)

    @pytest.mark.parametrize("n", [0, -4])
    def test_sample_size_below_one_is_refused(self, n):
        # n = 0 once gave a total of 7.52 with a zero tail, and n = -4 a bare
        # "math domain error" from the tail's square root
        with pytest.raises(ValueError, match=rf"sample size n must be at least 1, got n={n}"):
            uniform_bound(analytic_seminorms_auc(1.0, 4), _estimate(1.0), n, 0.1)

    def test_monotone_in_every_input(self):
        base = uniform_bound(_report(0.1, 0.05, 0.2, 0.3), _estimate(1.0), 25, 0.1).total
        assert uniform_bound(_report(0.2, 0.05, 0.2, 0.3), _estimate(1.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.10, 0.2, 0.3), _estimate(1.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.05, 0.4, 0.3), _estimate(1.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.05, 0.2, 0.3), _estimate(2.0), 25, 0.1).total > base
        assert uniform_bound(_report(0.1, 0.05, 0.2, 0.3), _estimate(1.0), 25, 0.05).total > base

    def test_sign_change_gives_identical_symmetrization_term(self):
        f = mean_statistic(6)
        neg = Statistic(lambda pts: -np.mean(pts[..., 0], axis=-1), f.domain, f.n, "-mean")
        rep_f = derivative_seminorms(f, f.domain.diameter, probes=3, rng=SeededRng(1))
        rep_n = derivative_seminorms(neg, f.domain.diameter, probes=3, rng=SeededRng(1))
        # the term reads only these values; the estimates themselves are
        # refused (test_finite_difference_estimates_are_refused)
        assert rep_f.to_dict() == rep_n.to_dict()

    def test_finite_difference_estimates_are_refused(self):
        f = mean_statistic(6)
        rep = derivative_seminorms(f, f.domain.diameter, probes=3, rng=SeededRng(1))
        assert rep.method == DERIVATIVE_ESTIMATE
        with pytest.raises(CertifiedBoundError, match="derivative_estimate"):
            uniform_bound(rep, _estimate(1.0), 6, 0.1)
        with pytest.raises(CertifiedBoundError):
            symmetrization_bound(rep, _estimate(1.0))


def _select(n, g, delta, loss=None):
    """select_ranker's choice of the one identity ranker on a two-block
    sample of n values, 1.0 above 0.0."""
    ranker = FunctionClass((lambda x: np.asarray(x, dtype=float),),
                           uniform_raw_space(0.0, 1.0), box([-10.0], [10.0]))
    data = np.repeat([1.0, 0.0], n // 2)
    return select_ranker(ranker, data, loss or ramp_loss(), g, delta)


class TestAucCertificate:
    """The ranking certificate: the uniform bound at the two-sample
    statistic's closed-form seminorms, subtracted from the chosen surrogate."""

    def test_vanishing_penalties_return_empirical_value(self):
        sel = _select(100, _estimate(0.0), 1 - 1e-12)
        assert sel.certificate_lower_bound == pytest.approx(sel.empirical_auc, abs=1e-5)

    def test_plugin_value(self):
        sel = _select(100, _estimate(1.0), math.exp(-1.0))
        penalty = 12.0 * SQRT_2PI / 100.0 + 0.2
        assert sel.certificate.total == pytest.approx(penalty)
        assert sel.certificate_lower_bound == pytest.approx(sel.empirical_auc - penalty)
        assert penalty == pytest.approx(0.5008, abs=1e-4)

    def test_flag_required(self):
        bad = LossFunction(lambda t: np.clip(t, 0.0, 1.0), 1.0, below_indicator=False)
        with pytest.raises(InapplicableCertificateError):
            _select(100, _estimate(1.0), 0.1, bad)

    def test_penalty_decreases_with_n(self):
        totals = [
            uniform_bound(analytic_seminorms_auc(1.0, n), _estimate(1.0), n, 0.1).total
            for n in (50, 100, 400, 1600)
        ]
        assert totals == sorted(totals, reverse=True)

    def test_rademacher_average_refused(self):
        r = ComplexityEstimate(mean=1.0, std_error=0.0, replicates=4, kind="rademacher")
        with pytest.raises(ValueError, match="gaussian_from_rademacher"):
            _select(100, r, 0.1)


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
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.2), _estimate(1.0), 16, 0.1)
        doc = json.loads(json.dumps(cert.to_dict()))
        validate_certificate(doc)

    def test_closed_form_round_trip_through_schema(self):
        g = linear_gaussian_complexity([-1.0, 0.5, 1.0], 16, 1.0 / 3.0)
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.2), g, 16, 0.1)
        doc = json.loads(json.dumps(cert.to_dict()))
        validate_certificate(doc)
        assert doc["complexity"]["method"] == "closed_form"
        assert doc["complexity"]["mean"] == g.mean
        assert not {"g_effective", "se_z"} & doc.keys()

    @pytest.mark.parametrize("field, value", [
        ("kind", "rademacher"),
        ("replicates", 4),
        ("method", "monte_carlo"),
        ("std_error", 0.05),
    ])
    def test_schema_rejects_unsound_complexity(self, field, value):
        # a Rademacher term, or any trace of a Monte-Carlo estimate in a
        # closed-form certificate
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.2), _estimate(1.0), 16, 0.1)
        doc = cert.to_dict()
        validate_certificate(doc)
        doc["complexity"][field] = value
        with pytest.raises(jsonschema.ValidationError):
            validate_certificate(doc)

    def test_certificate_rejects_rademacher_average(self):
        r = ComplexityEstimate(mean=1.0, std_error=0.0, replicates=4, kind="rademacher")
        with pytest.raises(ValueError, match="gaussian_from_rademacher"):
            BoundCertificate(_report(m_lip=0.1), r, 16, 0.1)

    def test_corrupted_document_rejected(self):
        cert = uniform_bound(_report(m_lip=0.1, m_plain=0.2), _estimate(1.0), 16, 0.1)
        doc = cert.to_dict()
        doc["seminorms"]["method"] = "empirical_search"
        with pytest.raises(Exception):
            validate_certificate(doc)

    @pytest.mark.parametrize("method", ["derivative_estimate", "derivative_bound"])
    def test_schema_refuses_finite_difference_tags(self, method):
        doc = uniform_bound(_report(m_lip=0.1, m_plain=0.2), _estimate(1.0), 16, 0.1).to_dict()
        doc["seminorms"]["method"] = method
        with pytest.raises(jsonschema.ValidationError):
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
        fclass = LinearClass(weights + [-w for w in weights],
                             uniform_raw_space(-1.0, 1.0), dom)
        from weakstat import analytic_seminorms_lstat, constant_weight

        report = analytic_seminorms_lstat(constant_weight(1.0), dom.diameter, n)
        g = linear_gaussian_complexity(weights + [-w for w in weights], n, 1.0 / 3.0)
        total = uniform_bound(report, g, n, delta).total
        violations = 0
        for seed in range(50):
            raw = fclass.raw_space.sampler(SeededRng(seed, 55).generator(), n)
            emp = np.array([sample_mean(c) for c in evaluate_class(fclass, raw)])
            # population means are exactly zero for centered uniform data
            violations += bool(np.max(0.0 - emp) > total)
        assert violations <= 5

    def test_closed_form_certificate_coverage(self):
        # criterion 5's simulation (n = 32, delta = 0.1, 500 trials, binomial
        # slack of 3 standard deviations) with the closed-form complexity
        n, delta, trials = 32, 0.1, 500
        dom = symmetric_interval(1.0)
        weights = [(j + 1) / 8 for j in range(8)]
        weights = weights + [-w for w in weights]
        fclass = LinearClass(weights, uniform_raw_space(-1.0, 1.0), dom)
        from weakstat import analytic_seminorms_lstat, constant_weight

        report = analytic_seminorms_lstat(constant_weight(1.0), dom.diameter, n)
        g = linear_gaussian_complexity(weights, n, 1.0 / 3.0)
        total = uniform_bound(report, g, n, delta).total
        violations = 0
        for seed in range(trials):
            raw = fclass.raw_space.sampler(SeededRng(3000 + seed).generator(), n)
            emp = np.array([sample_mean(c) for c in evaluate_class(fclass, raw)])
            violations += bool(np.max(0.0 - emp) > total)
        allowed = math.floor(delta * trials + 3.0 * math.sqrt(trials * delta * (1 - delta)))
        assert g.mean == pytest.approx(2.6059, abs=1e-4)
        assert violations <= allowed
