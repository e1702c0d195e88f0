"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
a single pass/fail line (visible with ``pytest -s`` or on failure).  Run
the whole suite with::

    pytest tests/test_acceptance.py -v -s
"""
import dataclasses
import math
import time

import numpy as np

from weakstat import (
    LinearClass,
    SeededRng,
    analytic_seminorms_auc,
    analytic_seminorms_lstat,
    analytic_seminorms_ustat,
    auc_statistic,
    center_matching_error,
    class_complexity,
    constant_weight,
    derivative_seminorms,
    empirical_seminorms,
    evaluate_class,
    f_zeta_weight,
    fk_decompose,
    gaussian_average,
    gaussian_mixture_with_noise,
    indicator_loss,
    linear_gaussian_complexity,
    linear_ranker_class,
    l_statistic,
    lstat_condition_check,
    lstat_statistic,
    mean_statistic,
    nearest_center_losses,
    product_kernel,
    rademacher_average,
    ramp_loss,
    ridge_error_statistic,
    RidgeProblem,
    sample_mean,
    select_ranker,
    smoothed_auc,
    sup_deviation_estimate,
    symmetric_interval,
    symmetrization_bound,
    trimmed_kmeans,
    two_block_ranking_space,
    u_stat_statistic,
    uniform_bound,
    uniform_raw_space,
    unit_interval,
    weighted_rank_kmeans,
)
from weakstat.cli import run

FLOAT_SLACK = 1e-9  # relative allowance where a search sits exactly on the sup


def _report(name: str, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s / limit {limit:.0f}s): {detail}")


def _sign_weights(n_members: int, scale: float = 1.0):
    half = n_members // 2
    weights = [scale * (j + 1) / half for j in range(half)]
    return weights + [-w for w in weights]


def _sign_class(n_members: int, scale: float = 1.0):
    return LinearClass(_sign_weights(n_members, scale),
                       uniform_raw_space(-1.0, 1.0), symmetric_interval(1.0))


def test_criterion_1_mean_recovery():
    limit, t0 = 10.0, time.time()
    details, ok = [], True
    for n in (4, 16, 64):
        rep = empirical_seminorms(mean_statistic(n), 100000, SeededRng(n))
        good = (0.95 / n <= rep.m_lip <= (1.0 / n) * (1 + FLOAT_SLACK)
                and rep.j_lip <= 1e-8)
        ok &= good
        details.append(f"n={n}: m_lip={rep.m_lip:.6g} j_lip={rep.j_lip:.2g}")
    elapsed = time.time() - t0
    ok &= elapsed < limit
    _report("criterion-1 mean-recovery", ok, elapsed, limit, "; ".join(details))
    assert ok


def test_criterion_2_sandwich():
    limit, t0 = 60.0, time.time()
    zeta = 0.25
    cases = [
        ("auc n=4", auc_statistic(ramp_loss(), 4), analytic_seminorms_auc(1.0, 4)),
        ("auc n=8", auc_statistic(ramp_loss(), 8), analytic_seminorms_auc(1.0, 8)),
        ("ustat n=8", u_stat_statistic(product_kernel(), 8, unit_interval()),
         analytic_seminorms_ustat(1.0, 1.0, 2, 8)),
        ("lstat n=8", lstat_statistic(f_zeta_weight(zeta), 8),
         analytic_seminorms_lstat(f_zeta_weight(zeta), 1.0, 8)),
    ]
    violations = 0
    for label, f, bound in cases:
        for seed in range(20):
            emp = empirical_seminorms(f, 10000, SeededRng(seed, 2))
            for name in ("m_lip", "j_lip", "m_plain", "j_plain"):
                if getattr(emp, name) > getattr(bound, name) * (1 + FLOAT_SLACK) + 1e-12:
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < limit
    _report("criterion-2 sandwich", ok, elapsed, limit,
            f"{violations} violations over 20 seeds x 4 statistics")
    assert ok


def test_criterion_3_telescoping_identity():
    limit, t0 = 120.0, time.time()

    def families(n):
        fams = [mean_statistic(n),
                lstat_statistic(f_zeta_weight(0.25), n),
                ridge_error_statistic(RidgeProblem(lam=0.5, d=1), n)]
        if n >= 2:
            fams.append(u_stat_statistic(product_kernel(), n, unit_interval()))
        if n % 2 == 0:
            fams.append(auc_statistic(ramp_loss(), n))
        return fams

    gen = SeededRng(123).generator()
    worst = 0.0
    for n in range(1, 11):
        for f in families(n):
            dom = f.domain
            for _ in range(100):
                dec = fk_decompose(f, dom.uniform(gen, n), dom.uniform(gen, n))
                worst = max(worst, dec.residual / max(1.0, abs(dec.lhs)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < limit
    _report("criterion-3 telescoping-identity", ok, elapsed, limit,
            f"worst relative residual {worst:.2e} over 5 families, n=1..10, 100 pairs")
    assert ok


def test_criterion_4_symmetrization_simulation():
    limit, t0 = 300.0, time.time()
    n = 32
    dom = symmetric_interval(1.0)
    fclass = _sign_class(16)
    f = mean_statistic(n, dom)

    g = class_complexity(fclass, n, "gaussian", outer_reps=64, inner_reps=2048,
                         rng=SeededRng(1000))
    report = analytic_seminorms_lstat(constant_weight(1.0), dom.diameter, n)
    bound = symmetrization_bound(report, dataclasses.replace(g, mean=g.mean + 3.0 * g.std_error))

    # single-draw estimates per seed: the 100 seeds are the replication, so
    # the halved bound can be caught by genuine sampling fluctuation
    estimates = [
        sup_deviation_estimate(f, fclass, outer_reps=1, pop_reps=1,
                               rng=SeededRng(2000 + seed)).mean
        for seed in range(100)
    ]
    full_violations = sum(e > bound for e in estimates)
    half_violations = sum(e > bound / 2.0 for e in estimates)
    elapsed = time.time() - t0
    ok = full_violations == 0 and half_violations >= 1 and elapsed < limit
    _report("criterion-4 symmetrization-simulation", ok, elapsed, limit,
            f"bound={bound:.4f}: 0 required/{full_violations} full violations, "
            f"{half_violations} halved-bound violations (power)")
    assert ok


def test_criterion_5_uniform_bound_coverage():
    limit, t0 = 300.0, time.time()
    n, delta, trials = 32, 0.1, 500
    dom = symmetric_interval(1.0)
    fclass = _sign_class(16)
    report = analytic_seminorms_lstat(constant_weight(1.0), dom.diameter, n)
    # the closed form that `weakstat bound` ships; E x^2 = 1/3 on [-1, 1]
    g = linear_gaussian_complexity(_sign_weights(16), n, 1.0 / 3.0)
    total = uniform_bound(report, g, n, delta).total

    violations = 0
    for seed in range(trials):
        raw = fclass.raw_space.sampler(SeededRng(3000 + seed).generator(), n)
        emp = np.array([sample_mean(c) for c in evaluate_class(fclass, raw)])
        # population means vanish exactly for centered uniform data
        violations += bool(np.max(0.0 - emp) > total)
    allowed = math.floor(delta * trials + 3.0 * math.sqrt(trials * delta * (1 - delta)))
    elapsed = time.time() - t0
    ok = violations <= allowed and elapsed < limit
    _report("criterion-5 uniform-bound-coverage", ok, elapsed, limit,
            f"{violations} violations of {trials} trials (allowed {allowed}, total={total:.3f})")
    assert ok


def test_criterion_6_complexity_closed_forms():
    limit, t0 = 60.0, time.time()
    Y = np.array([[1.0], [-1.0]])
    g = gaussian_average(Y, 100000, SeededRng(60))
    target = math.sqrt(2.0 / math.pi)
    gaussian_ok = abs(g.mean - target) <= 3.0 * g.std_error
    r = rademacher_average(Y, 100000, SeededRng(61))
    rademacher_ok = r.mean == 1.0
    elapsed = time.time() - t0
    ok = gaussian_ok and rademacher_ok and elapsed < limit
    _report("criterion-6 complexity-closed-forms", ok, elapsed, limit,
            f"G={g.mean:.5f} (target {target:.5f}, 3SE={3 * g.std_error:.5f}), R={r.mean}")
    assert ok


def test_criterion_7_ridge_derivative_decay():
    limit, t0 = 120.0, time.time()
    prob = RidgeProblem(lam=0.5, d=3)
    reports = {}
    for n in (50, 100):
        f = ridge_error_statistic(prob, n)
        reports[n] = derivative_seminorms(f, f.domain.diameter, probes=6,
                                          rng=SeededRng(11))
    first_ratio = reports[50].m_lip / reports[100].m_lip
    # j_lip carries an explicit factor n; divide it out to compare the raw
    # second-derivative estimates, which decay like 1/n^2
    second_ratio = (reports[50].j_lip / 50) / (reports[100].j_lip / 100)
    elapsed = time.time() - t0
    ok = 1.4 <= first_ratio <= 2.6 and 2.4 <= second_ratio <= 6.0 and elapsed < limit
    _report("criterion-7 ridge-derivative-decay", ok, elapsed, limit,
            f"first-order ratio {first_ratio:.2f} in [1.4,2.6], "
            f"second-order ratio {second_ratio:.2f} in [2.4,6.0]")
    assert ok


def test_criterion_8_lstat_conditions():
    limit, t0 = 60.0, time.time()
    F = f_zeta_weight(0.25)
    n, probes = 16, 10000
    gen = SeededRng(80).generator()
    violations = 0
    for _ in range(probes):
        x = gen.uniform(size=(n, 1))
        k = int(gen.integers(n))
        l = int(gen.integers(n - 1))
        if l >= k:
            l += 1
        y, yp, z, zp = gen.uniform(size=4)
        first, second = lstat_condition_check(F, x, k, l, y, yp, z, zp, tol=1e-7)
        violations += (not first.passed) + (not second.passed)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < limit
    _report("criterion-8 lstat-conditions", ok, elapsed, limit,
            f"{violations} violations in {probes} probes at n={n}")
    assert ok


def test_criterion_9_robust_clustering():
    limit, t0 = 180.0, time.time()
    K, radius, std, noise, n = 3, 6.0, 0.35, 0.25, 240
    angles = np.arange(K) * 2.0 * math.pi / K
    true_centers = 0.55 * radius * np.stack([np.cos(angles), np.sin(angles)]).T
    trimmed_errs, plain_errs = [], []
    for seed in range(50):
        data = gaussian_mixture_with_noise(n, true_centers, std, noise, radius,
                                           SeededRng(seed, 77))
        tr = trimmed_kmeans(data, K, 0.125, restarts=10, rng=SeededRng(seed, 78))
        pl = weighted_rank_kmeans(data, K, constant_weight(1.0), restarts=10,
                                  rng=SeededRng(seed, 79))
        trimmed_errs.append(center_matching_error(tr.centers, true_centers))
        plain_errs.append(center_matching_error(pl.centers, true_centers))
    med_tr = float(np.median(trimmed_errs))
    med_pl = float(np.median(plain_errs))
    elapsed = time.time() - t0
    ok = med_tr < med_pl and elapsed < limit
    _report("criterion-9 robust-clustering", ok, elapsed, limit,
            f"median recovery error: trimmed {med_tr:.4f} < plain {med_pl:.4f}")
    assert ok


def test_criterion_10_ranking_certificate():
    limit, t0 = 180.0, time.time()
    n, count, delta, trials = 200, 8, 0.1, 200
    space = two_block_ranking_space(2, 1.5)
    candidates = linear_ranker_class(2, count, space)
    loss = ramp_loss(1.0)
    hold_loss = indicator_loss()
    # the closed form that `weakstat rank` ships
    g = candidates.gaussian_upper(n)
    covered = 0
    for seed in range(trials):
        rng = SeededRng(seed, 99)
        data = space.sampler(rng.split(0).generator(), n)
        sel = select_ranker(candidates, data, loss, g, delta)
        held = space.sampler(rng.split(1).generator(), 10 * n)
        held_auc = smoothed_auc(hold_loss, evaluate_class(candidates, held)[sel.chosen_index])
        covered += bool(held_auc >= sel.certificate_lower_bound)
    elapsed = time.time() - t0
    ok = covered >= 170 and elapsed < limit
    _report("criterion-10 ranking-certificate", ok, elapsed, limit,
            f"held-out AUC covered the certificate in {covered}/{trials} trials (need 170)")
    assert ok


def test_cluster_certificate_coverage():
    # `weakstat cluster` at its defaults over many seeds: the population
    # value E[L-statistic of m fresh held-out losses at the reported
    # centers], estimated from fresh draws and raised by 3 standard errors,
    # may exceed the held-out objective by more than the certificate total
    # in at most a delta fraction of trials
    limit, t0 = 120.0, time.time()
    trials, draws, delta = 100, 50, 0.05
    K, radius, std, noise = 3, 6.0, 0.4, 0.25
    angles = np.arange(K) * 2.0 * math.pi / K
    true_centers = 0.55 * radius * np.stack([np.cos(angles), np.sin(angles)]).T
    weight = f_zeta_weight(0.125)
    covered, worst_gap, total = 0, -math.inf, math.nan
    for seed in range(trials):
        res = run({"kind": "cluster", "seed": seed})[0]["result"]
        centers = np.array(res["centers"])
        gen = SeededRng(seed, 111).generator()
        fresh = [
            l_statistic(weight, nearest_center_losses(gaussian_mixture_with_noise(
                res["held_out_n"], true_centers, std, noise, radius, gen), centers))
            for _ in range(draws)
        ]
        population = np.mean(fresh) + 3.0 * np.std(fresh, ddof=1) / math.sqrt(draws)
        gap = population - res["held_out_objective"]
        total = res["certificate"]["total"]
        covered += bool(gap <= total)
        worst_gap = max(worst_gap, gap)
    elapsed = time.time() - t0
    ok = covered >= (1.0 - delta) * trials and elapsed < limit
    _report("cluster-certificate-coverage", ok, elapsed, limit,
            f"population - held-out objective <= total={total:.3f} in {covered}/{trials} "
            f"trials (need {math.ceil((1.0 - delta) * trials)}; largest gap {worst_gap:.4f})")
    assert ok
