import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import weakstat.cli
import weakstat.oracle
import weakstat.seminorms
from weakstat import SeededRng
from weakstat.cli import (
    AggregationError,
    ConfigError,
    EXIT_CHECK_FAILED,
    EXIT_ERROR,
    EXIT_OK,
    emit_table,
    main,
    run,
    validate_config,
)


def _seminorm_config(**over):
    cfg = {
        "kind": "seminorm",
        "seed": 0,
        "budget": 4000,
        "statistic": {"family": "mean", "n": 8},
    }
    cfg.update(over)
    return cfg


_BOUND_CONFIG = {
    "kind": "bound",
    "seed": 2,
    "delta": 0.05,
    "statistic": {"family": "mean", "n": 16},
    "function_class": {"kind": "linear", "count": 8},
    "sampler": {"kind": "uniform", "low": 0.0, "high": 1.0},
    "replicates": {"outer": 4, "inner": 128},
}

_CLUSTER_CONFIG = {
    "kind": "cluster",
    "seed": 4,
    "delta": 0.1,
    "cluster": {"n": 80, "k": 3, "zeta": 0.125, "restarts": 3},
    "replicates": {"outer": 4, "inner": 64},
}

_RANK_CONFIG = {
    "kind": "rank",
    "seed": 5,
    "delta": 0.1,
    "rank": {"n": 40, "candidates": 4},
    "replicates": {"outer": 4, "inner": 64},
}


class TestConfigValidation:
    def test_minimal_config_passes(self):
        validate_config(_seminorm_config())

    def test_unknown_kind_points_at_field(self):
        with pytest.raises(ConfigError, match="config.kind"):
            validate_config({"kind": "plot", "seed": 0})

    def test_bad_budget_points_at_field(self):
        with pytest.raises(ConfigError, match="config.budget"):
            validate_config(_seminorm_config(budget=0))

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"kind": "seminorm"})

    def test_unknown_extra_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(_seminorm_config(plot=True))

    def test_schema_comes_from_the_package_that_asks(self, tmp_path, monkeypatch):
        # a copy of the package loaded under another name reads its own
        # schema, here with the seed capped at 10, not the one of `weakstat`
        copy = tmp_path / "weakstat_copy"
        shutil.copytree(Path(weakstat.cli.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "schemas" / "experiment_config.schema.json"
        schema = json.loads(path.read_text())
        schema["properties"]["seed"]["maximum"] = 10
        path.write_text(json.dumps(schema))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            copied = importlib.import_module("weakstat_copy.cli")
            with pytest.raises(copied.ConfigError, match="config.seed"):
                copied.validate_config(_seminorm_config(seed=11))
        finally:
            for name in [m for m in sys.modules if m.startswith("weakstat_copy")]:
                del sys.modules[name]
        validate_config(_seminorm_config(seed=11))


class TestRunners:
    def test_seminorm_run_embeds_config_and_reports(self):
        doc, status = run(_seminorm_config())
        assert status == EXIT_OK
        assert doc["config"]["budget"] == 4000
        emp = doc["result"]["empirical"]
        assert 0.95 / 8 <= emp["m_lip"] <= (1.0 / 8) * (1 + 1e-9)
        upper = doc["result"]["upper_bound"]
        assert emp["m_lip"] <= upper["m_lip"] * (1 + 1e-9)

    def test_seminorm_auc_window(self):
        doc, _ = run(_seminorm_config(
            statistic={"family": "auc", "n": 4}, budget=20000, seed=3
        ))
        assert 0.45 <= doc["result"]["empirical"]["m_lip"] <= 0.5 * (1 + 1e-9)

    def test_auc_odd_n_is_config_error(self):
        with pytest.raises(ConfigError, match="even"):
            run(_seminorm_config(statistic={"family": "auc", "n": 5}))

    def test_complexity_run(self):
        doc, status = run({
            "kind": "complexity",
            "seed": 1,
            "statistic": {"family": "mean", "n": 8},
            "function_class": {"kind": "linear_symmetric", "count": 4},
            "replicates": {"outer": 4, "inner": 128},
        })
        assert status == EXIT_OK
        assert doc["result"]["estimate"]["mean"] > 0

    def test_bound_run_produces_valid_certificate(self):
        doc, status = run(_BOUND_CONFIG)
        assert status == EXIT_OK
        cert = doc["result"]["certificate"]
        assert cert["total"] == pytest.approx(
            cert["symmetrization_term"] + cert["tail_term"]
        )

    def test_bound_run_uses_closed_form_complexity(self):
        doc, _ = run(_BOUND_CONFIG)
        g = doc["result"]["certificate"]["complexity"]
        assert (g["method"], g["std_error"], g["replicates"]) == ("closed_form", 0.0, 0)
        # replicates are accepted and do not enter a bound document
        other = dict(_BOUND_CONFIG, replicates={"outer": 8, "inner": 256})
        assert run(other)[0]["result"] == doc["result"]
        # spread 7/8 of the weights, E x^2 = (0.25 + 0.5 + 1) / 3 on [0.5, 1]
        shifted = dict(_BOUND_CONFIG, sampler={"kind": "uniform", "low": 0.5, "high": 1.0})
        g = run(shifted)[0]["result"]["certificate"]["complexity"]["mean"]
        assert g == pytest.approx(0.875 * math.sqrt(16 * 1.75 / 3) / math.sqrt(2 * math.pi))

    def test_verify_run_passes_on_mean(self):
        doc, status = run({
            "kind": "verify",
            "seed": 3,
            "statistic": {"family": "mean", "n": 6},
            "verify": {"max_n": 5, "pairs": 5},
        })
        assert status == EXIT_OK
        assert doc["result"]["all_passed"]

    def test_verify_failure_exits_two(self, monkeypatch):
        # shrink the identity tolerance below float precision so the
        # harness's failure path is exercised
        monkeypatch.setattr(weakstat.oracle, "IDENTITY_RTOL", 0.0)
        doc, status = run({
            "kind": "verify",
            "seed": 3,
            "statistic": {"family": "lstat", "n": 6, "zeta": 0.25},
            "verify": {"max_n": 5, "pairs": 5, "probes": 20},
        })
        assert status == EXIT_CHECK_FAILED
        assert not doc["result"]["all_passed"]

    def test_cluster_run(self):
        doc, status = run(_CLUSTER_CONFIG)
        assert status == EXIT_OK
        assert len(doc["result"]["centers"]) == 3
        assert doc["result"]["certificate"]["total"] > 0

    def test_rank_run(self):
        doc, status = run(_RANK_CONFIG)
        assert status == EXIT_OK
        res = doc["result"]
        assert res["certificate_lower_bound"] <= res["empirical_auc"]

    def test_rank_ignores_replicates(self):
        other = dict(_RANK_CONFIG, replicates={"outer": 2, "inner": 2})
        assert run(other)[0]["result"] == run(_RANK_CONFIG)[0]["result"]

    def test_cluster_ignores_replicates(self):
        other = dict(_CLUSTER_CONFIG, replicates={"outer": 2, "inner": 2})
        assert run(other)[0]["result"] == run(_CLUSTER_CONFIG)[0]["result"]

    def test_cluster_odd_n_fits_on_the_larger_part(self):
        odd = dict(_CLUSTER_CONFIG, cluster=dict(_CLUSTER_CONFIG["cluster"], n=81))
        res = run(odd)[0]["result"]
        assert (res["n"], res["fit_n"], res["held_out_n"]) == (81, 41, 40)
        assert res["certificate"]["n"] == 40


class TestCertificateGolden:
    """Exact certificate numbers of the small runs above; a change to the
    complexity term, the seminorm check or the float order of either
    certificate formula shows here."""

    @pytest.mark.parametrize("config, expected", [
        (_BOUND_CONFIG, {
            "symmetrization_term": 0.25259074277046123,
            "tail_term": 0.43270459565057134,
            "total": 0.6852953384210325,
        }),
        # one loss map certified on the 40 held-out points: the complexity
        # is 0, so the total is the tail term alone
        (_CLUSTER_CONFIG, {
            "symmetrization_term": 0.0,
            "tail_term": 46.065848757005575,
            "total": 46.065848757005575,
        }),
    ])
    def test_uniform_bound_certificates(self, config, expected):
        cert = run(config)[0]["result"]["certificate"]
        assert {key: cert[key] for key in expected} == expected
        assert cert["direction"] == "pop_minus_emp"
        assert cert["complexity"]["method"] == "closed_form"
        assert not {"g_effective", "se_z"} & cert.keys()

    def test_ranking_certificate(self):
        # the closed-form complexity replaced a 4 x 64 Monte-Carlo estimate
        # (mean 1.8881932621575708, bound -1.7684669222783473); the
        # selection, which never read the complexity, is unchanged
        res = run(_RANK_CONFIG)[0]["result"]
        assert res["certificate_lower_bound"] == -1.5784257653769815
        assert res["g"]["mean"] == 1.8916081414979515
        assert res["g"]["method"] == "closed_form"
        assert (res["chosen_index"], res["empirical_auc"]) == (0, 0.32389436144211564)

    def test_benchmark_ranking_certificate(self):
        # the certify benchmark's rank job at workload seed 97; the uniform
        # bound's float order moved its last bit from -0.5459347929755182,
        # the value of the hand-expanded formula it replaced
        res = run({"kind": "rank", "seed": 218808233})[0]["result"]
        assert res == {
            "n": 200, "candidates": 8, "chosen_index": 0,
            "empirical_auc": 0.3552518860349357,
            "certificate_lower_bound": -0.5459347929755183, "delta": 0.1,
            "g": {"mean": 4.565163512877286, "std_error": 0.0, "replicates": 0,
                  "kind": "gaussian", "method": "closed_form"},
        }


_VERIFY_BOX = {"lower": -1.0, "upper": 3.0}

# ridge fixes its own box [-1, 1]^(d+1) and refuses a statistic box
_VERIFY_CONFIGS = {
    family: {
        "kind": "verify",
        "seed": 3,
        "statistic": {"family": family, "n": 8, **extra},
        "verify": {"max_n": 8, "pairs": 4, "probes": 20},
    }
    for family, extra in (("mean", _VERIFY_BOX), ("lstat", {**_VERIFY_BOX, "zeta": 0.25}),
                          ("auc", _VERIFY_BOX), ("ustat", _VERIFY_BOX), ("vstat", _VERIFY_BOX),
                          ("ridge", {}))
}


def _identity_records(*lhs):
    return [(v, 1e-09, 1e-09 - v, True) for v in lhs]


class TestVerifyGolden:
    """Exact (lhs, rhs, slack, pass) of each record of a small verify run
    per family; a change to the residual, its sum, the order in which
    a statistic sums its terms or the slack arithmetic shows here."""

    @pytest.mark.parametrize("family, expected", [
        ("mean", _identity_records(
            0.0, 1.1102230246251565e-16, 2.1658193783793286e-16, 2.7755575615628914e-17,
            1.1102230246251565e-16, 5.551115123125783e-17, 6.938893903907228e-17, 0.0,
        )),
        ("lstat", _identity_records(
            0.0, 1.2794573716330748e-16, 1.3877787807814457e-17, 2.498001805406602e-16,
            1.1102230246251565e-16, 1.1102230246251565e-16, 1.1102230246251565e-16,
            1.1102230246251565e-16,
        ) + [(0.0, 0.0, 0.0, True)]),
        ("auc", _identity_records(
            0.0, 1.1102230246251565e-16, 2.7755575615628914e-17, 1.3877787807814457e-17,
        )),
        ("ustat", _identity_records(
            1.4622080405136921e-16, 3.950105423554113e-16, 3.0311744913297935e-16,
            1.1102230246251565e-16, 1.1102230246251565e-16, 1.3877787807814457e-17,
            1.1102230246251565e-16,
        )),
        ("vstat", _identity_records(
            2.220446049250313e-16, 1.1102230246251565e-16, 2.220446049250313e-16,
            2.220446049250313e-16, 2.7755575615628914e-16, 1.7180358212042002e-16,
            1.1102230246251565e-16,
        )),
        ("ridge", _identity_records(
            1.3877787807814457e-17, 0.0, 1.3877787807814457e-17, 2.7755575615628914e-17,
            2.7755575615628914e-17, 0.0, 1.3877787807814457e-17, 0.0,
        )),
    ])
    def test_records(self, family, expected):
        doc, status = run(_VERIFY_CONFIGS[family])
        assert status == EXIT_OK
        records = doc["result"]["records"]
        assert [(r["lhs"], r["rhs"], r["slack"], r["pass"]) for r in records] == expected
        assert all(type(r["pass"]) is bool for r in records)


class TestVerifyConditionFailures:
    def test_failed_conditions_record_the_worst_slack(self, monkeypatch):
        # a weight whose stated norms are a tenth of its true ones fails the
        # conditions: the record counts the failures of the per-probe
        # checks, its slack is minus their worst violation, and verify
        # exits 2
        def understated(zeta, true_weight=weakstat.cli.stats.f_zeta_weight):
            F = true_weight(zeta)
            return dataclasses.replace(F, sup_norm=0.1 * F.sup_norm, lip_norm=0.1 * F.lip_norm)

        monkeypatch.setattr(weakstat.cli.stats, "f_zeta_weight", understated)
        seen = []
        counts = weakstat.oracle.lstat_condition_counts
        monkeypatch.setattr(weakstat.oracle, "lstat_condition_counts",
                            lambda *probes: seen.append(probes) or counts(*probes))
        doc, status = run(_VERIFY_CONFIGS["lstat"])
        F, xs, *columns = seen[0]
        checks = [c for probe in zip(xs, *columns)
                  for c in weakstat.oracle.lstat_condition_check(F, *probe)]
        fails = sum(not c.passed for c in checks)
        assert fails > 0 and status == EXIT_CHECK_FAILED
        assert doc["result"]["records"][-1] == {
            "check": "lstat_conditions", "inputs": "n=8,probes=20", "lhs": float(fails),
            "rhs": 0.0, "slack": -max(-c.slack for c in checks), "pass": False}


def _lstat_verify_config(seed, upper):
    return {"kind": "verify", "seed": seed, "verify": {"probes": 200},
            "statistic": {"family": "lstat", "n": 8, "lower": 0.0, "upper": upper}}


class TestVerifyRounding:
    """The lstat conditions scale with the box, and so does the derived
    rounding term of their tolerance (oracle.lstat_condition_counts): on a
    wide box rounding alone does not fail them, and a weight whose stated
    norms are a tenth of its true ones still does."""

    @pytest.mark.parametrize("seed", [1, 5, 97])
    @pytest.mark.parametrize("upper", [1e9, 1e12, 1e200])
    def test_wide_boxes_pass(self, seed, upper):
        doc, status = run(_lstat_verify_config(seed, upper))
        assert status == EXIT_OK
        assert doc["result"]["records"][-1] == {
            "check": "lstat_conditions", "inputs": "n=8,probes=200", "lhs": 0.0, "rhs": 0.0,
            "slack": 0.0, "pass": True}

    @pytest.mark.parametrize("upper", [1.0, 1e9])
    def test_understated_norms_fail(self, monkeypatch, upper):
        def understated(zeta, true_weight=weakstat.cli.stats.f_zeta_weight):
            F = true_weight(zeta)
            return dataclasses.replace(F, sup_norm=0.1 * F.sup_norm, lip_norm=0.1 * F.lip_norm)

        monkeypatch.setattr(weakstat.cli.stats, "f_zeta_weight", understated)
        doc, status = run(_lstat_verify_config(5, upper))
        record = doc["result"]["records"][-1]
        assert status == EXIT_CHECK_FAILED
        assert record["lhs"] > 0 and record["slack"] < 0 and record["pass"] is False


_SEMINORM_NAMES = ("m_lip", "j_lip", "m_plain", "j_plain")

# the `weakstat seminorm` output of each family at n = 6, budget 4000, seed
# 13: (label, empirical values and search_evals, upper-bound values, method
# and search_evals)
_SEMINORM_GOLDEN = {
    "mean": ("mean",
             (0.16666666666667365, 1.2981426511927475e-13, 0.16666666666666674,
              2.6645352591003757e-15, 3938),
             (0.16666666666666666, 0.0, 0.16666666666666666, 0.0, "analytic_bound", 0)),
    "auc": ("auc[ramp(1.0)]",
            (0.3333333333333389, 0.6666666666666774, 0.3173209032699927, 0.5547019088195991, 3976),
            (0.3333333333333333, 1.3333333333333333, 0.3333333333333333, 1.3333333333333333,
             "analytic_bound", 0)),
    "lstat": ("lstat[f_zeta(0.25)]",
              (0.22222222222222737, 0.4444444444444869, 0.22222222222222215, 0.2780469972207211,
               3964),
              (0.2222222222222222, 0.4444444444444444, 0.2222222222222222, 0.4444444444444444,
               "analytic_bound", 0)),
    "ustat": ("ustat[product,m=2]",
              (0.32021636758055594, 0.4000000000000026, 0.31329297122505295,
               0.32423479369995345, 3968),
              (0.3333333333333333, 0.6666666666666666, 0.3333333333333333, 0.6666666666666666,
               "analytic_bound", 0)),
    "vstat": ("vstat[product,m=2]",
              (0.3083161061642936, 0.33333333333334114, 0.2927918827481151, 0.2635841650926569,
               3960),
              (0.3333333333333333, 0.6666666666666666, 0.3333333333333333, 0.6666666666666666,
               "analytic_bound", 0)),
    # the estimate draws its probes from child stream 16, which no search
    # restart uses
    "ridge": ("ridge_error[lam=0.5,d=1]",
              (0.3950380994413456, 0.8522833255003273, 0.35537728343528946, 1.1012235937648045,
               3980),
              (0.32804453540253214, 1.443659767300418, 0.9278500620572838, 4.083286444737275,
               "derivative_estimate", 352)),
}

# the whole auc document, byte for byte
_AUC_SEMINORM_TEXT = (
    '{\n'
    '  "config": {\n'
    '    "budget": 4000,\n'
    '    "kind": "seminorm",\n'
    '    "seed": 13,\n'
    '    "statistic": {\n'
    '      "family": "auc",\n'
    '      "n": 6\n'
    '    }\n'
    '  },\n'
    '  "kind": "seminorm",\n'
    '  "result": {\n'
    '    "empirical": {\n'
    '      "j_lip": 0.6666666666666774,\n'
    '      "j_plain": 0.5547019088195991,\n'
    '      "m_lip": 0.3333333333333389,\n'
    '      "m_plain": 0.3173209032699927,\n'
    '      "method": "empirical_search",\n'
    '      "search_evals": 3976\n'
    '    },\n'
    '    "n": 6,\n'
    '    "statistic": "auc[ramp(1.0)]",\n'
    '    "upper_bound": {\n'
    '      "j_lip": 1.3333333333333333,\n'
    '      "j_plain": 1.3333333333333333,\n'
    '      "m_lip": 0.3333333333333333,\n'
    '      "m_plain": 0.3333333333333333,\n'
    '      "method": "analytic_bound",\n'
    '      "search_evals": 0\n'
    '    }\n'
    '  }\n'
    '}\n'
)


def _golden_seminorm_config(family):
    return {"kind": "seminorm", "seed": 13, "budget": 4000,
            "statistic": {"family": family, "n": 6}}


def _golden_seminorm_text(family):
    label, emp, upper = _SEMINORM_GOLDEN[family]
    doc = {"config": _golden_seminorm_config(family), "kind": "seminorm", "result": {
        "empirical": {**dict(zip(_SEMINORM_NAMES, emp)), "method": "empirical_search",
                      "search_evals": emp[4]},
        "n": 6,
        "statistic": label,
        "upper_bound": {**dict(zip(_SEMINORM_NAMES, upper)), "method": upper[4],
                        "search_evals": upper[5]},
    }}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestSeminormGolden:
    """Exact `weakstat seminorm` output of each family, so that a change to
    the search, a closed form or the document layout shows here."""

    def test_auc_text_is_the_recorded_document(self):
        assert _golden_seminorm_text("auc") == _AUC_SEMINORM_TEXT

    @pytest.mark.parametrize("family", sorted(_SEMINORM_GOLDEN))
    def test_output_bytes(self, family, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_golden_seminorm_config(family)))
        assert main(["seminorm", "--config", str(cfg_path)]) == EXIT_OK
        assert capsys.readouterr().out == _golden_seminorm_text(family)


_UNIFORM_SAMPLER = {"kind": "uniform", "low": -1.0, "high": 1.0}


def _complexity_config(seed, kind, n, function_class, outer, inner):
    return {"kind": "complexity", "seed": seed, "complexity_kind": kind,
            "statistic": {"family": "mean", "n": n}, "function_class": function_class,
            "sampler": _UNIFORM_SAMPLER, "replicates": {"outer": outer, "inner": inner}}


class TestComplexityGolden:
    """Exact `weakstat complexity` estimates: the certify benchmark's
    Rademacher shape, a Gaussian run, and runs whose inner replicates span
    two chunks (complexity._CHUNK = 8192) with n * d = 17, so that the last
    chunk's 17 signs leave 47 bits of its one raw word unused.  A change to
    the draws, their bit order or the product over a chunk shows here."""

    @pytest.mark.parametrize("config, mean, std_error", [
        (_complexity_config(5, "rademacher", 64, {"kind": "linear", "count": 16}, 32, 2048),
         1.7054499980633833, 0.02053186281865917),
        (_complexity_config(7, "gaussian", 16, {"kind": "linear_symmetric", "count": 8}, 8, 512),
         1.8621642383743635, 0.04194238702112219),
        (_complexity_config(11, "rademacher", 17, {"kind": "linear", "count": 4}, 2, 8193),
         0.6594748752591777, 0.03606163547723956),
        (_complexity_config(12, "gaussian", 17, {"kind": "linear", "count": 4}, 2, 8193),
         0.7153751208696127, 0.0020502425985844397),
    ])
    def test_estimate(self, config, mean, std_error):
        doc, status = run(config)
        assert status == EXIT_OK
        assert doc["result"] == {
            "class": "linear", "n": config["statistic"]["n"],
            "estimate": {"kind": config["complexity_kind"], "mean": mean,
                         "method": "monte_carlo",
                         "replicates": config["replicates"]["outer"], "std_error": std_error},
        }


class TestDegenerateComplexity:
    """`weakstat complexity` on the sampler low = high = 0: every product is
    zero, so each member maximum is a tie of zeros.  The sha256 of each
    document was recorded when the maximum was ``.max(axis=1)``; the mean
    must stay +0.0, as "-0.0" would change the bytes."""

    @pytest.mark.parametrize("kind, count, n, outer, inner, digest", [
        ("rademacher", 16, 64, 32, 2048,
         "df4debd92659956601e704316510682ebdf4a3a8bf841e6d6c1bcec3926944bc"),
        ("gaussian", 16, 64, 32, 2048,
         "7dae9ab359db3e53b244d9db8ad3aa15f06dbe5b73bb07e9f6e3c1cfc2363283"),
        ("gaussian", 17, 5, 4, 300,
         "451662f73093d5ee3f3844ae3bf85f130851bd59b1a3d832439c26a76c1226f4"),
        ("rademacher", 33, 17, 2, 8193,
         "ae8c86731b5afe15326625d1ea77437d1903427a3516680a7c143337567f57c1"),
    ])
    def test_document_bytes(self, kind, count, n, outer, inner, digest):
        config = dict(_complexity_config(5, kind, n, {"kind": "linear", "count": count},
                                         outer, inner),
                      sampler={"kind": "uniform", "low": 0.0, "high": 0.0})
        doc, status = run(config)
        assert status == EXIT_OK
        estimate = doc["result"]["estimate"]
        assert (estimate["mean"], estimate["std_error"]) == (0.0, 0.0)
        assert math.copysign(1.0, estimate["mean"]) == 1.0
        text = weakstat.cli._serialize(doc)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _cluster_document(centers, iterations, fit_objective, held_out_objective, recovery_error):
    return {
        "centers": centers,
        # the held-out certificate at the defaults depends on no draw
        "certificate": {
            "complexity": {"kind": "gaussian", "mean": 0.0, "method": "closed_form",
                           "replicates": 0, "std_error": 0.0},
            "delta": 0.05, "direction": "pop_minus_emp",
            "kind": "bound_certificate", "n": 120,
            "seminorms": {"j_lip": 0.04444444444444444, "j_plain": 6.4, "m_lip": 0.01111111111111111,
                          "m_plain": 1.6, "method": "analytic_bound", "search_evals": 0},
            "symmetrization_term": 0.0, "tail_term": 30.336264675068122,
            "total": 30.336264675068122,
        },
        "fit_n": 120, "fit_objective": fit_objective,
        "held_out_n": 120, "held_out_objective": held_out_objective,
        "iterations": iterations, "k": 3, "n": 240,
        "recovery_error": recovery_error, "reseeds": 0, "zeta": 0.125,
    }


class TestClusterGolden:
    """The whole `weakstat cluster` document at its defaults (the certify
    benchmark's job): a change to the fit or held-out draws, the Lloyd
    loop's float order, its rank weights or the certificate shows here."""

    @pytest.mark.parametrize("seed, expected", [
        (5, _cluster_document(
            [[3.3269108821843028, -0.005617721155966406],
             [-1.8158074568227642, 2.8719751535614035],
             [-1.657816750216267, -2.670015390807796]],
            6, 0.38180956132063293, 0.3004091811643914, 0.12730904627939119)),
        (97, _cluster_document(
            [[-1.6591750651152615, 2.7601921177080047],
             [-1.5922551867882468, -2.8191094796415404],
             [3.3056477067034495, 0.10184313050455351]],
            10, 0.3390572239656727, 0.3686735143576081, 0.08989211477175203)),
    ])
    def test_document(self, seed, expected):
        doc, status = run({"kind": "cluster", "seed": seed})
        assert status == EXIT_OK
        assert doc["result"] == expected


class TestRidgeProbeStream:
    def test_no_search_restart_shares_the_probe_stream(self):
        assert weakstat.cli._RIDGE_PROBE_STREAM >= 2 * weakstat.seminorms._RESTARTS
        for seed in (0, 5, 13, 97):
            rng = SeededRng(seed)
            probe = rng.split(weakstat.cli._RIDGE_PROBE_STREAM).generator().uniform(size=4)
            for stream in range(2 * weakstat.seminorms._RESTARTS):
                first = rng.split(stream).generator().uniform(size=4)
                assert not np.isin(probe, first).any(), (seed, stream)

    def test_the_estimate_draws_from_the_probe_stream(self, monkeypatch):
        seen = []

        def record(f, diameter, probes, rng):
            seen.append(rng)
            raise ConfigError("recorded")

        monkeypatch.setattr(weakstat.seminorms, "derivative_seminorms", record)
        with pytest.raises(ConfigError, match="recorded"):
            run(_seminorm_config(seed=5, statistic={"family": "ridge", "n": 4}))
        assert seen == [SeededRng(5).split(weakstat.cli._RIDGE_PROBE_STREAM)]


class TestDeterminism:
    def test_same_config_same_document(self):
        a, _ = run(_seminorm_config(seed=11))
        b, _ = run(_seminorm_config(seed=11))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestEmitTable:
    def test_single_result_has_header_and_row(self):
        doc, _ = run(_seminorm_config())
        text = emit_table([doc])
        lines = text.strip().split("\r\n")
        assert len(lines) == 2
        assert lines[0].startswith("kind,label,n,seed")

    def test_empty_input_is_header_only(self):
        assert emit_table([]).strip().split("\r\n") == [
            "kind,label,n,seed,m_lip,j_lip,m_plain,j_plain,method,"
            "g_mean,g_se,symmetrization_term,tail_term,total,delta,passed"
        ]

    def test_mixed_kinds_rejected(self):
        a, _ = run(_seminorm_config())
        b = {"kind": "rank", "config": {"seed": 0}, "result": {}}
        with pytest.raises(AggregationError):
            emit_table([a, b])

    def test_seed_only_changes_value_cells(self):
        a, _ = run(_seminorm_config(seed=1))
        b, _ = run(_seminorm_config(seed=2))
        ta = emit_table([a]).split("\r\n")
        tb = emit_table([b]).split("\r\n")
        assert ta[0] == tb[0]
        assert ta[1] != tb[1]

    def test_rfc4180_quoting(self):
        doc = {
            "kind": "seminorm",
            "config": {"seed": 0},
            "result": {"statistic": 'mean,"boxed"', "n": 4},
        }
        line = emit_table([doc]).strip().split("\r\n")[1]
        assert '"mean,""boxed"""' in line


class TestMainEntry:
    def test_end_to_end_with_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out.json"
        cfg_path.write_text(json.dumps(_seminorm_config()))
        status = main(["seminorm", "--config", str(cfg_path), "--out", str(out_path)])
        assert status == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "seminorm"
        assert doc["config"]["seed"] == 0

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_seminorm_config(seed=0)))
        out = tmp_path / "a.json"
        main(["seminorm", "--config", str(cfg_path), "--seed", "9", "--out", str(out)])
        assert json.loads(out.read_text())["config"]["seed"] == 9

    def test_byte_identical_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_seminorm_config(seed=7)))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["seminorm", "--config", str(cfg_path), "--out", str(out_a)])
        main(["seminorm", "--config", str(cfg_path), "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_one_process_equals_fresh_processes(self, tmp_path, capsys):
        # one parser serves every call: no override or output path of one
        # call may leak into the next, and a bad subcommand leaves no trace
        bound = tmp_path / "bound.json"
        bound.write_text(json.dumps(_BOUND_CONFIG))
        complexity = tmp_path / "complexity.json"
        complexity.write_text(json.dumps(_complexity_config(
            5, "rademacher", 16, {"kind": "linear", "count": 4}, 4, 256)))
        out = tmp_path / "out.json"
        calls = [["bound", "--config", str(bound)],
                 ["complexity", "--config", str(complexity)],
                 ["bound", "--config", str(bound), "--seed", "9", "--out", str(out)],
                 ["bound", "--config", str(bound)]]
        texts = []
        for argv in calls[:2]:
            assert main(argv) == EXIT_OK
            texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--config", str(bound)])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(calls[2]) == EXIT_OK
        assert capsys.readouterr().out == ""
        texts.append(out.read_text())
        assert main(calls[3]) == EXIT_OK
        texts.append(capsys.readouterr().out)
        assert texts[3] == texts[0] != texts[2]

        env = dict(os.environ, PYTHONPATH=str(Path(weakstat.cli.__file__).parents[1]))
        fresh_out = tmp_path / "fresh.json"
        for argv, text in zip(calls, texts):
            fresh_argv = [str(fresh_out) if arg == str(out) else arg for arg in argv]
            proc = subprocess.run([sys.executable, "-m", "weakstat.cli", *fresh_argv],
                                  env=env, capture_output=True, text=True, check=True)
            assert (fresh_out.read_text() if str(out) in argv else proc.stdout) == text

    def test_schema_violation_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_seminorm_config(budget=-5)))
        status = main(["seminorm", "--config", str(cfg_path)])
        assert status == EXIT_ERROR
        assert "config.budget" in capsys.readouterr().err

    def _bad_input(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        status = main([config["kind"], "--config", str(cfg_path)])
        return status, capsys.readouterr().err

    def test_one_dimensional_cluster_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys,
                                      {"kind": "cluster", "seed": 0, "cluster": {"dim": 1}})
        assert status == EXIT_ERROR
        assert "config.cluster.dim" in err

    def test_odd_rank_sample_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys,
                                      {"kind": "rank", "seed": 0, "rank": {"n": 41}})
        assert status == EXIT_ERROR
        assert "config.rank.n" in err

    def test_inverted_statistic_box_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, _seminorm_config(
            statistic={"family": "mean", "n": 8, "lower": 1.0, "upper": 0.0}
        ))
        assert status == EXIT_ERROR
        assert "config.statistic.lower" in err

    def test_more_clusters_than_points_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys,
                                      {"kind": "cluster", "seed": 0, "cluster": {"n": 2, "k": 3}})
        assert status == EXIT_ERROR
        assert "config.cluster.k" in err

    @pytest.mark.parametrize("n, k", [(5, 4), (1, 1)])
    def test_too_small_split_names_n(self, tmp_path, capsys, n, k):
        # n - n // 2 points are fitted (5 leave 3 for k = 4) and n // 2 held out (1 leaves 0)
        status, err = self._bad_input(tmp_path, capsys,
                                      {"kind": "cluster", "seed": 0, "cluster": {"n": n, "k": k}})
        assert status == EXIT_ERROR
        assert err.startswith("error: config.cluster.n:")

    def test_inverted_sampler_range_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "complexity", "seed": 0,
            "statistic": {"family": "mean", "n": 8},
            "sampler": {"kind": "uniform", "low": 1.0, "high": -1.0},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert "config.sampler.low" in err

    @pytest.mark.parametrize("kind, bounds, field", [
        ("verify", {"lower": -1e308, "upper": 1e308}, "statistic.upper"),
        ("verify", {"lower": -math.inf}, "statistic.lower"),
        ("verify", {"upper": math.nan}, "statistic.upper"),
        ("verify", {"lower": 1.0, "upper": 0.5}, "statistic.lower"),
        ("seminorm", {"lower": -1e308, "upper": 1e308}, "statistic.upper"),
        ("complexity", {"low": -1e308, "high": 1e308}, "sampler.high"),
        ("complexity", {"low": 0.0, "high": 1e308}, "sampler.high"),
        ("complexity", {"low": math.nan, "high": 1.0}, "sampler.low"),
    ])
    def test_box_no_draw_can_span_names_field(self, tmp_path, capsys, kind, bounds, field):
        # a box that is not finite, is unordered, or whose width overflows
        # (as at +-1e308, where the class box of [0, 1e308] is
        # [-1e308, 1e308]) ends before any number is printed
        config = {"kind": kind, "seed": 5, "budget": 200,
                  "statistic": {"family": "lstat", "n": 8, **bounds},
                  "verify": {"max_n": 3, "pairs": 2, "probes": 10}}
        if kind == "complexity":
            config = {"kind": kind, "seed": 5, "statistic": {"family": "mean", "n": 8},
                      "sampler": {"kind": "uniform", **bounds},
                      "replicates": {"outer": 2, "inner": 8}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        status = main([kind, "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith(f"error: config.{field}:")

    @pytest.mark.parametrize("family", ["mean", "ustat", "vstat", "lstat"])
    def test_overflowing_statistic_names_the_box(self, tmp_path, family):
        # a finite box on which every one of these families overflows; run
        # in a fresh process, where an overflow warning stays a warning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "verify", "seed": 5, "statistic": {
            "family": family, "n": 8, "lower": 1e307, "upper": 1.7e308}}))
        env = dict(os.environ, PYTHONPATH=str(Path(weakstat.cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "weakstat.cli", "verify",
                               "--config", str(cfg_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR and proc.stdout == ""
        assert "error: config.statistic.lower, config.statistic.upper: " in proc.stderr

    @pytest.mark.parametrize("lower, upper", [(1e307, 1.7e308), (0.0, 1e200)])
    @pytest.mark.parametrize("kind, family", [
        ("seminorm", "mean"), ("seminorm", "lstat"), ("seminorm", "auc"),
        ("bound", "mean"), ("bound", "lstat"),
    ])
    def test_overflowing_diameter_names_the_box(self, tmp_path, kind, family, lower, upper):
        # the widths are finite but their norm overflows, which the search's
        # pair separation and the mean and lstat closed forms scale with
        config = dict(_BOUND_CONFIG, kind=kind, seed=5, budget=2000, statistic={
            "family": family, "n": 8, "lower": lower, "upper": upper})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        env = dict(os.environ, PYTHONPATH=str(Path(weakstat.cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "weakstat.cli", kind,
                               "--config", str(cfg_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR and proc.stdout == ""
        assert "error: config.statistic.lower, config.statistic.upper: " in proc.stderr

    @pytest.mark.parametrize("family", ["ustat", "vstat"])
    def test_sample_below_kernel_arity_names_field(self, tmp_path, capsys, family):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "verify", "seed": 0, "statistic": {"family": family, "n": 1},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.n" in err

    @pytest.mark.parametrize("family", ["ustat", "vstat"])
    @pytest.mark.parametrize("lower, upper, field", [(-1.0, 1.0, "lower"), (0.0, 2.0, "upper")])
    def test_kernel_seminorm_off_the_unit_box_names_field(self, tmp_path, capsys, monkeypatch,
                                                          family, lower, upper, field):
        # the refusal comes before the search
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(weakstat.cli.smn, "empirical_seminorms", no_search)
        status, err = self._bad_input(tmp_path, capsys, _seminorm_config(
            statistic={"family": family, "n": 8, "lower": lower, "upper": upper}))
        assert status == EXIT_ERROR
        assert f"config.statistic.{field}" in err and "the search ran" not in err

    @pytest.mark.parametrize("family", ["ustat", "vstat"])
    def test_kernel_bound_off_the_unit_box_names_field(self, tmp_path, capsys, family):
        status, err = self._bad_input(tmp_path, capsys, dict(
            _BOUND_CONFIG, statistic={"family": family, "n": 16, "lower": 0.0, "upper": 1.5}))
        assert status == EXIT_ERROR
        assert "config.statistic.upper" in err

    @pytest.mark.parametrize("family", ["ustat", "vstat"])
    def test_kernel_closed_forms_inside_the_unit_box(self, family):
        doc, status = run(_seminorm_config(
            statistic={"family": family, "n": 8, "lower": 0.25, "upper": 0.75}))
        assert status == EXIT_OK
        assert doc["result"]["upper_bound"]["method"] == "analytic_bound"
        bound = dict(_BOUND_CONFIG, statistic={"family": family, "n": 16, "lower": 0.0,
                                               "upper": 1.0})
        assert run(bound)[1] == EXIT_OK
        # verify needs no closed form, so any box stays allowed
        verify = {"kind": "verify", "seed": 0, "verify": {"max_n": 4, "pairs": 2, "probes": 8},
                  "statistic": {"family": family, "n": 4, "lower": -1.0, "upper": 1.0}}
        assert run(verify)[1] == EXIT_OK

    def test_ridge_bound_names_family(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "bound", "seed": 0, "statistic": {"family": "ridge", "n": 4},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.family" in err

    @pytest.mark.parametrize("n", [4, 10**5])
    def test_ridge_bound_computes_no_seminorms(self, tmp_path, capsys, monkeypatch, n):
        # the refusal reads the statistic's box, before any seminorm report
        def no_estimate(*args, **kwargs):
            raise AssertionError("the seminorms were estimated")
        monkeypatch.setattr(weakstat.seminorms, "derivative_seminorms", no_estimate)
        status, out, err = _subcommand_run(tmp_path, capsys, "bound",
                                           statistic={"family": "ridge", "n": n})
        assert (status, out) == (EXIT_ERROR, "")
        assert err.startswith("error: config.statistic.family: "), err

    @pytest.mark.parametrize("n", [1449, 10**5])
    def test_ridge_seminorm_beyond_memory_names_n(self, tmp_path, capsys, n):
        # the first-order differences would stack 2 n^2 (d + 1)^2 values,
        # above 2^24 from n = 1449 at d = 1
        status, out, err = _subcommand_run(tmp_path, capsys, "seminorm",
                                           statistic={"family": "ridge", "n": n})
        assert (status, out) == (EXIT_ERROR, "")
        assert err.startswith("error: config.statistic.n: "), err

    def test_ridge_verify_never_takes_the_estimate(self, tmp_path, capsys):
        # verify checks the identity at small sizes, whatever statistic.n is
        status, out, err = _subcommand_run(tmp_path, capsys, "verify",
                                           statistic={"family": "ridge", "n": 10**5})
        assert status == EXIT_OK and json.loads(out)["result"]["all_passed"], err

    @pytest.mark.parametrize("bounds", [{"lower": 0.0, "upper": 1e200}, {"upper": 1.0},
                                        {"lower": -1.0}])
    def test_ridge_seminorm_box_names_field(self, tmp_path, capsys, bounds):
        # ridge fixes its own box [-1, 1]^(d+1) and reads no statistic box,
        # so one is refused
        config = {"kind": "seminorm", "seed": 5, "budget": 400,
                  "statistic": {"family": "ridge", "n": 4, **bounds}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        status = main(["seminorm", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith(f"error: config.statistic.{next(iter(bounds))}: the ridge family "
                              "does not read it; it reads lam, d besides family and n")

    @pytest.mark.parametrize("kind", ["seminorm", "verify", "bound"])
    def test_ridge_dimension_beyond_memory_names_field(self, tmp_path, capsys, kind):
        # the (d + 1)-coordinate points and d x d Gram matrices of d = 10^8
        # would not fit in memory; the refusal comes before any is built
        config = {"kind": kind, "seed": 5, "statistic": {"family": "ridge", "n": 4, "d": 10**8}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        status = main([kind, "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith("error: config.statistic.d: ")

    @pytest.mark.parametrize("bounds", [{"lower": -1.0, "upper": 3.0}, {"upper": 1.0},
                                        {"lower": -1.0}])
    def test_ridge_verify_box_names_field(self, tmp_path, capsys, bounds):
        # the same rule as seminorm's: a verify document would echo a box
        # that the ridge statistic never draws from
        config = dict(_VERIFY_CONFIGS["ridge"])
        config["statistic"] = dict(config["statistic"], **bounds)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        status = main(["verify", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith(f"error: config.statistic.{next(iter(bounds))}: the ridge family "
                              "does not read it; it reads lam, d besides family and n")

    @pytest.mark.parametrize("n, low, high, count", [(8, 0.0, 1e200, 1),
                                                     (1000, -1e153, 1e153, 2)])
    def test_bound_whose_sampler_moment_overflows_names_sampler(self, tmp_path, capsys,
                                                               n, low, high, count):
        # E x^2 overflows on [0, 1e200]; on [-1e153, 1e153] E x^2 is finite
        # but n E x^2, which the closed-form complexity takes, is not
        config = {"kind": "bound", "seed": 5,
                  "statistic": {"family": "auc", "n": n, "lower": low, "upper": high},
                  "function_class": {"kind": "linear", "count": count},
                  "sampler": {"kind": "uniform", "low": low, "high": high}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with np.errstate(all="ignore"):
            status = main(["bound", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith("error: config.sampler.low, config.sampler.high: ")

    def test_rademacher_bound_names_complexity_kind(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys,
                                      dict(_BOUND_CONFIG, complexity_kind="rademacher"))
        assert status == EXIT_ERROR
        assert "config.complexity_kind" in err

    def test_lstat_verify_of_one_point_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "verify", "seed": 0, "statistic": {"family": "lstat", "n": 1},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.n" in err

    @pytest.mark.parametrize("count", [1, 3, 15])
    def test_odd_symmetric_class_names_count(self, tmp_path, capsys, count):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "complexity", "seed": 0,
            "statistic": {"family": "mean", "n": 8},
            "function_class": {"kind": "linear_symmetric", "count": count},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert "config.function_class.count" in err

    def test_verify_without_sample_sizes_names_max_n(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "verify", "seed": 0, "statistic": {"family": "auc", "n": 4},
            "verify": {"max_n": 1},
        })
        assert status == EXIT_ERROR
        assert "config.verify.max_n" in err

    # the step weight zeta = 0 has an infinite Lipschitz norm, and so has
    # zeta = 1e-320, where 2 / (3 zeta) overflows
    @pytest.mark.parametrize("zeta", [0, 1e-320])
    def test_step_weight_bound_names_zeta(self, tmp_path, capsys, zeta):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "bound", "seed": 0,
            "statistic": {"family": "lstat", "n": 8, "zeta": zeta, "lower": -1.0, "upper": 1.0},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert err.startswith("error: config.statistic.zeta: ")

    @pytest.mark.parametrize("zeta", [0, 1e-320])
    def test_step_weight_verify_names_zeta(self, tmp_path, capsys, zeta):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "verify", "seed": 0, "statistic": {"family": "lstat", "n": 4, "zeta": zeta},
        })
        assert status == EXIT_ERROR
        assert err.startswith("error: config.statistic.zeta: ")

    def test_subnormal_cluster_zeta_names_field(self, tmp_path, capsys):
        # zeta = 0 fits without a certificate; 1e-320 asks for one that has
        # no finite Lipschitz norm
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            _CLUSTER_CONFIG, cluster=dict(_CLUSTER_CONFIG["cluster"], zeta=1e-320))))
        status = main(["cluster", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith("error: config.cluster.zeta: ")

    @pytest.mark.parametrize("kind, block, field", [
        ("rank", {"n": 40, "ramp_width": 1e-320}, "ramp_width"),
        ("cluster", {"n": 80, "ball_radius": 1e200}, "ball_radius"),
    ])
    def test_overflowing_application_input_names_field(self, tmp_path, capsys, kind, block,
                                                       field):
        # 1 / ramp_width and the squared distances in a ball of that radius
        # overflow
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": kind, "seed": 0, kind: block}))
        status = main([kind, "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert status == EXIT_ERROR and out == ""
        assert err.startswith(f"error: config.{kind}.{field}: ")

    def test_huge_separation_is_certified(self, tmp_path, capsys):
        # (separation / 2)^2 overflows, but every draw of the first
        # coordinate is clipped to the box, whose E x^2 is 9
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "rank", "seed": 0,
                                        "rank": {"n": 200, "separation": 1e300}}))
        status = main(["rank", "--config", str(cfg_path)])
        out, _ = capsys.readouterr()
        assert status == EXIT_OK
        result = json.loads(out)["result"]
        assert result["empirical_auc"] == 1.0
        assert result["g"]["mean"] == pytest.approx(8.69, abs=0.01)

    def test_class_leaving_statistic_box_names_sampler(self, tmp_path, capsys):
        # the default sampler [-1, 1] under the default box [0, 1]
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "bound", "seed": 0, "statistic": {"family": "mean", "n": 8},
        })
        assert status == EXIT_ERROR
        assert "config.sampler" in err and "[0.0, 1.0]" in err

    def test_infinite_upper_bound_is_written_as_null(self, tmp_path):
        # the step weight's closed form has no finite second-order value,
        # while its search half is meaningful
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_seminorm_config(
            budget=2000, statistic={"family": "lstat", "n": 8, "zeta": 0})))
        out = tmp_path / "o.json"
        assert main(["seminorm", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["result"]["upper_bound"]["j_lip"] is None
        assert doc["result"]["upper_bound"]["j_plain"] is None
        assert doc["result"]["empirical"]["j_lip"] > 0

    def test_non_finite_result_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(weakstat.cli, "run", lambda config: ({"total": float("nan")}, EXIT_OK))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_seminorm_config()))
        out = tmp_path / "o.json"
        status = main(["seminorm", "--config", str(cfg_path), "--out", str(out)])
        assert status == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ValueError")
        assert not out.exists()

    def test_kind_mismatch_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_seminorm_config()))
        status = main(["complexity", "--config", str(cfg_path)])
        assert status == EXIT_ERROR

    def test_missing_config_exits_one(self, tmp_path, capsys):
        status = main(["seminorm", "--config", str(tmp_path / "nope.json")])
        assert status == EXIT_ERROR

    def test_csv_side_output(self, tmp_path):
        cfg = _seminorm_config()
        cfg["output"] = {"csv_path": str(tmp_path / "t.csv")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        status = main(["seminorm", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o.json")])
        assert status == EXIT_OK
        assert (tmp_path / "t.csv").read_text().startswith("kind,label")


# The family table of the README, restated: the statistic fields each
# family reads besides family and n, and its smallest n (auc's n is even).
_READS = {"mean": ("lower", "upper"), "ustat": ("lower", "upper"), "vstat": ("lower", "upper"),
          "auc": ("lower", "upper", "ramp_width"), "lstat": ("lower", "upper", "zeta"),
          "ridge": ("lam", "d")}
_MIN_N = {"mean": 1, "ustat": 2, "vstat": 2, "auc": 2, "lstat": 1, "ridge": 1}
# each field at a value every reading family accepts, and the box ends also
# off the unit box (bound's class maps its sampler [0, 1] onto [0, 1])
_FIELD_CASES = [("lower", 0.0), ("lower", -1.0), ("upper", 1.0), ("upper", 2.0),
                ("zeta", 0.125), ("ramp_width", 0.5), ("lam", 0.25), ("d", 2),
                ("n", 4), ("n", 3), ("n", 1)]


def _table_refusal(kind, family, field, value):
    """The start of the error the table prescribes, or None for a run that
    exits 0: an unread field, an n the family does not admit, a closed form
    off the unit box (only where the run takes the closed form), the lstat
    probe of verify at one point, and ridge's estimated seminorms under
    bound."""
    if field != "n" and field not in _READS[family]:
        return f"error: config.statistic.{field}: the {family} family does not read it; "
    if field == "n" and (value < _MIN_N[family] or (family == "auc" and value % 2)):
        return f"error: config.statistic.n: the {family} family needs n >= {_MIN_N[family]}"
    if (kind != "verify" and family in ("ustat", "vstat") and field in ("lower", "upper")
            and not 0.0 <= value <= 1.0):
        return f"error: config.statistic.{field}: the {family} closed form holds on boxes inside"
    if kind == "verify" and family == "lstat" and field == "n" and value < 2:
        return "error: config.statistic.n: the lstat condition probe needs two distinct indices"
    if kind == "bound" and family == "ridge":
        return "error: config.statistic.family: certificates require closed-form upper-bound"
    return None


def _subcommand_run(tmp_path, capsys, kind, **config):
    """(exit status, stdout, stderr) of a small run of the subcommand."""
    config = {"kind": kind, "seed": 5, "budget": 200,
              "verify": {"max_n": 4, "pairs": 2, "probes": 10},
              "function_class": {"kind": "linear", "count": 4},
              "sampler": {"kind": "uniform", "low": 0.0, "high": 1.0}, **config}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    status = main([kind, "--config", str(cfg_path)])
    return (status, *capsys.readouterr())


class TestFamilyTable:
    """seminorm, verify and bound read one table of the families: each
    accepts or refuses a statistic field, or an n, for the same reason."""

    @pytest.mark.parametrize("field, value", _FIELD_CASES)
    @pytest.mark.parametrize("family", list(_READS))
    @pytest.mark.parametrize("kind", ["seminorm", "verify", "bound"])
    def test_fields_are_accepted_or_refused_alike(self, tmp_path, capsys, kind, family, field,
                                                  value):
        status, out, err = _subcommand_run(tmp_path, capsys, kind,
                                           statistic={"family": family, "n": 4, field: value})
        refusal = _table_refusal(kind, family, field, value)
        if refusal is None:
            assert status == EXIT_OK, err
        else:
            assert (status, out) == (EXIT_ERROR, "") and err.startswith(refusal), err

    @pytest.mark.parametrize("kind", ["seminorm", "verify", "bound"])
    def test_missing_statistic_block_names_family(self, tmp_path, capsys, kind):
        status, out, err = _subcommand_run(tmp_path, capsys, kind)
        assert (status, out) == (EXIT_ERROR, "")
        assert err.startswith("error: config.statistic.family: required field is missing")


# one end of a box: ordinary, near the float limit, or where a square, a
# diameter or a sum of n squares overflows
_MAGNITUDE = st.one_of(st.floats(0.0, 1.7e308), st.floats(0.0, 10.0),
                       st.sampled_from([0.0, 0.5, 1.0, 1e153, 1.3e154, 1e200, 1e307, 1.7e308]))
_BOX = st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1]),
                min_size=2, max_size=2).map(sorted)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [v for item in node for v in _numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(["seminorm", "verify", "bound"]),
       family=st.sampled_from(["mean", "ustat", "vstat", "auc", "lstat", "ridge"]),
       n=st.sampled_from([2, 4, 8, 1000]), bounds=st.none() | _BOX, sampler=_BOX,
       linear=st.booleans(), count=st.sampled_from([1, 2, 4]))
@example(kind="bound", family="auc", n=8, bounds=[0.0, 1e200], sampler=[0.0, 1e200],
         linear=True, count=1)
@example(kind="bound", family="auc", n=1000, bounds=[-1e153, 1e153],
         sampler=[-1e153, 1e153], linear=True, count=2)
@example(kind="seminorm", family="ridge", n=4, bounds=[0.0, 1e200], sampler=[0.0, 1.0],
         linear=True, count=1)
def test_boxes_to_the_float_limit_name_a_field_or_print_finite_numbers(
        kind, family, n, bounds, sampler, linear, count):
    # every family x subcommand on boxes (and samplers) up to 1.7e308: exit
    # 1 naming a config field with nothing printed, or exit 0 and a document
    # whose numbers are all finite.  In process under errstate, because the CLI
    # process prints numpy's overflow warnings and goes on, where pytest's
    # error::RuntimeWarning filter would raise them
    if kind != "bound":
        n = min(n, 8)  # the search and the swap tables grow with n
    statistic = {"family": family, "n": n}
    if bounds is not None:
        statistic.update(lower=bounds[0], upper=bounds[1])
    config = {"kind": kind, "seed": 5, "budget": 200, "statistic": statistic,
              "verify": {"max_n": 3, "pairs": 2, "probes": 10},
              "function_class": {"kind": "linear" if linear else "linear_symmetric",
                                 "count": count if linear else 2 * count},
              "sampler": {"kind": "uniform", "low": sampler[0], "high": sampler[1]}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with np.errstate(all="ignore"), redirect_stdout(out), redirect_stderr(err):
            status = main([kind, "--config", cfg_path])
    if status == EXIT_ERROR:
        assert out.getvalue() == "" and err.getvalue().startswith("error: config."), (
            err.getvalue())
    else:
        assert status == EXIT_OK
        assert all(math.isfinite(v) for v in _numbers(json.loads(out.getvalue())))
