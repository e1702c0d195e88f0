import json

import pytest

import weakstat.oracle
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


class TestCertificateGolden:
    """Exact certificate numbers of the small runs above; a change to the
    complexity inflation, the seminorm check or the float order of either
    certificate formula shows here."""

    @pytest.mark.parametrize("config, expected", [
        (_BOUND_CONFIG, {
            "symmetrization_term": 0.31531264405037085,
            "tail_term": 0.43270459565057134,
            "total": 0.7480172397009421,
            "g_effective": 1.0063323620548816,
        }),
        (_CLUSTER_CONFIG, {
            "symmetrization_term": 158.4038605576531,
            "tail_term": 32.57347403719254,
            "total": 190.97733459484564,
            "g_effective": 6.559930521307339,
        }),
    ])
    def test_uniform_bound_certificates(self, config, expected):
        cert = run(config)[0]["result"]["certificate"]
        assert {key: cert[key] for key in expected} == expected
        assert (cert["direction"], cert["se_z"]) == ("pop_minus_emp", 3.0)

    def test_ranking_certificate(self):
        res = run(_RANK_CONFIG)[0]["result"]
        assert res["certificate_lower_bound"] == -1.7684669222783473
        assert res["g"]["mean"] == 1.8881932621575708


_VERIFY_CONFIGS = {
    family: {
        "kind": "verify",
        "seed": 3,
        "statistic": {"family": family, "n": 8, "lower": -1.0, "upper": 3.0, **extra},
        "verify": {"max_n": 8, "pairs": 4, "probes": 20},
    }
    for family, extra in (("mean", {}), ("lstat", {"zeta": 0.25}))
}


def _identity_records(*lhs):
    return [(v, 1e-09, 1e-09 - v, True) for v in lhs]


class TestVerifyGolden:
    """Exact (lhs, rhs, slack, pass) of each record of two small verify
    runs; a change to the residual, its Kahan sum or the slack arithmetic
    shows here."""

    @pytest.mark.parametrize("family, expected", [
        ("mean", _identity_records(
            0.0, 1.1102230246251565e-16, 2.1658193783793286e-16, 0.0,
            1.1102230246251565e-16, 1.1102230246251565e-16, 6.938893903907228e-17, 0.0,
        )),
        ("lstat", _identity_records(
            0.0, 1.2794573716330748e-16, 1.3877787807814457e-17, 2.220446049250313e-16,
            0.0, 1.1102230246251565e-16, 1.1102230246251565e-16, 1.1102230246251565e-16,
        ) + [(0.0, 0.0, 0.0, True)]),
    ])
    def test_records(self, family, expected):
        doc, status = run(_VERIFY_CONFIGS[family])
        assert status == EXIT_OK
        records = doc["result"]["records"]
        assert [(r["lhs"], r["rhs"], r["slack"], r["pass"]) for r in records] == expected
        assert all(type(r["pass"]) is bool for r in records)


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

    def test_inverted_sampler_range_names_field(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "complexity", "seed": 0,
            "statistic": {"family": "mean", "n": 8},
            "sampler": {"kind": "uniform", "low": 1.0, "high": -1.0},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert "config.sampler.low" in err

    @pytest.mark.parametrize("family", ["ustat", "vstat"])
    def test_sample_below_kernel_arity_names_field(self, tmp_path, capsys, family):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "verify", "seed": 0, "statistic": {"family": family, "n": 1},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.n" in err

    def test_ridge_bound_names_family(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "bound", "seed": 0, "statistic": {"family": "ridge", "n": 4},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.family" in err

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

    def test_step_weight_bound_names_zeta(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "bound", "seed": 0,
            "statistic": {"family": "lstat", "n": 8, "zeta": 0, "lower": -1.0, "upper": 1.0},
            "replicates": {"outer": 2, "inner": 8},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.zeta" in err

    def test_step_weight_verify_names_zeta(self, tmp_path, capsys):
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "verify", "seed": 0, "statistic": {"family": "lstat", "n": 4, "zeta": 0},
        })
        assert status == EXIT_ERROR
        assert "config.statistic.zeta" in err

    def test_class_leaving_statistic_box_names_sampler(self, tmp_path, capsys):
        # the default sampler [-1, 1] under the default box [0, 1]
        status, err = self._bad_input(tmp_path, capsys, {
            "kind": "bound", "seed": 0, "statistic": {"family": "mean", "n": 8},
        })
        assert status == EXIT_ERROR
        assert "config.sampler" in err and "[0.0, 1.0]" in err

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
