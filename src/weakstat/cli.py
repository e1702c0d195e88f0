"""Batch experiment runner.

``weakstat <subcommand> --config <path> [--seed N] [--out <path>]``

The JSON config file is the source of truth (validated against the shipped
schema); flags only override the seed and the output path.  Every result
document embeds the config as read, with only a ``--seed`` override
applied (defaults are not filled in), and identical configs produce
byte-identical documents.

Exit codes: 0 success, 1 config or runtime error, 2 completed run with a
failed check (so CI can tell bound violations from bugs).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from importlib import resources

import jsonschema
import numpy as np

from . import applications as apps
from . import bounds as bnd
from . import complexity as cpx
from . import oracle as orc
from . import seminorms as smn
from . import statistics as stats
from .core import FunctionClass, RawSpace, SeededRng, box, linear_class, uniform_raw_space

__all__ = ["main", "run", "emit_table", "load_schema", "AggregationError", "ConfigError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

_TABLE_COLUMNS = [
    "kind", "label", "n", "seed",
    "m_lip", "j_lip", "m_plain", "j_plain", "method",
    "g_mean", "g_se",
    "symmetrization_term", "tail_term", "total", "delta",
    "passed",
]


class ConfigError(ValueError):
    """Configuration rejected before running; message points at the field."""


class AggregationError(ValueError):
    """emit_table received result documents of mixed kinds."""


def load_schema(name: str) -> dict:
    with resources.files("weakstat.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def validate_config(config: dict) -> None:
    schema = load_schema("experiment_config.schema.json")
    validator = jsonschema.Draft7Validator(schema)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "config" + "".join(f".{p}" for p in err.absolute_path)
        raise ConfigError(f"{where}: {err.message}")


def validate_certificate(doc: dict) -> None:
    jsonschema.validate(doc, load_schema("certificate.schema.json"))


def _field(config: dict, path: str, default=None):
    node = config
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not None:
                return default
            raise ConfigError(f"config.{path}: required field is missing")
        node = node[part]
    return node


def _build_statistic(config: dict):
    """Resolve the statistic family into (Statistic, upper-bound report fn).

    The second element computes the family's upper-bound seminorms: closed
    forms, except for ridge, whose finite-difference route is an estimate
    that certificates still accept (a known defect).
    """
    family = _field(config, "statistic.family")
    n = int(_field(config, "statistic.n"))
    s = config["statistic"]
    lower = float(s.get("lower", 0.0))
    upper = float(s.get("upper", 1.0))
    if lower > upper:
        raise ConfigError(f"config.statistic.lower: {lower} exceeds statistic.upper {upper}")
    dom = box([lower], [upper])

    if family == "mean":
        f = stats.mean_statistic(n, dom)
        report = lambda: smn.analytic_seminorms_lstat(stats.constant_weight(1.0), dom.diameter, n)
    elif family in ("ustat", "vstat"):
        kernel = stats.product_kernel()
        if n < kernel.m:
            raise ConfigError(
                f"config.statistic.n: the {family} family needs n >= {kernel.m} "
                f"(the kernel arity), got {n}"
            )
        build = stats.u_stat_statistic if family == "ustat" else stats.v_stat_statistic
        f = build(kernel, n, dom)
        report = lambda: smn.analytic_seminorms_ustat(
            kernel.lipschitz_L, kernel.range_B, kernel.m, n, kind="U" if family == "ustat" else "V"
        )
    elif family == "auc":
        if n % 2 != 0:
            raise ConfigError(f"config.statistic.n: the auc family needs even n, got {n}")
        loss = stats.ramp_loss(float(s.get("ramp_width", 1.0)))
        f = stats.auc_statistic(loss, n, dom)
        report = lambda: smn.analytic_seminorms_auc(loss.lipschitz_L, n)
    elif family == "lstat":
        weight = stats.f_zeta_weight(float(s.get("zeta", 0.25)))
        f = stats.lstat_statistic(weight, n, dom)
        report = lambda: smn.analytic_seminorms_lstat(weight, dom.diameter, n)
    elif family == "ridge":
        problem = stats.RidgeProblem(lam=float(s.get("lam", 0.5)), d=int(s.get("d", 1)))
        f = stats.ridge_error_statistic(problem, n)
        report = lambda: smn.derivative_seminorms(
            f, f.domain.diameter, probes=4, rng=SeededRng(config["seed"]).split(1)
        )
    else:
        raise ConfigError(f"config.statistic.family: unknown family {family!r}")
    return f, report


def _build_class(config: dict, domain_hint=None):
    cls = config.get("function_class", {"kind": "linear_symmetric", "count": 16})
    sampler_cfg = config.get("sampler", {"kind": "uniform", "low": -1.0, "high": 1.0})
    low = float(sampler_cfg.get("low", -1.0))
    high = float(sampler_cfg.get("high", 1.0))
    if low > high:
        raise ConfigError(f"config.sampler.low: {low} exceeds sampler.high {high}")
    count = int(cls.get("count", 16))
    if cls["kind"] == "linear":
        weights = [(j + 1) / count for j in range(count)]
    elif cls["kind"] == "linear_symmetric":
        if count % 2 != 0:
            raise ConfigError(
                f"config.function_class.count: linear_symmetric pairs each weight with its "
                f"negative, so count must be even, got {count}"
            )
        half = count // 2
        weights = [(j + 1) / half for j in range(half)]
        weights = weights + [-w for w in weights]
    else:
        raise ConfigError(f"config.function_class.kind: unknown kind {cls['kind']!r}")
    ends = [w * e for w in weights for e in (low, high)]
    lo, hi = min(ends), max(ends)
    dom = domain_hint if domain_hint is not None else box([lo], [hi])
    if lo < dom.lower[0] or hi > dom.upper[0]:
        raise ConfigError(f"config.sampler: the class maps [{low}, {high}] onto [{lo}, {hi}], "
                          f"outside the statistic box [{dom.lower[0]}, {dom.upper[0]}]")
    return linear_class(weights, uniform_raw_space(low, high), dom)


def _refuse_step_weight(config: dict) -> None:
    s = config["statistic"]
    if s["family"] == "lstat" and float(s.get("zeta", 0.25)) == 0.0:
        raise ConfigError(f"config.statistic.zeta: {config['kind']} needs a finite Lipschitz "
                          "norm, which the step weight zeta = 0 does not have")


def _run_seminorm(config: dict) -> dict:
    f, report_fn = _build_statistic(config)
    budget = int(config.get("budget", 20000))
    emp = smn.empirical_seminorms(f, budget, SeededRng(config["seed"]))
    return {
        "statistic": f.label,
        "n": f.n,
        "empirical": emp.to_dict(),
        "upper_bound": report_fn().to_dict(),
    }


def _class_complexity(config: dict, fclass: FunctionClass, n: int, kind: str,
                      rng: SeededRng, outer: int, inner: int) -> cpx.ComplexityEstimate:
    """class_complexity at the config's replicate counts, which default to
    the subcommand's ``outer`` and ``inner``."""
    reps = config.get("replicates", {})
    return cpx.class_complexity(fclass, n, kind, int(reps.get("outer", outer)),
                                int(reps.get("inner", inner)), rng)


def _run_complexity(config: dict) -> dict:
    fclass = _build_class(config)
    n = int(_field(config, "statistic.n", 16))
    est = _class_complexity(config, fclass, n, config.get("complexity_kind", "gaussian"),
                            SeededRng(config["seed"]), 64, 2048)
    return {"class": fclass.label, "n": n, "estimate": est.to_dict()}


def _run_bound(config: dict) -> dict:
    f, report_fn = _build_statistic(config)
    _refuse_step_weight(config)
    if f.domain.d != 1:
        raise ConfigError(f"config.statistic.family: {f.label} has {f.domain.d}-dimensional "
                          "points, but bound certifies a scalar linear class")
    rng = SeededRng(config["seed"])
    report = report_fn()
    fclass = _build_class(config, domain_hint=f.domain)
    g = _class_complexity(config, fclass, f.n, config.get("complexity_kind", "gaussian"),
                          rng.split(2), 64, 2048)
    delta = float(config.get("delta", 0.05))
    cert = bnd.uniform_bound(report, g, f.n, delta)
    doc = cert.to_dict()
    validate_certificate(doc)
    return {"statistic": f.label, "n": f.n, "certificate": doc}


def _run_verify(config: dict) -> dict:
    f, _ = _build_statistic(config)
    opts = config.get("verify", {})
    max_n = int(opts.get("max_n", min(f.n, 8)))
    pairs = int(opts.get("pairs", 20))
    probes = int(opts.get("probes", 200))
    rng = SeededRng(config["seed"])
    gen = rng.generator()
    records = []

    family = _field(config, "statistic.family")
    if family == "lstat" and f.n < 2:
        raise ConfigError(
            f"config.statistic.n: the lstat condition probe needs two distinct indices, "
            f"so n >= 2, got {f.n}"
        )
    _refuse_step_weight(config)
    sizes = [n for n in range(1, max_n + 1)]
    if family == "auc":
        sizes = [n for n in sizes if n % 2 == 0]
    if family in ("ustat", "vstat"):
        sizes = [n for n in sizes if n >= 2]
    if not sizes:
        raise ConfigError(
            f"config.verify.max_n: no sample size in 1..{max_n} suits the {family} family, "
            "so nothing would be checked"
        )

    for n in sizes:
        sized = dict(config)
        sized["statistic"] = dict(config["statistic"], n=n)
        fn, _ = _build_statistic(sized)
        dom = fn.domain
        worst = 0.0
        for _ in range(pairs):
            x = dom.uniform(gen, n)
            xp = dom.uniform(gen, n)
            dec = orc.fk_decompose(fn, x, xp)
            worst = max(worst, dec.residual / max(1.0, abs(dec.lhs)))
        records.append(orc.CheckResult("telescoping_identity", worst, orc.IDENTITY_RTOL, 0.0,
                                       f"{fn.label},n={n},pairs={pairs}").to_record())

    if family == "lstat":
        weight = stats.f_zeta_weight(float(config["statistic"].get("zeta", 0.25)))
        n = f.n
        fails = 0
        worst = 0.0
        for _ in range(probes):
            x = f.domain.uniform(gen, n)
            k = int(gen.integers(n))
            l = int(gen.integers(n - 1))
            if l >= k:
                l += 1
            y, yp, z, zp = gen.uniform(f.domain.lower[0], f.domain.upper[0], size=4)
            c1, c2 = orc.lstat_condition_check(weight, x, k, l, y, yp, z, zp)
            fails += (not c1.passed) + (not c2.passed)
            worst = max(worst, -c1.slack, -c2.slack)
        records.append({
            "check": "lstat_conditions",
            "inputs": f"n={n},probes={probes}",
            "lhs": float(fails),
            "rhs": 0.0,
            "slack": -worst if fails else 0.0,
            "pass": fails == 0,
        })

    return {"statistic": f.label, "records": records, "all_passed": all(r["pass"] for r in records)}


def _nearest_center_loss(centers: np.ndarray):
    """Class member: each row's squared distance to its nearest center."""
    return lambda X: np.min(stats._squared_distances(X, centers), axis=1)


def _run_cluster(config: dict) -> dict:
    opts = config.get("cluster", {})
    n = int(opts.get("n", 240))
    K = int(opts.get("k", 3))
    if K > n:
        raise ConfigError(f"config.cluster.k: {K} clusters exceed cluster.n = {n} points")
    zeta = float(opts.get("zeta", 0.125))
    dim = int(opts.get("dim", 2))
    radius = float(opts.get("ball_radius", 6.0))
    std = float(opts.get("cluster_std", 0.4))
    noise = float(opts.get("noise_fraction", 0.25))
    restarts = int(opts.get("restarts", 10))
    max_iters = int(opts.get("max_iters", 100))
    rng = SeededRng(config["seed"])

    angles = np.arange(K) * 2.0 * math.pi / K
    true_centers = 0.55 * radius * np.stack(
        [np.cos(angles), np.sin(angles)] + [np.zeros(K)] * (dim - 2)
    ).T
    data = apps.gaussian_mixture_with_noise(n, true_centers, std, noise, radius, rng.split(0))
    result = apps.trimmed_kmeans(data, K, zeta, max_iters=max_iters,
                                 restarts=restarts, rng=rng.split(1))

    doc = {
        "n": n,
        "k": K,
        "zeta": zeta,
        "objective": result.objective,
        "iterations": result.iterations,
        "reseeds": result.reseeds,
        "centers": [[float(v) for v in c] for c in result.centers],
        "recovery_error": apps.center_matching_error(result.centers, true_centers),
    }
    if zeta > 0:
        # Deviation certificate over the finite class of per-restart loss
        # maps; the best-restart pick is covered by a uniform bound on it.
        loss_box = box([0.0], [(2.0 * radius) ** 2])
        runs = [
            apps.trimmed_kmeans(data, K, zeta, max_iters=max_iters, restarts=1,
                                rng=rng.split(1).split(r)).centers
            for r in range(restarts)
        ]
        space = RawSpace(
            lambda gen, m: apps.gaussian_mixture_with_noise(
                m, true_centers, std, noise, radius, gen
            ),
            label="mixture",
        )
        loss_class = FunctionClass(tuple(_nearest_center_loss(c) for c in runs), space,
                                   loss_box, label="restart-losses")
        g = _class_complexity(config, loss_class, n, "gaussian", rng.split(3), 16, 512)
        cert = apps.clustering_certificate(result, radius, zeta, n, g,
                                           float(config.get("delta", 0.05)))
        cert_doc = cert.to_dict()
        validate_certificate(cert_doc)
        doc["certificate"] = cert_doc
    return doc


def _run_rank(config: dict) -> dict:
    opts = config.get("rank", {})
    n = int(opts.get("n", 200))
    count = int(opts.get("candidates", 8))
    dim = int(opts.get("dim", 2))
    sep = float(opts.get("separation", 1.5))
    width = float(opts.get("ramp_width", 1.0))
    delta = float(config.get("delta", 0.1))
    rng = SeededRng(config["seed"])

    space = apps.two_block_ranking_space(dim, sep)
    candidates = apps.linear_ranker_class(dim, count, space)
    loss = stats.ramp_loss(width)
    g = _class_complexity(config, candidates, n, "gaussian", rng.split(0), 32, 1024)
    data = space.sampler(rng.split(1).generator(), n)
    sel = apps.select_ranker(candidates, data, loss, g, delta)
    return {
        "n": n,
        "candidates": count,
        "chosen_index": sel.chosen_index,
        "empirical_auc": sel.empirical_auc,
        "certificate_lower_bound": sel.certificate_lower_bound,
        "delta": sel.delta,
        "g": g.to_dict(),
    }


_RUNNERS = {
    "seminorm": _run_seminorm,
    "complexity": _run_complexity,
    "bound": _run_bound,
    "verify": _run_verify,
    "cluster": _run_cluster,
    "rank": _run_rank,
}


def run(config: dict) -> tuple[dict, int]:
    """Execute the configured pipeline; returns (document, exit_status)."""
    validate_config(config)
    kind = config["kind"]
    result = _RUNNERS[kind](config)
    doc = {"kind": kind, "config": config, "result": result}
    status = EXIT_OK
    if kind == "verify" and not result["all_passed"]:
        status = EXIT_CHECK_FAILED
    return doc, status


def _doc_row(doc: dict) -> dict:
    row = dict.fromkeys(_TABLE_COLUMNS, "")
    row["kind"] = doc["kind"]
    row["seed"] = doc["config"].get("seed", "")
    res = doc["result"]
    row["label"] = res.get("statistic", res.get("class", ""))
    row["n"] = res.get("n", "")
    semis = res.get("empirical") or res.get("upper_bound") or {}
    if "certificate" in res:
        cert = res["certificate"]
        semis = cert["seminorms"]
        row["g_mean"] = cert["complexity"]["mean"]
        row["g_se"] = cert["complexity"]["std_error"]
        row["symmetrization_term"] = cert["symmetrization_term"]
        row["tail_term"] = cert["tail_term"]
        row["total"] = cert["total"]
        row["delta"] = cert["delta"]
    for key in ("m_lip", "j_lip", "m_plain", "j_plain", "method"):
        if key in semis:
            row[key] = semis[key]
    if "estimate" in res:
        row["g_mean"] = res["estimate"]["mean"]
        row["g_se"] = res["estimate"]["std_error"]
    if "records" in res:
        row["passed"] = res["all_passed"]
    if "empirical_auc" in res:
        row["total"] = res["certificate_lower_bound"]
        row["delta"] = res["delta"]
    return row


def emit_table(docs: list[dict]) -> str:
    """Render result documents of one kind as an RFC-4180 CSV table."""
    kinds = {d["kind"] for d in docs}
    if len(kinds) > 1:
        raise AggregationError(f"cannot aggregate mixed result kinds {sorted(kinds)}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_TABLE_COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    for doc in docs:
        writer.writerow(_doc_row(doc))
    return buf.getvalue()


def _serialize(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakstat",
        description="Concentration-bound experiments for nonlinear statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the JSON output path")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.seed is not None:
        config["seed"] = args.seed

    try:
        if config.get("kind") != args.command:
            raise ConfigError(
                f"config.kind: {config.get('kind')!r} does not match subcommand {args.command!r}"
            )
        doc, status = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # runtime failure, not a failed check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    text = _serialize(doc)
    # the output destination is an IO detail, not part of the resolved
    # config, so overriding it preserves byte-identical documents
    out_path = args.out if args.out is not None else config.get("output", {}).get("path")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    csv_path = config.get("output", {}).get("csv_path")
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write(emit_table([doc]))
    return status


if __name__ == "__main__":
    sys.exit(main())
