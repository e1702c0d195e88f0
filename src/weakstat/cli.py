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
import functools
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
from .core import SeededRng, box, linear_class, uniform_raw_space

__all__ = ["main", "run", "emit_table", "load_schema", "AggregationError", "ConfigError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

# The child of the seed's stream that the ridge estimate draws its probes
# from.  empirical_seminorms takes children 0 ... 2 * _RESTARTS - 1 for its
# restart searches (first order, then second), so no search restart shares
# it.
_RIDGE_PROBE_STREAM = 2 * smn._RESTARTS

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


@functools.cache
def _validator(name: str) -> jsonschema.Draft7Validator:
    """The shipped schema's validator, checked against the metaschema and
    built once per process."""
    schema = load_schema(name)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def validate_config(config: dict) -> None:
    validator = _validator("experiment_config.schema.json")
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "config" + "".join(f".{p}" for p in err.absolute_path)
        raise ConfigError(f"{where}: {err.message}")


def validate_certificate(doc: dict) -> None:
    """Raise the jsonschema.ValidationError that jsonschema.validate would."""
    error = jsonschema.exceptions.best_match(
        _validator("certificate.schema.json").iter_errors(doc))
    if error is not None:
        raise error


def _field(config: dict, path: str, default=None):
    node = config
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not None:
                return default
            raise ConfigError(f"config.{path}: required field is missing")
        node = node[part]
    return node


def _interval(low_field: str, low: float, high_field: str, high: float):
    """The box [low, high], or a ConfigError naming the field at fault: a
    bound that is not finite, low above high, or a width high - low that
    overflows, which no uniform draw can span."""
    for name, v in ((low_field, low), (high_field, high)):
        if not math.isfinite(v):
            raise ConfigError(f"config.{name}: must be a finite number, got {v}")
    if low > high:
        raise ConfigError(f"config.{low_field}: {low} exceeds {high_field} {high}")
    if not math.isfinite(high - low):
        raise ConfigError(f"config.{high_field}: the interval [{low}, {high}] is wider than the "
                          f"largest float, so {high_field} - {low_field} overflows")
    return box([low], [high])


def _diameter(dom) -> float:
    """The box diameter, which the mean and lstat closed forms and the search
    scale with; a ConfigError if it overflows (from widths near 1.3e154)."""
    diameter = dom.diameter
    if not math.isfinite(diameter):
        raise ConfigError("config.statistic.lower, config.statistic.upper: the box diameter "
                          f"overflows to {diameter}, and the seminorms scale with it")
    return diameter


def _build_statistic(config: dict):
    """Resolve the statistic family into (Statistic, upper-bound report fn).

    The second element computes the family's upper-bound seminorms: closed
    forms, except for ridge, whose finite-difference route is an estimate
    (tag ``derivative_estimate``) that certificates refuse.
    """
    family = _field(config, "statistic.family")
    n = int(_field(config, "statistic.n"))
    s = config["statistic"]
    lower = float(s.get("lower", 0.0))
    upper = float(s.get("upper", 1.0))
    dom = _interval("statistic.lower", lower, "statistic.upper", upper)

    if family == "mean":
        f = stats.mean_statistic(n, dom)
        report = lambda: smn.analytic_seminorms_lstat(stats.constant_weight(1.0), _diameter(dom), n)
    elif family in ("ustat", "vstat"):
        kernel = stats.product_kernel()
        if n < kernel.m:
            raise ConfigError(
                f"config.statistic.n: the {family} family needs n >= {kernel.m} "
                f"(the kernel arity), got {n}"
            )
        build = stats.u_stat_statistic if family == "ustat" else stats.v_stat_statistic
        f = build(kernel, n, dom)

        def report():
            # the kernel's constants L = B = 1 hold on the unit box, and so
            # on any box inside it, since a seminorm is a supremum over it
            if lower < 0.0 or upper > 1.0:
                field = "lower" if lower < 0.0 else "upper"
                raise ConfigError(
                    f"config.statistic.{field}: the {family} closed form holds on boxes inside "
                    f"the unit box [0, 1], got [{lower}, {upper}]"
                )
            return smn.analytic_seminorms_ustat(
                kernel.lipschitz_L, kernel.range_B, kernel.m, n,
                kind="U" if family == "ustat" else "V",
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
        report = lambda: smn.analytic_seminorms_lstat(weight, _diameter(dom), n)
    elif family == "ridge":
        given = [name for name in ("lower", "upper") if name in s]
        if given:
            # a document would echo a box that nothing was computed on
            raise ConfigError(f"config.statistic.{given[0]}: ridge fixes its own box "
                              "[-1, 1]^(d+1), so a statistic box would go unused")
        problem = stats.RidgeProblem(lam=float(s.get("lam", 0.5)), d=int(s.get("d", 1)))
        f = stats.ridge_error_statistic(problem, n)
        report = lambda: smn.derivative_seminorms(
            f, f.domain.diameter, probes=4,
            rng=SeededRng(config["seed"]).split(_RIDGE_PROBE_STREAM)
        )
    else:
        raise ConfigError(f"config.statistic.family: unknown family {family!r}")
    return f, report


def _linear_spec(config: dict, domain_hint=None):
    """The config's linear class as (weights, sampler low, sampler high,
    domain box), checked against the box."""
    cls = config.get("function_class", {"kind": "linear_symmetric", "count": 16})
    sampler_cfg = config.get("sampler", {"kind": "uniform", "low": -1.0, "high": 1.0})
    low = float(sampler_cfg.get("low", -1.0))
    high = float(sampler_cfg.get("high", 1.0))
    _interval("sampler.low", low, "sampler.high", high)
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
    if domain_hint is None and not math.isfinite(hi - lo):
        field = "low" if abs(low) > abs(high) else "high"
        raise ConfigError(f"config.sampler.{field}: the class maps [{low}, {high}] onto "
                          f"[{lo}, {hi}], which is wider than the largest float")
    dom = domain_hint if domain_hint is not None else box([lo], [hi])
    if lo < dom.lower[0] or hi > dom.upper[0]:
        raise ConfigError(f"config.sampler: the class maps [{low}, {high}] onto [{lo}, {hi}], "
                          f"outside the statistic box [{dom.lower[0]}, {dom.upper[0]}]")
    return weights, low, high, dom


def _refuse_step_weight(config: dict) -> None:
    s = config["statistic"]
    if s["family"] == "lstat" and float(s.get("zeta", 0.25)) == 0.0:
        raise ConfigError(f"config.statistic.zeta: {config['kind']} needs a finite Lipschitz "
                          "norm, which the step weight zeta = 0 does not have")


def _run_seminorm(config: dict) -> dict:
    f, report_fn = _build_statistic(config)
    # before the search, so that a refused closed form or box fails at once;
    # each builds its generators afresh from (seed, stream), so order is moot
    upper = report_fn()
    _diameter(f.domain)
    budget = int(config.get("budget", 20000))
    emp = smn.empirical_seminorms(f, budget, SeededRng(config["seed"]))
    return {
        "statistic": f.label,
        "n": f.n,
        "empirical": emp.to_dict(),
        "upper_bound": upper.to_dict(),
    }


def _run_complexity(config: dict) -> dict:
    weights, low, high, dom = _linear_spec(config)
    fclass = linear_class(weights, uniform_raw_space(low, high), dom)
    n = int(_field(config, "statistic.n", 16))
    reps = config.get("replicates", {})
    est = cpx.class_complexity(fclass, n, config.get("complexity_kind", "gaussian"),
                               int(reps.get("outer", 64)), int(reps.get("inner", 2048)),
                               SeededRng(config["seed"]))
    return {"class": fclass.label, "n": n, "estimate": est.to_dict()}


def _run_bound(config: dict) -> dict:
    """Certificate over the config's linear class, whose Gaussian complexity
    has a closed-form upper bound; ``replicates`` is accepted and unused."""
    f, report_fn = _build_statistic(config)
    _refuse_step_weight(config)
    if f.domain.d != 1:
        raise ConfigError(f"config.statistic.family: {f.label} has {f.domain.d}-dimensional "
                          "points, but bound certifies a scalar linear class")
    kind = config.get("complexity_kind", cpx.GAUSSIAN)
    if kind != cpx.GAUSSIAN:
        raise ConfigError(f"config.complexity_kind: bound needs the Gaussian complexity, "
                          f"got {kind!r}; nothing proves a {kind} average bounds it")
    report = report_fn()
    weights, low, high, _ = _linear_spec(config, domain_hint=f.domain)
    # E x^2 for x uniform on [low, high]; the closed form scales with n E x^2
    second_moment = (low * low + low * high + high * high) / 3.0
    if not math.isfinite(f.n * second_moment):
        raise ConfigError(f"config.sampler.low, config.sampler.high: n E x^2 = {f.n} * "
                          f"{second_moment} for x uniform on [{low}, {high}] overflows")
    g = cpx.linear_gaussian_complexity(weights, f.n, second_moment)
    delta = float(config.get("delta", 0.05))
    cert = bnd.uniform_bound(report, g, f.n, delta)
    doc = cert.to_dict()
    validate_certificate(doc)
    return {"statistic": f.label, "n": f.n, "certificate": doc}


def _run_verify(config: dict) -> dict:
    """The telescoping identity at each size up to verify.max_n; for lstat
    also the two response conditions.  One generator draws the pairs, then
    in one pass the probes' configurations, k, l and rows y, y', z, z', each
    as one array, which one oracle.lstat_condition_counts call checks."""
    f, _ = _build_statistic(config)
    opts = config.get("verify", {})
    max_n = int(opts.get("max_n", min(f.n, 8)))
    pairs = int(opts.get("pairs", 20))
    probes = int(opts.get("probes", 200))
    gen = SeededRng(config["seed"]).generator()
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
        n, dom = f.n, f.domain
        xs = dom.uniform(gen, (probes, n))
        k = gen.integers(n, size=probes)
        l = gen.integers(n - 1, size=probes)
        rows = dom.uniform(gen, (4, probes))[..., 0]
        fails, worst = orc.lstat_condition_counts(weight, xs, k, l + (l >= k), *rows)
        records.append({
            "check": "lstat_conditions",
            "inputs": f"n={n},probes={probes}",
            "lhs": float(fails),
            "rhs": 0.0,
            "slack": -worst if fails else 0.0,
            "pass": fails == 0,
        })

    return {"statistic": f.label, "records": records, "all_passed": all(r["pass"] for r in records)}


def _run_cluster(config: dict) -> dict:
    """Trimmed K-means fitted on one sample and certified on a second;
    ``replicates`` is accepted and unused.

    The fit sample holds n - m points from stream 0, and the restarts run
    on stream 1.  The held-out sample holds m = n // 2 points from stream 4,
    which no other stage uses.  The two are drawn separately, because
    gaussian_mixture_with_noise fixes a sample's label and noise counts, so
    two halves of one draw would be dependent.  Given their labels, the
    held-out points are independent of each other and of the fitted
    centers.  The certified class is the one loss map x -> min_j |x - c_j|^2
    at the reported centers, fixed before the held-out sample is seen, so
    its Gaussian complexity is exactly 0 and the certificate on the
    held-out L-statistic is the bounded-difference tail alone.
    """
    opts = config.get("cluster", {})
    n = int(opts.get("n", 240))
    K = int(opts.get("k", 3))
    if K > n:
        raise ConfigError(f"config.cluster.k: {K} clusters exceed cluster.n = {n} points")
    m = n // 2
    if n - m < K or m < 1:
        raise ConfigError(f"config.cluster.n: {n} points split into a fit sample of {n - m} "
                          f"and a held-out sample of {m}; the fit needs at least "
                          f"cluster.k = {K} points and the held-out sample at least 1")
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
    fit = apps.gaussian_mixture_with_noise(n - m, true_centers, std, noise, radius, rng.split(0))
    result = apps.trimmed_kmeans(fit, K, zeta, max_iters=max_iters,
                                 restarts=restarts, rng=rng.split(1))
    held_out = apps.gaussian_mixture_with_noise(m, true_centers, std, noise, radius, rng.split(4))
    losses = stats.nearest_center_losses(held_out, result.centers)

    doc = {
        "n": n,
        "fit_n": n - m,
        "held_out_n": m,
        "k": K,
        "zeta": zeta,
        "fit_objective": result.objective,
        "held_out_objective": stats.l_statistic(stats.f_zeta_weight(zeta), losses),
        "iterations": result.iterations,
        "reseeds": result.reseeds,
        "centers": [[float(v) for v in c] for c in result.centers],
        "recovery_error": apps.center_matching_error(result.centers, true_centers),
    }
    if zeta > 0:
        one_member = cpx.ComplexityEstimate(0.0, 0.0, 0, cpx.GAUSSIAN, cpx.CLOSED_FORM)
        cert = apps.clustering_certificate(radius, zeta, m, one_member,
                                           float(config.get("delta", 0.05)))
        cert_doc = cert.to_dict()
        validate_certificate(cert_doc)
        doc["certificate"] = cert_doc
    return doc


def _run_rank(config: dict) -> dict:
    """Certificate-backed ranker selection; the class's Gaussian complexity
    has a closed-form upper bound, so ``replicates`` is accepted and unused."""
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
    g = apps.linear_ranker_complexity(dim, count, sep, n)
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
    try:
        result = _RUNNERS[kind](config)
    except orc.NonFiniteStatisticError as exc:  # only the box can make a family overflow
        raise ConfigError(f"config.statistic.lower, config.statistic.upper: {exc}") from exc
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
    """Strict JSON: a number that is not finite raises ValueError rather
    than writing the non-standard NaN or Infinity."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
        text = _serialize(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # runtime failure, not a failed check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR

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
