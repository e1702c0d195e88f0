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
import contextlib
import csv
import functools
import io
import json
import math
import sys
from importlib import resources
from typing import Callable, NamedTuple

import jsonschema
import numpy as np

from . import applications as apps
from . import bounds as bnd
from . import complexity as cpx
from . import oracle as orc
from . import seminorms as smn
from . import statistics as stats
from .core import SeededRng, box, uniform_raw_space

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
    with (resources.files(__package__) / "schemas" / name).open("r") as fh:
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


def _interval(low_field: str, low: float, high_field: str, high: float):
    """The box [low, high], or a ConfigError naming the field at fault: a
    bound that is not finite, low above high, or a width high - low that
    overflows, which no uniform draw can span."""
    for name, v in ((low_field, low), (high_field, high)):
        if not math.isfinite(v):
            raise ConfigError(f"config.{name}: must be a finite number, got {v}")
    if low > high:
        raise ConfigError(f"config.{low_field}: {low} exceeds {high_field} {high}")
    _finite(f"config.{high_field}", high - low,
            f"the width {high_field} - {low_field} of [{low}, {high}]")
    return box([low], [high])


def _finite(fields: str, value: float, what: str) -> float:
    """value, or a ConfigError naming the fields that make it overflow."""
    if not math.isfinite(value):
        raise ConfigError(f"{fields}: {what} overflows to {value}")
    return value


def _diameter(dom) -> float:
    """The box diameter, which the mean and lstat closed forms and the search scale with."""
    return _finite("config.statistic.lower, config.statistic.upper", dom.diameter,
                   "the box diameter, which the seminorms scale with,")


def _mean(s: dict, n: int, dom):
    return stats.mean_statistic(n, dom), lambda seed: smn.analytic_seminorms_lstat(
        stats.constant_weight(1.0), _diameter(dom), n)


def _kernel(s: dict, n: int, dom, kind: str):
    kernel = stats.product_kernel()
    build = stats.u_stat_statistic if kind == "U" else stats.v_stat_statistic

    def closed_form(seed):
        # the product kernel's L = B = 1 hold on [0, 1], so on any box
        # inside it, as a seminorm is a supremum
        lower, upper = float(s.get("lower", 0.0)), float(s.get("upper", 1.0))
        if lower < 0.0 or upper > 1.0:
            raise ConfigError(f"config.statistic.{'lower' if lower < 0.0 else 'upper'}: the "
                              f"{s['family']} closed form holds on boxes inside the unit box "
                              f"[0, 1], got [{lower}, {upper}]")
        return smn.analytic_seminorms_ustat(kernel.lipschitz_L, kernel.range_B, kernel.m, n,
                                            kind=kind)

    return build(kernel, n, dom), closed_form


def _auc(s: dict, n: int, dom):
    loss = stats.ramp_loss(float(s.get("ramp_width", 1.0)))
    return (stats.auc_statistic(loss, n, dom),
            lambda seed: smn.analytic_seminorms_auc(loss.lipschitz_L, n))


def _lstat(s: dict, n: int, dom):
    weight = stats.f_zeta_weight(float(s.get("zeta", 0.25)))
    return (stats.lstat_statistic(weight, n, dom),
            lambda seed: smn.analytic_seminorms_lstat(weight, _diameter(dom), n))


def _ridge(s: dict, n: int, dom):
    # seminorm's mixed differences stack a d x d Gram matrix for each of 4
    # _HESSIAN_PAIRS (d + 1)^2 configurations, the largest array that n does
    # not scale; it may hold 2^24 float64 values (128 MiB), so d <= 31
    d = int(s.get("d", 1))
    if 4 * smn._HESSIAN_PAIRS * (d + 1) ** 2 * d * d > 2**24:
        raise ConfigError(f"config.statistic.d: the Gram matrices at d = {d} exceed 2^24 values")
    f = stats.ridge_error_statistic(stats.RidgeProblem(lam=float(s.get("lam", 0.5)), d=d), n)

    def estimate(seed):
        # 2 n^2 (d + 1)^2 first-order difference values, under 2^24 for n <= 1448 at d = 1
        if 2 * (n * (d + 1)) ** 2 > 2**24:
            raise ConfigError(f"config.statistic.n: the first-order differences at n = {n}, "
                              f"d = {d} exceed 2^24 values")
        return smn.derivative_seminorms(f, f.domain.diameter, probes=4,
                                        rng=SeededRng(seed).split(_RIDGE_PROBE_STREAM))

    return f, estimate


def _lstat_probe(s: dict, f, gen, probes: int) -> dict:
    """lstat's two response conditions, each of the probes' configurations,
    k, l and rows y, y', z, z' drawn as one array and checked in one call."""
    n, dom = f.n, f.domain
    if n < 2:
        raise ConfigError(f"config.statistic.n: the lstat condition probe needs two distinct "
                          f"indices, so n >= 2, got {n}")
    xs = dom.uniform(gen, (probes, n))
    k = gen.integers(n, size=probes)
    l = gen.integers(n - 1, size=probes)
    rows = dom.uniform(gen, (4, probes))[..., 0]
    fails, worst = orc.lstat_condition_counts(stats.f_zeta_weight(float(s.get("zeta", 0.25))),
                                              xs, k, l + (l >= k), *rows)
    return {
        "check": "lstat_conditions",
        "inputs": f"n={n},probes={probes}",
        "lhs": float(fails),
        "rhs": 0.0,
        "slack": -worst if fails else 0.0,
        "pass": fails == 0,
    }


class _Family(NamedTuple):
    """A statistic family's rules: the fields it reads besides family and n
    (with no lower/upper it fixes its own box and is built with None), its
    smallest n and step, its builder (block, n, box) -> (Statistic, seed ->
    upper-bound seminorms, which refuses what its seminorms do not cover),
    the field that sets its Lipschitz norm, verify's probe."""
    fields: tuple[str, ...]
    build: Callable
    min_n: int = 1
    step: int = 1
    lipschitz: str | None = None
    probe: Callable | None = None


# ustat and vstat need n >= 2, the product kernel's arity
_FAMILIES = {
    "mean": _Family(("lower", "upper"), _mean),
    "ustat": _Family(("lower", "upper"), functools.partial(_kernel, kind="U"), 2),
    "vstat": _Family(("lower", "upper"), functools.partial(_kernel, kind="V"), 2),
    "auc": _Family(("lower", "upper", "ramp_width"), _auc, 2, 2, lipschitz="ramp_width"),
    "lstat": _Family(("lower", "upper", "zeta"), _lstat, lipschitz="zeta", probe=_lstat_probe),
    "ridge": _Family(("lam", "d"), _ridge),
}


def _family(config: dict):
    """(record, Statistic at statistic.n, seed -> its upper-bound seminorms)
    of the config's family after the record's refusals; a run that takes
    the seminorms calls for them, and meets their own refusals, then."""
    if "statistic" not in config:
        raise ConfigError("config.statistic.family: required field is missing")
    s, dom = config["statistic"], None
    fam = _FAMILIES[s["family"]]
    unread = [name for name in s if name not in ("family", "n") + fam.fields]
    if unread:
        raise ConfigError(f"config.statistic.{unread[0]}: the {s['family']} family does not read "
                          f"it; it reads {', '.join(fam.fields)} besides family and n")
    if s["n"] < fam.min_n or s["n"] % fam.step:
        raise ConfigError(f"config.statistic.n: the {s['family']} family needs n >= {fam.min_n}"
                          f"{' and even' if fam.step == 2 else ''}, got {s['n']}")
    if "lower" in fam.fields:
        dom = _interval("statistic.lower", float(s.get("lower", 0.0)),
                        "statistic.upper", float(s.get("upper", 1.0)))
    return (fam, *fam.build(s, s["n"], dom))


@contextlib.contextmanager
def _certifiable(lipschitz: str):
    """Name the field behind an infinite Lipschitz norm, which no certificate takes."""
    try:
        yield
    except bnd.UnboundedLipschitzError as exc:
        raise ConfigError(f"config.{lipschitz}: {exc}") from exc


def _linear_spec(config: dict, domain_hint=None) -> cpx.LinearClass:
    """The config's linear class on its uniform sampler, checked against the box."""
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
    ends = [w * e for w in weights for e in (low, high)]
    lo, hi = min(ends), max(ends)
    if domain_hint is None:
        _finite(f"config.sampler.{'low' if abs(low) > abs(high) else 'high'}", hi - lo,
                f"the width of [{lo}, {hi}], which the class maps [{low}, {high}] onto,")
    dom = domain_hint if domain_hint is not None else box([lo], [hi])
    if lo < dom.lower[0] or hi > dom.upper[0]:
        raise ConfigError(f"config.sampler: the class maps [{low}, {high}] onto [{lo}, {hi}], "
                          f"outside the statistic box [{dom.lower[0]}, {dom.upper[0]}]")
    return cpx.LinearClass(weights, uniform_raw_space(low, high), dom)


def _run_seminorm(config: dict) -> dict:
    # before the search, so that a refused closed form or box fails at once;
    # each builds its generators afresh from (seed, stream), so order is moot
    _, f, report = _family(config)
    upper = report(config["seed"])
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
    fclass = _linear_spec(config)
    n = int(config.get("statistic", {}).get("n", 16))
    reps = config.get("replicates", {})
    est = cpx.class_complexity(fclass, n, config.get("complexity_kind", "gaussian"),
                               int(reps.get("outer", 64)), int(reps.get("inner", 2048)),
                               SeededRng(config["seed"]))
    return {"class": fclass.label, "n": n, "estimate": est.to_dict()}


def _run_bound(config: dict) -> dict:
    """Certificate over the config's linear class, whose Gaussian complexity
    has a closed-form upper bound; ``replicates`` is accepted and unused."""
    fam, f, report = _family(config)
    if f.domain.d > 1:  # ridge
        raise ConfigError(f"config.statistic.family: certificates require closed-form upper-bound "
                          f"seminorms and a one-coordinate box, and {f.label} has estimated "
                          f"seminorms and {f.domain.d}-coordinate rows")
    upper = report(config["seed"])
    kind = config.get("complexity_kind", cpx.GAUSSIAN)
    if kind != cpx.GAUSSIAN:
        raise ConfigError(f"config.complexity_kind: bound needs the Gaussian complexity, "
                          f"got {kind!r}; nothing proves a {kind} average bounds it")
    fclass = _linear_spec(config, domain_hint=f.domain)
    second_moment = float(fclass.raw_space.second_moment[0, 0])
    _finite("config.sampler.low, config.sampler.high", f.n * second_moment,
            f"n E x^2 = {f.n} * {second_moment} for x {fclass.raw_space.label}")
    delta = float(config.get("delta", 0.05))
    with _certifiable(f"statistic.{fam.lipschitz}"):
        cert = bnd.uniform_bound(upper, fclass.gaussian_upper(f.n), f.n, delta)
    doc = cert.to_dict()
    validate_certificate(doc)
    return {"statistic": f.label, "n": f.n, "certificate": doc}


def _run_verify(config: dict) -> dict:
    """The telescoping identity at each size in 1..verify.max_n that the
    family admits, then its probe; one generator draws the pairs, then it."""
    fam, f, _ = _family(config)
    s = config["statistic"]
    opts = config.get("verify", {})
    max_n = int(opts.get("max_n", min(f.n, 8)))
    pairs = int(opts.get("pairs", 20))
    gen = SeededRng(config["seed"]).generator()
    sizes = range(fam.min_n, max_n + 1, fam.step)
    if not sizes:
        raise ConfigError(f"config.verify.max_n: no sample size in 1..{max_n} suits the "
                          f"{s['family']} family, so nothing would be checked")
    records = []
    for n in sizes:
        fn, _ = fam.build(s, n, f.domain)
        worst = 0.0
        # one draw in C order is each pair's x, then its x', pair after pair
        for x, xp in fn.domain.uniform(gen, (pairs, 2, n)):
            worst = max(worst, orc.fk_decompose(fn, x, xp).relative_residual)
        records.append(orc.CheckResult("telescoping_identity", worst, orc.IDENTITY_RTOL, 0.0,
                                       f"{fn.label},n={n},pairs={pairs}").to_record())
    if fam.probe is not None:
        with _certifiable(f"statistic.{fam.lipschitz}"):
            records.append(fam.probe(s, f, gen, int(opts.get("probes", 200))))
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
    _finite("config.cluster.ball_radius", 16.0 / 3.0 * n * radius * radius, "16/3 n r^2, a "
            "bound on the trimmed objectives' sums of n weighted squared distances,")

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
        with _certifiable("cluster.zeta"):
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
    delta = float(config.get("delta", 0.1))
    rng = SeededRng(config["seed"])
    loss = stats.ramp_loss(float(opts.get("ramp_width", 1.0)))

    candidates = apps.linear_ranker_class(dim, count, apps.two_block_ranking_space(dim, sep))
    g = candidates.gaussian_upper(n)
    data = candidates.raw_space.sampler(rng.split(1).generator(), n)
    with _certifiable("rank.ramp_width"):  # an infinite 1 / ramp_width
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
