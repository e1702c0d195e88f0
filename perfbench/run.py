#!/usr/bin/env python3
"""weakstat benchmark: drives the `weakstat` CLI in-process on generated configs.

    python3 perfbench/run.py --workload {search,telescoping,certify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports ``weakstat`` from ``src/``
and refuses any other copy.  One process runs the jobs one after another
(a closed loop with one client).  ``--seconds`` sets how many whole passes
over the job list the timed phase makes.  With ``--trace 0`` the last line
of the output holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of a run that first measures
half the passes untraced, then half with spans around every layer.
Earlier lines give the readable report, ``result_digest`` and the
environment.  Scratch files go to ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import OutputChecker, is_known_defect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10

SUBCOMMAND_METRICS = {kind: f"{kind}_p50_ms"
                      for kind in ("seminorm", "verify", "bound", "complexity", "rank", "cluster")}
# Units of the printed metrics that BENCHMARK.json does not list.
PRINTED_UNITS = {"failed_frac": "ratio", **{name: "ms" for name in SUBCOMMAND_METRICS.values()}}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def configure_threads() -> None:
    """One weakstat worker and nproc OpenBLAS threads; must run before
    numpy is imported."""
    os.environ.pop("WEAKSTAT_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))


def require_src() -> None:
    if not (SRC / "weakstat" / "__init__.py").is_file():
        raise BenchmarkError(f"no weakstat package under {SRC}; run from a full checkout")


def import_weakstat():
    """Import weakstat from the checkout's src/ and nowhere else."""
    require_src()
    sys.path.insert(0, str(SRC))
    import weakstat
    import weakstat.cli

    if not Path(weakstat.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported weakstat from {weakstat.__file__}, not from {SRC}")
    return weakstat


@dataclass
class Context:
    weakstat: object
    jobs: list
    checker: OutputChecker
    workdir: Path


@dataclass(frozen=True)
class JobRecord:
    name: str
    kind: str
    seconds: float
    output: bytes
    reasons: tuple

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def run_job(ctx: Context, job) -> JobRecord:
    config = ctx.workdir / "configs" / f"{job.name}.json"
    out = ctx.workdir / "out" / f"{job.name}.json"
    out.unlink(missing_ok=True)
    argv = [job.kind, "--config", str(config), "--out", str(out)]
    main = ctx.weakstat.cli.main  # looked up per call so that tracing applies
    t0 = time.perf_counter()
    status = main(argv)
    seconds = time.perf_counter() - t0
    output = out.read_bytes() if out.exists() else None
    reasons = ctx.checker.failures(job, status, output)
    return JobRecord(job.name, job.kind, seconds, output or b"", tuple(reasons))


def setup(workload: str, seed: int) -> Context:
    """Import weakstat, write the configs and run one warm-up job per subcommand."""
    weakstat = import_weakstat()
    jobs = workloads.jobs_for(workload, seed)
    workdir = WORK / workload
    for sub in ("configs", "out"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    for job in jobs:
        (workdir / "configs" / f"{job.name}.json").write_text(json.dumps(job.config))
    ctx = Context(weakstat, jobs, OutputChecker(SRC), workdir)
    for job in workloads.warmup_jobs(jobs):
        run_job(ctx, job)
    return ctx


def measure_setups(args) -> list[float]:
    """Wall time from process start to the end of set-up, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.communicate(timeout=SETUP_PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchmarkError("set-up probe did not exit") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def run_passes(ctx: Context, passes: int) -> tuple[list, float]:
    """Run the job list ``passes`` times; returns the records and the wall time."""
    t0 = time.perf_counter()
    records = [run_job(ctx, job) for _ in range(passes) for job in ctx.jobs]
    return records, time.perf_counter() - t0


def result_digest(records: list, jobs_per_pass: int) -> str:
    """sha256 of the output bytes of the first pass, in job order."""
    h = hashlib.sha256()
    for record in records[:jobs_per_pass]:
        h.update(record.output)
    return h.hexdigest()


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) of the highest percentile that has at
    least TAIL_BEYOND jobs beyond it; the maximum when there are too few jobs."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def median_pass_seconds(records: list) -> float:
    """Sum over the jobs of a pass of each job's median time."""
    by_name: dict[str, list[float]] = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record.seconds)
    return sum(statistics.median(times) for times in by_name.values())


def jobs_per_s(records: list, jobs_per_pass: int) -> float:
    """Jobs per pass over the pass time at each job's median: steadier than
    jobs over the wall time, which one slow stretch of the machine moves."""
    return jobs_per_pass / median_pass_seconds(records)


def end_to_end(records: list, jobs_per_pass: int, wall: float,
               setups: list[float]) -> tuple[dict, dict]:
    """(metric values, readable notes) of a timed phase."""
    times = [r.seconds * 1000.0 for r in records]
    value, pct, beyond = tail(times)
    failed = sum(r.failed for r in records)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs_per_s(records, jobs_per_pass),
        "job_p50_ms": statistics.median(times),
        "job_tail_ms": value,
        "failed_frac": failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for kind, name in SUBCOMMAND_METRICS.items():
        kind_times = [r.seconds * 1000.0 for r in records if r.kind == kind]
        if kind_times:
            values[name] = statistics.median(kind_times)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes",
        "job_tail_ms": f"p{pct:.2f}: {beyond} of {len(records)} jobs beyond it",
        "failed_frac": f"{failed} of {len(records)} jobs",
        "jobs_per_s": f"{jobs_per_pass} jobs per pass at the median of each job's "
                      f"{len(records) // jobs_per_pass} runs; "
                      f"{len(records)} jobs in {wall:.3f} s wall",
    }
    return values, notes


def openblas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weakstat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(weakstat) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        threads = openblas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": threads,
        "WEAKSTAT_THREADS": os.environ.get("WEAKSTAT_THREADS"),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "weakstat_file": weakstat.__file__,
    }


def benchmark_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def traced_run(ctx: Context, passes: int):
    """Half untraced, half traced: returns (records, layer values, span info)."""
    import spans

    untraced, _ = run_passes(ctx, passes)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = run_passes(ctx, 1)
        first_pass_end = len(tracer)
        rest, _ = run_passes(ctx, passes - 1)
    finally:
        tracer.uninstall()
    traced += rest
    values = spans.layer_metrics(tracer, first_pass_end, passes, len(traced))
    untraced_rate = jobs_per_s(untraced, len(ctx.jobs))
    traced_rate = jobs_per_s(traced, len(ctx.jobs))
    values["trace.untraced_jobs_per_s"] = untraced_rate
    values["trace.traced_jobs_per_s"] = traced_rate
    values["trace.slowdown"] = untraced_rate / traced_rate
    path = ctx.workdir / "spans.npz"
    tracer.write(path)
    info = {"spans": len(tracer), "spans_file": str(path.relative_to(ROOT)),
            "span_summary": spans.span_summary(tracer)}
    return untraced + traced, values, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_threads()
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        metrics = benchmark_metrics(args.trace)
        require_src()
        setups = [] if args.trace else measure_setups(args)
        ctx = setup(args.workload, args.seed)
        if args.trace:
            passes = workloads.passes_for(args.workload, args.seconds / 2)
            records, values, info = traced_run(ctx, passes)
            notes = {"trace.slowdown": f"{info['spans']} spans in {info['spans_file']}"}
        else:
            passes = workloads.passes_for(args.workload, args.seconds)
            records, wall = run_passes(ctx, passes)
            values, notes = end_to_end(records, len(ctx.jobs), wall, setups)
            info = {"setup_samples_s": setups}
        missing = [m["name"] for m in metrics if m["name"] not in values]
        if missing:
            raise BenchmarkError(f"metrics not computed: {', '.join(missing)}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [r for r in records if r.failed]
    unexpected = {r.name for r in failed if not is_known_defect(r.name, r.reasons)}
    digest = result_digest(records, len(ctx.jobs))

    print(f"weakstat benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} jobs={len(records)}")
    for name, value in values.items():
        unit = next((m["unit"] for m in metrics if m["name"] == name), PRINTED_UNITS.get(name))
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<52} {value:>14.6g} {unit}{note}")
    print(f"result_digest sha256:{digest}")
    for name in sorted({r.name for r in failed}):
        runs = [r for r in failed if r.name == name]
        known = "UNEXPECTED" if name in unexpected else "known defect"
        print(f"failed {name} x{len(runs)} [{known}]: {'; '.join(runs[0].reasons)}")
    print(f"environment {json.dumps(environment(ctx.weakstat), sort_keys=True)}")
    print("details " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "jobs": [job.name for job in ctx.jobs],
        "failed_jobs": sorted({r.name for r in failed}),
        "unexpected_failures": sorted(unexpected),
        "result_digest": digest,
        "values": values,
        "job_p50_ms_by_name": {job.name: statistics.median(
            r.seconds * 1000.0 for r in records if r.name == job.name) for job in ctx.jobs},
        "job_ms": [[r.name, r.seconds * 1000.0] for r in records],
        **info,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
