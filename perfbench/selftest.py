#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload: two traced runs on SEED must give exactly equal counts
and the same result digest, and an untraced run on SECOND_SEED must have
the same job mix and fail only the jobs with the declared ridge sandwich
defect.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600
SEED = 1
SECOND_SEED = 97
SECONDS = 2

# Exact counts over one pass; they must repeat between two traced runs.
COUNT_METRICS = (
    "core.Statistic.value.calls",
    "core.evaluate_class.rows",
    "oracle.fk_decompose.evals_per_pair_at_n12",
    "seminorms.budget_use",
    "complexity.inner_average.gflop_computed",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(details, result) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    details = next(json.loads(line[len("details "):]) for line in lines
                   if line.startswith("details "))
    return details, json.loads(lines[-1])


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    for workload in workloads.WORKLOADS:
        first, first_result = run(workload, SEED, SECONDS, 1)
        again, again_result = run(workload, SEED, SECONDS, 1)
        for name in COUNT_METRICS:
            a = first_result["metrics"][name]["value"]
            b = again_result["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} repeats ({a} vs {b})", problems)
        check(first["result_digest"] == again["result_digest"],
              f"{workload}: result_digest repeats on seed {SEED}", problems)

        other, other_result = run(workload, SECOND_SEED, SECONDS, 0)
        check(other["jobs"] == first["jobs"],
              f"{workload}: seed {SECOND_SEED} has the job mix of seed {SEED}",
              problems)
        expected = sorted(workloads.KNOWN_SANDWICH_DEFECTS & set(other["jobs"]))
        check(other["failed_jobs"] == expected and other_result["correct"],
              f"{workload}: seed {SECOND_SEED} fails exactly {expected} "
              f"(failed: {other['failed_jobs']})", problems)
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} checks"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
