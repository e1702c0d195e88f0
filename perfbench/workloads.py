"""Job lists of the three benchmark workloads.

A job is one ``weakstat <kind> --config <file>`` invocation.  Job sizes are
fixed per job; the workload seed only chooses the config seeds, so every
seed gives the same job mix with different random draws.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

SEMINORM_BUDGET = 20000
VERIFY_OPTIONS = {"max_n": 12, "pairs": 3, "probes": 200}

# (name, statistic block) of the `search` workload.  mean n=16 and auc n=4
# are the README configs.
_SEARCH = [
    ("mean-n16", {"family": "mean", "n": 16}),
    ("auc-n4", {"family": "auc", "n": 4}),
    ("auc-n8", {"family": "auc", "n": 8}),
    ("lstat-n8", {"family": "lstat", "n": 8}),
    ("lstat-n16", {"family": "lstat", "n": 16}),
    ("ustat-n8", {"family": "ustat", "n": 8}),
    ("vstat-n8", {"family": "vstat", "n": 8}),
    ("ridge-n4", {"family": "ridge", "n": 4}),
    ("ridge-n8", {"family": "ridge", "n": 8}),
]

_TELESCOPING_FAMILIES = ["mean", "auc", "lstat", "ustat", "vstat", "ridge"]

_UNIFORM = {"kind": "uniform", "low": -1.0, "high": 1.0}

# (name, kind, config without seed) of the `certify` workload.
_CERTIFY = [
    ("bound-mean-n32", "bound", {
        "delta": 0.05,
        "statistic": {"family": "mean", "n": 32, "lower": -1.0, "upper": 1.0},
        "function_class": {"kind": "linear_symmetric", "count": 16},
        "sampler": _UNIFORM,
        "replicates": {"outer": 64, "inner": 2048},
    }),
    ("bound-lstat-n128", "bound", {
        "delta": 0.05,
        "statistic": {"family": "lstat", "n": 128, "lower": -1.0, "upper": 1.0},
        "function_class": {"kind": "linear_symmetric", "count": 32},
        "sampler": _UNIFORM,
        "replicates": {"outer": 32, "inner": 1024},
    }),
    ("complexity-rademacher-n64", "complexity", {
        "complexity_kind": "rademacher",
        "statistic": {"family": "mean", "n": 64},
        "function_class": {"kind": "linear", "count": 16},
        "sampler": _UNIFORM,
        "replicates": {"outer": 32, "inner": 2048},
    }),
    ("rank-default", "rank", {}),
    ("cluster-default", "cluster", {}),
]

# Wall time of one pass over each job list at the seed on a 2-core x86
# machine, at the slower end of what that shared machine gave.  It only
# converts --seconds into a whole number of passes, so that every run of a
# workload makes the same jobs the same number of times.  At 24 s this gives
# 3, 4 and 10 passes, which puts job_tail_ms inside a group of like jobs:
# with 11 certify passes it would be the fastest cluster job, a group edge.
NOMINAL_PASS_SECONDS = {"search": 9.0, "telescoping": 6.5, "certify": 2.4}

WORKLOADS = tuple(NOMINAL_PASS_SECONDS)

# Jobs whose output check fails because of a known defect of the library:
# the ridge "derivative_bound" is not an upper bound (ROADMAP open item 3),
# so the search exceeds it and the sandwich check fails.  They stay in the
# workload and count as failed.
KNOWN_SANDWICH_DEFECTS = frozenset({"seminorm-ridge-n4", "seminorm-ridge-n8"})


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    config: dict


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list, in run order, with config seeds drawn from ``seed``."""
    draw = random.Random(seed)
    if workload == "search":
        specs = [(f"seminorm-{name}", "seminorm", {"budget": SEMINORM_BUDGET, "statistic": stat})
                 for name, stat in _SEARCH]
    elif workload == "telescoping":
        specs = [(f"verify-{fam}-n12", "verify",
                  {"statistic": {"family": fam, "n": 12}, "verify": dict(VERIFY_OPTIONS)})
                 for fam in _TELESCOPING_FAMILIES]
    elif workload == "certify":
        specs = _CERTIFY
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Job(name, kind, {"kind": kind, "seed": draw.randrange(2**31), **body})
            for name, kind, body in specs]


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """The first job of each subcommand: the set-up runs these once, untimed."""
    seen: dict[str, Job] = {}
    for job in jobs:
        seen.setdefault(job.kind, job)
    return list(seen.values())


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes over the job list that fill ``seconds`` at nominal speed."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_SECONDS[workload] - 1e-9))
