"""Output checks applied to every benchmark job.

A job fails on a non-zero exit code, on a failed check below, or when its
output bytes differ from an earlier run of the same job.
"""
from __future__ import annotations

import json
from pathlib import Path

import jsonschema

from workloads import KNOWN_SANDWICH_DEFECTS

SEMINORMS = ("m_lip", "j_lip", "m_plain", "j_plain")
UPPER_BOUND_METHODS = ("analytic_bound", "derivative_bound")
SANDWICH_RTOL = 1e-9
SANDWICH_ATOL = 1e-12

SANDWICH = "sandwich"


class OutputChecker:
    """Checks job outputs and remembers the bytes of each job's first run."""

    def __init__(self, src: Path):
        schema_path = src / "weakstat" / "schemas" / "certificate.schema.json"
        schema = json.loads(schema_path.read_text())
        self._certificate = jsonschema.validators.validator_for(schema)(schema)
        self._first_output: dict[str, bytes] = {}

    def failures(self, job, status: int, output: bytes | None) -> list[str]:
        """Reasons the job failed; empty when it passed."""
        if status != 0:
            return [f"exit code {status}"]
        if output is None:
            return ["no output document"]
        reasons = []
        first = self._first_output.setdefault(job.name, output)
        if first != output:
            reasons.append("output bytes differ from an earlier run of the job")
        try:
            reasons.extend(getattr(self, f"_check_{job.kind}")(json.loads(output)["result"]))
        except (ValueError, KeyError, TypeError) as exc:
            reasons.append(f"malformed output document: {type(exc).__name__}: {exc}")
        return reasons

    def _check_seminorm(self, result: dict) -> list[str]:
        search, upper = result["empirical"], result["upper_bound"]
        return [
            f"{SANDWICH} {key}: search {search[key]!r} exceeds upper bound {upper[key]!r}"
            for key in SEMINORMS
            if not search[key] <= upper[key] * (1.0 + SANDWICH_RTOL) + SANDWICH_ATOL
        ]

    def _check_verify(self, result: dict) -> list[str]:
        return [] if result["all_passed"] is True else ["verify reported all_passed false"]

    def _check_certificate(self, cert: dict | None) -> list[str]:
        if cert is None:
            return ["no certificate in the result"]
        reasons = [f"certificate schema: {err.message}"
                   for err in self._certificate.iter_errors(cert)]
        if reasons:
            return reasons
        if cert["total"] != cert["symmetrization_term"] + cert["tail_term"]:
            reasons.append("certificate total differs from symmetrization_term + tail_term")
        if cert["seminorms"]["method"] not in UPPER_BOUND_METHODS:
            reasons.append(f"certificate seminorm method {cert['seminorms']['method']!r} "
                           "is not an upper bound")
        return reasons

    def _check_bound(self, result: dict) -> list[str]:
        return self._check_certificate(result.get("certificate"))

    def _check_cluster(self, result: dict) -> list[str]:
        return self._check_certificate(result.get("certificate"))

    def _check_rank(self, result: dict) -> list[str]:
        if result["certificate_lower_bound"] <= result["empirical_auc"]:
            return []
        return ["ranking certificate lower bound exceeds the empirical AUC"]

    def _check_complexity(self, result: dict) -> list[str]:
        return []


def is_known_defect(job_name: str, reasons) -> bool:
    """True when every failure reason is the declared ridge sandwich defect."""
    return (job_name in KNOWN_SANDWICH_DEFECTS and bool(reasons)
            and all(r.startswith(SANDWICH) for r in reasons))
