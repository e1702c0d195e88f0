"""Span recording around weakstat's public functions, and the per-layer
metrics computed from the spans.

The tracer wraps every public function of each layer module, plus
``Statistic.value``, and rebinds each wrapped name wherever a weakstat
module imported it (``from .core import evaluate_class`` makes
``complexity.evaluate_class`` a separate binding).  Spans stay in memory as
flat arrays of (name, parent, start, end, key, work) and are written out
when the run ends.  ``key`` and ``work`` carry per-call counts such as the
statistic label, ``n`` or the number of rows mapped.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "core", "statistics", "seminorms", "oracle", "complexity", "bounds",
          "applications")

FAMILIES = ("mean", "ustat", "vstat", "auc", "lstat", "ridge")
FK_SIZES = (4, 8, 10, 12)
INNER_AVERAGES = ("complexity.gaussian_average", "complexity.rademacher_average")

# parallel_map runs its caller's closures (search restarts, complexity
# replicates, Lloyd restarts); a span around it would take that work away
# from the caller's self time.
UNSPANNED = frozenset({"core.parallel_map"})


def statistic_family(label: str) -> str:
    """Family of a Statistic label: 'lstat[f_zeta(0.25)]' -> 'lstat'."""
    head = label.split("[", 1)[0]
    return "ridge" if head == "ridge_error" else head


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.key = array("q")
        self.work = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recorded as span ``name``; ``counts(args, kwargs, result)``
        returns the span's (key, work)."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        keys, works, stack = self.key, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            keys.append(-1)
            works.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counts is not None:
                keys[idx], works[idx] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them in every
        weakstat module that holds them."""
        modules = {layer: importlib.import_module(f"weakstat.{layer}") for layer in LAYERS}
        counters = _counters(self)
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in UNSPANNED:
                    continue
                wrapped[id(fn)] = (fn, self.wrap(name, fn, counters.get(name)))
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "weakstat" or n.startswith("weakstat.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        statistic = modules["core"].Statistic
        self._patch(statistic, "value",
                    self.wrap("core.Statistic.value", statistic.value,
                              counters["core.Statistic.value"]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "key": np.frombuffer(self.key, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write all spans: flat arrays plus the name and label tables."""
        np.savez(path, names=np.array(self.names), labels=np.array(self.labels, dtype=str),
                 **self.arrays())


def _counters(tracer: Tracer) -> dict:
    """Per-span (key, work) extractors, by span name."""

    def statistic_value(args, kwargs, result):
        return tracer.label_id(args[0].label), 1.0

    def evaluate_class(args, kwargs, result):
        fclass, raw = args[0], args[1]
        return fclass.size, float(fclass.size * len(raw))

    def empirical_seminorms(args, kwargs, result):
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        return int(budget), float(result.search_evals)

    def fk_decompose(args, kwargs, result):
        return result.n, 0.0

    def class_complexity(args, kwargs, result):
        return 0, float(result.replicates)

    def inner_average(args, kwargs, result):
        vectors = np.atleast_2d(np.asarray(args[0]))
        return int(vectors.shape[0] * vectors.shape[1]), float(result.replicates)

    def weighted_rank_kmeans(args, kwargs, result):
        return int(result.restarts_used), 0.0

    return {
        "core.Statistic.value": statistic_value,
        "core.evaluate_class": evaluate_class,
        "seminorms.empirical_seminorms": empirical_seminorms,
        "oracle.fk_decompose": fk_decompose,
        "complexity.class_complexity": class_complexity,
        "complexity.gaussian_average": inner_average,
        "complexity.rademacher_average": inner_average,
        "applications.weighted_rank_kmeans": weighted_rank_kmeans,
    }


def _timings(tracer: Tracer):
    """(span columns, durations, self times): a span's self time is its
    duration minus the durations of its child spans."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    return a, dur, dur - child


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den > 0 else 0.0


def layer_metrics(tracer: Tracer, first_pass_end: int, passes: int, jobs: int) -> dict:
    """Per-layer values from the spans of ``passes`` identical passes of
    ``jobs`` jobs in total.

    Counts come from the first pass (spans below ``first_pass_end``); times
    in s are per pass; rates divide all work by all time.  A layer that a
    workload does not run reports 0.
    """
    a, dur, self_time = _timings(tracer)
    first = np.arange(len(dur)) < first_pass_end

    def mask(*names: str) -> np.ndarray:
        ids = [tracer._name_ids[n] for n in names if n in tracer._name_ids]
        return np.isin(a["name"], ids)

    def layer_mask(layer: str) -> np.ndarray:
        return mask(*[n for n in tracer.names if n.startswith(layer + ".")])

    out = {}
    value = mask("core.Statistic.value")
    for fam in FAMILIES:
        ids = [i for i, label in enumerate(tracer.labels) if statistic_family(label) == fam]
        m = value & np.isin(a["key"], ids)
        out[f"statistics.{fam}.evals_per_s"] = _ratio(m.sum(), dur[m].sum())
    m = mask("statistics.kmeans_loss")
    out["statistics.kmeans_loss.calls_per_s"] = _ratio(m.sum(), dur[m].sum())

    out["core.Statistic.value.calls"] = int((value & first).sum())
    out["core.Statistic.value.self_s"] = float(self_time[value].sum()) / passes
    m = mask("core.evaluate_class")
    out["core.evaluate_class.rows"] = int(a["work"][m & first].sum())
    out["core.evaluate_class.rows_per_s"] = _ratio(a["work"][m].sum(), dur[m].sum())
    out["core.evaluate_class.self_s"] = float(self_time[m].sum()) / passes

    m = mask("seminorms.empirical_seminorms")
    out["seminorms.empirical_seminorms.evals_per_s"] = _ratio(a["work"][m].sum(), dur[m].sum())
    out["seminorms.empirical_seminorms.self_s"] = float(self_time[m].sum()) / passes
    out["seminorms.budget_use"] = _ratio(a["work"][m & first].sum(), a["key"][m & first].sum())
    m = mask("seminorms.derivative_seminorms")
    out["seminorms.derivative_seminorms.s"] = float(dur[m].sum()) / passes

    fk = mask("oracle.fk_decompose")
    for n in FK_SIZES:
        m = fk & (a["key"] == n)
        out[f"oracle.fk_decompose.ms_at_n{n}"] = 1000.0 * _ratio(dur[m].sum(), m.sum())
    fk12 = np.flatnonzero(fk & first & (a["key"] == 12))
    evals12 = np.isin(a["parent"], fk12) & value
    out["oracle.fk_decompose.evals_per_pair_at_n12"] = int(_ratio(evals12.sum(), len(fk12)))
    m = mask("oracle.lstat_condition_check")
    out["oracle.lstat_condition_check.self_s"] = float(self_time[m].sum()) / passes

    m = mask("complexity.class_complexity")
    out["complexity.class_complexity.reps_per_s"] = _ratio(a["work"][m].sum(), dur[m].sum())
    out["complexity.class_complexity.self_s"] = float(self_time[m].sum()) / passes
    m = mask(*INNER_AVERAGES)
    out["complexity.inner_average.draws_per_s"] = _ratio(a["work"][m].sum(), dur[m].sum())
    flops = 2.0 * a["work"][m & first] * a["key"][m & first]
    out["complexity.inner_average.gflop_computed"] = float(flops.sum()) / 1e9

    out["bounds.self_ms_per_job"] = 1000.0 * float(self_time[layer_mask("bounds")].sum()) / jobs
    m = mask("applications.weighted_rank_kmeans")
    out["applications.weighted_rank_kmeans.ms_per_restart"] = (
        1000.0 * _ratio(dur[m].sum(), a["key"][m].sum()))
    m = mask("applications.select_ranker")
    out["applications.select_ranker.self_ms"] = 1000.0 * _ratio(self_time[m].sum(), m.sum())
    m = mask("cli.main")
    out["cli.main.self_ms_per_job"] = 1000.0 * float(self_time[m].sum()) / jobs
    m = mask("cli.validate_config")
    out["cli.validate_config.ms_per_job"] = 1000.0 * float(dur[m].sum()) / jobs
    return out


def span_summary(tracer: Tracer) -> dict:
    """Calls and total self seconds per span name."""
    a, _, self_time = _timings(tracer)
    calls = np.bincount(a["name"], minlength=len(tracer.names))
    selfs = np.bincount(a["name"], weights=self_time, minlength=len(tracer.names))
    return {name: {"calls": int(calls[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(tracer.names) if calls[i]}
