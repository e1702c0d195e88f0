"""Domain types shared by every module: sample-space boxes, statistics,
finite function classes and deterministic seeded randomness.

All containers are immutable after construction and safe to share across
threads.  Indices are 0-based throughout the public API.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Domain",
    "Statistic",
    "RawSpace",
    "FunctionClass",
    "SeededRng",
    "DomainViolationError",
    "evaluate_class",
    "linear_class",
    "uniform_raw_space",
    "unit_interval",
    "symmetric_interval",
    "box",
]

_MASK64 = (1 << 64) - 1

# Configurations per evaluator call in Statistic.batch.  The V-statistic at
# n = 12 holds about 4.6 KB of intermediates per configuration: evaluating
# all 4096 swap configurations of fk_decompose at once raised the peak RSS
# of the telescoping benchmark from 43 to 61 MB, while blocks of 128 need
# about 0.6 MB and leave it at 43 MB.  The V/U intermediates grow as n^m
# per configuration, so a block costs more at large n: about 41 MB for the
# pairwise V-statistic at n = 100, where one configuration needs 0.5 MB.
BATCH_BLOCK = 128


class DomainViolationError(ValueError):
    """A function-class member produced a point outside the domain box."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box in R^d.

    The box is the sample space of every statistic: each configuration row
    must lie inside it.  Ball-shaped spaces are represented by their
    bounding box with any projection handled inside class members.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _readonly(np.atleast_1d(self.lower))
        hi = _readonly(np.atleast_1d(self.upper))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"bounds must be equal-length vectors, got {lo.shape} and {hi.shape}")
        if not np.all(lo <= hi):
            raise ValueError("lower bound exceeds upper bound in some coordinate")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def diameter(self) -> float:
        """Euclidean diameter of the box."""
        return float(np.linalg.norm(self.upper - self.lower))

    def uniform(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly from the box, shape (n, d)."""
        return gen.uniform(self.lower, self.upper, size=(n, self.d))


def unit_interval() -> Domain:
    return Domain(np.array([0.0]), np.array([1.0]))


def symmetric_interval(radius: float = 1.0) -> Domain:
    return Domain(np.array([-radius]), np.array([radius]))


def box(lower: Sequence[float], upper: Sequence[float]) -> Domain:
    return Domain(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))


def as_points(x) -> np.ndarray:
    """Accept an array or sequence and return an (n, d) float array."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    return p


@dataclass(frozen=True)
class Statistic:
    """An evaluable map f: U^n -> R with its domain metadata.

    ``evaluator`` receives the raw (n, d) points array and must be
    deterministic: the same array always yields the bit-identical float.
    With ``batched`` set, it also accepts a (B, n, d) stack and returns the
    (B,) values, each bit-identical to its value on that configuration
    alone; the family builders of ``weakstat.statistics`` all set it.
    """

    evaluator: Callable[[np.ndarray], float]
    domain: Domain
    n: int
    label: str = ""
    batched: bool = False

    def value(self, points: np.ndarray) -> float:
        return float(self.evaluator(points))

    def batch(self, stack) -> np.ndarray:
        """Values at each configuration of a (B, n, d) stack, as a (B,)
        float array equal to ``[self.value(p) for p in stack]``.

        A batched evaluator is called once per block of BATCH_BLOCK
        configurations; otherwise ``value`` is called per configuration.
        """
        stack = np.ascontiguousarray(stack, dtype=float)
        if stack.ndim != 3:
            raise ValueError(f"batch expects a (B, n, d) stack, got shape {stack.shape}")
        if not self.batched:
            return np.array([self.value(p) for p in stack], dtype=float)
        out = np.empty(stack.shape[0])
        for s in range(0, stack.shape[0], BATCH_BLOCK):
            out[s:s + BATCH_BLOCK] = self.evaluator(stack[s:s + BATCH_BLOCK])
        return out

    def __call__(self, x) -> float:
        return self.value(as_points(x))


@dataclass(frozen=True)
class RawSpace:
    """Opaque raw-data space X, carried as a sampler plus a label.

    ``sampler(gen, n)`` returns a raw sample of n data that class members
    map whole, such as an (n,) array of scalars or an (n, p) array of rows.
    """

    sampler: Callable[[np.random.Generator, int], Sequence]
    label: str = ""


@dataclass(frozen=True)
class FunctionClass:
    """A finite ordered class of maps h: raw datum -> point of the domain box.

    A member maps a whole raw sample of n data to its n images at once (row
    i from datum i alone): an (n, d) array, or an (n,) array when d = 1.
    """

    members: tuple
    raw_space: RawSpace
    domain: Domain
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 1:
            raise ValueError("function class must have at least one member")

    @property
    def size(self) -> int:
        return len(self.members)


def evaluate_class(fclass: FunctionClass, raw_sample: Sequence) -> np.ndarray:
    """Apply every member to the raw sample and return the (size, n, d) array
    whose entry j is the configuration (h_j(x_1), ..., h_j(x_n)).

    Raises DomainViolationError naming the member, datum and coordinate if
    any output leaves the domain box.
    """
    n = len(raw_sample)
    if n < 1:
        raise ValueError("the raw sample must hold at least one datum")
    dom = fclass.domain
    out = np.empty((fclass.size, n, dom.d))
    for j, h in enumerate(fclass.members):
        rows = as_points(h(raw_sample))
        if rows.shape != (n, dom.d):
            raise ValueError(
                f"member {j} returned points of shape {rows.shape}, expected {(n, dom.d)}"
            )
        bad = (rows < dom.lower - 1e-12) | (rows > dom.upper + 1e-12)
        if bad.any():
            i, c = np.argwhere(bad)[0]
            raise DomainViolationError(
                f"member {j} maps datum {i} outside the domain box at coordinate {c}: "
                f"value {float(rows[i, c])!r} not in "
                f"[{float(dom.lower[c])!r}, {float(dom.upper[c])!r}]"
            )
        out[j] = rows
    return out


def uniform_raw_space(low: float = 0.0, high: float = 1.0) -> RawSpace:
    """Scalar raw data drawn iid uniform on [low, high]."""

    def sampler(gen: np.random.Generator, n: int):
        return gen.uniform(low, high, size=n)

    return RawSpace(sampler, label=f"uniform[{low},{high}]")


def linear_class(weights: Sequence[float], raw_space: RawSpace, domain: Domain,
                 label: str = "linear") -> FunctionClass:
    """Scalar linear members h_w(x) = w * x, one per weight."""

    def make(w: float):
        return lambda x: w * np.asarray(x, dtype=float)

    members = tuple(make(float(w)) for w in weights)
    return FunctionClass(members, raw_space, domain, label=label)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SeededRng:
    """Counter-based random stream identified by (seed, stream_id).

    Streams are backed by the Philox bit generator keyed on the pair, so the
    same pair reproduces the same draws on every platform and distinct
    stream ids give statistically independent streams.  Derived streams from
    :meth:`split` mix the child index into the stream id with a SplitMix64
    finalizer, so per-replicate streams are indexed rather than sequential
    and safe to consume in any order.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "SeededRng":
        """Child stream for task ``index``; deterministic in (seed, stream_id, index)."""
        child = _splitmix64((self.stream_id ^ _splitmix64(index & _MASK64)) & _MASK64)
        return SeededRng(self.seed, child)

