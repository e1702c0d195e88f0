"""Domain types shared by every module: sample-space boxes, statistics,
finite function classes and deterministic seeded randomness.

All containers are immutable after construction and safe to share across
threads.  Indices are 0-based throughout the public API.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    "uniform_raw_space",
    "unit_interval",
    "symmetric_interval",
    "box",
]

_MASK64 = (1 << 64) - 1


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
    bounding box with any projection handled inside class members.  Its
    widths upper - lower are computed once and must be finite, so a box
    wider than the largest float is refused.
    """

    lower: np.ndarray
    upper: np.ndarray
    widths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = _readonly(np.atleast_1d(self.lower))
        hi = _readonly(np.atleast_1d(self.upper))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"bounds must be equal-length vectors, got {lo.shape} and {hi.shape}")
        if not np.all(lo <= hi):
            raise ValueError("lower bound exceeds upper bound in some coordinate")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        with np.errstate(over="ignore"):
            widths = _readonly(hi - lo)
        if not np.all(np.isfinite(widths)):
            raise ValueError("box widths must be finite: upper - lower overflows")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "widths", widths)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def diameter(self) -> float:
        """Euclidean diameter of the box."""
        return float(np.linalg.norm(self.widths))

    def uniform(self, gen: np.random.Generator, shape) -> np.ndarray:
        """Points drawn uniformly from the box, shape (*shape, d); an int
        shape n gives (n, d).

        lower + widths * gen.random(...), scaled and shifted in place, is
        numpy's gen.uniform(lower, upper) bit for bit (low + (high - low) *
        next_double per element, in C order, from the same draws) without
        its broadcasting over array bounds or a second array.  This assumes
        numpy does not fuse that multiply-add; test_properties checks it.
        """
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        out = gen.random((*shape, self.d))
        out *= self.widths
        out += self.lower
        return out


def unit_interval() -> Domain:
    return Domain(np.array([0.0]), np.array([1.0]))


def symmetric_interval(radius: float = 1.0) -> Domain:
    """The box [-radius, radius], which criteria 4 and 5 draw their class into."""
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

    ``evaluator`` receives either one raw (n, d) configuration, returning
    its float, or a (B, n, d) stack, returning the (B,) values, each
    bit-identical to the value of that configuration alone; the family
    builders of ``weakstat.statistics`` all do.  It must be deterministic:
    the same array always yields the bit-identical result.
    """

    evaluator: Callable[[np.ndarray], float | np.ndarray]
    domain: Domain
    n: int
    label: str = ""

    def value(self, points: np.ndarray) -> float:
        return float(self.evaluator(points))

    def batch(self, stack) -> np.ndarray:
        """Values at each configuration of a (B, n, d) stack, as a (B,)
        float array equal to ``[self.value(p) for p in stack]``, from one
        evaluator call with the whole stack (families whose temporaries
        outgrow a configuration block it themselves).  A result of any
        other shape, such as one float from an evaluator written for a
        single configuration, is refused rather than broadcast.
        """
        stack = np.ascontiguousarray(stack, dtype=float)
        if stack.ndim != 3:
            raise ValueError(f"batch expects a (B, n, d) stack, got shape {stack.shape}")
        out = np.empty(stack.shape[0])
        if len(out):
            vals = np.asarray(self.evaluator(stack))
            if vals.shape != out.shape:
                raise ValueError(f"statistic {self.label or self.evaluator!r} returned shape "
                                 f"{vals.shape} for a stack of shape {stack.shape}, "
                                 f"not {out.shape}")
            out[:] = vals
        return out


@dataclass(frozen=True)
class RawSpace:
    """Opaque raw-data space X, carried as a sampler plus a label.

    ``sampler(gen, n)`` returns a raw sample of n data that class members
    map whole, such as an (n,) array of scalars or an (n, p) array of rows.
    ``second_moment``, if known, is the k x k matrix (1/n) sum_i E[x_i x_i^T]
    over the first k coordinates, which a LinearClass's closed form takes.
    """

    sampler: Callable[[np.random.Generator, int], Sequence]
    label: str = ""
    second_moment: np.ndarray | None = field(default=None, compare=False)


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

    def images(self, raw_sample: Sequence) -> np.ndarray:
        """The (size, n, d) images of the raw sample, each member's checked for shape."""
        n, d = len(raw_sample), self.domain.d
        out = np.empty((self.size, n, d))
        for j, h in enumerate(self.members):
            rows = as_points(h(raw_sample))
            if rows.shape != (n, d):
                raise ValueError(f"member {j} returned points of shape {rows.shape}, "
                                 f"expected {(n, d)}")
            out[j] = rows
        return out


def evaluate_class(fclass: FunctionClass, raw_sample: Sequence) -> np.ndarray:
    """The (size, n, d) array whose entry j is the configuration
    (h_j(x_1), ..., h_j(x_n)), from ``fclass.images`` (of a FunctionClass or
    a LinearClass), checked once against the domain box: a
    DomainViolationError names the first (member, datum, coordinate) whose
    value leaves it."""
    if len(raw_sample) < 1:
        raise ValueError("the raw sample must hold at least one datum")
    dom = fclass.domain
    out = fclass.images(raw_sample)
    bad = (out < dom.lower - 1e-12) | (out > dom.upper + 1e-12)
    if bad.any():
        j, i, c = np.argwhere(bad)[0]
        raise DomainViolationError(
            f"member {j} maps datum {i} outside the domain box at coordinate {c}: "
            f"value {float(out[j, i, c])!r} not in "
            f"[{float(dom.lower[c])!r}, {float(dom.upper[c])!r}]"
        )
    return out


def uniform_raw_space(low: float = 0.0, high: float = 1.0) -> RawSpace:
    """Scalar raw data drawn iid uniform on [low, high], whose second moment
    is E x^2 = (low^2 + low high + high^2) / 3."""

    def sampler(gen: np.random.Generator, n: int):
        return gen.uniform(low, high, size=n)

    return RawSpace(sampler, label=f"uniform[{low},{high}]",
                    second_moment=np.array([[(low * low + low * high + high * high) / 3.0]]))


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

