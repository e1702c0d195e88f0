"""The partial difference operator and the four interaction seminorms.

One signed operator, ``_differences``, evaluates first- and second-order
differences for the difference functions, the search, the finite
differences and ``oracle.jlip_lemma_check``.  Three routes are provided:

* randomized empirical search (certified LOWER bounds: every candidate is a
  realized difference quotient, so the running maximum never exceeds the
  true supremum); each restart explores alone, with one ``_differences``
  call, and the restarts of one order refine in lockstep rounds, with one
  call per round for the speculative blocks of steps of all of them.  The
  report is bit-identical to that of the restarts run one after another
  with a one-step refinement loop,
* closed-form analytic bounds for the known families (certified UPPER
  bounds), and
* finite differences for smooth statistics: an ESTIMATE from a few random
  probes, which for ridge regression falls below the search.

Reports carry a ``method`` tag so that bound certificates refuse search
lower bounds and finite-difference estimates.  The sandwich
empirical <= analytic is the primary correctness check of the search and
the closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Domain, SeededRng, Statistic, as_points
from .statistics import WeightFunction, _check_arity

__all__ = [
    "ANALYTIC_BOUND",
    "EMPIRICAL_SEARCH",
    "DERIVATIVE_ESTIMATE",
    "SeminormReport",
    "BudgetError",
    "StepError",
    "partial_difference",
    "double_difference",
    "empirical_seminorms",
    "analytic_seminorms_ustat",
    "analytic_seminorms_auc",
    "analytic_seminorms_lstat",
    "derivative_seminorms",
]

ANALYTIC_BOUND = "analytic_bound"
EMPIRICAL_SEARCH = "empirical_search"
DERIVATIVE_ESTIMATE = "derivative_estimate"

# Pairs closer than this fraction of the box diameter are resampled before
# entering a difference quotient: tiny denominators turn float cancellation
# in the numerator into unbounded noise in the ratio.
PAIR_SEPARATION_FRACTION = 1e-2

_EXPLORE_FRACTION = 0.8
_RESTARTS = 8
# refinement steps of each restart evaluated per lockstep round (see _search)
_REFINE_BLOCK = 16
# uniform redraws of the second point of a pair before the corner fallback
_PAIR_TRIES = 64
# mixed second-derivative blocks per probe point in derivative_seminorms
_HESSIAN_PAIRS = 4


class BudgetError(ValueError):
    """Raised when an evaluation budget is missing or exhausted."""


class StepError(ValueError):
    """Raised when a finite-difference stencil cannot fit inside the box."""


@dataclass(frozen=True)
class SeminormReport:
    """Values of the four seminorms with their provenance.

    ``m_lip`` and ``j_lip`` are the Lipschitz first- and (n-scaled)
    second-order interaction seminorms; ``m_plain`` and ``j_plain`` are the
    range-based counterparts.  ``method`` records whether the values are
    search lower bounds, closed-form upper bounds or finite-difference
    estimates.
    """

    m_lip: float
    j_lip: float
    m_plain: float
    j_plain: float
    method: str
    search_evals: int = 0
    argmax_witness: Optional[tuple] = None

    def __post_init__(self):
        for name in ("m_lip", "j_lip", "m_plain", "j_plain"):
            # not (v >= 0) also refuses NaN, which to_dict would write as
            # null, the mark of no finite upper bound; inf stays allowed
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.method not in (ANALYTIC_BOUND, EMPIRICAL_SEARCH, DERIVATIVE_ESTIMATE):
            raise ValueError(f"unknown seminorm method {self.method!r}")

    def to_dict(self) -> dict:
        """The document form.  A value that is not finite, such as the
        closed form of a weight with an infinite Lipschitz norm, becomes
        None (JSON null): there is no finite upper bound to write."""
        doc = {name: getattr(self, name) for name in ("m_lip", "j_lip", "m_plain", "j_plain")}
        doc = {name: v if math.isfinite(v) else None for name, v in doc.items()}
        return {**doc, "method": self.method, "search_evals": self.search_evals}


def _row(point) -> np.ndarray:
    return np.atleast_1d(np.asarray(point, dtype=float))


def partial_difference(f: Statistic, x, k: int, y, y_prime) -> float:
    """f with row k set to y, minus f with row k set to y_prime: the paper's
    first-order operator D^k_{y,y'}, whose quotient defines M_Lip."""
    pts = as_points(x)
    n = pts.shape[0]
    if not 0 <= k < n:
        raise IndexError(f"coordinate index k={k} out of range for n={n}")
    return float(_differences(f, 1, pts[None], np.array([[k]]),
                              [_row(y)[None], _row(y_prime)[None]])[0])


def double_difference(f: Statistic, x, k: int, l: int, y, y_prime, z, z_prime) -> float:
    """Second-order difference: swap row l between z and z_prime inside the
    k-th partial difference.  Expands to the symmetric four-term sum, the
    paper's D^l D^k, whose n-scaled quotient defines J_Lip."""
    pts = as_points(x)
    n = pts.shape[0]
    if k == l:
        raise IndexError(f"second-order difference needs distinct indices, got k=l={k}")
    for idx in (k, l):
        if not 0 <= idx < n:
            raise IndexError(f"coordinate index {idx} out of range for n={n}")
    rows = [_row(r)[None] for r in (y, y_prime, z, z_prime)]
    return float(_differences(f, 2, pts[None], np.array([[k, l]]), rows)[0])


def _distance(gap: np.ndarray):
    """Euclidean norm over the last axis: the square root of the BLAS dot
    of each row with itself, as np.linalg.norm computes it for one row."""
    return np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0])


def _redraw_pairs(gen, dom: Domain, floor: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, d) rows y and y' of ``count`` pairs at least ``floor`` apart
    in the box ``dom``.

    Pair after pair, y is one uniform draw and y' the first of up to
    _PAIR_TRIES further draws that lies ``floor`` from y; if none does,
    y' is the box corner farthest from y in each coordinate (boxes wider
    than the floor always admit one).  Rows are drawn in blocks of the
    fewest that the pairs left can need (two per pair, one once its y is
    drawn), so the pairs whose first y' is separated take one pass, and
    the generator stops where the one-pair-at-a-time loop stops.
    """
    d, lower, upper = dom.d, dom.lower, dom.upper
    ys, yps = np.empty((count, d)), np.empty((count, d))
    i, tries, opened = 0, 0, False
    while i < count:
        rows = dom.uniform(gen, 2 * (count - i) - opened)
        at = 0
        while at < len(rows):
            if not opened:
                # fresh pairs up to the first whose first y' is too close
                fresh = (len(rows) - at) // 2
                y, yp = rows[at:at + 2 * fresh:2], rows[at + 1:at + 2 * fresh:2]
                close = np.flatnonzero(_distance(y - yp) < floor)
                taken = close[0] if len(close) else fresh
                ys[i:i + taken], yps[i:i + taken] = y[:taken], yp[:taken]
                i, at = i + taken, at + 2 * taken
                if at == len(rows):
                    break
                ys[i], at, tries, opened = rows[at], at + 1, 0, True
            candidates = rows[at:at + _PAIR_TRIES - tries]
            far = np.flatnonzero(_distance(ys[i] - candidates) >= floor)
            if len(far):
                yps[i], at, opened = candidates[far[0]], at + far[0] + 1, False
                i += 1
                continue
            at, tries = at + len(candidates), tries + len(candidates)
            if tries == _PAIR_TRIES:
                yps[i] = np.where(ys[i] - lower >= upper - ys[i], lower, upper)
                i, opened = i + 1, False
    return ys, yps


def _differences(f: Statistic, order: int, xs: np.ndarray, coords: np.ndarray,
                 rows: list) -> np.ndarray:
    """Signed order-th difference of each probe: even corners minus odd
    corners, each side summed in corner order.

    Probe t takes the base configuration xs[t] and ``order`` distinct
    coordinates coords[t].  Corner c sets coordinate coords[t, j] to
    rows[2j + 1][t] if bit j of c is set and to rows[2j][t] otherwise; its
    parity is that of its bit count.  So a probe's difference is
    f(y) - f(y') at order 1 and (v0 + v3) - (v1 + v2) at order 2, with
    rows (y, y') at coordinate k and (z, z') at coordinate l; the latter is
    bit-identical under exchanging the two operators.  The corners of
    all probes go to one ``f.batch`` call.
    """
    corners = 1 << order
    probe = np.arange(len(xs))
    configs = np.repeat(xs[:, None], corners, axis=1)
    for c in range(corners):
        for j in range(order):
            configs[probe, c, coords[:, j]] = rows[2 * j + ((c >> j) & 1)]
    vals = f.batch(configs.reshape(-1, *xs.shape[1:])).reshape(len(xs), corners)
    even = sum(vals[:, c] for c in range(corners) if not bin(c).count("1") % 2)
    odd = sum(vals[:, c] for c in range(corners) if bin(c).count("1") % 2)
    return even - odd


def _search(f: Statistic, order: int, evals: int, streams: list, floor: float) -> list:
    """Search for n^(order-1) * |order-th difference| / dist (the Lipschitz
    seminorm) and n^(order-1) * |order-th difference| (the range seminorm)
    with ``evals`` evaluations per restart stream; returns one (ratio,
    range, ratio witness, evaluations used) tuple per stream.

    A probe fixes ``order`` distinct coordinates and one row pair per
    coordinate ((y, y') for k, then (z, z') for l); its value is the
    absolute difference that _differences returns, and its distance is
    |y - y'|.  Both objectives share the probe stream, which
    guarantees the range value <= the Lipschitz value * diameter pointwise,
    since every absolute candidate also enters the ratio race.

    Each restart explores alone, so that only its own probes are held: it
    draws all of them, redraws the pairs under the separation floor in one
    pass (_redraw_pairs), draws its refinement noise and evaluates the
    probes in one _differences call.
    Refinement step t perturbs the ratio witness (even t) or the range
    witness (odd t) by Gaussian noise of scale frac_t * widths, with frac_t
    shrinking in t.  The restarts refine in lockstep rounds: a round builds
    a speculative block of _REFINE_BLOCK steps per restart from its
    witnesses as they stand, evaluates the separated probes of all blocks in
    one _differences call, and takes each restart's steps in order up to its
    first one that beats either incumbent; the probes past it are discarded
    and not counted.  So every step taken sees the witness, noise and value
    that a one-step loop over its restart alone gives it, since
    Statistic.batch gives a configuration the same value whatever shares
    its call.
    """
    dom = f.domain
    lo, hi = dom.lower, dom.upper
    n, R = f.n, len(streams)
    if n < order:
        return [(0.0, 0.0, None, 0)] * R
    corners = 1 << order
    scale = n ** (order - 1)
    probes = max(evals // corners, 1)
    explore = max(int(round(probes * _EXPLORE_FRACTION)), 1)
    refine = max(probes - explore, 0)
    # a probe or witness is n configuration rows, then 2 * order pair rows
    width = n + 2 * order

    # per restart and objective (ratio, range): the incumbent and its witness
    best = np.zeros((R, 2))
    found = np.zeros((R, 2), dtype=bool)
    wit = np.empty((R, 2, width, dom.d))
    wit_coords = np.zeros((R, 2, order), dtype=int)
    used = np.zeros(R, dtype=int)
    noise = np.empty((R, refine, width, dom.d))

    def evaluate(probe, coords, dist):
        """(count, 2) ratio and range values of separated probes."""
        pairs = probe[:, n:].swapaxes(0, 1)
        diff = scale * np.abs(_differences(f, order, probe[:, :n], coords, pairs))
        return np.stack([diff / dist, diff], axis=1)

    def improve(rs, ts, vals, probe, coords):
        """Move objective j of restart rs[i] to probe ts[i, j] if vals[i, j] beats it."""
        i, j = np.nonzero(vals > best[rs])
        r, t = rs[i], np.broadcast_to(ts, vals.shape)[i, j]
        best[r, j], wit[r, j], wit_coords[r, j], found[r, j] = vals[i, j], probe[t], coords[t], True

    for r, rng in enumerate(streams):
        gen = rng.generator()
        # draw every probe (pair row j of all probes before row j + 1), then
        # redraw the pairs under the separation floor in draw order, all in
        # one pass (rare for floors well below the box widths)
        probe = np.empty((explore, width, dom.d))
        probe[:, :n] = dom.uniform(gen, (explore, n))
        probe[:, n:] = dom.uniform(gen, (2 * order, explore)).swapaxes(0, 1)
        if order == 1:
            coords = (np.arange(explore) % n)[:, None]
        else:
            ks = gen.integers(n, size=explore)
            ls = gen.integers(n - 1, size=explore)
            coords = np.stack([ks, ls + (ls >= ks)], axis=1)
        dist = _distance(probe[:, n] - probe[:, n + 1])
        short = np.flatnonzero(dist < floor)
        if len(short):
            probe[short, n], probe[short, n + 1] = _redraw_pairs(gen, dom, floor, len(short))
            dist[short] = _distance(probe[short, n] - probe[short, n + 1])
        # one row of noise per refinement step; nothing is drawn after it,
        # so drawing it for a restart that finds no witness changes nothing
        noise[r] = gen.normal(0.0, 1.0, size=(refine, width, dom.d))
        keep = np.flatnonzero(dist >= floor)
        used[r] = corners * len(keep)
        if len(keep):
            # the first strict maximum of each objective, as a sequential > scan
            vals = evaluate(probe[keep], coords[keep], dist[keep])
            top = np.argmax(vals, axis=0)
            improve(np.array([r]), keep[top][None], vals[top, [0, 1]][None], probe, coords)

    frac = 0.25 * (1.0 - np.arange(refine) / max(refine, 1)) + 0.01
    sigma = frac[:, None] * dom.widths
    # a restart without a witness has nothing to refine
    start = np.where(found.any(axis=1), 0, refine)
    drawn = np.zeros(R, dtype=int)
    every, block = np.arange(R), np.arange(_REFINE_BLOCK)
    while (start < refine).any():
        steps = start[:, None] + block
        # a step whose witness is not set yet draws nothing, as in the
        # one-step loop; a positive difference can still give a ratio that
        # underflows to 0, so the two witnesses need not be set together
        live = (steps < refine) & found[every[:, None], steps % 2]
        seq = np.cumsum(live, axis=1)
        rs, js = np.nonzero(live)
        ts = steps[rs, js]
        # normal(0, sigma) computes 0.0 + sigma * z, so the pair rows add
        # 0.0 the same way
        kick = noise[rs, drawn[rs] + seq[rs, js] - 1] * sigma[ts][:, None]
        kick[:, n:] = 0.0 + kick[:, n:]
        moved = np.clip(wit[rs, ts % 2] + kick, lo, hi)
        coords = wit_coords[rs, ts % 2]
        dist = _distance(moved[:, n] - moved[:, n + 1])
        keep = np.flatnonzero(dist >= floor)
        # (restart, step in block) grids of the probe index and its values
        at = np.full(live.shape, -1)
        at[rs[keep], js[keep]] = keep
        vals = np.full((R, _REFINE_BLOCK, 2), -np.inf)
        vals[rs[keep], js[keep]] = evaluate(moved[keep], coords[keep], dist[keep])
        hit = (vals > best[:, None]).any(axis=2)
        # each restart takes its steps through its first hit, or all of them
        hits = np.flatnonzero(hit.any(axis=1))
        last = np.full(R, _REFINE_BLOCK - 1)
        last[hits] = np.argmax(hit[hits], axis=1)
        used += corners * np.cumsum(at >= 0, axis=1)[every, last]
        drawn += seq[every, last]
        start += last + 1
        improve(hits, at[hits, last[hits]][:, None], vals[hits, last[hits]], moved, coords)

    return [(float(best[r, 0]), float(best[r, 1]),
             (*wit_coords[r, 0].tolist(), wit[r, 0, :n], *wit[r, 0, n:]) if found[r, 0] else None,
             int(used[r]))
            for r in range(R)]


def empirical_seminorms(f: Statistic, budget: int, rng: SeededRng) -> SeminormReport:
    """Randomized maximization of the four seminorm objectives.

    ``budget`` counts statistic evaluations and is split half/half between
    the first- and second-order searches (each of which serves its ratio
    and range objective from shared probes).  The schedule is 80% uniform
    exploration, 20% Gaussian refinement around the incumbent with a
    shrinking radius, repeated over _RESTARTS (8) independent restart
    streams and reduced by max in restart order.  The restarts of one order
    explore one at a time and refine in lockstep (see _search); the report
    equals that of the restarts run one after another.  Returned values are
    lower bounds of the true seminorms.
    """
    if budget < 1:
        raise BudgetError("empirical_seminorms needs a positive evaluation budget")
    floor = PAIR_SEPARATION_FRACTION * f.domain.diameter
    if not math.isfinite(floor):
        raise ValueError(f"{f.label}: the pair separation floor is {floor}, because the box "
                         "diameter overflows; no pair could pass it")

    found = []
    evals = 0
    for order in (1, 2):
        per_search = max(budget // 2 // _RESTARTS, 2 ** order)
        streams = [rng.split((order - 1) * _RESTARTS + r) for r in range(_RESTARTS)]
        lip, plain, witness = 0.0, 0.0, None
        for ratio, absval, wit, used in _search(f, order, per_search, streams, floor):
            evals += used
            if ratio > lip:
                lip, witness = ratio, wit
            plain = max(plain, absval)
        found.append((lip, plain, witness))
    (m_lip, m_plain, witness), (j_lip, j_plain, _) = found

    return SeminormReport(
        m_lip=m_lip, j_lip=j_lip, m_plain=m_plain, j_plain=j_plain,
        method=EMPIRICAL_SEARCH, search_evals=evals, argmax_witness=witness,
    )


def analytic_seminorms_ustat(L: float, B: float, m: int, n: int,
                             kind: str = "U") -> SeminormReport:
    """Seminorm bounds for U- and V-statistics built from kernels with
    Lipschitz constant at most L and range constant at most B: the statistic
    inherits the kernel's constants scaled by m/n (first order) and
    m^2/n (second order)."""
    if kind not in ("U", "V"):
        raise ValueError(f"kind must be 'U' or 'V', got {kind!r}")
    _check_arity(m, n)
    if L < 0 or B < 0:
        raise ValueError("kernel constants must be nonnegative")
    return SeminormReport(
        m_lip=L * m / n,
        j_lip=L * m * m / n,
        m_plain=B * m / n,
        j_plain=B * m * m / n,
        method=ANALYTIC_BOUND,
    )


def analytic_seminorms_auc(L: float, n: int) -> SeminormReport:
    """Seminorm bounds for the smoothed two-sample ranking statistic with an
    L-Lipschitz, [0,1]-valued loss: 2L/n, 8L/n, and range bounds 2/n, 8/n."""
    if n % 2 != 0:
        raise ValueError(f"the two-sample statistic requires even n, got {n}")
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    return SeminormReport(
        m_lip=2.0 * L / n,
        j_lip=8.0 * L / n,
        m_plain=2.0 / n,
        # range analog of the second-order bound: the four-term sum of
        # [0,1]-valued losses is at most 2 in absolute value, repeated over
        # the n/2 opposite-block indices and scaled by 4n/n^2.
        j_plain=8.0 / n,
        method=ANALYTIC_BOUND,
    )


def analytic_seminorms_lstat(F: WeightFunction, diameter: float, n: int) -> SeminormReport:
    """Seminorm bounds for the rank-weighted L-statistic on a bounded
    interval of the given diameter.

    J_Lip takes no diameter.  For f = (1/n) sum_i F(i/n) x_(i), the first
    difference in x_k from z to z' integrates the partial derivative
    F(r_k/n)/n, with r_k the rank of x_k, over [z, z'].  Moving another x_l
    from y to y' changes r_k by at most one, and only while x_k lies
    between y and y'.  So the second-order difference is at most
    |[y, y'] & [z, z']| max_i |F((i+1)/n) - F(i/n)| / n, which is at most
    |y - y'| lip_norm / n^2, and J_Lip, n times its largest quotient by
    |y - y'|, is at most lip_norm / n (inf for a step weight).  The
    statistic scales with x, and a difference over a distance does not.
    The range form j_plain bounds the difference itself and keeps the
    diameter.
    """
    if diameter < 0:
        raise ValueError("diameter must be nonnegative")
    return SeminormReport(
        m_lip=F.sup_norm / n,
        j_lip=F.lip_norm / n,
        m_plain=diameter * F.sup_norm / n,
        # second-order differences are bounded by lip_norm * diameter / n^2,
        # the length of [y, y'] & [z, z'] being at most the diameter.
        j_plain=diameter * F.lip_norm / n if F.lip_norm != math.inf else math.inf,
        method=ANALYTIC_BOUND,
    )


def _interior_probe(gen, dom, n, margin):
    lo = dom.lower + margin
    hi = dom.upper - margin
    if np.any(lo >= hi):
        raise StepError(
            f"finite-difference step {margin} leaves no interior in a box of widths {dom.widths}"
        )
    return Domain(lo, hi).uniform(gen, n)


def _stencil(x: np.ndarray, ks: np.ndarray, axes: np.ndarray, h: float):
    """Rows x[k] + h e_i and x[k] - h e_i for each (k, i) of ks and axes."""
    up = x[ks]
    down = up.copy()
    t = np.arange(len(ks))
    up[t, axes] += h
    down[t, axes] -= h
    return up, down


def derivative_seminorms(f: Statistic, diameter: float, probes: int, rng: SeededRng,
                         step: float | None = None) -> SeminormReport:
    """Seminorm estimates for smooth statistics via central finite differences.

    At each of ``probes`` random interior points, one order-1 _differences
    call takes the full per-coordinate gradient blocks (all k, step ``step``,
    by default 1e-4 * diameter) and one order-2 call the mixed
    second-derivative blocks of _HESSIAN_PAIRS sampled index pairs (k, l)
    (step 1e-3 * diameter).  The report carries
    max_k |grad_k f| as m_lip and n * diameter * max |d2_kl f|_op as j_lip;
    the range values use the generic box bounds m_lip * diameter and
    j_lip * diameter.  The caller asserts smoothness on a neighborhood of
    the box.  The report is an estimate, not an upper bound (tag
    ``derivative_estimate``), so certificates refuse it.
    """
    if probes < 1:
        raise BudgetError("derivative_seminorms needs at least one probe point")
    dom = f.domain
    d = dom.d
    n = f.n
    h1 = step if step is not None else 1e-4 * diameter
    h2 = 1e-3 * diameter
    if h1 <= 0 or h2 <= 0:
        raise StepError("finite-difference steps must be positive")
    gen = rng.generator()
    margin = max(h1, 2 * h2)
    ks, axes = np.divmod(np.arange(n * d), d)
    ii, jj = np.tile(np.divmod(np.arange(d * d), d), _HESSIAN_PAIRS)

    grad_max = 0.0
    hess_max = 0.0
    evals = 0
    for _ in range(probes):
        x = _interior_probe(gen, dom, n, margin)
        g = _differences(f, 1, np.broadcast_to(x, (n * d, n, d)), ks[:, None],
                         [*_stencil(x, ks, axes, h1)]) / (2 * h1)
        grad_max = max(grad_max, float(_distance(g.reshape(n, d)).max()))
        evals += 2 * n * d
        if n < 2:
            continue
        pairs = [(int(gen.integers(n)), int(gen.integers(n - 1))) for _ in range(_HESSIAN_PAIRS)]
        kl = np.repeat([(k, l + (l >= k)) for k, l in pairs], d * d, axis=0)
        rows = [*_stencil(x, kl[:, 0], ii, h2), *_stencil(x, kl[:, 1], jj, h2)]
        H = _differences(f, 2, np.broadcast_to(x, (len(kl), n, d)), kl, rows) / (4 * h2 * h2)
        hess_max = max(hess_max, float(np.linalg.norm(H.reshape(-1, d, d), 2, axis=(1, 2)).max()))
        evals += 4 * len(kl)

    m_lip = grad_max
    j_lip = n * diameter * hess_max
    return SeminormReport(
        m_lip=m_lip, j_lip=j_lip,
        m_plain=m_lip * diameter, j_plain=j_lip * diameter,
        method=DERIVATIVE_ESTIMATE, search_evals=evals,
    )
