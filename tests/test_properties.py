"""Property tests: evaluate_class on whole-sample members equals, bit for
bit, a reference loop that maps one datum at a time; Statistic.batch on a
stack equals, bit for bit, Statistic.value on each configuration; and the
batched difference operator equals, bit for bit, its corner sums written
out from Statistic.value; the telescoping decomposition equals, bit for
bit, a loop over blocks and terms that sums lists, also on a statistic
whose differences cancel across 300 orders of magnitude; V- and U-statistics equal the kernel
average over their gathered index tuples; the seminorm search gives the
same report at every refinement block size, and each of its lockstep
restarts the result of that restart searched alone; the one-pass redraw
of pairs under the separation floor equals, bit for bit and in its use of
the generator, a loop that draws one pair at a time; a box draw equals
numpy's uniform over the box bit for bit and leaves the generator where
uniform does; the L-statistic conditions checked in blocks of probes
equal a per-probe scalar loop; the closed-form Gaussian complexity of a
linear class agrees with its Monte-Carlo estimates; the Monte-Carlo
averages, drawing each chunk into one reused block, give the bits of
fresh standard_normal and integers(0, 2) arrays; each scalar-row (d = 1)
fast path (the 1 x 1 ridge solve, the product kernel and the linear
class images) gives the bits of the general path it replaces, signed
zeros included; and verify's one draw of all pairs of a size equals a
loop that draws x, then x', pair after pair."""
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from weakstat import (
    FunctionClass,
    Kernel,
    LinearClass,
    RidgeProblem,
    SeededRng,
    Statistic,
    WeightFunction,
    auc_statistic,
    box,
    class_complexity,
    double_difference,
    empirical_seminorms,
    evaluate_class,
    f_zeta_weight,
    gaussian_average,
    l_statistic,
    linear_ranker_class,
    lstat_statistic,
    mean_statistic,
    nearest_center_losses,
    partial_difference,
    product_kernel,
    rademacher_average,
    ramp_loss,
    ridge_error,
    ridge_error_statistic,
    ridge_solution,
    two_block_ranking_space,
    u_stat_statistic,
    u_statistic,
    uniform_raw_space,
    v_stat_statistic,
    v_statistic,
)
from weakstat import complexity, oracle, seminorms
from weakstat.applications import _clipped_normal_second_moment
from weakstat.complexity import linear_gaussian_complexity
from weakstat.oracle import _SWAP_BLOCK
from weakstat.seminorms import _differences
from weakstat.statistics import _BLOCK_VALUES, _kernel_average

_SETTINGS = settings(deadline=None, max_examples=60)


def _samples(low, high, dim=None, rows=st.integers(1, 24)):
    shape = rows if dim is None else st.tuples(rows, st.just(dim))
    return arrays(np.float64, shape, elements=st.floats(low, high, width=64))


@_SETTINGS
@given(weights=st.lists(st.floats(-2.0, 2.0, width=64), min_size=1, max_size=9),
       raw=_samples(-1.0, 1.0))
def test_linear_class_matches_per_datum_loop(weights, raw):
    out = evaluate_class(LinearClass(weights, uniform_raw_space(-1, 1), box([-2.0], [2.0])), raw)
    ref = np.array([[[w * float(x)] for x in raw] for w in weights])
    assert out.shape == (len(weights), len(raw), 1)
    assert (out == ref).all()


@_SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), count=st.integers(1, 9))
def test_linear_ranker_class_matches_per_datum_loop(data, dim, count):
    X = data.draw(_samples(-3.0, 3.0, dim))
    out = evaluate_class(linear_ranker_class(dim, count, two_block_ranking_space(dim, 1.0)), X)
    norm = 3.0 * math.sqrt(dim)
    ref = np.empty((count, X.shape[0], 1))
    for j, theta in enumerate(np.arange(count) * 2.0 * math.pi / count):
        w = np.zeros(dim)
        w[0] = math.cos(theta)
        if dim > 1:
            w[1] = math.sin(theta)
        for i, x in enumerate(X):
            ref[j, i, 0] = float(np.dot(w, x)) / norm
    assert (out == ref).all()


@_SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), k=st.integers(1, 5))
def test_cluster_loss_member_matches_the_one_point_loss(data, dim, k):
    # the held-out losses that `weakstat cluster` certifies, point by point
    centers = data.draw(_samples(-6.0, 6.0, dim, rows=st.just(k)))
    X = data.draw(_samples(-6.0, 6.0, dim))
    out = nearest_center_losses(X, centers)
    assert out.shape == (X.shape[0],)
    assert (out == np.array([nearest_center_losses(x[None], centers)[0] for x in X])).all()


def test_empty_sample_is_rejected():
    fclass = LinearClass([1.0], uniform_raw_space(), box([0.0], [1.0]))
    with pytest.raises(ValueError, match="at least one datum"):
        evaluate_class(fclass, np.array([]))


@pytest.mark.parametrize("member", [
    lambda x: np.stack([x, x], axis=1),  # two coordinates for a d = 1 box
    lambda x: x[:-1],                    # one image short
    lambda x: 0.5,                       # a scalar, not one image per datum
])
def test_wrong_shape_names_the_member(member):
    fclass = FunctionClass((lambda x: x, member), uniform_raw_space(), box([0.0], [1.0]))
    with pytest.raises(ValueError, match=r"member 1 returned points of shape"):
        evaluate_class(fclass, np.array([0.25, 0.5, 0.75]))


def _cube(d):
    return box([-1.0] * d, [1.0] * d)


def _one_at_a_time(value):
    """An evaluator from a function of one (n, d) configuration: a (B, n, d)
    stack gets the (B,) values of its configurations, one call each."""
    return lambda p: value(p) if p.ndim == 2 else np.array([value(q) for q in p])


# family -> (builder of (n, d), smallest n, step of n, whether d is free)
_FAMILIES = {
    "mean": (lambda n, d: mean_statistic(n, _cube(1)), 1, 1, False),
    "ustat": (lambda n, d: u_stat_statistic(product_kernel(), n, _cube(d)), 2, 1, True),
    "vstat": (lambda n, d: v_stat_statistic(product_kernel(), n, _cube(d)), 2, 1, True),
    "auc": (lambda n, d: auc_statistic(ramp_loss(0.5), n, _cube(1)), 2, 2, False),
    "lstat": (lambda n, d: lstat_statistic(f_zeta_weight(0.125), n, _cube(1)), 1, 1, False),
    "ridge": (lambda n, d: ridge_error_statistic(RidgeProblem(0.5, d), n), 1, 1, True),
    # a user statistic written for one (n, d) configuration, whose evaluator
    # loops over a stack one configuration at a time
    "unbatched": (lambda n, d: Statistic(
        _one_at_a_time(lambda p: float(p[:, 0] @ np.sin(p[:, -1]))), _cube(d), n), 1, 1, True),
}


# kernel values per configuration of the families that evaluate a stack in
# blocks of at most _BLOCK_VALUES of them
_BLOCK_TEMPORARIES = {
    "ustat": lambda n: math.comb(n, 2),
    "vstat": lambda n: n * n,
    "auc": lambda n: (n // 2) ** 2,
}


def _block_size(family, n):
    """Configurations per evaluator call of a blocking family at n; the
    other families take any stack whole, and get the largest of these."""
    values = _BLOCK_TEMPORARIES.get(family)
    if values is None:
        return max(_block_size(name, n) for name in _BLOCK_TEMPORARIES)
    return max(_BLOCK_VALUES // values(n), 1)


def _family_statistic(family, n, d):
    return _FAMILIES[family][0](n, d)


@_SETTINGS
@given(data=st.data(), family=st.sampled_from(sorted(_FAMILIES)), size=st.integers(1, 9))
def test_batch_equals_per_configuration_values(data, family, size):
    _, low, step, free_d = _FAMILIES[family]
    n = step * data.draw(st.integers(-(-low // step), 24 // step))
    d = data.draw(st.integers(1, 3)) if free_d else 1
    f = _family_statistic(family, n, d)
    stack = data.draw(arrays(np.float64, (size, n, f.domain.d),
                             elements=st.floats(-1.0, 1.0, width=64)))
    out = f.batch(stack)
    assert out.shape == (size,) and out.dtype == np.float64
    assert (out == np.array([f.value(p) for p in stack])).all()


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_batch_of_a_stack_larger_than_a_block(family):
    f = _family_statistic(family, 8, 2)
    gen = np.random.default_rng(11)
    count = 2 * _block_size(family, 8) + 3
    stack = gen.uniform(f.domain.lower, f.domain.upper, size=(count, 8, f.domain.d))
    assert (f.batch(stack) == np.array([f.value(p) for p in stack])).all()


def test_batch_rejects_a_lone_configuration():
    f = mean_statistic(4)
    with pytest.raises(ValueError, match=r"\(B, n, d\) stack"):
        f.batch(np.zeros((4, 1)))


def _set_rows(x, *pairs):
    a = x.copy()
    for k, row in pairs:
        a[k] = row
    return a


def _corner_sums(f, order, xs, coords, rows):
    """Each probe's difference from f.value: f(y) - f(y') at order 1 and
    (f(y, z) + f(y', z')) - (f(y', z) + f(y, z')) at order 2."""
    out = []
    for t, x in enumerate(xs):
        y, yp = rows[0][t], rows[1][t]
        k = coords[t, 0]
        if order == 1:
            out.append(f.value(_set_rows(x, (k, y))) - f.value(_set_rows(x, (k, yp))))
            continue
        z, zp, l = rows[2][t], rows[3][t], coords[t, 1]
        even = f.value(_set_rows(x, (k, y), (l, z))) + f.value(_set_rows(x, (k, yp), (l, zp)))
        odd = f.value(_set_rows(x, (k, yp), (l, z))) + f.value(_set_rows(x, (k, y), (l, zp)))
        out.append(even - odd)
    return np.array(out)


def _probes(f, order, count, gen, coarse=False):
    """Random probes in the box; coarse ones lie on a grid of quarters, so
    rows tie and pairs can coincide."""
    dom = f.domain
    draw = lambda *shape: gen.uniform(dom.lower, dom.upper, size=(*shape, dom.d))
    xs, rows = draw(count, f.n), [draw(count) for _ in range(2 * order)]
    if coarse:
        xs, rows = np.round(4 * xs) / 4, [np.round(4 * r) / 4 for r in rows]
    ks = gen.integers(f.n, size=count)
    ls = gen.integers(max(f.n - 1, 1), size=count)
    coords = np.stack([ks, ls + (ls >= ks)], axis=1)[:, :order]
    return xs, coords, rows


# a probe gives 2^order configurations: the two large counts cross a
# block boundary of the pairwise V-statistic at n = 12 at order 2 and at
# order 1
_PROBE_COUNTS = [1, 2, 7, _block_size("vstat", 12) // 4 + 1, _block_size("vstat", 12) // 2 + 1]


@_SETTINGS
@given(data=st.data(), family=st.sampled_from(sorted(_FAMILIES)), order=st.sampled_from([1, 2]),
       count=st.sampled_from(_PROBE_COUNTS), seed=st.integers(0, 2**32 - 1),
       coarse=st.booleans())
def test_differences_equal_corner_sums(data, family, order, count, seed, coarse):
    _, low, step, free_d = _FAMILIES[family]
    n = step * data.draw(st.integers(-(-max(low, order) // step), 12 // step))
    f = _family_statistic(family, n, data.draw(st.integers(1, 3)) if free_d else 1)
    xs, coords, rows = _probes(f, order, count, np.random.default_rng(seed), coarse)
    out = _differences(f, order, xs, coords, rows)
    assert out.shape == (count,)
    assert (out == _corner_sums(f, order, xs, coords, rows)).all()
    for t in range(min(count, 3)):
        if order == 1:
            one = partial_difference(f, xs[t], coords[t, 0], rows[0][t], rows[1][t])
        else:
            one = double_difference(f, xs[t], *coords[t], *(r[t] for r in rows))
        assert one == out[t]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_differences_across_blocks(family, order):
    f = _family_statistic(family, 8, 2)
    count = 2 * (_block_size(family, 8) >> order) + 3
    xs, coords, rows = _probes(f, order, count, np.random.default_rng(23))
    assert (_differences(f, order, xs, coords, rows) == _corner_sums(f, order, xs, coords, rows)).all()


def _reference_fk(f, x, xp):
    """The (terms, lhs) of fk_decompose written as a loop over blocks of
    masks, each block's bits rebuilt, and a loop over the terms, each with
    its own gathers."""
    a, b = np.asarray(x), np.asarray(xp)
    n = a.shape[0]
    bits = np.arange(n)
    vals = np.empty(1 << n)
    for start in range(0, 1 << n, _SWAP_BLOCK):
        masks = np.arange(start, min(start + _SWAP_BLOCK, 1 << n))
        swapped = ((masks[:, None] >> bits) & 1).astype(bool)
        vals[start:start + len(masks)] = f.batch(np.where(swapped[..., None], b, a))
    full = (1 << n) - 1
    terms = []
    for k in range(n):
        bit = 1 << k
        A = np.arange(1 << k)
        rest = full ^ A
        total = math.fsum(
            (vals[A] - vals[A | bit] + vals[rest & ~bit] - vals[rest]).tolist())
        terms.append(total / float(2 ** (k + 1)))
    return tuple(terms), float(vals[0] - vals[full])


def _wide_statistic(n):
    """A sum of the rows at scales from 1e-150 to 1e150, whose differences
    cancel across 300 orders of magnitude, so that any change in the order
    or the values that fsum sees would show in the terms."""
    scales = 10.0 ** np.linspace(-150.0, 150.0, n)
    return Statistic(lambda pts: np.sum(np.asarray(pts)[..., 0] * scales, axis=-1),
                     _cube(1), n, label="wide")


@_SETTINGS
@given(data=st.data(), family=st.sampled_from(sorted(_FAMILIES) + ["wide"]),
       seed=st.integers(0, 2**32 - 1), coarse=st.booleans())
def test_fk_decompose_equals_the_block_loop(data, family, seed, coarse):
    if family == "wide":
        n = data.draw(st.integers(1, 10))
        f = _wide_statistic(n)
    else:
        _, low, step, free_d = _FAMILIES[family]
        n = step * data.draw(st.integers(-(-low // step), 10 // step))
        f = _family_statistic(family, n, data.draw(st.integers(1, 2)) if free_d else 1)
    gen = np.random.default_rng(seed)
    x, xp = (gen.uniform(f.domain.lower, f.domain.upper, size=(n, f.domain.d)) for _ in "xy")
    if coarse:  # ties, and rows at -0.0
        x = np.round(4 * x) / 4 * np.sign(gen.uniform(-1.0, 1.0, x.shape))
        xp = np.round(4 * xp) / 4
    dec = oracle.fk_decompose(f, x, xp)
    terms, lhs = _reference_fk(f, x, xp)
    # fsum over memoryview slices sees the floats of the reference's lists
    assert np.array(dec.terms).tobytes() == np.array(terms).tobytes() and dec.lhs == lhs


# n = 10 crosses several blocks; ridge, the V/U-statistics and the
# unbatched statistic take d = 2
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_fk_decompose_equals_the_block_loop_at_n10(family):
    f = _family_statistic(family, 10, 2)
    gen = np.random.default_rng(31)
    x, xp = (gen.uniform(f.domain.lower, f.domain.upper, size=(10, f.domain.d)) for _ in "xy")
    dec = oracle.fk_decompose(f, x, xp)
    assert (dec.terms, dec.lhs) == _reference_fk(f, x, xp)


def _gathered_tuples(n, m, ordered):
    """(m, T) index tuples in enumeration order: all ordered ones, i-major,
    or the strictly increasing ones."""
    if ordered:
        return np.stack(np.meshgrid(*([np.arange(n)] * m), indexing="ij")).reshape(m, -1)
    return np.array(list(combinations(range(n), m))).T


def _mixed_kernel(m):
    """An m-ary kernel that mixes the coordinates and is not symmetric."""
    def evaluator(*xs):
        prod = xs[0]
        for x in xs[1:]:
            prod = prod * x
        return np.sum(prod, axis=-1) + np.sin(xs[0][..., 0] - 2.0 * xs[-1][..., -1])

    return Kernel(m, evaluator, 3.0, 3.0, label=f"mixed{m}")


@_SETTINGS
@given(data=st.data(), m=st.integers(1, 3), ordered=st.booleans(), d=st.integers(1, 2),
       size=st.integers(0, 5), product=st.booleans())
def test_kernel_statistics_equal_the_gathered_tuples(data, m, ordered, d, size, product):
    n = data.draw(st.integers(m, 8))
    kernel = product_kernel() if product and m == 2 else _mixed_kernel(m)
    shape = (size, n, d) if size else (n, d)
    pts = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0, width=64)))
    out = (v_statistic if ordered else u_statistic)(kernel, pts)
    ref = _kernel_average(kernel, pts, _gathered_tuples(n, m, ordered))
    assert type(out) is type(ref)
    assert np.array_equal(out, ref)


def _search_report(f, budget, seed):
    rep = empirical_seminorms(f, budget, SeededRng(seed))
    wit = rep.argmax_witness
    wit = None if wit is None else (*wit[:1], *(np.asarray(a).tolist() for a in wit[1:]))
    return rep.m_lip, rep.j_lip, rep.m_plain, rep.j_plain, rep.search_evals, wit


# block size 1 replays the one-step refinement schedule
@_SETTINGS
@given(family=st.sampled_from(["auc", "lstat", "mean", "ridge", "ustat", "vstat"]),
       half_n=st.integers(1, 4), budget=st.integers(64, 4000), seed=st.integers(0, 2**32 - 1))
def test_refine_block_size_leaves_the_search_unchanged(family, half_n, budget, seed):
    f = _family_statistic(family, 2 * half_n, 2)
    reports = []
    for block in (1, 3, 16):
        with mock.patch.object(seminorms, "_REFINE_BLOCK", block):
            reports.append(_search_report(f, budget, seed))
    assert reports[0] == reports[1] == reports[2]


@_SETTINGS
@given(family=st.sampled_from(sorted(_FAMILIES)), half_n=st.integers(1, 4),
       order=st.sampled_from([1, 2]), evals=st.integers(4, 1500),
       block=st.sampled_from([1, 3, 16]), seed=st.integers(0, 2**32 - 1))
def test_lockstep_restarts_equal_lone_restarts(family, half_n, order, evals, block, seed):
    f = _family_statistic(family, 2 * half_n, 2)
    streams = [SeededRng(seed).split(r) for r in range(seminorms._RESTARTS)]
    floor = seminorms.PAIR_SEPARATION_FRACTION * f.domain.diameter
    with mock.patch.object(seminorms, "_REFINE_BLOCK", block):
        together = seminorms._search(f, order, evals, streams, floor)
        alone = [seminorms._search(f, order, evals, [s], floor)[0] for s in streams]
    assert len(together) == len(streams)
    for (ratio, absval, wit, used), lone in zip(together, alone):
        assert (ratio, absval, used) == (lone[0], lone[1], lone[3])
        assert (wit is None) == (lone[2] is None)
        if wit is not None:
            assert len(wit) == len(lone[2])
            assert all(np.array_equal(u, v) for u, v in zip(wit, lone[2]))


def _sample_pair(gen, lower, upper, floor):
    """One separated pair drawn one row at a time: y, then up to
    _PAIR_TRIES candidates y', then the corner farthest from y."""
    y = gen.uniform(lower, upper)
    for _ in range(seminorms._PAIR_TRIES):
        yp = gen.uniform(lower, upper)
        if seminorms._distance(y - yp) >= floor:
            return y, yp
    return y, np.where(y - lower >= upper - y, lower, upper)


def _check_redraw(lower, upper, floor, count, seed):
    one, loop = SeededRng(seed).generator(), SeededRng(seed).generator()
    ys, yps = seminorms._redraw_pairs(one, box(lower, upper), floor, count)
    ref = [_sample_pair(loop, lower, upper, floor) for _ in range(count)]
    assert ys.shape == yps.shape == (count, len(lower))
    assert np.array_equal(ys, [y for y, _ in ref])
    assert np.array_equal(yps, [yp for _, yp in ref])
    # the generator stops where the loop leaves it
    assert np.array_equal(one.uniform(size=4), loop.uniform(size=4))
    return yps


# floors up to 1.2 diameters: near the diameter most candidates are too
# close, and past it every pair falls back to the corner
@_SETTINGS
@given(data=st.data(), d=st.integers(1, 3), count=st.integers(1, 40),
       fraction=st.one_of(st.floats(0.0, 0.3), st.floats(0.3, 1.2)),
       seed=st.integers(0, 2**32 - 1))
def test_redraw_equals_the_one_pair_loop(data, d, count, fraction, seed):
    lower = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    widths = np.array(data.draw(st.lists(st.floats(0.01, 4.0), min_size=d, max_size=d)))
    upper = lower + widths
    _check_redraw(lower, upper, fraction * float(np.linalg.norm(widths)), count, seed)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_redraw_falls_back_to_the_corner(d):
    lower, upper = -np.ones(d), np.arange(1.0, d + 1.0)
    floor = 2.0 * float(np.linalg.norm(upper - lower))
    yps = _check_redraw(lower, upper, floor, 5, 17)
    assert ((yps == lower) | (yps == upper)).all()


# one coordinate of a box: zero width (signed zeros included), signed-zero
# ends, narrow (a few ulps to 1e-9 wide) or wide (up to 1.6e308); not
# (0.0, -0.0), whose width -0.0 numpy's uniform refuses as negative
_COORDINATE = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (-0.0, 1.0), (-1.0, -0.0),
                     (2.5, 2.5)]),
    st.tuples(st.floats(-1e6, 1e6), st.integers(1, 4)).map(
        lambda t: (t[0], t[0] + t[1] * np.spacing(abs(t[0])))),
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-12, 1e-9)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(st.floats(-8e307, 0.0), st.floats(0.0, 8e307)),
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 20.0)).map(lambda t: (t[0], t[0] + t[1])),
)


@_SETTINGS
@given(coords=st.lists(_COORDINATE, min_size=1, max_size=3),
       shape=st.one_of(st.integers(0, 6), st.lists(st.integers(0, 4), min_size=1, max_size=3)),
       seed=st.integers(0, 2**32 - 1))
def test_box_draw_equals_numpy_uniform(coords, shape, seed):
    # Domain.uniform is lower + widths * random, which must be numpy's
    # uniform(lower, upper) bit for bit (it fails if numpy fuses that
    # multiply-add), and must leave the generator where uniform leaves it
    lower, upper = (np.array(v) for v in zip(*coords))
    dom = box(lower, upper)
    one, ref = SeededRng(seed).generator(), SeededRng(seed).generator()
    size = (shape,) if isinstance(shape, int) else tuple(shape)
    got = dom.uniform(one, shape)
    want = ref.uniform(lower, upper, size=(*size, len(coords)))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(one.random(3).view(np.uint64), ref.random(3).view(np.uint64))


@_SETTINGS
@given(coords=st.lists(_COORDINATE, min_size=1, max_size=3), pairs=st.integers(0, 4),
       n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_one_draw_of_all_pairs_equals_the_pair_loop(coords, pairs, n, seed):
    # weakstat verify draws the (pairs, 2, n) configurations of one size at
    # once; a loop drew x, then x', pair after pair
    dom = box(*(np.array(v) for v in zip(*coords)))
    one, loop = SeededRng(seed).generator(), SeededRng(seed).generator()
    got = dom.uniform(one, (pairs, 2, n))
    want = np.array([[dom.uniform(loop, n) for _ in "xy"] for _ in range(pairs)])
    assert got.shape == (pairs, 2, n, len(coords))
    assert got.tobytes() == want.tobytes()
    assert one.random(3).tobytes() == loop.random(3).tobytes()


def _scalar_conditions(F, x, k, l, y, yp, z, zp, tol):
    """(passed, slack, lhs, rhs) of each of the two conditions of one
    probe, written out with one l_statistic call on its six configurations
    and Python float arithmetic."""
    n = len(x)
    stack = np.repeat(np.asarray(x, dtype=float)[None], 6, axis=0)
    stack[:2, k, 0] = (y, yp)
    stack[2:, k, 0] = (y, yp, y, yp)
    stack[2:, l, 0] = (z, z, zp, zp)
    v = l_statistic(F, stack).tolist()
    diam = max(0.0, min(max(z, zp), max(y, yp)) - max(min(z, zp), min(y, yp)))
    sides = [(abs(v[0] - v[1]), F.sup_norm * abs(y - yp) / n),
             (abs(v[2] - v[3] - v[4] + v[5]), F.lip_norm * diam / (n * n))]
    return [(lhs <= rhs + tol, rhs + tol - lhs, lhs, rhs) for lhs, rhs in sides]


@_SETTINGS
@given(n=st.integers(2, 14), count=st.integers(1, 60), grid=st.sampled_from([0, 4]),
       ties=st.floats(0.0, 1.0), scale=st.sampled_from([1.0, 0.3, 0.05, 0.0]),
       tol=st.sampled_from([oracle.INEQUALITY_SLACK, 0.0]), block=st.integers(1, 400),
       seed=st.integers(0, 2**32 - 1))
def test_batched_conditions_equal_the_scalar_loop(n, count, grid, ties, scale, tol, block, seed):
    # stated norms scaled down by ``scale`` make the conditions fail;
    # ``grid`` rounds the data to quarters, so that order statistics tie
    zeta = f_zeta_weight(0.25)
    F = WeightFunction(zeta.evaluator, scale * zeta.sup_norm, scale * zeta.lip_norm)
    gen = SeededRng(seed).generator()
    xs = gen.random((count, n, 1))
    y, yp, z, zp = gen.random((4, count))
    if grid:
        xs, y, yp, z, zp = (np.round(a * grid) / grid for a in (xs, y, yp, z, zp))
    yp = np.where(gen.random(count) < ties, y, yp)
    zp = np.where(gen.random(count) < ties, z, zp)
    k = gen.integers(n, size=count)
    l = gen.integers(n - 1, size=count)
    l += l >= k
    fails, worst = 0, 0.0
    for t in range(count):
        probe = (xs[t], int(k[t]), int(l[t]), float(y[t]), float(yp[t]), float(z[t]),
                 float(zp[t]))
        ref = _scalar_conditions(F, *probe, tol)
        checks = oracle.lstat_condition_check(F, *probe, tol=tol)
        for (passed, slack, lhs, rhs), c in zip(ref, checks):
            assert (c.passed, c.slack, c.lhs, c.rhs) == (passed, slack, lhs, rhs)
            fails += not passed
            worst = max(worst, -slack)
    # a value budget of 1 to 400 gives blocks of one probe (any budget
    # below 6 n) up to 33 (400 values at n = 2)
    with mock.patch.object(oracle, "_BLOCK_VALUES", block):
        assert oracle.lstat_condition_counts(F, xs, k, l, y, yp, z, zp, tol) == (fails, worst)


# Monte-Carlo comparisons at fixed examples, so that a run cannot draw the
# rare example where a correct closed form falls outside the error band
_MC_SETTINGS = settings(deadline=None, max_examples=30, derandomize=True)

# signed weights, and all-positive weights whose supremum is not symmetric;
# min_size 1 includes the single-member class
_WEIGHTS = st.one_of(
    st.lists(st.floats(-2.0, 2.0, width=64), min_size=1, max_size=9),
    st.lists(st.floats(0.05, 2.0, width=64), min_size=1, max_size=9),
)

# sampler bounds with low < 0 < high, and with low >= 0
_SAMPLER = st.one_of(
    st.tuples(st.floats(-2.0, -0.05), st.floats(0.05, 2.0)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0)).map(lambda t: (t[0], t[0] + t[1])),
)


def _linear_on(weights, low, high):
    ends = [w * e for w in weights for e in (low, high)]
    return LinearClass(weights, uniform_raw_space(low, high), box([min(ends)], [max(ends)]))


@_MC_SETTINGS
@given(weights=_WEIGHTS, sampler=_SAMPLER, n=st.integers(1, 24), seed=st.integers(0, 2**16))
def test_conditional_closed_form_matches_gaussian_average(weights, sampler, n, seed):
    fclass = _linear_on(weights, *sampler)
    raw = fclass.raw_space.sampler(SeededRng(seed).generator(), n)
    est = gaussian_average(evaluate_class(fclass, raw).reshape(len(weights), -1), 4000,
                           SeededRng(seed, 1))
    closed = (max(weights) - min(weights)) * np.linalg.norm(raw) / math.sqrt(2.0 * math.pi)
    assert abs(est.mean - closed) <= 4.0 * est.std_error


@_MC_SETTINGS
@given(weights=_WEIGHTS, sampler=_SAMPLER, n=st.integers(1, 24), seed=st.integers(0, 2**16))
def test_closed_form_bounds_class_complexity(weights, sampler, n, seed):
    low, high = sampler
    closed = linear_gaussian_complexity(weights, n, (low * low + low * high + high * high) / 3.0)
    est = class_complexity(_linear_on(weights, low, high), n, "gaussian", outer_reps=16,
                           inner_reps=256, rng=SeededRng(seed))
    assert closed.mean >= est.mean - 3.0 * est.std_error


# sampler intervals from the unit interval out to where E x^2 nears the float limit
_INTERVAL = st.lists(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e150, 1e150)),
                     min_size=2, max_size=2).map(sorted)


def _clipped_normal_moment_unguarded(mu, c):
    """_clipped_normal_second_moment without its guard for an overflowing mu^2."""
    a, b = -c - mu, c - mu
    cdf = lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0))
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    inside = cdf(b) - cdf(a)
    return ((1.0 + mu * mu) * inside + a * pdf(a) - b * pdf(b) + 2.0 * mu * (pdf(a) - pdf(b))
            + c * c * (cdf(a) + 0.5 * math.erfc(b / math.sqrt(2.0))))


@_SETTINGS
@given(interval=_INTERVAL, count=st.integers(1, 16), symmetric=st.booleans(),
       n=st.integers(1, 1000))
def test_uniform_class_closed_form_is_bounds_expression(interval, count, symmetric, n):
    # `bound` took linear_gaussian_complexity of the weight list and
    # (low^2 + low high + high^2) / 3
    low, high = interval
    weights = [(j + 1) / count for j in range(count)]
    weights = weights + [-w for w in weights] if symmetric else weights
    fclass = LinearClass(weights, uniform_raw_space(low, high), box([-1.0], [1.0]))
    second_moment = (low * low + low * high + high * high) / 3.0
    assert fclass.gaussian_upper(n) == linear_gaussian_complexity(weights, n, second_moment)


@_SETTINGS
@given(dim=st.integers(1, 4), count=st.integers(1, 9), n=st.integers(1, 1000),
       separation=st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 2.6e154)))
def test_ranker_closed_form_is_rank_expression(dim, count, n, separation):
    # `rank` took linear_gaussian_complexity of the unit directions over
    # 3 sqrt(dim) on their first min(dim, 2) coordinates
    directions = np.zeros((count, dim))
    for j, theta in enumerate(np.arange(count) * 2.0 * math.pi / count):
        directions[j, 0] = math.cos(theta)
        if dim > 1:
            directions[j, 1] = math.sin(theta)
    mu = separation / 2.0
    moments = [_clipped_normal_moment_unguarded(mu, 3.0), _clipped_normal_moment_unguarded(0.0, 3.0)]
    expected = linear_gaussian_complexity(directions[:, :min(dim, 2)] / (3.0 * math.sqrt(dim)),
                                          n, np.diag(moments[:min(dim, 2)]))
    fclass = linear_ranker_class(dim, count, two_block_ranking_space(dim, separation))
    assert fclass.gaussian_upper(n) == expected


@_SETTINGS
@given(mu=st.one_of(st.floats(-60.0, 60.0), st.floats(-1e160, 1e160)),
       c=st.floats(1e-3, 40.0))
def test_clipped_normal_moment_guard_changes_no_finite_value(mu, c):
    # the guard answers c^2 only where the unguarded formula gives NaN
    unguarded = _clipped_normal_moment_unguarded(mu, c)
    if math.isfinite(unguarded):
        assert _clipped_normal_second_moment(mu, c) == unguarded
    else:
        assert _clipped_normal_second_moment(mu, c) == c * c


def _fresh_draw_average(Y, replicates, rng, kind, chunk):
    """(mean, std_error) of the Monte-Carlo average with a freshly allocated
    coefficient array per chunk: standard_normal((r, N)), or 2 * bit - 1 of
    the little-endian bits of the chunk's own ceil(r N / 64) raw words."""
    vectors = np.atleast_2d(np.asarray(Y, dtype=float))
    gen = rng.generator()
    N = vectors.shape[1]
    sups = np.empty(replicates)
    done = 0
    while done < replicates:
        take = min(chunk, replicates - done)
        if kind == "gaussian":
            coeff = gen.standard_normal((take, N))
        else:
            words = gen.bit_generator.random_raw(-(-take * N // 64))
            bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                                 count=take * N, bitorder="little")
            coeff = (2.0 * bits - 1.0).reshape(take, N)
        sups[done:done + take] = (coeff @ vectors.T).max(axis=1)
        done += take
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(replicates))


@_SETTINGS
@given(kind=st.sampled_from(["gaussian", "rademacher"]), count=st.integers(1, 4),
       N=st.integers(1, 9), replicates=st.integers(2, 23),
       chunk=st.sampled_from([1, 2, 3, 4, 5, 6, complexity._CHUNK]),
       seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_averages_equal_fresh_draws(kind, count, N, replicates, chunk, seed):
    # each chunk draws its own words, whatever the parity of chunk * N;
    # every chunk after the first overwrites the previous chunk's draws
    Y = SeededRng(seed, 1).generator().uniform(-1.0, 1.0, size=(count, N))
    average = gaussian_average if kind == "gaussian" else rademacher_average
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_CHUNK", chunk)
        expected = _fresh_draw_average(Y, replicates, SeededRng(seed), kind, chunk)
        est = average(Y, replicates, SeededRng(seed))
    assert (est.mean, est.std_error) == expected


# the scalar-row (d = 1) fast paths against the general paths they replace,
# bit for bit: signed zeros are drawn on purpose, as == cannot tell them apart
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, width=64))


@_SETTINGS
@given(data=st.data(), lam=st.floats(1e-9, 0.999), size=st.integers(1, 40))
def test_one_by_one_solve_is_division(data, lam, size):
    A = data.draw(arrays(np.float64, (size, 1, 1), elements=st.floats(lam, 1.0 + lam)))
    b = data.draw(arrays(np.float64, (size, 1, 1), elements=_SIGNED))
    assert (b / A).tobytes() == np.linalg.solve(A, b).tobytes()


def _general_ridge(Z, y, lam):
    """(weights, error) of a ridge stack through np.linalg.solve and matmuls,
    the d >= 2 path."""
    n, d = Z.shape[-2:]
    Zt = np.swapaxes(Z, -1, -2)
    w = np.linalg.solve(Zt @ Z / n + lam * np.eye(d), Zt @ y[..., None] / n)
    r = (Z @ w)[..., 0] - y
    return w, np.add.reduce(r * r, axis=-1) / n


@_SETTINGS
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 12), size=st.integers(1, 6),
       lam=st.floats(1e-6, 0.999))
def test_ridge_fast_path_equals_the_solve(data, d, n, size, lam):
    pts = data.draw(arrays(np.float64, (size, n, d + 1), elements=_SIGNED))
    problem = RidgeProblem(lam, d)
    w, err = _general_ridge(pts[..., :d], pts[..., d], lam)
    assert ridge_solution(pts, problem).tobytes() == w[..., 0].tobytes()
    assert ridge_error(pts, problem).tobytes() == err.tobytes()


@_SETTINGS
@given(data=st.data(), d=st.integers(1, 3), lead=st.lists(st.integers(1, 4), max_size=3))
def test_product_kernel_equals_the_sum(data, d, lead):
    shape = (*lead, d)
    a, b = (data.draw(arrays(np.float64, shape, elements=st.one_of(
        _SIGNED, st.sampled_from([1e-200, -1e-200, 1e150])))) for _ in "ab")
    assert product_kernel().evaluator(a, b).tobytes() == np.sum(a * b, axis=-1).tobytes()


@_SETTINGS
@given(weights=st.lists(st.one_of(_SIGNED, st.floats(-2.0, 2.0)), min_size=1, max_size=16),
       raw=arrays(np.float64, st.integers(1, 24), elements=st.one_of(
           _SIGNED, st.sampled_from([1e-200, -1e-200]))),
       scale=st.sampled_from([1.0, 0.5, 3.0]))
def test_linear_images_equal_the_stacked_matmul(weights, raw, scale):
    fclass = LinearClass(weights, uniform_raw_space(-1, 1), box([-4.0], [4.0]), scale=scale)
    W, X = np.array(weights)[:, None], raw[:, None]
    want = (X[None, :, None, :] @ W[:, None, :, None])[..., 0] / scale
    assert fclass.images(raw).tobytes() == want.tobytes()
