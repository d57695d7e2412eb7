import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fwsolver.grid
from fwsolver.grid import (CSV_CHUNK_ROWS, Grid, GridFunction, _hermite, _holder, _slopes,
                           c1_norm, derivative, holder_seminorm, interpolate_many,
                           quadrature, read_csv, sup_norm, write_columns, write_csv)


def gf(half_width, n, fn):
    g = Grid(half_width, n)
    return GridFunction(g, fn(g.x))


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_grid_invariants():
    g = Grid(10.0, 2001)
    assert g.h == pytest.approx(0.01)
    assert g.x[0] == -10.0 and g.x[-1] == 10.0
    assert np.all(np.diff(g.x) > 0)
    with pytest.raises(ValueError):
        Grid(10.0, 2)
    with pytest.raises(ValueError):
        Grid(-1.0, 100)


def test_grid_builds_its_nodes_once_read_only():
    # the nodes are not a field: equal grids compare and hash alike whether or
    # not they have built them, and a pickled grid builds its own
    g = Grid(10.0, 2001)
    assert g.x is g.x and not g.x.flags.writeable
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    back = pickle.loads(pickle.dumps(g))
    assert back == g == Grid(10.0, 2001) and hash(back) == hash(Grid(10.0, 2001))
    assert not back.x.flags.writeable and np.array_equal(back.x, g.x)


def test_gridfunction_rejects_nonfinite_and_shape():
    g = Grid(1.0, 11)
    with pytest.raises(ValueError):
        GridFunction(g, np.full(11, np.nan))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(10))


# ---------------------------------------------------------------------------
# sup norm
# ---------------------------------------------------------------------------

def test_sup_norm_zero():
    assert sup_norm(gf(10.0, 101, lambda x: 0.0 * x)) == 0.0


def test_sup_norm_gaussian_peak_on_node():
    assert sup_norm(gf(10.0, 2001, lambda x: np.exp(-x ** 2))) == 1.0


def test_sup_norm_peaked_exponential():
    f = gf(30.0, 3001, lambda x: (8.0 / 9.0) * np.exp(-0.5 * np.abs(x)))
    assert sup_norm(f) == pytest.approx(8.0 / 9.0, abs=0)


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_derivative_constant_is_zero():
    d = derivative(gf(5.0, 101, lambda x: np.full_like(x, 3.7)))
    assert np.allclose(d.values, 0.0, atol=1e-12)


def test_derivative_linear_exact_everywhere():
    d = derivative(gf(5.0, 101, lambda x: 2.5 * x - 1.0))
    assert np.allclose(d.values, 2.5, rtol=0, atol=1e-13)


def test_derivative_sin_second_order_bound():
    # half-width 11 keeps |cos| small at the ends, so the central-stencil
    # bound h^2/6 governs the whole grid
    f = gf(11.0, 2201, np.sin)
    err = np.max(np.abs(derivative(f).values - np.cos(f.grid.x)))
    assert err <= 2e-5


def test_derivative_endpoint_second_order():
    errs = []
    for n in (201, 401):
        f = gf(2.0, n, np.exp)
        d = derivative(f)
        errs.append(max(abs(d.values[0] - np.exp(-2.0)), abs(d.values[-1] - np.exp(2.0))))
    assert errs[0] / errs[1] > 3.0  # ~4x per halving


# ---------------------------------------------------------------------------
# c1 norm
# ---------------------------------------------------------------------------

def test_c1_norm_zero():
    assert c1_norm(gf(5.0, 51, lambda x: 0.0 * x)) == 0.0


@pytest.mark.parametrize("a", [0.1, 1.0, 3.0])
def test_c1_norm_gaussian_closed_form(a):
    # max of |f| is a, max of |f'| = a*sqrt(2/e) at x = 1/sqrt(2)
    f = gf(10.0, 4001, lambda x: a * np.exp(-x ** 2))
    expected = a * (1.0 + math.sqrt(2.0 / math.e))
    assert c1_norm(f) == pytest.approx(expected, rel=1e-4)
    # independent oracle: dense evaluation of the analytic derivative
    xs = np.linspace(-10, 10, 400001)
    dense = a * np.max(np.abs(-2.0 * xs * np.exp(-xs ** 2)))
    assert c1_norm(f) == pytest.approx(a + dense, rel=1e-4)


def test_c1_norm_sin():
    f = gf(10.0, 2001, np.sin)
    assert abs(c1_norm(f) - 2.0) <= 1e-4


# ---------------------------------------------------------------------------
# Holder seminorm
# ---------------------------------------------------------------------------

def test_holder_constant_zero():
    for alpha in (0.0, 0.5, 0.9):
        assert holder_seminorm(gf(5.0, 101, lambda x: np.full_like(x, 2.0)), alpha) == 0.0


def test_holder_alpha_zero_is_oscillation():
    f = gf(5.0, 301, np.sin)
    osc = float(np.max(f.values) - np.min(f.values))
    assert holder_seminorm(f, 0.0) == pytest.approx(osc, rel=1e-15)


def test_holder_matches_bruteforce():
    g = Grid(2.0, 201)
    rng = np.random.default_rng(7)
    f = GridFunction(g, rng.normal(size=201))
    for alpha in (0.3, 0.5, 0.8):
        best = 0.0
        v, x = f.values, g.x
        for i in range(201):
            for j in range(i + 1, 201):
                best = max(best, abs(v[i] - v[j]) / abs(x[i] - x[j]) ** alpha)
        assert holder_seminorm(f, alpha) == pytest.approx(best, rel=1e-12)


def test_holder_kink_profile():
    f = gf(1.0, 201, np.abs)  # 0 is a node
    # adjacent pair across the kink dominates: |h - 0| / h^0.5 = sqrt(h)... but
    # wide pairs give |x - (-x)|/(2x)^0.5 growing with x, so the max is global
    brute = 0.0
    v, x = f.values, f.grid.x
    for i in range(0, 201, 1):
        for j in range(i + 1, 201):
            brute = max(brute, abs(v[i] - v[j]) / abs(x[i] - x[j]) ** 0.5)
    assert holder_seminorm(f, 0.5) == pytest.approx(brute, rel=1e-12)


def test_holder_rejects_bad_alpha():
    f = gf(1.0, 11, np.cos)
    for alpha in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            holder_seminorm(f, alpha)


def test_holder_subsampled_close_to_exact(monkeypatch):
    g = Grid(5.0, 4001)  # above the default pair budget
    f = GridFunction(g, np.sin(g.x))
    sub = holder_seminorm(f, 0.5)
    monkeypatch.setattr(fwsolver.grid, "PAIR_BUDGET", 10 ** 9)
    exact = holder_seminorm(f, 0.5)
    assert sub <= exact * (1 + 1e-12)
    assert sub >= 0.9 * exact


def holder_loop(v, h, alpha, offsets):
    """The seminorm as one ``np.max`` per offset, the reference for _holder."""
    best = 0.0
    for d in offsets:
        best = max(best, float(np.max(np.abs(v[d:] - v[:-d]))) / (d * h) ** alpha)
    return best


@st.composite
def holder_data(draw):
    """1 to 25 differences on one grid, mixing random, zero, constant and
    subnormal-scaled ones, and a list of alphas that includes 0."""
    n = draw(st.integers(3, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "zero", "constant", "subnormal"]),
                          min_size=1, max_size=25))
    scale = {"random": 10.0 ** draw(st.integers(-300, 300)), "zero": 0.0,
             "subnormal": 2.0 ** -1070}
    vs = [np.full(n, draw(st.floats(-1e6, 1e6))) if kind == "constant"
          else scale[kind] * rng.normal(size=n) for kind in kinds]
    alphas = [0.0] + draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
    return Grid(draw(st.floats(0.5, 50.0)), n), vs, alphas


# v_i = (i h)^(1/4) makes the quotient of every offset 1 up to rounding, so a
# denominator 1 ulp off (numpy's ** in place of Python's) changes the max;
# LONG_DATA runs the ladder above the default budget, ONE_ROW a stack of one row
ROOT_GRID = Grid(10.0, 401)
ROOT_DATA = (ROOT_GRID, [np.array([(i * ROOT_GRID.h) ** 0.25 for i in range(401)])], [0.0, 0.25])
LONG_DATA = (Grid(10.0, 8193), list(np.random.default_rng(3).normal(size=(2, 8193))), [0.5])
ONE_ROW = (Grid(1.0, 5), [np.array([0.0, 1.0, -2.0, 0.5, 3.0])], [0.0, 0.5])
# the pair that sets osc sits at nodes 0 and n - 1, so the scan runs to the last offset
END_GRID = Grid(1.0, 101)
END_PAIR = (END_GRID, [np.r_[-1.0, 0.01 * np.sin(END_GRID.x[1:-1]), 1.0]], [0.0, 0.5])
ALPHA_ZERO = (Grid(3.0, 300), list(np.random.default_rng(5).normal(size=(3, 300))), [0.0])
TINY_ALPHA = (Grid(2.0, 50), [np.random.default_rng(6).normal(size=50)], [5e-324, 0.5])
SUBNORMAL = (Grid(5.0, 64), list(2.0 ** -1070 * np.random.default_rng(7).normal(size=(2, 64))),
             [0.0, 0.25])


@settings(max_examples=100, deadline=None)
@given(holder_data(), st.booleans())
@example(data=ROOT_DATA, ladder=False)
@example(data=LONG_DATA, ladder=True)
@example(data=ONE_ROW, ladder=False)
@example(data=END_PAIR, ladder=False)
@example(data=END_PAIR, ladder=True)
@example(data=ALPHA_ZERO, ladder=False)
@example(data=ALPHA_ZERO, ladder=True)
@example(data=TINY_ALPHA, ladder=False)
@example(data=SUBNORMAL, ladder=False)
@example(data=SUBNORMAL, ladder=True)
def test_holder_of_many_is_each_seminorm_bitwise(data, ladder):
    # the budget 0 sends every n down the ladder of offsets; the differences
    # go in node-major as one contiguous (n, k) array and as a transposed view
    grid, vs, alphas = data
    n = grid.n_points
    offsets = (sorted({1} | {2 ** k for k in range(1, int(math.log2(n - 1)) + 1)} | {n - 1})
               if ladder else range(1, n))
    with mock.patch.object(fwsolver.grid, "PAIR_BUDGET", 0 if ladder else 10 ** 9):
        got = _holder(np.column_stack(vs), grid.h, alphas)
        stacked = _holder(np.array(vs).T, grid.h, alphas)
        each = [max(holder_seminorm(GridFunction(grid, v), a) for v in vs) for a in alphas]
    loop = [max(holder_loop(v, grid.h, a, offsets) for v in vs) for a in alphas]
    assert (np.array(got).tobytes() == np.array(stacked).tobytes()
            == np.array(each).tobytes() == np.array(loop).tobytes())


class CountingNumpy:
    """numpy as fwsolver.grid sees it, counting its calls of np.subtract."""

    def __init__(self):
        self.subtracts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.subtracts += 1
        return np.subtract(*args, **kwargs)


def scanned_offsets(values, h, alphas, monkeypatch):
    """``_holder``'s result and the number of offsets it scanned."""
    counting = CountingNumpy()
    monkeypatch.setattr(fwsolver.grid, "np", counting)
    return _holder(values, h, alphas), counting.subtracts


def test_holder_scan_of_smooth_differences_stops_early(monkeypatch):
    # the shape of continuity's (node, level) buffer in fw verify: 1001
    # nodes, 21 levels of a difference that grows in time
    grid = Grid(20.0, 1001)
    du = np.exp(-(grid.x[:, None] - 1.0) ** 2) * np.linspace(0.0, 1e-3, 21)
    alphas = [0.25, 0.5, 0.75]
    got, scanned = scanned_offsets(du, grid.h, alphas, monkeypatch)
    assert scanned <= 60
    exhaustive = [max(holder_loop(v, grid.h, a, range(1, 1001)) for v in du.T) for a in alphas]
    assert np.array(got).tobytes() == np.array(exhaustive).tobytes()


@pytest.mark.parametrize("budget, offsets", [(10 ** 9, 100), (0, 8)], ids=["all", "ladder"])
def test_holder_scan_reaches_a_pair_at_the_two_ends(budget, offsets, monkeypatch):
    # offsets 1 to 100, or the ladder 1, 2, 4, ..., 64 and 100
    grid, vs, alphas = END_PAIR
    monkeypatch.setattr(fwsolver.grid, "PAIR_BUDGET", budget)
    got, scanned = scanned_offsets(vs[0][:, None], grid.h, alphas, monkeypatch)
    assert scanned == offsets and got[0] == 2.0


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_zero():
    assert quadrature(gf(5.0, 101, lambda x: 0.0 * x)) == 0.0


def test_quadrature_gaussian_spectral():
    f = gf(10.0, 2001, lambda x: np.exp(-x ** 2))
    assert quadrature(f) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_quadrature_peaked_exponential():
    # kink at a node; trapezoid error is O(h^2) concentrated there
    f = gf(40.0, 24001, lambda x: (8.0 / 9.0) * np.exp(-0.5 * np.abs(x)))
    assert abs(quadrature(f) - 32.0 / 9.0) <= 1e-6


def test_quadrature_exact_on_affine_data():
    # the trapezoid rule integrates 3 + x exactly, which needs both end weights
    # of 1/2; decaying data hides them, and scaling is linear in any weights
    f = gf(2.0, 9, lambda x: 3.0 + x)
    assert quadrature(f) == pytest.approx(12.0, rel=1e-15)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolate_node_exactness():
    f = gf(5.0, 101, lambda x: np.sin(3 * x))
    nodes = [0, 17, 50, 100]
    vals, n_out = interpolate_many(f, f.grid.x[nodes])
    assert n_out == 0
    assert vals == pytest.approx(f.values[nodes], abs=1e-15)


def test_interpolate_linear_reproduction():
    f = gf(5.0, 101, lambda x: 0.7 * x + 0.2)
    xs = np.array([-4.99, -1.234, 0.01, 3.999])
    assert interpolate_many(f, xs)[0] == pytest.approx(0.7 * xs + 0.2, abs=1e-13)


def test_interpolate_sin_error_bound():
    f = gf(5.0, 1001, np.sin)  # h = 0.01
    xs = np.linspace(-4.9, 4.9, 7777)
    vals, n_out = interpolate_many(f, xs)
    assert n_out == 0
    assert np.max(np.abs(vals - np.sin(xs))) <= f.grid.h ** 2 / 8.0


def test_interpolate_outside_is_zero_and_counted():
    f = gf(1.0, 11, lambda x: x + 2.0)
    vals, n_out = interpolate_many(f, np.array([-3.0, 0.0, 2.0]))
    assert n_out == 2
    assert vals[0] == 0.0 and vals[2] == 0.0


# values with repeats (flat runs, zero secants), both signs and both zeros
SPLINE_VALUES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), st.floats(-100, 100))


@st.composite
def spline_data(draw):
    """Grid nodes, ``(n, k)`` values with ``k = 1`` or ``k > 2`` and query
    points: the nodes, the grid ends one ulp either side, and points in
    and up to two cells past either end."""
    n = draw(st.integers(3, 12) | st.sampled_from([3, 4]))
    k = draw(st.sampled_from([1, 3, 5]))
    x = Grid(draw(st.floats(0.5, 50.0)), n).x
    y = np.asarray(draw(st.lists(SPLINE_VALUES, min_size=n * k, max_size=n * k))).reshape(n, k)
    h = x[1] - x[0]
    inner = draw(st.lists(st.floats(-2.0, float(n + 1)), min_size=1, max_size=20))
    xs = np.concatenate([x, x[0] + h * np.asarray(inner),
                         np.nextafter(x[[0, 0, -1, -1]], [-np.inf, np.inf, -np.inf, np.inf])])
    return x, y, xs


@settings(max_examples=200, deadline=None)
@given(spline_data())
def test_splines_match_scipy_bitwise(data):
    # the Hermite route (extrapolating) against scipy's spline on the same slopes
    from scipy.interpolate import CubicHermiteSpline
    x, y, xs = data
    slopes = _slopes(x, y)
    spline = CubicHermiteSpline(x, y, slopes)
    # scipy keeps each cell's left-node slope as its linear coefficient
    assert slopes[:-1].tobytes() == spline.c[2].tobytes()
    assert _hermite(x, y, slopes, xs[:, None]).tobytes() == spline(xs).tobytes()


@settings(max_examples=200, deadline=None)
@given(spline_data())
def test_interpolate_many_is_the_hermite_spline_inside_and_zero_outside(data):
    # scipy's spline bit for bit on [-X, X]; 0 and counted past either end
    from scipy.interpolate import CubicHermiteSpline
    x, y, xs = data
    y = y[:, :1]
    f = GridFunction(Grid(x[-1], x.size), y[:, 0])
    inside = (xs >= x[0]) & (xs <= x[-1])
    vals, n_out = interpolate_many(f, xs)
    spline = CubicHermiteSpline(x, y, _slopes(x, y))
    assert vals[inside].tobytes() == spline(xs[inside])[:, 0].tobytes()
    assert n_out == np.sum(~inside) and np.all(vals[~inside] == 0.0)


U = 2.0 ** -53  # unit roundoff
TINY = 2.0 ** -1060  # absolute floor: products that underflow lose up to 2^-1075 each
#: largest coefficient sum sum|a_j| of the smooth route's stencils, times 12 h:
#: (25 + 48 + 36 + 16 + 3) at the end nodes; 18 and 38 elsewhere, 48 below 5 nodes
STENCIL_ABS = 128.0


@st.composite
def cubic_data(draw):
    """A uniform grid of at least 5 nodes, the coefficients ``c`` ``(4, k)``
    of ``k`` cubics and query points in ``[-X, X]`` (nodes included)."""
    n = draw(st.integers(5, 40))
    k = draw(st.sampled_from([1, 3]))
    half_width = draw(st.floats(0.5, 50.0))
    c = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=4 * k, max_size=4 * k)))
    frac = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    x = Grid(half_width, n).x
    return x, c.reshape(4, k), np.concatenate([x, half_width * (2 * np.asarray(frac) - 1)])


def horner(c, x):
    return ((c[3] * x[:, None] + c[2]) * x[:, None] + c[1]) * x[:, None] + c[0]


@settings(max_examples=200, deadline=None)
@given(cubic_data())
def test_smooth_route_is_exact_for_cubics(data):
    # The 5-point stencils are exact for degree <= 4, so only rounding is
    # left.  Per column, with M = sum|c_j| X^j >= |p| and P = sum j|c_j| X^(j-1)
    # >= |p'| on [-X, X], a node value is off the cubic at the ideal node by
    # at most 7uM (Horner) + 4uX P (linspace's node positions); the stencil
    # adds 5u of sum|a_j y_j| and divides by 12 h, and the reference p' is
    # off by 8uP.  The Hermite cubic weighs slope errors by at most h/3 and
    # value errors by 1, and its power sum rounds within 32u(M + X P).
    # Underflowed products add TINY (over h for slopes).
    x, c, xs = data
    X, h = x[-1], (x[-1] - x[0]) / (x.size - 1)
    M = sum(np.abs(c[j]) * X ** j for j in range(4))
    P = sum(j * np.abs(c[j]) * X ** (j - 1) for j in range(1, 4))
    slope_bound = STENCIL_ABS / (12 * h) * U * (12 * M + 4 * X * P) + 8 * U * P + TINY / h
    value_bound = h / 3 * slope_bound + 32 * U * (M + X * P) + TINY
    y = horner(c, x)
    slopes = _slopes(x, y)
    exact = (3 * c[3] * x[:, None] + 2 * c[2]) * x[:, None] + c[1]
    assert np.all(np.abs(slopes - exact) <= slope_bound)
    values = _hermite(x, y, slopes, xs[:, None])
    assert np.all(np.abs(values - horner(c, xs)) <= value_bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.floats(0.5, 50.0), st.data())
def test_smooth_slopes_are_linear(n, half_width, data):
    # no limiter: slopes of a*y1 + b*y2 are a*slopes(y1) + b*slopes(y2). With
    # S = |a| sup|y1| + |b| sup|y2|, forming the combination costs 2uS per
    # value, each stencil 5u of sum|a_j y_j| <= STENCIL_ABS S, and the right
    # side's scaling and sum 3u of the same, over 12 h; underflow adds TINY / h
    x = Grid(half_width, n).x
    y1, y2 = (np.asarray(data.draw(st.lists(st.floats(-100, 100), min_size=2 * n,
                                            max_size=2 * n))).reshape(n, 2) for _ in "12")
    a, b = data.draw(st.floats(-10, 10)), data.draw(st.floats(-10, 10))
    S = abs(a) * np.max(np.abs(y1)) + abs(b) * np.max(np.abs(y2))
    h = (x[-1] - x[0]) / (n - 1)
    bound = 16 * U * STENCIL_ABS * S / (12 * h) + TINY / h
    got = _slopes(x, a * y1 + b * y2)
    assert np.all(np.abs(got - (a * _slopes(x, y1) + b * _slopes(x, y2))) <= bound)


@st.composite
def parabola_data(draw):
    """3 or 4 uniform nodes, ``(n, k)`` samples of ``k`` parabolas and query
    points in and up to two cells past either end."""
    n = draw(st.sampled_from([3, 4]))
    k = draw(st.sampled_from([1, 2]))
    x = Grid(draw(st.floats(0.5, 50.0)), n).x
    c = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=3 * k, max_size=3 * k)))
    c = c.reshape(3, k)
    inner = draw(st.lists(st.floats(-2.0, float(n + 1)), min_size=1, max_size=20))
    xs = x[0] + (x[1] - x[0]) * np.asarray(inner)
    return x, (c[2] * x[:, None] + c[1]) * x[:, None] + c[0], xs


# three nodes: any three values lie on a parabola; queried off the nodes and past the ends
PARABOLA = (Grid(2.0, 3).x, np.array([[0.3, 2.0], [1.0, 2.0], [-0.5, -1.0]]),
            np.array([-2.5, -1.7, -0.3, 0.4, 1.9, 2.2]))


# subnormal coefficients: the end slopes differ from the reference by 1e-323
SUBNORMAL_PARABOLA = (Grid(1.5, 3).x, np.array([[0.0, 1.5e-323], [0.0, 0.0], [0.0, 1.5e-323]]),
                      np.array([-1.5]))


@settings(max_examples=200, deadline=None)
@given(parabola_data())
@example(data=PARABOLA)
@example(data=SUBNORMAL_PARABOLA)
def test_smooth_route_reproduces_parabolas_on_3_and_4_nodes(data):
    # below 5 nodes the slopes are derivative_values', exact for parabolas;
    # the reference is the Newton form through the first three nodes.  Its
    # Lagrange weights sum to at most 31 within two cells of the ends, so
    # both sides round within a few hundred ulps of 31 sup|y| (over h for
    # slopes), plus TINY where products underflow
    x, y, xs = data
    h = x[1] - x[0]
    d1, d2 = (y[1] - y[0]) / h, (y[2] - 2 * y[1] + y[0]) / (2 * h * h)
    scale = 2.0 ** -40 * np.max(np.abs(y), axis=0)
    slopes = _slopes(x, y)
    assert np.all(np.abs(slopes - (d1 + (2 * x[:, None] - x[0] - x[1]) * d2))
                  <= scale / h + TINY / h)
    reference = y[0] + (xs[:, None] - x[0]) * (d1 + (xs[:, None] - x[1]) * d2)
    assert np.all(np.abs(_hermite(x, y, slopes, xs[:, None]) - reference)
                  <= scale + TINY)


def test_smooth_route_is_fourth_order_on_sin():
    # slopes at the nodes and values at the cell midpoints, for h = 0.15, 0.075, 0.0375
    errors = []
    for n in (41, 81, 161):
        x = Grid(3.0, n).x
        y, mid = np.sin(x)[:, None], 0.5 * (x[1:] + x[:-1])
        slopes = _slopes(x, y)
        values = _hermite(x, y, slopes, mid[:, None])[:, 0]
        errors.append((np.max(np.abs(slopes[:, 0] - np.cos(x))),
                       np.max(np.abs(values - np.sin(mid)))))
    for coarse, fine in zip(errors, errors[1:]):
        assert all(c >= 2 ** 3.8 * f for c, f in zip(coarse, fine))


def test_c2_slopes_of_a_batch_equal_each_column_alone():
    # five states, w and v each: the smooth route's slopes of all ten
    # columns at once are, column for column, the bits of each column alone
    x = Grid(20.0, 2001).x
    rng = np.random.default_rng(5)
    y = np.exp(-x[:, None] ** 2 / rng.uniform(1, 9, 10)) * rng.uniform(-1, 1, 10)
    together = _slopes(x, y)
    for j in range(y.shape[1]):
        alone = _slopes(x, y[:, j:j + 1].copy())
        assert together[:, j].tobytes() == alone[:, 0].tobytes()


# ---------------------------------------------------------------------------
# norm properties
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30),
       st.floats(-100, 100))
# the two quadratures cancel to 6255.7 from terms near 3e7 and differ by 6.4e-9
@example(vals=[-868011.6808183427, 145752.04469439317, 912675.8633685098,
               -320401.0, -607663.0], c=33.0)
def test_norm_scaling_properties(vals, c):
    g = Grid(2.0, len(vals))
    f = GridFunction(g, np.asarray(vals))
    cf = GridFunction(g, f.values * c)
    assert sup_norm(cf) == pytest.approx(abs(c) * sup_norm(f), rel=1e-12, abs=1e-300)
    # Each side is h times a sum of n terms plus an end correction: rounding
    # the products c*v_i, summing, correcting and scaling by h (or c) costs at
    # most (n + 4) unit roundoffs of h * sum|c v_i| per side, i.e. about
    # (n + 4) eps for the difference, a bound relative to the terms, not to a
    # sum that may cancel.  Gradual underflow adds at most half a subnormal
    # per operation, and h <= 2 here.
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    n, h = len(vals), g.h
    bound = 4 * n * (eps * h * float(np.sum(np.abs(cf.values))) + tiny)
    assert quadrature(cf) == pytest.approx(c * quadrature(f), rel=0, abs=bound)
    assert holder_seminorm(cf, 0.5) == pytest.approx(
        abs(c) * holder_seminorm(f, 0.5), rel=1e-12, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30),
       st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30))
def test_sup_norm_triangle_inequality(a, b):
    n = min(len(a), len(b))
    g = Grid(2.0, n)
    f1 = GridFunction(g, np.asarray(a[:n]))
    f2 = GridFunction(g, np.asarray(b[:n]))
    f12 = GridFunction(g, f1.values + f2.values)
    assert sup_norm(f12) <= sup_norm(f1) + sup_norm(f2) + 1e-12


# ---------------------------------------------------------------------------
# csv round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    f = gf(7.0, 301, lambda x: np.sin(x) * np.exp(-0.1 * x ** 2))
    path = tmp_path / "f.csv"
    write_csv(f, path)
    g = read_csv(path)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)  # 17 significant digits round-trip


def test_write_columns_matches_format_spec_on_special_values(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
               2.2250738585072014e-308, 1.0 / 3.0, -1.7976931348623157e308]
    columns = [special, special[::-1]]
    path = tmp_path / "c.csv"
    write_columns(path, ("a", "b"), columns)
    rows = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(*columns))
    assert path.read_text() == "a,b\n" + rows


@pytest.mark.parametrize("n_rows", sorted({1, 512, 513, 1025, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                           CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1}))
def test_write_columns_round_trips_across_chunks(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    columns = rng.standard_normal((3, n_rows)) * 10.0 ** rng.integers(-300, 300, (3, n_rows))
    path = tmp_path / "c.csv"
    write_columns(path, ("a", "b", "c"), columns)
    rows = "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in columns.T)
    assert path.read_text() == "a,b,c\n" + rows
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, columns.T)
    expected = path.read_bytes()
    write_columns(path, ("a", "b", "c"), columns)
    assert path.read_bytes() == expected


def assert_written_as_format_spec(path, table):
    """write_columns writes each row of ``table`` as its ``%.17g`` fields."""
    table = np.asarray(table, dtype=np.float64).reshape(len(table), -1)
    names = [f"c{j}" for j in range(table.shape[1])]
    write_columns(path, names, table.T)
    rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
    assert path.read_text() == ",".join(names) + "\n" + rows


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1)),
                min_size=1, max_size=64))
def test_write_columns_is_format_spec_on_every_bit_pattern(tmp_path_factory, bits):
    table = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_written_as_format_spec(tmp_path_factory.getbasetemp() / "bits.csv", table)


def test_write_columns_is_format_spec_around_every_power_of_ten(tmp_path):
    # the double nearest 10**j and its two neighbours, with their negatives
    near = [float(f"1e{j}") for j in range(-285, 286)]
    table = [[x, -x] for p in near for x in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]
    assert_written_as_format_spec(tmp_path / "powers.csv", table)


# the doubles in (1e-280, 1e280) below a power of 10 whose 17 digits round up to it
NEXT_DECADE = [1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98, 1e129,
               1e153, 1e220]


@pytest.mark.parametrize("values", [
    [1000000000000000.25, 1000000000000000.75, 0.5, 2.5, 1e23],  # ties, half to even
    # 17 digits within 2**-59 of a tie, by lattice reduction
    [1.3588129002659584e-245, 6.538311315939327e+64, 1.234550136632744e-99,
     1.7706146115181413e+137, 6.326079131941828e+160, 1.6173470704192264e-37,
     8.133530312496636e+160, 1.610907380751657e+221],
    NEXT_DECADE,
    # either side of fixed notation, -4 <= exponent <= 16
    [1e-5, 9.9999999999999995e-6, 1e-4, 1.5e-4, 9999999999999998.0, 1e16, 12345678901234567.0,
     99999999999999984.0, 1e17, 123456789012345678.0],
    [1e100, 1.5e-200, 1e-100, 2.5e279, 1e-279],  # three-digit exponents
    [5e-324, -2.2250738585072009e-308, 1e-280, 1e280, 1.7976931348623157e308],  # by %
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 10.0, 0.1],
], ids=["ties", "near-ties", "next-decade", "fixed-edges", "exponents", "out-of-range",
        "special"])
def test_write_columns_is_format_spec_on_pinned_values(tmp_path, values):
    assert_written_as_format_spec(tmp_path / "pinned.csv", [[v, -v] for v in values])


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_write_columns_is_format_spec_when_log10_is_one_ulp_off(tmp_path, monkeypatch, toward):
    # the decimal exponent then lands a decade off at powers of 10, as it may on another libm
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    values = [*NEXT_DECADE, 1e-5, 1e-4, 0.1, 1.0, 100.0, 1e16, 1e17, 1e200]
    assert_written_as_format_spec(tmp_path / "off.csv",
                                  [[x, math.nextafter(x, 0), -x] for x in values])


def test_next_decade_lists_every_double_below_a_power_of_ten_that_prints_as_it():
    near = [x for j in range(-279, 280)
            for x in (float(f"1e{j}"), math.nextafter(float(f"1e{j}"), 0))
            if Fraction(x) < Fraction(10) ** j and "%.17g" % x == "%.0e" % x]
    assert near == NEXT_DECADE


def test_read_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n1,1\n3,1\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_derivative_of_resampled_linear_data():
    # interpolate linear data onto a shifted grid, then differentiate:
    # the slope must come back exactly at interior points
    f = gf(5.0, 101, lambda x: 1.7 * x - 0.3)
    g = Grid(4.5, 91)
    resampled, n_out = interpolate_many(f, g.x)
    assert n_out == 0
    d = derivative(GridFunction(g, resampled))
    assert np.allclose(d.values[1:-1], 1.7, rtol=0, atol=1e-12)
