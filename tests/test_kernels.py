import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fwsolver.grid import Grid, GridFunction, derivative
from fwsolver.kernels import (_SPAN, _geometry, _panels, _unit_geometry, convected_pair,
                              cumulative_flow_values, green_derivative, helmholtz_inverse,
                              kernel_pair_arrays, kernel_pair_direct)
from fwsolver.lagrangian import DEFAULT_Q_FLOOR, GuardBreach, _rhs_arrays, _rk4, _rk4_arrays


def gf(half_width, n, fn):
    g = Grid(half_width, n)
    return GridFunction(g, fn(g.x))


def ones_like(f):
    return GridFunction(f.grid, np.ones(f.grid.n_points))


# ---------------------------------------------------------------------------
# cumulative flow
# ---------------------------------------------------------------------------

def test_cumulative_flow_unit_stretch():
    q = gf(10.0, 1001, lambda x: np.ones_like(x))
    lam = cumulative_flow_values(q.values, q.grid.h)
    assert lam[0] == 0.0
    assert np.allclose(lam, q.grid.x + 10.0, atol=1e-12)
    assert np.all(np.diff(lam) > 0)


def test_cumulative_flow_constant_scaling():
    q = gf(10.0, 1001, lambda x: 2.0 * np.ones_like(x))
    lam = cumulative_flow_values(q.values, q.grid.h)
    assert np.allclose(lam, 2.0 * (q.grid.x + 10.0), atol=1e-11)


def test_cumulative_flow_erf_antiderivative():
    # q = 1 + exp(-x^2)/2 integrates to x + X + (sqrt(pi)/4)(erf x + erf X)
    g = Grid(10.0, 2001)
    q = GridFunction(g, 1.0 + 0.5 * np.exp(-g.x ** 2))
    lam = cumulative_flow_values(q.values, g.h)
    erf = np.vectorize(math.erf)
    exact = g.x + 10.0 + (math.sqrt(math.pi) / 4.0) * (erf(g.x) + erf(10.0))
    assert np.max(np.abs(lam - exact)) <= 1e-5


def test_cumulative_flow_floor_guard_reports_index():
    # the kernel sums a floored stretch as it is; the solver's stage check in
    # front of it reports the floored node
    g = Grid(5.0, 101)
    qv = np.ones(101)
    qv[37] = 0.05
    lam = cumulative_flow_values(qv, g.h)
    assert np.array_equal(lam[1:], np.cumsum(0.5 * g.h * (qv[:-1] + qv[1:])))
    y = np.stack([np.zeros(101), np.zeros(101), qv, np.zeros(101)])
    with pytest.raises(GuardBreach) as exc:
        _rk4_arrays(y, 0.0, 0.01, g, DEFAULT_Q_FLOOR)
    assert (exc.value.stage, exc.value.node) == ("k1", 37)


# ---------------------------------------------------------------------------
# fixed-grid operators: closed forms
# ---------------------------------------------------------------------------

def test_helmholtz_zero():
    f = gf(10.0, 501, lambda x: 0.0 * x)
    assert np.all(helmholtz_inverse(f).values == 0.0)


def test_helmholtz_exponential_closed_form():
    f = gf(30.0, 3001, lambda x: np.exp(-np.abs(x)))
    exact = 0.5 * (1.0 + np.abs(f.grid.x)) * np.exp(-np.abs(f.grid.x))
    assert np.max(np.abs(helmholtz_inverse(f).values - exact)) <= 1e-10


def test_helmholtz_unit_mass():
    # kernel has unit mass; away from the ends the response to 1 is 1
    f = gf(30.0, 1501, lambda x: np.ones_like(x))
    center = helmholtz_inverse(f).values[750]
    assert abs(center - 1.0) <= 1e-12  # truncation ~ e^-30


def test_green_derivative_zero_and_symmetry():
    z = gf(10.0, 501, lambda x: 0.0 * x)
    assert np.all(green_derivative(z).values == 0.0)
    f = gf(20.0, 1601, lambda x: np.exp(-x ** 2))  # even data
    gd = green_derivative(f).values
    assert abs(gd[800]) <= 1e-14          # odd result vanishes at the center
    assert np.max(np.abs(gd + gd[::-1])) <= 1e-12


def test_green_derivative_exponential_closed_form():
    f = gf(30.0, 3001, lambda x: np.exp(-np.abs(x)))
    x = f.grid.x
    exact = -np.sign(x) * 0.5 * np.abs(x) * np.exp(-np.abs(x))
    assert np.max(np.abs(green_derivative(f).values - exact)) <= 1e-10


def test_second_derivative_identity():
    # d/dx of the odd integral recovers (smoothed - identity) to O(h^2)
    f = gf(20.0, 2001, lambda x: np.exp(-x ** 2))
    lhs = derivative(green_derivative(f)).values
    rhs = helmholtz_inverse(f).values - f.values
    assert np.max(np.abs(lhs - rhs)) <= 5e-4  # (h^2/6) sup|d^3 smoothed|


# ---------------------------------------------------------------------------
# flow-coordinate operators
# ---------------------------------------------------------------------------

def test_collapse_is_bitwise():
    f = gf(20.0, 1201, lambda x: np.exp(-x ** 2) * np.sin(x))
    ones = ones_like(f)
    odd, even = convected_pair(f, ones)
    assert np.array_equal(odd.values, green_derivative(f).values)
    assert np.array_equal(even.values, helmholtz_inverse(f).values)


@pytest.mark.parametrize("grid", [Grid(1.0, 3), Grid(20.0, 2001), Grid(200.0, 101)],
                         ids=["n=3", "defaults", "dlam=4"])
def test_unit_stretch_operators_are_convected_pair_bitwise(grid):
    # Grid(200, 101) has cells of width 4 in Lambda, so its sweeps run in 15 blocks
    f = GridFunction(grid, np.exp(-0.01 * grid.x ** 2) * np.cos(grid.x))
    odd, even = convected_pair(f, ones_like(f))
    for _ in range(2):  # the first call fills the cache, the second reads it
        assert green_derivative(f).values.tobytes() == odd.values.tobytes()
        assert helmholtz_inverse(f).values.tobytes() == even.values.tobytes()
    geometry = _unit_geometry(grid)
    for part in geometry:  # three read-only arrays and a tuple
        with pytest.raises((ValueError, TypeError)):
            part[0] = 1.0
    assert _unit_geometry(Grid(grid.half_width, grid.n_points)) is geometry
    assert _unit_geometry(Grid(2.0 * grid.half_width, grid.n_points)) is not geometry


def test_convected_zero_data():
    g = Grid(10.0, 301)
    w = GridFunction(g, np.zeros(301))
    q = GridFunction(g, 1.0 + 0.05 * np.sin(g.x))
    odd, even = convected_pair(w, q)
    assert np.all(odd.values == 0.0) and np.all(even.values == 0.0)


def test_convected_pair_requires_same_grid():
    # same node count, different spacing: only the grid check can catch it
    w = gf(1.0, 11, np.cos)
    q = GridFunction(Grid(2.0, 11), np.ones(11))
    with pytest.raises(ValueError, match="different grids"):
        convected_pair(w, q)


def test_convected_exponential_at_unit_stretch():
    w = gf(30.0, 3001, lambda x: np.exp(-np.abs(x)))
    x = w.grid.x
    odd = convected_pair(w, ones_like(w))[0]
    assert np.max(np.abs(odd.values + np.sign(x) * 0.5 * np.abs(x) * np.exp(-np.abs(x)))) <= 1e-10
    even = convected_pair(w, ones_like(w))[1]
    assert np.max(np.abs(even.values - 0.5 * (1 + np.abs(x)) * np.exp(-np.abs(x)))) <= 1e-10


def test_convected_constant_at_center():
    w = gf(30.0, 1501, lambda x: np.ones_like(x))
    even = convected_pair(w, ones_like(w))[1]
    assert abs(even.values[750] - 1.0) <= 1e-12


def test_fast_matches_direct_randomized():
    rng = np.random.default_rng(11)
    g = Grid(15.0, 901)
    x = g.x
    for _ in range(5):
        env = np.exp(-0.5 * (x / 6.0) ** 2)
        w = GridFunction(g, env * sum(c * np.cos((k + 1) * 0.5 * x + p)
                                      for k, (c, p) in enumerate(
                                          zip(rng.normal(size=4), rng.uniform(0, 6, 4)))))
        q = GridFunction(g, 1.0 + 0.1 * np.sin(rng.uniform(0.2, 0.8) * x + rng.uniform(0, 6)))
        fo, fe = convected_pair(w, q)
        do, de = kernel_pair_direct(w.values, cumulative_flow_values(q.values, g.h))
        for a, b in ((fo, do), (fe, de)):
            rel = np.max(np.abs(a.values - b)) / np.max(np.abs(b))
            assert rel <= 1e-10


def random_pair(n, half_width, seed):
    """Signed random data and a rough random stretch in (q_floor, 2]."""
    rng = np.random.default_rng(seed)
    g = Grid(half_width, n)
    q = DEFAULT_Q_FLOOR + (2.0 - DEFAULT_Q_FLOOR) * (1.0 - rng.random(n))
    return GridFunction(g, rng.normal(size=n)), GridFunction(g, q)


def sweep_layout(n, half_width, seed):
    _, q = random_pair(n, half_width, seed)
    blocks, block_len = _geometry(cumulative_flow_values(q.values, q.grid.h))[1].shape
    return {"single block": blocks == 1, "many blocks": blocks >= 3,
            "padded last block": blocks * block_len > n - 1, "block length 1": block_len == 1}


# one example per sweep layout (plus an unpadded multi-block one), checked by
# test_blocked_sweep_examples_cover_layouts
LAYOUT_EXAMPLES = [(200, 1.0, 1), (400, 100.0, 2), (301, 40.0, 3), (40, 2000.0, 4)]


def test_blocked_sweep_examples_cover_layouts():
    hit = {k for args in LAYOUT_EXAMPLES for k, v in sweep_layout(*args).items() if v}
    assert hit == {"single block", "many blocks", "padded last block", "block length 1"}


@settings(deadline=None)
@given(n=st.integers(3, 400), half_width=st.floats(0.5, 3000.0), seed=st.integers(0, 2**32 - 1))
@example(*LAYOUT_EXAMPLES[0])
@example(*LAYOUT_EXAMPLES[1])
@example(*LAYOUT_EXAMPLES[2])
@example(*LAYOUT_EXAMPLES[3])
def test_blocked_sweep_matches_direct(n, half_width, seed):
    w, q = random_pair(n, half_width, seed)
    fast = convected_pair(w, q)
    direct = kernel_pair_direct(w.values, cumulative_flow_values(q.values, q.grid.h))
    for a, b in zip(fast, direct):
        assert np.max(np.abs(a.values - b)) <= 1e-12 * np.max(np.abs(b))


def allocating_direct_pair(w, lam):
    """kernel_pair_direct as two full weight matrices, one per side, with a
    new array per operation: the reference for its row blocks."""
    pr, kl = _panels(w, _geometry(lam), np.empty((2, lam.size - 1)))
    n = lam.size
    i = np.arange(n)
    Wr = np.exp(np.minimum(lam[:, None] - lam[None, :-1], 0.0))
    Wr[i[:, None] > np.arange(n - 1)[None, :]] = 0.0
    R = 0.5 * np.einsum("ij,j->i", Wr, pr)
    Wl = np.exp(np.minimum(lam[None, 1:] - lam[:, None], 0.0))
    Wl[i[:, None] < np.arange(1, n)[None, :]] = 0.0
    L = 0.5 * np.einsum("ij,j->i", Wl, kl)
    return R - L, R + L


def test_direct_pair_is_the_allocating_form_to_rounding_in_row_blocks():
    # the weights are the same bit for bit, the sums run in another order; the
    # sizes straddle the 64-row block, and (40, 2000) spans far more than
    # log(max float) in lam, so its diagonal block would overflow unclamped
    _, q = random_pair(40, 2000.0, 4)
    assert cumulative_flow_values(q.values, q.grid.h)[-1] > np.log(np.finfo(float).max)
    for n, half_width, seed in [(3, 30.0, 8), (63, 30.0, 8), (64, 30.0, 8), (65, 30.0, 8),
                                (129, 30.0, 8), (40, 2000.0, 4), (801, 30.0, 8)]:
        w, q = random_pair(n, half_width, seed)
        lam = cumulative_flow_values(q.values, q.grid.h)
        expected = allocating_direct_pair(w.values, lam)
        tracemalloc.start()
        try:
            got = kernel_pair_direct(w.values, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for a, b in zip(got, expected):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
    assert peak < n * (n - 1) * 8 / 4  # at n = 801; the allocating form peaks near three matrices


def naive_quadrature_pair(w, q):
    """Fully independent oracle: plain trapezoid in physical coordinates of
    0.5 * exp(-|Lambda(z) - Lambda(x)|) * w * q over each half line."""
    g = w.grid
    h = g.h
    lam = np.concatenate([[0.0], np.cumsum(0.5 * h * (q.values[:-1] + q.values[1:]))])
    n = g.n_points
    odd = np.empty(n)
    even = np.empty(n)
    integrand = w.values * q.values
    for i in range(n):
        ker = np.exp(-np.abs(lam - lam[i])) * integrand
        right = np.trapezoid(ker[i:], dx=h)
        left = np.trapezoid(ker[:i + 1], dx=h)
        odd[i] = 0.5 * (right - left)
        even[i] = 0.5 * (right + left)
    return odd, even


def test_panel_model_against_naive_trapezoid():
    # different quadrature family entirely, so agreement is O(h^2), and the
    # gap must shrink ~4x when h is halved
    sup_gaps = []
    for n in (751, 1501):
        g = Grid(15.0, n)
        x = g.x
        w = GridFunction(g, 0.5 * np.exp(-x ** 2) * (1 + 0.3 * np.sin(2 * x)))
        q = GridFunction(g, 1.0 + 0.08 * np.cos(0.5 * x))
        fo, fe = convected_pair(w, q)
        no, ne = naive_quadrature_pair(w, q)
        sup_gaps.append(max(np.max(np.abs(fo.values - no)), np.max(np.abs(fe.values - ne))))
    assert sup_gaps[0] <= 5e-4
    assert sup_gaps[0] / sup_gaps[1] >= 3.0


def test_even_integral_bounded_by_data():
    rng = np.random.default_rng(3)
    g = Grid(20.0, 801)
    for _ in range(5):
        w = GridFunction(g, np.exp(-0.1 * g.x ** 2) * rng.normal(size=801))
        q = GridFunction(g, 1.0 + 0.1 * np.tanh(rng.normal() * g.x))
        even = convected_pair(w, q)[1]
        bound = (np.max(np.abs(w.values)) * np.max(q.values) / np.min(q.values))
        assert np.max(np.abs(even.values)) <= bound * (1 + 1e-9)


def test_symmetry_even_data_even_stretch():
    g = Grid(20.0, 1601)
    w = GridFunction(g, np.exp(-g.x ** 2))
    q = GridFunction(g, 1.0 + 0.05 * np.exp(-0.5 * g.x ** 2))
    odd, even = convected_pair(w, q)
    assert np.max(np.abs(odd.values + odd.values[::-1])) <= 1e-12
    assert np.max(np.abs(even.values - even.values[::-1])) <= 1e-12


def test_coarse_grid_stability():
    # huge cell sizes must degrade gracefully, not overflow
    g = Grid(50.0, 21)
    w = GridFunction(g, np.exp(-0.01 * g.x ** 2))
    q = GridFunction(g, np.ones(21))
    fo, fe = convected_pair(w, q)
    do, de = kernel_pair_direct(w.values, cumulative_flow_values(q.values, g.h))
    assert np.all(np.isfinite(fo.values)) and np.all(np.isfinite(fe.values))
    assert np.max(np.abs(fe.values - de)) <= 1e-10 * np.max(np.abs(de))


def test_convected_pair_rejects_a_non_positive_stretch():
    # the kernel needs a strictly increasing flow coordinate, so q > 0 everywhere
    g = Grid(5.0, 101)
    w = GridFunction(g, np.exp(-g.x ** 2))
    for bad in (0.0, -0.5):
        qv = np.ones(101)
        qv[3] = bad
        with pytest.raises(ValueError, match="^stretch q must be positive everywhere"):
            convected_pair(w, GridFunction(g, qv))


# ---------------------------------------------------------------------------
# the in-place kernel pass against the allocating one it replaced
# ---------------------------------------------------------------------------

def ref_phi1(z):
    out = np.ones_like(z)
    np.divide(np.expm1(z), z, out=out, where=z != 0.0)
    return out


def ref_geometry(lam):
    dlam = np.diff(lam)
    E = -np.expm1(-dlam)
    B = (E - dlam * (1.0 - E)) / dlam
    blocks = -(-dlam.size // max(1, int(_SPAN / float(np.max(dlam)))))
    block_len = -(-dlam.size // blocks)
    edges = np.full((2, blocks * block_len), lam[-1])
    edges[:, :dlam.size] = lam[:-1], lam[1:]
    lo, hi = edges.reshape(2, blocks, block_len)
    head, tail = lo[:, :1], hi[:, -1:]
    return (dlam, E - B, B, np.exp(lo - head), np.exp(hi - tail),
            tuple(np.exp(head - tail).ravel().tolist()))


def ref_panels(w, geometry):
    dlam, A, B = geometry[:3]
    w0, w1 = w[:-1], w[1:]
    fit = (w0 * w1) > 0.0
    ratio = np.log(np.divide(w1, w0, out=np.ones_like(dlam), where=fit))
    fit &= np.abs(ratio) < 500.0
    ratio = np.where(fit, ratio, 0.0)
    decaying = np.where(fit, dlam * w0 * ref_phi1(ratio - dlam), A * w0 + B * w1)
    growing = np.where(fit, dlam * w1 * ref_phi1(-ratio - dlam), B * w0 + A * w1)
    return decaying, growing


def ref_sweeps(w, geometry):
    dlam, _, _, up, down, link = geometry
    m, blocks = dlam.size, up.shape[0]
    cells = np.zeros((2, up.size))
    cells[:, :m] = ref_panels(w, geometry)
    dec, gro = cells.reshape(2, *up.shape)
    Sr = np.cumsum((0.5 * dec / up)[:, ::-1], axis=1)[:, ::-1]
    Sl = np.cumsum(0.5 * gro * down, axis=1)
    right_sums, left_sums = Sr[:, 0].tolist(), Sl[:, -1].tolist()
    cr, cl = [0.0] * blocks, [0.0] * blocks
    R_next = L_prev = 0.0
    for b in range(blocks):
        c = blocks - 1 - b
        cr[c] = R_next = link[c] * R_next
        R_next += right_sums[c]
        cl[b] = L_prev = link[b] * L_prev
        L_prev += left_sums[b]
    R = np.concatenate(((up * (Sr + np.array(cr)[:, None])).ravel()[:m], [0.0]))
    L = np.concatenate(([0.0], ((Sl + np.array(cl)[:, None]) / down).ravel()[:m]))
    return R - L, R + L


def ref_rhs(y, h):
    w, v, q = y[0], y[1], y[2]
    odd, even = ref_sweeps(w, ref_geometry(cumulative_flow_values(q, h)))
    return np.stack([odd, even - w - 1.5 * v * v, 1.5 * v * q, 1.5 * w])


def ref_rk4(f, y, dt):
    k1 = f(y, "k1")
    k2 = f(y + 0.5 * dt * k1, "k2")
    k3 = f(y + 0.5 * dt * k2, "k3")
    k4 = f(y + dt * k3, "k4")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def packed_state(n, half_width, seed):
    """``(y, h)``: a packed state whose ``w`` has exact zeros, sign changes,
    subnormals and neighbours whose ratio has ``|log| >= 500``."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    w[rng.random(n) < 0.1] = 0.0
    w[rng.random(n) < 0.1] *= 1e-310
    w *= np.exp(-rng.uniform(500.0, 700.0, n) * (rng.random(n) < 0.1))
    y = np.stack([w, 0.3 * rng.normal(size=n), rng.uniform(0.2, 1.3, n), rng.normal(size=n)])
    return y, 2.0 * half_width / (n - 1)


def signed_state(signs, half_width, seed):
    """``(y, h)``: a packed state whose ``w`` has the given signs and ``|w|`` in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    n = signs.size
    y = np.stack([signs * rng.uniform(0.5, 2.0, n), 0.3 * rng.normal(size=n),
                  rng.uniform(0.2, 1.3, n), rng.normal(size=n)])
    return y, 2.0 * half_width / (n - 1)


LONG_DOMAIN = packed_state(401, 100.0, 5)  # nine sweep blocks, the last one padded
NO_LINEAR_CELL = signed_state(np.ones(301), 50.0, 6)  # w > 0: the fit on every cell
ALL_LINEAR_CELLS = signed_state((-1.0) ** np.arange(301), 50.0, 7)  # the linear rule on every cell
# one cell with z = log(w1/w0) - dlam == 0 exactly: lam = [0, log(w1/w0)]
Z_ZERO_CELL = (np.array([[1.0, 3.0], [0.1, -0.2], [1.0, 1.0], [0.0, 0.0]]), float(np.log(3.0)))


def test_bitwise_examples_cover_padded_blocks_and_the_removable_singularity():
    y, h = LONG_DOMAIN
    blocks, block_len = _geometry(cumulative_flow_values(y[2], h))[1].shape
    assert blocks > 2 and blocks * block_len > y.shape[1] - 1
    y, h = Z_ZERO_CELL
    assert np.log(y[0, 1] / y[0, 0]) - np.diff(cumulative_flow_values(y[2], h))[0] == 0.0
    # the linear rule runs where neighbouring w do not share a sign
    for (y, _), linear_cells in ((NO_LINEAR_CELL, 0), (ALL_LINEAR_CELLS, 300)):
        assert np.count_nonzero(y[0, :-1] * y[0, 1:] <= 0.0) == linear_cells


@settings(deadline=None, max_examples=40)
@given(case=st.builds(packed_state, st.integers(2, 3000), st.floats(0.5, 5000.0),
                      st.integers(0, 2**32 - 1)))
@example(case=LONG_DOMAIN)
@example(case=Z_ZERO_CELL)
@example(case=NO_LINEAR_CELL)
@example(case=ALL_LINEAR_CELLS)
def test_kernel_rhs_and_rk4_are_bitwise_the_allocating_pass(case):
    y, h = case
    lam = cumulative_flow_values(y[2], h)
    with np.errstate(all="ignore"):
        assert bits(kernel_pair_arrays(y[0], lam)) == bits(ref_sweeps(y[0], ref_geometry(lam)))
        assert bits(_rhs_arrays(y, h)) == bits(ref_rhs(y, h))
        new = old = y
        for _ in range(30):
            new = _rk4(lambda z, stage: _rhs_arrays(z, h), new, 1e-3)
            old = ref_rk4(lambda z, stage: ref_rhs(z, h), old, 1e-3)
        assert bits(new) == bits(old)
