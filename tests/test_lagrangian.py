import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fwsolver.lagrangian
from fwsolver.grid import Grid, GridFunction, sup_norm
from fwsolver.kernels import DEFAULT_Q_FLOOR, MonotonicityError, green_derivative
from fwsolver.lagrangian import (GuardBreach, InitialDataError, LagrangianState,
                                 SolverConfig, _rhs_arrays, _rk4, _rk4_arrays, ball_geometry,
                                 chain_rule_defect, initial_state, integrate, state_norm, step)
from fwsolver.profiles import gaussian, peakon_profile, sech2


def zeros(grid):
    return GridFunction(grid, np.zeros(grid.n_points))


def make_state(grid, w=None, v=None, q=None):
    n = grid.n_points
    return LagrangianState(0.0, grid, np.stack([
        w.values if w is not None else np.zeros(n),
        v.values if v is not None else np.zeros(n),
        q.values if q is not None else np.ones(n),
        np.zeros(n),
    ]))


def tendency(state):
    """Packed ``(w, v, q, displacement)`` time derivative of a state."""
    return _rhs_arrays(state.y, state.grid.h, DEFAULT_Q_FLOOR)


# ---------------------------------------------------------------------------
# ball geometry
# ---------------------------------------------------------------------------

def test_ball_geometry_zero_data():
    geo = ball_geometry(zeros(Grid(10.0, 101)), r0=0.1)
    assert geo.state_norm == 1.0
    assert geo.r == pytest.approx(1.1, abs=0)
    assert geo.lipschitz_const == pytest.approx(55.0 / 9.0, rel=1e-15)
    assert abs(geo.lifespan - 9.0 / 110.0) <= 1e-16
    assert abs(geo.lifespan - 1.0 / (2.0 * geo.lipschitz_const)) <= 1e-16
    assert geo.lifespan_naive == math.inf


def test_ball_geometry_rejects_radius_at_bound():
    z = zeros(Grid(10.0, 101))
    for r0 in (1.0 / 9.0, 0.2, 0.0, -0.1):
        with pytest.raises(ValueError):
            ball_geometry(z, r0)


def test_ball_geometry_gaussian_cross_check():
    u0 = gaussian(Grid(10.0, 4001), a=0.1)
    geo = ball_geometry(u0, r0=0.1)
    du = 0.1 * math.sqrt(2.0 / math.e)
    expected_norm = (0.1 + du) + du + 1.0
    assert geo.state_norm == pytest.approx(expected_norm, rel=1e-4)
    assert geo.lifespan == pytest.approx(9.0 / (100.0 * (0.1 + expected_norm)), rel=1e-4)
    assert geo.lifespan < geo.lifespan_naive  # enforced bound is the smaller one


# ---------------------------------------------------------------------------
# initial state
# ---------------------------------------------------------------------------

def test_initial_state_zero():
    grid = Grid(10.0, 201)
    cfg = SolverConfig(grid=grid)
    st = initial_state(zeros(grid), cfg)
    assert np.all(st.w.values == 0) and np.all(st.v.values == 0)
    assert np.all(st.q.values == 1) and np.all(st.displacement.values == 0)
    assert st.t == 0.0


def test_initial_state_gaussian_slope():
    grid = Grid(10.0, 2001)
    cfg = SolverConfig(grid=grid)
    st = initial_state(gaussian(grid, a=0.1), cfg)
    exact = -0.2 * grid.x * np.exp(-grid.x ** 2)
    assert np.max(np.abs(st.v.values - exact)) <= 1e-5  # O(h^2)


def test_initial_state_rejects_corner_profile():
    grid = Grid(30.0, 3001)
    cfg = SolverConfig(grid=grid)
    with pytest.raises(InitialDataError, match="not smooth"):
        initial_state(peakon_profile(grid), cfg)


def test_initial_state_corner_profile_warns_in_warn_mode():
    grid = Grid(30.0, 3001)
    cfg = SolverConfig(grid=grid, guard_mode="warn")
    with pytest.warns(UserWarning, match="not smooth"):
        initial_state(peakon_profile(grid), cfg)


def test_initial_state_rejects_nondecaying():
    grid = Grid(10.0, 501)
    cfg = SolverConfig(grid=grid)
    with pytest.raises(InitialDataError, match="decay"):
        initial_state(GridFunction(grid, 0.05 * np.ones(501)), cfg)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40), st.floats(0.5, 50.0),
       st.floats(1e-3, 0.11))
def test_state_norm_of_initial_state_is_ball_state_norm(values, half_width, r0):
    grid = Grid(half_width, len(values))
    u0 = GridFunction(grid, np.asarray(values))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rough or non-decaying data only warns
        state = initial_state(u0, SolverConfig(grid=grid, r0=r0, guard_mode="warn"))
    assert state_norm(state) == ball_geometry(u0, r0).state_norm


# ---------------------------------------------------------------------------
# packed state
# ---------------------------------------------------------------------------

finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 30).flatmap(lambda n: st.lists(finite, min_size=4 * n, max_size=4 * n)),
       st.floats(0.5, 50.0))
def test_state_properties_are_the_rows_of_y_bitwise(values, half_width):
    y = np.asarray(values).reshape(4, -1)
    grid = Grid(half_width, y.shape[1])
    state = LagrangianState(0.25, grid, y)
    for i, row in enumerate((state.w, state.v, state.q, state.displacement)):
        assert row.grid == grid and row.values.tobytes() == y[i].tobytes()
    with pytest.raises(AttributeError):
        state.q = state.w


@pytest.mark.parametrize("shape", [(3, 11), (5, 11), (4, 10), (4, 12), (44,), (11, 4),
                                   (4, 11, 1)])
def test_state_rejects_wrong_shape_or_length(shape):
    with pytest.raises(ValueError, match="shape"):
        LagrangianState(0.0, Grid(5.0, 11), np.zeros(shape))


@pytest.mark.parametrize("as_input", [lambda y: y.astype(np.int64),
                                      lambda y: y.astype(np.float32), np.ndarray.tolist],
                         ids=["int64", "float32", "list"])
def test_state_stores_y_as_float64(as_input):
    # integer, single-precision and list rows are stored as float64 (float64
    # input is kept as it is), so a step from them matches, bit for bit, a
    # step from the float64 array with the same small-integer values
    grid = Grid(5.0, 11)
    y = np.stack([np.arange(11) % 3, np.zeros(11), np.full(11, 2), np.zeros(11)]).astype(float)
    state = LagrangianState(0.0, grid, as_input(y))
    assert state.y.dtype == np.float64 and LagrangianState(0.0, grid, y).y is y
    assert step(state, 0.01).y.tobytes() == step(LagrangianState(0.0, grid, y), 0.01).y.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_state_rejects_any_non_finite_entry(row, node, bad):
    y = np.ones((4, 11))
    y[row, node] = bad
    with pytest.raises(ValueError, match="finite"):
        LagrangianState(0.0, Grid(5.0, 11), y)


def test_trajectory_times_are_the_state_times():
    grid = Grid(10.0, 201)
    traj = integrate(gaussian(grid, a=0.1), SolverConfig(grid=grid, store_every=7))
    assert traj.breach is None and len(traj.states) > 3
    assert traj.times == [s.t for s in traj.states]
    assert np.all(np.diff(traj.times) > 0)


@pytest.mark.parametrize("store_every", [1, 1000])
def test_breach_retains_the_last_valid_state_exactly_once(store_every):
    # with store_every=1 the last valid level is already stored when the
    # breach comes; with 1000 it lies off the stride and is appended
    grid = Grid(20.0, 401)
    cfg = SolverConfig(grid=grid, dt=2e-3, t_end=1.0, guard_mode="warn",
                       store_every=store_every)
    traj = integrate(sech2(grid, a=2.0, k=1.0), cfg)
    assert traj.breach is not None
    assert traj.times == [s.t for s in traj.states]
    assert len(set(traj.times)) == len(traj.times)
    assert sum(s is traj.final for s in traj.states) == 1
    if store_every == 1000:
        assert traj.times == [0.0, traj.final.t] and traj.final.t > 0


def panel_switch_jump(y_a, y_b, h):
    """Bound on the jump of the kernel tendency along a step from ``y_a`` to ``y_b``.

    A cell whose endpoint values of ``w`` change from one sign to mixed signs
    (or 0), or back, switches its panel between the exponential fit and the
    linear rule, a jump of at most ``dlam (|w0| + |w1|)`` with
    ``dlam <= h max q``; every node of the tendency weighs a panel by at most 1.
    """
    wa, wb = y_a[0], y_b[0]
    switch = (wa[:-1] * wa[1:] > 0.0) != (wb[:-1] * wb[1:] > 0.0)
    size = np.maximum(np.abs(wa[:-1]) + np.abs(wa[1:]), np.abs(wb[:-1]) + np.abs(wb[1:]))
    return h * max(np.max(y_a[2]), np.max(y_b[2])) * float(np.sum(size[switch]))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.1), st.floats(0.8, 2.0), st.integers(1, 50), st.floats(0.05, 1.0))
@example(a=0.01, sigma=0.8, n_steps=11, fraction=0.17116235821574635)  # w changes sign
def test_step_forward_then_back_returns_to_start(a, sigma, n_steps, fraction):
    # RK4 is not symmetric, so N steps of dt and N of -dt undo each other only
    # up to the local errors of the 2N steps.  Each step contributes
    # - truncation (L dt)^5 / 120 times the distance from the rest state (the
    #   linear-problem constant; f(rest) = 0, and L = (50/9) r is the
    #   Lipschitz constant on the ball),
    # - a few ulps of |y| of rounding,
    # - |dt| times its panel_switch_jump: the discrete tendency is only
    #   piecewise smooth where w changes sign, as its tails do.
    # An error made at one step grows by at most exp(L |dt|) per later step.
    grid = Grid(10.0, 201)
    u0 = gaussian(grid, a=a, sigma=sigma)
    geo = ball_geometry(u0)
    state0 = initial_state(u0, SolverConfig(grid=grid))
    dt = fraction * geo.lifespan / n_steps
    lip_dt = geo.lipschitz_const * dt
    smooth = (lip_dt ** 5 / 120 * np.max(np.abs(state0.y - make_state(grid).y))
              + 8 * np.finfo(float).eps * np.max(np.abs(state0.y)))
    state, local = state0, 0.0
    for sign in (1.0, -1.0):
        for _ in range(n_steps):
            new = step(state, sign * dt)
            local += smooth + dt * panel_switch_jump(state.y, new.y, grid.h)
            state = new
    assert state.t == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(state.y - state0.y)) <= local * math.exp(2 * n_steps * lip_dt)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rest_state_is_equilibrium():
    assert np.all(tendency(make_state(Grid(10.0, 301))) == 0.0)


def test_rhs_flat_profile_decouples():
    grid = Grid(10.0, 301)
    v = GridFunction(grid, 0.3 * np.ones(301))
    ten_w, ten_v, ten_q, _ = tendency(make_state(grid, v=v))
    assert np.all(ten_w == 0.0)
    assert np.allclose(ten_v, -1.5 * 0.09, rtol=0, atol=1e-15)
    assert np.allclose(ten_q, 1.5 * 0.3, rtol=0, atol=1e-15)


def test_rhs_initial_wave_tendency_is_kernel_derivative():
    grid = Grid(10.0, 1001)
    cfg = SolverConfig(grid=grid)
    st = initial_state(gaussian(grid, a=0.1), cfg)
    ten = tendency(st)
    assert np.array_equal(ten[0], green_derivative(st.w).values)
    assert np.allclose(ten[3], 1.5 * st.w.values, atol=0)


def test_rhs_guards_stretch_floor():
    grid = Grid(10.0, 301)
    qv = np.ones(301)
    qv[5] = 0.05
    with pytest.raises(Exception, match="q\\[5\\]"):
        tendency(make_state(grid, q=GridFunction(grid, qv)))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_preserves_equilibrium_exactly():
    st = make_state(Grid(10.0, 201))
    out = step(st, 0.05)
    assert np.all(out.w.values == 0.0) and np.all(out.v.values == 0.0)
    assert np.all(out.q.values == 1.0)
    assert out.t == 0.05


def test_step_local_order_five():
    # one big step vs two half steps on the separable flat-profile system
    grid = Grid(5.0, 101)
    v0, dt = 0.4, 0.1
    st = make_state(grid, v=GridFunction(grid, v0 * np.ones(101)))
    big = step(st, dt)
    half = step(step(st, dt / 2), dt / 2)
    d1 = np.max(np.abs(big.v.values - half.v.values))
    big2 = step(st, dt / 2)
    half2 = step(step(st, dt / 4), dt / 4)
    d2 = np.max(np.abs(big2.v.values - half2.v.values))
    assert 20.0 <= d1 / d2 <= 45.0  # local error O(dt^5) gives ratio ~32


def test_flat_profile_closed_form():
    grid = Grid(5.0, 101)
    v0, t_end, n_steps = 0.3, 0.4, 64
    st = make_state(grid, v=GridFunction(grid, v0 * np.ones(101)))
    for _ in range(n_steps):
        st = step(st, t_end / n_steps)
    v_exact = v0 / (1.0 + 1.5 * v0 * t_end)
    q_exact = 1.0 + 1.5 * v0 * t_end
    assert np.max(np.abs(st.v.values - v_exact)) <= 1e-10
    assert np.max(np.abs(st.q.values - q_exact)) <= 1e-10


def test_step_breach_names_stage_and_node():
    grid = Grid(5.0, 101)
    v = GridFunction(grid, -30.0 * np.ones(101))  # collapses q within one step
    st = make_state(grid, v=v)
    with pytest.raises(GuardBreach) as exc:
        step(st, 0.5)
    assert exc.value.stage in ("k1", "k2", "k3", "k4", "post-step")
    assert 0 <= exc.value.node < 101
    assert exc.value.x == grid.x[exc.value.node]


@pytest.mark.parametrize("component, bad, stage, t, value", [
    (2, np.nan, "k1", 0.5, "nan"), (3, np.nan, "post-step", 0.75, "nan"),
    (1, 1e160, "k1", 0.5, "-inf")], ids=["nan-stretch", "nan-displacement", "slope-overflow"])
def test_non_finite_state_breaches_naming_node_and_x(component, bad, stage, t, value):
    # the rest state has zero tendency, so the bad entry is the only thing wrong;
    # a NaN stretch fails the floor test, a NaN displacement only the new state,
    # and a huge slope overflows the k1 slope tendency -(3/2) v^2
    grid = Grid(5.0, 11)
    y = np.stack([np.zeros(11), np.zeros(11), np.ones(11), np.zeros(11)])
    y[component, 7] = bad
    with pytest.raises(GuardBreach, match="^non-finite state") as exc:
        _rk4_arrays(y, 0.5, 0.25, grid, DEFAULT_Q_FLOOR)
    gb = exc.value
    assert (gb.stage, gb.node, gb.x, gb.t) == (stage, 7, grid.x[7], t)
    assert str(gb.value) == value


@pytest.mark.parametrize("err, fields", [
    (GuardBreach("k3", 7, 0.5, 0.25, 0.05, 0.1),
     {"stage": "k3", "node": 7, "x": 0.5, "t": 0.25, "value": 0.05, "floor": 0.1}),
    (GuardBreach("post-step", 2, -1.0, 0.5, math.inf, 0.1),
     {"stage": "post-step", "node": 2, "x": -1.0, "t": 0.5, "value": math.inf, "floor": 0.1}),
    (MonotonicityError(37, 0.05, 0.1), {"index": 37, "value": 0.05, "floor": 0.1}),
], ids=["guard-floor", "guard-non-finite", "monotonicity"])
def test_guard_errors_survive_pickling(err, fields):
    # fw verify runs some checks in a worker process, which sends a breach back pickled
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert vars(back) == fields
    assert str(back) == str(err)


def test_rk4_leaves_y_unwritten_and_returns_a_new_array():
    y = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    y.flags.writeable = False  # any write into y raises
    seen = []

    def f(z, stage):
        seen.append(stage)
        return np.sin(z) - 0.5 * z

    dt = 0.3
    y_new = _rk4(f, y, dt)
    assert seen == ["k1", "k2", "k3", "k4"]
    assert y_new.flags.writeable and not np.shares_memory(y_new, y)
    k1 = f(y, "k1")
    k2 = f(y + 0.5 * dt * k1, "k2")
    k3 = f(y + 0.5 * dt * k2, "k3")
    k4 = f(y + dt * k3, "k4")
    assert np.array_equal(y_new, y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def test_stage_screen_passes_finite_tendencies_whose_sum_overflows(monkeypatch):
    # k1 is finite, but its two entries of 1e308 overflow np.sum; the exact
    # per-node check must then find nothing, and later stages are zero
    grid = Grid(5.0, 11)
    y = np.stack([np.zeros(11), np.zeros(11), np.ones(11), np.zeros(11)])
    calls = []

    def rhs(z, h, q_floor):
        k = np.zeros_like(z)
        if not calls:
            k[3, [2, 5]] = 1e308
        calls.append(z)
        return k

    monkeypatch.setattr(fwsolver.lagrangian, "_rhs_arrays", rhs)
    y_new = _rk4_arrays(y, 0.5, 0.25, grid, DEFAULT_Q_FLOOR)
    assert len(calls) == 4
    assert y_new[3, 2] == y_new[3, 5] == 1e308 * (0.25 / 6.0)
    assert np.count_nonzero(y_new[3]) == 2


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_zero_data_stays_at_rest():
    grid = Grid(10.0, 201)
    traj = integrate(zeros(grid), SolverConfig(grid=grid, store_every=50))
    assert traj.breach is None
    for st in traj.states:
        assert sup_norm(st.w) == 0.0 and sup_norm(st.v) == 0.0
        assert np.all(st.q.values == 1.0)


def test_integrate_ball_confinement_and_stretch_floor():
    grid = Grid(10.0, 801)
    u0 = gaussian(grid, a=0.1)
    geo = ball_geometry(u0)
    traj = integrate(u0, SolverConfig(grid=grid, store_every=20), geo)
    assert traj.breach is None
    assert traj.final.t == pytest.approx(geo.lifespan)
    for st in traj.states:
        assert state_norm(st) <= geo.r + 1e-6
        assert np.min(st.q.values) >= 1.0 - 1.5 * geo.r * abs(st.t) - 1e-6


def test_integrate_enforce_caps_horizon():
    grid = Grid(10.0, 201)
    u0 = gaussian(grid, a=0.1)
    geo = ball_geometry(u0)
    with pytest.raises(InitialDataError, match="lifespan"):
        integrate(u0, SolverConfig(grid=grid, t_end=2 * geo.lifespan))
    # warn mode permits it
    traj = integrate(u0, SolverConfig(grid=grid, t_end=1.5 * geo.lifespan,
                                      guard_mode="warn", store_every=100))
    assert traj.breach is None


def test_integrate_backward_and_round_trip():
    grid = Grid(10.0, 801)
    u0 = gaussian(grid, a=0.1)
    geo = ball_geometry(u0)
    cfg = SolverConfig(grid=grid, t_end=-geo.lifespan, store_every=1000)
    back = integrate(u0, cfg, geo)
    assert back.breach is None
    assert back.final.t == pytest.approx(-geo.lifespan)
    # march the final state forward again; the flow is reversible
    st = back.final
    n_steps = 40
    dt = geo.lifespan / n_steps
    for _ in range(n_steps):
        st = step(st, dt)
    assert np.max(np.abs(st.w.values - u0.values)) <= 1e-6  # O(dt^4 + h^2)


def test_integrate_records_breach_and_keeps_last_state():
    grid = Grid(20.0, 401)
    u0 = sech2(grid, a=2.0, k=1.0)
    cfg = SolverConfig(grid=grid, dt=2e-3, t_end=1.0, guard_mode="warn",
                       store_every=1000)
    traj = integrate(u0, cfg)
    assert traj.breach is not None
    assert 0 < traj.breach.t < 1.0
    assert np.min(traj.final.q.values) > cfg.q_floor  # last stored state valid
    assert abs(traj.breach.x) <= 20.0
    assert traj.breach.x == grid.x[traj.breach.node]


def test_trajectory_state_lookup():
    grid = Grid(10.0, 201)
    u0 = gaussian(grid, a=0.1)
    geo = ball_geometry(u0)
    traj = integrate(u0, SolverConfig(grid=grid, store_every=10), geo)
    mid = traj.state_at(geo.lifespan / 2)
    assert abs(mid.t - geo.lifespan / 2) <= geo.lifespan / 20
    with pytest.raises(KeyError):
        traj.state_at(10.0)


def test_chain_rule_defect_second_order():
    defects = []
    for n in (501, 1001):
        grid = Grid(10.0, n)
        u0 = gaussian(grid, a=0.1)
        geo = ball_geometry(u0)
        cfg = SolverConfig(grid=grid, dt=geo.lifespan / 100, store_every=1000)
        traj = integrate(u0, cfg, geo)
        defects.append(chain_rule_defect(traj.final))
    assert defects[1] <= defects[0] / 3.0  # ~4x per halving


def test_initial_tendency_matches_physical_space_identity():
    # at t = 0 the characteristic tendency of w equals u_t + (3/2) u u_x,
    # with u_t taken from the independent physical-space semidiscretization
    grid = Grid(10.0, 2001)
    cfg = SolverConfig(grid=grid)
    u0 = gaussian(grid, a=0.1)
    st = initial_state(u0, cfg)
    ten = tendency(st)
    from fwsolver.diagnostics import eulerian_oracle
    u_t = (eulerian_oracle(u0, 2e-5, 2).values - u0.values) / 2e-5
    lhs = ten[0]
    rhs_vals = u_t + 1.5 * u0.values * st.v.values
    assert np.max(np.abs(lhs - rhs_vals)) <= 1e-4  # O(h^2) between schemes
