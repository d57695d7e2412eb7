import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwsolver.grid import Grid, GridFunction, _hermite, _slopes, derivative, interpolate_many
from fwsolver.lagrangian import (LagrangianState, SolverConfig, ball_geometry,
                                 initial_state, integrate)
from fwsolver.flowmap import (FlowMap, FlowMapError, _pull_back, flow_map,
                              inverse_slope_bounds, invert_many,
                              map_slopes, reconstruct, slope_bounds)
from fwsolver.profiles import gaussian


def zeros(grid):
    return GridFunction(grid, np.zeros(grid.n_points))


def rest_state(grid, t=0.0):
    n = grid.n_points
    return LagrangianState(t, grid, np.stack([np.zeros(n), np.zeros(n), np.ones(n),
                                              np.zeros(n)]))


def gaussian_run(n=801, a=0.1, store_every=20):
    grid = Grid(10.0, n)
    u0 = gaussian(grid, a=a)
    geo = ball_geometry(u0)
    traj = integrate(u0, SolverConfig(grid=grid, store_every=store_every), geo)
    assert traj.breach is None
    return traj, geo


# ---------------------------------------------------------------------------
# map assembly and inversion
# ---------------------------------------------------------------------------

def test_flow_map_identity_at_time_zero():
    grid = Grid(10.0, 101)
    fmap = flow_map(rest_state(grid))
    assert np.array_equal(fmap.positions, grid.x)
    assert np.all(map_slopes(fmap) == pytest.approx(1.0))


def test_flow_map_rejects_nonmonotone():
    grid = Grid(1.0, 11)
    disp = np.zeros(11)
    disp[5] = -0.5  # forces a decreasing pair of samples
    st = LagrangianState(0.1, grid, np.stack([np.zeros(11), np.zeros(11), np.ones(11),
                                              disp]))
    with pytest.raises(FlowMapError, match="increasing"):
        flow_map(st)


def test_invert_identity_and_nodes_exact():
    grid = Grid(10.0, 101)
    fmap = flow_map(rest_state(grid))
    nodes = grid.x[[0, 31, 100]]
    labels, inside = invert_many(fmap, np.append(nodes, 0.123))
    assert np.all(inside)
    assert np.array_equal(labels[:3], nodes)  # bitwise
    assert labels[3] == pytest.approx(0.123, abs=1e-15)


def test_invert_affine_map_exactly():
    grid = Grid(10.0, 101)
    fmap = FlowMap(grid, 1.1 * grid.x, t=0.05)
    xs = np.array([-10.9, -3.3, 0.0, 7.77])
    labels, inside = invert_many(fmap, xs)
    assert np.all(inside)
    assert labels == pytest.approx(xs / 1.1, abs=1e-13)


def test_invert_round_trip_everywhere():
    traj, _ = gaussian_run()
    fmap = flow_map(traj.final)
    # node round trip is exact
    labels, inside = invert_many(fmap, fmap.positions)
    assert np.all(inside)
    assert np.array_equal(labels, fmap.grid.x)
    # off-node round trip is second order
    xs = np.linspace(-8, 8, 333)
    labels, inside = invert_many(fmap, xs)
    assert np.all(inside)
    back = np.interp(labels, fmap.grid.x, fmap.positions)
    assert np.max(np.abs(back - xs)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=60, unique=True),
       st.floats(0.1, 100.0))
def test_invert_positions_gives_nodes_bitwise(positions, half_width):
    positions = np.sort(positions)
    fmap = FlowMap(Grid(half_width, positions.size), positions, t=0.0)
    labels, inside = invert_many(fmap, fmap.positions)
    assert np.all(inside)
    assert labels.tobytes() == fmap.grid.x.tobytes()


def test_invert_out_of_image():
    grid = Grid(1.0, 11)
    fmap = flow_map(rest_state(grid))
    assert invert_many(fmap, [1.5])[1].tolist() == [False]


# ---------------------------------------------------------------------------
# slope bounds
# ---------------------------------------------------------------------------

def test_slope_bounds_identity_map():
    grid = Grid(10.0, 101)
    geo = ball_geometry(zeros(grid))
    fmap = flow_map(rest_state(grid))
    assert slope_bounds(fmap, geo) == (pytest.approx(1.0), pytest.approx(1.0))
    assert inverse_slope_bounds(fmap, geo) == (pytest.approx(1.0), pytest.approx(1.0))


def test_saturated_map_hits_the_proven_edges():
    grid = Grid(10.0, 1001)
    geo = ball_geometry(gaussian(Grid(10.0, 1001), a=0.1))
    t_sat = 0.09 / geo.r  # r |t| = 9/100
    fmap = FlowMap(grid, (173.0 / 200.0) * grid.x, t_sat)
    smin, smax = slope_bounds(fmap, geo, tol=1e-3)
    assert smin >= 173.0 / 200.0 - 1e-3
    ilo, ihi = inverse_slope_bounds(fmap, geo, tol=1e-3)
    assert 200.0 / 227.0 - 1e-3 <= ilo
    assert ihi <= 200.0 / 173.0 + 1e-3
    assert ihi == pytest.approx(200.0 / 173.0, rel=1e-12)


def test_slope_bounds_violation_reported():
    grid = Grid(10.0, 101)
    geo = ball_geometry(zeros(grid))
    fmap = FlowMap(grid, 1.5 * grid.x, t=0.001)  # slope far beyond 1 + (3/2) r t
    with pytest.raises(FlowMapError, match="band"):
        slope_bounds(fmap, geo, tol=1e-6)


def test_run_slopes_stay_in_band():
    traj, geo = gaussian_run()
    for st in traj.states:
        slope_bounds(flow_map(st), geo, tol=1e-9)
        inverse_slope_bounds(flow_map(st), geo, tol=1e-9)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_time_zero_is_data():
    grid = Grid(10.0, 501)
    u0 = gaussian(grid, a=0.1)
    st = LagrangianState(0.0, grid, np.stack([u0.values, derivative(u0).values,
                                              np.ones(501), np.zeros(501)]))
    snap = reconstruct(st)
    assert np.max(np.abs(snap.u.values - u0.values)) <= 1e-30
    assert np.max(np.abs(snap.ux.values - derivative(u0).values)) <= 1e-30
    assert snap.out_of_image == 0


def test_reconstruct_matches_per_column_interpolants_bitwise():
    # a right-end displacement of 1e-15 rounds the last node's label just
    # past X: the Hermite route extrapolates there, as interpolating each
    # column on its own (the reference here) does
    grid = Grid(10.0, 401)
    x = grid.x
    bump = np.exp(-x ** 2)
    displacement = 0.05 * bump
    displacement[-1] = 1e-15
    st = LagrangianState(0.1, grid, np.stack([bump, -2.0 * x * bump, np.ones(401),
                                              displacement]))
    labels, inside = invert_many(flow_map(st), x)
    assert labels[-1] > grid.half_width and inside.all()
    snap = reconstruct(st)
    for got, column in ((snap.u, st.w), (snap.ux, st.v)):
        y = column.values[:, None]
        expected = _hermite(x, y, _slopes(x, y, True), labels[:, None], True)[:, 0]
        assert np.array_equal(got.values, expected)


def test_reconstruct_zero_solution():
    snap = reconstruct(rest_state(Grid(10.0, 101), t=0.3))
    assert np.all(snap.u.values == 0.0) and np.all(snap.ux.values == 0.0)


def test_reconstruct_gaussian_tail_warns_nothing():
    # the tail's values underflow to subnormals and zeros; pulling them back warns nothing
    grid = Grid(40.0, 4001)
    state = initial_state(gaussian(grid), SolverConfig(grid=grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reconstruct(state)


def test_reconstruct_two_slope_routes_agree():
    # carried slope pulled back vs derivative of the reconstruction
    gaps = []
    for n in (501, 1001):
        grid = Grid(10.0, n)
        u0 = gaussian(grid, a=0.1)
        geo = ball_geometry(u0)
        traj = integrate(u0, SolverConfig(grid=grid, store_every=1000), geo)
        snap = reconstruct(traj.final)
        alt = derivative(snap.u).values
        interior = np.abs(grid.x) <= 8.0
        gaps.append(np.max(np.abs(snap.ux.values[interior] - alt[interior])))
    assert gaps[0] <= 1e-3
    assert gaps[1] <= 0.7 * gaps[0]  # first-order shrink near the image edges


def test_stretch_matches_map_slope():
    traj, _ = gaussian_run(n=1601)
    st = traj.final
    slopes = map_slopes(flow_map(st))
    q_mid = 0.5 * (st.q.values[:-1] + st.q.values[1:])
    assert np.max(np.abs(slopes - q_mid)) <= 5e-6  # O(dt^4 + h^2)


def test_reconstruct_smooth_variant_close_to_monotone():
    # reconstruct against the shape-preserving composition of the same state
    traj, _ = gaussian_run()
    snap = reconstruct(traj.final)
    labels, _ = invert_many(flow_map(traj.final), snap.u.grid.x)
    monotone, _ = interpolate_many(traj.final.w, labels)
    assert np.max(np.abs(snap.u.values - monotone)) <= 1e-4


def test_reconstruct_beats_the_monotone_composition_against_a_refined_run():
    # u at T on n = 401 against the n = 3201 run at the shared nodes, both in
    # the same 200 steps: PCHIP's limiter costs accuracy at the crest
    def final(n):
        grid = Grid(10.0, n)
        u0 = gaussian(grid, a=0.1)
        geo = ball_geometry(u0)
        cfg = SolverConfig(grid=grid, dt=geo.lifespan / 200, t_end=geo.lifespan,
                           store_every=10 ** 6)
        return integrate(u0, cfg, geo).final

    coarse, reference = final(401), reconstruct(final(3201)).u.values[::8]
    labels, _ = invert_many(flow_map(coarse), coarse.grid.x)
    monotone, _ = interpolate_many(coarse.w, labels)
    error = np.max(np.abs(reconstruct(coarse).u.values - reference))
    assert error < np.max(np.abs(monotone - reference)) / 10


def test_pull_back_equals_reconstruct_bitwise():
    # one inversion per state, each snapshot equal to its own reconstruct
    traj, _ = gaussian_run(n=401, store_every=40)
    states = traj.states
    assert len(states) >= 5
    pulled = list(_pull_back(states))
    assert len(pulled) == len(states)
    for state, snap in zip(states, pulled):
        alone = reconstruct(state)
        assert snap.t == alone.t and snap.out_of_image == alone.out_of_image
        assert snap.u.values.tobytes() == alone.u.values.tobytes()
        assert snap.ux.values.tobytes() == alone.ux.values.tobytes()
