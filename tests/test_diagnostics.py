import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import fwsolver.flowmap
from fwsolver.flowmap import _pull_back, reconstruct
from fwsolver.grid import Grid, GridFunction, _holder, holder_seminorm, sup_norm
from fwsolver.kernels import cumulative_flow_values, green_derivative, kernel_pair_direct
from fwsolver.lagrangian import SolverConfig, Trajectory, _rk4, ball_geometry, integrate
from fwsolver.diagnostics import (_upwind_flux_derivative, conserved,
                                  continuity_experiment, diagnostics_series, eulerian_oracle,
                                  pde_residual, peakon, peakon_residual, wave_breaking_probe,
                                  write_series_csv)
from fwsolver.profiles import gaussian, sech2


def zeros(grid):
    return GridFunction(grid, np.zeros(grid.n_points))


# ---------------------------------------------------------------------------
# conserved integrals
# ---------------------------------------------------------------------------

def test_conserved_zero():
    tri = conserved(zeros(Grid(10.0, 101)))
    assert tri.e1 == 0.0 and tri.e2 == 0.0 and tri.e3 == 0.0


def test_conserved_gaussian_closed_forms():
    u = gaussian(Grid(15.0, 3001), a=1.0, sigma=1.0)
    tri = conserved(u)
    assert tri.e1 == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert tri.e2 == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)
    # nonlocal term of e3 cross-checked against the quadratic-cost oracle path
    ones = np.ones(u.grid.n_points)
    K_direct = kernel_pair_direct(u.values, cumulative_flow_values(ones, u.grid.h))[1]
    from fwsolver.grid import quadrature
    e3_direct = quadrature(GridFunction(u.grid, u.values * K_direct
                                        - 0.5 * u.values ** 3))
    assert tri.e3 == pytest.approx(e3_direct, rel=1e-12)


def test_conserved_peaked_profile():
    u = peakon(0.0, Grid(40.0, 48001))
    tri = conserved(u)
    assert tri.e1 == pytest.approx(32.0 / 9.0, abs=1e-6)
    assert tri.e2 == pytest.approx(128.0 / 81.0, abs=1e-6)


# ---------------------------------------------------------------------------
# traveling-wave reference
# ---------------------------------------------------------------------------

def test_peakon_crest_value_and_speed():
    g = Grid(40.0, 4001)
    p0 = peakon(0.0, g)
    assert p0.values[2000] == pytest.approx(8.0 / 9.0, abs=0)
    p3 = peakon(3.0, g)
    crest = g.x[np.argmax(p3.values)]
    assert crest == pytest.approx(4.0, abs=g.h / 2)


def test_peakon_translation_symmetry():
    g = Grid(40.0, 4001)  # h = 0.02 divides the shift 4.0 exactly
    p0 = peakon(0.0, g).values
    p3 = peakon(3.0, g).values
    shift = int(round(4.0 / g.h))
    assert np.allclose(p3[shift:], p0[:-shift], rtol=0, atol=1e-15)


def test_peakon_support_guard():
    with pytest.raises(ValueError, match="boundary"):
        peakon(30.0, Grid(40.0, 1001))


def test_peakon_residual_isolates_kernel_error():
    # crest on a node: cells never straddle the corner, so the kernel
    # quadrature is exact for the piecewise-exponential profile
    assert peakon_residual(0.0, Grid(40.0, 4001)) <= 1e-10
    assert peakon_residual(3.0, Grid(40.0, 4001)) <= 1e-10


def test_peakon_residual_degrades_for_offnode_crest():
    g = Grid(40.0, 4001)
    on_node = peakon_residual(0.0, g)
    off_node = peakon_residual(0.0075, g)  # crest at h/2
    assert off_node >= 100.0 * max(on_node, 1e-14)  # corner inside a cell hurts
    assert off_node <= 1e-3                          # but stays quadrature-small


# ---------------------------------------------------------------------------
# pde residual
# ---------------------------------------------------------------------------

def test_pde_residual_zero_solution():
    grid = Grid(10.0, 201)
    states = integrate(zeros(grid), SolverConfig(grid=grid)).states
    assert pde_residual(states[9:12]) == 0.0


def test_pde_residual_needs_interior_time():
    # the middle of exactly three equispaced levels: an end level has no
    # neighbour on one side
    grid = Grid(10.0, 201)
    states = integrate(zeros(grid), SolverConfig(grid=grid)).states
    for window in (states[:2], states[-2:], states[:4]):
        with pytest.raises(ValueError, match="values to unpack"):
            pde_residual(window)
    with pytest.raises(ValueError, match="not equispaced"):
        pde_residual([states[0], states[1], states[3]])


# ---------------------------------------------------------------------------
# physical-space oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_data():
    grid = Grid(10.0, 201)
    # the steps SolverConfig(grid=grid) resolves to: 200 of the lifespan 9/110
    u = eulerian_oracle(zeros(grid), ball_geometry(zeros(grid)).lifespan, 200)
    assert u.grid == grid and np.all(u.values == 0.0)
    with pytest.raises(ValueError, match="at least one step"):
        eulerian_oracle(zeros(grid), 0.1, 0)


def upwind_by_index(u, h):
    """The upwind difference as index arrays into the padded flux, the
    reference for _upwind_flux_derivative's slices."""
    fe = np.concatenate([[0.0, 0.0], 0.75 * u * u, [0.0, 0.0]])
    i = np.arange(u.size) + 2
    backward = (3.0 * fe[i] - 4.0 * fe[i - 1] + fe[i - 2]) / (2.0 * h)
    forward = (-3.0 * fe[i] + 4.0 * fe[i + 1] - fe[i + 2]) / (2.0 * h)
    return np.where(u >= 0.0, backward, forward)


@pytest.mark.parametrize("n", [3, 4, 5, 1001])
def test_upwind_flux_derivative_is_the_index_array_form_bitwise(n):
    rng = np.random.default_rng(n)
    u = rng.normal(size=n)
    u[rng.random(n) < 0.3] = 0.0
    u[1], u[-1] = 0.0, -0.0  # exact zeros take the backward difference
    h = 20.0 / (n - 1)
    got = _upwind_flux_derivative(u, h)
    assert got.tobytes() == upwind_by_index(u, h).tobytes()


def test_oracle_cfl_guard():
    grid = Grid(10.0, 201)  # h = 0.1
    u0 = gaussian(grid, a=2.0)
    with pytest.raises(ValueError, match="CFL"):
        eulerian_oracle(u0, 0.1, 2)


def test_oracle_cfl_guard_checks_the_step_it_takes():
    # one step to t_end = 0.045 is a step of 0.045, outside the limit 0.0333
    grid = Grid(10.0, 201)
    u0 = gaussian(grid, a=2.0)
    with pytest.raises(ValueError, match="dt = 0.045 violates the CFL limit 0.03333"):
        eulerian_oracle(u0, 0.045, 1)


def test_oracle_agrees_with_characteristic_route():
    grid = Grid(10.0, 1001)
    u0 = gaussian(grid, a=0.1)
    geo = ball_geometry(u0)
    t_end = geo.lifespan / 2
    cfg = SolverConfig(grid=grid, dt=t_end / 100, t_end=t_end, store_every=100)
    lag = integrate(u0, cfg, geo)
    u_lag = reconstruct(lag.final).u
    u_eul = eulerian_oracle(u0, t_end, 100)
    assert np.max(np.abs(u_lag.values - u_eul.values)) <= 1e-4


def test_oracle_is_a_plain_rk4_march_bitwise():
    grid = Grid(10.0, 401)
    u0 = gaussian(grid, a=0.3)
    t_end, steps = 0.05, 7

    def rhs(u, _stage):
        return -upwind_by_index(u, grid.h) + green_derivative(GridFunction(grid, u)).values

    u = u0.values
    for _ in range(steps):
        u = _rk4(rhs, u, t_end / steps)
    assert eulerian_oracle(u0, t_end, steps).values.tobytes() == u.tobytes()


# ---------------------------------------------------------------------------
# continuity experiment
# ---------------------------------------------------------------------------

def _continuity_setup(n=401):
    grid = Grid(10.0, n)
    u0 = gaussian(grid, a=0.1)
    geo = ball_geometry(u0)
    cfg = SolverConfig(grid=grid, dt=geo.lifespan / 50, store_every=10)
    pert = GridFunction(grid, np.exp(-((grid.x - 1.0) ** 2)))
    return u0, pert, cfg


def test_continuity_report_is_the_level_by_level_computation_bitwise():
    u0, pert, cfg = _continuity_setup()
    eps, alphas = [1e-3, 2e-3], [0.0, 0.25, 0.5]
    report = continuity_experiment(u0, pert, eps, alphas, cfg)
    geo = ball_geometry(u0, cfg.r0)

    def levels(data):
        return [reconstruct(s) for s in integrate(data, cfg, geo).states]

    base = levels(u0)
    for j, e in enumerate(eps):
        pairs = list(zip(levels(GridFunction(u0.grid, u0.values + e * pert.values)), base))
        du = [GridFunction(u0.grid, sp.u.values - sb.u.values) for sp, sb in pairs]
        dux = [GridFunction(u0.grid, sp.ux.values - sb.ux.values) for sp, sb in pairs]
        assert len(du) == 6
        assert report.c0_sol_dist[j] == max(sup_norm(d) for d in du)
        assert report.c1_sol_dist[j] == max(sup_norm(d) + sup_norm(dx) for d, dx in zip(du, dux))
        for a in alphas:
            assert report.holder_sol_dist[a][j] == max(holder_seminorm(d, a) for d in du)


def whole_run_continuity(u0, perturbation, eps_values, alphas, config) -> dict:
    """The fields of continuity_experiment's report from whole runs: each run
    held whole from integrate, its pull-back stacked as (level, u|ux, node)
    and differenced against the base run's."""
    geo = ball_geometry(u0, config.r0)

    def solve(data):
        traj = integrate(GridFunction(u0.grid, data), config, geo)
        assert traj.breach is None
        return np.array([(s.u.values, s.ux.values) for s in _pull_back(traj.states)])

    base = solve(u0.values)
    c0_sol, c1_sol, holder = [], [], {a: [] for a in alphas}
    for eps in eps_values:
        diff = solve(u0.values + eps * perturbation.values) - base
        sup = np.max(np.abs(diff), axis=2)
        c0_sol.append(float(np.max(sup[:, 0])))
        c1_sol.append(float(np.max(sup[:, 0] + sup[:, 1])))
        for a, value in zip(alphas, _holder(diff[:, 0], u0.grid.h, alphas)):
            holder[a].append(value)
    c0_data = [abs(eps) * sup_norm(perturbation) for eps in eps_values]
    ratios = [s / d for s, d in zip(c0_sol, c0_data) if d > 0]
    fitted = {}
    for a in alphas:
        d, hv = zip(*[(d, hv) for d, hv in zip(c0_data, holder[a]) if d > 0 and hv > 0])
        fitted[a] = float(np.polyfit(np.log(d), np.log(hv), 1)[0])
    return dict(eps_values=eps_values, c0_data_dist=c0_data, c0_sol_dist=c0_sol,
                c1_sol_dist=c1_sol, holder_sol_dist=holder, fitted_exponent=fitted,
                lipschitz_ratio_max=max(ratios), lipschitz_ratios=ratios)


@pytest.mark.parametrize("store_every", [1, 2])
def test_continuity_streams_the_whole_run_report_bitwise(store_every):
    # a perturbation that changes sign, and a negative eps, so the differences
    # from the base run take both signs
    grid = Grid(10.0, 401)
    u0 = gaussian(grid, a=0.1)
    pert = GridFunction(grid, np.sin(2.0 * grid.x) * np.exp(-(grid.x ** 2)))
    cfg = SolverConfig(grid=grid, store_every=store_every)
    eps, alphas = [1e-2, -3e-3, 1e-3, 3e-4], [0.0, 0.25, 0.5]
    report = continuity_experiment(u0, pert, eps, alphas, cfg)
    assert asdict(report) == whole_run_continuity(u0, pert, eps, alphas, cfg)


def test_continuity_holds_no_perturbed_run():
    # 200 steps of T/200, every level stored: a perturbed run held whole
    # would add its 201 (4, n) states and its (201, 2, n) pull-back to the
    # base run's pull-back; the streamed runs add one (201, n) buffer of u
    # differences, and _holder's two (201, n) temporaries
    u0, pert, _ = _continuity_setup()
    cfg = SolverConfig(grid=u0.grid, dt=ball_geometry(u0).lifespan / 200)
    level_bytes = 201 * u0.grid.n_points * 8  # one double per level and node

    def peak():
        tracemalloc.start()
        try:
            continuity_experiment(u0, pert, [1e-3, 2e-3], [0.5], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # the first run also allocates lazy imports and caches
    assert peak() < 7 * level_bytes


def test_continuity_zero_perturbation():
    # a zero eps moves nothing and is left out of the ratios and the fits,
    # which need two or more nonzero data distances |eps| sup|perturbation|
    u0, pert, cfg = _continuity_setup()
    report = continuity_experiment(u0, pert, [0.0, 1e-3, 2e-3], [0.5], cfg)
    assert report.c0_data_dist[0] == 0.0 and report.c0_sol_dist[0] == 0.0
    assert len(report.lipschitz_ratios) == 2
    zero = GridFunction(u0.grid, np.zeros(u0.grid.n_points))
    for eps, p in (([0.0], pert), ([0.0, 1e-3], pert), ([1e-3, 2e-3], zero)):
        with pytest.raises(ValueError, match="two or more nonzero data distances"):
            continuity_experiment(u0, p, eps, [0.5], cfg)
    # eps * perturbation below the rounding of u0: every run is the base run
    with pytest.raises(ValueError, match="no exponent can be fitted"):
        continuity_experiment(u0, pert, [1e-30, 2e-30], [0.5], cfg)


def test_continuity_linear_response_doubles():
    u0, pert, cfg = _continuity_setup()
    report = continuity_experiment(u0, pert, [1e-3, 2e-3], [0.5], cfg)
    ratio = report.c0_sol_dist[1] / report.c0_sol_dist[0]
    assert 1.8 <= ratio <= 2.2


def test_continuity_rejects_ball_escape():
    u0, pert, cfg = _continuity_setup()
    with pytest.raises(ValueError, match="ball"):
        continuity_experiment(u0, pert, [1.0], [0.5], cfg)


def test_continuity_rejects_bad_alpha():
    u0, pert, cfg = _continuity_setup()
    with pytest.raises(ValueError, match="alpha"):
        continuity_experiment(u0, pert, [1e-3], [1.0], cfg)


def test_continuity_report_serializes(tmp_path):
    u0, pert, cfg = _continuity_setup()
    report = continuity_experiment(u0, pert, [1e-3, 2e-3], [0.0, 0.5], cfg)
    text = report.to_json()
    import json
    payload = json.loads(text)
    assert payload["eps_values"] == [1e-3, 2e-3]
    assert "0.5" in payload["holder_sol_dist"]


# ---------------------------------------------------------------------------
# wave breaking
# ---------------------------------------------------------------------------

def test_breaking_zero_data_none():
    grid = Grid(10.0, 201)
    cfg = SolverConfig(grid=grid, dt=1e-2, guard_mode="warn", store_every=100)
    traj = wave_breaking_probe(zeros(grid), cfg, t_max=0.5)
    assert traj.breach is None and len(traj.states) == 1 and traj.final.t == 0.5
    assert float(np.min(traj.final.y[2])) == pytest.approx(1.0)


def test_breaking_requires_warn_mode():
    grid = Grid(10.0, 201)
    cfg = SolverConfig(grid=grid, guard_mode="enforce")
    with pytest.raises(ValueError, match="warn"):
        wave_breaking_probe(zeros(grid), cfg, t_max=0.5)


def test_breaking_rejects_a_set_t_end():
    # t_max is the probe's horizon, so a t_end would be silently overwritten
    grid = Grid(10.0, 201)
    cfg = SolverConfig(grid=grid, t_end=0.3, guard_mode="warn")
    with pytest.raises(ValueError, match="t_end must be unset, got 0.3"):
        wave_breaking_probe(zeros(grid), cfg, t_max=0.5)


def test_breaking_small_data_survives_past_guaranteed_lifespan():
    grid = Grid(15.0, 601)
    u0 = gaussian(grid, a=0.05)
    geo = ball_geometry(u0)
    cfg = SolverConfig(grid=grid, dt=geo.lifespan / 40, guard_mode="warn")
    traj = wave_breaking_probe(u0, cfg, t_max=5.0 * geo.lifespan)
    assert traj.breach is None


def test_breaking_time_shrinks_with_steepness():
    grid = Grid(20.0, 801)
    cfg = SolverConfig(grid=grid, dt=2e-3, guard_mode="warn")
    times = []
    for a in (1.5, 2.0):
        traj = wave_breaking_probe(sech2(grid, a=a, k=1.0), cfg, t_max=1.5)
        assert isinstance(traj, Trajectory)
        assert traj.breach is not None
        assert len(traj.states) == 1 and traj.final.t == traj.breach.t  # the last valid level
        times.append(traj.breach.t)
    assert times[1] < times[0]


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_diagnostics_series_and_csv(tmp_path):
    grid = Grid(10.0, 401)
    u0 = gaussian(grid, a=0.1)
    traj = integrate(u0, SolverConfig(grid=grid, store_every=2))
    series = diagnostics_series(traj.states)
    n_rows = len(series["t"])
    assert n_rows == len(traj.states)
    assert math.isnan(series["residual"][0]) and math.isnan(series["residual"][-1])
    assert all(not math.isnan(v) for v in series["residual"][1:-1])
    assert series["min_q"][0] == 1.0
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,e1,e2,e3,min_q,sup_u,sup_ux,residual"
    assert len(path.read_text().splitlines()) == n_rows + 1


def test_series_residual_is_pde_residual_bitwise():
    grid = Grid(10.0, 401)
    traj = integrate(gaussian(grid, a=0.1), SolverConfig(grid=grid, store_every=2))
    series = diagnostics_series(traj.states)
    assert len(traj.states) > 3
    for i in range(1, len(traj.states) - 1):
        assert series["residual"][i] == pde_residual(traj.states[i - 1:i + 2])
    # the series takes each level's integrals from conserved() itself
    for i, state in enumerate(traj.states):
        tri = conserved(reconstruct(state).u)
        assert (series["e1"][i], series["e2"][i], series["e3"][i]) == tri


def test_series_builds_no_c2_interpolant_for_two_states(monkeypatch):
    # each state gets the one Hermite interpolant; the residual needs an interior state
    grid = Grid(10.0, 201)
    traj = integrate(gaussian(grid, a=0.1), SolverConfig(grid=grid, store_every=10 ** 6))
    assert len(traj.states) == 2
    columns, real = [], fwsolver.flowmap._slopes
    monkeypatch.setattr(fwsolver.flowmap, "_slopes",
                        lambda x, y: columns.append(y.shape[1]) or real(x, y))
    residual = diagnostics_series(traj.states)["residual"]
    assert columns == [2, 2] and all(math.isnan(r) for r in residual)


def test_series_residual_nan_where_breach_ends_off_stride():
    # levels every 0.1; the breach at t=0.38 is kept as an off-stride last level
    grid = Grid(20.0, 401)
    cfg = SolverConfig(grid=grid, dt=2e-3, t_end=1.0, guard_mode="warn", store_every=50)
    traj = integrate(sech2(grid, a=2.0, k=1.0), cfg)
    assert traj.breach is not None and len(traj.states) == 5
    residual = diagnostics_series(traj.states)["residual"]
    assert all(residual[i] == pde_residual(traj.states[i - 1:i + 2]) for i in (1, 2))
    with pytest.raises(ValueError, match="not equispaced"):
        pde_residual(traj.states[2:5])
    assert math.isnan(residual[3]) and math.isnan(residual[4])
