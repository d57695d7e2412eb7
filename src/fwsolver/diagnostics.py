"""Everything that checks the solver against what the analysis guarantees:
conserved integrals, the pointwise PDE residual of reconstructions, an
independent physical-space oracle solver, the exact peaked traveling wave,
perturbation experiments for the data-to-solution map, and the breaking
probe that watches the stretch factor approach zero.
"""

from __future__ import annotations

import json
import math
from collections import deque
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .grid import (Grid, GridFunction, _holder, _trapezoid, derivative_values, quadrature,
                   sup_norm, write_columns)
from .kernels import green_derivative, helmholtz_inverse
from .lagrangian import SolverConfig, Trajectory, _norm, _rk4, ball_geometry, stream_levels
from .flowmap import _pull_back, reconstruct

__all__ = [
    "ConservedTriple",
    "ContinuityReport",
    "conserved",
    "pde_residual",
    "eulerian_oracle",
    "peakon",
    "peakon_residual",
    "continuity_experiment",
    "wave_breaking_probe",
    "diagnostics_series",
    "write_series_csv",
]


class ConservedTriple(NamedTuple):
    """The three invariant integrals monitored along runs.

    ``e3`` is the cubic-corrected quadratic ``int(u * S(u) - u^3/2)`` with
    ``S`` the smoothing kernel; with the quadratic flux coefficient 3/2
    used throughout this solver, that combination (not ``- u^3``) is the
    invariant one, as differentiating along the flow shows.
    """

    e1: float
    e2: float
    e3: float


def conserved(u: GridFunction) -> ConservedTriple:
    """Conserved integrals of a physical-space profile (overflow gives inf,
    without a numpy warning)."""
    v, h = u.values, u.grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        K = helmholtz_inverse(u)
        return ConservedTriple(
            e1=quadrature(u),
            e2=_trapezoid(v ** 2, h),
            e3=_trapezoid(v * K.values - 0.5 * v ** 3, h),
        )


#: pde_residual's sup skips the nodes this close to the domain ends
RESIDUAL_MARGIN = 2.0


def pde_residual(states) -> float:
    """Sup of the evolution-equation residual of the reconstruction at the
    middle of ``states``, three consecutive stored levels.

    The time derivative is a central difference of the outer two
    reconstructed snapshots, the slope comes from the middle one, and the
    nonlocal term is evaluated on the physical grid, so the check shares
    nothing with the characteristic right-hand side.  Snapshots are composed by
    :func:`~fwsolver.flowmap.reconstruct`'s cubic Hermite interpolant
    (fourth-order difference slopes, no limiter): time-differencing a
    shape-preserving interpolant would instead pick up the motion of its
    limiter's kinks through the grid, an O(h) noise floor that has nothing
    to do with the solution.

    ``states`` must be three levels at equispaced times, else ``ValueError``;
    the sup runs over nodes at least ``RESIDUAL_MARGIN`` inside the domain ends.
    """
    return _residual(list(_pull_back(states)))


def _residual(window) -> float:
    """:func:`pde_residual` at the middle of three consecutive snapshots
    (overflow gives inf or nan, without a numpy warning); raises
    ``ValueError`` unless their times are equispaced."""
    sm, s0, sp = window
    dt_m = s0.t - sm.t
    dt_p = sp.t - s0.t
    if not math.isclose(dt_m, dt_p, rel_tol=1e-9):
        raise ValueError("stored times around t are not equispaced")
    u_t = (sp.u.values - sm.u.values) / (dt_p + dt_m)
    with np.errstate(over="ignore", invalid="ignore"):
        nonlocal_term = green_derivative(s0.u).values
    res = u_t + 1.5 * s0.u.values * s0.ux.values - nonlocal_term
    grid = s0.u.grid
    interior = np.abs(grid.x) <= grid.half_width - RESIDUAL_MARGIN
    return float(np.max(np.abs(res[interior])))


# ---------------------------------------------------------------------------
# independent physical-space oracle
# ---------------------------------------------------------------------------

def _upwind_flux_derivative(u: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """Second-order upwind-biased difference of the flux ``(3/4) u^2``.

    Bias follows the local wave speed ``(3/2) u``; the profile is padded
    with zeros, consistent with decaying data.
    """
    f = 0.75 * u * u
    fe = np.concatenate([[0.0, 0.0], f, [0.0, 0.0]])  # fe[2:-2] is f
    backward = (3.0 * fe[2:-2] - 4.0 * fe[1:-3] + fe[:-4]) / (2.0 * h)
    forward = (-3.0 * fe[2:-2] + 4.0 * fe[3:-1] - fe[4:]) / (2.0 * h)
    return np.where(u >= 0.0, backward, forward)


def eulerian_oracle(u0: GridFunction, t_end: float, steps: int) -> GridFunction:
    """Method-of-lines solve of the physical-space equation, for cross-checks;
    returns the solution after ``steps`` equal RK4 steps of ``t_end / steps``.

    Deliberately a different discretization family from the solver:
    upwind-biased flux differences plus the fixed-grid kernel operator.
    Only the RK4 step formula is shared with the solver (and checked on
    its own against the slope ODE's closed form).  Agreement with the
    characteristic route is then evidence of correctness.  Rejects time
    steps that violate the advective CFL limit.
    """
    if steps < 1:
        raise ValueError(f"the oracle needs at least one step, got {steps}")
    grid, h, dt = u0.grid, u0.grid.h, t_end / steps
    speed_scale = 1.5 * sup_norm(u0)
    if speed_scale > 0 and abs(dt) > h / speed_scale:
        raise ValueError(
            f"dt = {abs(dt):.4g} violates the CFL limit {h / speed_scale:.4g} "
            f"for wave speed {speed_scale:.4g}"
        )

    def rhs_arrays(u, _stage):
        kernel_term = green_derivative(GridFunction(grid, u)).values
        return -_upwind_flux_derivative(u, h) + kernel_term

    u = u0.values  # _rk4 returns a new array and never writes its input
    for _ in range(steps):
        u = _rk4(rhs_arrays, u, dt)
    return GridFunction(grid, u)


# ---------------------------------------------------------------------------
# exact peaked traveling wave
# ---------------------------------------------------------------------------

PEAKON_AMPLITUDE = 8.0 / 9.0
PEAKON_SPEED = 4.0 / 3.0

#: the crest must sit this far inside the domain
PEAKON_MARGIN = 5.0


def peakon(t: float, grid: Grid) -> GridFunction:
    """Exact peaked traveling wave ``(8/9) exp(-|x - (4/3) t| / 2)``; at t = 0 the
    ``peakon`` profile, a reference shape whose corner initial data may not have."""
    crest = PEAKON_SPEED * t
    if abs(crest) > grid.half_width - PEAKON_MARGIN:
        raise ValueError(
            f"peak at x={crest:.4g} is closer than {PEAKON_MARGIN} to the boundary "
            f"of [-{grid.half_width}, {grid.half_width}]"
        )
    return GridFunction(grid, PEAKON_AMPLITUDE * np.exp(-0.5 * np.abs(grid.x - crest)))


def peakon_residual(t: float, grid: Grid) -> float:
    """Residual of the exact peaked wave with all local terms analytic.

    The evolution is invariant under ``(x, t, u) -> (x, -t, -u)`` together
    with a sign flip of the kernel term, and the classical peaked wave
    with crest 8/9 and speed 4/3 rides the mirrored orientation: it
    satisfies ``u_t + (3/2) u u_x + green_derivative(u) = 0`` exactly.
    Every term of that identity except the kernel integral is analytic
    here, so this residual isolates the accuracy of
    :func:`green_derivative` on data with a corner, independent of any
    time stepping.  The crest node (where the slope does not exist), its
    two neighbors and the nodes within 10 of the domain ends are skipped.
    """
    x = grid.x
    s = x - PEAKON_SPEED * t
    u = peakon(t, grid)
    env = PEAKON_AMPLITUDE * np.exp(-0.5 * np.abs(s))
    u_t = 0.5 * PEAKON_SPEED * np.sign(s) * env
    u_x = -0.5 * np.sign(s) * env
    res = u_t + 1.5 * u.values * u_x + green_derivative(u).values
    keep = np.abs(x) <= grid.half_width - 10.0
    crest_idx = int(np.argmin(np.abs(s)))
    keep[max(0, crest_idx - 1):crest_idx + 2] = False
    return float(np.max(np.abs(res[keep])))


# ---------------------------------------------------------------------------
# data-to-solution continuity experiment
# ---------------------------------------------------------------------------

@dataclass
class ContinuityReport:
    """Distances between perturbed and base solutions across a sweep of
    perturbation sizes, with the fitted scaling exponents."""

    eps_values: list
    c0_data_dist: list
    c0_sol_dist: list
    c1_sol_dist: list
    holder_sol_dist: dict          # alpha -> list parallel to eps_values
    fitted_exponent: dict          # alpha -> slope of log-log regression
    lipschitz_ratio_max: float
    lipschitz_ratios: list

    def to_json(self) -> str:
        payload = asdict(self)
        for key in ("holder_sol_dist", "fitted_exponent"):
            payload[key] = {str(a): v for a, v in payload[key].items()}
        return json.dumps(payload, indent=2, sort_keys=True)


def continuity_experiment(u0: GridFunction, perturbation: GridFunction,
                          eps_values, alphas, config: SolverConfig) -> ContinuityReport:
    """Solve for the base data and each ``u0 + eps * perturbation``, and
    record sup-over-time solution distances against the data distance.

    All runs share one grid and one horizon: ``config.t_end`` as given
    (past the lifespan only in warn mode) or, if None, the base data's
    guaranteed lifespan; so discretization bias cancels in the differences.
    Each perturbed datum must stay inside the base ball: the perturbation's
    product-space norm times ``eps`` may not exceed the ball radius, and each
    exponent is fitted over two or more distinct nonzero data distances.  A guard
    breach in any run, a floored stretch or a flow map that stops increasing, is
    raised as its :class:`GuardBreach` once that run's valid levels are read.  The
    runs stream, and only the base run's pull-back is held whole.
    """
    alphas = list(alphas)
    for i, a in enumerate(alphas):
        if not (0.0 <= a < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {a}")
        if a in alphas[:i]:
            raise ValueError(f"alpha={a:g} is given twice")
    eps_values = [float(e) for e in eps_values]
    p, h, grid = perturbation.values, perturbation.grid.h, u0.grid
    # the norm of the initial-state difference (w, v, q) = eps (p, p', 0)
    pert_norm = _norm(np.stack([p, derivative_values(p, h), np.zeros_like(p)]), h)
    for eps in eps_values:
        if abs(eps) * pert_norm > config.r0:
            raise ValueError(
                f"eps={eps:g} pushes the data outside the admissible ball: "
                f"eps * perturbation norm = {abs(eps) * pert_norm:.4g} > r0 = {config.r0}"
            )
    c0_data = [abs(eps) * sup_norm(perturbation) for eps in eps_values]
    for i, d in enumerate(c0_data):
        if d > 0 and d in c0_data[:i]:
            raise ValueError(f"eps={eps_values[i]:g} repeats the data distance "
                             f"|eps| sup|perturbation| = {d:g} "
                             f"of eps={eps_values[c0_data.index(d)]:g}")
    if sum(d > 0 for d in c0_data) < 2:
        raise ValueError("fitting the exponents needs two or more nonzero data distances "
                         f"|eps| sup|perturbation|, got {', '.join(f'{d:g}' for d in c0_data)}")

    geometry = ball_geometry(u0, config.r0)

    def snapshots(data):
        # perturbed data lies in the base ball, so the base lifespan applies
        traj, levels = stream_levels(GridFunction(grid, data), config, geometry)
        yield from _pull_back(levels)
        if traj.breach is not None:
            raise traj.breach

    base = np.array([(s.u.values, s.ux.values) for s in snapshots(u0.values)])
    du = np.empty_like(base[:, 0])  # (level, node) u differences of one perturbed run
    c0_sol, c1_sol, holder = [], [], {a: [] for a in alphas}
    for eps in eps_values:
        sups = []
        for i, snap in enumerate(snapshots(u0.values + eps * p)):
            du[i] = snap.u.values - base[i, 0]
            sups.append((np.max(np.abs(du[i])), np.max(np.abs(snap.ux.values - base[i, 1]))))
        sup = np.array(sups)  # (level, u|ux) sup differences
        c0_sol.append(float(np.max(sup[:, 0])))
        c1_sol.append(float(np.max(sup[:, 0] + sup[:, 1])))
        for a, value in zip(alphas, _holder(du, grid.h, alphas)):
            holder[a].append(value)

    ratios = [s / d for s, d in zip(c0_sol, c0_data) if d > 0]
    fitted = {}
    for a in alphas:
        pairs = [(d, hv) for d, hv in zip(c0_data, holder[a]) if d > 0 and hv > 0]
        if len(pairs) < 2:
            raise ValueError(f"fewer than two eps move the solution's alpha={a} seminorm, "
                             "so no exponent can be fitted")
        ld = np.log([p[0] for p in pairs])
        lh = np.log([p[1] for p in pairs])
        fitted[a] = float(np.polyfit(ld, lh, 1)[0])
    return ContinuityReport(
        eps_values=eps_values,
        c0_data_dist=c0_data,
        c0_sol_dist=c0_sol,
        c1_sol_dist=c1_sol,
        holder_sol_dist=holder,
        fitted_exponent=fitted,
        lipschitz_ratio_max=max(ratios),
        lipschitz_ratios=ratios,
    )


# ---------------------------------------------------------------------------
# wave-breaking probe
# ---------------------------------------------------------------------------

def wave_breaking_probe(u0: GridFunction, config: SolverConfig, t_max: float) -> Trajectory:
    """Integrate past the guaranteed lifespan to ``t_max``, or to the first
    time the stretch factor reaches the guard floor or the flow map stops
    increasing, which the trajectory's ``breach`` then records.

    Requires ``guard_mode='warn'`` since the whole point is to leave the
    proven interval, and an unset ``t_end``, which ``t_max`` replaces;
    absence of a breach is a valid outcome.  The trajectory holds only the
    last stored level.  An unset ``dt`` resolves to ``min(h, lifespan/200)``,
    not the solver's default: the breach is located only to the step that
    fails, so the probe keeps the finer step.
    """
    if config.guard_mode != "warn":
        raise ValueError("breaking probe needs guard_mode='warn'")
    if config.t_end is not None:
        raise ValueError(f"breaking probe runs to t_max; t_end must be unset, got {config.t_end}")
    geometry = ball_geometry(u0, config.r0)
    dt = config.dt if config.dt is not None else min(config.grid.h, geometry.lifespan / 200.0)
    traj, levels = stream_levels(u0, replace(config, dt=dt, t_end=t_max), geometry)
    traj.states = list(deque(levels, maxlen=1))
    return traj


# ---------------------------------------------------------------------------
# per-run diagnostic series
# ---------------------------------------------------------------------------

SERIES_KEYS = ("t", "e1", "e2", "e3", "min_q", "sup_u", "sup_ux", "residual")


def diagnostics_series(states, snapshots: dict | None = None):
    """Time series ``t, e1, e2, e3, min_q, sup_u, sup_ux, residual`` of the
    iterable ``states`` as a dict of lists; the residual is nan at the ends
    and wherever the stored neighbors are not equispaced (breach-shortened
    runs end off the stride).

    Each state's map is inverted once for its snapshot, which feeds its row,
    is stored as ``snapshots[i]`` for each state index ``i`` that is a key of
    ``snapshots`` when state ``i`` is drawn, and is kept in a window of three
    for the residual; no other state or snapshot is held.  Each row's
    integrals are :func:`conserved`'s and each residual is
    :func:`pde_residual`'s, bit for bit.
    """
    out = {k: [] for k in SERIES_KEYS}
    window = [None, None, None]
    for i, state in enumerate(states):
        snap = reconstruct(state)
        window = window[1:] + [snap]
        out["residual"].append(math.nan)
        if i >= 2:
            with suppress(ValueError):
                out["residual"][i - 1] = _residual(window)
        if snapshots is not None and i in snapshots:
            snapshots[i] = snap
        tri = conserved(snap.u)
        for key, value in zip(SERIES_KEYS, (state.t, tri.e1, tri.e2, tri.e3,
                                            float(np.min(state.y[2])), sup_norm(snap.u),
                                            sup_norm(snap.ux))):
            out[key].append(value)
    return out


def write_series_csv(series: dict, path) -> None:
    write_columns(path, SERIES_KEYS, [series[k] for k in SERIES_KEYS])
