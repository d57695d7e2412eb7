"""Characteristic-coordinate formulation: the coupled ODE system for the
wave profile, its slope and the coordinate stretch along trajectories,
its guaranteed-lifespan arithmetic, and the fixed-step RK4 integrator.

State components, the rows of one ``(4, n)`` array sampled on one grid
and indexed by the trajectory label ``x``:

* ``w``            wave height carried along the characteristic,
* ``v``            spatial slope carried along the characteristic,
* ``q``            stretch factor of the characteristic map,
* ``displacement`` accumulated offset of the characteristic from ``x``.

The tendencies are

    dw/dt = odd kernel integral of (w, q)
    dv/dt = even kernel integral of (w, q) - w - (3/2) v^2
    dq/dt = (3/2) v q
    d(displacement)/dt = (3/2) w

which is an ordinary differential equation in the product space with norm
``|w|_C1 + sup|v| + sup|q|``; the right-hand side is Lipschitz with
constant at most ``(50/9) r`` on the ball of radius ``r``, giving the
guaranteed two-sided lifespan ``9 / (100 r)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, GridFunction, derivative, derivative_values, sup_norm
from .kernels import (DEFAULT_Q_FLOOR, MonotonicityError, cumulative_flow_values,
                      kernel_pair_arrays)

__all__ = [
    "LagrangianState",
    "BallGeometry",
    "SolverConfig",
    "Trajectory",
    "GuardBreach",
    "InitialDataError",
    "ball_geometry",
    "initial_state",
    "step",
    "integrate",
    "state_norm",
    "chain_rule_defect",
]

# the contraction estimate needs the ball radius strictly below 1/9
MAX_BALL_RADIUS = 1.0 / 9.0
DEFAULT_BALL_RADIUS = 0.1

# SolverConfig.guard_mode: violated hypotheses raise, or only warn
GUARD_MODES = ("enforce", "warn")

# adjacent-difference screen for non-C1 initial data; see initial_state
KINK_COEFF = 0.5


class InitialDataError(ValueError):
    """Initial data violates a constructor precondition."""


class GuardBreach(RuntimeError):
    """The stretch factor hit the guard floor, or the state went non-finite, in a step."""

    def __init__(self, stage: str, node: int, x: float, t: float, value: float, floor: float):
        self.stage = stage
        self.node = node
        self.x = x
        self.t = t
        self.value = value
        self.floor = floor
        where = f"at RK stage {stage}, node {node} (x={x:.6g}), t={t:.6g}"
        super().__init__(f"stretch floor breached {where}: q={value:.6g} <= {floor:.6g}"
                         if math.isfinite(value) else f"non-finite state {where}: value {value}")

    def __reduce__(self):  # rebuild from the fields, not the message, across processes
        return type(self), (self.stage, self.node, self.x, self.t, self.value, self.floor)


def _row(i: int) -> property:
    """Read-only view of row ``i`` of a state's ``y`` as a :class:`GridFunction`."""
    return property(lambda state: GridFunction(state.grid, state.y[i]))


@dataclass(frozen=True, eq=False)
class LagrangianState:
    """Solver state at one time level: the rows ``(w, v, q, displacement)``
    of ``y``, sampled on ``grid``."""

    t: float
    grid: Grid
    y: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        if self.y.shape != (4, self.grid.n_points):
            raise ValueError(f"state shape {self.y.shape} is not (4, {self.grid.n_points})")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("state values must be finite")

    w, v, q, displacement = (_row(i) for i in range(4))


@dataclass(frozen=True)
class BallGeometry:
    """Constants of the contraction argument for one choice of initial data.

    ``lifespan`` is the guaranteed two-sided existence time ``9/(100 r)``
    with ``r = r0 + state_norm``; ``lifespan_naive = 9/(100 |u0|_C1)``
    uses only the data norm and is reported for comparison (it is larger,
    and not what the guards enforce).
    """

    r0: float
    state_norm: float
    r: float
    lipschitz_const: float
    lifespan: float
    lifespan_naive: float


def ball_geometry(u0: GridFunction, r0: float = DEFAULT_BALL_RADIUS) -> BallGeometry:
    """Lifespan and Lipschitz constants for data ``u0`` and ball radius ``r0``."""
    if not (0.0 < r0 < MAX_BALL_RADIUS):
        raise ValueError(f"ball radius must satisfy 0 < r0 < 1/9, got {r0}")
    v0 = derivative_values(u0.values, u0.grid.h)
    u0_c1 = sup_norm(u0) + float(np.max(np.abs(v0)))
    y0 = _norm(np.stack([u0.values, v0, np.ones_like(v0)]), u0.grid.h)  # (w, v, q) at t = 0
    r = r0 + y0
    return BallGeometry(
        r0=r0,
        state_norm=y0,
        r=r,
        lipschitz_const=(50.0 / 9.0) * r,
        lifespan=9.0 / (100.0 * r),
        lifespan_naive=9.0 / (100.0 * u0_c1) if u0_c1 > 0 else math.inf,
    )


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``dt=None`` resolves to ``min(h, lifespan/200)``; ``t_end=None``
    resolves to the guaranteed lifespan.  With ``guard_mode="enforce"``,
    ``|t_end|`` may not exceed the guaranteed lifespan and non-smooth
    initial data is rejected; ``"warn"`` downgrades both to warnings so
    runs may continue into the merely-empirical regime.
    """

    grid: Grid
    dt: float | None = None
    t_end: float | None = None
    r0: float = DEFAULT_BALL_RADIUS
    q_floor: float = DEFAULT_Q_FLOOR
    boundary_tol: float = 1e-6
    guard_mode: str = "enforce"
    store_every: int = 1

    def __post_init__(self):
        if self.guard_mode not in GUARD_MODES:
            raise ValueError(f"guard_mode must be 'enforce' or 'warn', got {self.guard_mode!r}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.t_end is not None and not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if not self.q_floor > 0:
            raise ValueError(f"q_floor must be positive, got {self.q_floor}")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")


def initial_state(u0: GridFunction, config: SolverConfig) -> LagrangianState:
    """State at time zero: slope from the discrete derivative, unit stretch.

    Rejects (or warns about, per ``guard_mode``) data whose discrete slope
    jumps between adjacent nodes like a corner rather than shrinking with
    ``h``: ``max|v_{i+1} - v_i|`` must stay below
    ``h^{3/4} (1 + sup|u0| + sup|v|) / 2``.  A corner keeps an O(1) jump
    at every resolution, so it trips the screen on any reasonable grid,
    while well-resolved smooth data sits orders of magnitude below it
    (steep data on a grid too coarse to resolve its slope is flagged too,
    which is the intended reading of discrete smoothness).
    """
    if u0.grid != config.grid:
        raise InitialDataError("initial data lives on a different grid than the config")
    v0 = derivative(u0)
    dv = np.abs(np.diff(v0.values))
    scale = 1.0 + sup_norm(u0) + sup_norm(v0)
    kink_tol = KINK_COEFF * config.grid.h ** 0.75 * scale
    problems = []
    if dv.size and float(np.max(dv)) > kink_tol:
        i = int(np.argmax(dv))
        problems.append(
            f"initial data is not smooth enough: slope jumps by {dv[i]:.3g} "
            f"between nodes {i} and {i + 1} (x={u0.grid.x[i]:.4g}), "
            f"tolerance {kink_tol:.3g}"
        )
    for end, name in ((0, "left"), (-1, "right")):
        if abs(u0.values[end]) > config.boundary_tol:
            problems.append(
                f"initial data does not decay at the {name} boundary: "
                f"|u0| = {abs(u0.values[end]):.3g} > {config.boundary_tol:.3g}"
            )
    if problems:
        msg = "; ".join(problems)
        if config.guard_mode == "enforce":
            raise InitialDataError(msg)
        warnings.warn(msg, stacklevel=2)
    n = config.grid.n_points
    y = np.stack([u0.values, v0.values, np.ones(n), np.zeros(n)])
    return LagrangianState(0.0, config.grid, y)


def state_norm(state: LagrangianState) -> float:
    """Product-space norm ``|w|_C1 + sup|v| + sup|q|`` (ball monitor)."""
    return _norm(state.y, state.grid.h)


def chain_rule_defect(state: LagrangianState) -> float:
    """sup of ``|d/dx w - v q|``, zero in the continuum by the chain rule."""
    w, v, q = state.y[:3]
    return float(np.max(np.abs(derivative_values(w, state.grid.h) - v * q)))


# ---------------------------------------------------------------------------
# packed-array core used by the integrator
# ---------------------------------------------------------------------------

def _norm(y: NDArray[np.float64], h: float) -> float:
    """``|w|_C1 + sup|v| + sup|q|`` of the packed rows ``(w, v, q, ...)``,
    summed left to right; later rows are ignored."""
    return float(np.max(np.abs(y[0])) + np.max(np.abs(derivative_values(y[0], h)))
                 + np.max(np.abs(y[1])) + np.max(np.abs(y[2])))


def _rhs_arrays(y: NDArray[np.float64], h: float, q_floor: float) -> NDArray[np.float64]:
    w, v, q = y[0], y[1], y[2]
    out = np.empty_like(y)
    kernel_pair_arrays(w, cumulative_flow_values(q, h, q_floor), out[:2])
    dv, dq, dx = out[1:]
    dv -= w  # dv = even - w - 1.5 v^2, with dq and dx as scratch first
    dv -= np.multiply(np.multiply(v, 1.5, out=dq), v, out=dx)
    dq *= q
    np.multiply(w, 1.5, out=dx)
    return out


def _rk4(f, y, dt):
    """One classical RK4 step for ``y' = f(y)``; ``f(y, stage)`` is told
    which stage (``"k1"`` to ``"k4"``) it evaluates, so it can name it.
    ``f`` must return a new array: the step sums the stages into ``k1`` in
    place and returns it.  ``y`` is never written."""
    k = acc = f(y, "k1")
    z = np.empty_like(y)
    for stage, c in (("k2", 0.5 * dt), ("k3", 0.5 * dt), ("k4", dt)):
        np.multiply(k, c, out=z)
        if k is not acc:  # k1 + 2 k2 + 2 k3, summed left to right
            k *= 2.0
            acc += k
        z += y
        k = f(z, stage)
    acc += k
    acc *= dt / 6.0
    acc += y
    return acc


def _time_steps(config: SolverConfig, geometry: BallGeometry) -> tuple[float, float, int]:
    """``(t_end, dt, n_steps)``: the horizon (default the guaranteed
    lifespan), and the signed step ``dt = t_end / n_steps`` actually taken
    by the number of equal steps nearest the requested step (default
    ``min(h, lifespan/200)``), so they land exactly on ``t_end``."""
    t_end = config.t_end if config.t_end is not None else geometry.lifespan
    dt = config.dt if config.dt is not None else min(config.grid.h, geometry.lifespan / 200.0)
    n_steps = max(1, int(round(abs(t_end) / dt)))
    return t_end, t_end / n_steps, n_steps


def _guard_nodes(ok, y, stage, grid, t, q_floor):
    """Raise :class:`GuardBreach` at the first node where ``ok`` is False,
    reporting its first non-finite component of ``y``, else its stretch."""
    if not ok.all():
        i = int(np.argmin(ok))
        value = next((v for v in y[:, i] if not math.isfinite(v)), y[2, i])
        raise GuardBreach(stage, i, float(grid.x[i]), t, float(value), q_floor)


def _rk4_arrays(y, t, dt, grid, q_floor):
    """One RK4 step of the packed state; breaches name the stage whose
    tendency is non-finite or whose stretch is floored (or ``post-step``
    for a non-finite or floored new state), the node and its x.  An
    overflow that reaches a tendency or the state is such a breach, so
    numpy's overflow warnings are silenced."""

    def tendency(z, stage):
        try:
            k = _rhs_arrays(z, grid.h, q_floor)
        except MonotonicityError as err:
            raise GuardBreach(stage, err.index, float(grid.x[err.index]), t,
                              err.value, err.floor) from err
        if not math.isfinite(np.sum(k)):  # a screen: finite tendencies may overflow the sum
            _guard_nodes(np.isfinite(k).all(axis=0), k, stage, grid, t, q_floor)
        return k

    with np.errstate(over="ignore", invalid="ignore"):
        y_new = _rk4(tendency, y, dt)
    _guard_nodes(np.isfinite(y_new).all(axis=0) & (y_new[2] > q_floor), y_new,
                 "post-step", grid, t + dt, q_floor)
    return y_new


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def step(state: LagrangianState, dt: float, q_floor: float = DEFAULT_Q_FLOOR) -> LagrangianState:
    """Advance one RK4 step of size ``dt`` (may be negative)."""
    y = _rk4_arrays(state.y, state.t, dt, state.grid, q_floor)
    return LagrangianState(state.t + dt, state.grid, y)


@dataclass
class Trajectory:
    """Stored time levels of one integration, plus how it ended.

    ``breach`` is ``None`` for a clean run; otherwise the guard event that
    stopped it, with the last valid state retained as ``states[-1]``.
    """

    states: list = field(default_factory=list)
    geometry: BallGeometry | None = None
    breach: GuardBreach | None = None

    @property
    def times(self) -> list:
        """Time of each stored state, read off the states."""
        return [s.t for s in self.states]

    def state_at(self, t: float) -> LagrangianState:
        """Stored state nearest to ``t`` (must match within half a stride)."""
        times = np.asarray(self.times)
        i = int(np.argmin(np.abs(times - t)))
        stride = abs(times[1] - times[0]) if len(times) > 1 else math.inf
        if abs(times[i] - t) > 0.5 * stride + 1e-12:
            raise KeyError(f"no stored state near t={t}")
        return self.states[i]

    @property
    def final(self) -> LagrangianState:
        return self.states[-1]


def integrate(u0: GridFunction, config: SolverConfig,
              geometry: BallGeometry | None = None) -> Trajectory:
    """Integrate from ``u0`` to ``config.t_end`` with fixed-step RK4.

    Negative ``t_end`` integrates backward; the step is adjusted so an
    integer number of steps lands exactly on ``t_end``.  Guard breaches do
    not raise: the trajectory is returned with ``breach`` set and the last
    valid state retained.
    """
    if geometry is None:
        geometry = ball_geometry(u0, config.r0)
    t_end, dt, n_steps = _time_steps(config, geometry)
    if config.guard_mode == "enforce" and abs(t_end) > geometry.lifespan * (1 + 1e-12):
        raise InitialDataError(
            f"t_end = {t_end:.6g} exceeds the guaranteed lifespan {geometry.lifespan:.6g}; "
            "pass guard_mode='warn' to integrate beyond it"
        )

    state0 = initial_state(u0, config)
    traj = Trajectory(states=[state0], geometry=geometry)
    y = state0.y
    grid = config.grid
    for s in range(n_steps):
        t = s * dt
        try:
            y = _rk4_arrays(y, t, dt, grid, config.q_floor)
        except GuardBreach as gb:
            traj.breach = gb
            if traj.final.t != t:  # retain the last valid state
                traj.states.append(LagrangianState(t, grid, y))
            break
        if (s + 1) % config.store_every == 0 or s + 1 == n_steps:
            traj.states.append(LagrangianState((s + 1) * dt, grid, y))
    return traj
