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
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, GridFunction, derivative, derivative_values, sup_norm
from .kernels import cumulative_flow_values, kernel_pair_arrays

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
    "stream_levels",
    "keep_levels",
    "chain_rule_defect",
]

# the contraction estimate needs the ball radius strictly below 1/9
MAX_BALL_RADIUS = 1.0 / 9.0
DEFAULT_BALL_RADIUS = 0.1
# the step keeps the stretch q above this floor; see _rk4_arrays
DEFAULT_Q_FLOOR = 0.1

# SolverConfig.guard_mode: violated hypotheses raise, or only warn
GUARD_MODES = ("enforce", "warn")

# adjacent-difference screen for non-C1 initial data; see initial_state
KINK_COEFF = 0.5


class InitialDataError(ValueError):
    """Initial data violates a constructor precondition."""


class GuardBreach(RuntimeError):
    """A failed node check of a step, raised by :func:`_guard_nodes`.  Its
    ``kind`` is ``"stretch floor"`` (a floored stretch in a stage input or the
    new state), ``"non-finite"`` (a tendency or the new state) or ``"flow map"``
    (the new map ``x + displacement`` is not strictly increasing at ``node``)."""

    def __init__(self, kind: str, stage: str, node: int, x: float, t: float, value: float,
                 floor: float):
        self.kind = kind
        self.stage = stage
        self.node = node
        self.x = x
        self.t = t
        self.value = value
        self.floor = floor
        where = f"at RK stage {stage}, node {node} (x={x:.6g}), t={t:.6g}"
        super().__init__({
            "stretch floor": f"stretch floor breached {where}: q={value:.6g} <= {floor:.6g}",
            "non-finite": f"non-finite state {where}: value {value}",
            "flow map": f"flow map is not strictly increasing {where}: "
                        f"eta_{node + 1} - eta_{node} = {value:.6g} <= {floor:.6g}"}[kind])

    def __reduce__(self):  # rebuild from the fields, not the message, across processes
        return type(self), (self.kind, self.stage, self.node, self.x, self.t, self.value,
                            self.floor)


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

    ``dt=None`` resolves to ``lifespan/20``, with no ``h`` in it: the
    right-hand side has no spatial derivative and ``L T = 1/2``, so RK4's
    error rests on ``L dt`` alone; ``t_end=None`` resolves to the
    guaranteed lifespan.  With ``guard_mode="enforce"``,
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


def _rhs_arrays(y: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    w, v, q = y[0], y[1], y[2]
    out = np.empty_like(y)
    kernel_pair_arrays(w, cumulative_flow_values(q, h), out[:2])
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
    ``lifespan/20``), so they land exactly on ``t_end``."""
    t_end = config.t_end if config.t_end is not None else geometry.lifespan
    dt = config.dt if config.dt is not None else geometry.lifespan / 20.0
    n_steps = max(1, int(round(abs(t_end) / dt)))
    return t_end, t_end / n_steps, n_steps


def _guard_nodes(ok, y, stage, grid, t, floor, kind="stretch floor", row=2):
    """Raise :class:`GuardBreach` at the first node where ``ok`` is False,
    reporting its first non-finite component of ``y`` as ``non-finite``, else
    its ``y[row]`` (the stretch by default) as ``kind``."""
    if not ok.all():
        i = int(np.argmin(ok))
        value = float(next((v for v in y[:, i] if not math.isfinite(v)), y[row, i]))
        raise GuardBreach(kind if math.isfinite(value) else "non-finite", stage, i,
                          float(grid.x[i]), t, value, floor)


def _rk4_arrays(y, t, dt, grid, q_floor):
    """One RK4 step of the packed state; breaches name the stage whose
    input stretch is floored or whose tendency is non-finite (or
    ``post-step`` for a non-finite or floored new state, or a new flow map
    that is not strictly increasing), the node and its x.  An overflow that
    reaches a tendency, the state or the map is such a breach, so numpy's
    overflow warnings are silenced."""

    def tendency(z, stage):
        _guard_nodes(z[2] > q_floor, z, stage, grid, t, q_floor)
        k = _rhs_arrays(z, grid.h)
        if not math.isfinite(np.sum(k)):  # a screen: finite tendencies may overflow the sum
            _guard_nodes(np.isfinite(k).all(axis=0), k, stage, grid, t, q_floor)
        return k

    with np.errstate(over="ignore", invalid="ignore"):
        y_new = _rk4(tendency, y, dt)
        _guard_nodes(np.isfinite(y_new).all(axis=0) & (y_new[2] > q_floor), y_new,
                     "post-step", grid, t + dt, q_floor)
        steps = np.diff(grid.x + y_new[3])  # the test of FlowMap, so the two always agree
        _guard_nodes(steps > 0, steps[None], "post-step", grid, t + dt, 0.0, "flow map", 0)
    return y_new


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def step(state: LagrangianState, dt: float) -> LagrangianState:
    """Advance one RK4 step of size ``dt`` (may be negative), guarded at DEFAULT_Q_FLOOR."""
    y = _rk4_arrays(state.y, state.t, dt, state.grid, DEFAULT_Q_FLOOR)
    return LagrangianState(state.t + dt, state.grid, y)


@dataclass
class Trajectory:
    """Stored time levels of one integration, in time order, plus how it ended.

    ``breach`` is ``None`` for a clean run; otherwise the guard event that
    stopped it, with the last valid state retained as ``states[-1]``.
    """

    states: list = field(default_factory=list)
    geometry: BallGeometry | None = None
    breach: GuardBreach | None = None

    @property
    def final(self) -> LagrangianState:
        return self.states[-1]


def stream_levels(u0: GridFunction, config: SolverConfig, geometry: BallGeometry | None = None
                  ) -> tuple[Trajectory, Iterator[LagrangianState]]:
    """The run of :func:`integrate` as ``(trajectory, levels)``: ``levels``
    yields each stored state as soon as it is made, and ``trajectory``
    (its geometry set, no states) gets the guard breach, if any, once
    ``levels`` is exhausted.

    Settings and data are checked here, before any step.  The stream holds
    only the state being stepped, so a consumer that drops each level once
    read needs memory independent of the number of levels.
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
    traj = Trajectory(geometry=geometry)

    def levels():
        yield state0
        y, stored, grid = state0.y, 0.0, config.grid
        for s in range(n_steps):
            t = s * dt
            try:
                y = _rk4_arrays(y, t, dt, grid, config.q_floor)
            except GuardBreach as gb:
                traj.breach = gb
                if stored != t:  # retain the last valid state
                    yield LagrangianState(t, grid, y)
                return
            if (s + 1) % config.store_every == 0 or s + 1 == n_steps:
                stored = (s + 1) * dt
                yield LagrangianState(stored, grid, y)

    return traj, levels()


def keep_levels(levels, kept: dict, planned: Callable[[int], bool], make):
    """Yield each of ``levels``, holding ``kept[i] = make(level i)`` for the
    levels ``i`` that ``planned(i)`` and for the newest level; any other
    level's entry goes once the next level arrives."""
    for i, level in enumerate(levels):
        if i and not planned(i - 1):  # level i - 1 was neither planned nor the last
            del kept[i - 1]
        kept[i] = make(level)
        yield level


def integrate(u0: GridFunction, config: SolverConfig,
              geometry: BallGeometry | None = None) -> Trajectory:
    """Integrate from ``u0`` to ``config.t_end`` with fixed-step RK4.

    Negative ``t_end`` integrates backward; the step is adjusted so an
    integer number of steps lands exactly on ``t_end``.  Guard breaches do
    not raise: the trajectory is returned with ``breach`` set and the last
    valid state retained.

    It holds every stored level, so the commands stream them instead; it stays
    for demos 02-04, and perfbench's tracer times it and counts its levels.
    """
    traj, levels = stream_levels(u0, config, geometry)
    traj.states = list(levels)
    return traj
