"""Characteristic flow map: assembly from a solver state, invertibility
checks, inversion, and reconstruction of the physical-space solution.

The map sampled at the nodes is ``eta_i = x_i + displacement_i``.  While
the run stays inside the guaranteed regime the samples are strictly
increasing with slopes pinched around 1, so the map is invertible;
inversion is done directly on the samples by bisection-free searchsorted
plus linear interpolation, which reproduces nodes exactly and never
breaks monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, GridFunction, _hermite, _node_text, _slopes, write_columns
from .lagrangian import BallGeometry, LagrangianState

__all__ = [
    "FlowMap",
    "EulerianSnapshot",
    "FlowMapError",
    "flow_map",
    "invert_many",
    "map_slopes",
    "slope_bounds",
    "inverse_slope_bounds",
    "reconstruct",
    "write_snapshot_csv",
    "write_flowmap_csv",
]


class FlowMapError(RuntimeError):
    """The sampled map left the provable regime (monotonicity or bounds)."""


@dataclass(frozen=True)
class FlowMap:
    """Strictly increasing samples ``positions_i = eta(x_i, t)``."""

    grid: Grid
    positions: NDArray[np.float64]
    t: float

    def __post_init__(self):
        if self.positions.shape != (self.grid.n_points,):
            raise ValueError("positions length does not match the grid")
        if not np.all(np.diff(self.positions) > 0):
            i = int(np.argmin(np.diff(self.positions)))
            raise FlowMapError(
                f"flow map is not strictly increasing near node {i} "
                f"(x={self.grid.x[i]:.6g}, t={self.t:.6g})"
            )


@dataclass(frozen=True)
class EulerianSnapshot:
    """Physical-space solution and slope at one time, with the count of
    nodes that fell outside the image of the flow map (set to 0 there)."""

    t: float
    u: GridFunction
    ux: GridFunction
    out_of_image: int = 0


def flow_map(state: LagrangianState) -> FlowMap:
    """Assemble the map from a state; raises if monotonicity already failed."""
    return FlowMap(state.grid, state.grid.x + state.y[3], state.t)


def map_slopes(fmap: FlowMap) -> NDArray[np.float64]:
    """Per-cell discrete slopes ``(eta_{i+1} - eta_i)/h``."""
    return np.diff(fmap.positions) / fmap.grid.h


def invert_many(fmap: FlowMap, xs: NDArray[np.float64]):
    """Vectorized inverse; returns ``(labels, inside_mask)``.

    Entries outside the image carry an unspecified value and
    ``inside_mask=False``; callers decide how to treat them.
    """
    xs = np.asarray(xs, dtype=np.float64)
    eta = fmap.positions
    inside = (xs >= eta[0]) & (xs <= eta[-1])
    j = np.clip(np.searchsorted(eta, xs, side="right") - 1, 0, eta.size - 2)
    frac = (xs - eta[j]) / (eta[j + 1] - eta[j])
    labels = fmap.grid.x[j] + frac * fmap.grid.h
    # queries that hit a sample exactly return the node label bitwise
    hi = xs == eta[j + 1]
    labels[hi] = fmap.grid.x[j + 1][hi]
    return labels, inside


def _check_bounds(name, lo_meas, hi_meas, lo, hi, tol, t):
    if lo_meas < lo - tol or hi_meas > hi + tol:
        raise FlowMapError(
            f"{name} slopes [{lo_meas:.6g}, {hi_meas:.6g}] leave the proven band "
            f"[{lo:.6g}, {hi:.6g}] (tol {tol:.1g}) at t={t:.6g}"
        )


def slope_bounds(fmap: FlowMap, geometry: BallGeometry, tol: float = 1e-3):
    """Measured (min, max) forward slopes, checked against ``1 -+ (3/2) r |t|``."""
    s = map_slopes(fmap)
    lo_meas, hi_meas = float(np.min(s)), float(np.max(s))
    rt = 1.5 * geometry.r * abs(fmap.t)
    _check_bounds("forward", lo_meas, hi_meas, 1.0 - rt, 1.0 + rt, tol, fmap.t)
    return lo_meas, hi_meas


def inverse_slope_bounds(fmap: FlowMap, geometry: BallGeometry, tol: float = 1e-3):
    """Measured (min, max) inverse slopes, checked against the reciprocal band.

    With ``rt = r |t|`` the proven band is
    ``[1 - 3rt/(2 + 3rt), 1 + 3rt/(2 - 3rt)]``, e.g. [200/227, 200/173]
    at ``rt = 9/100``.
    """
    s = 1.0 / map_slopes(fmap)
    lo_meas, hi_meas = float(np.min(s)), float(np.max(s))
    rt3 = 3.0 * geometry.r * abs(fmap.t)
    lo = 1.0 - rt3 / (2.0 + rt3)
    hi = 1.0 + rt3 / (2.0 - rt3) if rt3 < 2.0 else np.inf
    _check_bounds("inverse", lo_meas, hi_meas, lo, hi, tol, fmap.t)
    return lo_meas, hi_meas


def reconstruct(state: LagrangianState) -> EulerianSnapshot:
    """Physical-space solution ``u`` and slope ``ux`` on the grid.

    Values are the state's ``w`` and ``v`` pulled back through the inverse
    map (the slope uses ``v`` directly, which equals the physical slope
    along trajectories, so no division by the stretch is needed), by the
    cubic Hermite interpolant with fourth-order difference slopes and no
    limiter (see :func:`fwsolver.grid._slopes`).  Grid nodes outside the
    image take 0 and are counted.
    """
    return next(_pull_back([state]))


def _pull_back(states):
    """Yield the :func:`reconstruct` snapshot of each state of the iterable
    ``states``, inverting each map once."""
    for state in states:
        x = state.grid.x
        labels, inside = invert_many(flow_map(state), x)
        y = np.column_stack(state.y[:2])  # (w, v)
        uux = _hermite(x, y, _slopes(x, y), labels[:, None])
        uux = np.where(inside[:, None], uux, 0.0).T.copy()  # 0 off the image
        yield EulerianSnapshot(state.t, *(GridFunction(state.grid, c) for c in uux),
                               int(np.sum(~inside)))


def write_snapshot_csv(snap: EulerianSnapshot, path) -> None:
    write_columns(path, ("x", "u", "ux"), (_node_text(snap.u.grid), snap.u.values, snap.ux.values))


def write_flowmap_csv(fmap: FlowMap, path) -> None:
    write_columns(path, ("x", "eta"), (_node_text(fmap.grid), fmap.positions))
