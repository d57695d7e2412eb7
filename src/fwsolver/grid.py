"""Uniform-grid sampled functions on a truncated line, with the norms,
quadrature, differentiation and interpolation the solver is built on.

Functions are sampled on ``x_i = -X + i*h`` and treated as zero outside
``[-X, X]``.  That truncation is only meaningful for data that decays at
the ends; constructors of *initial data* enforce it (see
:func:`fwsolver.lagrangian.initial_state`), ordinary grid functions do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Grid",
    "GridFunction",
    "sup_norm",
    "derivative",
    "c1_norm",
    "holder_seminorm",
    "quadrature",
    "interpolate_many",
    "write_csv",
    "write_columns",
    "read_csv",
]

#: pairs examined exhaustively by holder_seminorm before it subsamples
PAIR_BUDGET = 4_000_000

#: rows formatted per ``%`` call by write_columns; bounds the text held at once
CSV_CHUNK_ROWS = 512


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n_points`` nodes spanning ``[-half_width, half_width]``."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @property
    def x(self) -> NDArray[np.float64]:
        return np.linspace(-self.half_width, self.half_width, self.n_points)


class GridFunction:
    """Real-valued function sampled on a :class:`Grid`.

    Thin wrapper around a float64 array; all values must be finite.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid with {grid.n_points} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values

    def __repr__(self):
        return (f"GridFunction(n={self.grid.n_points}, X={self.grid.half_width}, "
                f"sup={np.max(np.abs(self.values)):.3g})")


def sup_norm(f: GridFunction) -> float:
    """max over the grid of ``|f|``."""
    return float(np.max(np.abs(f.values)))


def derivative(f: GridFunction) -> GridFunction:
    """Second-order finite-difference derivative on the same grid.

    Central differences at interior nodes, second-order one-sided
    stencils at the two endpoints.  Exact for affine data everywhere.
    """
    return GridFunction(f.grid, derivative_values(f.values, f.grid.h))


def derivative_values(v: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def c1_norm(f: GridFunction) -> float:
    """``sup|f| + sup|f'|`` with the discrete derivative."""
    return sup_norm(f) + sup_norm(derivative(f))


def holder_seminorm(f: GridFunction, alpha: float) -> float:
    """max over node pairs of ``|f_i - f_j| / |x_i - x_j|^alpha``.

    Exhaustive over all pairs while ``n(n-1)/2 <= PAIR_BUDGET``; beyond
    that, all adjacent pairs are kept (they dominate for smooth data and
    ``alpha < 1``) plus a geometric ladder of wider separations.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return _holder(f.values[None], f.grid.h, [alpha])[0]


def _holder(values, h: float, alphas) -> list:
    """For each alpha in ``[0, 1)``, the max of :func:`holder_seminorm` over
    the rows of ``values`` (``(k, n)``, on one grid of spacing ``h``), bit for
    bit: one numerator ``max |v_{i+d} - v_i|`` per offset ``d`` over all rows,
    shared by every alpha."""
    values = np.asarray(values)
    n = values.shape[1]
    if n * (n - 1) // 2 <= PAIR_BUDGET:
        offsets = range(1, n)
    else:
        # adjacent pairs plus separations 2, 4, 8, ... cover all scales
        offsets = sorted({n - 1, *(2 ** k for k in range(int(math.log2(n - 1)) + 1))})
    nums = [(d, float(np.max(np.abs(values[:, d:] - values[:, :-d])))) for d in offsets]
    # max commutes with the correctly rounded division by the same (d*h)**alpha
    return [max(num / (d * h) ** alpha for d, num in nums) for alpha in alphas]


def quadrature(f: GridFunction) -> float:
    """Composite trapezoid over ``[-X, X]``."""
    return _trapezoid(f.values, f.grid.h)


def _trapezoid(v: NDArray[np.float64], h: float) -> float:
    """:func:`quadrature` of raw node values, which may be non-finite."""
    return float(h * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def _slopes(x: NDArray[np.float64], y: NDArray[np.float64]):
    """Node slopes of the cubic through each column of ``y`` ``(n, k)`` on
    the uniform nodes ``x``: fourth-order differences with no limiter, so
    linear in ``y``: 5-point centred inside, 5-point one-sided at the two
    nodes nearest each end, and :func:`derivative_values` below 5 nodes
    (exact for parabolas)."""
    h = (x[-1] - x[0]) / (x.size - 1)
    if x.size < 5:
        return derivative_values(y, h)
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - y[4:] + 8 * (y[3:-1] - y[1:-3])) / (12 * h)
    # the right end is the left one mirrored, x -> -x, which flips a slope's sign
    e = np.stack([y[:5], -y[:-6:-1]], axis=1)  # e[j]: the nodes j in from each end
    d[[0, -1]] = (-25 * e[0] + 48 * e[1] - 36 * e[2] + 16 * e[3] - 3 * e[4]) / (12 * h)
    d[[1, -2]] = (-3 * e[0] - 10 * e[1] + 18 * e[2] - 6 * e[3] + e[4]) / (12 * h)
    return d


def _hermite(x, y, dydx, xs):
    """scipy's ``CubicHermiteSpline`` through ``y`` with slopes ``dydx``
    (``(n, ...)``) at ``xs`` (``(m, ...)``, broadcast against the columns),
    bitwise: its cell coefficients, then its power sum in ``s = xs - x_i``.
    Outside ``[x[0], x[-1]]`` the end cubics extrapolate."""
    dx = (x[1:] - x[:-1]).reshape(-1, *[1] * (y.ndim - 1))
    slope = (y[1:] - y[:-1]) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1 = t / dx, (slope - dydx[:-1]) / dx - t
    i = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, x.size - 2)
    at = i * y[0].size + np.arange(y[0].size).reshape(y.shape[1:])  # flat index of y[i]
    s = xs - x[i]
    z = s * s
    return (0.0 + np.take(y, at) + np.take(dydx, at) * s + np.take(c1, at) * z
            + np.take(c0, at) * (z * s))


def interpolate_many(f: GridFunction, xs: NDArray[np.float64]):
    """Evaluate ``f`` at the points ``xs`` off the grid by the pull-back's
    cubic Hermite interpolant; returns ``(values, n_outside)``.

    Exact at nodes and for cubics, but not overshoot-free.  Points outside
    ``[-X, X]`` evaluate to 0 by the decay convention and are counted.
    """
    xs = np.asarray(xs, dtype=np.float64)
    x, y = f.grid.x, f.values[:, None]
    inside = (xs >= x[0]) & (xs <= x[-1])
    out = np.zeros_like(xs)
    out[inside] = _hermite(x, y, _slopes(x, y), xs[inside][:, None])[:, 0]
    return out, int(np.sum(~inside))


def write_csv(f: GridFunction, path) -> None:
    """Serialize as ``x,value`` rows at full double precision."""
    write_columns(path, ("x", "value"), (f.grid.x, f.values))


@functools.lru_cache(maxsize=4)
def _node_text(grid: Grid) -> tuple:
    """The nodes ``grid.x`` as :func:`write_columns` formats them, one
    newline-joined str per ``CSV_CHUNK_ROWS`` rows; cached, so the snapshot
    and flow-map files a process writes on one grid format its nodes once."""
    x = grid.x
    chunks = (x[lo:lo + CSV_CHUNK_ROWS].tolist() for lo in range(0, x.size, CSV_CHUNK_ROWS))
    return tuple("\n".join(["%.17g"] * len(c)) % tuple(c) for c in chunks)


def write_columns(path, names, columns) -> None:
    """Write equal-length columns as CSV under the header ``names``.  Each
    field is ``%.17g``, the same text as ``f"{v:.17g}"``; one ``%`` call
    formats ``CSV_CHUNK_ROWS`` rows, so little text is held at once.  The
    first column may be a grid's :func:`_node_text`, written as it is."""
    text = columns[0] if isinstance(columns[0], tuple) else None
    table = np.column_stack(columns[1:] if text else columns).astype(np.float64, copy=False)
    k = len(names)
    row = ",".join(["%s" if text else "%.17g"] + ["%.17g"] * (k - 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for c, lo in enumerate(range(0, table.shape[0], CSV_CHUNK_ROWS)):
            chunk = table[lo:lo + CSV_CHUNK_ROWS]
            fields = chunk.ravel().tolist()
            if text:  # interleave the node text with the formatted rows
                fields, rest = [None] * (chunk.shape[0] * k), fields
                fields[::k] = text[c].split("\n")
                for j in range(1, k):
                    fields[j::k] = rest[j - 1::k - 1]
            fh.write((row * chunk.shape[0]) % tuple(fields))


def read_csv(path) -> GridFunction:
    """Read a grid function written by :func:`write_csv`.

    The node set must be a uniform grid symmetric about 0.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
        raise ValueError(f"{path}: expected at least 3 rows of x,value")
    x, v = data[:, 0], data[:, 1]
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-10, atol=0.0):
        raise ValueError(f"{path}: nodes are not uniformly spaced")
    if abs(x[0] + x[-1]) > 1e-10 * max(1.0, abs(x[-1])):
        raise ValueError(f"{path}: grid is not symmetric about 0")
    grid = Grid(half_width=float(x[-1]), n_points=x.size)
    return GridFunction(grid, v)
