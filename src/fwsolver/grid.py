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

#: rows formatted per pass by write_columns; bounds the text held at once
CSV_CHUNK_ROWS = 1024

_FIELD = 30  # a CSV field's bytes: sign, "0.000", 17 digits, point, "e+ddd", separator
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double
_POW_MIN, _POW_MAX = -270, 300  # the powers of 10 tabulated for write_columns


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

    @functools.cached_property
    def x(self) -> NDArray[np.float64]:
        """The nodes, built once per grid and read-only; not a field, so
        equality and hashing stay on ``(half_width, n_points)``."""
        x = np.linspace(-self.half_width, self.half_width, self.n_points)
        x.flags.writeable = False
        return x

    def __reduce__(self):  # from the fields, so an unpickled grid builds its own read-only x
        return type(self), (self.half_width, self.n_points)


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
    return _holder(f.values[:, None], f.grid.h, [alpha])[0]


def _holder(values, h: float, alphas) -> list:
    """For each alpha in ``[0, 1)``, the max of :func:`holder_seminorm` over
    the columns of ``values`` (``(n, k)``, node-major on one grid of spacing
    ``h``), bit for bit: one numerator ``max |v_{i+d} - v_i|`` per offset
    ``d`` over all columns, shared by every alpha.  Each offset's difference
    is of two slices of whole rows, contiguous when ``values`` is, into one
    buffer that every offset reuses.

    The scan stops at the first offset from which no alpha's quotient can
    beat its best so far: rounding is monotone, so none exceeds ``osc``, the
    largest column's ``max - min``, over the least denominator still to
    come, which holds even where ``**`` is not monotone."""
    n = values.shape[0]
    if n * (n - 1) // 2 <= PAIR_BUDGET:
        offsets = range(1, n)
    else:
        # adjacent pairs plus separations 2, 4, 8, ... cover all scales
        offsets = sorted({n - 1, *(2 ** k for k in range(int(math.log2(n - 1)) + 1))})
    osc = float((values.max(axis=0) - values.min(axis=0)).max())
    seps = [d * h for d in offsets]
    dens = np.array([[sep ** alpha for sep in seps] for alpha in alphas])  # (alpha, offset)
    floors = np.minimum.accumulate(dens[:, ::-1], axis=1)[:, ::-1]
    diff = np.empty((n - 1, values.shape[1]))
    best = [0.0] * len(alphas)
    for d, den, floor in zip(offsets, dens.T.tolist(), floors.T.tolist()):
        if all(osc / lo <= b for lo, b in zip(floor, best)):
            break
        gap = np.subtract(values[d:], values[:-d], out=diff[:n - d])
        num = float(np.abs(gap, out=gap).max())
        # max commutes with the correctly rounded division by the same (d*h)**alpha
        best = [max(b, num / p) for b, p in zip(best, den)]
    return best


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


@functools.cache
def _csv_tables():
    """What :func:`_csv_text` reads, built on first use: ``10**p`` for ``p``
    in ``[_POW_MIN, _POW_MAX]`` as the double-double ``hi + lo``, each part
    rounded from the exact rational by int division, with ``hi`` split by
    Dekker into halves of at most 26 bits; and the ASCII of ``0000`` to
    ``9999``, four bytes to a ``uint32``."""
    hi, lo = [], []
    for num, den in ((10 ** max(p, 0), 10 ** max(-p, 0)) for p in range(_POW_MIN, _POW_MAX + 1)):
        hi.append(num / den)
        m, e = hi[-1].as_integer_ratio()
        lo.append((num * e - m * den) / (den * e))
    hi = np.array(hi)
    c = _SPLITTER * hi
    top = c - (c - hi)
    digit = np.arange(48, 58, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    return top, hi - top, np.array(lo), quads.view(np.uint32).ravel()


def _csv_text(table) -> bytes:
    """The CSV rows of the float64 ``table`` (2-D), each field ``b"%.17g" % v``
    byte for byte.  Each field is laid out down a column of a ``(_FIELD, m)``
    byte array, NUL wherever it is shorter, so every step runs along the
    values; the transposed bytes, NULs dropped, are the text.

    Each ``|v|`` in ``(1e-280, 1e280)`` is scaled to the 17-digit integer
    ``|v| * 10**(16 - k)``, ``k = floor(log10|v|)``, and rounded half to
    even.  The scaling errs by less than 2**-46, so the rounding is exact
    unless the fraction lies within 2**-30 of 1/2.  Those values, values
    whose ``log10`` rounded across a power of 10 or whose digits round up
    to 10**17, non-finite values and values outside that range are
    formatted by ``%`` itself; a zero goes through as 1, its digit lowered."""
    values = table.ravel()
    top, bot, lo, quads = _csv_tables()
    a = np.abs(values)
    zero = a == 0
    slow = ~((a > 1e-280) & (a < 1e280) | zero)
    a[slow | zero] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    # a times the power's hi is Dekker's exact two-product ph + pl, ph an
    # integer above 2**53 and below 2**57; hi + lo holds the power to
    # 2**-106, and pl + a * lo rounds twice
    i = 16 - _POW_MIN - k
    c = _SPLITTER * a
    a1 = c - (c - a)
    a2 = a - a1
    ph = a * (top[i] + bot[i])
    t = ((((a1 * top[i] - ph) + a1 * bot[i]) + a2 * top[i]) + a2 * bot[i]) + a * lo[i]
    whole = np.floor(t)
    n = ph.astype(np.int64) + whole.astype(np.int64)
    up = t - whole > 0.5
    # 17 digits before and after rounding, else k is off by one or rounds up
    slow |= (n < 10 ** 16) | (n + up >= 10 ** 17) | (np.abs(t - whole - 0.5) <= 2.0 ** -30)
    n += up

    # the 17 digits, NUL after the last nonzero one but for the integer
    # digits of fixed notation; the point goes after digit ``point``
    high = n // 10 ** 8
    groups = np.empty((4, n.size), np.int64)
    groups[0], groups[1] = np.divmod(high % 10 ** 8, 10 ** 4)
    groups[2], groups[3] = np.divmod(n - high * 10 ** 8, 10 ** 4)
    digits = np.zeros((18, n.size), np.uint8)
    digits[0] = high // 10 ** 8 + 48
    digits[1:17] = quads[groups].view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1).reshape(16, -1)
    rows = np.arange(18, dtype=np.uint8)[:, None]
    last = np.max((digits[:17] != 48) * rows[:17], axis=0)
    fixed = (k >= -4) & (k <= 16)
    small = fixed & (k < 0)
    point = np.where(fixed, np.maximum(k, 0), 0).astype(np.uint8)
    digits *= rows <= np.maximum(last, point)
    point[small] = 16

    # sign, "0." and leading zeros, the digits with their point, exponent
    text = np.zeros((_FIELD, n.size), np.uint8)
    text[0] = np.signbit(values) * np.uint8(45)
    text[1:6] = small * np.frombuffer(b"0.000", np.uint8)[:, None]
    text[3:6] *= rows[:3] < -1 - k
    text[6] = digits[0]
    # digit r - 1 past the point, else digit r, in arithmetic modulo 256
    text[7:24] = digits[:-1] + (rows[1:] <= point) * (digits[1:] - digits[:-1])
    text[point + 7, np.arange(n.size)] = (last > point) * np.uint8(46)
    e = np.abs(k)
    text[25:29] = quads[e].view(np.uint8).reshape(-1, 4).T
    text[24] = 101
    text[25] = np.where(k < 0, 45, 43)
    text[26] *= e >= 100
    text[24:29] *= ~fixed
    text[6] -= zero
    text[-1] = 44
    text[-1, table.shape[1] - 1::table.shape[1]] = 10

    for i in np.flatnonzero(slow).tolist():
        field = b"%.17g" % values[i]
        text[:-1, i] = 0
        text[:len(field), i] = np.frombuffer(field, np.uint8)
    return text.T.tobytes().translate(None, b"\0")


def write_columns(path, names, columns) -> None:
    """Write equal-length columns as CSV under the header ``names``.  Each
    field is ``%.17g``, the same text as ``f"{v:.17g}"``, formatted by
    :func:`_csv_text` ``CSV_CHUNK_ROWS`` rows at a time, so little text
    is held at once."""
    table = np.column_stack(columns).astype(np.float64, copy=False)
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for lo in range(0, table.shape[0], CSV_CHUNK_ROWS):
            fh.write(_csv_text(table[lo:lo + CSV_CHUNK_ROWS]))


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
