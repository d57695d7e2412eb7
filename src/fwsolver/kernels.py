"""Exponential-kernel nonlocal operators, in fixed and flow coordinates.

The smoothing operator is convolution with ``0.5*exp(-|x|)`` (the inverse
of ``1 - d^2/dx^2``) and its spatial derivative splits the kernel by sign.
Along characteristics both reappear with the distance measured through the
stretched coordinate ``Lambda(x) = int_{-X}^x q``, giving the pair

    odd  part:  0.5 * [ int_x^X - int_{-X}^x ] exp(-|Lambda(z)-Lambda(x)|) w q dz
    even part:  0.5 * [ int_x^X + int_{-X}^x ] exp(-|Lambda(z)-Lambda(x)|) w q dz

Two evaluation routes are provided and tested against each other:

* :func:`kernel_pair_arrays` - one backward and one forward sweep, O(N),
  the solver path;
* :func:`kernel_pair_direct` - explicit weights, one ``exp`` per node pair,
  built in blocks of rows, O(N^2), kept as a differential oracle.

The fast route makes a fixed number of whole-array passes whatever N is:
one masked pass for the panels of both sweeps, then blocked cumulative sums
with one scalar carry per block (see :func:`_sweeps`).

Both integrate exactly the same per-panel model of the integrand, so they
agree to near machine precision; disagreement indicates a bug in the sweep
algebra, not discretization error.

Panel rule: in Lambda coordinates each cell integral is computed from a
two-point exponential fit of ``w`` (exact whenever ``w`` is a single
exponential on the cell, e.g. peaked ``e^{-c|x|}`` profiles with the peak
on a node), falling back to the exponentially-weighted linear rule when
the endpoint values change sign.  Cell size never appears as ``exp`` of a
large argument, so arbitrarily coarse grids stay stable.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, GridFunction

__all__ = [
    "cumulative_flow_values",
    "helmholtz_inverse",
    "green_derivative",
    "convected_pair",
]

# Lambda span of one sweep block; e^{+-30} ~ 1e{+-13} is far from float64
# overflow and underflow.  See _sweeps.
_SPAN = 30.0

# rows of weights that kernel_pair_direct builds at a time
_DIRECT_ROWS = 64


def cumulative_flow_values(q, h: float) -> NDArray[np.float64]:
    """Prefix integral ``Lambda(x_i) = int_{-X}^{x_i} q`` of the node values
    ``q`` by the trapezoid rule, with ``Lambda[0] == 0``; strictly
    increasing when ``q`` is positive, which the callers ensure."""
    lam = np.empty(q.size)
    lam[0] = 0.0
    np.cumsum(0.5 * h * (q[:-1] + q[1:]), out=lam[1:])
    return lam


# ---------------------------------------------------------------------------
# panel integrals
# ---------------------------------------------------------------------------

def _geometry(lam: NDArray[np.float64]):
    """Everything of a kernel pass that depends on ``lam`` alone: the cell
    widths and the block factors of :func:`_sweeps`, as
    ``(dlam, up, down, link)``."""
    dlam, m = np.diff(lam), lam.size - 1
    blocks = -(-m // max(1, int(_SPAN / float(np.max(dlam)))))
    edges = np.empty((2, blocks, -(-m // blocks)))
    flat = edges.reshape(2, -1)
    flat[0, :m], flat[1, :m], flat[:, m:] = lam[:-1], lam[1:], lam[-1]  # padding has zero width
    ends = np.stack((edges[0, :, :1], edges[1, :, -1:]))  # block heads and tails
    link = tuple(np.exp(ends[0] - ends[1]).ravel().tolist())
    edges -= ends
    np.exp(edges, out=edges)  # up in [1, e^span), down in (e^-span, 1]
    return dlam, edges[0], edges[1], link


def _panels(w: NDArray[np.float64], dlam: NDArray[np.float64], out):
    """Per-cell weighted integrals for both sweeps on the cells of widths
    ``dlam``, written into the pair ``out = (decaying, growing)`` and returned.

    ``decaying = int_0^d e^{-s} w ds`` (right sweep) and
    ``growing = int_0^d e^{s-d} w ds`` (left sweep) on each cell of width
    ``d``, with ``w`` the exponential fit through the endpoint values when
    they share a sign, else the linear interpolant.  ``growing`` is
    ``decaying`` with the endpoints swapped, so both share the linear rule's
    weights, which are built on the linear cells only.
    """
    decaying, growing = out
    w0, w1 = w[:-1], w[1:]
    fit = np.multiply(w0, w1, out=decaying) > 0.0
    ratio = np.divide(w1, w0, out=np.ones_like(dlam), where=fit)
    np.log(ratio, out=ratio)
    fit &= np.abs(ratio) < 500.0  # keep expm1 in range for freak ratios
    linear = np.flatnonzero(~fit)
    ratio[linear] = 0.0
    z_dec, z_gro = ratio - dlam, np.negative(ratio, out=ratio)
    z_gro -= dlam
    # fitted rule d * w_near * (e^z - 1)/z, with the removable singularity filled in
    for cell, z, near in ((decaying, z_dec, w0), (growing, z_gro, w1)):
        np.expm1(z, out=cell)
        with np.errstate(invalid="ignore"):
            cell /= z
        cell[z == 0.0] = 1.0
        cell *= np.multiply(dlam, near, out=z)
    d, u0, u1 = dlam[linear], w0[linear], w1[linear]
    E = -np.expm1(-d)  # 1 - e^-d
    b = (E - d * (1.0 - E)) / d  # linear weight of the far endpoint
    a = E - b  # and of the near endpoint
    decaying[linear] = a * u0 + b * u1
    growing[linear] = b * u0 + a * u1
    return out


# ---------------------------------------------------------------------------
# O(N) sweeps
# ---------------------------------------------------------------------------

def _sweeps(w, geometry, out=None):
    """Odd and even kernel integrals ``(R - L, R + L)`` of the node values
    ``w`` on a :func:`_geometry`, by blocked whole-array recurrences, as the
    rows of ``out`` (a new ``(2, n)`` array when not given):

        R_i = 0.5 * sum_{j >= i}    e^{lam_i - lam_j}     decaying_j
        L_i = 0.5 * sum_{j+1 <= i}  e^{lam_{j+1} - lam_i} growing_j

    The cells are laid out as a zero-padded ``(blocks, block_len)`` array
    with ``block_len <= _SPAN / max(dlam)`` (at least 1).  Within a block
    every term is renormalised to one block edge - the first left node for
    R, the last right node for L - so the in-block sums are cumulative sums
    along axis 1.  The renormalisation factors grow like ``e^{span}``, so
    an unbounded block would overflow on long domains; bounding the span
    keeps them within ``e^{+-30}``, far inside float64 range, while a grid
    of a few thousand cells still needs only a few blocks.  Only the carry,
    one scalar per block scaled by ``e^{-block span}``, crosses blocks in
    a Python loop.
    """
    dlam, up, down, link = geometry
    m, blocks = dlam.size, up.shape[0]
    # row 0 holds the right-sweep cells from slot 0, row 1 the left-sweep
    # cells from slot 1, so R and L are the first m + 1 slots of the rows
    # (R_m and L_0 are zero: their slots are padding or spare)
    cells = np.empty((2, up.size + 1))
    cells[0, m:] = 0.0  # padding cells have zero weight
    cells[1, :1] = cells[1, m + 1:] = 0.0
    _panels(w, dlam, (cells[0, :m], cells[1, 1:m + 1]))
    cells *= 0.5
    dec, gro = cells[0, :-1].reshape(up.shape), cells[1, 1:].reshape(up.shape)
    dec /= up
    gro *= down
    np.cumsum(dec[:, ::-1], axis=1, out=dec[:, ::-1])
    np.cumsum(gro, axis=1, out=gro)
    right_sums, left_sums = dec[:, 0].tolist(), gro[:, -1].tolist()
    # carry into each block: R from the next block, L from the previous one
    cr, cl = [0.0] * blocks, [0.0] * blocks
    R_next = L_prev = 0.0
    for b in range(blocks):
        c = blocks - 1 - b
        cr[c] = R_next = link[c] * R_next
        R_next += right_sums[c]
        cl[b] = L_prev = link[b] * L_prev
        L_prev += left_sums[b]
    dec += np.array(cr)[:, None]
    dec *= up
    gro += np.array(cl)[:, None]
    gro /= down
    R, L = cells[:, :m + 1]
    out = np.empty((2, m + 1)) if out is None else out
    np.subtract(R, L, out=out[0])
    np.add(R, L, out=out[1])
    return out


def kernel_pair_arrays(w, lam, out=None):
    """Fast-path core: ``(odd, even) = (R - L, R + L)`` for the node values
    ``w`` and cumulative flow samples ``lam``, from one sweep pair, as the
    rows of ``out`` (a new ``(2, n)`` array when not given)."""
    return _sweeps(w, _geometry(lam), out)


@functools.lru_cache(maxsize=8)
def _unit_geometry(grid: Grid):
    """:func:`_geometry` at unit stretch, once per grid; read-only, as callers share it."""
    geometry = _geometry(cumulative_flow_values(np.ones(grid.n_points), grid.h))
    for a in geometry[:3]:  # link is a tuple
        a.flags.writeable = False
    return geometry


# ---------------------------------------------------------------------------
# O(N^2) direct path
# ---------------------------------------------------------------------------

def kernel_pair_direct(w, lam):
    """Direct-quadrature oracle: same panel model, explicit weights.

    For each target node the cell contributions are weighted by
    ``exp(lam_target - lam_cell_edge)`` computed directly, with no
    recurrence, so this route shares no summation structure with the
    fast path.  Each weight ``E[i, k] = exp(lam_i - lam_k)``, ``i <= k``,
    is taken once for both sides: ``R_i`` sums row ``i`` against the
    right-sweep cells starting at node ``k``, ``L_k`` sums column ``k``
    against the left-sweep cells ending at node ``i``.  The weights are
    built ``_DIRECT_ROWS`` rows at a time over the columns ``k >= i0`` of
    the block's first row; only the block's diagonal square holds pairs
    ``k < i``, clamped before the ``exp`` (so it cannot overflow) and
    zeroed after it.  The products are einsum sums rather than BLAS gemv,
    whose threads would spin on the core of a concurrently running process.
    """
    n = lam.size
    # the right-sweep cells by their left node, the left-sweep cells by their right node
    a, b = cells = np.zeros((2, n))
    _panels(w, np.diff(lam), (a[:-1], b[1:]))
    cells *= 0.5
    rows = min(_DIRECT_ROWS, n)
    below = np.tri(rows, rows, -1, dtype=bool)  # the pairs k < i of a diagonal square
    buf = np.empty(rows * n)
    R, L = np.empty(n), np.zeros(n)
    for i0 in range(0, n, rows):
        m = min(rows, n - i0)
        E = buf[:m * (n - i0)].reshape(m, n - i0)
        np.subtract(lam[i0:i0 + m, None], lam[None, i0:], out=E)
        square = E[:, :m]
        np.minimum(square, 0.0, out=square)
        np.exp(E, out=E)
        square[below[:m, :m]] = 0.0
        R[i0:i0 + m] = np.einsum("ij,j->i", E, a[i0:])
        L[i0:] += np.einsum("ki,k->i", E, b[i0:i0 + m])
    return R - L, R + L


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def convected_pair(w: GridFunction, q: GridFunction):
    """Both kernel integrals of ``(w, q)`` at once by the O(N) sweeps of
    :func:`kernel_pair_arrays`, which the solver calls directly.  Returns
    ``(odd, even)`` as grid functions; :func:`kernel_pair_direct` is the
    O(N^2) oracle they are tested against.  Raises ``ValueError`` unless
    ``q > 0`` everywhere, so that the flow coordinate strictly increases.
    """
    if w.grid != q.grid:
        raise ValueError("grid functions live on different grids")
    if not np.all(q.values > 0.0):
        raise ValueError("stretch q must be positive everywhere, so the flow coordinate increases")
    odd, even = kernel_pair_arrays(w.values, cumulative_flow_values(q.values, q.grid.h))
    return GridFunction(w.grid, odd), GridFunction(w.grid, even)


def helmholtz_inverse(f: GridFunction) -> GridFunction:
    """Smoothing inverse of ``1 - d^2/dx^2``: convolution with ``0.5 e^{-|x|}``,
    the even kernel integral at unit stretch."""
    return GridFunction(f.grid, _sweeps(f.values, _unit_geometry(f.grid))[1])


def green_derivative(f: GridFunction) -> GridFunction:
    """Spatial derivative of :func:`helmholtz_inverse`, via the sign-split
    (odd) kernel integral at unit stretch."""
    return GridFunction(f.grid, _sweeps(f.values, _unit_geometry(f.grid))[0])
