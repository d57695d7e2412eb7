# The nonlocal operators behind the solver
# ========================================
#
# The equation's dispersive term is convolution with the exponential kernel
# 0.5*exp(-|x|) (the inverse of 1 - d^2/dx^2) and its spatial derivative.
# Along characteristics the same kernels reappear with distance measured in
# the stretched coordinate Lambda(x) = int q.  This script shows the closed
# forms they must reproduce and the two evaluation routes.

import time

import numpy as np

from fwsolver import (Grid, GridFunction, convected_pair, cumulative_flow_values,
                      green_derivative, helmholtz_inverse)
from fwsolver.kernels import kernel_pair_direct

grid = Grid(half_width=30.0, n_points=3001)
x = grid.x

# %% Closed form: the kernel convolved with e^{-|x|} is (1+|x|)e^{-|x|}/2.
f = GridFunction(grid, np.exp(-np.abs(x)))
smoothed = helmholtz_inverse(f)
exact = 0.5 * (1.0 + np.abs(x)) * np.exp(-np.abs(x))
print("smoothing kernel, closed-form sup error:",
      np.max(np.abs(smoothed.values - exact)))

# Its derivative has the sign-split form, odd in x.
slope = green_derivative(f)
exact_d = -np.sign(x) * 0.5 * np.abs(x) * np.exp(-np.abs(x))
print("derivative kernel, closed-form sup error:",
      np.max(np.abs(slope.values - exact_d)))

# %% In flow coordinates with unit stretch the operators collapse exactly
# (bit for bit) to the fixed-grid ones.
ones = GridFunction(grid, np.ones(grid.n_points))
odd, even = convected_pair(f, ones)
print("collapse at q = 1 is bitwise:",
      np.array_equal(odd.values, slope.values)
      and np.array_equal(even.values, smoothed.values))

# %% The O(N) sweeps against the O(N^2) direct summation, on a stretched
# coordinate this time.
q = GridFunction(grid, 1.0 + 0.08 * np.sin(0.3 * x))
w = GridFunction(grid, np.exp(-0.1 * x ** 2) * np.cos(x))

t0 = time.perf_counter()
fast_odd, fast_even = convected_pair(w, q)
t_fast = time.perf_counter() - t0

t0 = time.perf_counter()
dir_odd, dir_even = kernel_pair_direct(w.values, cumulative_flow_values(q.values, grid.h))
t_direct = time.perf_counter() - t0

rel = np.max(np.abs(fast_even.values - dir_even)) / np.max(np.abs(dir_even))
print(f"fast path {t_fast * 1e3:.2f} ms, direct path {t_direct * 1e3:.1f} ms, "
      f"relative disagreement {rel:.2e}")
