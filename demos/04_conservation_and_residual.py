# Conservation, the equation residual, and an independent oracle
# ===============================================================
#
# Three ways to catch a wrong solver: invariant integrals must not drift,
# the reconstruction must satisfy the evolution equation pointwise, and an
# unrelated discretization must converge to the same limit.

import numpy as np

from fwsolver import (Grid, SolverConfig, ball_geometry, conserved,
                      eulerian_oracle, gaussian, integrate, pde_residual,
                      peakon_residual, reconstruct)

grid = Grid(half_width=10.0, n_points=2001)
u0 = gaussian(grid, a=0.1, sigma=1.0)
geo = ball_geometry(u0)
cfg = SolverConfig(grid=grid)  # 20 steps of T/20, every level stored
traj = integrate(u0, cfg, geo)

# %% The three invariants: the mass, the quadratic integral, and the
# cubic-corrected quadratic int(u*Su - u^3/2) with S the smoothing kernel
# (with this flux normalization that combination is the invariant one).
e0 = conserved(reconstruct(traj.states[0]).u)
eT = conserved(reconstruct(traj.final).u)
for name, a, b in (("e1", e0.e1, eT.e1), ("e2", e0.e2, eT.e2), ("e3", e0.e3, eT.e3)):
    print(f"{name}: {a:+.12f} -> {b:+.12f}   relative drift "
          f"{abs(b - a) / max(abs(a), 1e-3):.2e}")

# %% Pointwise residual of the reconstruction at mid-run: time derivative by
# central differences of snapshots, slope from the snapshot, kernel term on
# the physical grid.  Nothing in it reuses the characteristic right-hand side.
# Level 10 of the 20 stored is T/2; the residual reads the reconstructed
# snapshots of it and its neighbours.
res = pde_residual(map(reconstruct, traj.states[9:12]))
print(f"\ninterior equation residual at T/2: {res:.2e}")

# %% The exact peaked traveling wave isolates the kernel operator: with its
# crest on a node every term but the kernel integral is analytic.
print(f"peaked-wave kernel residual: {peakon_residual(0.0, Grid(40.0, 4001)):.2e}")

# %% Cross-validation against a physical-space method-of-lines solver built
# from a different discretization family (upwind-biased flux differences),
# stepping at the same dt: 10 steps of T/20 to T/2.
u_lag = reconstruct(traj.states[10]).u
u_eul = eulerian_oracle(u0, geo.lifespan / 2, 10)
print(f"characteristic vs oracle at T/2: "
      f"{np.max(np.abs(u_lag.values - u_eul.values)):.2e}")
