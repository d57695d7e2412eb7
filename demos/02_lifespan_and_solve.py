# Guaranteed lifespan and a characteristic-coordinate solve
# =========================================================
#
# The construction gives hard numbers before any time stepping happens:
# from the data norm alone it fixes the Lipschitz constant (50/9) r of the
# characteristic system and the two-sided lifespan T = 9/(100 r) on which
# everything it promises is supposed to hold.  This script computes them,
# integrates to T, and checks the promises the run can check directly.

import numpy as np

from fwsolver import (Grid, SolverConfig, ball_geometry, c1_norm, chain_rule_defect,
                      gaussian, integrate, sup_norm)

grid = Grid(half_width=10.0, n_points=2001)
u0 = gaussian(grid, a=0.1, sigma=1.0)

geo = ball_geometry(u0, r0=0.1)
print(f"product-space norm of the initial state : {geo.state_norm:.6f}")
print(f"ball bound r = r0 + norm                : {geo.r:.6f}")
print(f"Lipschitz constant (50/9) r             : {geo.lipschitz_const:.6f}")
print(f"guaranteed lifespan T = 9/(100 r)       : {geo.lifespan:.6f}")
print(f"data-norm-only lifespan (larger, not enforced): {geo.lifespan_naive:.6f}")

# %% Integrate to T with fixed-step RK4, by default 20 steps of T/20.
cfg = SolverConfig(grid=grid, t_end=geo.lifespan, store_every=2)
traj = integrate(u0, cfg, geo)
print("\nrun completed without guard breach:", traj.breach is None)

# %% The solution never leaves the ball of radius r, and the stretch factor
# stays pinched around 1, both exactly as promised.
worst_norm = max(c1_norm(s.w) + sup_norm(s.v) + sup_norm(s.q) for s in traj.states)
print(f"max state norm over the run  : {worst_norm:.6f}  (bound {geo.r:.6f})")
min_q = min(float(np.min(s.q.values)) for s in traj.states)
print(f"min stretch factor           : {min_q:.6f}  "
      f"(bound {1 - 1.5 * geo.r * geo.lifespan:.6f})")

# %% The carried slope v stays compatible with the spatial derivative of w
# through the chain rule; the defect is pure discretization error.
print(f"chain-rule defect at T       : {chain_rule_defect(traj.final):.3e}")

# %% Backward in time works the same way (the guarantee is two-sided).
back = integrate(u0, SolverConfig(grid=grid, t_end=-geo.lifespan,
                                  store_every=400), geo)
print(f"backward run reaches t = {back.final.t:.6f} cleanly:", back.breach is None)
