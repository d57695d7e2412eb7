# The flow map: bounds, inversion, and reconstruction
# ====================================================
#
# The solver never advances the physical profile directly; it advances data
# along characteristics and composes with the inverse of the flow map
# eta(x, t) = x + displacement.  Well-posedness rests on eta staying an
# invertible change of coordinates, with slope bounds that are explicit
# numbers.  This script measures all of them on a run.

import numpy as np

from fwsolver import (Grid, SolverConfig, ball_geometry, c1_norm, flow_map,
                      gaussian, integrate, inverse_slope_bounds, invert_many,
                      map_slopes, reconstruct, slope_bounds, sup_norm)

grid = Grid(half_width=10.0, n_points=2001)
u0 = gaussian(grid, a=0.1, sigma=1.0)
geo = ball_geometry(u0)
traj = integrate(u0, SolverConfig(grid=grid, store_every=40), geo)

# %% Forward and inverse slope bands at the end of the guaranteed window.
fmap = flow_map(traj.final)
rt = 1.5 * geo.r * traj.final.t
lo, hi = slope_bounds(fmap, geo)
print(f"forward slopes  [{lo:.6f}, {hi:.6f}]  within 1 -+ {rt:.4f}")
ilo, ihi = inverse_slope_bounds(fmap, geo)
print(f"inverse slopes  [{ilo:.6f}, {ihi:.6f}]")
print(f"extreme admissible values would be 173/200 = {173 / 200} and "
      f"200/173 = {200 / 173:.6f}")

# %% Inversion is exact at map values of the nodes.
i = 777
labels, inside = invert_many(fmap, fmap.positions[[i]])
print("node round trip exact:", inside[0] and labels[0] == grid.x[i])

# %% Reconstruction: the physical profile is the carried wave height pulled
# back through the inverse map; its slope uses the carried slope directly.
snap = reconstruct(traj.final)
print(f"\nsup|u(T)|  = {sup_norm(snap.u):.6f}")
print(f"sup|ux(T)| = {sup_norm(snap.ux):.6f}")
print(f"size estimate: {sup_norm(snap.u) + sup_norm(snap.ux):.6f} "
      f"<= 2 |u0|_C1 = {2 * c1_norm(u0):.6f}")
print(f"nodes outside the image (zeroed): {snap.out_of_image}")

# %% The stretch factor is the map's derivative computed through an entirely
# different route (its own ODE); the two stay consistent.
slopes = map_slopes(fmap)
q_mid = 0.5 * (traj.final.q.values[:-1] + traj.final.q.values[1:])
print(f"\n|q - map slope| = {np.max(np.abs(slopes - q_mid)):.2e}")
