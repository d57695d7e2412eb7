# Past the guarantee: watching waves break
# =========================================
#
# The guaranteed lifespan is a floor, not a ceiling.  Integrating beyond it
# (guards downgraded to warnings) shows two regimes: small data coasts far
# past the guarantee, while steep data genuinely breaks, which in these
# coordinates is the stretch factor of the flow map crashing to zero.  The
# guard floor turns that crash into a clean, located stop.

from fwsolver import (Grid, SolverConfig, ball_geometry, gaussian, sech2,
                      wave_breaking_probe)

# %% Small data: nothing happens for five guaranteed lifespans.
grid = Grid(half_width=15.0, n_points=601)
u0 = gaussian(grid, a=0.05, sigma=1.0)
geo = ball_geometry(u0)
cfg = SolverConfig(grid=grid, dt=geo.lifespan / 40, guard_mode="warn",
                   store_every=10 ** 6)
traj = wave_breaking_probe(u0, cfg, t_max=5.0 * geo.lifespan)
print(f"small bump to 5T = {5 * geo.lifespan:.4f}: "
      f"breach = {traj.breach}, min stretch = {traj.final.y[2].min():.4f}")

# %% Steep data: the breach time comes down as the profile steepens.
grid = Grid(half_width=20.0, n_points=801)
cfg = SolverConfig(grid=grid, dt=2e-3, guard_mode="warn", store_every=10 ** 6)
print("\namplitude   breach time   breach location")
for a in (1.0, 1.5, 2.0, 3.0):
    u0 = sech2(grid, a=a, k=1.0)
    breach = wave_breaking_probe(u0, cfg, t_max=2.0).breach  # None if it never breaks
    t, x = (None, None) if breach is None else (breach.t, breach.x)
    print(f"{a:9.1f}   {t!s:>11}   {x!s:>15}")
