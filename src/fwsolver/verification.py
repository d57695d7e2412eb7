"""Quantitative verification checks, each pinning one guarantee of the
construction to a measurable number with a fixed tolerance.

The checks are written against a configurable scenario (grid size, domain,
step count) so the CLI can run them on user settings; the defaults are the
reference configuration the test suite pins.  Expensive runs are cached on
the suite object and shared between checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, GridFunction, c1_norm, derivative_values, sup_norm
from .kernels import (DEFAULT_Q_FLOOR, convected_pair, cumulative_flow_values,
                      green_derivative, helmholtz_inverse, kernel_pair_arrays,
                      kernel_pair_direct)
from .lagrangian import (LagrangianState, SolverConfig, _rhs_arrays, ball_geometry,
                         integrate, chain_rule_defect, step)
from .flowmap import (FlowMap, _pull_back, flow_map, inverse_slope_bounds, map_slopes,
                      reconstruct, slope_bounds, FlowMapError)
from .diagnostics import (conserved, continuity_experiment, eulerian_oracle,
                          pde_residual, peakon_residual)
from .profiles import gaussian

__all__ = ["CheckResult", "VerificationSuite", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict
    requirement: str
    runtime: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{tag} {self.name}: {body}  [{self.requirement}]  ({self.runtime:.2f}s)"


def _fmt(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


_CONVERGED = 1e-13  # errors below this count as already converged


def _fit_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h).

    Degenerate data (all errors at the convergence floor, e.g. the zero
    solution) reports an infinite order rather than a meaningless fit.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if np.max(errs) <= _CONVERGED:
        return math.inf
    errs = np.maximum(errs, 1e-300)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


@dataclass
class VerificationSuite:
    """Scenario-parametrized check battery with cached reference runs.

    ``n`` and ``half_width`` shape the canonical smooth-bump run (the
    refinement checks also use half and double resolution); the kernel
    closed-form checks carry their own pinned grids.  The default domain
    keeps the ends far enough out that the truncation mismatch between
    the two solver routes (which decays like ``exp(-X)``) sits below the
    finest grid's discretization error.
    """

    n: int = 2001
    half_width: float = 20.0
    amplitude: float = 0.1
    sigma: float = 1.0
    r0: float = 0.1
    steps: int = 400
    seed: int = 2024
    _runs: dict = field(default_factory=dict, repr=False)
    _oracles: dict = field(default_factory=dict, repr=False)

    # -- cached canonical runs -------------------------------------------

    def _grid(self, n: int) -> Grid:
        return Grid(self.half_width, n)

    def _data(self, n: int) -> GridFunction:
        return gaussian(self._grid(n), a=self.amplitude, sigma=self.sigma)

    def geometry(self):
        return ball_geometry(self._data(self.n), self.r0)

    def run(self, n: int, steps: int):
        """Lagrangian run of the canonical data to its guaranteed lifespan."""
        key = (n, steps)
        if key not in self._runs:
            u0 = self._data(n)
            geo = ball_geometry(u0, self.r0)
            cfg = SolverConfig(grid=self._grid(n), dt=geo.lifespan / steps,
                               t_end=geo.lifespan, r0=self.r0, store_every=1)
            self._runs[key] = integrate(u0, cfg, geo)
        return self._runs[key]

    def oracle(self, n: int, steps: int):
        """Physical-space oracle run of the same data to half the lifespan."""
        key = (n, steps)
        if key not in self._oracles:
            u0 = self._data(n)
            geo = ball_geometry(u0, self.r0)
            cfg = SolverConfig(grid=self._grid(n), dt=(geo.lifespan / 2) / steps,
                               t_end=geo.lifespan / 2, r0=self.r0, store_every=steps)
            self._oracles[key] = eulerian_oracle(u0, cfg)
        return self._oracles[key]

    def _resolutions(self):
        half = (self.n - 1) // 2 + 1
        double = 2 * (self.n - 1) + 1
        return half, self.n, double

    # -- individual checks ------------------------------------------------

    def check_kernel_closed_form(self, n: int = 3001, half_width: float = 30.0) -> CheckResult:
        """Collapse to the fixed-grid operators at unit stretch, and the
        exponential-profile convolution against its closed form."""
        t0 = time.perf_counter()
        grid = Grid(half_width, n)
        x = grid.x
        w = GridFunction(grid, np.exp(-np.abs(x)))
        ones = GridFunction(grid, np.ones(n))
        odd, even = convected_pair(w, ones)
        collapse_odd = bool(np.array_equal(odd.values, green_derivative(w).values))
        collapse_even = bool(np.array_equal(even.values, helmholtz_inverse(w).values))
        exact_even = 0.5 * (1.0 + np.abs(x)) * np.exp(-np.abs(x))
        exact_odd = -np.sign(x) * 0.5 * np.abs(x) * np.exp(-np.abs(x))
        err_even = float(np.max(np.abs(even.values - exact_even)))
        err_odd = float(np.max(np.abs(odd.values - exact_odd)))
        passed = collapse_odd and collapse_even and err_even <= 1e-6 and err_odd <= 1e-6
        return CheckResult(
            "kernel_closed_form", passed,
            {"collapse_bitwise": collapse_odd and collapse_even,
             "sup_err_even": err_even, "sup_err_odd": err_odd},
            "bitwise collapse at q=1; closed-form sup error <= 1e-6",
            time.perf_counter() - t0)

    def check_fast_vs_direct(self, n: int = 1501, pairs: int = 20) -> CheckResult:
        """O(N) sweeps against the O(N^2) oracle on randomized data."""
        t0 = time.perf_counter()
        grid = Grid(20.0, n)
        x = grid.x
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        h = grid.h
        for _ in range(pairs):
            envelope = np.exp(-0.5 * (x / 8.0) ** 2)
            w = envelope * sum(c * np.cos((k + 1) * 0.4 * x + p)
                               for k, (c, p) in enumerate(zip(rng.normal(size=5),
                                                              rng.uniform(0, 2 * np.pi, 5))))
            q = 1.0 + 0.1 * np.sin(rng.uniform(0.2, 0.7) * x + rng.uniform(0, 2 * np.pi))
            lam = cumulative_flow_values(q, h)
            fo, fe = kernel_pair_arrays(w, lam)
            do, de = kernel_pair_direct(w, lam)
            rel_o = np.max(np.abs(fo - do)) / max(np.max(np.abs(do)), 1e-300)
            rel_e = np.max(np.abs(fe - de)) / max(np.max(np.abs(de)), 1e-300)
            worst = max(worst, rel_o, rel_e)
        return CheckResult(
            "fast_vs_direct", worst <= 1e-10,
            {"pairs": pairs, "worst_rel_disagreement": worst},
            "relative sup disagreement <= 1e-10",
            time.perf_counter() - t0)

    def check_lifespan_arithmetic(self) -> CheckResult:
        """The contraction constants and guaranteed lifespan, exactly."""
        t0 = time.perf_counter()
        grid = Grid(10.0, 101)
        zero = GridFunction(grid, np.zeros(101))
        geo0 = ball_geometry(zero, 0.1)
        exact_T = geo0.lifespan == 9.0 / (100.0 * geo0.r)
        exact_L = geo0.lipschitz_const == (50.0 / 9.0) * geo0.r
        t_err = abs(geo0.lifespan - 9.0 / 110.0)
        half_L = abs(1.0 / (2.0 * geo0.lipschitz_const) - geo0.lifespan)
        rejected = False
        try:
            ball_geometry(zero, 1.0 / 9.0)
        except ValueError:
            rejected = True
        passed = exact_T and exact_L and t_err <= 1e-16 and half_L <= 1e-16 and rejected
        return CheckResult(
            "lifespan_arithmetic", passed,
            {"T_zero_data": geo0.lifespan, "err_vs_9_110": t_err,
             "T_equals_1_over_2L": half_L, "r0_at_bound_rejected": rejected},
            "T = 9/(100 r) exactly; zero data gives 9/110; r0 = 1/9 rejected",
            time.perf_counter() - t0)

    def check_flow_map_bounds(self) -> CheckResult:
        """Forward and inverse slope bands for the canonical run, plus the
        synthetically saturated extreme map."""
        t0 = time.perf_counter()
        traj = self.run(self.n, self.steps)
        geo = traj.geometry
        ok_run = True
        try:
            for state in traj.states[:: max(1, len(traj.states) // 20)]:
                slope_bounds(flow_map(state), geo, tol=1e-9)
                inverse_slope_bounds(flow_map(state), geo, tol=1e-9)
        except FlowMapError:
            ok_run = False
        # map with slope pinned at the extreme value reached when r|t| = 9/100
        grid = self._grid(1001)
        t_sat = 0.09 / geo.r
        sat = FlowMap(grid, (173.0 / 200.0) * grid.x, t_sat)
        smin = float(np.min(map_slopes(sat)))
        inv_lo, inv_hi = inverse_slope_bounds(sat, geo, tol=1e-3)
        sat_ok = (smin >= 173.0 / 200.0 - 1e-3
                  and inv_lo >= 200.0 / 227.0 - 1e-3
                  and inv_hi <= 200.0 / 173.0 + 1e-3)
        return CheckResult(
            "flow_map_bounds", ok_run and sat_ok,
            {"run_in_band": ok_run, "saturated_min_slope": smin,
             "saturated_inverse_range": (round(inv_lo, 9), round(inv_hi, 9))},
            "slopes within 1 -+ (3/2) r t; saturated map >= 173/200, inverse in [200/227, 200/173]",
            time.perf_counter() - t0)

    def check_size_estimate(self) -> CheckResult:
        """The solution never exceeds twice the size of the data."""
        t0 = time.perf_counter()
        traj = self.run(self.n, self.steps)
        u0_c1 = c1_norm(self._data(self.n))
        worst = 0.0
        for snap, in _pull_back(traj.states):
            worst = max(worst, sup_norm(snap.u) + sup_norm(snap.ux))
        bound = 2.0 * u0_c1 * (1.0 + 1e-2)
        return CheckResult(
            "size_estimate", worst <= bound,
            {"sup_c1_over_time": worst, "bound": bound},
            "sup_t (sup|u| + sup|ux|) <= 2 |u0|_C1 (1 + 1e-2)",
            time.perf_counter() - t0)

    def check_chain_rule(self) -> CheckResult:
        """Compatibility of the carried slope with the spatial derivative,
        and its second-order decay under grid refinement."""
        t0 = time.perf_counter()
        _, n, double = self._resolutions()
        d_n = chain_rule_defect(self.run(n, self.steps).final)
        d_2n = chain_rule_defect(self.run(double, self.steps).final)
        ratio = math.inf if d_n <= _CONVERGED else d_n / max(d_2n, 1e-300)
        passed = d_n <= 1e-3 and ratio >= 3.5
        return CheckResult(
            "chain_rule", passed,
            {"defect": d_n, "halving_ratio": ratio},
            "defect <= 1e-3 and >= 3.5x decay when h is halved",
            time.perf_counter() - t0)

    def check_conservation_drift(self) -> CheckResult:
        """Drift of the three invariants over the run, decreasing under
        refinement (or already at the convergence floor)."""
        t0 = time.perf_counter()
        half, n, _ = self._resolutions()

        def drifts(nn, steps):
            traj = self.run(nn, steps)
            e0 = conserved(reconstruct(traj.states[0]).u).as_array()
            eT = conserved(reconstruct(traj.final).u).as_array()
            return np.abs(eT - e0) / np.maximum(np.abs(e0), 1e-3)

        d_coarse = drifts(half, self.steps // 2)
        d_fine = drifts(n, self.steps)
        small = bool(np.all(d_fine <= 1e-5))
        shrinking = bool(np.all((d_fine <= d_coarse) | (d_fine <= 1e-6)))
        return CheckResult(
            "conservation_drift", small and shrinking,
            {"drift_e1": float(d_fine[0]), "drift_e2": float(d_fine[1]),
             "drift_e3": float(d_fine[2]), "shrinking": shrinking},
            "relative drift <= 1e-5 each, decreasing under refinement",
            time.perf_counter() - t0)

    def check_oracle_agreement(self) -> CheckResult:
        """Characteristic route against the physical-space oracle at half
        the lifespan, with the empirical convergence order of the gap.

        The comparison composes through the C2 spline for the same reason
        the residual does: the gap being measured is between the two
        semidiscretizations, and the shape-preserving interpolant's
        derivative kinks at the crest would otherwise wander with the
        in-cell phase and spoil the order fit.
        """
        t0 = time.perf_counter()
        half, n, double = self._resolutions()
        dists, hs = [], []
        for nn, steps in ((half, self.steps // 2), (n, self.steps), (double, 2 * self.steps)):
            traj = self.run(nn, steps)
            mid = traj.state_at(traj.geometry.lifespan / 2)
            u_lag = reconstruct(mid, smooth=True).u
            u_eul = self.oracle(nn, steps).final.u
            dists.append(float(np.max(np.abs(u_lag.values - u_eul.values))))
            hs.append(self._grid(nn).h)
        order = _fit_order(hs, dists)
        passed = dists[1] <= 1e-3 and order >= 1.8
        return CheckResult(
            "oracle_agreement", passed,
            {"sup_distance": dists[1], "order": order},
            "sup distance at T/2 <= 1e-3, empirical order >= 1.8",
            time.perf_counter() - t0)

    def check_pde_residual(self) -> CheckResult:
        """Interior residual of the reconstruction, its joint-refinement
        order, and the corner-profile residual that isolates the kernel."""
        t0 = time.perf_counter()
        half, n, _ = self._resolutions()

        def mid_residual(nn, steps):
            traj = self.run(nn, steps)
            return pde_residual(traj, traj.geometry.lifespan / 2)

        r_coarse = mid_residual(half, self.steps // 2)
        r_fine = mid_residual(n, self.steps)
        order = (math.inf if r_coarse <= _CONVERGED
                 else math.log2(r_coarse / max(r_fine, 1e-300)))
        corner = peakon_residual(0.0, Grid(40.0, 4001))
        passed = r_fine <= 1e-3 and order >= 1.8 and corner <= 1e-6
        return CheckResult(
            "pde_residual", passed,
            {"residual": r_fine, "joint_order": order, "corner_profile_residual": corner},
            "residual <= 1e-3, joint order >= 1.8, corner-profile residual <= 1e-6",
            time.perf_counter() - t0)

    def check_slope_ode_closed_form(self) -> CheckResult:
        """Degenerate flat-profile system against its separable solution,
        confirming fourth-order time accuracy."""
        t0 = time.perf_counter()
        grid = Grid(5.0, 101)
        v0, t_end = 0.3, 0.4
        errs = []
        for n_steps in (8, 16, 32):
            state = LagrangianState(
                t=0.0,
                w=GridFunction(grid, np.zeros(101)),
                v=GridFunction(grid, np.full(101, v0)),
                q=GridFunction(grid, np.ones(101)),
                displacement=GridFunction(grid, np.zeros(101)),
            )
            dt = t_end / n_steps
            for _ in range(n_steps):
                state = step(state, dt)
            v_exact = v0 / (1.0 + 1.5 * v0 * t_end)
            q_exact = 1.0 + 1.5 * v0 * t_end
            errs.append(max(float(np.max(np.abs(state.v.values - v_exact))),
                            float(np.max(np.abs(state.q.values - q_exact)))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        passed = min(orders) >= 3.8
        return CheckResult(
            "slope_ode_closed_form", passed,
            {"errors": tuple(f"{e:.2e}" for e in errs), "min_order": min(orders)},
            "global error order >= 3.8 against the separable closed form",
            time.perf_counter() - t0)

    def check_continuity(self, n: int | None = None) -> CheckResult:
        """Lipschitz stability in the sup norm and the interpolated-space
        scaling of the data-to-solution map."""
        t0 = time.perf_counter()
        n = n if n is not None else min(self.n, 1001)
        grid = self._grid(n)
        u0 = gaussian(grid, a=self.amplitude, sigma=self.sigma)
        geo = ball_geometry(u0, self.r0)
        cfg = SolverConfig(grid=grid, dt=geo.lifespan / 200, t_end=geo.lifespan,
                           r0=self.r0, store_every=10)
        pert = GridFunction(grid, np.exp(-((grid.x - 1.0) ** 2)))
        eps = [2e-2, 6.3e-3, 2e-3, 6.3e-4, 2e-4, 6.3e-5, 2e-5]
        alphas = [0.25, 0.5, 0.75]
        report = continuity_experiment(u0, pert, eps, alphas, cfg)
        ratios = np.asarray(report.lipschitz_ratios)
        variation = float((ratios.max() - ratios.min()) / ratios.max())
        exp_ok = all(report.fitted_exponent[a] >= (1.0 - a) - 0.1 for a in alphas)
        passed = variation <= 0.2 and exp_ok
        return CheckResult(
            "continuity", passed,
            {"lipschitz_ratio_max": report.lipschitz_ratio_max,
             "ratio_variation": variation,
             **{f"exponent_alpha_{a}": report.fitted_exponent[a] for a in alphas}},
            "ratio variation <= 20% over 3 decades; exponent >= (1 - alpha) - 0.1",
            time.perf_counter() - t0)

    def check_lipschitz_sampling(self, pairs: int = 100) -> CheckResult:
        """Difference quotients of the right-hand side over random state
        pairs in the admissible ball, against the proven constant."""
        t0 = time.perf_counter()
        n = min(self.n, 1001)
        grid = self._grid(n)
        x = grid.x
        h = grid.h
        u0 = gaussian(grid, a=self.amplitude, sigma=self.sigma)
        v0 = derivative_values(u0.values, h)
        geo = ball_geometry(u0, self.r0)
        bound = geo.lipschitz_const + 0.5
        rng = np.random.default_rng(self.seed)
        envelope = np.exp(-0.5 * (x / 4.0) ** 2)

        def wiggle(scale):
            f = envelope * sum(c * np.cos((k + 1) * 0.35 * x + p)
                               for k, (c, p) in enumerate(zip(rng.normal(size=4),
                                                              rng.uniform(0, 2 * np.pi, 4))))
            return scale * f / max(np.max(np.abs(f)), 1e-12)

        def rand_state():  # packed (w, v, q, displacement)
            return np.stack([u0.values + wiggle(0.02), v0 + wiggle(0.02),
                             1.0 + wiggle(0.03), np.zeros(n)])

        def ball_norm(d):  # |w|_C1 + sup|v| + sup|q| of a packed difference
            return (np.max(np.abs(d[0])) + np.max(np.abs(derivative_values(d[0], h)))
                    + np.max(np.abs(d[1])) + np.max(np.abs(d[2])))

        worst = 0.0
        for _ in range(pairs):
            y1, y2 = rand_state(), rand_state()
            dk = _rhs_arrays(y1, h, DEFAULT_Q_FLOOR) - _rhs_arrays(y2, h, DEFAULT_Q_FLOOR)
            worst = max(worst, float(ball_norm(dk) / ball_norm(y1 - y2)))
        return CheckResult(
            "lipschitz_sampling", worst <= bound,
            {"pairs": pairs, "worst_ratio": worst, "bound": bound},
            "difference quotient <= (50/9) r + 0.5 over random ball pairs",
            time.perf_counter() - t0)

    # -- driver -----------------------------------------------------------

    def run_all(self) -> list:
        return [getattr(self, f"check_{name}")() for name in CHECK_NAMES]


CHECK_NAMES = (
    "kernel_closed_form",
    "fast_vs_direct",
    "lifespan_arithmetic",
    "flow_map_bounds",
    "size_estimate",
    "chain_rule",
    "conservation_drift",
    "oracle_agreement",
    "pde_residual",
    "slope_ode_closed_form",
    "continuity",
    "lipschitz_sampling",
)
