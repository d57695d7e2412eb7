"""Quantitative verification checks, each pinning one guarantee of the
construction to a measurable number with a fixed tolerance.

A suite runs on one run description, ``(SolverConfig, profile spec)``, of
which only the grid, ``r0`` and the data shape the canonical runs: the
battery's tolerances rest on its own time steps and guards, so a config that
sets any other field is rejected.  The refinement checks share one cached run
per resolution: half, the configured and double ``n``, in ``STEPS // 2``,
``STEPS`` and ``2 * STEPS`` steps (20, 40 and 80), so dt shrinks with h as
the joint order of ``pde_residual`` requires; the physical-space oracle of
``oracle_agreement`` steps at its run's dt.  ``continuity`` runs at the
solver's default step, a twentieth of the lifespan, and keeps every level.
Each run streams its levels and keeps five, those its readers use; the
flow-map and size verdicts are made on every level of the configured run
as it streams.  :meth:`VerificationSuite.run_all` runs the checks of
:data:`WORKER_CHECKS`, which read no cached run, in one forked worker
process beside the others.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import Grid, GridFunction, c1_norm, derivative_values, sup_norm
from .kernels import (convected_pair, cumulative_flow_values, green_derivative,
                      helmholtz_inverse, kernel_pair_arrays, kernel_pair_direct)
from .lagrangian import (LagrangianState, SolverConfig, _norm, _rhs_arrays, ball_geometry,
                         chain_rule_defect, keep_levels, step, stream_levels)
from .flowmap import (FlowMap, flow_map, inverse_slope_bounds, map_slopes, reconstruct,
                      slope_bounds, FlowMapError)
from .diagnostics import (conserved, continuity_experiment, eulerian_oracle,
                          pde_residual, peakon_residual)
from .profiles import make_profile

__all__ = ["CheckResult", "VerificationSuite", "CHECK_NAMES"]

STEPS = 40  # RK4 steps to the lifespan at the configured n; half and double n scale them
SEED = 2024  # random data of fast_vs_direct and lipschitz_sampling
CLOSED_FORM_GRID = (30.0, 3001)  # (X, n) of kernel_closed_form
DIRECT_N, DIRECT_PAIRS = 1501, 20  # grid size and random pairs of fast_vs_direct
SMALL_N = 1001  # cap on n for continuity and lipschitz_sampling
LIPSCHITZ_PAIRS = 100
# the forked worker's checks: the slowest of those that never call
# VerificationSuite.run, and the two that draw from numpy.random, whose first
# use would cost the fw process 5.5 MiB
WORKER_CHECKS = ("fast_vs_direct", "continuity", "lipschitz_sampling")


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
    return f"{v:.4g}" if isinstance(v, float) else str(v)


_CONVERGED = 1e-13  # errors below this count as already converged


def _fit_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h).

    Degenerate data (all errors at the convergence floor, e.g. the zero
    solution) reports an infinite order rather than a meaningless fit.
    """
    errs = np.asarray(errs, dtype=float)
    if np.max(errs) <= _CONVERGED:
        return math.inf
    errs = np.maximum(errs, 1e-300)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def _packet(rng, x, width: float, wavenumber: float, terms: int):
    """Gaussian envelope of ``width`` times ``terms`` cosines, the k-th at wavenumber
    ``(k + 1) * wavenumber``; draws amplitudes ``rng.normal``, then phases ``rng.uniform``."""
    waves = enumerate(zip(rng.normal(size=terms), rng.uniform(0, 2 * np.pi, terms)))
    return np.exp(-0.5 * (x / width) ** 2) * sum(c * np.cos((k + 1) * wavenumber * x + p)
                                                 for k, (c, p) in waves)


def _in_band(fmap, geo, tol: float) -> bool:
    """Whether ``fmap`` keeps its forward and inverse slopes in band at ``tol``."""
    try:
        slope_bounds(fmap, geo, tol=tol)
        inverse_slope_bounds(fmap, geo, tol=tol)
    except FlowMapError:
        return False
    return True


def _judge(levels, geo) -> tuple:
    """``(in_band, sup_c1)`` over every state of ``levels``: whether each
    map is in band at tol 1e-9, and the largest ``sup|u| + sup|ux|`` of the
    pull-backs."""
    in_band, worst = True, 0.0
    for state in levels:
        in_band = in_band and _in_band(flow_map(state), geo, 1e-9)
        snap = reconstruct(state)
        worst = max(worst, sup_norm(snap.u) + sup_norm(snap.ux))
    return in_band, worst


def _check(requirement: str):
    """Make a check body that returns ``(passed, measured)`` into a suite
    method that returns its timed :class:`CheckResult`, named after the
    method (``check_<name>``)."""
    def decorate(body):
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check(self) -> CheckResult:
            t0 = time.perf_counter()
            passed, measured = body(self)
            return CheckResult(name, passed, measured, requirement, time.perf_counter() - t0)

        return check

    return decorate


@dataclass
class VerificationSuite:
    """Check battery on one run description, with cached reference runs.

    ``config.grid`` shapes the canonical runs of ``profile`` (the refinement
    checks also use half and double resolution); the kernel closed-form
    checks carry their own pinned grids.  The reference domain, X = 20,
    keeps the ends far enough out that the truncation mismatch between the
    two solver routes (which decays like ``exp(-X)``) sits below the finest
    grid's discretization error.
    """

    config: SolverConfig
    profile: str = "gaussian:a=0.1,sigma=1"
    _runs: dict = field(default_factory=dict, init=False, repr=False)
    _judged: tuple = field(default=(), init=False, repr=False)  # _judge of the configured run

    def __post_init__(self):
        used = SolverConfig(grid=self.config.grid, r0=self.config.r0)
        if self.config != used:
            ignored = [f.name for f in fields(used)
                       if getattr(self.config, f.name) != getattr(used, f.name)]
            raise ValueError("verify uses only X, n_points, r0 and the profile; "
                             f"it picks its own {', '.join(ignored)}")
        # data the checks cannot run on (a CSV holds one grid; r0 >= 1/9) fails here
        sizes = sorted({*self._resolutions(), min(self.n, SMALL_N)})
        try:
            data = [self._data(n) for n in sizes]
        except ValueError as err:
            raise ValueError(f"{err}; verify runs the profile at n = "
                             f"{', '.join(map(str, sizes))}") from None
        for u0 in data:
            ball_geometry(u0, self.config.r0)

    # -- cached canonical runs -------------------------------------------

    @property
    def n(self) -> int:
        return self.config.grid.n_points

    def _data(self, n: int) -> GridFunction:
        return make_profile(self.profile, Grid(self.config.grid.half_width, n))

    def run(self, n: int):
        """The one Lagrangian run at resolution ``n``, a key of :meth:`_resolutions`,
        to the guaranteed lifespan.  It stores every step and keeps t = 0, the
        three levels around T/2 and T, all that its readers need, so T/2 is the
        middle kept level.  The run at the configured ``n`` also sets
        :attr:`_judged` from every level as it streams.
        A run that a guard cuts short raises its :class:`GuardBreach`."""
        if n not in self._runs:
            steps = self._resolutions()[n]
            u0 = self._data(n)
            geo = ball_geometry(u0, self.config.r0)
            cfg = SolverConfig(grid=u0.grid, dt=geo.lifespan / steps, t_end=geo.lifespan,
                               r0=self.config.r0)
            traj, levels = stream_levels(u0, cfg, geo)
            mid = steps // 2  # the level at T/2
            kept = {}
            levels = keep_levels(levels, kept, lambda i: i in (0, mid - 1, mid, mid + 1),
                                 lambda state: state)
            if n == self.n:
                self._judged = _judge(levels, geo)
            else:
                for _ in levels:
                    pass
            if traj.breach is not None:
                raise traj.breach
            traj.states = list(kept.values())
            self._runs[n] = traj
        return self._runs[n]

    def _resolutions(self) -> dict:
        """RK4 steps of the run at half, the configured and double n, in that order."""
        return {(self.n - 1) // 2 + 1: STEPS // 2, self.n: STEPS,
                2 * (self.n - 1) + 1: 2 * STEPS}

    # -- individual checks, run in this order ----------------------------

    @_check("bitwise collapse at q=1; closed-form sup error <= 1e-6")
    def check_kernel_closed_form(self):
        """Collapse to the fixed-grid operators at unit stretch, and the
        exponential-profile convolution against its closed form."""
        grid = Grid(*CLOSED_FORM_GRID)
        x = grid.x
        w = GridFunction(grid, np.exp(-np.abs(x)))
        ones = GridFunction(grid, np.ones(grid.n_points))
        odd, even = convected_pair(w, ones)
        collapse = (np.array_equal(odd.values, green_derivative(w).values)
                    and np.array_equal(even.values, helmholtz_inverse(w).values))
        exact_even = 0.5 * (1.0 + np.abs(x)) * np.exp(-np.abs(x))
        exact_odd = -np.sign(x) * 0.5 * np.abs(x) * np.exp(-np.abs(x))
        err_even = float(np.max(np.abs(even.values - exact_even)))
        err_odd = float(np.max(np.abs(odd.values - exact_odd)))
        passed = collapse and err_even <= 1e-6 and err_odd <= 1e-6
        return passed, {"collapse_bitwise": collapse,
                        "sup_err_even": err_even, "sup_err_odd": err_odd}

    @_check("relative sup disagreement <= 1e-10")
    def check_fast_vs_direct(self):
        """O(N) sweeps against the O(N^2) oracle on randomized data."""
        grid = Grid(20.0, DIRECT_N)
        x = grid.x
        rng = np.random.default_rng(SEED)
        worst = 0.0
        h = grid.h
        for _ in range(DIRECT_PAIRS):
            w = _packet(rng, x, 8.0, 0.4, 5)
            q = 1.0 + 0.1 * np.sin(rng.uniform(0.2, 0.7) * x + rng.uniform(0, 2 * np.pi))
            lam = cumulative_flow_values(q, h)
            fo, fe = kernel_pair_arrays(w, lam)
            do, de = kernel_pair_direct(w, lam)
            rel_o = np.max(np.abs(fo - do)) / max(np.max(np.abs(do)), 1e-300)
            rel_e = np.max(np.abs(fe - de)) / max(np.max(np.abs(de)), 1e-300)
            worst = max(worst, rel_o, rel_e)
        return worst <= 1e-10, {"pairs": DIRECT_PAIRS, "worst_rel_disagreement": worst}

    @_check("T = 9/(100 r) exactly; zero data gives 9/110; r0 = 1/9 rejected")
    def check_lifespan_arithmetic(self):
        """The contraction constants and guaranteed lifespan, exactly."""
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
        return passed, {"T_zero_data": geo0.lifespan, "err_vs_9_110": t_err,
                        "T_equals_1_over_2L": half_L, "r0_at_bound_rejected": rejected}

    @_check("slopes within 1 -+ (3/2) r t; saturated map >= 173/200, "
            "inverse in [200/227, 200/173]")
    def check_flow_map_bounds(self):
        """Forward and inverse slope bands at every stored level of the canonical run,
        plus the synthetically saturated extreme map (its slopes measured in or out of band)."""
        geo = self.run(self.n).geometry
        ok_run = self._judged[0]
        # map with slope pinned at the extreme value reached when r|t| = 9/100
        grid = Grid(self.config.grid.half_width, 1001)
        sat = FlowMap(grid, (173.0 / 200.0) * grid.x, 0.09 / geo.r)
        slopes = map_slopes(sat)
        inverse = tuple(round(float(f(1.0 / slopes)), 9) for f in (np.min, np.max))
        return ok_run and _in_band(sat, geo, 1e-3), {
            "run_in_band": ok_run, "saturated_min_slope": float(np.min(slopes)),
            "saturated_inverse_range": inverse}

    @_check("sup_t (sup|u| + sup|ux|) <= 2 |u0|_C1 (1 + 1e-2)")
    def check_size_estimate(self):
        """The solution never exceeds twice the size of the data."""
        self.run(self.n)
        worst = self._judged[1]
        u0_c1 = c1_norm(self._data(self.n))
        bound = 2.0 * u0_c1 * (1.0 + 1e-2)
        return worst <= bound, {"sup_c1_over_time": worst, "bound": bound}

    @_check("defect <= 1e-3 and >= 3.5x decay when h is halved")
    def check_chain_rule(self):
        """Compatibility of the carried slope with the spatial derivative,
        and its second-order decay under grid refinement."""
        _, n, double = self._resolutions()
        d_n = chain_rule_defect(self.run(n).final)
        d_2n = chain_rule_defect(self.run(double).final)
        ratio = math.inf if d_n <= _CONVERGED else d_n / max(d_2n, 1e-300)
        passed = d_n <= 1e-3 and ratio >= 3.5
        return passed, {"defect": d_n, "halving_ratio": ratio}

    @_check("relative drift <= 1e-5 each, decreasing under refinement")
    def check_conservation_drift(self):
        """Drift of the three invariants over the run, decreasing under
        refinement (or already at the convergence floor)."""
        half, n, _ = self._resolutions()

        def drifts(nn):
            traj = self.run(nn)
            e0 = np.array(conserved(reconstruct(traj.states[0]).u))
            eT = np.array(conserved(reconstruct(traj.final).u))
            return np.abs(eT - e0) / np.maximum(np.abs(e0), 1e-3)

        d_coarse, d_fine = drifts(half), drifts(n)
        small = bool(np.all(d_fine <= 1e-5))
        shrinking = bool(np.all((d_fine <= d_coarse) | (d_fine <= 1e-6)))
        return small and shrinking, {
            "drift_e1": float(d_fine[0]), "drift_e2": float(d_fine[1]),
            "drift_e3": float(d_fine[2]), "shrinking": shrinking}

    @_check("sup distance at T/2 <= 1e-3, empirical order >= 1.8")
    def check_oracle_agreement(self):
        """Characteristic route against the physical-space oracle at half
        the lifespan, with the empirical convergence order of the gap.  The
        oracle takes half its run's steps to T/2, so both routes share one dt.

        :func:`reconstruct`'s Hermite interpolant has no limiter, which matters
        here as it does for the residual: the gap being measured is between
        the two semidiscretizations, and a limiter's kinks at the crest would
        wander with the in-cell phase and spoil the order fit.
        """
        dists, hs = [], []
        for nn, steps in self._resolutions().items():
            traj = self.run(nn)
            t_half = traj.geometry.lifespan / 2
            u_lag = reconstruct(traj.states[len(traj.states) // 2]).u
            u_eul = eulerian_oracle(self._data(nn), t_half, steps // 2)
            dists.append(float(np.max(np.abs(u_lag.values - u_eul.values))))
            hs.append(u_lag.grid.h)
        order = _fit_order(hs, dists)
        passed = dists[1] <= 1e-3 and order >= 1.8
        return passed, {"sup_distance": dists[1], "order": order}

    @_check("residual <= 1e-3, joint order >= 1.8, corner-profile residual <= 1e-6")
    def check_pde_residual(self):
        """Interior residual of the reconstruction, its joint-refinement
        order, and the corner-profile residual that isolates the kernel."""
        half, n, _ = self._resolutions()

        def mid_residual(nn):
            return pde_residual(map(reconstruct, self.run(nn).states[1:4]))  # around T/2

        r_coarse, r_fine = mid_residual(half), mid_residual(n)
        order = (math.inf if r_coarse <= _CONVERGED
                 else math.log2(r_coarse / max(r_fine, 1e-300)))
        corner = peakon_residual(0.0, Grid(40.0, 4001))
        passed = r_fine <= 1e-3 and order >= 1.8 and corner <= 1e-6
        return passed, {"residual": r_fine, "joint_order": order,
                        "corner_profile_residual": corner}

    @_check("global error order >= 3.8 against the separable closed form")
    def check_slope_ode_closed_form(self):
        """Degenerate flat-profile system against its separable solution,
        confirming fourth-order time accuracy."""
        grid = Grid(5.0, 101)
        v0, t_end = 0.3, 0.4
        y0 = np.stack([np.zeros(101), np.full(101, v0), np.ones(101), np.zeros(101)])
        errs = []
        for n_steps in (8, 16, 32):
            state = LagrangianState(0.0, grid, y0)
            dt = t_end / n_steps
            for _ in range(n_steps):
                state = step(state, dt)
            v_exact = v0 / (1.0 + 1.5 * v0 * t_end)
            q_exact = 1.0 + 1.5 * v0 * t_end
            errs.append(max(float(np.max(np.abs(state.y[1] - v_exact))),
                            float(np.max(np.abs(state.y[2] - q_exact)))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        return min(orders) >= 3.8, {"errors": tuple(f"{e:.2e}" for e in errs),
                                    "min_order": min(orders)}

    @_check("ratio variation <= 20% over 3 decades; exponent >= (1 - alpha) - 0.1")
    def check_continuity(self):
        """Lipschitz stability in the sup norm and the interpolated-space
        scaling of the data-to-solution map."""
        n = min(self.n, SMALL_N)
        u0 = self._data(n)
        grid = u0.grid
        cfg = SolverConfig(grid=grid, r0=self.config.r0)  # 20 steps of T/20, every level kept
        pert = GridFunction(grid, np.exp(-((grid.x - 1.0) ** 2)))
        eps = [2e-2, 6.3e-3, 2e-3, 6.3e-4, 2e-4, 6.3e-5, 2e-5]
        alphas = [0.25, 0.5, 0.75]
        report = continuity_experiment(u0, pert, eps, alphas, cfg)
        ratios = np.asarray(report.lipschitz_ratios)
        variation = float((ratios.max() - ratios.min()) / ratios.max())
        exp_ok = all(report.fitted_exponent[a] >= (1.0 - a) - 0.1 for a in alphas)
        return variation <= 0.2 and exp_ok, {
            "lipschitz_ratio_max": report.lipschitz_ratio_max,
            "ratio_variation": variation,
            **{f"exponent_alpha_{a}": report.fitted_exponent[a] for a in alphas}}

    @_check("difference quotient <= (50/9) r + 0.5 over random ball pairs")
    def check_lipschitz_sampling(self):
        """Difference quotients of the right-hand side over random state
        pairs in the admissible ball, against the proven constant."""
        n = min(self.n, SMALL_N)
        u0 = self._data(n)
        x = u0.grid.x
        h = u0.grid.h
        v0 = derivative_values(u0.values, h)
        geo = ball_geometry(u0, self.config.r0)
        bound = geo.lipschitz_const + 0.5
        rng = np.random.default_rng(SEED)

        def wiggle(scale):
            f = _packet(rng, x, 4.0, 0.35, 4)
            return scale * f / max(np.max(np.abs(f)), 1e-12)

        def rand_state():  # packed (w, v, q, displacement)
            return np.stack([u0.values + wiggle(0.02), v0 + wiggle(0.02),
                             1.0 + wiggle(0.03), np.zeros(n)])

        worst = 0.0
        for _ in range(LIPSCHITZ_PAIRS):
            y1, y2 = rand_state(), rand_state()
            dk = _rhs_arrays(y1, h) - _rhs_arrays(y2, h)
            worst = max(worst, _norm(dk, h) / _norm(y1 - y2, h))
        return worst <= bound, {"pairs": LIPSCHITZ_PAIRS, "worst_ratio": worst, "bound": bound}

    # -- driver -----------------------------------------------------------

    def _run_checks(self, names) -> list:
        return [getattr(self, f"check_{name}")() for name in names]

    def run_all(self) -> list:
        """Every check's result, in :data:`CHECK_NAMES` order.

        One forked worker runs the :data:`WORKER_CHECKS` while this
        process runs the rest.  The task is submitted before this process
        caches a run, so the suite it carries pickles small.  A check's
        runtime is the wall time in the process that ran it.
        """
        # imported here: they would cost every fw command's start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        shared = [name for name in CHECK_NAMES if name not in WORKER_CHECKS]
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            worker = pool.submit(self._run_checks, WORKER_CHECKS)
            results = self._run_checks(shared) + worker.result()
        return sorted(results, key=lambda res: CHECK_NAMES.index(res.name))


CHECK_NAMES = tuple(name.removeprefix("check_") for name in vars(VerificationSuite)
                    if name.startswith("check_"))
