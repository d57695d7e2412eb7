"""Acceptance battery: every quantitative guarantee at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line with the measured
numbers so a bare ``pytest -s tests/test_acceptance.py`` doubles as the
verification report.  The expensive reference runs are shared through a
module-scoped suite.
"""

import pytest

from fwsolver.grid import Grid
from fwsolver.lagrangian import SolverConfig
from fwsolver.verification import VerificationSuite


@pytest.fixture(scope="module")
def suite():
    return VerificationSuite(SolverConfig(grid=Grid(20.0, 2001), r0=0.1),
                             "gaussian:a=0.1,sigma=1")


def _report(result, max_runtime=None):
    print()
    print(result.line())
    assert result.passed, result.line()
    if max_runtime is not None:
        assert result.runtime < max_runtime, (
            f"{result.name} took {result.runtime:.1f}s, budget {max_runtime}s")


def test_criterion_01_kernel_collapse_and_closed_form(suite):
    # q = 1 collapse bitwise; exponential closed form to 1e-6 on X=30, n=3001
    _report(suite.check_kernel_closed_form(), max_runtime=1.0)


def test_criterion_02_fast_path_vs_direct_oracle(suite):
    # 20 randomized pairs with stretch in [0.9, 1.1], relative gap <= 1e-10
    _report(suite.check_fast_vs_direct(), max_runtime=30.0)


def test_criterion_03_lifespan_and_ball_arithmetic(suite):
    # L = (50/9) r and T = 9/(100 r) exactly; zero data, r0 = 0.1 -> T = 9/110
    _report(suite.check_lifespan_arithmetic())


def test_criterion_04_flow_map_bounds(suite):
    # run slopes within 1 -+ (3/2) r t; saturated map >= 173/200 - 1e-3,
    # inverse slopes within [200/227 - 1e-3, 200/173 + 1e-3]
    _report(suite.check_flow_map_bounds())


def test_criterion_05_size_estimate(suite):
    # sup_t (sup|u| + sup|ux|) <= 2 |u0|_C1 (1 + 1e-2)
    _report(suite.check_size_estimate())


def test_criterion_06_chain_rule_defect(suite):
    # defect <= 1e-3 at n = 2001 and >= 3.5x decay when h is halved
    _report(suite.check_chain_rule())


def test_criterion_07_conservation_drift(suite):
    # |E_i(T) - E_i(0)| / max(|E_i(0)|, 1e-3) <= 1e-5 at n = 2001, dt = T/400,
    # and decreasing under refinement
    _report(suite.check_conservation_drift())


def test_criterion_08_solver_cross_validation(suite):
    # sup distance to the physical-space oracle at T/2 <= 1e-3 at n = 2001,
    # empirical order >= 1.8 in h
    _report(suite.check_oracle_agreement())


def test_criterion_09_pde_residual(suite):
    # interior residual <= 1e-3 at (n = 2001, dt = T/400), joint order >= 1.8,
    # corner-profile residual away from the crest <= 1e-6
    _report(suite.check_pde_residual())


def test_criterion_10_slope_ode_closed_form(suite):
    # flat-profile system reproduces v = v0/(1 + (3/2) v0 t), order >= 3.8
    _report(suite.check_slope_ode_closed_form())


def test_criterion_11_continuity_of_data_to_solution(suite):
    # ratio stable within 20% over 3 decades of eps; interpolated-norm
    # exponent >= (1 - alpha) - 0.1 for alpha in {0.25, 0.5, 0.75}
    _report(suite.check_continuity(), max_runtime=180.0)


def test_criterion_12_lipschitz_constant_sampling(suite):
    # 100 random state pairs in the ball: quotient <= (50/9) r + 0.5
    _report(suite.check_lipschitz_sampling())
