"""Characteristic-coordinate solver for a nonlocal breaking-wave equation,
with the flow-map machinery and diagnostics that verify its guarantees."""

from .grid import (Grid, GridFunction, c1_norm, derivative, holder_seminorm,
                   interpolate, interpolate_many, quadrature, read_csv, sup_norm,
                   write_csv)
from .kernels import (MonotonicityError, convected_pair, cumulative_flow_values,
                      green_derivative, helmholtz_inverse)
from .lagrangian import (BallGeometry, GuardBreach, InitialDataError,
                         LagrangianState, SolverConfig, Trajectory,
                         ball_geometry, chain_rule_defect, initial_state,
                         integrate, rhs, state_norm, step)
from .flowmap import (EulerianSnapshot, FlowMap, FlowMapError, flow_map, invert_many,
                      inverse_slope_bounds, map_slopes, reconstruct, slope_bounds)
from .diagnostics import (BreakingReport, ConservedTriple, ContinuityReport,
                          conserved, continuity_experiment, diagnostics_series,
                          eulerian_oracle, pde_residual, peakon, peakon_residual,
                          wave_breaking_probe)
from .profiles import gaussian, make_profile, parse_profile_spec, peakon_profile, sech2
from .verification import CheckResult, VerificationSuite

__version__ = "0.1.0"
