"""Command-line front end.

Subcommands: ``solve``, ``verify``, ``continuity``, ``breaking``.  All
numeric output goes to CSV/JSON at full double precision so external
plotting never loses bits.  Exit codes: 0 success, 2 configuration error,
3 guard breach, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .grid import Grid, write_columns, write_csv
from .lagrangian import GuardBreach, InitialDataError, SolverConfig, ball_geometry, integrate
from .flowmap import flow_map, write_flowmap_csv, write_snapshot_csv
from .diagnostics import (continuity_experiment, diagnostics_series,
                          wave_breaking_probe, write_series_csv)
from .profiles import make_profile, parse_profile_spec
from .verification import VerificationSuite
from .kernels import DEFAULT_Q_FLOOR

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

_CONFIG_KEYS = ("X", "n_points", "dt", "t_end", "r0", "q_floor",
                "boundary_tolerance", "guard_mode", "initial_data")


class ConfigError(ValueError):
    pass


@dataclass
class Scenario:
    """Fully resolved run description shared by all subcommands."""

    name: str = "run"
    half_width: float = 20.0
    n_points: int = 2001
    dt: float | None = None
    t_end: float | str | None = "auto"
    r0: float = 0.1
    q_floor: float = DEFAULT_Q_FLOOR
    boundary_tol: float = 1e-6
    guard_mode: str = "enforce"
    profile: str = "gaussian:a=0.1,sigma=1"
    output_dir: Path = field(default_factory=lambda: Path("fw_out"))
    store_every: int = 1

    def grid(self) -> Grid:
        return Grid(self.half_width, self.n_points)

    def solver_config(self, t_end: float | None,
                      store_every: int | None = None) -> SolverConfig:
        return SolverConfig(
            grid=self.grid(), dt=self.dt, t_end=t_end, r0=self.r0,
            q_floor=self.q_floor, boundary_tol=self.boundary_tol,
            guard_mode=self.guard_mode,
            store_every=store_every if store_every is not None else self.store_every,
        )


def _parse_config_file(path: str) -> dict:
    """``key = value`` lines; unknown keys and bad values carry line numbers."""
    values: dict = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = (val, lineno)
    out: dict = {}
    for key, (val, lineno) in values.items():
        try:
            if key == "X":
                out["half_width"] = float(val)
            elif key == "n_points":
                out["n_points"] = int(val)
            elif key == "dt":
                out["dt"] = float(val)
            elif key == "t_end":
                out["t_end"] = val if val == "auto" else float(val)
            elif key == "r0":
                out["r0"] = float(val)
            elif key == "q_floor":
                out["q_floor"] = float(val)
            elif key == "boundary_tolerance":
                out["boundary_tol"] = float(val)
            elif key == "guard_mode":
                if val not in ("enforce", "warn"):
                    raise ValueError("must be enforce or warn")
                out["guard_mode"] = val
            elif key == "initial_data":
                out["profile"] = val
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from None
    return out


def _scenario_from_args(args) -> Scenario:
    sc = Scenario()
    if getattr(args, "config", None):
        for key, val in _parse_config_file(args.config).items():
            setattr(sc, key, val)
    # flags override the config file
    mapping = {
        "X": "half_width", "n": "n_points", "dt": "dt", "t_end": "t_end",
        "r0": "r0", "q_floor": "q_floor", "boundary_tol": "boundary_tol",
        "guard": "guard_mode", "profile": "profile", "store_every": "store_every",
    }
    for flag, attr in mapping.items():
        val = getattr(args, flag, None)
        if val is not None:
            setattr(sc, attr, val)
    if getattr(args, "output", None) is not None:
        sc.output_dir = Path(args.output)
    env_dir = os.environ.get("FW_OUTPUT_DIR")
    if env_dir:
        sc.output_dir = Path(env_dir)
    if sc.t_end not in (None, "auto"):
        sc.t_end = float(sc.t_end)
    return sc


def _resolve_t_end(sc: Scenario, geometry) -> float:
    if sc.t_end in (None, "auto"):
        return geometry.lifespan
    return float(sc.t_end)


def _print_geometry(geo) -> None:
    print(f"ball radius r0        = {geo.r0:.17g}")
    print(f"state norm            = {geo.state_norm:.17g}")
    print(f"r = r0 + state norm   = {geo.r:.17g}")
    print(f"Lipschitz constant L  = {geo.lipschitz_const:.17g}")
    print(f"guaranteed lifespan T = {geo.lifespan:.17g}")
    print(f"data-norm lifespan    = {geo.lifespan_naive:.17g}  (reported only, not enforced)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    sc = _scenario_from_args(args)
    grid = sc.grid()
    u0 = make_profile(sc.profile, grid)
    geometry = ball_geometry(u0, sc.r0)
    _print_geometry(geometry)
    t_end = _resolve_t_end(sc, geometry)
    cfg = sc.solver_config(t_end)
    traj = integrate(u0, cfg, geometry)

    out = sc.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv(u0, out / "initial_data.csv")
    stride = max(1, (len(traj.states) - 1) // 20)  # about 20 snapshot files
    snapshots = dict.fromkeys(range(0, len(traj.states), stride))
    series = diagnostics_series(traj, snapshots)
    for i, snap in snapshots.items():
        write_snapshot_csv(snap, out / f"snapshot_{i:05d}.csv")
        write_flowmap_csv(flow_map(traj.states[i]), out / f"flowmap_{i:05d}.csv")
    write_series_csv(series, out / "series.csv")
    (out / "geometry.json").write_text(json.dumps({
        "r0": geometry.r0, "state_norm": geometry.state_norm, "r": geometry.r,
        "lipschitz_const": geometry.lipschitz_const, "lifespan": geometry.lifespan,
        "lifespan_naive": geometry.lifespan_naive, "t_end": t_end,
        "n_points": grid.n_points, "half_width": grid.half_width,
    }, indent=2, sort_keys=True))
    if traj.breach is not None:
        print(f"guard breach: {traj.breach}", file=sys.stderr)
        return EXIT_GUARD
    print(f"wrote {len(snapshots)} snapshots to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    sc = _scenario_from_args(args)
    # the scenario's smooth-bump parameters steer the canonical runs;
    # other profiles fall back to the reference bump
    name, params = parse_profile_spec(sc.profile)
    kwargs = {}
    if name == "gaussian":
        kwargs = {"amplitude": params.get("a", 0.1), "sigma": params.get("sigma", 1.0)}
    suite = VerificationSuite(n=sc.n_points, half_width=sc.half_width, r0=sc.r0,
                              **kwargs)
    results = suite.run_all()
    for res in results:
        print(res.line())

    def plain(v):
        if hasattr(v, "item"):  # numpy scalars
            v = v.item()
        return v if isinstance(v, (int, float, bool, str, type(None))) else str(v)

    # runtimes go to stdout only, keeping the verdict file byte-deterministic
    verdict = {
        res.name: {
            "passed": plain(res.passed),
            "measured": {k: plain(v) for k, v in res.measured.items()},
            "requirement": res.requirement,
        }
        for res in results
    }
    sc.output_dir.mkdir(parents=True, exist_ok=True)
    (sc.output_dir / "verify.json").write_text(json.dumps(verdict, indent=2, sort_keys=True))
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; verdict in "
          f"{sc.output_dir / 'verify.json'}")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _cmd_continuity(args) -> int:
    sc = _scenario_from_args(args)
    alphas = [float(a) for a in args.alpha.split(",")]
    for a in alphas:
        if not (0.0 <= a < 1.0):
            raise ConfigError(f"alpha must lie in [0, 1), got {a}")
    eps_values = [float(e) for e in args.eps.split(",")]
    grid = sc.grid()
    u0 = make_profile(sc.profile, grid)
    pert = make_profile(args.perturbation, grid)
    geometry = ball_geometry(u0, sc.r0)
    t_end = _resolve_t_end(sc, geometry)
    cfg = sc.solver_config(t_end, store_every=max(sc.store_every, 10))
    report = continuity_experiment(u0, pert, eps_values, alphas, cfg)
    sc.output_dir.mkdir(parents=True, exist_ok=True)
    (sc.output_dir / "continuity.json").write_text(report.to_json())
    write_columns(sc.output_dir / "continuity.csv",
                  ["eps", "c0_data_dist", "c0_sol_dist", "c1_sol_dist"]
                  + [f"holder_alpha_{a}" for a in alphas],
                  [report.eps_values, report.c0_data_dist, report.c0_sol_dist,
                   report.c1_sol_dist] + [report.holder_sol_dist[a] for a in alphas])
    print(f"lipschitz_ratio_max = {report.lipschitz_ratio_max:.6g}")
    for a in alphas:
        print(f"fitted exponent alpha={a}: {report.fitted_exponent[a]:.4f}")
    return EXIT_OK


def _cmd_breaking(args) -> int:
    sc = _scenario_from_args(args)
    if sc.guard_mode != "warn":
        raise ConfigError("breaking probe requires --guard warn")
    grid = sc.grid()
    u0 = make_profile(sc.profile, grid)
    cfg = sc.solver_config(None)
    report = wave_breaking_probe(u0, cfg, t_max=args.t_max)
    sc.output_dir.mkdir(parents=True, exist_ok=True)
    (sc.output_dir / "breaking.json").write_text(json.dumps({
        "breach_time": report.breach_time, "breach_x": report.breach_x,
        "t_max": report.t_max, "min_q_final": report.min_q_final,
    }, indent=2, sort_keys=True))
    if report.breach_time is None:
        print(f"no breaking up to t = {report.t_max:.6g} (min q = {report.min_q_final:.6g})")
    else:
        print(f"breaking at t = {report.breach_time:.6g}, x = {report.breach_x:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--profile", help="initial data, e.g. gaussian:a=0.1,sigma=1")
    p.add_argument("--X", type=float, help="domain half-width")
    p.add_argument("--n", type=int, help="number of grid points")
    p.add_argument("--dt", type=float, help="time step (default: min(h, T/200))")
    p.add_argument("--t-end", dest="t_end",
                   help="final time, or 'auto' for the guaranteed lifespan")
    p.add_argument("--r0", type=float, help="contraction ball radius (< 1/9)")
    p.add_argument("--q-floor", dest="q_floor", type=float,
                   help="stretch-factor guard floor")
    p.add_argument("--boundary-tol", dest="boundary_tol", type=float,
                   help="max |u0| allowed at the domain ends")
    p.add_argument("--guard", choices=("enforce", "warn"),
                   help="lifespan/regularity guards: hard errors or warnings")
    p.add_argument("--store-every", dest="store_every", type=int,
                   help="keep every k-th time level")
    p.add_argument("--output", help="output directory (env FW_OUTPUT_DIR overrides)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fw",
        description="Characteristic-coordinate solver for a nonlocal breaking-wave "
                    "equation, with quantitative verification of its guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate and write snapshots/diagnostics")
    _add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run the verification checks")
    _add_common(p_verify)

    p_cont = sub.add_parser("continuity", help="data-to-solution continuity experiment")
    _add_common(p_cont)
    p_cont.add_argument("--perturbation", default="gaussian:a=0.1,sigma=1",
                        help="perturbation profile spec")
    p_cont.add_argument("--eps", default="1e-1,1e-2,1e-3,1e-4",
                        help="comma-separated perturbation sizes")
    p_cont.add_argument("--alpha", default="0,0.5",
                        help="comma-separated interpolation exponents in [0, 1)")

    p_break = sub.add_parser("breaking", help="probe for stretch-factor collapse")
    _add_common(p_break)
    p_break.add_argument("--t-max", dest="t_max", type=float, default=1.0,
                         help="give up after this time")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "continuity":
            return _cmd_continuity(args)
        if args.command == "breaking":
            return _cmd_breaking(args)
    except (ConfigError, InitialDataError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardBreach as err:
        print(f"guard breach: {err}", file=sys.stderr)
        return EXIT_GUARD
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
