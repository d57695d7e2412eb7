"""Command-line front end.

Subcommands: ``solve``, ``verify``, ``continuity``, ``breaking``.  All
numeric output goes to CSV/JSON at full double precision so external
plotting never loses bits.  Exit codes: 0 success, 2 configuration error,
3 guard breach, 4 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

from .grid import Grid, write_columns, write_csv
from .lagrangian import (GUARD_MODES, GuardBreach, SolverConfig, _time_steps, ball_geometry,
                         integrate)
from .flowmap import FlowMapError, flow_map, write_flowmap_csv, write_snapshot_csv
from .diagnostics import (continuity_experiment, diagnostics_series,
                          wave_breaking_probe, write_series_csv)
from .profiles import make_profile
from .verification import VerificationSuite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4

# glibc mallopt parameters and the values main() pins them to.  Left dynamic,
# both thresholds follow what the process freed before, so the temporaries of
# the RK4 loop, up to (4, n) doubles (1 MiB at n = 32001), could fault fresh
# pages on every step.  32 MiB is glibc's ceiling for its dynamic mmap
# threshold, so no block that rule would keep on the heap is mmapped instead.
_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES = -1, 64 << 20
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES = -3, 32 << 20


def time_or_auto(val: str) -> float | None:
    """A time, or ``None`` (the guaranteed lifespan) for ``auto``."""
    return None if val == "auto" else float(val)


def _guard_mode(val: str) -> str:
    if val not in GUARD_MODES:
        raise argparse.ArgumentTypeError("must be enforce or warn")
    return val


# (config key, flag, setting name, value parser, help) per setting; the
# setting name is the flag's dest, and all but half_width, n_points and
# profile are SolverConfig fields
_SETTINGS = (
    ("X", "--X", "half_width", float, "domain half-width"),
    ("n_points", "--n", "n_points", int, "number of grid points"),
    ("dt", "--dt", "dt", float, "time step (default: min(h, T/200))"),
    ("t_end", "--t-end", "t_end", time_or_auto,
     "final time, or 'auto' for the guaranteed lifespan"),
    ("r0", "--r0", "r0", float, "contraction ball radius (< 1/9)"),
    ("q_floor", "--q-floor", "q_floor", float, "stretch-factor guard floor"),
    ("boundary_tolerance", "--boundary-tol", "boundary_tol", float,
     "max |u0| allowed at the domain ends"),
    ("guard_mode", "--guard", "guard_mode", _guard_mode,
     "lifespan/regularity guards: hard errors (enforce) or warnings (warn)"),
    ("initial_data", "--profile", "profile", str, "initial data, e.g. gaussian:a=0.1,sigma=1"),
)
_CONFIG_KEYS = {key: (name, parse) for key, _, name, parse, _ in _SETTINGS}


def _parse_config_file(path: str) -> dict:
    """``key = value`` lines as setting name -> value; unknown keys and bad
    values carry line numbers."""
    out: dict = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise ValueError(f"{path}: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            out[name] = parse(val)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {err}") from None
    return out


def _run_description(args) -> tuple[SolverConfig, str, Path]:
    """The solver config, profile spec and output directory of a run, layered
    defaults < config file < flags; ``FW_OUTPUT_DIR`` beats ``--output``."""
    settings = {"half_width": 20.0, "n_points": 2001, "profile": "gaussian:a=0.1,sigma=1"}
    if "config" in args:
        settings.update(_parse_config_file(args.config))
    settings.update(vars(args))  # common flags are in args only when given
    solver_fields = {f.name for f in fields(SolverConfig)}
    cfg = SolverConfig(grid=Grid(settings["half_width"], settings["n_points"]),
                       **{k: v for k, v in settings.items() if k in solver_fields})
    out = os.environ.get("FW_OUTPUT_DIR") or settings.get("output", "fw_out")
    return cfg, settings["profile"], Path(out)


def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


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
    cfg, profile, out = _run_description(args)
    grid = cfg.grid
    u0 = make_profile(profile, grid)
    geometry = ball_geometry(u0, cfg.r0)
    _print_geometry(geometry)
    traj = integrate(u0, cfg, geometry)

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
        **asdict(geometry), "t_end": _time_steps(cfg, geometry)[0],
        "n_points": grid.n_points, "half_width": grid.half_width,
    }, indent=2, sort_keys=True))
    if traj.breach is not None:
        print(f"guard breach: {traj.breach}", file=sys.stderr)
        return EXIT_GUARD
    print(f"wrote {len(snapshots)} snapshots to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg, profile, out = _run_description(args)
    results = VerificationSuite(cfg, profile).run_all()
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
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify.json").write_text(json.dumps(verdict, indent=2, sort_keys=True))
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; verdict in "
          f"{out / 'verify.json'}")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _cmd_continuity(args) -> int:
    cfg, profile, out = _run_description(args)
    alphas = [float(a) for a in args.alpha.split(",")]
    eps_values = [float(e) for e in args.eps.split(",")]
    u0 = make_profile(profile, cfg.grid)
    pert = make_profile(args.perturbation, cfg.grid)
    report = continuity_experiment(u0, pert, eps_values, alphas, cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "continuity.json").write_text(report.to_json())
    write_columns(out / "continuity.csv",
                  ["eps", "c0_data_dist", "c0_sol_dist", "c1_sol_dist"]
                  + [f"holder_alpha_{a}" for a in alphas],
                  [report.eps_values, report.c0_data_dist, report.c0_sol_dist,
                   report.c1_sol_dist] + [report.holder_sol_dist[a] for a in alphas])
    print(f"lipschitz_ratio_max = {report.lipschitz_ratio_max:.6g}")
    for a in alphas:
        print(f"fitted exponent alpha={a}: {report.fitted_exponent[a]:.4f}")
    return EXIT_OK


def _cmd_breaking(args) -> int:
    cfg, profile, out = _run_description(args)
    traj = wave_breaking_probe(make_profile(profile, cfg.grid), cfg, t_max=args.t_max)
    t, x = (None, None) if traj.breach is None else (traj.breach.t, traj.breach.x)
    min_q = float(traj.final.y[2].min())
    out.mkdir(parents=True, exist_ok=True)
    report = dict(breach_time=t, breach_x=x, min_q_final=min_q, t_max=args.t_max)
    (out / "breaking.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    if t is None:
        print(f"no breaking up to t = {args.t_max:.6g} (min q = {min_q:.6g})")
    else:
        print(f"breaking at t = {t:.6g}, x = {x:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    """Flags shared by all subcommands; each dest is its setting name and
    appears in the parsed args only when given, so it can override the
    config file."""
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="key = value config file")
    for _, flag, name, parse, about in _SETTINGS:
        p.add_argument(flag, dest=name, type=parse, help=about)
    p.add_argument("--store-every", type=int, help="keep every k-th time level")
    p.add_argument("--output", help="output directory (env FW_OUTPUT_DIR overrides)")
    return p


def main(argv=None) -> int:
    _pin_allocator()
    parser = argparse.ArgumentParser(
        prog="fw",
        description="Characteristic-coordinate solver for a nonlocal breaking-wave "
                    "equation, with quantitative verification of its guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, run, about in (
            ("solve", _cmd_solve, "integrate and write snapshots/diagnostics"),
            ("verify", _cmd_verify, "run the verification checks"),
            ("continuity", _cmd_continuity, "data-to-solution continuity experiment"),
            ("breaking", _cmd_breaking, "probe for stretch-factor collapse")):
        # each subcommand gets its own flag actions, so a default set on one stays there
        cmd[name] = sub.add_parser(name, parents=[_common_flags()], help=about)
        cmd[name].set_defaults(run=run)
    cmd["continuity"].set_defaults(store_every=10)
    cmd["continuity"].add_argument("--perturbation", default="gaussian:a=0.1,sigma=1",
                                   help="perturbation profile spec")
    cmd["continuity"].add_argument("--eps", default="1e-1,1e-2,1e-3,1e-4",
                                   help="comma-separated perturbation sizes")
    cmd["continuity"].add_argument("--alpha", default="0,0.5",
                                   help="comma-separated interpolation exponents in [0, 1)")
    cmd["breaking"].add_argument("--t-max", type=float, default=1.0,
                                 help="give up after this time")

    args = parser.parse_args(argv)
    # a warning prints as one line ahead of the verdict
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.run(args)
    except ValueError as err:  # bad settings or data, InitialDataError included
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (GuardBreach, FlowMapError) as err:  # a step guard, or a non-monotone flow map
        print(f"guard breach: {err}", file=sys.stderr)
        return EXIT_GUARD
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
