import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fwsolver.cli
import fwsolver.flowmap
from fwsolver.cli import (EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_VERIFY,
                          _parse_config_file, main)
from fwsolver.grid import read_csv, write_csv
from fwsolver.lagrangian import GuardBreach, SolverConfig, ball_geometry, integrate
from fwsolver.profiles import gaussian, sech2
from fwsolver.grid import Grid
from fwsolver.verification import CHECK_NAMES, SELF_CONTAINED, STEPS, VerificationSuite


SOLVE_ARGS = ["solve", "--profile", "gaussian:a=0.1,sigma=1",
              "--X", "10", "--n", "401", "--t-end", "auto"]


def run(argv, tmp_path, monkeypatch, subdir="out"):
    monkeypatch.delenv("FW_OUTPUT_DIR", raising=False)
    out = tmp_path / subdir
    return main(argv + ["--output", str(out)]), out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_smoke(tmp_path, monkeypatch, capsys):
    code, out = run(SOLVE_ARGS, tmp_path, monkeypatch)
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "guaranteed lifespan" in printed and "Lipschitz" in printed
    assert (out / "series.csv").exists()
    assert (out / "geometry.json").exists()
    assert (out / "initial_data.csv").exists()
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) >= 2
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x,u,ux"
    assert (out / "flowmap_00000.csv").read_text().splitlines()[0] == "x,eta"


def solve_counting_reconstructions(tmp_path, monkeypatch):
    """``fw solve`` at n=201 counting, per route, the states whose
    interpolant is built (``flowmap._slopes`` gets two columns, ``w`` and
    ``v``, per state) and the flow-map inversions; returns (out dir,
    trajectory, counts)."""
    real_slopes = fwsolver.flowmap._slopes
    real_invert = fwsolver.flowmap.invert_many
    counts = {"pchip": 0, "smooth": 0, "inversions": 0}

    def slopes(x, y, smooth=False):
        counts["smooth" if smooth else "pchip"] += y.shape[1] // 2
        return real_slopes(x, y, smooth)

    def invert_many(fmap, xs):
        counts["inversions"] += 1
        return real_invert(fmap, xs)

    monkeypatch.setattr(fwsolver.flowmap, "_slopes", slopes)
    monkeypatch.setattr(fwsolver.flowmap, "invert_many", invert_many)
    runs = []
    real_integrate = fwsolver.cli.integrate
    monkeypatch.setattr(fwsolver.cli, "integrate",
                        lambda *a: runs.append(real_integrate(*a)) or runs[-1])
    code, out = run(["solve", "--X", "10", "--n", "201"], tmp_path, monkeypatch)
    assert code == EXIT_OK and len(runs) == 1
    return out, runs[0], counts


def test_solve_reconstructs_each_state_once_per_route(tmp_path, monkeypatch):
    _, traj, counts = solve_counting_reconstructions(tmp_path, monkeypatch)
    n = len(traj.states)
    assert counts == {"pchip": 0, "smooth": n, "inversions": n}


def test_solve_snapshots_read_back_as_reconstructions(tmp_path, monkeypatch):
    out, traj, _ = solve_counting_reconstructions(tmp_path, monkeypatch)
    paths = sorted(out.glob("snapshot_*.csv"))
    assert len(paths) >= 20
    for path in paths:
        snap = fwsolver.flowmap.reconstruct(traj.states[int(path.stem.split("_")[1])])
        x, u, ux = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(x, snap.u.grid.x)
        assert np.array_equal(u, snap.u.values) and np.array_equal(ux, snap.ux.values)


def test_solve_initial_csv_round_trips_bitwise(tmp_path, monkeypatch):
    code, out = run(SOLVE_ARGS, tmp_path, monkeypatch)
    assert code == EXIT_OK
    u0 = read_csv(out / "initial_data.csv")
    expected = gaussian(Grid(10.0, 401), a=0.1, sigma=1.0)
    assert np.array_equal(u0.values, expected.values)


def test_solve_rejects_corner_data_in_enforce_mode(tmp_path, monkeypatch, capsys):
    code, _ = run(["solve", "--profile", "peakon", "--X", "30", "--n", "1001",
                   "--guard", "enforce"], tmp_path, monkeypatch)
    assert code == EXIT_CONFIG
    assert "not smooth" in capsys.readouterr().err


def test_solve_t_end_beyond_lifespan_needs_warn(tmp_path, monkeypatch, capsys):
    base = ["solve", "--profile", "gaussian:a=0.1,sigma=1", "--X", "10",
            "--n", "201", "--t-end", "0.5"]
    code, _ = run(base, tmp_path, monkeypatch)
    assert code == EXIT_CONFIG
    assert "lifespan" in capsys.readouterr().err
    code, _ = run(base + ["--guard", "warn", "--dt", "0.002"],
                  tmp_path, monkeypatch, subdir="out2")
    assert code == EXIT_OK


def test_solve_determinism_byte_identical(tmp_path, monkeypatch):
    _, out1 = run(SOLVE_ARGS, tmp_path, monkeypatch, subdir="a")
    _, out2 = run(SOLVE_ARGS, tmp_path, monkeypatch, subdir="b")
    for name in ("series.csv", "geometry.json", "snapshot_00000.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_config_file_equals_flags(tmp_path, monkeypatch):
    # every config key set away from its default; t_end beyond the lifespan
    # needs guard_mode = warn, so a dropped guard_mode fails the run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# canonical small run\n"
        "X = 10\n"
        "n_points = 401\n"
        "dt = 5e-4\n"
        "t_end = 0.08\n"
        "r0 = 0.05\n"
        "q_floor = 0.2\n"
        "boundary_tolerance = 1e-5\n"
        "guard_mode = warn\n"
        "initial_data = gaussian(a=0.1, sigma=1)\n"
    )
    flags = ["solve", "--profile", "gaussian:a=0.1,sigma=1", "--X", "10", "--n", "401",
             "--dt", "5e-4", "--t-end", "0.08", "--r0", "0.05", "--q-floor", "0.2",
             "--boundary-tol", "1e-5", "--guard", "warn"]
    real_integrate = fwsolver.cli.integrate
    configs = []
    monkeypatch.setattr(fwsolver.cli, "integrate",
                        lambda u0, c, *a: configs.append(c) or real_integrate(u0, c, *a))
    _, out_flags = run(flags, tmp_path, monkeypatch, subdir="flags")
    code, out_cfg = run(["solve", "--config", str(cfg)], tmp_path, monkeypatch,
                        subdir="cfg")
    assert code == EXIT_OK
    assert configs[0] == configs[1] == SolverConfig(
        grid=Grid(10.0, 401), dt=5e-4, t_end=0.08, r0=0.05, q_floor=0.2,
        boundary_tol=1e-5, guard_mode="warn")
    for name in ("series.csv", "snapshot_00000.csv", "initial_data.csv", "geometry.json"):
        assert (out_flags / name).read_bytes() == (out_cfg / name).read_bytes()


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("FW_OUTPUT_DIR", str(env_dir))
    code = main(SOLVE_ARGS + ["--output", str(tmp_path / "ignored")])
    assert code == EXIT_OK
    assert (env_dir / "series.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_solve_guard_breach_exit_code(tmp_path, monkeypatch, capsys):
    code, out = run(["solve", "--profile", "sech2:a=2,k=1", "--X", "20",
                     "--n", "401", "--guard", "warn", "--t-end", "1.0",
                     "--dt", "0.002", "--store-every", "50"],
                    tmp_path, monkeypatch)
    assert code == EXIT_GUARD
    assert "breach" in capsys.readouterr().err


FLOW_MAP_DATA = ["--profile", "sech2:a=2,k=3", "--X", "20", "--n", "81", "--guard", "warn"]
FLOW_MAP_BREACH = ("warning: initial data is not smooth enough: slope jumps by 1.98 between "
                   "nodes 39 and 40 (x=-0.5), tolerance 1.48\n"
                   "guard breach: flow map is not strictly increasing near node 40 (x=0, ")
VERIFY_REJECTS = [("--dt", "1e-3"), ("--t-end", "0.01"), ("--q-floor", "0.2"),
                  ("--boundary-tol", "1e-5"), ("--guard", "warn"), ("--store-every", "5")]


@pytest.mark.parametrize("argv, code, prefix", [
    (["solve", "--X", "10", "--n", "201", "--dt", "inf"],
     EXIT_CONFIG, "error: dt must be positive and finite"),
    (["solve", "--X", "10", "--n", "201", "--q-floor", "-5"],
     EXIT_CONFIG, "error: q_floor must be positive"),
    (["solve", "--X", "10", "--n", "201", "--t-end", "nan"],
     EXIT_CONFIG, "error: t_end must be finite"),
    (["solve", "--X", "10", "--n", "201", "--profile", "from_csv:path=missing.csv"],
     EXIT_CONFIG, "error: cannot read profile csv"),
    # zero base data never moves q; the perturbed run drops below the floor
    (["continuity", "--X", "10", "--n", "201", "--profile", "gaussian:a=0,sigma=1",
      "--perturbation", "gaussian:a=0.1,sigma=1", "--eps", "0.3,0.2", "--q-floor", "0.999"],
     EXIT_GUARD, "guard breach: "),
    # the slope tendency overflows in the first stage; the last finite state is
    # written, after the warning about the data not decaying
    (["solve", "--X", "40", "--n", "4001", "--guard", "warn",
      "--profile", "gaussian:a=1e160,sigma=4"],
     EXIT_GUARD, "warning: initial data does not decay at the left boundary: "
                 "|u0| = 3.72e+116 > 1e-06; initial data does not decay at the right "
                 "boundary: |u0| = 3.72e+116 > 1e-06\n"
                 "guard breach: non-finite state at RK stage k1"),
    # coarse steep data: the map stops increasing before q reaches its floor
    (["solve", *FLOW_MAP_DATA, "--t-end", "1.2"],
     EXIT_GUARD, FLOW_MAP_BREACH + "t=0.200446)"),
    (["continuity", *FLOW_MAP_DATA, "--t-end", "0.25",
      "--perturbation", "gaussian:a=0.01,sigma=1", "--eps", "1e-2,1e-3"],
     EXIT_GUARD, FLOW_MAP_BREACH + "t=0.200739)"),
    # verify validates the common flags like the other subcommands
    (["verify", "--X", "10", "--n", "201", "--dt", "inf"],
     EXIT_CONFIG, "error: dt must be positive and finite"),
    (["verify", "--X", "10", "--n", "201", "--r0", "0.2"],
     EXIT_CONFIG, "error: ball radius must satisfy 0 < r0 < 1/9"),
    # and rejects every setting besides X, n, r0 and the profile
    *[(["verify", "--X", "10", "--n", "201", flag, value],
       EXIT_CONFIG, "error: verify uses only X, n_points, r0 and the profile")
      for flag, value in VERIFY_REJECTS],
    # a profile parameter the profile does not take
    (["solve", "--X", "10", "--n", "201", "--profile", "gaussian:foo=1"],
     EXIT_CONFIG, "error: gaussian takes a and sigma, not foo"),
    (["verify", "--X", "10", "--n", "201", "--profile", "sech2:sigma=2"],
     EXIT_CONFIG, "error: sech2 takes a and k, not sigma; verify runs the profile at n = "),
], ids=["dt-inf", "q-floor-negative", "t-end-nan", "csv-missing", "continuity-breach",
        "non-finite", "flow-map-solve", "flow-map-continuity", "verify-dt-inf", "verify-r0",
        *[f"verify{flag[1:]}" for flag, _ in VERIFY_REJECTS],
        "profile-key-solve", "profile-key-verify"])
def test_exit_code_matrix(argv, code, prefix, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        # print every warning as a shell sees it, whether or not pytest records them
        warnings.simplefilter("always")
        warnings.showwarning = print_warning
        assert run(argv, tmp_path, monkeypatch)[0] == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 + prefix.count("\n")


def print_warning(message, category, filename, lineno, file=None, line=None):
    """What the ``warnings`` module does when nothing has replaced its printing."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_warnings_print_one_line_each_ahead_of_the_verdict(tmp_path):
    # a fresh interpreter, so stderr is what a shell sees: the initial-data
    # warning as one line, then the verdict, and no numpy RuntimeWarning
    src = str(Path(fwsolver.cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("FW_OUTPUT_DIR", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fwsolver.cli", "solve", "--X", "40", "--n", "4001",
         "--guard", "warn", "--profile", "gaussian:a=1e160,sigma=4",
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == EXIT_GUARD
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and proc.stderr.endswith("\n")
    assert lines[0].startswith("warning: initial data does not decay")
    assert lines[1].startswith("guard breach: non-finite state at RK stage k1")
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# allocator pin
# ---------------------------------------------------------------------------

class FakeLibc:
    """A C library whose ``mallopt`` appends its calls to ``log``."""

    def __init__(self, log):
        self.mallopt = lambda param, value: log.append(("mallopt", param, value)) or 1


def stub_command(monkeypatch, command, log):
    monkeypatch.setattr(fwsolver.cli, f"_cmd_{command}",
                        lambda args: log.append(command) or EXIT_OK)


@pytest.mark.parametrize("command", ["solve", "verify", "continuity", "breaking"])
def test_main_pins_the_allocator_before_the_subcommand(command, monkeypatch):
    log = []
    monkeypatch.setattr(fwsolver.cli.ctypes, "CDLL", lambda name: FakeLibc(log))
    stub_command(monkeypatch, command, log)
    assert main([command]) == EXIT_OK
    # glibc's M_MMAP_THRESHOLD (-3) to 32 MiB, then M_TRIM_THRESHOLD (-1) to 64 MiB
    assert log == [("mallopt", -3, 32 * 2 ** 20), ("mallopt", -1, 64 * 2 ** 20), command]


def no_mallopt(name):
    return object()  # a C library that has no mallopt


def no_library(name):
    raise OSError("no C library handle")


@pytest.mark.parametrize("cdll", [no_mallopt, no_library])
def test_main_runs_unpinned_without_mallopt(cdll, monkeypatch):
    log = []
    monkeypatch.setattr(fwsolver.cli.ctypes, "CDLL", cdll)
    stub_command(monkeypatch, "solve", log)
    assert main(["solve"]) == EXIT_OK
    assert log == ["solve"]


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def test_config_profile_with_an_unknown_key_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial_data = sech2:a=1,sigma=2\n")
    code, _ = run(["solve", "--X", "10", "--n", "201", "--config", str(cfg)],
                  tmp_path, monkeypatch)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: sech2 takes a and k, not sigma\n"


def test_config_parse_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("X = 10\nwhat = 3\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        _parse_config_file(str(cfg))
    cfg.write_text("X = ten\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        _parse_config_file(str(cfg))
    cfg.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        _parse_config_file(str(cfg))
    cfg.write_text("X = 10\nguard_mode = sometimes\n")
    with pytest.raises(ValueError, match="bad.cfg:2: bad value for guard_mode"):
        _parse_config_file(str(cfg))
    cfg.write_text("n_points = 401\nX = 10\nt_end = soon\n")
    with pytest.raises(ValueError, match="bad.cfg:3: bad value for t_end"):
        _parse_config_file(str(cfg))


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

def test_continuity_rejects_alpha_one(tmp_path, monkeypatch, capsys):
    code, _ = run(["continuity", "--X", "10", "--n", "201", "--alpha", "1.0"],
                  tmp_path, monkeypatch)
    assert code == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_continuity_writes_report(tmp_path, monkeypatch):
    code, out = run(["continuity", "--X", "10", "--n", "201",
                     "--eps", "1e-2,1e-3", "--alpha", "0,0.5",
                     "--perturbation", "gaussian:a=0.1,sigma=1"],
                    tmp_path, monkeypatch)
    assert code == EXIT_OK
    payload = json.loads((out / "continuity.json").read_text(), parse_constant=reject_json)
    assert payload["eps_values"] == [1e-2, 1e-3]
    lines = (out / "continuity.csv").read_text().splitlines()
    assert lines[0].startswith("eps,c0_data_dist")
    assert len(lines) == 3


NO_FIT = ("error: fitting the exponents needs two or more nonzero data distances "
          "|eps| sup|perturbation|, got ")


def reject_json(constant):
    """``parse_constant`` of a strict JSON parser: NaN and the infinities are not JSON."""
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("flags, message", [
    (["--eps", "1e-2"], NO_FIT + "0.001\n"),
    (["--eps", "0,1e-2"], NO_FIT + "0, 0.001\n"),
    (["--perturbation", "gaussian:a=0,sigma=1"], NO_FIT + "0, 0, 0, 0\n"),
], ids=["one-eps", "one-nonzero-eps", "zero-perturbation"])
def test_continuity_never_writes_nan(flags, message, tmp_path, monkeypatch, capsys):
    code, out = run(["continuity", "--X", "10", "--n", "201", *flags], tmp_path, monkeypatch)
    for path in out.glob("continuity.json"):
        json.loads(path.read_text(), parse_constant=reject_json)
    assert code == EXIT_CONFIG and capsys.readouterr().err == message


@pytest.mark.parametrize("flags, stride", [(["--store-every", "1"], 1), ([], 10)])
def test_continuity_honours_store_every(flags, stride, tmp_path, monkeypatch):
    seen, experiment = [], fwsolver.cli.continuity_experiment

    def spy(u0, pert, eps_values, alphas, config):
        seen.append(config.store_every)
        return experiment(u0, pert, eps_values, alphas, config)

    monkeypatch.setattr(fwsolver.cli, "continuity_experiment", spy)
    code, _ = run(["continuity", "--X", "10", "--n", "201", "--eps", "1e-3,2e-3"] + flags,
                  tmp_path, monkeypatch)
    assert code == EXIT_OK and seen == [stride]


# ---------------------------------------------------------------------------
# breaking
# ---------------------------------------------------------------------------

def test_breaking_requires_warn(tmp_path, monkeypatch):
    code, _ = run(["breaking", "--profile", "sech2:a=2,k=1", "--X", "20",
                   "--n", "201"], tmp_path, monkeypatch)
    assert code == EXIT_CONFIG


def test_breaking_reports_breach(tmp_path, monkeypatch, capsys):
    code, out = run(["breaking", "--profile", "sech2:a=2,k=1", "--X", "20",
                     "--n", "401", "--guard", "warn", "--dt", "0.002",
                     "--t-max", "1.5", "--store-every", "100"],
                    tmp_path, monkeypatch)
    assert code == EXIT_OK
    payload = json.loads((out / "breaking.json").read_text())
    assert payload["breach_time"] is not None
    assert 0 < payload["breach_time"] < 1.5
    assert "breaking at" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--t-end", "0.3"], ["--config", "run.cfg"]],
                         ids=["flag", "config-key"])
def test_breaking_rejects_a_set_t_end(argv, tmp_path, monkeypatch, capsys):
    # --t-max is the probe's horizon: a t_end was silently overwritten by it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("t_end = 0.3\n")
    code, out = run(["breaking", "--profile", "sech2:a=2,k=1", "--X", "20", "--n", "201",
                     "--guard", "warn", "--t-max", "1.5", *argv], tmp_path, monkeypatch)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: breaking probe runs to t_max; t_end must be unset, got 0.3\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_coarse_grid_fails_informatively(tmp_path, monkeypatch, capsys):
    code, out = run(["verify", "--X", "10", "--n", "51"], tmp_path, monkeypatch)
    assert code == EXIT_VERIFY
    payload = json.loads((out / "verify.json").read_text())
    failed = {k: v for k, v in payload.items() if not v["passed"]}
    assert failed  # convergence checks cannot pass at n = 51
    for entry in failed.values():
        assert entry["measured"]  # margins reported
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, prefix", [
    (["--config", "run.cfg"], "error: verify uses only X, n_points, r0 and the profile"),
    # a CSV holds one grid, and the battery also runs at half and double n
    (["--X", "10", "--n", "201", "--profile", "from_csv:path=u0.csv"], "error: csv grid "),
], ids=["config-dt", "csv-profile"])
def test_verify_rejects_file_settings_before_any_check(argv, prefix, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("X = 10\nn_points = 201\ndt = 1e-3\n")
    write_csv(gaussian(Grid(10.0, 201)), tmp_path / "u0.csv")
    assert run(["verify", *argv], tmp_path, monkeypatch)[0] == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(prefix) and printed.err.count("\n") == 1


def test_verify_csv_error_names_the_resolutions_it_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_csv(gaussian(Grid(10.0, 201)), tmp_path / "u0.csv")
    argv = ["verify", "--X", "10", "--n", "201", "--profile", "from_csv:path=u0.csv"]
    assert run(argv, tmp_path, monkeypatch)[0] == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: csv grid (X=10.0, n=201) does not match the requested grid (X=10.0, n=101); "
        "verify runs the profile at n = 101, 201, 401\n")


def test_verify_suite_runs_on_the_given_profile():
    grid = Grid(20.0, 201)
    suite = VerificationSuite(SolverConfig(grid=grid), "sech2:a=0.05,k=1")
    traj = suite.run(201)
    assert np.array_equal(traj.states[0].w.values, sech2(grid, a=0.05, k=1).values)


def test_verify_double_resolution_runs_keep_three_levels():
    # chain_rule and oracle_agreement share one double run and read only t = T/2 and T
    suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
    suite.check_chain_rule()
    suite.check_oracle_agreement()
    half, n, double = suite._resolutions()
    assert sorted(suite._runs) == [half, n, double] == [26, 51, 101]
    traj = suite._runs[double]
    u0 = suite._data(double)
    geo = ball_geometry(u0, suite.config.r0)
    full = integrate(u0, SolverConfig(grid=u0.grid, dt=geo.lifespan / (2 * STEPS),
                                      t_end=geo.lifespan, r0=suite.config.r0), geo)
    t_half = geo.lifespan / 2
    assert len(traj.states) == 3 and len(full.states) == 2 * STEPS + 1
    for a, b in ((traj.final, full.final), (traj.state_at(t_half), full.state_at(t_half))):
        assert a.t == b.t and a.y.tobytes() == b.y.tobytes()


def test_verify_run_all_integrates_each_resolution_once():
    suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
    suite.run_all()
    assert sorted(suite._runs) == [26, 51, 101]
    assert [len(suite._runs[n].states) for n in (26, 51, 101)] == [STEPS // 2 + 1, STEPS + 1, 3]
    with pytest.raises(KeyError):  # no run at any other n
        suite.run(201)


def verdicts(results):
    return [(res.name, res.passed, res.measured, res.requirement) for res in results]


def test_verify_run_all_matches_the_checks_run_one_at_a_time():
    results = VerificationSuite(SolverConfig(grid=Grid(10.0, 51))).run_all()
    suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
    assert verdicts(results) == verdicts(getattr(suite, f"check_{name}")()
                                         for name in CHECK_NAMES)


def test_verify_worker_checks_never_run_the_solver(monkeypatch):
    parent = os.getpid()
    real_run = VerificationSuite.run

    def run_in_parent(self, n):
        if os.getpid() != parent:
            raise AssertionError(f"a worker-side check called run({n})")
        return real_run(self, n)

    monkeypatch.setattr(VerificationSuite, "run", run_in_parent)
    results = VerificationSuite(SolverConfig(grid=Grid(10.0, 51))).run_all()
    assert [res.name for res in results] == list(CHECK_NAMES)
    assert len(SELF_CONTAINED) == 6 and set(SELF_CONTAINED) < set(CHECK_NAMES)
    assert multiprocessing.active_children() == []


def test_verify_worker_guard_breach_exits_3(tmp_path, monkeypatch, capsys):
    breach = GuardBreach("k2", 7, 0.5, 0.25, 0.05, 0.1)

    def check_continuity(self):
        raise breach

    # continuity runs in the worker, so the breach crosses the process boundary
    monkeypatch.setattr(VerificationSuite, "check_continuity", check_continuity)
    assert run(["verify", "--X", "10", "--n", "51"], tmp_path, monkeypatch)[0] == EXIT_GUARD
    assert capsys.readouterr().err == f"guard breach: {breach}\n"
    assert multiprocessing.active_children() == []


def inverse_band_one_percent_low(monkeypatch):
    """Move the inverse slope band's upper edge 1 % lower, a band defect that the
    saturated map of flow_map_bounds, whose inverse slope sits on that edge, fails."""
    check = fwsolver.flowmap._check_bounds

    def defective(name, lo_meas, hi_meas, lo, hi, tol, t):
        check(name, lo_meas, hi_meas, lo, 0.99 * hi if name == "inverse" else hi, tol, t)

    monkeypatch.setattr(fwsolver.flowmap, "_check_bounds", defective)


def test_flow_map_band_defect_fails_the_check_with_its_measurements(monkeypatch):
    suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
    sound = suite.check_flow_map_bounds()
    inverse_band_one_percent_low(monkeypatch)
    broken = suite.check_flow_map_bounds()
    assert sound.passed and sound.measured["run_in_band"]
    assert not broken.passed
    assert broken.measured == {**sound.measured, "run_in_band": False}


def test_flow_map_bounds_counts_a_non_monotone_run_state_out_of_band():
    # every stored level is judged, the 20th and those between alike
    for level in (5, 20):
        suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
        suite.run(51).states[level].y[3][10] = -5.0  # a map that cannot be assembled
        result = suite.check_flow_map_bounds()
        assert not result.passed and not result.measured["run_in_band"]


def test_verify_band_defect_is_a_failed_check_not_a_guard_breach(tmp_path, monkeypatch,
                                                                 capsys):
    inverse_band_one_percent_low(monkeypatch)
    code, out = run(["verify", "--X", "10", "--n", "51"], tmp_path, monkeypatch)
    assert code == EXIT_VERIFY
    assert not json.loads((out / "verify.json").read_text())["flow_map_bounds"]["passed"]
    printed = capsys.readouterr()
    assert "guard breach:" not in printed.err
    assert "FAIL flow_map_bounds: " in printed.out


def test_verify_zero_data_passes_trivially(tmp_path, monkeypatch):
    code, out = run(["verify", "--X", "10", "--n", "401",
                     "--profile", "gaussian:a=0,sigma=1"], tmp_path, monkeypatch)
    assert code == EXIT_OK
    payload = json.loads((out / "verify.json").read_text())
    assert all(v["passed"] for v in payload.values())


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("solve", "verify", "continuity", "breaking")


def readme_commands():
    """The arguments of every ``fw ...`` line of the README, continuations joined."""
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("fw ")]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == set(COMMANDS)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv, monkeypatch):
    # a flag renamed in the parser but not in the README fails to parse here
    log = []
    for command in COMMANDS:
        stub_command(monkeypatch, command, log)
    assert main(argv) == EXIT_OK
    assert log == [argv[0]]
