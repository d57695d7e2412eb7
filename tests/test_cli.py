import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fwsolver.cli
import fwsolver.flowmap
import fwsolver.verification
from fwsolver.cli import (EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_VERIFY,
                          _parse_config_file, _snapshot_stride, _write_snapshots, main)
from fwsolver.grid import read_csv, write_csv
from fwsolver.flowmap import FlowMapError
from fwsolver.lagrangian import (GuardBreach, LagrangianState, SolverConfig, _time_steps,
                                 ball_geometry, integrate, stream_levels)
from fwsolver.profiles import gaussian, make_profile, sech2
from fwsolver.grid import Grid
from fwsolver.verification import CHECK_NAMES, STEPS, WORKER_CHECKS, VerificationSuite


SOLVE_ARGS = ["solve", "--profile", "gaussian:a=0.1,sigma=1",
              "--X", "10", "--n", "401", "--t-end", "auto"]
# coarse steep data: the map stops increasing before q reaches its floor
FLOW_MAP_DATA = ["--profile", "sech2:a=2,k=3", "--X", "20", "--n", "81", "--guard", "warn"]
FLOW_MAP_SOLVE = ["solve", *FLOW_MAP_DATA, "--t-end", "1.2"]


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
    """``fw solve`` at n=201 counting the states whose interpolant is built
    (``flowmap._slopes`` gets two columns, ``w`` and ``v``, per state) and
    the flow-map inversions; returns (out dir, trajectory, counts)."""
    real_slopes = fwsolver.flowmap._slopes
    real_invert = fwsolver.flowmap.invert_many
    counts = {"interpolants": 0, "inversions": 0}

    def slopes(x, y):
        counts["interpolants"] += y.shape[1] // 2
        return real_slopes(x, y)

    def invert_many(fmap, xs):
        counts["inversions"] += 1
        return real_invert(fmap, xs)

    monkeypatch.setattr(fwsolver.flowmap, "_slopes", slopes)
    monkeypatch.setattr(fwsolver.flowmap, "invert_many", invert_many)
    code, out = run(["solve", "--X", "10", "--n", "201"], tmp_path, monkeypatch)
    assert code == EXIT_OK
    grid = Grid(10.0, 201)  # the same run, at the command's default profile
    return out, integrate(gaussian(grid, a=0.1, sigma=1.0), SolverConfig(grid=grid)), counts


def test_solve_reconstructs_each_state_once_per_route(tmp_path, monkeypatch):
    _, traj, counts = solve_counting_reconstructions(tmp_path, monkeypatch)
    n = len(traj.states)
    assert counts == {"interpolants": n, "inversions": n}


def test_solve_snapshots_read_back_as_reconstructions(tmp_path, monkeypatch):
    out, traj, _ = solve_counting_reconstructions(tmp_path, monkeypatch)
    paths = sorted(out.glob("snapshot_*.csv"))
    assert len(paths) >= 20
    for path in paths:
        snap = fwsolver.flowmap.reconstruct(traj.states[int(path.stem.split("_")[1])])
        x, u, ux = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(x, snap.u.grid.x)
        assert np.array_equal(u, snap.u.values) and np.array_equal(ux, snap.ux.values)
    # the fw process writes the flow maps, the forked one the snapshots, each
    # stepping its own copy of the run: eta = x + displacement of the same level
    maps = sorted(out.glob("flowmap_*.csv"))
    assert [path.name[len("flowmap"):] for path in maps] == [
        path.name[len("snapshot"):] for path in paths]
    for path in maps:
        state = traj.states[int(path.stem.split("_")[1])]
        rows = "".join(f"{x:.17g},{eta:.17g}\n"
                       for x, eta in zip(state.grid.x, state.grid.x + state.y[3]))
        assert path.read_text() == "x,eta\n" + rows


@pytest.mark.parametrize("argv, levels", [
    # 199 steps of about T/200: 68 levels, stride 3 (the default step's 21 levels
    # are always on a stride of 1)
    (["--X", "10", "--n", "201", "--dt", "3.3e-4", "--store-every", "3"], None),
    # a breach ends it at level 190 of 500, so the snapshots keep the planned stride 25
    (["--profile", "sech2:a=2,k=1", "--X", "20", "--n", "401", "--guard", "warn",
      "--t-end", "1.0", "--dt", "0.002"], [*range(0, 190, 25), 190]),
], ids=["off-stride-end", "breach"])
def test_solve_writes_the_last_stored_level(argv, levels, tmp_path, monkeypatch):
    _, out = run(["solve", *argv], tmp_path, monkeypatch)
    last = len((out / "series.csv").read_text().splitlines()) - 2  # a header, one row a level
    assert last % max(1, last // 20) != 0
    for name in ("snapshot", "flowmap"):
        written = sorted(int(path.stem.split("_")[1]) for path in out.glob(f"{name}_*.csv"))
        assert written[-1] == last
        assert levels is None or written == levels


def test_solve_holds_no_stored_level_past_its_use(tmp_path, monkeypatch):
    # at 199 steps of about T/200, storing every step rather than every 8th adds
    # about 175 levels of (4, n) doubles, none of which the streamed solve keeps
    # once it has read them
    n = 401

    def peak(every, subdir):
        tracemalloc.start()
        try:
            code, _ = run(["solve", "--X", "10", "--n", str(n), "--dt", "3.3e-4",
                           "--store-every", every],
                          tmp_path, monkeypatch, subdir=subdir)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        return peak_bytes

    peak("8", "warm-up")  # the first run also allocates lazy imports and caches
    assert peak("1", "every1") - peak("8", "every8") < 20 * 4 * n * 8


def test_solve_producer_holds_no_stored_level_past_its_use(tmp_path):
    # the same bound for the forked process's part, run in this process
    grid = Grid(10.0, 401)
    u0 = gaussian(grid, a=0.1, sigma=1.0)

    def peak(every, subdir):
        cfg = SolverConfig(grid=grid, dt=3.3e-4, store_every=every)
        traj, levels = stream_levels(u0, cfg)
        stride = _snapshot_stride(_time_steps(cfg, traj.geometry)[2], cfg.store_every)
        out = tmp_path / subdir
        out.mkdir()
        tracemalloc.start()
        try:
            _write_snapshots(levels, lambda i: i % stride == 0, out)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list(out.glob("snapshot_*.csv"))) >= 20
        return peak_bytes

    peak(8, "warm-up")
    assert peak(1, "every1") - peak(8, "every8") < 20 * 4 * grid.n_points * 8


def test_solve_writes_no_file_before_it_forks(tmp_path, monkeypatch):
    # a file written before the fork would be the fw process's alone to
    # write, and its text would stay cached through both steppings
    real_fork, at_fork = os.fork, []

    def fork():
        at_fork.append(sorted(out.iterdir()))
        return real_fork()

    out = tmp_path / "out"
    monkeypatch.setattr(fwsolver.cli.os, "fork", fork)
    assert run(["solve", "--X", "10", "--n", "201"], tmp_path, monkeypatch)[0] == EXIT_OK
    assert at_fork == [[]]
    assert (out / "initial_data.csv").exists()


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


@pytest.mark.parametrize("argv", [SOLVE_ARGS, FLOW_MAP_SOLVE], ids=["solve", "flow-map-solve"])
def test_solve_determinism_byte_identical(argv, tmp_path, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the flow-map data is not smooth
        _, out1 = run(argv, tmp_path, monkeypatch, subdir="a")
        _, out2 = run(argv, tmp_path, monkeypatch, subdir="b")
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir()) and len(names) > 5
    for name in names:
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
    real_stream = fwsolver.cli.stream_levels
    configs = []
    monkeypatch.setattr(fwsolver.cli, "stream_levels",
                        lambda u0, c, *a: configs.append(c) or real_stream(u0, c, *a))
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


FLOW_MAP_BREACH = ("warning: initial data is not smooth enough: slope jumps by 1.98 between "
                   "nodes 39 and 40 (x=-0.5), tolerance 1.48\n"
                   "guard breach: flow map is not strictly increasing at RK stage post-step, "
                   "node 40 (x=0), ")
VERIFY_REJECTS = [("--dt", "1e-3"), ("--t-end", "0.01"), ("--q-floor", "0.2"),
                  ("--boundary-tol", "1e-5"), ("--guard", "warn"), ("--store-every", "5")]
ZERO_HORIZON = [("solve", ["--t-end", "0"]), ("continuity", ["--t-end", "0"]),
                ("breaking", ["--guard", "warn", "--t-max", "0"])]


@pytest.mark.parametrize("argv, code, prefix", [
    (["solve", "--X", "10", "--n", "201", "--dt", "inf"],
     EXIT_CONFIG, "error: dt must be positive and finite"),
    (["solve", "--X", "10", "--n", "201", "--q-floor", "-5"],
     EXIT_CONFIG, "error: q_floor must be positive"),
    (["solve", "--X", "10", "--n", "201", "--t-end", "nan"],
     EXIT_CONFIG, "error: t_end must be finite"),
    # a zero horizon takes one step of dt = 0, so each command rejects it before any write
    *[([command, "--X", "10", "--n", "201", *flags],
       EXIT_CONFIG, "error: t_end must be finite and nonzero, got 0.0")
      for command, flags in ZERO_HORIZON],
    (["solve", "--X", "10", "--n", "201", "--profile", "from_csv:path=missing.csv"],
     EXIT_CONFIG, "error: cannot read profile csv"),
    # zero base data never moves q; the perturbed run drops below the floor at a
    # stage input, the only end-to-end run that trips that check
    (["continuity", "--X", "10", "--n", "201", "--profile", "gaussian:a=0,sigma=1",
      "--perturbation", "gaussian:a=0.1,sigma=1", "--eps", "0.3,0.2", "--q-floor", "0.999"],
     EXIT_GUARD, "guard breach: stretch floor breached at RK stage k2, node 107 (x=0.7), "
                 "t=0.0245455: q=0.998978 <= 0.999"),
    # the slope tendency overflows in the first stage; the last finite state is
    # written, after the warning about the data not decaying
    (["solve", "--X", "40", "--n", "4001", "--guard", "warn",
      "--profile", "gaussian:a=1e160,sigma=4"],
     EXIT_GUARD, "warning: initial data does not decay at the left boundary: "
                 "|u0| = 3.72e+116 > 1e-06; initial data does not decay at the right "
                 "boundary: |u0| = 3.72e+116 > 1e-06\n"
                 "guard breach: non-finite state at RK stage k1"),
    # the step that folds the map is the breach, in solve and in continuity alike
    (FLOW_MAP_SOLVE, EXIT_GUARD,
     FLOW_MAP_BREACH + "t=0.200743: eta_41 - eta_40 = -0.00080183 <= 0"),
    (["continuity", *FLOW_MAP_DATA, "--t-end", "0.25",
      "--perturbation", "gaussian:a=0.01,sigma=1", "--eps", "1e-2,1e-3"],
     EXIT_GUARD, FLOW_MAP_BREACH + "t=0.200893: eta_41 - eta_40 = -0.00117922 <= 0"),
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
    # a parameter or config key given twice is ambiguous, so neither value is used
    (["solve", "--X", "10", "--n", "201", "--profile", "gaussian:a=0.1,a=0.2"],
     EXIT_CONFIG, "error: profile parameter a is given twice in 'gaussian:a=0.1,a=0.2'"),
    # the parenthesized form needs its closing parenthesis, and the colon form takes none
    (["solve", "--X", "10", "--n", "201", "--profile", "gaussian(a=0.1"],
     EXIT_CONFIG, "error: cannot parse profile spec 'gaussian(a=0.1'"),
    (["solve", "--X", "10", "--n", "201", "--profile", "gaussian:a=0.1)"],
     EXIT_CONFIG, "error: profile parameter a='0.1)' is not numeric"),
    (["solve", "--config", "twice.cfg"],
     EXIT_CONFIG, "error: twice.cfg:3: key 'n_points' is already set on line 1"),
    # numpy divides by zero building the profile; only the finiteness check reports
    (["solve", "--X", "10", "--n", "201", "--profile", "gaussian:sigma=0"],
     EXIT_CONFIG, "error: profile 'gaussian:sigma=0': grid function values must be finite"),
    # the peakon profile is the exact wave at t = 0, which keeps its crest 5 inside the domain
    (["solve", "--X", "4", "--n", "81", "--guard", "warn", "--profile", "peakon"],
     EXIT_CONFIG, "error: profile 'peakon': peak at x=0 is closer than 5.0 to the boundary "
                  "of [-4.0, 4.0]"),
    # an eps repeated up to sign repeats a data distance, so a fit would see one point twice
    *[(["continuity", "--X", "10", "--n", "201", "--eps", f"1e-2,{again}"],
       EXIT_CONFIG, f"error: eps={again:g} repeats the data distance "
                    "|eps| sup|perturbation| = 0.001 of eps=0.01")
      for again in (1e-2, -1e-2)],
], ids=["dt-inf", "q-floor-negative", "t-end-nan",
        *[f"zero-horizon-{command}" for command, _ in ZERO_HORIZON],
        "csv-missing", "continuity-breach", "non-finite", "flow-map-solve",
        "flow-map-continuity", "verify-dt-inf", "verify-r0",
        *[f"verify{flag[1:]}" for flag, _ in VERIFY_REJECTS],
        "profile-key-solve", "profile-key-verify", "profile-key-twice", "profile-unclosed",
        "profile-stray-paren", "config-key-twice",
        "profile-divides-by-zero", "peakon-margin", "eps-twice", "eps-twice-signed"])
def test_exit_code_matrix(argv, code, prefix, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "twice.cfg").write_text("n_points = 201\nX = 10\nn_points = 401\n")
    with warnings.catch_warnings():
        # print every warning as a shell sees it, whether or not pytest records them
        warnings.simplefilter("always")
        warnings.showwarning = print_warning
        assert run(argv, tmp_path, monkeypatch)[0] == code
    assert code != EXIT_CONFIG or not (tmp_path / "out").exists()  # settings fail before any write
    if argv == FLOW_MAP_SOLVE:  # the files of the valid levels, as after any breach
        out = tmp_path / "out"
        levels = ("00000", "00094", "00188", "00282", "00314")
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["initial_data.csv", "geometry.json", "series.csv",
             *(f"{name}_{i}.csv" for name in ("flowmap", "snapshot") for i in levels)])
        last_t = float((out / "series.csv").read_text().splitlines()[-1].split(",")[0])
        assert last_t == 0.20010621348911312 < 0.200743
        for path in out.glob("flowmap_*.csv"):
            assert np.all(np.diff(np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]) > 0)
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 + prefix.count("\n")


@pytest.mark.parametrize("argv, unusable", [
    (["solve"], "out"),
    (["verify"], "file/out"),
    (["continuity"], "out"),
    (["breaking", "--guard", "warn", "--t-max", "0.1"], "file/out"),
], ids=["solve", "verify", "continuity", "breaking"])
def test_unusable_output_exits_2(argv, unusable, tmp_path, monkeypatch, capsys):
    # --output names a file (FileExistsError) or a path under one (NotADirectoryError)
    (tmp_path / unusable.split("/")[0]).write_text("")
    runs = []
    monkeypatch.setattr(VerificationSuite, "run_all", lambda suite: runs.append(suite) or [])
    for name in ("continuity_experiment", "wave_breaking_probe"):
        monkeypatch.setattr(fwsolver.cli, name, lambda *args, **kwargs: runs.append(args))
    code, _ = run([*argv, "--X", "10", "--n", "201"], tmp_path, monkeypatch, subdir=unusable)
    assert code == EXIT_CONFIG and runs == []
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert str(tmp_path / unusable) in err


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


def test_solve_prints_each_line_once_into_a_file(tmp_path):
    # stdout to a file is block-buffered, so an unflushed buffer at the fork
    # would print twice
    src = str(Path(fwsolver.cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "FW_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(tmp_path / "stdout.txt", "w") as fh:
        code = subprocess.run([sys.executable, "-m", "fwsolver.cli", *SOLVE_ARGS,
                               "--output", str(tmp_path / "out")],
                              stdout=fh, env=env, cwd=tmp_path, timeout=120).returncode
    assert code == EXIT_OK
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert len(lines) == 7 and lines[-1].startswith("wrote 21 snapshots to ")
    assert len(set(lines)) == len(lines)


@pytest.mark.parametrize("argv, code", [
    (SOLVE_ARGS, EXIT_OK),
    (["solve", "--profile", "sech2:a=2,k=1", "--X", "20", "--n", "401", "--guard", "warn",
      "--t-end", "1.0", "--dt", "0.002", "--store-every", "50"], EXIT_GUARD),
    (FLOW_MAP_SOLVE, EXIT_GUARD),
], ids=["ok", "breach", "flow-map"])
def test_solve_leaves_no_process_behind(argv, code, tmp_path, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the flow-map data is not smooth
        assert run(argv, tmp_path, monkeypatch)[0] == code
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_one_level(snapshots):
    next(iter(snapshots))
    raise ValueError("stopped reading")


@pytest.mark.parametrize("name, stub, error", [
    # the forked process dies
    ("_write_snapshots", lambda *args: os._exit(5), "exited with status 5"),
    # it steps every level, then fails to write a snapshot
    ("write_snapshot_csv", lambda *args: 1 / 0, "exited with status 1"),
    # this process fails while the forked one still has levels to step
    ("diagnostics_series", read_one_level, None),
], ids=["producer-dies", "producer-fails-late", "consumer-stops"])
def test_solve_reaps_a_failed_producer(name, stub, error, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fwsolver.cli, name, stub)
    if error is None:
        assert run(SOLVE_ARGS, tmp_path, monkeypatch)[0] == EXIT_CONFIG
        assert capsys.readouterr().err == "error: stopped reading\n"
    else:
        with pytest.raises(RuntimeError, match=error) as raised:
            run(SOLVE_ARGS, tmp_path, monkeypatch)
        assert "\n" not in str(raised.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solve_reports_an_unusable_snapshot_path_in_one_line(tmp_path, monkeypatch, capfd):
    # the forked process writes the snapshots, so its error reaches stderr as
    # the fw process's own errors do: one line, exit 2
    (tmp_path / "out" / "snapshot_00000.csv").mkdir(parents=True)
    assert run(SOLVE_ARGS, tmp_path, monkeypatch)[0] == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: [Errno 21] ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("spec", ["gaussian()", "gaussian:", "gaussian(a=0.1, sigma=1)"])
def test_profile_spec_forms_parse(spec):
    grid = Grid(10.0, 201)
    assert make_profile(spec, grid).values.tobytes() == gaussian(grid).values.tobytes()


@pytest.mark.parametrize("form", ["from_csv:path={}", "from_csv(path={})"])
def test_profile_csv_path_keeps_its_parentheses(form, tmp_path):
    grid = Grid(10.0, 201)
    write_csv(gaussian(grid), tmp_path / "run(1)")
    u0 = make_profile(form.format(tmp_path / "run(1)"), grid)
    assert u0.values.tobytes() == gaussian(grid).values.tobytes()


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


def test_continuity_rejects_a_repeated_alpha_before_any_run(tmp_path, monkeypatch, capsys):
    # the Hölder distances are kept per alpha, so a repeat would misalign them with eps
    code, out = run(["continuity", "--X", "10", "--n", "201", "--eps", "1e-1,1e-2,1e-3",
                     "--alpha", "0.5,0.5"], tmp_path, monkeypatch)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: alpha=0.5 is given twice\n"
    assert not out.exists()


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


@pytest.mark.parametrize("flags, stride", [(["--store-every", "1"], 1), ([], 1),
                                           (["--store-every", "2"], 2)])
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


def test_breaking_steps_at_min_h_and_a_200th_of_the_lifespan(tmp_path, monkeypatch):
    # the probe locates a breach only to the step that fails, so an unset dt
    # resolves to min(h, T/200) rather than the solver's default of T/20
    grid = Grid(20.0, 201)
    dt = min(grid.h, ball_geometry(sech2(grid, a=2.0, k=1.0)).lifespan / 200)
    probe = ["breaking", "--profile", "sech2:a=2,k=1", "--X", "20", "--n", "201",
             "--guard", "warn", "--t-max", "1.5"]
    reports = []
    for argv, subdir in ((probe, "unset"), (probe + ["--dt", repr(dt)], "explicit")):
        with pytest.warns(UserWarning, match="not smooth enough"):
            code, out = run(argv, tmp_path, monkeypatch, subdir=subdir)
        assert code == EXIT_OK
        reports.append(json.loads((out / "breaking.json").read_text()))
    unset, explicit = reports
    assert unset["breach_time"] is not None
    assert (unset["breach_time"], unset["breach_x"]) == (explicit["breach_time"],
                                                         explicit["breach_x"])


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


def test_verify_double_resolution_run_keeps_five_levels():
    # chain_rule and oracle_agreement share one double run and read only t = T/2 and T;
    # it keeps the levels of every run, t = 0, the three around T/2 and T
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
    assert len(traj.states) == 5 and len(full.states) == 2 * STEPS + 1
    for a, b in ((traj.final, full.final), (traj.states[2], full.states[STEPS])):
        assert a.t == b.t and a.y.tobytes() == b.y.tobytes()
    # the checks read T/2 by index, as the middle kept level of every run
    assert [len(suite._runs[nn].states) for nn in (half, n, double)] == [5, 5, 5]
    for kept in suite._runs.values():
        mid = kept.states[len(kept.states) // 2]
        assert mid.t == pytest.approx(kept.geometry.lifespan / 2, abs=1e-15)


def count_streams(monkeypatch) -> list:
    """The grid sizes of the runs that the suite streams from now on."""
    real_stream = fwsolver.verification.stream_levels
    streamed = []

    def stream_levels(u0, *args):
        streamed.append(u0.grid.n_points)
        return real_stream(u0, *args)

    monkeypatch.setattr(fwsolver.verification, "stream_levels", stream_levels)
    return streamed


def test_verify_oracle_steps_at_its_runs_dt(monkeypatch):
    calls = []
    real_oracle = fwsolver.verification.eulerian_oracle

    def recording_oracle(u0, t_end, steps):
        calls.append((u0.grid.n_points, t_end, steps))
        return real_oracle(u0, t_end, steps)

    monkeypatch.setattr(fwsolver.verification, "eulerian_oracle", recording_oracle)
    streamed = count_streams(monkeypatch)
    suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
    suite.check_oracle_agreement()
    resolutions = suite._resolutions()
    assert [n for n, _, _ in calls] == list(resolutions) == streamed
    assert [len(suite.run(n).states) for n in resolutions] == [5, 5, 5]
    for n, t_half, oracle_steps in calls:
        lifespan = suite.run(n).geometry.lifespan
        # halving both the time and the step count is exact, so the steps agree to the bit
        assert t_half / oracle_steps == lifespan / resolutions[n]


def test_verify_run_all_integrates_each_resolution_once(monkeypatch):
    streamed = count_streams(monkeypatch)
    suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
    suite.run_all()
    assert sorted(suite._runs) == sorted(streamed) == [26, 51, 101]
    # t = 0, the three levels around T/2 and T
    assert [len(suite._runs[n].states) for n in (26, 51, 101)] == [5, 5, 5]
    with pytest.raises(KeyError):  # no run at any other n
        suite.run(201)


def test_verify_holds_no_run_level_past_its_use():
    # the configured run makes 401 levels of (4, n) doubles; its flow-map and size
    # verdicts are made as they stream, and the run keeps five of them
    grid = Grid(10.0, 401)

    def peak():
        suite = VerificationSuite(SolverConfig(grid=grid))
        tracemalloc.start()
        try:
            assert suite.check_flow_map_bounds().passed and suite.check_size_estimate().passed
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(traj.states) <= 5 for traj in suite._runs.values())
        return peak_bytes

    peak()  # the first run also allocates lazy imports and caches
    assert peak() < 40 * 4 * grid.n_points * 8


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
    assert WORKER_CHECKS == ("fast_vs_direct", "continuity", "lipschitz_sampling")
    assert multiprocessing.active_children() == []


def test_verify_leaves_numpy_random_to_the_worker(tmp_path):
    # the first use of numpy.random costs 5.5 MiB of RSS, and perfbench's
    # peak_rss_mb reads the fw process alone
    src = str(Path(fwsolver.cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "FW_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from fwsolver.cli import main; "
            "code = main(['verify', '--X', '10', '--n', '51', '--output', 'out']); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.stdout.splitlines()[-1] == f"{EXIT_VERIFY} False", proc.stderr


def test_verify_worker_guard_breach_exits_3(tmp_path, monkeypatch, capsys):
    breach = GuardBreach("stretch floor", "k2", 7, 0.5, 0.25, 0.05, 0.1)

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
    # the run's levels are judged as they stream, so the defect goes in before a fresh run
    sound = VerificationSuite(SolverConfig(grid=Grid(10.0, 51))).check_flow_map_bounds()
    inverse_band_one_percent_low(monkeypatch)
    broken = VerificationSuite(SolverConfig(grid=Grid(10.0, 51))).check_flow_map_bounds()
    assert sound.passed and sound.measured["run_in_band"]
    assert not broken.passed
    assert broken.measured == {**sound.measured, "run_in_band": False}


def non_monotone_level(monkeypatch, level: int):
    """Stream level ``level`` of the n = 51 run with a map that cannot be
    assembled, leaving the run's later steps as they were."""
    real_stream = fwsolver.verification.stream_levels

    def stream_levels(u0, *args):
        traj, levels = real_stream(u0, *args)
        if u0.grid.n_points != 51:
            return traj, levels

        def defective():
            for i, state in enumerate(levels):
                if i == level:
                    y = state.y.copy()
                    y[3][10] = -5.0
                    state = LagrangianState(state.t, state.grid, y)
                yield state

        return traj, defective()

    monkeypatch.setattr(fwsolver.verification, "stream_levels", stream_levels)


def test_flow_map_bounds_raises_on_a_non_monotone_run_state(monkeypatch):
    # every stored level is judged, the 20th and those between alike; the step
    # guards the map, so a level whose map cannot be assembled is a fault, not a
    # level out of band
    for level in (5, 20):
        with monkeypatch.context() as patch:
            non_monotone_level(patch, level)
            suite = VerificationSuite(SolverConfig(grid=Grid(10.0, 51)))
            for check in (suite.check_flow_map_bounds, suite.check_size_estimate):
                with pytest.raises(FlowMapError, match="not strictly increasing near node 9"):
                    check()


def test_verify_non_monotone_run_state_exits_3(tmp_path, monkeypatch, capsys):
    non_monotone_level(monkeypatch, 20)
    assert run(["verify", "--X", "10", "--n", "51"], tmp_path, monkeypatch)[0] == EXIT_GUARD
    assert capsys.readouterr().err == ("guard breach: flow map is not strictly increasing "
                                       "near node 9 (x=-6.4, t=0.0332397)\n")
    assert multiprocessing.active_children() == []


def test_verify_run_cut_short_by_a_breach_exits_3(tmp_path, monkeypatch, capsys):
    # the configured run's stream ends in a breach: verify reports it rather
    # than judging the levels made before it
    breach = GuardBreach("flow map", "post-step", 9, -6.4, 0.03, -1e-3, 0.0)
    real_stream = fwsolver.verification.stream_levels

    def stream_levels(u0, *args):
        traj, levels = real_stream(u0, *args)

        def breached():
            yield from levels
            if u0.grid.n_points == 51:
                traj.breach = breach

        return traj, breached()

    monkeypatch.setattr(fwsolver.verification, "stream_levels", stream_levels)
    assert run(["verify", "--X", "10", "--n", "51"], tmp_path, monkeypatch)[0] == EXIT_GUARD
    assert capsys.readouterr().err == f"guard breach: {breach}\n"
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
