"""Benchmark of the ``fw`` command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each timed command runs in a fresh interpreter (``child.py``) on the
checkout's ``src/``.  A run first samples ``import fwsolver.cli`` a few
times, then repeats the workload's command one at a time (a closed loop
with one client) until the next repetition would overrun ``--seconds``.
Every repetition's output is checked.  ``--trace 1`` alternates untraced
and traced repetitions and reports per-layer metrics from the traced ones.
``--workload all`` runs the three workloads round-robin, so a slow phase
of the host hits all of them alike.

Per-run records (wall and CPU time, load average, checked values, the
environment) go to ``.perfbench_out/results/``; the last line of standard
output is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import span_stats
from workloads import WORKLOADS, check_output, make_plan

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# a run must end within 180 s; no child may outlive this budget
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"), ("pass_ratio", "1"))

# per-layer metrics read straight off the spans: (name, unit, span, stat)
SPAN_METRICS = (
    ("kernels.kernel_pair_arrays.calls", "count", "kernels.kernel_pair_arrays", "calls"),
    ("kernels.kernel_pair_arrays.self_s", "s", "kernels.kernel_pair_arrays", "self_s"),
    ("kernels.kernel_pair_direct.self_s", "s", "kernels.kernel_pair_direct", "self_s"),
    ("kernels.convected_pair.calls", "count", "kernels.convected_pair", "calls"),
    ("kernels.convected_pair.self_s", "s", "kernels.convected_pair", "self_s"),
    ("lagrangian.integrate.calls", "count", "lagrangian.integrate", "calls"),
    ("lagrangian.integrate.total_s", "s", "lagrangian.integrate", "total_s"),
    ("lagrangian.integrate.self_s", "s", "lagrangian.integrate", "self_s"),
    ("flowmap.reconstruct.calls", "count", "flowmap.reconstruct", "calls"),
    ("flowmap.reconstruct.self_s", "s", "flowmap.reconstruct", "self_s"),
    ("flowmap.reconstruct_smooth.calls", "count", "flowmap.reconstruct_smooth", "calls"),
    ("flowmap.reconstruct_smooth.self_s", "s", "flowmap.reconstruct_smooth", "self_s"),
    ("flowmap.invert_many.self_s", "s", "flowmap.invert_many", "self_s"),
    ("grid.interpolate_many.self_s", "s", "grid.interpolate_many", "self_s"),
    ("grid.write_csv.self_s", "s", "grid.write_csv", "self_s"),
    ("grid.holder_seminorm.calls", "count", "grid.holder_seminorm", "calls"),
    ("grid.holder_seminorm.self_s", "s", "grid.holder_seminorm", "self_s"),
    ("diagnostics.diagnostics_series.total_s", "s", "diagnostics.diagnostics_series", "total_s"),
    ("diagnostics.pde_residual.calls", "count", "diagnostics.pde_residual", "calls"),
    ("diagnostics.pde_residual.total_s", "s", "diagnostics.pde_residual", "total_s"),
    ("diagnostics.conserved.calls", "count", "diagnostics.conserved", "calls"),
    ("diagnostics.conserved.total_s", "s", "diagnostics.conserved", "total_s"),
    ("diagnostics.write_series_csv.self_s", "s", "diagnostics.write_series_csv", "self_s"),
    ("diagnostics.eulerian_oracle.total_s", "s", "diagnostics.eulerian_oracle", "total_s"),
    ("diagnostics.eulerian_oracle.self_s", "s", "diagnostics.eulerian_oracle", "self_s"),
    ("diagnostics.continuity_experiment.total_s", "s",
     "diagnostics.continuity_experiment", "total_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)
CHECK_NAMES = ("kernel_closed_form", "fast_vs_direct", "lifespan_arithmetic",
               "flow_map_bounds", "size_estimate", "chain_rule", "conservation_drift",
               "oracle_agreement", "pde_residual", "slope_ode_closed_form",
               "continuity", "lipschitz_sampling")
PER_LAYER = (
    [(name, unit) for name, unit, _, _ in SPAN_METRICS]
    + [("kernels.kernel_pair_arrays.us_per_call", "us"),
       ("lagrangian.rhs_evals", "count"),
       ("lagrangian.stored_state_mb", "MiB"),
       ("flowmap.reconstruct.calls_per_state", "1"),
       ("flowmap.write_s", "s"),
       ("cli.output_bytes", "B")]
    + [(f"verification.check.{c}.total_s", "s") for c in CHECK_NAMES]
    + [("setup.import_scipy_s", "s"), ("setup.import_numpy_s", "s"),
       ("setup.import_fwsolver_self_s", "s"), ("trace.overhead", "1")]
)
# top-level package in `python -X importtime` output -> metric of its summed self times
IMPORT_GROUPS = {"scipy": "setup.import_scipy_s", "numpy": "setup.import_numpy_s",
                 "fwsolver": "setup.import_fwsolver_self_s"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, or a foreign fwsolver)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts the fresh-interpreter children on the checkout's ``src/``."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.src = (root / "src").resolve()
        self.started = started
        self.env = dict(os.environ)
        # these would redirect the output or make the kernels dump files
        self.env.pop("FW_OUTPUT_DIR", None)
        self.env.pop("FW_KERNEL_DEBUG", None)
        # import from cached bytecode, as an installed package does, and keep
        # every bytecode file the children write inside the checkout
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str((root / OUT / "pycache").resolve())
        self.env["PYTHONPATH"] = str(self.src)

    def _timeout(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 1.0:
            raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")
        return left

    def child(self, workdir: Path, fw_argv=(), traced=False) -> dict:
        """Run ``child.py`` once; returns its record plus wall time and load."""
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        result = workdir / "child.json"
        spans = workdir / "spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result),
               str(spans) if traced else "-", *fw_argv]
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
        t0 = time.perf_counter()
        with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=self.env,
                                  cwd=self.root, timeout=self._timeout())
        wall = time.perf_counter() - t0
        if not result.exists():
            if not fw_argv:
                tail = (workdir / "stderr.txt").read_text()[-2000:]
                raise BenchError(f"import fwsolver.cli failed:\n{tail}")
            # the command crashed; the repetition fails on its exit code
            return {"wall_s": wall, "exit_code": proc.returncode}
        record = json.loads(result.read_text())
        record.update(wall_s=wall, loadavg=[float(v) for v in loadavg],
                      exit_code=proc.returncode)
        where = Path(record["fwsolver_file"]).resolve()
        if self.src not in where.parents:
            raise BenchError(f"imported fwsolver from {where}, not from {self.src}")
        if traced and spans.exists():
            record["trace"] = json.loads(spans.read_text())
        return record

    def importtime(self) -> dict:
        """Self time per module group from ``python -X importtime``."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fwsolver.cli"],
                              capture_output=True, text=True, env=self.env, cwd=self.root,
                              timeout=self._timeout(), check=True)
        groups = dict.fromkeys(IMPORT_GROUPS, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            top = parts[2].strip().split(".")[0]
            if top in groups:
                groups[top] += int(parts[0]) * 1e-6
        return groups


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def output_bytes(workdir: Path) -> int:
    return sum(p.stat().st_size for p in (workdir / "fw_out").rglob("*") if p.is_file()) \
        + (workdir / "stdout.txt").stat().st_size


def repetition(runner: Runner, plan, index: int, traced: bool) -> dict:
    workdir = OUT / "runs" / plan.workload / ("traced" if traced else "plain")
    argv = [*plan.argv, "--output", str(workdir / "fw_out")]
    rec = runner.child(workdir, argv, traced)
    problems, seen = check_output(plan.workload, workdir / "fw_out", rec.get("exit_code"))
    if traced and "trace" not in rec:
        problems.append("no spans written")
    rec.update(workload=plan.workload, index=index, traced=traced,
               problems=problems, checked=seen)
    if not problems:
        rec["output_bytes"] = output_bytes(workdir)
    return rec


def measure(runner: Runner, plans, seconds: float, trace: bool) -> tuple[list, list]:
    """Set-up samples, then rounds of one repetition per plan (and per traced
    mode) until another round would end after ``seconds``."""
    runner.child(OUT / "runs" / "warmup")  # writes bytecode, fills the file cache
    setup = [runner.child(OUT / "runs" / "setup")["import_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    rounds = 0
    while True:
        for plan in plans:
            for traced in modes:
                reps.append(repetition(runner, plan, rounds, traced))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return setup, reps


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setup: list, reps: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    failed = sum(bool(r["problems"]) for r in reps)
    return {
        "setup_s": (median(setup + [r["import_s"] for r in reps if "import_s" in r]),
                    len(setup) + sum("import_s" in r for r in reps)),
        "run_s": (median([r["run_s"] for r in plain if "run_s" in r]), len(plain)),
        "peak_rss_mb": (median([r["maxrss_mib"] for r in plain if "maxrss_mib" in r]),
                        len(plain)),
        "pass_ratio": ((len(reps) - failed) / len(reps), len(reps)),
    }


def layer_metrics(rec: dict) -> dict:
    stats = span_stats(rec["trace"])
    spans, trace = stats["spans"], rec["trace"]

    def get(span, stat):
        return spans.get(span, {}).get(stat, 0)

    out = {name: get(span, stat) for name, _, span, stat in SPAN_METRICS}
    calls = get("kernels.kernel_pair_arrays", "calls")
    out["kernels.kernel_pair_arrays.us_per_call"] = (
        1e6 * get("kernels.kernel_pair_arrays", "self_s") / calls if calls else 0.0)
    out["lagrangian.rhs_evals"] = stats["rhs_evals"]
    out["lagrangian.stored_state_mb"] = trace["stored_bytes"] / 2 ** 20
    rebuilt = get("flowmap.reconstruct", "calls") + get("flowmap.reconstruct_smooth", "calls")
    levels = trace["stored_levels"]
    out["flowmap.reconstruct.calls_per_state"] = rebuilt / levels if levels else 0.0
    out["flowmap.write_s"] = (get("flowmap.write_snapshot_csv", "self_s")
                              + get("flowmap.write_flowmap_csv", "self_s"))
    out["cli.output_bytes"] = rec.get("output_bytes", 0)
    for c in CHECK_NAMES:
        out[f"verification.check.{c}.total_s"] = get(f"verification.check.{c}", "total_s")
    return out


def per_layer(runner: Runner, reps: list, e2e: dict) -> dict:
    traced = [r for r in reps if r["traced"] and "trace" in r]
    per_rep = [layer_metrics(r) for r in traced]
    out = {name: median([m[name] for m in per_rep]) for name in per_rep[0]} if per_rep else {}
    imports = [runner.importtime() for _ in range(IMPORTTIME_SAMPLES)]
    for group, name in IMPORT_GROUPS.items():
        out[name] = median([g[group] for g in imports])
    run_s = e2e["run_s"][0]
    out["trace.overhead"] = (median([r["run_s"] for r in traced]) / run_s
                             if traced and run_s else 0.0)
    return {name: out.get(name, 0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(root: Path) -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [(index / f).read_text().strip() for f in ("level", "type", "size")]
        caches.append("L{} {} {}".format(*fields))
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True).stdout.strip() or None
        except OSError:  # no git on the PATH
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "git_sha": sha or "unknown (not a git checkout)",
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_table(workload: str, e2e: dict, reps: list, layers: dict | None) -> None:
    mine = [r for r in reps if r["workload"] == workload]
    failed = sum(bool(r["problems"]) for r in mine)
    print(f"{workload}: {len(mine)} runs, {failed} failed")
    units = dict(END_TO_END)
    for name, (value, n) in e2e.items():
        stat = "ratio " if name == "pass_ratio" else "median"
        print(f"  {name:<13} {stat} {value:.6g} {units[name]:<4} n={n}")
    print(f"  {'fail_ratio':<13} ratio  {failed / len(mine):.6g} 1    n={len(mine)}")
    for r in mine:
        for problem in r["problems"]:
            print(f"  FAIL run {r['index']} ({'traced' if r['traced'] else 'plain'}): {problem}")
    if layers:
        units = dict(PER_LAYER)
        for name, value in layers.items():
            print(f"  {name:<50} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "fwsolver" / "cli.py").is_file():
        print(f"error: {root} holds no src/fwsolver; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(root, started)
    try:
        plans = [make_plan(w, args.seed, OUT / "inputs") for w in workloads]
        setup, reps = measure(runner, plans, args.seconds * len(plans), bool(args.trace))
        results = {}
        for plan in plans:
            mine = [r for r in reps if r["workload"] == plan.workload]
            e2e = end_to_end(setup, mine)
            layers = per_layer(runner, mine, e2e) if args.trace else None
            results[plan.workload] = (e2e, layers)
            print_table(plan.workload, e2e, reps, layers)
    except (BenchError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    record = {"args": vars(args), "environment": environment(root),
              "inputs": {p.workload: p.inputs for p in plans},
              "setup_samples_s": setup,
              "runs": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
              "metrics": {w: {"end_to_end": e2e, "per_layer": layers}
                          for w, (e2e, layers) in results.items()}}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    metrics = {}
    for workload, (e2e, layers) in results.items():
        prefix = f"{workload}." if len(results) > 1 else ""
        if layers is None:
            for name, unit in END_TO_END:
                metrics[prefix + name] = {"value": e2e[name][0], "unit": unit}
        else:
            for name, unit in PER_LAYER:
                metrics[prefix + name] = {"value": layers[name], "unit": unit}
    failed = sum(bool(r["problems"]) for r in reps)
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
