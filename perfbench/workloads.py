"""The three ``fw`` workloads: seeded inputs, command lines and output checks.

Every run is judged from outside, from the files it wrote, at the
tolerances of the acceptance suite (``tests/test_acceptance.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("solve-default", "solve-fine", "verify")

HALF_WIDTH = 20.0
FINE_N = 32001
# the CLI's default stretch floor; no workload passes --q-floor
Q_FLOOR = 0.1

# acceptance-suite tolerances
DRIFT_TOL = 1e-5
DRIFT_FLOOR = 1e-3  # denominator floor of the relative drift, as in the suite
SIZE_SLACK = 1e-2
RESIDUAL_TOL = 1e-3
ROUTE_TOL = 1e-10
N_CHECKS = 12


@dataclass
class Plan:
    """One workload at one seed: the ``fw`` arguments (without ``--output``)
    and the seeded parameters, which are recorded with the results."""

    workload: str
    argv: list
    inputs: dict = field(default_factory=dict)


def make_plan(workload: str, seed: int, input_dir: Path) -> Plan:
    """Build the workload's inputs from ``seed``; the same seed gives the same files."""
    rng = np.random.default_rng(seed)
    if workload == "solve-default":
        a = 0.1 * rng.uniform(0.9, 1.1)
        sigma = rng.uniform(0.9, 1.1)
        return Plan(workload,
                    ["solve", "--X", "20", "--n", "2001", "--t-end", "auto",
                     "--profile", f"gaussian:a={a!r},sigma={sigma!r}"],
                    {"seed": seed, "a": a, "sigma": sigma})
    if workload == "solve-fine":
        path = input_dir / f"packet_seed{seed}.csv"
        params = write_packet(rng, path)
        return Plan(workload,
                    ["solve", "--X", "20", "--n", str(FINE_N), "--store-every", "200",
                     "--profile", f"from_csv:path={path}"],
                    {"seed": seed, "packet": str(path), **params})
    if workload == "verify":
        # the suite fixes its own random seed and the CLI exposes none
        return Plan(workload, ["verify"], {"seed": seed, "seed_used": False})
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_packet(rng: np.random.Generator, path: Path) -> dict:
    """Gaussian envelope (sigma about 3) times five random cosines, scaled to
    sup 0.1.  The packet changes sign, so the kernel panels take their
    linear fallback as well as the exponential fit."""
    x = np.linspace(-HALF_WIDTH, HALF_WIDTH, FINE_N)
    sigma = 3.0 * rng.uniform(0.95, 1.05)
    k = rng.uniform(0.5, 2.5, 5)
    phase = rng.uniform(0.0, 2.0 * math.pi, 5)
    amp = rng.uniform(0.5, 1.0, 5) * rng.choice([-1.0, 1.0], 5)
    u = np.exp(-((x / sigma) ** 2)) * (amp[:, None] * np.cos(k[:, None] * x + phase[:, None])).sum(0)
    u *= 0.1 / np.max(np.abs(u))
    if not (u.min() < 0.0 < u.max() and max(abs(u[0]), abs(u[-1])) < 1e-10):
        raise RuntimeError("seeded packet must change sign and vanish at the ends")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{xi:.17g},{ui:.17g}\n" for xi, ui in zip(x, u))
    return {"sigma": sigma, "k": k.tolist(), "phase": phase.tolist(), "amp": amp.tolist()}


def _derivative(v: np.ndarray, h: float) -> np.ndarray:
    """Second-order differences, one-sided at the ends (as the solver takes u0')."""
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def _read_columns(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _check_solve(out: Path, workload: str) -> tuple[list, dict]:
    problems, seen = [], {}
    series = _read_columns(out / "series.csv")
    for key in ("e1", "e2", "e3"):
        first, last = series[key][0], series[key][-1]
        seen[f"drift_{key}"] = drift = abs(last - first) / max(abs(first), DRIFT_FLOOR)
        if not drift <= DRIFT_TOL:
            problems.append(f"{key} drift {drift:.3g} > {DRIFT_TOL:g}")
    u0 = _read_columns(out / "initial_data.csv")
    h = u0["x"][1] - u0["x"][0]
    c1 = np.max(np.abs(u0["value"])) + np.max(np.abs(_derivative(u0["value"], h)))
    seen["size"] = size = float(np.max(series["sup_u"] + series["sup_ux"]))
    seen["size_bound"] = bound = 2.0 * c1 * (1.0 + SIZE_SLACK)
    if not size <= bound:
        problems.append(f"size {size:.6g} > 2 |u0|_C1 (1 + 1e-2) = {bound:.6g}")
    seen["min_q"] = min_q = float(np.min(series["min_q"]))
    if not min_q > Q_FLOOR:
        problems.append(f"min_q {min_q:.6g} <= q_floor {Q_FLOOR:g}")
    residual = series["residual"][np.isfinite(series["residual"])]
    if workload == "solve-default" and residual.size == 0:
        problems.append("no finite interior residual in series.csv")
    seen["residual"] = worst = float(np.max(residual)) if residual.size else math.nan
    if residual.size and not worst <= RESIDUAL_TOL:
        problems.append(f"residual {worst:.3g} > {RESIDUAL_TOL:g}")
    return problems, seen


def _check_verify(out: Path) -> tuple[list, dict]:
    verdict = json.loads((out / "verify.json").read_text())
    problems = [f"check {name} failed" for name, res in sorted(verdict.items())
                if res["passed"] is not True]
    if len(verdict) != N_CHECKS:
        problems.append(f"verify.json holds {len(verdict)} checks, expected {N_CHECKS}")
    gap = verdict["fast_vs_direct"]["measured"]["worst_rel_disagreement"]
    if not gap <= ROUTE_TOL:
        problems.append(f"fast-vs-direct gap {gap:.3g} > {ROUTE_TOL:g}")
    return problems, {"fast_vs_direct": gap}


def check_output(workload: str, out: Path, exit_code) -> tuple[list, dict]:
    """Problems found in one run's output (empty when it passed), and the
    measured values the checks compared."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    try:
        if workload == "verify":
            return _check_verify(out)
        return _check_solve(out, workload)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {err!r}"], {}
