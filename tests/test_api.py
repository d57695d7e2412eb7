"""Every public name still resolves, and so does every function the
per-layer tracer in ``perfbench/`` wraps by name; a traced ``fw solve``
calls them as often as it reads levels; the command line runs on numpy
alone."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fwsolver

MODULES = sorted(m.name for m in pkgutil.iter_modules(fwsolver.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"fwsolver.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_names_are_the_module_names():
    # fwsolver exports each module's __all__, and no name twice
    owner = {}
    for module in MODULES:
        mod = importlib.import_module(f"fwsolver.{module}")
        for name in getattr(mod, "__all__", ()):
            assert owner.setdefault(name, module) == module, name
            assert getattr(fwsolver, name) is getattr(mod, name), name


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"fwsolver.{module}"), name, None))]
    assert missing == []


def src_env() -> dict:
    """The environment with this checkout's fwsolver first on the path."""
    src = str(Path(fwsolver.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_cli_import_loads(*packages):
    """The modules of ``packages`` that a fresh ``import fwsolver.cli`` loads."""
    code = ("import sys, fwsolver.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_imports_no_scipy():
    # scipy is a test-only dependency: a fresh ``import fwsolver.cli``
    # must not load any scipy module
    assert fresh_cli_import_loads("scipy") == "[]"


def test_cli_imports_no_process_pool():
    # only fw verify uses a process pool, and it imports the pool machinery
    # itself, so no other command pays for it at start-up (fw solve forks with
    # os.fork alone)
    assert fresh_cli_import_loads("multiprocessing", "concurrent") == "[]"


def test_traced_solve_reads_each_level_once(tmp_path, monkeypatch):
    # perfbench's child runs fw solve traced: the fw process reconstructs each
    # of the 21 levels once, and the series takes the 19 interior residuals
    # through the public pde_residual the tracer wraps
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracer = importlib.import_module("tracer")
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(perfbench / "child.py"), str(tmp_path / "run.json"),
                           str(spans), "solve", "--X", "10", "--n", "201",
                           "--output", str(tmp_path / "out")],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    calls = {name: st["calls"]
             for name, st in tracer.span_stats(json.loads(spans.read_text()))["spans"].items()}
    assert calls["flowmap.reconstruct"] == 21
    assert calls["diagnostics.pde_residual"] == 19
