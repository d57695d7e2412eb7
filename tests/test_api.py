"""Every public name still resolves, and so does every function the
per-layer tracer in ``perfbench/`` wraps by name; the command line runs
on numpy alone."""

import importlib
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


def fresh_cli_import_loads(*packages):
    """The modules of ``packages`` that a fresh ``import fwsolver.cli`` loads."""
    src = str(Path(fwsolver.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, fwsolver.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_imports_no_scipy():
    # scipy is a test-only dependency: a fresh ``import fwsolver.cli``
    # must not load any scipy module
    assert fresh_cli_import_loads("scipy") == "[]"


def test_cli_imports_no_process_pool():
    # only fw verify forks a worker, and it imports the pool machinery itself,
    # so no other command pays for it at start-up
    assert fresh_cli_import_loads("multiprocessing", "concurrent") == "[]"
