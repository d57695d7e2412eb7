"""Every public name still resolves, and so does every function the
per-layer tracer in ``perfbench/`` wraps by name."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fwsolver

MODULES = sorted(m.name for m in pkgutil.iter_modules(fwsolver.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"fwsolver.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"fwsolver.{module}"), name, None))]
    assert missing == []
