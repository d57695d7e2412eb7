"""Named initial-data profiles and the small spec language the CLI and
config files use to select them (``gaussian:a=0.1,sigma=1`` and the
equivalent ``gaussian(a=0.1, sigma=1)``)."""

from __future__ import annotations

import re

import numpy as np

from .diagnostics import peakon
from .grid import Grid, GridFunction, read_csv

__all__ = ["gaussian", "sech2", "make_profile"]


def gaussian(grid: Grid, a: float = 0.1, sigma: float = 1.0) -> GridFunction:
    """Bump ``a * exp(-(x/sigma)^2)``."""
    x = grid.x
    return GridFunction(grid, a * np.exp(-((x / sigma) ** 2)))


def sech2(grid: Grid, a: float = 1.0, k: float = 1.0) -> GridFunction:
    """``a * sech(k x)^2``, the steepenable bump used by the breaking probe."""
    x = grid.x
    return GridFunction(grid, a / np.cosh(k * x) ** 2)


_SPEC_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?::(.*)|\((.*)\))?\s*$")


def parse_profile_spec(spec: str):
    """Parse ``name``, ``name:key=val,...`` or ``name(key=val, ...)``.

    Returns ``(name, params)`` with numeric values converted to float.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"cannot parse profile spec {spec!r}")
    name, body = m.group(1), m.group(2) or m.group(3)
    params: dict = {}
    if body:
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"profile parameter {item!r} is not key=value")
            key, val = (s.strip() for s in item.split("=", 1))
            if key in params:
                raise ValueError(f"profile parameter {key} is given twice in {spec!r}")
            if key == "path":
                params[key] = val
            else:
                try:
                    params[key] = float(val)
                except ValueError:
                    raise ValueError(f"profile parameter {key}={val!r} is not numeric") from None
    return name, params


#: name -> (builder, the parameters it takes) of every profile but from_csv
_PROFILES = {"gaussian": (gaussian, ("a", "sigma")),
             "peakon": (lambda grid: peakon(0.0, grid), ()), "sech2": (sech2, ("a", "k"))}


def make_profile(spec: str, grid: Grid) -> GridFunction:
    """Build the initial data named by a profile spec string."""
    name, params = parse_profile_spec(spec)
    if name in _PROFILES:
        build, keys = _PROFILES[name]
        unknown = [key for key in params if key not in keys]
        if unknown:
            raise ValueError(f"{name} takes {' and '.join(keys) or 'no parameters'}, "
                             f"not {', '.join(unknown)}")
        try:
            with np.errstate(all="ignore"):  # GridFunction reports a non-finite value
                return build(grid, **params)
        except ValueError as err:
            raise ValueError(f"profile {spec!r}: {err}") from None
    if name == "from_csv":
        if set(params) != {"path"}:
            raise ValueError("from_csv needs exactly path=<file>")
        try:
            f = read_csv(params["path"])
        except OSError as err:
            raise ValueError(f"cannot read profile csv: {err}") from None
        if f.grid != grid:
            raise ValueError(
                f"csv grid (X={f.grid.half_width}, n={f.grid.n_points}) does not match "
                f"the requested grid (X={grid.half_width}, n={grid.n_points})"
            )
        return f
    raise ValueError(f"unknown profile {name!r}; "
                     "choose gaussian, peakon, sech2 or from_csv")
