"""Span tracer for one ``fw`` command, and the per-layer metrics made from it.

:meth:`Tracer.install` wraps fwsolver's public functions after the package
is imported.  A wrapper replaces every binding of the function in the
fwsolver modules, not only the one where it is defined, because callers
look the name up in their own module at call time
(``fwsolver.lagrangian.kernel_pair_arrays``, ``fwsolver.cli.reconstruct``).
Spans (name, start, end, parent) are kept in memory and written out once
the command returns.  The traced code runs in one thread, so a single
stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# function names per fwsolver module; a span is named "<module>.<function>"
TRACED = {
    "kernels": ("kernel_pair_arrays", "kernel_pair_direct", "convected_pair"),
    "lagrangian": ("integrate", "step"),
    "flowmap": ("reconstruct", "invert_many", "write_snapshot_csv", "write_flowmap_csv"),
    "grid": ("interpolate_many", "write_csv", "holder_seminorm"),
    "diagnostics": ("diagnostics_series", "pde_residual", "conserved",
                    "write_series_csv", "eulerian_oracle", "continuity_experiment"),
    "cli": ("main",),
}

# bytes per stored time level and grid node: w, v, q, displacement in float64
STATE_BYTES_PER_NODE = 4 * 8


class Tracer:
    """Records spans of the wrapped functions and the solver's stored levels."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span or -1]
        self.stored_levels = 0
        self.stored_bytes = 0
        self.rebound = 0
        self._stack: list[int] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> list:
        span = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_reconstruct(self, fn):
        # one function, two routes: the PCHIP default and the C2 spline
        pchip = self._name_index("flowmap.reconstruct")
        spline = self._name_index("flowmap.reconstruct_smooth")

        @functools.wraps(fn)
        def traced(state, *args, **kwargs):
            smooth = kwargs.get("smooth", args[0] if args else False)
            span = self._open(spline if smooth else pchip)
            try:
                return fn(state, *args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_integrate(self, fn):
        inner = self.wrap("lagrangian.integrate", fn)

        @functools.wraps(fn)
        def counted(u0, config, *args, **kwargs):
            traj = inner(u0, config, *args, **kwargs)
            levels = len(traj.states)
            self.stored_levels += levels
            self.stored_bytes += levels * config.grid.n_points * STATE_BYTES_PER_NODE
            return traj

        return counted

    def install(self) -> None:
        """Wrap the functions in ``TRACED`` and the suite's ``check_*`` methods."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"fwsolver.{module}"]
            for fname in functions:
                fn = getattr(mod, fname)
                if fname == "reconstruct":
                    wrapper = self._wrap_reconstruct(fn)
                elif fname == "integrate":
                    wrapper = self._wrap_integrate(fn)
                else:
                    wrapper = self.wrap(f"{module}.{fname}", fn)
                wrappers[id(fn)] = (fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "fwsolver" and not modname.startswith("fwsolver."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.rebound += 1
        verification = sys.modules["fwsolver.verification"]
        suite = verification.VerificationSuite
        for check in verification.CHECK_NAMES:
            method = f"check_{check}"
            setattr(suite, method, self.wrap(f"verification.check.{check}",
                                             getattr(suite, method)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "stored_levels": self.stored_levels,
                       "stored_bytes": self.stored_bytes,
                       "rebound": self.rebound}, fh)


def span_stats(trace: dict) -> dict:
    """Per span name: ``calls``, ``total_s`` and ``self_s``, plus the count of
    kernel sweeps made under ``integrate`` or ``step`` (``rhs_evals``).

    A span's self time is its duration minus that of its direct children;
    in one thread the children are disjoint and lie inside the parent.
    """
    names, spans = trace["names"], trace["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    solver = {i for i, n in enumerate(names)
              if n in ("lagrangian.integrate", "lagrangian.step")}
    kernel = names.index("kernels.kernel_pair_arrays") if "kernels.kernel_pair_arrays" in names else -1
    # parents precede their children, so one forward pass marks solver subtrees
    in_solver = [False] * len(spans)
    stats: dict = {}
    rhs_evals = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        under = parent >= 0 and in_solver[parent]
        in_solver[i] = under or nid in solver
        if nid == kernel and under:
            rhs_evals += 1
        st = stats.setdefault(names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child_s[i]
    return {"spans": stats, "rhs_evals": rhs_evals}
