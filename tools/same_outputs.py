"""Check that two source trees of fwsolver write the same outputs.

Usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``fwsolver`` package, such
as the ``src`` of two checkouts.  Every case of the battery below runs once
on each tree, with ``PYTHONPATH`` set to that tree alone and in a fresh
temporary directory.  The two runs of a case must agree byte for byte in
every file they wrote, in exit code, in stderr and in stdout; in stdout and
stderr the run's own directory and the per-check seconds that ``fw verify``
prints are masked.  Prints each difference and exits 1 if there is one,
else prints a count of the cases and exits 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

# the seconds at the end of each line `fw verify` prints for a check
CHECK_SECONDS = re.compile(r"\(\d+\.\d+s\)$", re.MULTILINE)


def battery(input_dir: Path) -> list:
    """``(name, args)`` per case: the arguments of ``fw`` (``--output`` is
    added) or, for a demo or ``adversarial_table.py``, the script's path.
    The seeded ``solve-fine`` packet of perfbench and the far-apart
    perturbation are written to ``input_dir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import make_plan
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    sech2 = ["--profile", "sech2:a=2,k=1", "--X", "20", "--guard", "warn"]
    # bumps of opposite sign at x = -15 and 15 on the default grid: the pair
    # that sets the Hölder scan's bound lies 30 apart, so alpha = 0 scans
    # three quarters of the offsets
    x = np.linspace(-20.0, 20.0, 2001)
    far = input_dir / "far_apart.csv"
    np.savetxt(far, np.column_stack([x, 0.1 * (np.exp(-(x + 15) ** 2) - np.exp(-(x - 15) ** 2))]),
               fmt="%.17g", delimiter=",", header="x,value", comments="")
    return [
        ("solve-default", ["solve", "--X", "20", "--n", "2001"]),
        ("solve-fine", make_plan("solve-fine", 1, input_dir).argv),
        ("solve-T/200", ["solve", "--X", "10", "--n", "401", "--dt", "3.3e-4"]),
        ("solve-off-stride",
         ["solve", "--X", "10", "--n", "201", "--store-every", "3", "--dt", "3.3e-4"]),
        ("solve-fold", ["solve", "--profile", "sech2:a=2,k=3", "--X", "20", "--n", "81",
                        "--t-end", "1.2", "--guard", "warn"]),
        ("solve-breach", ["solve", *sech2, "--n", "401", "--t-end", "1.0", "--dt", "0.002"]),
        ("verify", ["verify"]),
        ("verify-coarse", ["verify", "--X", "10", "--n", "51"]),
        ("continuity", ["continuity"]),
        ("continuity-four-alphas", ["continuity", "--alpha", "0,0.25,0.5,0.75"]),
        ("continuity-far-apart", ["continuity", "--perturbation", f"from_csv:path={far}"]),
        ("continuity-201-levels", ["continuity", "--X", "20", "--n", "8001",
                                   "--dt", "3.2809e-4"]),
        ("breaking", ["breaking", *sech2, "--n", "801", "--t-max", "1.5", "--dt", "0.0012"]),
        # the CSV writer on values no command writes: every decade, ties, subnormals, nan
        ("writer-table", [str(ROOT / "tools" / "adversarial_table.py")]),
        *[(demo.stem, [str(demo)]) for demo in sorted((ROOT / "demos").glob("*.py"))],
    ]


def run_case(src: Path, args: list, run_dir: Path) -> dict:
    """One run of a case on the tree ``src`` in the empty ``run_dir``: its
    exit code, masked stdout and stderr, and each file it wrote by path."""
    if args[0].endswith(".py"):
        command = [sys.executable, *args]
    else:
        command = [sys.executable, "-m", "fwsolver.cli", *args, "--output", str(run_dir / "out")]
    env = {k: v for k, v in os.environ.items() if k != "FW_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(command, capture_output=True, env=env, cwd=run_dir, timeout=TIMEOUT_S)

    def masked(stream: bytes) -> str:
        return CHECK_SECONDS.sub("(-s)", stream.decode().replace(str(run_dir), "<run>"))

    files = {str(path.relative_to(run_dir)): path.read_bytes()
             for path in sorted(run_dir.rglob("*")) if path.is_file()}
    return {"exit code": proc.returncode, "stdout": masked(proc.stdout),
            "stderr": masked(proc.stderr), "files": files}


def first_difference(old: str, new: str) -> str:
    """The first line at which two texts differ, both sides shown."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for k, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {k}: {a[:120]!r} != {b[:120]!r}"
    return f"{len(old_lines)} lines != {len(new_lines)} lines"


def compare(old_src: Path, new_src: Path, cases: list) -> list:
    """Each difference between the two trees' runs of ``cases``, one line each."""
    found = []
    for name, args in cases:
        with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
            old = run_case(old_src, args, Path(old_dir))
            new = run_case(new_src, args, Path(new_dir))
        if old["exit code"] != new["exit code"]:
            found.append(f"{name}: exit code {old['exit code']} != {new['exit code']}")
        for stream in ("stdout", "stderr"):
            if old[stream] != new[stream]:
                found.append(f"{name}: {stream} {first_difference(old[stream], new[stream])}")
        old_files, new_files = old["files"], new["files"]
        for path in sorted(old_files.keys() | new_files.keys()):
            if path not in new_files or path not in old_files:
                found.append(f"{name}: {path} only from {'old' if path in old_files else 'new'}")
            elif old_files[path] != new_files[path]:
                found.append(f"{name}: {path} "
                             + first_difference(old_files[path].decode(errors="replace"),
                                                new_files[path].decode(errors="replace")))
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(src, "fwsolver").is_dir() for src in args):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = (Path(src).resolve() for src in args)
    with tempfile.TemporaryDirectory() as input_dir:
        cases = battery(Path(input_dir))
        found = compare(old_src, new_src, cases)
    for line in found:
        print(line)
    if found:
        return 1
    print(f"same outputs: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
