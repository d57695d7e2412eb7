"""Every demo, and the README's library tour, runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


def run_script(path, cwd):
    env = {k: v for k, v in os.environ.items() if k != "FW_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    run_script(demo, tmp_path)


def test_readme_library_tour_runs(tmp_path):
    after = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    tour = after.split("```python\n", 1)[1].split("```", 1)[0]
    assert "pde_residual" in tour
    (tmp_path / "tour.py").write_text(tour)
    printed = run_script(tmp_path / "tour.py", tmp_path).splitlines()
    # the conserved triple, then the residual at T/2
    assert printed[0].startswith("ConservedTriple(") and float(printed[1]) < 1e-5
