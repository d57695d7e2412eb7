"""``tools/same_outputs.py``: a tree compares equal to itself, and a changed
output of a copy is reported."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)

CASE = [("solve", ["solve", "--X", "10", "--n", "201"])]


def test_same_outputs_reports_only_a_changed_file(tmp_path):
    src = ROOT / "src"
    assert same_outputs.compare(src, src, CASE) == []
    # a copy whose geometry.json names one grid point more
    shutil.copytree(src / "fwsolver", tmp_path / "fwsolver",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "fwsolver" / "cli.py"
    text = cli.read_text()
    assert text.count('"n_points": grid.n_points,') == 1
    cli.write_text(text.replace('"n_points": grid.n_points,', '"n_points": grid.n_points + 1,'))
    assert same_outputs.compare(src, tmp_path, CASE) == [
        "solve: out/geometry.json line 6: '  \"n_points\": 201,' != '  \"n_points\": 202,'"]
