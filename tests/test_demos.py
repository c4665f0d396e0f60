"""The narrative demos run to completion against the package in src/."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ("01_leverage_basics.py", "02_principal_angles.py", "03_bounds_tour.py")


def run_demo(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    proc = run_demo(ROOT / "demos" / demo, ROOT)
    assert proc.returncode == 0, proc.stderr


def test_bounds_tour_prints_the_committed_report():
    proc = run_demo(ROOT / "demos" / "03_bounds_tour.py", ROOT)
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / "demo03_bounds_tour.txt"
    assert proc.stdout == golden.read_text()


def test_figures_demo_reproduces_committed_output(tmp_path):
    # The demo writes next to itself, so a copy in tmp_path leaves the
    # committed demos/out/ alone.
    script = tmp_path / "04_figures.py"
    shutil.copy(ROOT / "demos" / "04_figures.py", script)
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in (ROOT / "demos" / "out").iterdir())
    assert len(committed) == 10
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == committed
    for name in committed:
        assert (tmp_path / "out" / name).read_bytes() == (
            ROOT / "demos" / "out" / name
        ).read_bytes(), name
