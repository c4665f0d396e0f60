"""The narrative demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 04_figures.py is left out: it rewrites the committed demos/out/.
DEMOS = ("01_leverage_basics.py", "02_principal_angles.py", "03_bounds_tour.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
