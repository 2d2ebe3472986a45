"""Run every demo script end to end.

Each demo runs as its own process in an empty working directory, with
the package on PYTHONPATH and TMPDIR pointed there too, so whatever it
writes lands under tmp_path. The demos that fit for longer than a few
seconds are marked slow.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"02_train_gp_vs_sgp.py", "03_decision_boundary.py", "04_benchmark_harness.py"}
DEMOS = [pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.name in SLOW else [])
         for p in sorted((ROOT / "demos").glob("*.py"))]


def git_status():
    # None outside a git work tree (an exported copy of the sources)
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def test_the_slow_demos_exist():
    assert SLOW <= {p.values[0].name for p in DEMOS}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_leaves_the_checkout_unchanged(demo, tmp_path):
    before = git_status()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert git_status() == before
