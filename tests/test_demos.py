"""Every demo script runs to completion, warning-free, from a fresh working
directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write to demo_out/ under their working directory
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # -W error: a warning fails a demo as it fails an in-process test
    done = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
