"""The fast demos run to completion against the package in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["gradient_checking.py", "dataset_statistics.py"])
def test_demo_exits_zero(script):
    # DATA would point the statistics demo at a real dataset; run the generated one
    env = {k: v for k, v in os.environ.items() if k != "DATA"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
