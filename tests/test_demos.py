"""The demos run to completion as stand-alone scripts.

Each fast demo runs in a fresh interpreter, the way a reader would start
it, with `src/` on the import path; each takes about a second.
train_and_denoise.py is left out: it trains for several epochs and takes
about 40 s on one core.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["autodiff_basics.py", "noise_models.py",
                                  "patches_and_stitching.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
