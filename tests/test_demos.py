"""Smoke test: every demo drives the engine end to end and prints."""

import os
import subprocess
import sys

import pytest

from testkit import ROOT

DEMOS = ("01_vector_ir_tour.py", "02_matmul_to_amx.py",
         "03_convolution_as_matmul.py", "04_support_matrix.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
