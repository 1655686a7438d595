"""The benchmark harness still runs: every workload once at tiny sizes.

No timing bounds; this only keeps perfbench/ from rotting as the program
changes.  The harness checks its outputs against sympy and mpmath.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_run():
    pytest.importorskip("sympy")
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
