"""Smoke test of the benchmark harness: every workload at tiny sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")


def test_smoke_emits_every_metric_and_catches_tampered_rows():
    # The zeta output checks use NumPy, which orbitkit itself does not need.
    pytest.importorskip("numpy")
    done = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.rstrip().endswith("smoke ok")
    assert "tampered output caught" in done.stdout
