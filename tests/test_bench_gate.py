"""The benchmark's gradient gate and its workloads, run by the test suite as well.

``bench/gate.py`` checks every ndgrad op the benchmark times against finite
differences at the benchmark's real channel counts.  Running it here makes a
wrong kernel fail ``pytest``, not only a benchmark run.  Each workload also
runs once at its tiny size with the tracer on, so a change to any name the
benchmark calls or patches fails here too.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402


@pytest.mark.parametrize("channels", [(8, 16, 32, 64), (16, 32, 64, 128)])
def test_gate_passes_at_benchmark_channels(channels):
    assert gate.check_gradients(channels) == []


@pytest.mark.parametrize("workload", ["train-ref", "train-wide", "eval-io"])
def test_workload_runs_clean(workload):
    argv = [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", "0",
            "--tiny", "--trace", "1", "--seconds", "1", "--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    assert result["errors"] == []
    assert result["gate_errors"] == []
