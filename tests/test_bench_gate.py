"""The benchmark's untimed gradient gate, run by the test suite as well.

``bench/gate.py`` checks every ndgrad op the benchmark times against finite
differences at the benchmark's real channel counts.  Running it here makes a
wrong kernel fail ``pytest``, not only a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gate  # noqa: E402


@pytest.mark.parametrize("channels", [(8, 16, 32, 64), (16, 32, 64, 128)])
def test_gate_passes_at_benchmark_channels(channels):
    assert gate.check_gradients(channels) == []
