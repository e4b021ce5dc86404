"""The benchmark's gradient gate and its workloads, run by the test suite as well.

``bench/gate.py`` checks every ndgrad op the benchmark times against finite
differences at the benchmark's real channel counts.  Running it here makes a
wrong kernel fail ``pytest``, not only a benchmark run.  Each workload also
runs once at its tiny size with the tracer on, so a change to any name the
benchmark calls or patches fails here too.  At the tiny size every encoder
pass is one chunk, so one more test traces passes of several chunks.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

from twoview import trainer  # noqa: E402
from twoview.augment import RngStream, make_pair  # noqa: E402
from twoview.model import ModelConfig, init_params, named_parameters  # noqa: E402
from twoview.ndgrad import Adam  # noqa: E402
from twoview.synthdata import gen_dataset  # noqa: E402


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


def test_traced_multi_chunk_passes(monkeypatch):
    channels = (16, 32, 64, 128)  # train-wide's plan
    config = trainer.TrainConfig(model=ModelConfig(input_size=64, channels=channels))
    samples = gen_dataset(n_real=10, ratio=1, seed=0, size=64).train[:4]
    pairs = [
        make_pair(s.image, s.label, "raaug", RngStream(0, 1, i, 0), RngStream(0, 1, i, 1),
                  source_id=s.source_id)
        for i, s in enumerate(samples[:3])
    ]
    # one 64 px image's stage-0 output is 32 * 64 * 64 float64s = 1 MiB, so a
    # 2 MiB budget runs a pass on one pair or on two single views
    monkeypatch.setattr(trainer, "_CHUNK_BYTES", 2 << 20)
    passes = 3 + 2  # the step's three pairs, then four images scored two at a time
    enc, cls = init_params(config.model, seed=0)
    opt = Adam(named_parameters(enc, cls))
    tracer = Tracer(channels)
    tracer.install()
    try:
        trainer.train_step(pairs, enc, cls, opt, config)
        trainer.score_samples(enc, cls, samples)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, len(channels) - 1)
    names = [row["name"] for row in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    for name in names:
        assert math.isfinite(metrics[name][0]), name
    assert metrics["model.encoder_forward.calls"][0] == passes
    for k in range(len(channels) - 1):
        assert metrics[f"ndgrad.depthwise_conv2d.s{k}.calls"][0] == passes
        assert metrics[f"ndgrad.depthwise_conv2d.s{k}.bwd.calls"][0] == 3
