"""One benchmark workload in one fresh process.

Started by ``bench/run.py``; prints one JSON object as its last stdout line.
BLAS is pinned to one thread before numpy is imported, and ``twoview`` is
imported from the checkout's ``src/``, never from an installed copy.

Usage: python3 bench/workload.py --workload W --seed N --seconds S
       --trace 0|1 --t0 MONOTONIC [--setup-only] [--tiny]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import twoview  # noqa: E402
from twoview import cli, model, synthdata, trainer  # noqa: E402
from twoview.augment import derive_seed  # noqa: E402

import gate  # noqa: E402
from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("train-ref", "train-wide", "eval-io")

# One train() call per timed operation; patience >= epochs, so early
# stopping never shortens a call.
EPOCHS_PER_CALL = 1
# Save/load round trips of the checkpoint after each train() call, and in
# each eval-io round.
CKPT_REPEATS = {"train": 10, "eval-io": 3}


@dataclass(frozen=True)
class Sizes:
    """Dataset and model sizes; the tiny set exists only for the self-test."""

    n_real: int
    ratio: int
    image: int
    ref_channels: tuple[int, ...]
    wide_channels: tuple[int, ...]
    ref_pairs: int
    wide_pairs: int


FULL = Sizes(100, 4, 64, (8, 16, 32, 64), (16, 32, 64, 128), 8, 32)
TINY = Sizes(10, 1, 32, (4, 5, 6, 7), (5, 6, 7, 8), 4, 4)


class CheckFailed(Exception):
    """A correctness check on a timed operation's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def train_config(workload: str, seed: int, sizes: Sizes) -> trainer.TrainConfig:
    if workload == "train-ref":
        # ROADMAP's reference config
        return trainer.TrainConfig(
            pairs_per_batch=sizes.ref_pairs, max_epochs=EPOCHS_PER_CALL, patience=EPOCHS_PER_CALL,
            lr=3e-3, alpha=1.0, penalty="cos", aug="raaug", seed=seed,
            model=model.ModelConfig(input_size=sizes.image, channels=sizes.ref_channels),
        )
    # the defaults of `twoview train`, with the dfdc corruption pipeline
    return trainer.TrainConfig(
        pairs_per_batch=sizes.wide_pairs, max_epochs=EPOCHS_PER_CALL, patience=EPOCHS_PER_CALL,
        alpha=1.0, penalty="cos", aug="dfdc", seed=seed,
        model=model.ModelConfig(input_size=sizes.image, channels=sizes.wide_channels),
    )


def channels_of(workload: str, sizes: Sizes) -> tuple[int, ...]:
    return sizes.ref_channels if workload == "train-ref" else sizes.wide_channels


def params_digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop plus fixed numpy work.

    None of it is twoview code and none of it allocates (a fresh 1.6 MB
    temporary made the kernel depend on the allocator's state), so only the
    host's speed moves it.
    """
    t0 = time.perf_counter()
    h = 0
    for b in range(40_000):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    for _ in range(20):
        np.matmul(_CAL_MATRIX, _CAL_MATRIX, out=_CAL_PRODUCT)
    for _ in range(10):
        np.multiply(_CAL_VECTOR, 1.0001, out=_CAL_SCRATCH)
        np.add(_CAL_SCRATCH, 0.5, out=_CAL_SCRATCH)
        np.maximum(_CAL_SCRATCH, 0.0, out=_CAL_SCRATCH)
        _CAL_SCRATCH.sum()
    return time.perf_counter() - t0


_CAL_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_CAL_PRODUCT = np.empty_like(_CAL_MATRIX)
_CAL_VECTOR = np.random.default_rng(1).standard_normal(200_000)
_CAL_SCRATCH = np.empty_like(_CAL_VECTOR)


class Clock:
    """Laps timed between runs of the calibration kernel.

    The host alternates between speeds about 1.7x apart, in phases of 1 to
    20 s, and drifts over minutes.  A lap's cost is its seconds divided by
    the median time of the NEAREST kernel runs closest to the lap's middle,
    which cancels the host's speed.  One kernel run is short enough to be
    caught by a blip: on train-wide steps, normalising by the runs just
    before and after a lap left a quartile spread of 9.3 % across ten runs;
    the five nearest brought the same runs to 2.5 %, and a fresh set of
    ten to 6.5 %.
    """

    NEAREST = 5

    def __init__(self, tracer):
        self.tracer = tracer
        self.calib: list[tuple[float, float]] = []  # (middle, seconds)
        # (name, eval-io round, middle, seconds); a None name or round leaves
        # the lap out of that kind of sample
        self.laps: list[tuple[str | None, int | None, float, float]] = []
        self.resume = 0.0
        calibrate()  # the first run pays for BLAS start-up
        self.restart()

    def restart(self) -> None:
        """Calibrate, then start the next lap."""
        with self.tracer.span("bench.calibrate"):
            t = time.perf_counter()
            seconds = calibrate()
        self.calib.append((t + seconds / 2, seconds))
        self.resume = time.perf_counter()

    def lap(self, name: str | None = None, round_: int | None = None) -> float:
        """End the lap begun at the last restart or lap and start the next.

        Returns the lap's seconds.  A named lap becomes a `<name>_ms` and a
        `<name>_cost` sample; the laps of one eval-io round add up to one
        `op` sample.
        """
        end = time.perf_counter()
        seconds = end - self.resume
        self.laps.append((name, round_, (self.resume + end) / 2, seconds))
        self.restart()
        return seconds

    def calibration_seconds(self, start: float, end: float) -> float:
        return sum(seconds for middle, seconds in self.calib if start <= middle <= end)

    def samples(self) -> dict[str, list[float]]:
        middles = [middle for middle, _ in self.calib]
        out: dict[str, list[float]] = {}
        rounds: dict[int, list[float]] = {}
        for name, round_, middle, seconds in self.laps:
            i = bisect.bisect(middles, middle)
            near = sorted(self.calib[max(0, i - self.NEAREST):i + self.NEAREST], key=lambda c: abs(c[0] - middle))
            cost = seconds / statistics.median(s for _, s in near[:self.NEAREST])
            if name is not None:
                out.setdefault(name + "_ms", []).append(seconds * 1e3)
                out.setdefault(name + "_cost", []).append(cost)
            if round_ is not None:
                total = rounds.setdefault(round_, [0.0, 0.0])
                total[0] += seconds * 1e3
                total[1] += cost
        if rounds:
            out["op_ms"] = [ms for ms, _ in rounds.values()]
            out["op_cost"] = [cost for _, cost in rounds.values()]
        out["calib_ms"] = [seconds * 1e3 for _, seconds in self.calib]
        return out


def checkpoint_round_trip(path: Path, ckpt, clock: Clock, round_: int | None = None) -> None:
    """Save then load; time both and require bitwise-identical contents."""
    clock.restart()
    trainer.save_checkpoint(path, ckpt)
    clock.lap("ckpt_save", round_)
    back = trainer.load_checkpoint(path)
    clock.lap("ckpt_load", round_)
    with clock.tracer.span("bench.check"):
        for field in ("params", "adam_m", "adam_v"):
            ours, theirs = getattr(ckpt, field), getattr(back, field)
            check(ours.keys() == theirs.keys(), f"checkpoint {field} names changed on reload")
            for name, arr in ours.items():
                check(
                    arr.shape == theirs[name].shape and arr.tobytes() == theirs[name].tobytes(),
                    f"checkpoint {field}[{name}] is not bitwise identical after reload",
                )
        for field in ("config", "adam_t", "lr", "beta1", "beta2", "eps", "epoch", "best_val_auc", "seed"):
            check(getattr(ckpt, field) == getattr(back, field), f"checkpoint {field} changed on reload")


# -- train-ref / train-wide --------------------------------------------------------


class TrainWorkload:
    def __init__(self, workload: str, seed: int, sizes: Sizes, work: Path):
        self.config = train_config(workload, seed, sizes)
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.deterministic: dict | None = None

    def setup(self) -> None:
        self.dataset = synthdata.gen_dataset(n_real=self.sizes.n_real, ratio=self.sizes.ratio, seed=self.seed,
                                             size=self.sizes.image)

    def run_op(self, samples: dict[str, list[float]], clock: Clock) -> None:
        # A lap per train step: from the end of the previous step (and its
        # calibration) to the end of this one, so it covers the batch's
        # views, forward, backward and Adam step.  The first step of a call
        # also pays for init_params, so its lap stays unnamed.
        steps = 0
        train_step = trainer.train_step

        def timed_step(*args, **kwargs):
            nonlocal steps
            out = train_step(*args, **kwargs)
            clock.lap("op" if steps else None)
            steps += 1
            return out

        trainer.train_step = timed_step
        clock.restart()
        t = time.perf_counter()
        try:
            ckpt, history = trainer.train(self.config, self.dataset)
        finally:
            trainer.train_step = train_step
        end = time.perf_counter()
        # the calibration runs inside train() are not training time
        calib_s = clock.calibration_seconds(t, end)
        n = self.config.pairs_per_batch
        pairs = (len(self.dataset.train) // n) * n * len(history.epochs)
        samples["train_pairs_per_s"].append(pairs / (end - t - calib_s))
        samples["epoch_s"].append(sum(r.seconds for r in history.epochs) - calib_s)

        with clock.tracer.span("bench.check"):
            check(len(history.epochs) == EPOCHS_PER_CALL, f"train ran {len(history.epochs)} epochs")
            for r in history.epochs:
                check(math.isfinite(r.ce_loss), f"epoch {r.epoch}: CE is {r.ce_loss!r}")
                check(math.isfinite(r.consistency_loss), f"epoch {r.epoch}: consistency is {r.consistency_loss!r}")
            fields = {
                "epochs": [
                    {"ce_loss": repr(r.ce_loss), "consistency_loss": repr(r.consistency_loss),
                     "val_auc": repr(r.val_auc)}
                    for r in history.epochs
                ],
                "params_sha256": params_digest(ckpt.params),
            }
            if self.deterministic is None:
                self.deterministic = fields
            check(fields == self.deterministic, "a repeated train() call with the same seed gave other bits")
        for _ in range(CKPT_REPEATS["train"]):
            checkpoint_round_trip(self.work / "model.ckpt", ckpt, clock)


# -- eval-io --------------------------------------------------------------------------


def brute_force_auc(scores_csv: Path) -> tuple[float, int]:
    """Pair-count AUC straight from scores.csv: P(fake > real) + P(tie) / 2."""
    with open(scores_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    scores = np.array([float(r["score"]) for r in rows])
    labels = np.array([int(r["label"]) for r in rows])
    fake, real = scores[labels == 1], scores[labels == 0]
    wins = (fake[:, None] > real[None, :]).sum() + 0.5 * (fake[:, None] == real[None, :]).sum()
    return float(wins) / (fake.size * real.size), len(rows)


def report_auc(report_txt: Path) -> float:
    for line in report_txt.read_text().splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "auc":
            return float(value)
    raise CheckFailed(f"{report_txt} has no auc line")


class EvalIOWorkload:
    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.iteration = 0
        self.deterministic: dict = {"auc": [], "shifted_auc": []}

    def setup(self) -> None:
        config = model.ModelConfig(input_size=self.sizes.image, channels=self.sizes.wide_channels)
        enc, cls = model.init_params(config, derive_seed(self.seed, "bench-eval-io"))
        opt = trainer.Adam(model.named_parameters(enc, cls))
        self.ckpt = trainer.snapshot_checkpoint(enc, cls, opt, config, 0, 0.0, self.seed)

    def _cli(self, clock: Clock, argv: list[str], round_: int | None) -> float:
        clock.restart()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = clock.lap(None, round_)
        check(code == 0, f"twoview {' '.join(argv)} exited {code}")
        return seconds

    def _eval(self, clock: Clock, data: Path, out: Path, extra: list[str], data_seed: int, n_test: int,
              key: str) -> float:
        seconds = self._cli(clock, ["eval", "--out", str(out), "--checkpoint", str(self.work / "model.ckpt"),
                                    "--data", str(data), "--seed", str(data_seed)] + extra, self.iteration)
        with clock.tracer.span("bench.check"):
            brute, rows = brute_force_auc(out / "scores.csv")
            check(rows == n_test, f"{key}: scored {rows} rows for a test split of {n_test}")
            reported = report_auc(out / "report.txt")
            check(abs(reported - brute) <= 1e-12, f"{key}: report AUC {reported!r} != pair count {brute!r}")
            self.deterministic[key].append(repr(reported))
        return seconds

    def run_op(self, samples: dict[str, list[float]], clock: Clock) -> None:
        self.iteration += 1
        data_seed = self.seed * 4096 + self.iteration
        it = self.work / f"iter{self.iteration}"
        data = it / "data"
        s = self.sizes
        # gen-data is left out of the op: its file writes took 0.3 to 0.9 s
        # from run to run on the same host, whatever the CPU speed
        gen_s = self._cli(clock, ["gen-data", "--out", str(data), "--seed", str(data_seed), "--n-real",
                                  str(s.n_real), "--ratio", str(s.ratio), "--size", str(s.image)], None)
        with clock.tracer.span("bench.check"):
            expected = synthdata.gen_dataset(n_real=s.n_real, ratio=s.ratio, seed=data_seed, size=s.image)
            loaded = synthdata.load_dataset(data)
            for name in synthdata.SPLIT_NAMES:
                want, got = expected.split(name), loaded.split(name)
                check(len(want) == len(got), f"split {name}: wrote {len(want)} samples, read {len(got)}")
                for a, b in zip(want, got):
                    check(a.label == b.label, f"{b.source_id}: label changed on disk")
                    check(np.array_equal(np.round(a.image * 255.0) / 255.0, b.image),
                          f"{b.source_id}: image differs from the generated one")
                    check((a.mask is None) == (b.mask is None)
                          and (a.mask is None or np.array_equal(a.mask, b.mask)),
                          f"{b.source_id}: mask differs from the generated one")
            n_test = len(expected.test)
        for trip in range(CKPT_REPEATS["eval-io"]):
            checkpoint_round_trip(self.work / "model.ckpt", self.ckpt, clock, self.iteration if trip == 0 else None)
        plain_s = self._eval(clock, data, it / "eval", ["--split", "test"], data_seed, n_test, "auc")
        shifted_s = self._eval(clock, data, it / "eval-shifted", ["--shifted-test"], data_seed, n_test,
                               "shifted_auc")
        samples["gen_data_s"].append(gen_s)
        samples["eval_images_per_s"].append(n_test / plain_s)
        samples["eval_shifted_images_per_s"].append(n_test / shifted_s)
        shutil.rmtree(it)


# -- process entry point ------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                          "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not Path(twoview.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported twoview from {twoview.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    sizes = TINY if args.tiny else FULL
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, sizes: Sizes, work: Path) -> int:
    channels = channels_of(args.workload, sizes)
    tracer = Tracer(channels) if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    if args.workload == "eval-io":
        wl = EvalIOWorkload(args.seed, sizes, work)
    else:
        wl = TrainWorkload(args.workload, args.seed, sizes, work)
    with tracer.span("bench.setup"):
        wl.setup()
    setup_s = time.monotonic() - args.t0
    # the host's speed right after set-up: the first run warms the kernel up
    calibrate()
    setup_calib_s = statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calib_s": setup_calib_s}))
        return 0

    samples: dict[str, list[float]] = {
        k: [] for k in ("epoch_s", "train_pairs_per_s", "gen_data_s", "eval_images_per_s", "eval_shifted_images_per_s")
    }
    clock = Clock(tracer)
    attempted = failed = 0
    errors: list[str] = []
    durations: list[float] = []
    start = time.perf_counter()
    # Closed loop: start another operation only while it is expected to end
    # within the budget.
    while not durations or (time.perf_counter() - start) + statistics.median(durations) <= args.seconds:
        t = time.perf_counter()
        attempted += 1
        try:
            with tracer.span("bench.op"):
                wl.run_op(samples, clock)
        except Exception as exc:  # a failed op is counted, reported, and the loop goes on
            failed += 1
            errors.append("".join(traceback.format_exception_only(exc)).strip())
            traceback.print_exc(file=sys.stderr)
        durations.append(time.perf_counter() - t)
    measured_s = time.perf_counter() - start

    layers = {}
    if args.trace:
        tracer.uninstall()
        layers = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer, len(channels) - 1).items()}

    # untimed: every timed ndgrad op against finite differences at this
    # workload's channel counts
    gate_errors = gate.check_gradients(channels)

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "setup_s": setup_s,
        "setup_calib_s": setup_calib_s,
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "gate_errors": gate_errors,
        "samples": dict(samples, **clock.samples()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "deterministic": wl.deterministic,
        "layers": layers,
        "env": environment(args.seed),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
