"""twoview benchmark: one command, each workload in its own fresh process.

    python3 bench/run.py --workload train-ref --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1   # every workload, traced beside untraced
    python3 bench/run.py --self-test                # tiny sizes, checks every metric is reported

Workloads run one after another, never two at once, each in a child process
with BLAS pinned to one thread.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list.  The full report (every per-layer row, the deterministic
output fields, the machine) goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("train-ref", "train-wide", "eval-io")
# Extra processes that only set up, so setup_s is a median of several starts.
SETUP_PROBES = 8
# setup_s is scaled to a host on which the calibration kernel takes this
# long (its time on the fast state of the host the bounds were set on).
# The raw wall time moved 45 % between two sets of runs an hour apart as
# the host's speed changed; it stays in the report as setup_wall_s.
NOMINAL_CALIB_S = 0.010
CHILD_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Rows of the human-readable report, per workload family: sample name -> unit.
TRAIN_ROWS = {"train_pairs_per_s": "1/s", "epoch_s": "s"}
EVAL_ROWS = {"gen_data_s": "s", "eval_images_per_s": "1/s", "eval_shifted_images_per_s": "1/s"}
COMMON_ROWS = {
    "op_ms": "ms",
    "op_cost": "calib",
    "ckpt_save_ms": "ms",
    "ckpt_save_cost": "calib",
    "ckpt_load_ms": "ms",
    "ckpt_load_cost": "calib",
    "calib_ms": "ms",
}
# End-to-end metrics every workload reports.  An op is one training step on
# train-* and one I/O round on eval-io.  A *_cost is a lap's time in units of
# the calibration kernel runs nearest to it (see workload.Clock), so the
# host's changing speed cancels out.
E2E_UNITS = {
    "setup_s": "s",
    "op_cost": "calib",
    "ckpt_save_cost": "calib",
    "ckpt_load_cost": "calib",
    "peak_rss_mb": "MB",
}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class ChildError(RuntimeError):
    """A workload process crashed, timed out or printed no result."""


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    out = {"median": median(values), "n": len(values)}
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[int(round(p * 10)) - 1]
            break
    return out


def run_child(workload: str, seed: int, seconds: float, trace: int, tiny: bool, setup_only: bool) -> dict:
    argv = [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **PINNED)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload}: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload; returns the child's result plus the derived metrics."""
    def probes(count):
        return [run_child(workload, seed, seconds, 0, tiny, setup_only=True) for _ in range(count)]

    # Half the set-up probes run before the measured process and half after,
    # so the median of setup_s spans two moments of the host's changing speed.
    starts = [] if trace else probes(SETUP_PROBES // 2)
    res = run_child(workload, seed, seconds, trace, tiny, setup_only=False)
    starts += [res] + ([] if trace else probes(SETUP_PROBES - SETUP_PROBES // 2))
    wall = [r["setup_s"] for r in starts]
    setup = [r["setup_s"] * NOMINAL_CALIB_S / r["setup_calib_s"] for r in starts]
    samples = res["samples"]
    rows = dict(COMMON_ROWS, **(EVAL_ROWS if workload == "eval-io" else TRAIN_ROWS))
    report = {"setup_s": dict(summarize(setup), unit="s"), "setup_wall_s": dict(summarize(wall), unit="s")}
    for name, unit in rows.items():
        report[name] = dict(summarize(samples.get(name, [])), unit=unit)
    report["peak_rss_mb"] = {"median": res["peak_rss_mb"], "n": 1, "unit": "MB"}
    report["error_rate"] = {"median": res["failed"] / res["attempted"], "n": res["attempted"], "unit": "ratio"}
    e2e = {name: median(samples.get(name, [])) for name in E2E_UNITS}
    e2e.update(setup_s=median(setup), peak_rss_mb=res["peak_rss_mb"])
    res.update(
        setup_samples={"scaled": setup, "wall": wall},
        report=report,
        e2e={k: {"value": e2e[k], "unit": unit} for k, unit in E2E_UNITS.items()},
        correct=res["failed"] == 0 and not res["gate_errors"],
    )
    return res


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def pick(res: dict, names: list[dict], trace: int) -> dict:
    table = res["layers"] if trace else res["e2e"]
    missing = [m["name"] for m in names if m["name"] not in table]
    if missing:
        raise ChildError(f"{res['workload']}: no value for {missing}")
    return {m["name"]: table[m["name"]] for m in names}


def print_report(res: dict, trace: int) -> None:
    w = res["workload"]
    print(f"== {w} (seed {res['env']['seed']}, trace {trace}, {res['measured_s']:.1f} s measured, "
          f"{res['attempted']} ops, {res['failed']} failed)")
    for name, row in res["report"].items():
        extra = "".join(f"  {k} {v:.6g}" for k, v in row.items() if k.startswith("p"))
        print(f"  {name:28s} {row['median']:12.6g} {row['unit']:6s} n={row['n']}{extra}")
    for msg in res["errors"] + res["gate_errors"]:
        print(f"  FAILED: {msg}")
    if trace:
        for name, cell in res["layers"].items():
            print(f"  {name:48s} {cell['value']:12.6g} {cell['unit']}")


def write_results(res: dict, seed: int, trace: int) -> Path:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{res['workload']}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(
        {
            "environment": res["env"],
            # pure functions of (workload, seed): equal across reruns and commits
            # that keep the arithmetic
            "deterministic": res["deterministic"],
            "timing": {"report": res["report"], "end_to_end": res["e2e"], "layers": res["layers"],
                       "setup_samples": res["setup_samples"], "samples": res["samples"]},
            "attempted": res["attempted"],
            "failed": res["failed"],
            "errors": res["errors"],
            "gate_errors": res["gate_errors"],
        },
        indent=1,
    ))
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    res = measure(workload, seed, seconds, trace)
    metrics = pick(res, spec["per_layer" if trace else "end_to_end"], trace)
    print_report(res, trace)
    print(f"results: {write_results(res, seed, trace).relative_to(ROOT)}")
    print(result_line(res["correct"], res["attempted"], res["failed"], metrics))
    return 0 if res["correct"] else 1


def run_all(spec: dict, seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn; with tracing, the traced e2e numbers sit beside the untraced."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        runs = [measure(workload, seed, seconds, 0)] + ([measure(workload, seed, seconds, 1)] if trace else [])
        for t, res in enumerate(runs):
            print_report(res, t)
            write_results(res, seed, t)
            attempted += res["attempted"]
            failed += res["failed"]
            correct &= res["correct"]
        for name, cell in runs[0]["e2e"].items():
            metrics[f"{workload}/{name}"] = cell
        if trace:
            print(f"  tracing overhead on {workload} (traced vs untraced):")
            for name, row in runs[0]["report"].items():
                a, b = row["median"], runs[1]["report"][name]["median"]
                pct = f"{100.0 * (b - a) / a:+.1f}%" if a else "n/a"
                print(f"    {name:28s} {a:12.6g} -> {b:12.6g} {row['unit']:6s} {pct}")
            print(f"    trace.coverage {runs[1]['layers']['trace.coverage']['value']:.2f} %")
            metrics[f"{workload}/trace.coverage"] = runs[1]["layers"]["trace.coverage"]
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def self_test(spec: dict) -> int:
    """Each workload at a tiny size, traced and not: every named metric present, with its unit."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = measure(workload, 0, 1.0, trace, tiny=True)
            if not res["correct"]:
                problems.append(f"{workload} trace {trace}: {res['errors'] + res['gate_errors']}")
            table = res["layers"] if trace else res["e2e"]
            for m in spec["per_layer" if trace else "end_to_end"]:
                cell = table.get(m["name"])
                if cell is None or cell["unit"] != m["unit"] or not math.isfinite(cell["value"]):
                    problems.append(f"{workload} trace {trace}: {m['name']} [{m['unit']}] -> {cell}")
            for name, row in res["report"].items():
                if not row.get("unit") or not math.isfinite(row["median"]):
                    problems.append(f"{workload}: report row {name} -> {row}")
            print(f"self-test {workload} trace {trace}: {len(table)} metrics", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twoview" / "__init__.py").is_file():
        print(f"error: no twoview sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**48:
        print("error: --seed must lie in [0, 2**48)", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.self_test:
            return self_test(spec)
        if args.workload == "all":
            return run_all(spec, args.seed, seconds, args.trace)
        return run_one(spec, args.workload, args.seed, seconds, args.trace)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
