"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: ``Tracer.install`` swaps
the public functions of ``twoview`` for timing wrappers at the module (or
class) attributes their callers look up, and ``uninstall`` puts the
originals back.  No file of the package changes.

Each ndgrad op's output tensor also gets its ``_backward`` closure wrapped,
so the backward pass is timed per op.  Every span stores its parent, so a
span's self time is its duration minus the time its children took; this is
what keeps ``separable_conv2d`` from double-counting the depthwise and
pointwise spans nested inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# Tensor methods that build a graph node themselves; the composite ones
# (__sub__, __radd__, mean, ...) route through these.
_ELEMENTWISE = ("__add__", "__neg__", "__mul__", "__pow__", "abs", "log", "clamp", "sum", "__getitem__")


class Tracer:
    def __init__(self, channels: tuple[int, ...]):
        # channel count -> index into the channel plan; stage k of the encoder
        # reads channels[k] and writes channels[k + 1]
        self._index_of = {c: i for i, c in enumerate(channels)}
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extra: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.t_install = 0.0
        self.t_uninstall = 0.0

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    def span(self, name: str):
        return _Span(self, name)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr: str, name, grad: bool = False, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = label(args, kwargs)
            sid = tracer.open(span_name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if grad:
                tracer._wrap_backward(out, span_name + ".bwd")
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _wrap_backward(self, out, name: str) -> None:
        fn = getattr(out, "_backward", None)
        if fn is None or getattr(fn, "_traced", False):
            return
        tracer = self

        def traced_backward(g):
            sid = tracer.open(name)
            try:
                fn(g)
            finally:
                tracer.close(sid)

        traced_backward._traced = True
        out._backward = traced_backward

    def _stage(self, prefix: str, channels: int, offset: int = 0) -> str:
        index = self._index_of.get(channels)
        return f"{prefix}.s{index - offset}" if index is not None else f"{prefix}.c{channels}"

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        # imgops and metrics functions are wrapped where their callers bind them
        from twoview import augment, cli, losses, model, ndgrad, synthdata, trainer

        tracer = self

        # ndgrad ops, bound by name in model / losses, and inside
        # separable_conv2d through ndgrad's own globals
        self._patch(model, "conv2d", "ndgrad.conv2d", grad=True)
        self._patch(model, "separable_conv2d", "ndgrad.separable_conv2d")
        self._patch(
            ndgrad, "depthwise_conv2d",
            lambda a, k: tracer._stage("ndgrad.depthwise_conv2d", a[0].shape[1]), grad=True,
        )
        self._patch(
            ndgrad, "pointwise_conv2d",
            lambda a, k: tracer._stage("ndgrad.pointwise_conv2d", a[0].shape[1]), grad=True,
        )
        self._patch(
            model, "avg_pool2",
            lambda a, k: tracer._stage("ndgrad.avg_pool2", a[0].shape[1], offset=1), grad=True,
        )
        self._patch(model, "relu", lambda a, k: tracer._stage("ndgrad.relu", a[0].shape[1]), grad=True)
        for op in ("global_avg_pool", "dense", "softmax"):
            self._patch(model, op, f"ndgrad.{op}", grad=True)
        self._patch(losses, "l2_normalize", "ndgrad.l2_normalize", grad=True)
        for method in _ELEMENTWISE:
            self._patch(ndgrad.Tensor, method, "ndgrad.elementwise", grad=True)
        self._patch(ndgrad.Tensor, "backward", "ndgrad.backward", after=self._after_backward)
        self._patch(ndgrad.Adam, "step", "ndgrad.adam.step")

        # model, losses
        for owner in (model, trainer, cli):
            self._patch(owner, "encoder_forward", "model.encoder_forward")
        for owner in (model, trainer):
            self._patch(owner, "classifier_forward", "model.classifier_forward")
            self._patch(owner, "init_params", "model.init_params")
        self._patch(trainer, "batch_ce", "losses.batch_ce")
        self._patch(trainer, "batch_consistency", "losses.batch_consistency")

        # augment, imgops
        self._patch(trainer, "make_pair", "augment.make_pair")
        self._patch(augment, "apply_augment", "augment.apply_augment")
        self._patch(augment.RngStream, "generator", "augment.rng_generator")
        self._patch(synthdata, "dfdc_selim", "augment.dfdc_selim")
        for owner in (augment, synthdata, cli):
            self._patch(owner, "bilinear_resize", "imgops.bilinear_resize")
        for op in ("gaussian_blur", "shift_image", "scale_about_center"):
            self._patch(augment, op, f"imgops.{op}")
        for owner in (synthdata, cli):
            self._patch(owner, "read_ppm", "imgops.read_ppm")
            self._patch(owner, "write_ppm", "imgops.write_ppm")
            self._patch(owner, "write_pgm", "imgops.write_pgm")
        self._patch(synthdata, "read_pgm", "imgops.read_pgm")

        # synthdata, metrics
        for owner in (synthdata, cli):
            self._patch(owner, "gen_dataset", "synthdata.gen_dataset")
            self._patch(
                owner, "load_dataset",
                lambda a, k: "synthdata.load_dataset_shifted" if k.get("shifted_test") else "synthdata.load_dataset",
            )
        self._patch(cli, "save_dataset", "synthdata.save_dataset")
        for owner in (trainer, cli):
            self._patch(owner, "compute_report", "metrics.compute_report")
            self._patch(owner, "score_samples", "trainer.score_samples")

        # trainer, cli
        self._patch(trainer, "train", "trainer.train")
        self._patch(trainer, "train_step", "trainer.train_step")
        self._patch(trainer, "evaluate", "trainer.evaluate")
        self._patch(trainer, "fnv1a", "trainer.fnv1a", after=self._after_fnv1a)
        self._patch(trainer, "save_checkpoint", "trainer.save_checkpoint")
        self._patch(trainer, "load_checkpoint", "trainer.load_checkpoint")
        self._patch(cli, "main", lambda a, k: f"cli.main.{a[0][0]}")
        self.t_install = time.perf_counter()

    def uninstall(self) -> None:
        self.t_uninstall = time.perf_counter()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_fnv1a(self, args, out) -> None:
        self.extra["trainer.fnv1a.bytes"] += len(args[0])

    def _after_backward(self, args, out) -> None:
        # Graph size and gradient-buffer bytes of the pass just run; the
        # re-walk is a span of its own so no layer's self time absorbs it.
        with self.span("trace.meta"):
            order = args[0]._topo_order()
            self.extra["ndgrad.backward.nodes"] += len(order)
            self.extra["ndgrad.backward.grad_bytes"] += sum(node.data.nbytes for node in order)

    # -- aggregation --------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for sid, name in enumerate(self.names):
            duration = self.ends[sid] - self.starts[sid]
            row = out[name]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child[sid]
        return dict(out)


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


class NullTracer:
    """Stand-in for the untraced run: a span records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


# -- per-layer metrics ------------------------------------------------------------

STAGED = ("depthwise_conv2d", "pointwise_conv2d", "avg_pool2")
UNSTAGED = ("conv2d", "global_avg_pool", "dense", "softmax", "l2_normalize", "elementwise")
IMGOPS = (
    "bilinear_resize", "gaussian_blur", "shift_image", "scale_about_center",
    "read_ppm", "write_ppm", "read_pgm", "write_pgm",
)
SYNTHDATA = ("gen_dataset", "save_dataset", "load_dataset", "load_dataset_shifted")
CLI_COMMANDS = ("gen-data", "eval")


def layer_metrics(tracer: Tracer, n_stages: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced run, as name -> (value, unit).

    Times are per call (or per train step where the name says so); each
    timed row has a ``.calls`` companion.  A layer the workload never
    enters reads 0 with 0 calls.  ``.pct`` rows are shares of the time spent
    inside the workload's timed operations (the ``bench.op`` spans), less
    the calibration runs.
    """
    agg = tracer.aggregate()
    zero = {"calls": 0, "total": 0.0, "self": 0.0}

    def row(name):
        return agg.get(name, zero)

    def per_call(name, key, scale):
        r = row(name)
        return r[key] / r["calls"] * scale if r["calls"] else 0.0

    op_time = row("bench.op")["total"] - row("bench.calibrate")["total"]
    m: dict[str, tuple[float, str]] = {}

    def timed(metric, span, key, scale, unit):
        m[metric] = (per_call(span, key, scale), unit)
        m[span + ".calls"] = (float(row(span)["calls"]), "count")

    families: dict[str, float] = defaultdict(float)

    def ndgrad_op(family, name):
        timed(f"{name}.fwd_ms", name, "self", 1e3, "ms")
        timed(f"{name}.bwd_ms", name + ".bwd", "self", 1e3, "ms")
        families[family] += row(name)["self"] + row(name + ".bwd")["self"]

    for op in STAGED + ("relu",):
        for k in range(n_stages + 1 if op == "relu" else n_stages):
            ndgrad_op(op, f"ndgrad.{op}.s{k}")
    for op in UNSTAGED:
        ndgrad_op(op, f"ndgrad.{op}")
    for op, seconds in families.items():
        m[f"ndgrad.{op}.pct"] = (100.0 * seconds / op_time if op_time else 0.0, "%")

    backward = row("ndgrad.backward")
    timed("ndgrad.backward.self_ms", "ndgrad.backward", "self", 1e3, "ms")
    calls = backward["calls"]
    m["ndgrad.backward.nodes"] = (tracer.extra["ndgrad.backward.nodes"] / calls if calls else 0.0, "count")
    m["ndgrad.backward.grad_mb"] = (
        tracer.extra["ndgrad.backward.grad_bytes"] / calls / 1e6 if calls else 0.0,
        "MB",
    )
    m["ndgrad.backward.pct"] = (100.0 * backward["self"] / op_time if op_time else 0.0, "%")
    timed("ndgrad.adam.step_ms", "ndgrad.adam.step", "total", 1e3, "ms")

    timed("model.encoder_forward.self_ms", "model.encoder_forward", "self", 1e3, "ms")
    timed("model.classifier_forward.self_ms", "model.classifier_forward", "self", 1e3, "ms")
    timed("losses.batch_ce_ms", "losses.batch_ce", "total", 1e3, "ms")
    timed("losses.batch_consistency_ms", "losses.batch_consistency", "total", 1e3, "ms")

    timed("augment.make_pair_ms", "augment.make_pair", "total", 1e3, "ms")
    timed("augment.apply_augment.us_per_image", "augment.apply_augment", "total", 1e6, "us")
    timed("augment.dfdc_selim.us_per_image", "augment.dfdc_selim", "total", 1e6, "us")
    timed("augment.rng_generator_us", "augment.rng_generator", "total", 1e6, "us")

    for op in IMGOPS:
        timed(f"imgops.{op}_us", f"imgops.{op}", "total", 1e6, "us")
    for op in SYNTHDATA:
        timed(f"synthdata.{op}_s", f"synthdata.{op}", "total", 1.0, "s")
    timed("metrics.compute_report_ms", "metrics.compute_report", "total", 1e3, "ms")

    steps = row("trainer.train_step")["calls"]
    timed("trainer.train_step_ms", "trainer.train_step", "total", 1e3, "ms")
    timed("trainer.train_step.self_ms", "trainer.train_step", "self", 1e3, "ms")
    # make_pair runs only to feed train steps, so its total per step is the
    # time each step waits for its views
    m["trainer.data_wait_ms"] = (row("augment.make_pair")["total"] / steps * 1e3 if steps else 0.0, "ms")
    timed("trainer.evaluate_s", "trainer.evaluate", "total", 1.0, "s")
    timed("trainer.score_samples_s", "trainer.score_samples", "total", 1.0, "s")
    timed("trainer.fnv1a_ms", "trainer.fnv1a", "total", 1e3, "ms")
    fnv = row("trainer.fnv1a")
    m["trainer.fnv1a_mb_per_s"] = (
        tracer.extra["trainer.fnv1a.bytes"] / fnv["total"] / 1e6 if fnv["total"] else 0.0,
        "MB/s",
    )
    timed("trainer.save_checkpoint_ms", "trainer.save_checkpoint", "total", 1e3, "ms")
    timed("trainer.load_checkpoint_ms", "trainer.load_checkpoint", "total", 1e3, "ms")

    for command in CLI_COMMANDS:
        timed(f"cli.main.{command}.self_ms", f"cli.main.{command}", "self", 1e3, "ms")

    wall = tracer.t_uninstall - tracer.t_install
    covered = sum(r["self"] for r in agg.values())
    m["trace.coverage"] = (100.0 * covered / wall if wall > 0 else 0.0, "%")
    m["trace.wall_s"] = (wall, "s")
    m["trace.spans"] = (float(len(tracer.names)), "count")
    return m
