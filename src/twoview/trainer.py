"""Paired-view training loop: combined loss, Adam, early stopping, checkpoints.

One step sends both views of each pair through the shared encoder, applies
weighted cross-entropy to every view's prediction plus the consistency
penalty to each pair's two representations, and takes one Adam step on
`ce + alpha * consistency`.  Both losses sum over pairs, so the batch runs
in chunks of a few pairs, each with its own forward and backward pass, and
the parameter gradients add up across chunks before the one step.

Everything downstream of (config, seed) is bitwise deterministic: parameter
init, the per-epoch shuffle, and every augmentation draw are keyed by
derived sub-seeds, and evaluation consumes no randomness at all.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import STRATEGY_KINDS, RngStream, derive_seed, make_pair
from .losses import PENALTY_KINDS, batch_ce, batch_consistency
from .metrics import MetricReport, ScoredSet, compute_report
from .model import (
    ModelConfig,
    Params,
    classifier_forward,
    detach,
    encoder_forward,
    init_params,
    named_parameters,
    param_shapes,
    params_from_arrays,
)
from .ndgrad import EPS_NORM, Adam, ContractError, DegenerateVectorError, Tensor, _keep_freed_memory
from .synthdata import channel_stats, stack_images


class CheckpointError(Exception):
    """A checkpoint file failed to parse or verify; the message says where."""


MAGIC = b"CORECKPT"
FORMAT_VERSION = 3

_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _checksum(body) -> bytes:
    """The 8-byte trailer of a format-2 or later file: BLAKE2b-64 of everything before it."""
    return hashlib.blake2b(body, digest_size=8).digest()


# fnv1a, the format-1 checksum, has no caller in the package. It stays bound
# because bench/tracing.py patches `trainer.fnv1a` by name.
def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a over the byte string."""
    h = _FNV_BASIS
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


@dataclass(frozen=True)
class TrainConfig:
    pairs_per_batch: int = 32
    max_epochs: int = 30
    patience: int = 5
    lr: float = 2e-4
    alpha: float = 1.0
    penalty: str = "cos"
    aug: str = "raaug"
    w_real: float = 4.0
    w_fake: float = 1.0
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not isinstance(self.pairs_per_batch, int) or self.pairs_per_batch < 1:
            raise ContractError(f"pairs_per_batch must be >= 1, got {self.pairs_per_batch}")
        if not isinstance(self.max_epochs, int) or self.max_epochs < 1:
            raise ContractError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not isinstance(self.patience, int) or self.patience < 1:
            raise ContractError(f"patience must be >= 1, got {self.patience}")
        if not 0 < self.lr < np.inf:
            raise ContractError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.alpha < np.inf:
            raise ContractError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.penalty not in PENALTY_KINDS:
            raise ContractError(f"penalty must be one of {PENALTY_KINDS}, got {self.penalty!r}")
        if self.aug not in STRATEGY_KINDS:
            raise ContractError(f"aug must be one of {STRATEGY_KINDS}, got {self.aug!r}")
        if not (0 < self.w_real < np.inf and 0 < self.w_fake < np.inf):
            raise ContractError(f"w_real and w_fake must be finite and positive, got ({self.w_real}, {self.w_fake})")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ContractError(f"seed must be an unsigned 64-bit int, got {self.seed!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int  # 1-based
    ce_loss: float  # mean per pair over the epoch's full batches
    consistency_loss: float  # mean per pair; exactly 0.0 when alpha == 0
    val_auc: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """Write the per-epoch log.

        Wall time is an observation, not a function of the seed, so the
        seconds column is written as 0.0 to keep the file a pure function of
        (config, seed); the in-memory records keep the measured values.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "ce_loss", "consistency_loss", "val_auc", "seconds"])
            for r in self.epochs:
                writer.writerow([r.epoch, repr(r.ce_loss), repr(r.consistency_loss), repr(r.val_auc), "0.0"])


class EarlyStopper:
    """Maximize a metric with strict-improvement patience counting."""

    def __init__(self, patience: int):
        if not isinstance(patience, int) or patience < 1:
            raise ContractError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = -np.inf
        self.stale = 0

    def update(self, value: float) -> bool:
        """Record one epoch's metric; True iff it strictly improved the best."""
        if value > self.best:
            self.best = value
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


# -- checkpoints ----------------------------------------------------------------


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    input_mean: np.ndarray  # [3], the encoder's input/mean
    input_std: np.ndarray  # [3], the encoder's input/std
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int
    lr: float
    beta1: float
    beta2: float
    eps: float
    epoch: int
    best_val_auc: float
    seed: int


# The one-value entries of the file, in file order: the optimizer entries
# sit between the parameters and the moments, the metadata between the
# moments and meta/seed.  A row is (entry, Checkpoint field, int for a whole
# number or float, the accepted range as an error states it, its test).  A
# loaded value must also be finite; a float64 holds every integer below 2**53.
_SCALARS = {
    "optimizer entry": (
        ("adam/t", "adam_t", int, "in [0, 2**53)", lambda v: 0 <= v < 2**53),
        ("adam/lr", "lr", float, "> 0", lambda v: v > 0),
        ("adam/beta1", "beta1", float, "in [0, 1)", lambda v: 0 <= v < 1),
        ("adam/beta2", "beta2", float, "in [0, 1)", lambda v: 0 <= v < 1),
        ("adam/eps", "eps", float, "> 0", lambda v: v > 0),
    ),
    "metadata": (
        ("meta/epoch", "epoch", int, "in [0, 2**53)", lambda v: 0 <= v < 2**53),
        ("meta/best_val_auc", "best_val_auc", float, "in [0, 1]", lambda v: 0 <= v <= 1),
    ),
}


def snapshot_checkpoint(
    enc: Params,
    cls: Params,
    opt: Adam,
    config: ModelConfig,
    epoch: int,
    best_val_auc: float,
    seed: int,
) -> Checkpoint:
    """Deep-copy the current model, its input statistics and the optimizer state."""
    names = named_parameters(enc, cls)
    return Checkpoint(
        config=config,
        params={name: p.data.copy() for name, p in names.items()},
        input_mean=enc["input/mean"].data.copy(),
        input_std=enc["input/std"].data.copy(),
        adam_m={name: opt.m[name].copy() for name in names},
        adam_v={name: opt.v[name].copy() for name in names},
        adam_t=opt.t,
        lr=opt.lr,
        beta1=opt.beta1,
        beta2=opt.beta2,
        eps=opt.eps,
        epoch=epoch,
        best_val_auc=float(best_val_auc),
        seed=int(seed),
    )


def params_from_checkpoint(ckpt: Checkpoint) -> tuple[Params, Params]:
    """Rebuild live (trainable) parameter mappings from copies of the stored arrays."""
    arrays = {**ckpt.params, "input/mean": ckpt.input_mean, "input/std": ckpt.input_std}
    return params_from_arrays(ckpt.config, {name: arr.copy() for name, arr in arrays.items()})


def _tensor_table(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """Flatten the checkpoint into the named-tensor table the format stores.

    Scalar metadata rides along as rank-1 float64 tensors; the seed is split
    into 32-bit halves because a float64 cannot hold every u64 exactly.
    """
    table: dict[str, np.ndarray] = {
        "config/input_size": np.array([ckpt.config.input_size], dtype=np.float64),
        "config/channels": np.array(ckpt.config.channels, dtype=np.float64),
        "input/mean": ckpt.input_mean,
        "input/std": ckpt.input_std,
    }

    def add_scalars(what: str) -> None:
        for name, field, *_ in _SCALARS[what]:
            table[name] = np.array([getattr(ckpt, field)], dtype=np.float64)

    for name, arr in ckpt.params.items():
        table[name] = arr
    add_scalars("optimizer entry")
    for name, arr in ckpt.adam_m.items():
        table[f"adam/m/{name}"] = arr
    for name, arr in ckpt.adam_v.items():
        table[f"adam/v/{name}"] = arr
    add_scalars("metadata")
    table["meta/seed"] = np.array(
        [ckpt.seed >> 32, ckpt.seed & 0xFFFFFFFF], dtype=np.float64
    )
    return table


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Binary named-tensor container with a trailing integrity checksum.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` in one rename, so a failed save leaves any earlier file
    at `path` as it was.
    """
    table = _tensor_table(ckpt)
    body = bytearray()
    body += MAGIC
    body += FORMAT_VERSION.to_bytes(4, "little")
    body += len(table).to_bytes(4, "little")
    for name, arr in table.items():
        name_b = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        body += len(name_b).to_bytes(2, "little")
        body += name_b
        body += arr.ndim.to_bytes(1, "little")
        for dim in arr.shape:
            body += int(dim).to_bytes(4, "little")
        body += arr.data
    body += _checksum(body)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_tensor_table(data: bytes, path) -> dict[str, np.ndarray]:
    """Check size, magic, version and checksum, in that order, then read the table.

    No field past the version is read before the checksum holds. A file that
    fails it is walked once more, unverified, only so that a cut-off file
    says where it ends.
    """
    if len(data) < len(MAGIC) + 4 + 4 + 8:
        raise CheckpointError(f"{path}: truncated at offset {len(data)}: shorter than a valid header")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    version = int.from_bytes(data[len(MAGIC) : len(MAGIC) + 4], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}")
    body, stored = memoryview(data)[:-8], data[-8:]
    actual = _checksum(body)
    if actual != stored:
        message = f"{path}: checksum mismatch (stored {stored.hex()}, computed {actual.hex()})"
        try:
            _read_table(body, path)
        except CheckpointError as exc:
            message += f"; read unverified: {str(exc).removeprefix(f'{path}: ')}"
        raise CheckpointError(message)
    return _read_table(body, path)


def _read_table(body, path) -> dict[str, np.ndarray]:
    off = len(MAGIC) + 4  # magic and version, checked by the caller
    size = len(body)

    def take(n: int, what: str, *args):
        # the next n bytes of the body.  A load reads some 70 tensors, so the
        # error's noun, what.format(*args), is formatted only when it is raised
        nonlocal off
        if off + n > size:
            raise CheckpointError(f"{path}: truncated at offset {off} while reading {what.format(*args)}")
        off += n
        return body[off - n : off]

    count = int.from_bytes(take(4, "tensor count"), "little")
    table: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = int.from_bytes(take(2, "name length"), "little")
        try:
            name = str(take(name_len, "tensor name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not valid UTF-8") from exc
        if name in table:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        rank = take(1, "rank of {}", name)[0]
        if rank < 1:
            raise CheckpointError(f"{path}: tensor {name!r} has rank 0")
        dims = [int.from_bytes(take(4, "dim {} of {}", i, name), "little") for i in range(rank)]
        if min(dims) < 1:
            raise CheckpointError(f"{path}: tensor {name!r} has a zero dimension")
        # math.prod is exact; np.prod wraps around in int64
        payload = take(8 * math.prod(dims), "payload of {}", name)
        table[name] = np.frombuffer(payload, "<f8").reshape(dims).astype(np.float64)
    if off != size:
        raise CheckpointError(f"{path}: {size - off} trailing bytes after the tensor table")
    return table


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: no such file")
    table = _parse_tensor_table(path.read_bytes(), path)

    def pull(name, what, shape=(1,)):
        # shape None: rank 1 of any length
        if name not in table:
            raise CheckpointError(f"{path}: missing {what} {name!r}")
        arr = table.pop(name)
        if (arr.ndim != 1) if shape is None else (arr.shape != shape):
            raise CheckpointError(
                f"{path}: {what} {name!r} has shape {arr.shape}, expected {shape or 'rank 1'}"
            )
        return arr

    def pull_ints(name, what, shape=(1,), lo=0, bits=53):
        # whole numbers in [lo, 2**bits); a float64 holds every integer below 2**53
        arr = pull(name, what, shape)
        if not np.all((arr >= lo) & (arr < 2.0**bits) & (arr == np.floor(arr))):
            raise CheckpointError(
                f"{path}: {what} {name!r} must hold whole numbers in [{lo}, 2**{bits}), got {arr.tolist()}"
            )
        return [int(v) for v in arr]

    def pull_scalars(what) -> dict:
        # one section of _SCALARS, as Checkpoint field -> Python int or float
        values = {}
        for name, field, kind, expected, in_range in _SCALARS[what]:
            (value,) = pull(name, what)
            if not (np.isfinite(value) and in_range(value) and kind(value) == value):
                noun = "a whole number" if kind is int else "finite"
                raise CheckpointError(f"{path}: {what} {name!r} must be {noun} and {expected}, got {value}")
            values[field] = kind(value)
        return values

    (input_size,) = pull_ints("config/input_size", "config entry", lo=1)
    channels = pull_ints("config/channels", "config entry", shape=None, lo=1)
    try:
        config = ModelConfig(input_size=input_size, channels=tuple(channels))
    except ContractError as exc:
        raise CheckpointError(
            f"{path}: config/input_size and config/channels describe no valid model: {exc}"
        ) from exc
    stats = {}
    for name, expected, valid in (
        ("input/mean", "finite", np.isfinite),
        ("input/std", "finite and > 0", lambda v: np.isfinite(v) & (v > 0)),
    ):
        stats[name] = pull(name, "input statistic", (3,))
        if not np.all(valid(stats[name])):
            raise CheckpointError(
                f"{path}: input statistic {name!r} must be {expected}, got {stats[name].tolist()}"
            )
    expected = param_shapes(config)
    params = {name: pull(name, "parameter", shape) for name, shape in expected.items()}
    optimizer = pull_scalars("optimizer entry")
    adam_m, adam_v = {}, {}
    for name, shape in expected.items():
        adam_m[name] = pull(f"adam/m/{name}", "optimizer moment", shape)
        adam_v[name] = pull(f"adam/v/{name}", "optimizer moment", shape)
    metadata = pull_scalars("metadata")
    seed_high, seed_low = pull_ints("meta/seed", "metadata", shape=(2,), bits=32)
    seed = (seed_high << 32) | seed_low
    if table:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(table)}")
    return Checkpoint(
        config, params, stats["input/mean"], stats["input/std"], adam_m, adam_v, seed=seed, **optimizer, **metadata
    )


# -- the loop itself ------------------------------------------------------------


# Bytes per encoder pass, counted as channels[1] * S * S float64s per image.
# That was the stage-0 output when each stage pooled last.  Stage 0 now
# pools before its pointwise conv, so its full-size arrays (the stem's and
# the depthwise outputs) hold channels[0] * S * S, half the count at the
# usual doubling plans, and its pooled output a quarter.  The count stays,
# so every config runs the chunks it ran before.  At the `twoview train`
# defaults (16-128 channels, 64 px, 32 pairs) a pass over the whole batch
# would make 33.5 MB arrays, so every op is bound by memory.  A training
# step keeps one chunk's graph alive at a time, so the budget also sets a
# step's live memory.  Full `bench/run.py` runs of the model that pooled
# last (2-core Xeon with 2 MiB of L2 per core, one BLAS thread), medians of
# peak RSS in MB and op_cost in calib for train-ref / train-wide / eval-io:
#   1 MiB  62.9 / 76.1 / 71.9 MB   5.04 / 43.9 / 46.0   (3 runs)
#   2 MiB  71.5 / 76.2 / 74.8 MB   4.73 / 44.1 / 45.0   (10 runs)
#   4 MiB  88.6 / 92.5 / 80.2 MB   4.98 / 45.6 / 45.8   (3 runs)
#   8 MiB 121.4 / 126.4 / 91.0 MB  5.31 / 47.0 / 44.9   (10 runs)
# train-wide runs one pair per chunk at both 1 and 2 MiB.
_CHUNK_BYTES = 2 << 20


def _chunks(items, enc: Params, size: int, views: int) -> list:
    """Slices of `items`, each one encoder pass over `views` size x size images per item."""
    per_image = enc["encoder/stage0/pointwise"].shape[0] * size * size * 8
    step = max(1, _CHUNK_BYTES // (views * per_image))
    return [items[start : start + step] for start in range(0, len(items), step)]


def _view_pairs(samples, indices, aug: str, seed: int, epoch: int) -> list:
    """The view pair of samples[i] for each i, drawn at RngStream(seed, epoch, i, 0 and 1)."""
    return [
        make_pair(
            samples[i].image,
            samples[i].label,
            aug,
            RngStream(seed, epoch, int(i), 0),
            RngStream(seed, epoch, int(i), 1),
            source_id=samples[i].source_id,
        )
        for i in indices
    ]


def _encode_pairs(pairs, enc: Params) -> Tensor:
    """[2N, d] representations: view-1 rows first, then view-2 rows, same pair order.

    An all-zero row raises DegenerateVectorError naming its sample and view.
    """
    n = len(pairs)
    x = np.stack([p.x1 for p in pairs] + [p.x2 for p in pairs]).transpose(0, 3, 1, 2)
    reps, _ = encoder_forward(Tensor(x), enc)
    bad = np.flatnonzero(np.linalg.norm(reps.data, axis=1) <= EPS_NORM)
    if bad.size:
        i = int(bad[0])
        raise DegenerateVectorError(
            f"sample {pairs[i % n].source_id!r} (view {i // n + 1}) produced an all-zero representation"
        )
    return reps


def _chunk_backward(pairs, enc: Params, cls: Params, config: TrainConfig) -> tuple[float, float]:
    """Forward and backward of the loss on some pairs; returns (ce, consistency) sums.

    The parameter gradients add into whatever .grad already holds.  The
    graph lives only in this call, so a chunk's arrays are freed before the
    next chunk's forward pass.
    """
    n = len(pairs)
    reps = _encode_pairs(pairs, enc)
    probs = classifier_forward(reps, cls)
    labels = np.array([p.label for p in pairs])

    ce = batch_ce(probs[:n], probs[n:], labels, (config.w_real, config.w_fake))
    if config.alpha > 0:
        consistency = batch_consistency(reps[:n], reps[n:], config.penalty)
        loss = ce + consistency * float(config.alpha)
        c_value = consistency.item()
    else:
        # alpha = 0 must be bit-identical to a CE-only trainer, so the
        # consistency graph is never built
        loss = ce
        c_value = 0.0
    loss.backward()
    return ce.item(), c_value


def train_step(pairs, enc: Params, cls: Params, opt: Adam, config: TrainConfig) -> tuple[float, float]:
    """One optimizer step on a batch of view pairs; returns (ce, consistency) sums.

    The pairs go through the model in chunks sized by _CHUNK_BYTES, each
    with its own backward pass; their gradients add up into one Adam step.
    Of config, only the loss fields are read: alpha, penalty, w_real, w_fake.
    On glibc it first sets the process's malloc thresholds so that the
    memory each chunk frees stays in the process for the next one.
    """
    if not pairs:
        raise ContractError("train_step needs a non-empty batch")
    _keep_freed_memory()
    opt.zero_grad()
    ce_sum = c_sum = 0.0
    for chunk in _chunks(pairs, enc, pairs[0].x1.shape[0], views=2):
        ce, consistency = _chunk_backward(chunk, enc, cls, config)
        ce_sum += ce
        c_sum += consistency
    opt.step()
    return ce_sum, c_sum


def _labels_of(samples) -> np.ndarray:
    return np.array([s.label for s in samples])


def _require_both_classes(samples, name: str) -> None:
    labels = _labels_of(samples)
    if not samples or (labels == 0).sum() == 0 or (labels == 1).sum() == 0:
        raise ContractError(f"{name} split needs samples of both classes")


def train(config: TrainConfig, dataset, on_epoch=None) -> tuple[Checkpoint, TrainHistory]:
    """Full run: epoch loop, validation-AUC early stopping, best-checkpoint pick.

    `dataset` provides .train and .val sample lists.  The encoder
    standardises its input by the train split's per-channel mean and std,
    which the checkpoint stores beside the parameters.  Returns the
    checkpoint of the epoch with the highest validation AUC
    (strict-improvement comparison, patience from the config) and the
    per-epoch history.
    """
    train_samples = dataset.train
    _require_both_classes(train_samples, "train")
    _require_both_classes(dataset.val, "val")
    n = config.pairs_per_batch
    n_batches = len(train_samples) // n
    if n_batches == 0:
        raise ContractError(
            f"pairs_per_batch {n} exceeds the training split size {len(train_samples)}"
        )

    mean, std = channel_stats(train_samples)
    if not np.all(std > 0):
        raise ContractError(f"train split has a constant channel: per-channel std {std.tolist()}")
    enc, cls = init_params(config.model, derive_seed(config.seed, "init"))
    enc["input/mean"], enc["input/std"] = Tensor(mean), Tensor(std)
    opt = Adam(named_parameters(enc, cls), lr=config.lr)
    stopper = EarlyStopper(config.patience)
    shuffle_seed = derive_seed(config.seed, "shuffle")
    aug_seed = derive_seed(config.seed, "aug")

    history = TrainHistory()
    best: Checkpoint | None = None
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        perm = RngStream(shuffle_seed, epoch, 0, 0).generator().permutation(len(train_samples))
        ce_total = 0.0
        c_total = 0.0
        for b in range(n_batches):  # the last partial batch is dropped
            pairs = _view_pairs(train_samples, perm[b * n : (b + 1) * n], config.aug, aug_seed, epoch)
            ce, consistency = train_step(pairs, enc, cls, opt, config)
            ce_total += ce
            c_total += consistency
        val_auc = evaluate(enc, cls, dataset.val).auc
        record = EpochRecord(
            epoch=epoch,
            ce_loss=ce_total / (n_batches * n),
            consistency_loss=c_total / (n_batches * n),
            val_auc=val_auc,
            seconds=time.perf_counter() - t0,
        )
        history.epochs.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if stopper.update(val_auc):
            best = snapshot_checkpoint(enc, cls, opt, config.model, epoch, val_auc, config.seed)
        if stopper.should_stop:
            break
    assert best is not None  # epoch 1 always improves on -inf
    return best, history


def score_samples(enc: Params, cls: Params, samples) -> ScoredSet:
    """Un-augmented single-view inference: one P(fake) score per sample.

    The encoder runs in chunks of images and the classifier once over every
    representation.  A sample's representation does not depend on the chunk
    it shares, but the rounding of the classifier matmul depends on its row
    count, so the scores are those of one forward pass over the whole list.
    """
    if not samples:
        raise ContractError("score_samples needs a non-empty sample list")
    _keep_freed_memory()
    enc, cls = detach(enc), detach(cls)
    reps = []
    for chunk in _chunks(samples, enc, samples[0].shape[0], views=1):
        x = stack_images(chunk).transpose(0, 3, 1, 2)
        reps.append(encoder_forward(Tensor(x), enc)[0].data)
    scores = classifier_forward(Tensor(np.concatenate(reps)), cls).data
    return ScoredSet(scores=scores, labels=_labels_of(samples))


def evaluate(enc: Params, cls: Params, samples) -> MetricReport:
    return compute_report(score_samples(enc, cls, samples))


def cross_view_distance(enc: Params, samples, aug: str, seed: int) -> float:
    """Mean cosine-consistency penalty between two fresh views of each sample.

    The quantity the consistency term minimizes, measured on held-out data:
    one addressed view pair per sample, (1 - cos)^2 between the two
    representations, averaged over the split.
    """
    if not samples:
        raise ContractError("cross_view_distance needs a non-empty sample list")
    _keep_freed_memory()
    enc = detach(enc)
    total = 0.0
    for positions in _chunks(range(len(samples)), enc, samples[0].shape[0], views=2):
        reps = _encode_pairs(_view_pairs(samples, positions, aug, seed, 0), enc)
        m = len(positions)
        total += batch_consistency(reps[:m], reps[m:], "cos").item()
    return total / len(samples)
