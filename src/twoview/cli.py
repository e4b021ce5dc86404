"""Operator surface: dataset generation, training, evaluation, CAM export,
augmentation preview.

Configuration is flat `key = value` text; command-line flags override file
values, and the fully resolved configuration is echoed into the output
directory (`resolved.cfg`), so any run is reproducible from its own output.
Exit codes: 0 success, 2 configuration or usage error, 1 runtime failure.
No subcommand writes outside its --out directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .augment import STRATEGY_KINDS, RngStream, apply_augment, derive_seed
from .imgops import ImageFileError, bilinear_resize, read_ppm, write_pgm, write_ppm
from .losses import PENALTY_KINDS
from .metrics import MetricUndefinedError, compute_report, write_scores_csv
from .model import ModelConfig, cam, detach, encoder_forward
from .ndgrad import ContractError, DegenerateVectorError, ShapeError, Tensor, _keep_freed_memory
from .synthdata import SPLIT_NAMES, DatasetError, gen_dataset, load_dataset, save_dataset, shift_split
from .trainer import (
    CheckpointError,
    TrainConfig,
    _require_both_classes,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
    score_samples,
    train,
)


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 2."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit int")
    return value


def _parse_channels(text: str) -> str:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if len(parts) < 2 or any(int(p) < 1 for p in parts):
        raise ValueError(f"channels must list >= 2 positive ints, got {text!r}")
    return ",".join(str(int(p)) for p in parts)


@dataclass(frozen=True)
class _Key:
    cast: Callable[[str], Any]
    default: Any = None  # None marks a required key
    choices: tuple | None = None


_TRAIN = TrainConfig()  # `twoview train` takes the library's defaults

_SCHEMAS: dict[str, dict[str, _Key]] = {
    "gen-data": {
        "seed": _Key(_parse_seed, 0),
        "n_real": _Key(int, 100),
        "ratio": _Key(int, 4),
        "size": _Key(int, 64),
        "split_train": _Key(float, 0.7),
        "split_val": _Key(float, 0.15),
        "split_test": _Key(float, 0.15),
    },
    "train": {
        "seed": _Key(_parse_seed, _TRAIN.seed),
        "data": _Key(str),
        "alpha": _Key(float, _TRAIN.alpha),
        "penalty": _Key(str, _TRAIN.penalty, PENALTY_KINDS),
        "aug": _Key(str, _TRAIN.aug, STRATEGY_KINDS),
        "pairs_per_batch": _Key(int, _TRAIN.pairs_per_batch),
        "epochs": _Key(int, _TRAIN.max_epochs),
        "patience": _Key(int, _TRAIN.patience),
        "lr": _Key(float, _TRAIN.lr),
        "w_real": _Key(float, _TRAIN.w_real),
        "w_fake": _Key(float, _TRAIN.w_fake),
        "channels": _Key(_parse_channels, ",".join(map(str, _TRAIN.model.channels))),
    },
    "eval": {
        "seed": _Key(_parse_seed, 0),
        "checkpoint": _Key(str),
        "data": _Key(str),
        "split": _Key(str, "test", SPLIT_NAMES),
        "shifted_test": _Key(_parse_bool, False),
    },
    "cam": {
        "checkpoint": _Key(str),
        "data": _Key(str),
        "ids": _Key(str),
    },
    "aug-preview": {
        "seed": _Key(_parse_seed, 0),
        "image": _Key(str),
        "aug": _Key(str, "raaug", STRATEGY_KINDS),
        "count": _Key(int, 8),
    },
}


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def resolve_config(command: str, config_path: str | None, overrides: dict[str, Any]) -> dict[str, Any]:
    """defaults <- config file <- flags, with unknown keys rejected."""
    schema = _SCHEMAS[command]
    resolved: dict[str, Any] = {
        key: spec.default for key, spec in schema.items() if spec.default is not None
    }
    if config_path is not None:
        for key, text in _read_config_file(Path(config_path)).items():
            if key not in schema:
                raise ConfigError(f"{config_path}: unknown key {key!r} for {command}")
            try:
                resolved[key] = schema[key].cast(text)
            except ValueError as exc:
                raise ConfigError(f"{config_path}: key {key!r}: {exc}") from exc
    for key, value in overrides.items():
        if value is None:
            continue
        resolved[key] = value
    for key, spec in schema.items():
        if key not in resolved:
            raise ConfigError(f"{command} needs {key!r} (set it in the config file or by flag)")
        if spec.choices is not None and resolved[key] not in spec.choices:
            raise ConfigError(
                f"key {key!r} must be one of {list(spec.choices)}, got {resolved[key]!r}"
            )
    return resolved


def _echo_resolved(out: Path, command: str, cfg: dict[str, Any]) -> None:
    lines = [f"# resolved configuration for `{command}`"]
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    (out / "resolved.cfg").write_text("\n".join(lines) + "\n")


def _prepare_out(out_arg: str | None) -> Path:
    if not out_arg:
        raise ConfigError("--out is required")
    out = Path(out_arg)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ----------------------------------------------------------------


def cmd_gen_data(cfg: dict[str, Any], out: Path) -> None:
    ds = gen_dataset(
        n_real=cfg["n_real"],
        ratio=cfg["ratio"],
        seed=cfg["seed"],
        split_fracs=(cfg["split_train"], cfg["split_val"], cfg["split_test"]),
        size=cfg["size"],
    )
    save_dataset(ds, out)
    counts = {name: len(ds.split(name)) for name in SPLIT_NAMES}
    print(f"wrote {sum(counts.values())} samples to {out} " + str(counts))


def _model_config_for(cfg: dict[str, Any], dataset) -> ModelConfig:
    _require_both_classes(dataset.train, "train")
    input_size = dataset.train[0].shape[0]
    channels = tuple(int(p) for p in cfg["channels"].split(","))
    return ModelConfig(input_size=input_size, channels=channels)


def cmd_train(cfg: dict[str, Any], out: Path) -> None:
    dataset = load_dataset(cfg["data"], ("train", "val"))  # train() reads no other split
    tc = TrainConfig(
        pairs_per_batch=cfg["pairs_per_batch"],
        max_epochs=cfg["epochs"],
        patience=cfg["patience"],
        lr=cfg["lr"],
        alpha=cfg["alpha"],
        penalty=cfg["penalty"],
        aug=cfg["aug"],
        w_real=cfg["w_real"],
        w_fake=cfg["w_fake"],
        seed=cfg["seed"],
        model=_model_config_for(cfg, dataset),
    )

    def report(record):
        print(
            f"epoch {record.epoch:3d}  ce {record.ce_loss:9.4f}  "
            f"consistency {record.consistency_loss:9.6f}  val_auc {record.val_auc:.4f}  "
            f"({record.seconds:.1f}s)"
        )

    ckpt, history = train(tc, dataset, on_epoch=report)
    save_checkpoint(out / "model.ckpt", ckpt)
    history.to_csv(out / "history.csv")
    print(f"best epoch {ckpt.epoch} (val_auc {ckpt.best_val_auc:.4f}) -> {out / 'model.ckpt'}")


def _load_model_and_data(cfg: dict[str, Any], **rows) -> tuple:
    """(enc, cls, dataset) for `cfg`'s checkpoint and the rows of its data
    that load_dataset's `rows` keywords select, whose images must be of the
    size that the checkpoint's model takes."""
    ckpt = load_checkpoint(cfg["checkpoint"])
    enc, cls = params_from_checkpoint(ckpt)
    dataset = load_dataset(cfg["data"], **rows)
    side = ckpt.config.input_size
    # load_dataset has checked that every image has the first one's shape
    first = next((s for name in SPLIT_NAMES for s in dataset.split(name)), None)
    if first is not None and first.shape[:2] != (side, side):
        height, width = first.shape[:2]
        raise DatasetError(
            f"{cfg['data']} holds {height}x{width} images, but {cfg['checkpoint']} takes {side}x{side}"
        )
    return enc, cls, dataset


def cmd_eval(cfg: dict[str, Any], out: Path) -> None:
    if cfg["shifted_test"] and cfg["split"] != "test":
        raise ConfigError(f"shifted_test corrupts only the test split, but split = {cfg['split']!r}")
    enc, cls, dataset = _load_model_and_data(cfg, splits=(cfg["split"],))
    samples = dataset.split(cfg["split"])
    if not samples:
        raise DatasetError(f"split {cfg['split']!r} is empty in {cfg['data']}")
    if cfg["shifted_test"]:
        shift_split(samples, derive_seed(cfg["seed"], "shifted-test"))
    scored = score_samples(enc, cls, samples)
    report = compute_report(scored)
    (out / "report.txt").write_text(report.to_text())
    write_scores_csv(out / "scores.csv", [s.source_id for s in samples], scored)
    sys.stdout.write(report.to_text())


def _heat_overlay(image: np.ndarray, heat: np.ndarray) -> np.ndarray:
    """Red-tinted blend: hotter pixels pull the input toward pure red."""
    weight = (0.5 * heat)[:, :, None]
    red = np.zeros_like(image)
    red[:, :, 0] = 1.0
    return (1.0 - weight) * image + weight * red


def cmd_cam(cfg: dict[str, Any], out: Path) -> None:
    ids = [token.strip() for token in cfg["ids"].split(",") if token.strip()]
    if not ids:
        raise ConfigError("cam needs at least one sample id in 'ids'")
    enc, cls, dataset = _load_model_and_data(cfg, ids=set(ids))
    enc = detach(enc)
    by_id = {s.source_id: s for name in SPLIT_NAMES for s in dataset.split(name)}
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise ConfigError(f"unknown sample ids {unknown}; ids come from the index file stems")
    for sample_id in ids:
        sample = by_id[sample_id]
        image = sample.image
        _, maps = encoder_forward(Tensor(image.transpose(2, 0, 1)[None]), enc)
        heat = cam(maps.data[0], cls)
        size = image.shape[0]
        up = np.clip(bilinear_resize(heat, size, size), 0.0, 1.0)
        write_ppm(out / f"{sample_id}_input.ppm", image)
        write_pgm(out / f"{sample_id}_cam.pgm", up)
        write_ppm(out / f"{sample_id}_overlay.ppm", _heat_overlay(image, up))
        if sample.mask is not None:
            write_pgm(out / f"{sample_id}_mask.pgm", sample.mask.astype(np.float64))
        print(f"{sample_id}: cam written (peak {up.max():.3f})")


def cmd_aug_preview(cfg: dict[str, Any], out: Path) -> None:
    image = read_ppm(cfg["image"])
    if cfg["count"] < 0:
        raise ConfigError(f"count must be >= 0, got {cfg['count']}")
    stem = Path(cfg["image"]).stem
    for k in range(cfg["count"]):
        view = apply_augment(image, cfg["aug"], RngStream(cfg["seed"], 0, k, 0))
        name = f"{stem}_{cfg['aug']}_s{cfg['seed']}_k{k:03d}.ppm"
        write_ppm(out / name, view)
    print(f"wrote {cfg['count']} previews to {out}")


# -- argument plumbing ----------------------------------------------------------


_COMMANDS: dict[str, tuple[Callable[[dict[str, Any], Path], None], str]] = {
    "gen-data": (cmd_gen_data, "generate the synthetic dataset"),
    "train": (cmd_train, "train a model on a generated dataset"),
    "eval": (cmd_eval, "evaluate a checkpoint on a dataset split"),
    "cam": (cmd_cam, "export CAM heatmaps for chosen sample ids"),
    "aug-preview": (cmd_aug_preview, "write augmented variants of one image"),
}


def _build_parser() -> argparse.ArgumentParser:
    """One flag per schema key (`n_real` -> `--n-real`); unset flags parse to None."""
    parser = argparse.ArgumentParser(
        prog="twoview",
        description="Two-view consistency training for tamper detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--out", metavar="DIR", help="output directory (required)")
        for key, spec in _SCHEMAS[command].items():
            flag = "--" + key.replace("_", "-")
            if spec.cast is _parse_bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, dest=key, type=spec.cast, choices=spec.choices, default=None)
    return parser


# Bad keys, values, or flag combinations are the caller's mistake (exit 2);
# failures while doing the work (bad files on disk, degenerate numerics,
# filesystem trouble) are runtime errors (exit 1).
_CONFIG_ERRORS = (ConfigError, ContractError)
_RUNTIME_ERRORS = (
    DatasetError,
    CheckpointError,
    ImageFileError,
    MetricUndefinedError,
    DegenerateVectorError,
    ShapeError,
    OSError,
)


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    command = args.command
    overrides = {key: getattr(args, key) for key in _SCHEMAS[command]}
    try:
        cfg = resolve_config(command, args.config, overrides)
        out = _prepare_out(args.out)
        _echo_resolved(out, command, cfg)
        handler, _ = _COMMANDS[command]
        handler(cfg, out)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
