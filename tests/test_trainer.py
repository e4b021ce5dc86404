"""Training loop, early stopping, checkpoint container, evaluation."""

import ast
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from twoview import ndgrad, trainer
from twoview.augment import RngStream, derive_seed, make_pair
from twoview.cli import main as cli_main
from twoview.losses import batch_ce, batch_consistency
from twoview.metrics import MetricUndefinedError
from twoview.model import (
    ModelConfig,
    classifier_forward,
    encoder_forward,
    init_params,
    named_parameters,
)
from twoview.ndgrad import Adam, ContractError, DegenerateVectorError, Tensor, finite_diff_grad
from twoview.synthdata import SPLIT_NAMES, DatasetSplit, gen_dataset
from twoview.trainer import (
    Checkpoint,
    CheckpointError,
    EarlyStopper,
    TrainConfig,
    TrainHistory,
    cross_view_distance,
    evaluate,
    fnv1a,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
    score_samples,
    snapshot_checkpoint,
    train,
    train_step,
)

TINY_MODEL = ModelConfig(input_size=32, channels=(4, 6))


@pytest.fixture(scope="module")
def tiny_dataset():
    # size must match TINY_MODEL's input
    return gen_dataset(n_real=14, ratio=1, seed=0, size=32)


def chunk_budget(images, model=TINY_MODEL):
    """A trainer._CHUNK_BYTES under which one encoder pass takes `images` images."""
    return images * model.channels[1] * model.input_size**2 * 8


def whole_split_scores(enc, cls, samples):
    """Scores of one forward pass over the whole list, on the trainable parameters."""
    x = np.stack([s.image for s in samples]).transpose(0, 3, 1, 2)
    return classifier_forward(encoder_forward(Tensor(x), enc)[0], cls)


def tiny_config(**overrides):
    defaults = dict(
        pairs_per_batch=4,
        max_epochs=2,
        patience=5,
        alpha=1.0,
        penalty="cos",
        aug="raaug",
        seed=0,
        model=TINY_MODEL,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def random_checkpoint(seed=0, config=TINY_MODEL):
    enc, cls = init_params(config, seed=seed)
    opt = Adam(named_parameters(enc, cls))
    gen = np.random.default_rng(seed + 1)
    opt.t = int(gen.integers(0, 100))
    for name in opt.m:
        opt.m[name] = gen.normal(size=opt.m[name].shape)
        opt.v[name] = gen.uniform(0, 1, size=opt.v[name].shape)
    return snapshot_checkpoint(
        enc, cls, opt, config, epoch=int(gen.integers(1, 30)),
        best_val_auc=float(gen.uniform(0, 1)),
        seed=int(gen.integers(0, 2**64, dtype=np.uint64)),
    )


def save_with_entry(path, entry, values):
    """A well-formed file with a valid checksum whose `entry` holds `values`,
    so only the loader's value check can reject it."""
    table = trainer._tensor_table(random_checkpoint(0))
    table[entry] = np.array(values)
    path.write_bytes(oracles.sealed(oracles.checkpoint_body(table)))
    return path


def save_overflowing_dims(path):
    """A file with a valid checksum whose one tensor claims (2**32 - 1)**2
    values, a count that wraps around in int64, and carries no payload."""
    name = b"config/input_size"
    body = struct.pack("<8sII", b"CORECKPT", 2, 1) + struct.pack("<H", len(name)) + name
    body += struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1)
    path.write_bytes(oracles.sealed(body))
    return path


def train_ref_step_peak():
    """tracemalloc peak, in bytes, of one train_step at train-ref shapes, after a warm-up step."""
    samples = gen_dataset(n_real=10, ratio=1, seed=0, size=64).train[:8]
    pairs = [
        make_pair(s.image, s.label, "raaug",
                  RngStream(0, 1, i, 0), RngStream(0, 1, i, 1), source_id=s.source_id)
        for i, s in enumerate(samples)
    ]
    config = TrainConfig(model=ModelConfig(input_size=64, channels=(8, 16, 32, 64)))
    enc, cls = init_params(config.model, seed=0)
    opt = Adam(named_parameters(enc, cls))
    train_step(pairs, enc, cls, opt, config)  # warm-up
    tracemalloc.start()
    try:
        train_step(pairs, enc, cls, opt, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


class TestFnv1a:
    def test_published_vectors(self):
        for data, expected in oracles.FNV1A_VECTORS.items():
            assert fnv1a(data) == expected

    def test_matches_oracle_on_random_bytes(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            data = gen.bytes(int(gen.integers(0, 200)))
            assert fnv1a(data) == oracles.fnv1a_ref(data)

    def test_sensitivity(self):
        assert fnv1a(b"abc") != fnv1a(b"acb")


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.pairs_per_batch == 32
        assert cfg.max_epochs == 30
        assert cfg.patience == 5
        assert cfg.lr == 2e-4
        assert cfg.alpha == 1.0
        assert cfg.penalty == "cos"
        assert (cfg.w_real, cfg.w_fake) == (4.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pairs_per_batch=0),
            dict(max_epochs=0),
            dict(patience=0),
            dict(lr=0.0),
            dict(lr=-1e-4),
            dict(alpha=-0.5),
            dict(penalty="cosine"),
            dict(aug="mixup"),
            dict(w_real=0.0),
            dict(w_fake=-1.0),
            dict(seed=-1),
            dict(seed=2**64),
            # nan fails every comparison, so a check written as `alpha < 0` lets it through
            dict(lr=np.nan),
            dict(lr=np.inf),
            dict(alpha=np.nan),
            dict(alpha=np.inf),
            dict(w_real=np.nan),
            dict(w_fake=np.inf),
            # alpha = 0 is the only spelling of the cross-entropy baseline
            dict(penalty="none"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ContractError):
            TrainConfig(**kwargs)


class TestEarlyStopper:
    def test_patience_counting_rule(self):
        stopper = EarlyStopper(patience=5)
        values = [0.9, 0.89, 0.89, 0.89, 0.89, 0.89]
        improved = []
        for v in values:
            improved.append(stopper.update(v))
            if stopper.should_stop:
                break
        assert improved == [True] + [False] * 5  # stops after epoch 6; the best is epoch 1
        assert stopper.best == 0.9

    def test_strict_improvement(self):
        stopper = EarlyStopper(patience=2)
        assert stopper.update(0.5)
        assert not stopper.update(0.5)  # a tie is not a gain
        assert not stopper.update(0.5)
        assert stopper.should_stop

    def test_counter_resets_on_improvement(self):
        stopper = EarlyStopper(patience=3)
        improved = [stopper.update(v) for v in [0.5, 0.4, 0.4, 0.6, 0.5, 0.5]]
        assert not stopper.should_stop
        assert improved == [True, False, False, True, False, False]  # the best epoch is 4

    def test_monotone_never_stops(self):
        stopper = EarlyStopper(patience=1)
        for epoch in range(1, 31):
            assert stopper.update(epoch / 31.0)
            assert not stopper.should_stop

    def test_patience_contract(self):
        with pytest.raises(ContractError):
            EarlyStopper(patience=0)


class TestCheckpointRoundTrip:
    def test_bitwise_identity(self, tmp_path):
        # every Checkpoint field, so a field the entry table misses fails here
        for seed in range(5):
            ckpt = random_checkpoint(seed)
            path = tmp_path / f"{seed}.ckpt"
            save_checkpoint(path, ckpt)
            back = load_checkpoint(path)
            for f in fields(Checkpoint):
                ours, theirs = getattr(ckpt, f.name), getattr(back, f.name)
                if isinstance(ours, dict):
                    assert theirs.keys() == ours.keys(), f.name
                    for name in ours:
                        assert np.array_equal(theirs[name], ours[name]), (f.name, name)
                else:
                    # plain Python ints and floats, as the caller stored them
                    assert type(theirs) is type(ours) and theirs == ours, f.name

    def test_save_is_deterministic(self, tmp_path):
        ckpt = random_checkpoint(3)
        save_checkpoint(tmp_path / "a.ckpt", ckpt)
        save_checkpoint(tmp_path / "b.ckpt", ckpt)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, random_checkpoint(0))
        before = path.read_bytes()

        def write_half_then_fail(self, data):
            with open(self, "wb") as f:
                f.write(bytes(data)[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, random_checkpoint(1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_layout_matches_independent_writer(self, tmp_path):
        ckpt = random_checkpoint(4)
        save_checkpoint(tmp_path / "c.ckpt", ckpt)
        expected = oracles.sealed(oracles.checkpoint_body(oracles.checkpoint_v2_entries(ckpt)))
        assert (tmp_path / "c.ckpt").read_bytes() == expected, (
            "saved bytes differ from the format-2 layout: a changed layout needs a new "
            "trainer.FORMAT_VERSION and its own entry list in oracles"
        )

    def test_u64_seed_survives(self, tmp_path):
        ckpt = random_checkpoint(0)
        ckpt.seed = 2**64 - 1  # would be rounded if stored as one float64
        save_checkpoint(tmp_path / "s.ckpt", ckpt)
        assert load_checkpoint(tmp_path / "s.ckpt").seed == 2**64 - 1

    def test_restored_params_are_live_copies(self, tmp_path):
        ckpt = random_checkpoint(1)
        save_checkpoint(tmp_path / "c.ckpt", ckpt)
        back = load_checkpoint(tmp_path / "c.ckpt")
        enc, cls = params_from_checkpoint(back)
        names = named_parameters(enc, cls)
        assert all(p.requires_grad for p in names.values())
        names["classifier/bias"].data += 1.0
        assert not np.array_equal(names["classifier/bias"].data, back.params["classifier/bias"])


class TestCheckpointCorruption:
    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, random_checkpoint(0))
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such file"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, saved):
        data = bytearray(saved.read_bytes())
        data[:8] = b"NOTACKPT"
        saved.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(saved)

    def test_wrong_version(self, saved):
        data = bytearray(saved.read_bytes())
        data[8:12] = (99).to_bytes(4, "little")
        # keep the checksum consistent so the version check is what fires
        saved.write_bytes(oracles.sealed(bytes(data[:-8])))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(saved)

    def test_format_1_is_rejected_by_version(self, tmp_path):
        # a genuine format-1 file: the same layout, sealed with FNV-1a
        body = oracles.checkpoint_body(trainer._tensor_table(random_checkpoint(0)), version=1)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(body + oracles.fnv1a_ref(body).to_bytes(8, "little"))
        with pytest.raises(CheckpointError, match="unsupported format version 1, expected 2"):
            load_checkpoint(path)

    def test_truncation_names_offset(self, saved):
        data = saved.read_bytes()
        cut = len(data) // 2
        saved.write_bytes(data[:cut])
        with pytest.raises(CheckpointError, match=r"truncated at offset \d+"):
            load_checkpoint(saved)

    def test_truncated_below_header(self, saved):
        saved.write_bytes(saved.read_bytes()[:10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(saved)

    def test_checksum_mismatch(self, saved):
        data = bytearray(saved.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip payload bits, keep structure
        saved.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(saved)

    def test_byte_flip_sweep(self, saved):
        data = saved.read_bytes()
        # the first tensor's name length, name, rank, dim and payload start at
        # 16, 18, 35, 36 and 40; the trailer is the last 8 bytes
        offsets = {8, 12, 16, 18, 35, 36, 40, len(data) - 8, len(data) - 1}
        offsets |= {int(o) for o in np.linspace(len(trainer.MAGIC), len(data) - 1, 64)}
        for off in sorted(offsets):
            flipped = bytearray(data)
            flipped[off] ^= 0xFF
            saved.write_bytes(bytes(flipped))
            expected = "unsupported format version" if 8 <= off < 12 else "checksum mismatch"
            with pytest.raises(CheckpointError, match=expected):
                load_checkpoint(saved)

    def test_trailing_garbage(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(oracles.sealed(data[:-8] + b"\x00" * 8))
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(saved)

    def test_element_count_overflow_is_truncation(self, tmp_path):
        path = save_overflowing_dims(tmp_path / "huge.ckpt")
        with pytest.raises(CheckpointError, match=r"truncated at offset 44 while reading payload"):
            load_checkpoint(path)

    def test_element_count_overflow_fails_eval_cleanly(self, tmp_path, capsys):
        path = save_overflowing_dims(tmp_path / "huge.ckpt")
        code = cli_main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "d"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,values",
        [
            ("config/input_size", [np.nan]),
            ("config/input_size", [16.5]),
            ("config/input_size", [32.0, 32.0]),
            ("config/channels", [4.0, 0.0]),
            ("config/num_classes", [3.0]),
            ("adam/t", [-1.0]),
            ("meta/epoch", [np.inf]),
            ("meta/seed", [-1.0, 5.0]),
            ("meta/seed", [0.0, 2.0**32]),
        ],
        ids=[
            "input_size-nan", "input_size-fraction", "input_size-two-values", "channels-zero",
            "num_classes-3", "adam_t-negative", "epoch-inf", "seed-negative-half", "seed-half-too-big",
        ],
    )
    def test_bad_integer_metadata_names_entry(self, tmp_path, capsys, entry, values):
        path = save_with_entry(tmp_path / "bad.ckpt", entry, values)
        with pytest.raises(CheckpointError, match=entry):
            load_checkpoint(path)
        code = cli_main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "d"),
                         "--out", str(tmp_path / "o")])
        assert code == 1  # a bad file is a runtime failure, not a usage error
        assert entry in capsys.readouterr().err


    @pytest.mark.parametrize(
        "entry,values",
        [
            ("adam/lr", [np.nan]),
            ("adam/lr", [0.0]),
            ("adam/lr", [np.inf]),
            ("adam/beta1", [1.0]),
            ("adam/beta2", [-0.1]),
            ("adam/eps", [0.0]),
            ("adam/eps", [1e-8, 1e-8]),
            ("meta/best_val_auc", [0.5, 0.6, 0.7]),
            ("meta/best_val_auc", [1.5]),
            ("meta/best_val_auc", [np.nan]),
        ],
        ids=[
            "lr-nan", "lr-zero", "lr-inf", "beta1-one", "beta2-negative", "eps-zero",
            "eps-two-values", "auc-three-values", "auc-above-one", "auc-nan",
        ],
    )
    def test_bad_float_metadata_names_entry(self, tmp_path, entry, values):
        path = save_with_entry(tmp_path / "bad.ckpt", entry, values)
        with pytest.raises(CheckpointError, match=entry):
            load_checkpoint(path)


class TestTrainStep:
    def micro_batch(self, dataset, n=4, size=32):
        samples = dataset.train[:n]
        return [
            make_pair(
                s.image, s.label, "raaug",
                RngStream(0, 1, i, 0), RngStream(0, 1, i, 1), source_id=s.source_id,
            )
            for i, s in enumerate(samples)
        ]

    def test_updates_every_parameter(self, tiny_dataset):
        enc, cls = init_params(TINY_MODEL, seed=0)
        opt = Adam(named_parameters(enc, cls), lr=1e-3)
        before = {k: v.data.copy() for k, v in named_parameters(enc, cls).items()}
        pairs = self.micro_batch(tiny_dataset)
        ce, c = train_step(pairs, enc, cls, opt, TrainConfig())
        assert np.isfinite(ce) and np.isfinite(c) and c >= 0
        for name, p in named_parameters(enc, cls).items():
            assert not np.array_equal(p.data, before[name]), name

    def step_both_ways(self, pairs, cfg, model=TINY_MODEL):
        """Parameters after one train_step and after a hand-rolled full-batch step, from one init."""
        enc_a, cls_a = init_params(model, seed=7)
        opt_a = Adam(named_parameters(enc_a, cls_a))
        train_step(pairs, enc_a, cls_a, opt_a, cfg)

        # hand-rolled step on ce + alpha * penalty; at alpha = 0 there is no
        # consistency term anywhere in the graph
        enc_b, cls_b = init_params(model, seed=7)
        opt_b = Adam(named_parameters(enc_b, cls_b))
        n = len(pairs)
        x1 = np.stack([p.x1 for p in pairs]).transpose(0, 3, 1, 2)
        x2 = np.stack([p.x2 for p in pairs]).transpose(0, 3, 1, 2)
        reps, _ = encoder_forward(Tensor(np.concatenate([x1, x2])), enc_b)
        probs = classifier_forward(reps, cls_b)
        labels = np.array([p.label for p in pairs])
        loss = batch_ce(probs[:n], probs[n:], labels, (cfg.w_real, cfg.w_fake))
        if cfg.alpha > 0:
            loss = loss + batch_consistency(reps[:n], reps[n:], cfg.penalty) * cfg.alpha
        opt_b.zero_grad()
        loss.backward()
        opt_b.step()
        return named_parameters(enc_a, cls_a), named_parameters(enc_b, cls_b)

    def assert_matches_hand_rolled_step(self, pairs, cfg):
        # TINY_MODEL's batch of 4 pairs is one chunk, so the bits agree
        stepped, hand_rolled = self.step_both_ways(pairs, cfg)
        for name, p in hand_rolled.items():
            assert np.array_equal(stepped[name].data, p.data), name

    def test_alpha_zero_matches_ce_only_trainer(self, tiny_dataset):
        pairs = self.micro_batch(tiny_dataset)
        self.assert_matches_hand_rolled_step(pairs, TrainConfig(alpha=0.0, w_real=3.0, w_fake=0.5))

    def test_loss_fields_come_from_config(self, tiny_dataset):
        pairs = self.micro_batch(tiny_dataset)
        cfg = TrainConfig(alpha=2.0, penalty="l1", w_real=3.0, w_fake=0.5)
        self.assert_matches_hand_rolled_step(pairs, cfg)

    def test_identity_views_zero_consistency(self, tiny_dataset):
        samples = tiny_dataset.train[:4]
        pairs = [
            make_pair(s.image, s.label, "none", RngStream(0, 1, i, 0), RngStream(0, 1, i, 1))
            for i, s in enumerate(samples)
        ]
        enc, cls = init_params(TINY_MODEL, seed=0)
        opt = Adam(named_parameters(enc, cls))
        _, c = train_step(pairs, enc, cls, opt, TrainConfig())
        assert c < 1e-12

    def test_full_loss_gradient_matches_finite_differences(self, tiny_dataset):
        # end-to-end wiring check on a small model; the acceptance suite
        # repeats this at its pinned step size.  Finite differences only
        # converge where the loss is locally smooth, so the probe point must
        # keep every relu pre-activation farther from zero than the
        # perturbation can reach (~27h for a stem weight); seed 9 gives a
        # 9e-3 margin, asserted below so drift fails loudly.
        config = ModelConfig(input_size=32, channels=(2, 3))
        enc, cls = init_params(config, seed=9)
        params = named_parameters(enc, cls)
        pairs = self.micro_batch(tiny_dataset, n=2)
        cfg = TrainConfig(alpha=1.0)
        h = 1e-6

        def stacked():
            x1 = np.stack([p.x1 for p in pairs]).transpose(0, 3, 1, 2)
            x2 = np.stack([p.x2 for p in pairs]).transpose(0, 3, 1, 2)
            return Tensor(np.concatenate([x1, x2]))

        assert oracles.relu_kink_margin(stacked(), enc) > 1000 * h

        def loss_fn():
            n = len(pairs)
            reps, _ = encoder_forward(stacked(), enc)
            probs = classifier_forward(reps, cls)
            labels = np.array([p.label for p in pairs])
            ce = batch_ce(probs[:n], probs[n:], labels, (cfg.w_real, cfg.w_fake))
            return ce + batch_consistency(reps[:n], reps[n:], cfg.penalty) * cfg.alpha

        loss = loss_fn()
        loss.backward()
        numeric = finite_diff_grad(lambda: loss_fn().item(), params, h=h)
        for name, p in params.items():
            assert oracles.rel_err(p.grad, numeric[name]) < 1e-6, name

    def test_degenerate_representation_names_sample(self, tiny_dataset):
        enc, cls = init_params(TINY_MODEL, seed=0)
        for p in named_parameters(enc, cls).values():
            p.data[...] = 0.0  # all-zero net -> all-zero representations
        opt = Adam(named_parameters(enc, cls))
        pairs = self.micro_batch(tiny_dataset)
        with pytest.raises(DegenerateVectorError, match=pairs[0].source_id):
            train_step(pairs, enc, cls, opt, TrainConfig())

    @pytest.mark.parametrize("pairs_per_chunk", [None, 3])
    def test_chunked_step_matches_full_batch_step(self, monkeypatch, pairs_per_chunk):
        # 64 px at channels 4-32 is 1 MiB of stage-0 output per image, so the
        # default budget splits 8 pairs into chunks of 4; 3 leaves a remainder
        model = ModelConfig(input_size=64, channels=(4, 32))
        if pairs_per_chunk is not None:
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", chunk_budget(2 * pairs_per_chunk, model))
        samples = gen_dataset(n_real=12, ratio=1, seed=0, size=64).train[:8]
        pairs = [
            make_pair(s.image, s.label, "raaug",
                      RngStream(0, 1, i, 0), RngStream(0, 1, i, 1), source_id=s.source_id)
            for i, s in enumerate(samples)
        ]
        enc, _ = init_params(model, seed=7)
        assert len(trainer._chunks(pairs, enc, 64, views=2)) > 1
        for cfg in (TrainConfig(alpha=2.0, w_real=3.0, w_fake=0.5), TrainConfig(alpha=0.0)):
            stepped, hand_rolled = self.step_both_ways(pairs, cfg, model)
            for name, p in hand_rolled.items():
                assert oracles.rel_err(stepped[name].data, p.data) <= 1e-12, (cfg.alpha, name)

    def test_degenerate_representation_in_later_chunk_names_it(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(trainer, "_CHUNK_BYTES", chunk_budget(2))  # one pair per chunk
        enc, cls = init_params(TINY_MODEL, seed=0)
        for name, p in enc.items():
            if name.endswith("bias"):
                p.data[...] = 0.0  # a black image then has an all-zero representation
        pairs = self.micro_batch(tiny_dataset)
        pairs[2] = replace(pairs[2], x2=np.zeros_like(pairs[2].x2))
        opt = Adam(named_parameters(enc, cls))
        expected = rf"{re.escape(pairs[2].source_id)}' \(view 2\)"
        with pytest.raises(DegenerateVectorError, match=expected):
            train_step(pairs, enc, cls, opt, TrainConfig())

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the memory policy is glibc's mallopt")
    def test_steady_state_step_takes_no_page_faults(self):
        # A fresh process, so nothing has set the memory policy before
        # train_step does.  train-ref shapes: 8 pairs of 64 px images,
        # channels 8-16-32-64.  Without the policy each step faults about
        # 11.9k pages back in.
        script = """
import resource
from twoview import ndgrad
from twoview.augment import RngStream, make_pair
from twoview.model import ModelConfig, init_params, named_parameters
from twoview.synthdata import gen_dataset
from twoview.trainer import TrainConfig, train_step

assert ndgrad._keep_freed_memory.cache_info().currsize == 0
samples = gen_dataset(n_real=10, ratio=1, seed=0, size=64).train[:8]
pairs = [
    make_pair(s.image, s.label, "raaug",
              RngStream(0, 1, i, 0), RngStream(0, 1, i, 1), source_id=s.source_id)
    for i, s in enumerate(samples)
]
config = TrainConfig(model=ModelConfig(input_size=64, channels=(8, 16, 32, 64)))
enc, cls = init_params(config.model, seed=0)
opt = ndgrad.Adam(named_parameters(enc, cls))
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_step(pairs, enc, cls, opt, config)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""
        src = str(Path(trainer.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = ast.literal_eval(proc.stdout.strip())
        assert max(faults[2:]) < 100, faults  # the first two steps are warm-up

    def test_step_live_memory_stays_below_92_mib(self):
        # train-ref shapes: 8 pairs of 64 px images, channels 8-16-32-64.  The
        # arrays alive at once peak at 64.4 MiB; transposed [C, N*HW] copies
        # of the pointwise weight gradient's operands raise that to 97.5 MiB.
        peak = train_ref_step_peak()
        assert peak < 92 << 20, f"{peak / 2**20:.2f} MiB"

    def test_step_live_memory_stays_below_70_mib(self):
        # the stem's [N, 27, HW] patch matrix (13.5 MiB) and the depthwise
        # padded inputs (7.9 MiB), kept for backward, raise the peak to 87.6 MiB
        peak = train_ref_step_peak()
        assert peak < 70 << 20, f"{peak / 2**20:.2f} MiB"

    def test_empty_batch(self):
        enc, cls = init_params(TINY_MODEL, seed=0)
        opt = Adam(named_parameters(enc, cls))
        with pytest.raises(ContractError):
            train_step([], enc, cls, opt, TrainConfig())


class TestTrain:
    def test_codes_and_float64_images_train_and_score_bitwise(self, tiny_dataset, tmp_path):
        # generated samples hold uint8 codes; the twin holds the same values
        # as the float64 arrays `.image` reads, so every step sees the same input
        twin = DatasetSplit(*(
            [replace(s, image=s.image) for s in tiny_dataset.split(name)] for name in SPLIT_NAMES
        ))
        assert tiny_dataset.train[0]._pixels.dtype == np.uint8
        assert twin.train[0]._pixels.dtype == np.float64
        cfg = tiny_config(max_epochs=2)
        for name, data in (("codes", tiny_dataset), ("floats", twin)):
            ckpt, _ = train(cfg, data)
            save_checkpoint(tmp_path / f"{name}.ckpt", ckpt)
        assert (tmp_path / "codes.ckpt").read_bytes() == (tmp_path / "floats.ckpt").read_bytes()
        enc, cls = params_from_checkpoint(ckpt)
        mixed = [s if i % 2 else t for i, (s, t) in enumerate(zip(tiny_dataset.test, twin.test))]
        scores = [score_samples(enc, cls, samples).scores
                  for samples in (tiny_dataset.test, twin.test, mixed)]
        for other in scores[1:]:
            assert np.array_equal(scores[0].view(np.int64), other.view(np.int64))

    def test_deterministic_bitwise(self, tiny_dataset, tmp_path):
        cfg = tiny_config(max_epochs=2)
        ckpt_a, hist_a = train(cfg, tiny_dataset)
        ckpt_b, hist_b = train(cfg, tiny_dataset)
        save_checkpoint(tmp_path / "a.ckpt", ckpt_a)
        save_checkpoint(tmp_path / "b.ckpt", ckpt_b)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        hist_a.to_csv(tmp_path / "a.csv")
        hist_b.to_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_history_shape_and_finiteness(self, tiny_dataset):
        ckpt, hist = train(tiny_config(max_epochs=2), tiny_dataset)
        assert [r.epoch for r in hist.epochs] == [1, 2]
        for r in hist.epochs:
            assert np.isfinite(r.ce_loss)
            assert r.consistency_loss >= 0
            assert 0.0 <= r.val_auc <= 1.0
            assert r.seconds > 0
        assert ckpt.best_val_auc == max(r.val_auc for r in hist.epochs)
        assert ckpt.epoch == min(
            r.epoch for r in hist.epochs if r.val_auc == ckpt.best_val_auc
        )

    def test_alpha_zero_consistency_column_is_zero(self, tiny_dataset):
        _, hist = train(tiny_config(max_epochs=2, alpha=0.0), tiny_dataset)
        assert all(r.consistency_loss == 0.0 for r in hist.epochs)

    def test_scripted_early_stop(self, tiny_dataset, monkeypatch):
        values = iter([0.9, 0.89, 0.89, 0.89, 0.89, 0.89, 0.99, 0.99])
        real_evaluate = evaluate

        def fake_evaluate(enc, cls, samples):
            report = real_evaluate(enc, cls, samples)
            return report.__class__(**{**report.__dict__, "auc": next(values)})

        monkeypatch.setattr(trainer, "evaluate", fake_evaluate)
        ckpt, hist = train(tiny_config(max_epochs=30, patience=5), tiny_dataset)
        assert len(hist.epochs) == 6  # stops after 5 straight non-improvements
        assert ckpt.epoch == 1
        assert ckpt.best_val_auc == 0.9

    def test_monotone_improvement_runs_all_epochs(self, tiny_dataset, monkeypatch):
        values = iter(np.linspace(0.5, 0.9, 30))
        real_evaluate = evaluate

        def fake_evaluate(enc, cls, samples):
            report = real_evaluate(enc, cls, samples)
            return report.__class__(**{**report.__dict__, "auc": float(next(values))})

        monkeypatch.setattr(trainer, "evaluate", fake_evaluate)
        ckpt, hist = train(tiny_config(max_epochs=4, patience=2), tiny_dataset)
        assert len(hist.epochs) == 4
        assert ckpt.epoch == 4

    def test_view_addresses(self, tiny_dataset, monkeypatch):
        # each pair is drawn at RngStream(aug seed, epoch, i, view), where i is
        # the sample's index in the training split, not its place in the batch
        cfg = tiny_config(max_epochs=2, seed=11)
        batches = []

        def capture(pairs, enc, cls, opt, config):
            batches.append(pairs)
            return 0.0, 0.0

        monkeypatch.setattr(trainer, "train_step", capture)
        train(cfg, tiny_dataset)
        samples = tiny_dataset.train
        n = cfg.pairs_per_batch
        n_batches = len(samples) // n
        assert len(batches) == 2 * n_batches
        aug_seed = derive_seed(cfg.seed, "aug")
        for epoch in (1, 2):
            perm = RngStream(derive_seed(cfg.seed, "shuffle"), epoch, 0, 0).generator().permutation(len(samples))
            assert not np.array_equal(perm[: n_batches * n], np.arange(n_batches * n))
            for b in range(n_batches):
                pairs = batches[(epoch - 1) * n_batches + b]
                for pair, i in zip(pairs, perm[b * n : (b + 1) * n], strict=True):
                    s = samples[i]
                    expected = make_pair(
                        s.image, s.label, cfg.aug,
                        RngStream(aug_seed, epoch, int(i), 0), RngStream(aug_seed, epoch, int(i), 1),
                    )
                    assert pair.source_id == s.source_id and pair.label == s.label
                    np.testing.assert_array_equal(pair.x1, expected.x1)
                    np.testing.assert_array_equal(pair.x2, expected.x2)

    def test_on_epoch_callback(self, tiny_dataset):
        seen = []
        train(tiny_config(max_epochs=2), tiny_dataset, on_epoch=seen.append)
        assert [r.epoch for r in seen] == [1, 2]

    def test_rejects_single_class_split(self, tiny_dataset):
        class Fake:
            train = [s for s in tiny_dataset.train if s.label == 1]
            val = tiny_dataset.val

        with pytest.raises(ContractError, match="train"):
            train(tiny_config(), Fake())

        class FakeVal:
            train = tiny_dataset.train
            val = [s for s in tiny_dataset.val if s.label == 0]

        with pytest.raises(ContractError, match="val"):
            train(tiny_config(), FakeVal())

    def test_rejects_oversized_batch(self, tiny_dataset):
        with pytest.raises(ContractError, match="pairs_per_batch"):
            train(tiny_config(pairs_per_batch=1000), tiny_dataset)

    def test_history_csv_format(self, tiny_dataset, tmp_path):
        _, hist = train(tiny_config(max_epochs=2), tiny_dataset)
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,ce_loss,consistency_loss,val_auc,seconds"
        assert len(lines) == 3
        for line in lines[1:]:
            epoch, ce, c, auc_s, secs = line.split(",")
            assert float(ce) == pytest.approx(hist.epochs[int(epoch) - 1].ce_loss)
            assert secs == "0.0"
        assert all(r.seconds > 0 for r in hist.epochs)  # the records keep the measured time


class TestEvaluate:
    def test_deterministic(self, tiny_dataset):
        enc, cls = init_params(TINY_MODEL, seed=0)
        a = evaluate(enc, cls, tiny_dataset.test)
        b = evaluate(enc, cls, tiny_dataset.test)
        assert a == b

    def test_chunking_does_not_matter(self, tiny_dataset, monkeypatch):
        # one chunk (the default here) or several: the scores are those of
        # one forward pass over the whole split, bit for bit
        enc, cls = init_params(TINY_MODEL, seed=0)
        samples = tiny_dataset.train
        whole = whole_split_scores(enc, cls, samples).data
        reports = []
        for budget in (trainer._CHUNK_BYTES, chunk_budget(1), chunk_budget(3)):
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", budget)
            np.testing.assert_array_equal(score_samples(enc, cls, samples).scores, whole)
            reports.append(evaluate(enc, cls, samples))
        assert all(r.auc == reports[0].auc and r.roc == reports[0].roc for r in reports)

    def test_split_of_65_scores_as_one_forward(self, monkeypatch):
        # Batches of 64 images left a 1-row remainder, and the rounding of
        # the classifier matmul depends on its row count (OpenBLAS 0.3.31:
        # one of these 65 scores moved by 1 ulp).  The classifier runs once
        # per split, so the chunk boundaries cannot show in the scores.
        ds = gen_dataset(n_real=24, ratio=2, seed=0, size=32)
        samples = (ds.train + ds.val + ds.test)[:65]
        enc, cls = init_params(TINY_MODEL, seed=9)
        whole = whole_split_scores(enc, cls, samples).data
        for budget in (trainer._CHUNK_BYTES, chunk_budget(64)):
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", budget)
            np.testing.assert_array_equal(score_samples(enc, cls, samples).scores, whole)

    def test_random_model_near_chance(self, monkeypatch):
        # A single untrained init is not near AUC 0.5 here: gen_fake shifts
        # colour in one fixed direction, so any random projection separates
        # the classes and only the sign is a coin flip.  What an untrained
        # model does guarantee is no preference for the fake class: swapping
        # the classifier's rows mirrors the AUC, so the sign-symmetric init
        # is at chance in expectation; and with no signal the AUC is exact.
        ds = gen_dataset(n_real=40, ratio=1, seed=1, size=32)
        samples = ds.train
        reals = [s for s in samples if s.label == 0]
        unmasked = np.zeros(reals[0].image.shape[:2], dtype=bool)
        twins = reals + [replace(s, label=1, mask=unmasked) for s in reals]
        default = trainer._CHUNK_BYTES
        for seed in range(10):
            enc, cls = init_params(TINY_MODEL, seed=seed)
            swapped = {name: Tensor(p.data[::-1].copy()) for name, p in cls.items()}
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", default)
            a = evaluate(enc, cls, samples).auc
            b = evaluate(enc, swapped, samples).auc
            assert abs(a + b - 1.0) <= 1e-12, (seed, a, b)
            for budget in (default, chunk_budget(5)):
                monkeypatch.setattr(trainer, "_CHUNK_BYTES", budget)
                assert evaluate(enc, cls, twins).auc == 0.5, seed

    def test_builds_no_graph(self, tiny_dataset, monkeypatch):
        enc, cls = init_params(TINY_MODEL, seed=0)
        reps, probs = [], []

        def spy_encoder(batch, enc_):
            out = encoder_forward(batch, enc_)
            reps.append(out[0])
            return out

        def spy_classifier(reps_, cls_):
            probs.append(classifier_forward(reps_, cls_))
            return probs[-1]

        monkeypatch.setattr(trainer, "encoder_forward", spy_encoder)
        monkeypatch.setattr(trainer, "classifier_forward", spy_classifier)
        monkeypatch.setattr(trainer, "_CHUNK_BYTES", chunk_budget(3))
        samples = tiny_dataset.train
        scored = score_samples(enc, cls, samples)
        assert len(reps) == -(-len(samples) // 3) and len(probs) == 1
        for out in reps + probs:
            assert out._parents == () and not out.requires_grad
        # same scores as a forward pass over the trainable parameters
        live = whole_split_scores(enc, cls, samples)
        assert live.requires_grad
        np.testing.assert_array_equal(scored.scores, live.data)
        for p in named_parameters(enc, cls).values():
            assert p.requires_grad and p.grad is None

    def test_empty_and_single_class(self, tiny_dataset):
        enc, cls = init_params(TINY_MODEL, seed=0)
        with pytest.raises(ContractError):
            evaluate(enc, cls, [])
        reals = [s for s in tiny_dataset.test if s.label == 0]
        with pytest.raises(MetricUndefinedError):
            evaluate(enc, cls, reals)


class TestCrossViewDistance:
    def test_identity_strategy_is_zero(self, tiny_dataset):
        enc, _ = init_params(TINY_MODEL, seed=0)
        d = cross_view_distance(enc, tiny_dataset.test, "none", seed=0)
        assert d < 1e-12

    def test_bounded_and_deterministic(self, tiny_dataset):
        enc, _ = init_params(TINY_MODEL, seed=0)
        a = cross_view_distance(enc, tiny_dataset.test, "raaug", seed=3)
        b = cross_view_distance(enc, tiny_dataset.test, "raaug", seed=3)
        assert a == b
        assert 0.0 <= a <= 4.0

    def test_chunking_invariance(self, tiny_dataset, monkeypatch):
        # one chunk, one pair per chunk, or 3 with a remainder: all match one
        # pass over the whole split's view pairs
        enc, _ = init_params(TINY_MODEL, seed=0)
        samples = tiny_dataset.train
        pairs = [
            make_pair(s.image, s.label, "raaug", RngStream(3, 0, i, 0), RngStream(3, 0, i, 1))
            for i, s in enumerate(samples)
        ]
        n = len(pairs)
        x1 = np.stack([p.x1 for p in pairs]).transpose(0, 3, 1, 2)
        x2 = np.stack([p.x2 for p in pairs]).transpose(0, 3, 1, 2)
        reps, _ = encoder_forward(Tensor(np.concatenate([x1, x2])), enc)
        whole = batch_consistency(reps[:n], reps[n:], "cos").item() / n
        for budget in (trainer._CHUNK_BYTES, chunk_budget(2), chunk_budget(6)):
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", budget)
            assert abs(cross_view_distance(enc, samples, "raaug", seed=3) - whole) < 1e-12

    def test_empty(self):
        enc, _ = init_params(TINY_MODEL, seed=0)
        with pytest.raises(ContractError):
            cross_view_distance(enc, [], "none", seed=0)

    def test_builds_no_graph(self, tiny_dataset, monkeypatch):
        enc, _ = init_params(TINY_MODEL, seed=0)
        reps = []

        def spy(batch, enc_):
            reps.append(encoder_forward(batch, enc_)[0])
            return reps[-1], None

        monkeypatch.setattr(trainer, "encoder_forward", spy)
        cross_view_distance(enc, tiny_dataset.test, "raaug", seed=3)
        assert reps
        for r in reps:
            assert r._parents == () and not r.requires_grad


class TestSeedDerivation:
    def test_distinct_purposes_distinct_seeds(self):
        tags = ["init", "shuffle", "aug"]
        seeds = {derive_seed(0, t) for t in tags}
        assert len(seeds) == 3

    def test_stable_values(self):
        # pinned so checkpoints stay reproducible across releases
        assert derive_seed(0, "init") == derive_seed(0, "init")
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_contract(self):
        with pytest.raises(ContractError):
            derive_seed(-1, "init")
