"""Tests for the encoder, classifier head, and CAM extraction."""

import numpy as np
import pytest

from twoview.model import (
    ModelConfig,
    cam,
    classifier_forward,
    detach,
    encoder_forward,
    init_params,
    named_parameters,
    param_shapes,
)
from twoview.ndgrad import (
    ContractError,
    ShapeError,
    Tensor,
    avg_pool2,
    conv2d,
    global_avg_pool,
    group_norm_relu,
    relu,
    separable_conv2d,
)

import oracles

TINY = ModelConfig(input_size=8, channels=(4, 6, 8))


def tiny_model(seed=0):
    return init_params(TINY, seed=seed)


def head(weight, bias):
    """A classifier mapping over the given weight [2, d] and bias [2]."""
    return {"classifier/weight": weight, "classifier/bias": bias}


def batch_of(n, config=TINY, seed=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (n, 3, config.input_size, config.input_size)))


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.d == 128 and cfg.n_stages == 3 and cfg.input_size // 2**cfg.n_stages == 8

    def test_divisibility_enforced(self):
        with pytest.raises(ContractError):
            ModelConfig(input_size=60, channels=(16, 32, 64, 128))


class TestEncoder:
    def test_zero_input_zero_bias_gives_zero_reps(self):
        enc, _ = tiny_model()
        for name, p in enc.items():
            if name.endswith("bias"):
                p.data[...] = 0.0
        reps, maps = encoder_forward(Tensor(np.zeros((2, 3, 8, 8))), enc)
        np.testing.assert_array_equal(reps.data, 0.0)
        np.testing.assert_array_equal(maps.data, 0.0)

    def test_identical_rows_identical_reps(self):
        enc, _ = tiny_model()
        row = np.random.default_rng(2).uniform(0, 1, (1, 3, 8, 8))
        reps, _ = encoder_forward(Tensor(np.vstack([row, row])), enc)
        np.testing.assert_array_equal(reps.data[0], reps.data[1])

    def test_reps_equal_gap_of_maps(self):
        enc, _ = tiny_model()
        reps, maps = encoder_forward(batch_of(3), enc)
        np.testing.assert_allclose(reps.data, maps.data.mean(axis=(2, 3)), atol=1e-12)

    def test_shapes(self):
        enc, _ = tiny_model()
        reps, maps = encoder_forward(batch_of(5), enc)
        assert reps.shape == (5, TINY.d)
        side = TINY.input_size // 2**TINY.n_stages
        assert maps.shape == (5, TINY.d, side, side)

    def test_permutation_equivariance(self):
        enc, _ = tiny_model()
        x = batch_of(4, seed=3)
        perm = [2, 0, 3, 1]
        reps_a, _ = encoder_forward(x, enc)
        reps_b, _ = encoder_forward(Tensor(x.data[perm]), enc)
        np.testing.assert_array_equal(reps_a.data[perm], reps_b.data)

    def test_reps_nonnegative(self):
        enc, _ = tiny_model(seed=5)
        reps, _ = encoder_forward(batch_of(6, seed=6), enc)
        assert np.all(reps.data >= 0.0)

    def test_wrong_channels_rejected(self):
        enc, _ = tiny_model()
        with pytest.raises(ShapeError):
            encoder_forward(Tensor(np.zeros((1, 1, 8, 8))), enc)

    @pytest.mark.parametrize("channels", [(8, 16, 32, 64), (16, 32, 64, 128)], ids=["ref", "wide"])
    def test_pool_first_matches_pool_last(self, channels):
        # each stage pools before its pointwise conv; composing it as the
        # separable conv, then the pool, is the same function up to rounding
        config = ModelConfig(input_size=64, channels=channels)
        enc, _ = init_params(config, seed=3)
        rng = np.random.default_rng(4)
        enc["input/mean"], enc["input/std"] = Tensor(rng.uniform(0.4, 0.6, 3)), Tensor(rng.uniform(0.01, 0.1, 3))
        x = rng.uniform(0, 1, (4, 3, 64, 64))
        reps, _ = encoder_forward(Tensor(x), enc)
        mean, std = enc["input/mean"].data[:, None, None], enc["input/std"].data[:, None, None]
        h = relu(conv2d(Tensor((x - mean) / std), enc["encoder/stem/weight"], enc["encoder/stem/bias"], pad=1))
        for i, c in enumerate(channels[1:]):
            stage = f"encoder/stage{i}/"
            pooled = avg_pool2(separable_conv2d(h, enc[stage + "depthwise"], enc[stage + "pointwise"],
                                                enc[stage + "bias"]))
            h = group_norm_relu(pooled, enc[stage + "gn_gamma"], enc[stage + "gn_beta"], min(4, c))
        assert oracles.rel_err(reps.data, global_avg_pool(h).data) <= 2e-15

    def test_group_count_divides_the_stage_width(self):
        # min(4, C) groups where that divides C, else C's largest divisor below 4
        for channels in [(4, 6, 5, 3), (2, 1, 2), (4, 8, 12)]:
            config = ModelConfig(input_size=8 * 2 ** (len(channels) - 1), channels=channels)
            enc, _ = init_params(config, seed=0)
            x = Tensor(np.random.default_rng(5).uniform(0, 1, (2, 3, config.input_size, config.input_size)))
            reps, _ = encoder_forward(x, enc)
            assert reps.shape == (2, channels[-1]) and np.all(np.isfinite(reps.data))

    def test_init_deterministic_per_seed(self):
        a = np.concatenate([p.data.ravel() for p in named_parameters(*tiny_model(3)).values()])
        b = np.concatenate([p.data.ravel() for p in named_parameters(*tiny_model(3)).values()])
        c = np.concatenate([p.data.ravel() for p in named_parameters(*tiny_model(4)).values()])
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_init_draws_match_written_out_fan_ins(self):
        # uniform in +-sqrt(1/fan_in), one draw per parameter in table order;
        # GroupNorm's gamma and beta are 1 and 0 and take no draw
        fan_in = {
            "encoder/stem/weight": 27, "encoder/stem/bias": 27,
            "encoder/stage0/depthwise": 9, "encoder/stage0/pointwise": 4, "encoder/stage0/bias": 4,
            "encoder/stage0/gn_gamma": 1.0, "encoder/stage0/gn_beta": 0.0,
            "encoder/stage1/depthwise": 9, "encoder/stage1/pointwise": 6, "encoder/stage1/bias": 6,
            "encoder/stage1/gn_gamma": 1.0, "encoder/stage1/gn_beta": 0.0,
            "classifier/weight": 8, "classifier/bias": 8,
        }
        gen = np.random.default_rng(3)
        enc, cls = tiny_model(3)
        params = named_parameters(enc, cls)
        assert list(params) == list(fan_in)
        for name, p in params.items():
            if "/gn_" in name:
                assert np.array_equal(p.data, np.full(p.shape, fan_in[name])), name
                continue
            bound = np.sqrt(1.0 / fan_in[name])
            assert np.array_equal(p.data, gen.uniform(-bound, bound, p.shape)), name
        # the input statistics start as the identity and are not parameters
        assert np.array_equal(enc["input/mean"].data, np.zeros(3)) and not enc["input/mean"].requires_grad
        assert np.array_equal(enc["input/std"].data, np.ones(3)) and not enc["input/std"].requires_grad

    def test_no_dead_parameters(self):
        # Every parameter should touch the loss on a generic batch.
        enc, cls = tiny_model(seed=7)
        probs = classifier_forward(encoder_forward(batch_of(4, seed=8), enc)[0], cls)
        (probs * probs).sum().backward()
        for name, p in named_parameters(enc, cls).items():
            assert p.grad is not None and np.any(p.grad != 0.0), name

    @pytest.mark.parametrize(
        "channels",
        [(4, 6), (3, 5, 7), (8, 16, 32, 64), (16, 32, 64, 128)],
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_named_parameters_follow_param_shapes(self, channels):
        config = ModelConfig(input_size=64, channels=channels)
        enc, cls = init_params(config, seed=1)
        params = named_parameters(enc, cls)
        assert [(name, p.shape) for name, p in params.items()] == list(param_shapes(config).items())
        assert list(enc)[:2] == ["input/mean", "input/std"]
        assert all(name.startswith("encoder/") for name in list(enc)[2:])
        assert all(name.startswith("classifier/") for name in cls)

    def test_detach_shares_arrays_as_constants(self):
        for params in tiny_model():
            frozen = detach(params)
            assert list(frozen) == list(params)
            for name, t in frozen.items():
                assert t.data is params[name].data, name
                assert not t.requires_grad
                assert params[name].requires_grad != name.startswith("input/"), name


class TestClassifier:
    def test_zero_params_give_half(self):
        cls = head(Tensor(np.zeros((2, 4)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True))
        probs = classifier_forward(Tensor(np.random.default_rng(0).uniform(0, 1, (5, 4))), cls)
        np.testing.assert_allclose(probs.data, 0.5, atol=1e-15)

    def test_saturating_bias(self):
        cls = head(Tensor(np.zeros((2, 4))), Tensor(np.array([0.0, 1000.0])))
        probs = classifier_forward(Tensor(np.ones((2, 4))), cls)
        np.testing.assert_allclose(probs.data, 1.0, atol=1e-12)

    def test_hand_logits(self):
        # Logits [ln 1, ln 3] put 0.75 on the fake class.
        cls = head(Tensor(np.eye(2)), Tensor(np.zeros(2)))
        reps = Tensor(np.array([[np.log(1.0), np.log(3.0)]]))
        probs = classifier_forward(reps, cls)
        np.testing.assert_allclose(probs.data, [0.75], atol=1e-12)

    def test_probs_open_interval_and_pair_sums(self):
        enc, cls = tiny_model(seed=9)
        probs = classifier_forward(encoder_forward(batch_of(8, seed=10), enc)[0], cls)
        assert np.all((probs.data > 0) & (probs.data < 1))

    def test_width_mismatch(self):
        cls = head(Tensor(np.zeros((2, 6))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            classifier_forward(Tensor(np.zeros((1, 4))), cls)


class TestCam:
    def test_matches_loop_oracle_before_normalization(self):
        rng = np.random.default_rng(11)
        maps = rng.uniform(-1, 1, (6, 4, 4))
        cls = head(Tensor(rng.uniform(-1, 1, (2, 6))), Tensor(rng.uniform(-1, 1, 2)))
        heat = cam(maps, cls)
        raw = oracles.cam_ref(maps, cls["classifier/weight"].data[1])
        expected = (raw - raw.min()) / (raw.max() - raw.min())
        assert oracles.rel_err(heat, expected) < 1e-12

    def test_single_channel_weight_one(self):
        maps = np.random.default_rng(12).uniform(0, 1, (1, 5, 5))
        cls = head(Tensor(np.array([[0.0], [1.0]])), Tensor(np.zeros(2)))
        heat = cam(maps, cls)
        expected = (maps[0] - maps[0].min()) / (maps[0].max() - maps[0].min())
        np.testing.assert_allclose(heat, expected, atol=1e-12)

    def test_zero_maps_zero_heat(self):
        cls = head(Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))
        heat = cam(np.zeros((3, 4, 4)), cls)
        np.testing.assert_array_equal(heat, 0.0)

    def test_bias_invariance(self):
        rng = np.random.default_rng(13)
        maps = rng.uniform(0, 1, (4, 3, 3))
        w = Tensor(rng.uniform(-1, 1, (2, 4)))
        a = cam(maps, head(w, Tensor(np.zeros(2))))
        b = cam(maps, head(w, Tensor(np.array([5.0, -3.0]))))
        np.testing.assert_array_equal(a, b)

    def test_range_within_unit_interval(self):
        rng = np.random.default_rng(14)
        maps = rng.uniform(0, 1, (4, 6, 6))
        cls = head(Tensor(rng.uniform(-1, 1, (2, 4))), Tensor(np.zeros(2)))
        heat = cam(maps, cls)
        assert heat.min() >= 0.0 and heat.max() <= 1.0
