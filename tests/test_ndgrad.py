"""Unit tests for the autodiff core: forward oracles, gradient checks, Adam."""

import numpy as np
import pytest

from twoview import ndgrad
from twoview.ndgrad import (
    Adam,
    ContractError,
    DegenerateVectorError,
    ShapeError,
    Tensor,
    avg_pool2,
    conv2d,
    dense,
    depthwise_conv2d,
    finite_diff_grad,
    global_avg_pool,
    l2_normalize,
    pointwise_conv2d,
    relu,
    separable_conv2d,
    softmax,
)

import oracles


def t(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestForwardOracles:
    def test_conv_all_ones(self):
        x = t(np.ones((1, 1, 3, 3)))
        k = t(np.ones((1, 1, 3, 3)))
        b = t(np.zeros(1))
        out = conv2d(x, k, b)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = t(rng.uniform(-1, 1, (2, 1, 5, 7)))
        k = t(np.ones((1, 1, 1, 1)))
        b = t(np.zeros(1))
        out = conv2d(x, k, b)
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize(
        "shape,kshape,stride,pad",
        [
            ((2, 3, 8, 8), (4, 3, 3, 3), 1, 0),
            ((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
            ((1, 2, 9, 7), (3, 2, 3, 3), 2, 1),
            ((3, 1, 6, 6), (2, 1, 5, 5), 1, 2),
            ((1, 4, 5, 5), (4, 4, 1, 1), 1, 0),
        ],
    )
    def test_conv_matches_loop_oracle(self, shape, kshape, stride, pad):
        rng = np.random.default_rng(hash((shape, kshape, stride, pad)) % 2**32)
        x = rng.uniform(-1, 1, shape)
        k = rng.uniform(-1, 1, kshape)
        b = rng.uniform(-1, 1, kshape[0])
        out = conv2d(t(x), t(k), t(b), stride=stride, pad=pad)
        ref = oracles.conv2d_ref(x, k, b, stride=stride, pad=pad)
        assert oracles.rel_err(out.data, ref) < 1e-12

    def test_depthwise_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 3, 6, 6))
        k = rng.uniform(-1, 1, (3, 3, 3))
        out = depthwise_conv2d(t(x), t(k), pad=1)
        ref = oracles.depthwise_ref(x, k, pad=1)
        assert oracles.rel_err(out.data, ref) < 1e-12

    # Shapes a flat-stride layout can get wrong: H != W, every pad, non-square
    # and larger kernels, one channel, one sample, and the real stage shapes.
    @pytest.mark.parametrize(
        "shape,kshape,pad",
        [
            ((2, 3, 5, 8), (3, 3, 3), 1),
            ((2, 2, 7, 5), (2, 3, 3), 0),
            ((2, 2, 5, 6), (2, 3, 3), 2),  # output larger than the input
            ((2, 2, 5, 6), (2, 1, 3), 1),
            ((2, 2, 6, 5), (2, 3, 1), 1),
            ((2, 3, 7, 6), (3, 5, 5), 2),
            ((2, 3, 7, 8), (3, 5, 5), 0),
            ((3, 1, 6, 5), (1, 3, 3), 1),  # C = 1
            ((1, 4, 5, 7), (4, 3, 3), 1),  # N = 1
            # the three stages of the reference training config: 8 pairs, both views
            ((16, 8, 64, 64), (8, 3, 3), 1),
            ((16, 16, 32, 32), (16, 3, 3), 1),
            ((16, 32, 16, 16), (32, 3, 3), 1),
        ],
    )
    def test_depthwise_edge_shapes_match_loop_oracle(self, shape, kshape, pad):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, shape)
        k = rng.uniform(-1, 1, kshape)
        out = depthwise_conv2d(t(x), t(k), pad=pad)
        ref = oracles.depthwise_ref(x, k, pad=pad)
        assert out.shape == ref.shape
        assert oracles.rel_err(out.data, ref) < 1e-12

    @pytest.mark.parametrize(
        "shape,out_channels",
        [((2, 3, 4, 4), 5), ((2, 3, 3, 5), 4), ((2, 1, 4, 3), 3), ((1, 4, 2, 2), 1)],
    )
    def test_pointwise_matches_loop_oracle(self, shape, out_channels):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, shape)
        w = rng.uniform(-1, 1, (out_channels, shape[1]))
        b = rng.uniform(-1, 1, out_channels)
        ref = oracles.conv2d_ref(x, w[:, :, None, None], b)
        assert oracles.rel_err(pointwise_conv2d(t(x), t(w), t(b)).data, ref) < 1e-12

    def test_dense_hand_case(self):
        out = dense(t([[1.0, 2.0]]), t([[1.0, 1.0], [1.0, -1.0]]), t([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[3.0, -1.0]])

    def test_dense_identity(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (3, 4))
        out = dense(t(x), t(np.eye(4)), t(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_dense_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (4, 6))
        w = rng.uniform(-1, 1, (3, 6))
        b = rng.uniform(-1, 1, 3)
        out = dense(t(x), t(w), t(b))
        assert oracles.rel_err(out.data, oracles.dense_ref(x, w, b)) < 1e-12

    def test_separable_identity(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (2, 3, 4, 4))
        dw = np.zeros((3, 3, 3))
        dw[:, 1, 1] = 1.0
        out = separable_conv2d(t(x), t(dw), t(np.eye(3)), t(np.zeros(3)))
        assert oracles.rel_err(out.data, x) < 1e-12

    def test_separable_zero_input_gives_bias(self):
        x = t(np.zeros((1, 2, 4, 4)))
        dw = t(np.random.default_rng(7).uniform(-1, 1, (2, 3, 3)))
        pw = t(np.random.default_rng(8).uniform(-1, 1, (5, 2)))
        b = t(np.arange(5.0))
        out = separable_conv2d(x, dw, pw, b)
        expected = np.broadcast_to(np.arange(5.0)[None, :, None, None], (1, 5, 4, 4))
        np.testing.assert_array_equal(out.data, expected)

    def test_separable_matches_composition_oracle(self):
        # A separable conv equals a full conv whose kernel is the outer
        # product K[o,c,u,v] = pw[o,c] * dw[c,u,v].
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (2, 3, 6, 6))
        dw = rng.uniform(-1, 1, (3, 3, 3))
        pw = rng.uniform(-1, 1, (4, 3))
        b = rng.uniform(-1, 1, 4)
        out = separable_conv2d(t(x), t(dw), t(pw), t(b))
        full_kernel = pw[:, :, None, None] * dw[None, :, :, :]
        ref = oracles.conv2d_ref(x, full_kernel, b, stride=1, pad=1)
        assert oracles.rel_err(out.data, ref) < 1e-12

    def test_avg_pool_hand_and_oracle(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert avg_pool2(t(x)).data[0, 0, 0, 0] == 2.5
        rng = np.random.default_rng(10)
        xr = rng.uniform(-1, 1, (2, 3, 6, 4))
        assert oracles.rel_err(avg_pool2(t(xr)).data, oracles.avg_pool2_ref(xr)) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 1, 4, 8), (1, 2, 6, 2)])
    def test_avg_pool_edge_shapes_and_layouts(self, shape):
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, shape)
        assert oracles.rel_err(avg_pool2(t(x)).data, oracles.avg_pool2_ref(x)) < 1e-12
        # the same values with each plane stored column by column
        x_cols = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        assert not x_cols.flags.c_contiguous
        assert oracles.rel_err(avg_pool2(Tensor(x_cols)).data, oracles.avg_pool2_ref(x)) < 1e-12

    def test_avg_pool_at_stage_shape(self):
        # stage 0's pool input at 8-64 channels: 16 images, 16 channels, 64 px
        x = np.random.default_rng(16).uniform(-1, 1, (16, 16, 64, 64))
        assert oracles.rel_err(avg_pool2(t(x)).data, oracles.avg_pool2_ref(x)) < 1e-12

    def test_avg_pool_constant(self):
        x = np.full((1, 2, 4, 4), 0.7)
        np.testing.assert_allclose(avg_pool2(t(x)).data, 0.7)

    def test_global_avg_pool(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 2] = 1.0
        assert global_avg_pool(t(x)).data[0, 0] == 1.0 / 16.0
        rng = np.random.default_rng(11)
        xr = rng.uniform(-1, 1, (3, 2, 5, 5))
        assert oracles.rel_err(global_avg_pool(t(xr)).data, oracles.global_avg_pool_ref(xr)) < 1e-12

    def test_relu_values(self):
        out = relu(t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(t([-3.0, -0.5])).data, [0.0, 0.0])

    def test_everything_is_float64(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        assert x.data.dtype == np.float64
        out = softmax(x)
        assert out.data.dtype == np.float64


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(t([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_hand_case(self):
        out = softmax(t([[np.log(1.0), np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_stability(self):
        out = softmax(t([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0, 0], 1.0)

    def test_rows_sum_to_one_and_open_interval(self):
        # Logit gaps are kept below the ~36 where float64 rounds softmax
        # outputs all the way to 0 or 1; saturation is covered separately.
        rng = np.random.default_rng(12)
        x = rng.uniform(-10, 10, (50, 7))
        y = softmax(t(x)).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y > 0.0) and np.all(y < 1.0)


class TestL2Normalize:
    def test_hand_case(self):
        np.testing.assert_allclose(l2_normalize(t([[3.0, 4.0]])).data, [[0.6, 0.8]])

    def test_idempotent_and_unit_norm(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (20, 8))
        y = l2_normalize(t(x)).data
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)
        y2 = l2_normalize(t(y)).data
        assert oracles.rel_err(y, y2) < 1e-12

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVectorError):
            l2_normalize(t([[0.0, 0.0]]))
        with pytest.raises(DegenerateVectorError):
            l2_normalize(t(np.vstack([np.ones(4), np.zeros(4)])))


def fd_check(build_loss, tensors, tol=1e-6, h=1e-5):
    """Assert analytic gradients of build_loss() match central differences."""
    for p in tensors:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = [p.grad.copy() for p in tensors]
    numeric = finite_diff_grad(lambda: build_loss().item(), tensors, h=h)
    for a, n in zip(analytic, numeric):
        assert oracles.rel_err(a, n) < tol


class TestGradients:
    """Every differentiable op against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def u(self, *shape):
        return t(self.rng.uniform(-1.0, 1.0, shape))

    def weighted_sum(self, out):
        # Fixed random projection turns any output into a scalar loss.
        w = Tensor(np.random.default_rng(7).uniform(-1, 1, out.shape))
        return (out * w).sum()

    def test_add_mul_neg_pow(self):
        a, b = self.u(3, 4), self.u(3, 4)
        fd_check(lambda: self.weighted_sum(a + b * 2.0 - (-a) * b + a**2), [a, b])

    def test_scalar_broadcast(self):
        a = self.u(2, 3)
        fd_check(lambda: self.weighted_sum(1.0 - a * 0.5 + 2.0), [a])

    def test_abs(self):
        a = t(self.rng.choice([-1.0, 1.0], (3, 4)) * self.rng.uniform(0.2, 1.0, (3, 4)))
        fd_check(lambda: self.weighted_sum(a.abs()), [a])

    def test_log(self):
        a = t(self.rng.uniform(0.5, 2.0, (3, 4)))
        fd_check(lambda: self.weighted_sum(a.log()), [a])

    def test_clamp(self):
        # Keep samples away from the clamp edges so finite differences are clean.
        vals = self.rng.uniform(-1, 1, (4, 4))
        vals[np.abs(vals - 0.5) < 0.05] = 0.0
        vals[np.abs(vals + 0.5) < 0.05] = 0.0
        a = t(vals)
        fd_check(lambda: self.weighted_sum(a.clamp(-0.5, 0.5)), [a])

    def test_sum_mean_axes(self):
        a = self.u(3, 4, 2)
        fd_check(lambda: self.weighted_sum(a.sum(axis=1)), [a])
        fd_check(lambda: self.weighted_sum(a.mean(axis=(0, 2))), [a])
        fd_check(lambda: a.mean() * 3.0, [a])

    def test_getitem(self):
        a = self.u(6, 4)
        fd_check(lambda: self.weighted_sum(a[2:5]) + self.weighted_sum(a[:3]), [a])
        fd_check(lambda: self.weighted_sum(a[:, 1]), [a])
        # repeated indices: each occurrence adds its share of the gradient
        fd_check(lambda: self.weighted_sum(a[np.array([0, 0, 1, 4, 0])]), [a])

    def test_relu(self):
        vals = self.rng.uniform(-1, 1, (4, 5))
        vals[np.abs(vals) < 0.05] = 0.5
        a = t(vals)
        fd_check(lambda: self.weighted_sum(relu(a)), [a])

    def test_dense(self):
        x, w, b = self.u(3, 5), self.u(4, 5), self.u(4)
        fd_check(lambda: self.weighted_sum(dense(x, w, b)), [x, w, b])

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d(self, stride, pad):
        x, k, b = self.u(2, 3, 6, 6), self.u(4, 3, 3, 3), self.u(4)
        fd_check(
            lambda: self.weighted_sum(conv2d(x, k, b, stride=stride, pad=pad)), [x, k, b]
        )

    def test_depthwise(self):
        x, k = self.u(2, 3, 5, 5), self.u(3, 3, 3)
        fd_check(lambda: self.weighted_sum(depthwise_conv2d(x, k, pad=1)), [x, k])

    @pytest.mark.parametrize(
        "shape,kshape,pad",
        [
            ((2, 2, 4, 6), (2, 3, 3), 1),
            ((1, 2, 5, 4), (2, 3, 3), 0),
            ((2, 1, 3, 4), (1, 3, 3), 2),
            ((1, 2, 3, 5), (2, 1, 3), 1),
            ((2, 1, 5, 3), (1, 3, 1), 0),
            ((1, 2, 6, 5), (2, 5, 5), 2),
        ],
    )
    def test_depthwise_edge_shapes(self, shape, kshape, pad):
        x, k = self.u(*shape), self.u(*kshape)
        fd_check(lambda: self.weighted_sum(depthwise_conv2d(x, k, pad=pad)), [x, k])

    def test_pointwise(self):
        x, w, b = self.u(2, 3, 4, 4), self.u(5, 3), self.u(5)
        fd_check(lambda: self.weighted_sum(pointwise_conv2d(x, w, b)), [x, w, b])

    @pytest.mark.parametrize(
        "shape,out_channels", [((2, 3, 3, 5), 4), ((2, 1, 4, 3), 3), ((1, 4, 2, 2), 1)]
    )
    def test_pointwise_edge_shapes(self, shape, out_channels):
        x, w, b = self.u(*shape), self.u(out_channels, shape[1]), self.u(out_channels)
        fd_check(lambda: self.weighted_sum(pointwise_conv2d(x, w, b)), [x, w, b])

    def test_separable(self):
        x, dw, pw, b = self.u(2, 3, 4, 4), self.u(3, 3, 3), self.u(4, 3), self.u(4)
        fd_check(lambda: self.weighted_sum(separable_conv2d(x, dw, pw, b)), [x, dw, pw, b])

    def test_avg_pool2(self):
        x = self.u(2, 3, 4, 6)
        fd_check(lambda: self.weighted_sum(avg_pool2(x)), [x])

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 1, 4, 2), (1, 2, 6, 4)])
    def test_avg_pool2_edge_shapes(self, shape):
        x = self.u(*shape)
        fd_check(lambda: self.weighted_sum(avg_pool2(x)), [x])

    def test_global_avg_pool(self):
        x = self.u(2, 3, 4, 4)
        fd_check(lambda: self.weighted_sum(global_avg_pool(x)), [x])

    def test_softmax(self):
        x = self.u(4, 5)
        fd_check(lambda: self.weighted_sum(softmax(x)), [x])

    def test_l2_normalize(self):
        x = t(self.rng.uniform(0.3, 1.0, (4, 6)))
        fd_check(lambda: self.weighted_sum(l2_normalize(x)), [x])
        v = t(self.rng.uniform(0.3, 1.0, (1, 5)))
        fd_check(lambda: self.weighted_sum(l2_normalize(v)), [v])


def grads_of(out, g, tensors):
    """Backpropagate the output gradient g through out; return each tensor's .grad."""
    for p in tensors:
        p.zero_grad()
    (out * Tensor(g)).sum().backward()  # out receives exactly g
    return [p.grad for p in tensors]


class TestExactGradients:
    """Gradient identities that hold to rounding, far tighter than fd_check."""

    # y = depthwise_conv2d(x, k) is linear in x and in k, so for any g the
    # adjoint identities <y, g> = <x, dx> = <k, dk> hold exactly.  dk is also
    # checked against an einsum: backward reads one tap matrix in flipped tap
    # order for it, which relies on offsets[-1 - t] = reach - offsets[t] and
    # so on the kernel's shape and the pad.
    @pytest.mark.parametrize(
        "shape,kshape,pad",
        [
            ((2, 3, 5, 8), (3, 3, 3), 0),
            ((2, 3, 5, 8), (3, 3, 3), 1),
            ((2, 2, 5, 6), (2, 3, 3), 2),  # output larger than the input
            ((2, 2, 5, 6), (2, 1, 3), 1),
            ((2, 2, 6, 5), (2, 3, 1), 1),
            ((2, 3, 7, 6), (3, 5, 5), 2),
            ((2, 3, 7, 8), (3, 5, 5), 0),
            ((3, 1, 6, 5), (1, 3, 3), 1),  # C = 1
            ((1, 4, 5, 7), (4, 3, 3), 1),  # N = 1
            # the three stages of one encoder pass at 8-64 and at 16-128 channels
            ((16, 8, 64, 64), (8, 3, 3), 1),
            ((16, 16, 32, 32), (16, 3, 3), 1),
            ((16, 32, 16, 16), (32, 3, 3), 1),
            ((8, 16, 64, 64), (16, 3, 3), 1),
            ((8, 32, 32, 32), (32, 3, 3), 1),
            ((8, 64, 16, 16), (64, 3, 3), 1),
        ],
    )
    def test_depthwise_adjoint_identities(self, shape, kshape, pad):
        rng = np.random.default_rng(5)
        x, k = t(rng.uniform(-1, 1, shape)), t(rng.uniform(-1, 1, kshape))
        y = depthwise_conv2d(x, k, pad=pad)
        g = rng.uniform(-1, 1, y.shape)
        dx, dk = grads_of(y, g, [x, k])
        y_g = np.vdot(y.data, g)
        assert abs(np.vdot(x.data, dx) - y_g) / abs(y_g) < 1e-12
        assert abs(np.vdot(k.data, dk) - y_g) / abs(y_g) < 1e-12
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, kshape[1:], axis=(2, 3))
        assert oracles.rel_err(dk, np.einsum("ncyx,ncyxij->cij", g, windows)) <= 1e-12

    # conv2d keeps no patch matrix for backward: its kernel gradient rebuilds
    # one image's patches at a time and must give the batched product's bits
    @pytest.mark.parametrize(
        "shape,stride,pad",
        [
            ((16, 3, 64, 64), 1, 1),  # the stem at train-ref
            ((3, 3, 9, 8), 1, 0),
            ((3, 3, 9, 8), 2, 0),
            ((3, 3, 9, 8), 2, 1),
        ],
    )
    def test_conv2d_matches_batched_patch_formula_bitwise(self, shape, stride, pad):
        n, c, h, w = shape
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-1, 1, shape))
        k, b = t(rng.uniform(-1, 1, (8, c, 3, 3))), t(rng.uniform(-1, 1, 8))
        y = conv2d(x, k, b, stride=stride, pad=pad)
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
        ho, wo = windows.shape[2:4]
        cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * 9, ho * wo)
        out = k.data.reshape(8, c * 9) @ cols
        out += b.data[:, None]
        np.testing.assert_array_equal(y.data.view(np.int64), out.reshape(y.shape).view(np.int64))
        g = rng.uniform(-1, 1, y.shape)
        dk, db = grads_of(y, g, [k, b])
        # + 0.0 as in _accumulate, which stores a leaf's first gradient as g + 0.0
        dk_ref = np.matmul(g.reshape(n, 8, ho * wo), cols.transpose(0, 2, 1)).sum(axis=0) + 0.0
        np.testing.assert_array_equal(dk.view(np.int64), dk_ref.reshape(k.shape).view(np.int64))
        np.testing.assert_array_equal(db.view(np.int64), (g.sum(axis=(0, 2, 3)) + 0.0).view(np.int64))

    def test_relu_matches_mask_product(self):
        rng = np.random.default_rng(6)
        xv = rng.standard_normal((2, 3, 4, 5))
        xv.flat[:4] = [0.0, -0.0, 5e-324, -5e-324]
        xv.flat[4] = np.nan
        x = t(xv)
        out = relu(x)
        # equal up to the sign of zero: -0.0 * True is -0.0, max(-0.0, 0.0) either
        np.testing.assert_array_equal(out.data, xv * (xv > 0))
        g = rng.standard_normal(xv.shape)
        (dx,) = grads_of(out, g, [x])
        # + 0.0 as in _accumulate, which stores a leaf's first gradient as g + 0.0
        np.testing.assert_array_equal(dx.view(np.int64), (g * (xv > 0) + 0.0).view(np.int64))

    # the last shape is stage 0's pool input at 8-64 channels
    @pytest.mark.parametrize("shape", [(2, 3, 6, 4), (16, 16, 64, 64)], ids=["small", "stage0"])
    def test_avg_pool_gradient_matches_broadcast_formula(self, shape):
        n, c, h, w = shape
        rng = np.random.default_rng(8)
        x = t(rng.standard_normal(shape))
        g = rng.standard_normal((n, c, h // 2, w // 2))
        (dx,) = grads_of(avg_pool2(x), g, [x])
        expected = np.empty((n, c, h // 2, 2, w // 2, 2))
        np.multiply(g[:, :, :, None, :, None], 0.25, out=expected)
        np.testing.assert_array_equal(dx.view(np.int64), (expected.reshape(shape) + 0.0).view(np.int64))

    def test_pointwise_weight_gradient_at_stage_shape(self):
        # stage 0 at 8-64 channels: each entry sums 16 * 64 * 64 = 65536 terms
        rng = np.random.default_rng(9)
        x = t(rng.uniform(-1, 1, (16, 8, 64, 64)))
        w, b = t(rng.uniform(-1, 1, (16, 8))), t(rng.uniform(-1, 1, 16))
        g = rng.uniform(-1, 1, (16, 16, 64, 64))
        (dw,) = grads_of(pointwise_conv2d(x, w, b), g, [w])
        assert oracles.rel_err(dw, np.einsum("nohw,nchw->oc", g, x.data)) <= 1e-12


class TestBackwardSemantics:
    def test_sum_gives_ones(self):
        x = t(np.random.default_rng(1).uniform(-1, 1, (3, 4)))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_half_dot_gives_x(self):
        x = t(np.random.default_rng(2).uniform(-1, 1, 6))
        ((x * x).sum() * 0.5).backward()
        np.testing.assert_allclose(x.grad, x.data, atol=1e-15)

    def test_shared_subexpression_accumulates(self):
        x = t([2.0])
        y = x * x + x  # dy/dx = 2x + 1
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_reused_node_two_consumers(self):
        x = t([3.0])
        s = x * 2.0
        y = (s * s).sum() + s.sum()  # d/dx = 8x + 2
        y.backward()
        np.testing.assert_allclose(x.grad, [26.0])

    def test_non_scalar_loss_rejected(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_leaf_grad_accumulates_across_backwards(self):
        x = t([1.0, 2.0])
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        x.zero_grad()
        assert x.grad is None

    @pytest.mark.parametrize("add_first", [True, False])
    def test_shared_gradient_does_not_alias_between_parents(self, add_first):
        # add hands the same g to both parents; a later accumulation into one
        # parent must not show in the other, whichever closure runs first
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        terms = [(a + b).sum(), (b * 2.0).sum()]
        if not add_first:
            terms.reverse()
        (terms[0] + terms[1]).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_add_closure_gives_each_parent_its_own_buffer(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        g = np.array([5.0, 6.0])
        (a + b)._backward(g)
        for p in (a, b):
            np.testing.assert_array_equal(p.grad, g)
            assert not np.shares_memory(p.grad, g)
        assert not np.shares_memory(a.grad, b.grad)

    def test_relu_hands_its_gradient_to_an_interior_input(self):
        # a closure owns the g it is passed: relu masks g in place and its
        # interior input keeps g itself as .grad, with no copy
        rng = np.random.default_rng(12)
        x = t(rng.standard_normal((2, 3, 4, 4)))
        h = x * 1.0
        out = relu(h)
        g = rng.standard_normal(out.shape)
        expected = g * (h.data > 0)
        out._backward(g)
        assert np.shares_memory(h.grad, g)
        np.testing.assert_array_equal(h.grad, expected)

    def test_add_fans_one_gradient_out_to_two_in_place_consumers(self):
        # add hands one g to both parents; each relu masks the g it receives
        # in place, so a shared g would have one mask zero the other's gradient
        rng = np.random.default_rng(13)
        x = t(rng.uniform(-1.0, 1.0, (3, 4)))
        w = Tensor(rng.uniform(-1.0, 1.0, (3, 4)))
        fd_check(lambda: ((relu(x * 1.0) + relu(x * -1.0)) * w).sum(), [x])

    @pytest.mark.parametrize("op", ["depthwise", "conv2d"])
    def test_padded_conv_gives_an_interior_input_a_contiguous_gradient(self, op):
        # the padded layouts' dx slices are strided; a reduction over a
        # strided view can round differently from one over the copy that
        # _accumulate used to store, so what an interior input keeps is contiguous
        rng = np.random.default_rng(14)
        x = t(rng.standard_normal((2, 3, 5, 6)))
        h = x * 1.0
        if op == "depthwise":
            out = depthwise_conv2d(h, t(rng.standard_normal((3, 3, 3))), pad=1)
        else:
            out = conv2d(h, t(rng.standard_normal((4, 3, 3, 3))), t(np.zeros(4)), pad=1)
        out._backward(rng.standard_normal(out.shape))
        assert h.grad.flags.c_contiguous

    def test_same_tensor_as_both_parents(self):
        x = t([1.5, -2.0])
        w = Tensor(np.array([3.0, 5.0]))
        ((x * x) * w).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * x.data * w.data)
        x.zero_grad()
        ((x + x) * w).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * w.data)

    def test_tensor_without_gradient_keeps_none(self):
        x = t([1.0, 2.0])
        constant = Tensor(np.array([3.0, 4.0]))
        off_path = t([5.0])
        _ = off_path * 2.0  # a graph the loss does not reach
        (x * constant).sum().backward()
        assert constant.grad is None and off_path.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_getitem_into_fresh_buffer(self):
        a = t(np.arange(6.0).reshape(3, 2))
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        (a[1:] * w).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        # two slices of one interior tensor, as the trainer splits the views
        b = t([1.0, 2.0, 3.0])
        s = b * 1.0
        (s[:1].sum() + s[1:].sum() * 2.0).backward()
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 2.0])

    def test_interior_grads_released(self):
        x = t([1.0, 2.0])
        y = x * 2.0
        z = (y * y).sum()
        z.backward()
        assert y.grad is None and z.grad is None
        np.testing.assert_array_equal(x.grad, 8.0 * x.data)

    def test_no_graph_without_requires_grad(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)))
        out = a + b
        assert out._parents == () and not out.requires_grad

    def test_backward_determinism(self):
        def run():
            rng = np.random.default_rng(21)
            x = t(rng.uniform(-1, 1, (2, 3, 6, 6)))
            k = t(rng.uniform(-1, 1, (4, 3, 3, 3)))
            b = t(rng.uniform(-1, 1, 4))
            loss = (conv2d(x, k, b, pad=1) ** 2).sum()
            loss.backward()
            return x.grad.copy(), k.grad.copy(), b.grad.copy()

        g1, g2 = run(), run()
        for a, bb in zip(g1, g2):
            assert np.array_equal(a, bb)


class TestShapeErrors:
    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((1, 3, 3, 3))), t(np.zeros(1)))

    def test_dense_mismatch(self):
        with pytest.raises(ShapeError):
            dense(t(np.ones((2, 3))), t(np.ones((4, 5))), t(np.zeros(4)))

    def test_pool_odd(self):
        with pytest.raises(ShapeError):
            avg_pool2(t(np.ones((1, 1, 5, 4))))

    def test_elementwise_mismatch(self):
        with pytest.raises(ShapeError):
            _ = t(np.ones((2, 3))) + t(np.ones((3, 2)))

    def test_l2_normalize_needs_rows(self):
        for shape in ((4,), (1, 2, 4)):
            with pytest.raises(ShapeError):
                l2_normalize(t(np.ones(shape)))

    def test_separable_even_kernel(self):
        with pytest.raises(ShapeError):
            separable_conv2d(
                t(np.ones((1, 2, 4, 4))), t(np.ones((2, 2, 2))), t(np.ones((2, 2))), t(np.zeros(2))
            )


class TestAdam:
    def test_first_step_hand_value(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=2e-4)
        p.grad = np.array([1.0])
        opt.step()
        # Bias correction makes m_hat = g and v_hat = g^2 on step one.
        assert abs(p.data[0] - (1.0 - 2e-4 / (1.0 + 1e-8))) < 1e-15
        assert abs(p.data[0] - 0.9998) < 1e-9

    def test_zero_grad_zero_state_is_identity(self):
        p = Tensor(np.array([0.3, -0.7]), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [0.3, -0.7])

    def test_matches_scalar_recurrence_on_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=2e-4)
        thetas = []
        grads = []
        for _ in range(100):
            g = 2.0 * p.data[0]  # d/dtheta of theta^2
            grads.append(g)
            p.grad = np.array([g])
            opt.step()
            thetas.append(p.data[0])
        ref = oracles.adam_scalar_ref(1.0, grads, lr=2e-4)
        np.testing.assert_allclose(thetas, ref, rtol=0, atol=1e-12)

    def test_bitwise_determinism(self):
        def run():
            rng = np.random.default_rng(31)
            p = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
            opt = Adam({"p": p}, lr=1e-3)
            for i in range(10):
                p.grad = rng.uniform(-1, 1, (3, 3))
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_missing_grad_treated_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_hyperparameter_validation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ContractError):
            Adam({"p": p}, lr=0.0)
        with pytest.raises(ContractError):
            Adam({"p": p}, beta1=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["lr", "eps"])
    def test_non_finite_hyperparameters_rejected(self, name, value):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ContractError, match=name):
            Adam({"p": p}, **{name: value})


class TestFiniteDiff:
    def test_quadratic(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        g = finite_diff_grad(lambda: float(p.data[0] ** 2), [p], h=1e-4)
        assert abs(g[0][0] - 6.0) < 1e-7

    def test_constant_function(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        g = finite_diff_grad(lambda: 5.0, [p])
        np.testing.assert_array_equal(g[0], [0.0, 0.0])

    def test_dict_container(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        g = finite_diff_grad(lambda: float(p.data[0] ** 3), {"p": p}, h=1e-5)
        assert set(g.keys()) == {"p"}
        assert abs(g["p"][0] - 12.0) < 1e-6
