"""Untimed gradient gate: each ndgrad op the traced layers time, checked
against ``ndgrad.finite_diff_grad`` at the workload's real channel counts
and a tiny spatial size, so a fast but wrong kernel fails the run instead of
posting a gain.
"""

from __future__ import annotations

import numpy as np

from twoview import ndgrad
from twoview.ndgrad import Tensor

RTOL = 1e-6
ATOL = 1e-8


def _leaf(gen, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(gen.uniform(lo, hi, shape), requires_grad=True)


def _away_from_zero(gen, shape) -> Tensor:
    # relu has a kink at 0; keep every input far outside the difference step
    magnitude = gen.uniform(0.1, 1.0, shape)
    return Tensor(np.where(gen.random(shape) < 0.5, -magnitude, magnitude), requires_grad=True)


def _elementwise(a: Tensor, b: Tensor) -> Tensor:
    # every Tensor method the tracer counts as elementwise
    y = (a * b + a) ** 2.0
    # y < 15 here, so b - y - 20 < 0 everywhere and abs has no kink in reach
    y = (b - y - 20.0).abs() + (y.clamp(0.01, 100.0) + 1.0).log()
    return y[1:].sum(axis=0)


def cases(channels: tuple[int, ...], gen) -> list[tuple[str, object, list[Tensor]]]:
    c0, d = channels[0], channels[-1]
    out = [
        ("conv2d", lambda x, k, b: ndgrad.conv2d(x, k, b, stride=1, pad=1),
         [_leaf(gen, (1, 3, 4, 4)), _leaf(gen, (c0, 3, 3, 3)), _leaf(gen, (c0,))]),
        ("global_avg_pool", ndgrad.global_avg_pool, [_leaf(gen, (2, d, 2, 2))]),
        ("dense", ndgrad.dense, [_leaf(gen, (2, d)), _leaf(gen, (2, d)), _leaf(gen, (2,))]),
        ("softmax", ndgrad.softmax, [_leaf(gen, (2, 2))]),
        ("l2_normalize", ndgrad.l2_normalize, [_leaf(gen, (2, d))]),
        ("elementwise", _elementwise, [_leaf(gen, (3, 4), 0.5, 1.5), _leaf(gen, (3, 4), 0.5, 1.5)]),
    ]
    for k, (c_in, c_out) in enumerate(zip(channels, channels[1:])):
        out += [
            (f"depthwise_conv2d.s{k}", lambda x, w: ndgrad.depthwise_conv2d(x, w, pad=1),
             [_leaf(gen, (1, c_in, 3, 3)), _leaf(gen, (c_in, 3, 3))]),
            (f"pointwise_conv2d.s{k}", ndgrad.pointwise_conv2d,
             [_leaf(gen, (1, c_in, 1, 2)), _leaf(gen, (c_out, c_in)), _leaf(gen, (c_out,))]),
            (f"avg_pool2.s{k}", ndgrad.avg_pool2, [_leaf(gen, (1, c_out, 2, 2))]),
        ]
    for k, c in enumerate(channels):
        out.append((f"relu.s{k}", ndgrad.relu, [_away_from_zero(gen, (1, c, 2, 2))]))
    return out


def check_gradients(channels: tuple[int, ...], seed: int = 0) -> list[str]:
    """Names of the ops whose analytic gradient disagrees with the numeric one."""
    gen = np.random.default_rng(seed)
    failures = []
    for name, op, inputs in cases(channels, gen):
        weights = gen.uniform(-1.0, 1.0, op(*inputs).shape)
        loss = (op(*inputs) * Tensor(weights)).sum()
        for t in inputs:
            t.zero_grad()
        loss.backward()
        numeric = ndgrad.finite_diff_grad(lambda: float((op(*inputs).data * weights).sum()), inputs)
        for i, (t, g) in enumerate(zip(inputs, numeric)):
            if not np.allclose(t.grad, g, rtol=RTOL, atol=ATOL + RTOL * np.abs(g).max()):
                err = float(np.abs(t.grad - g).max())
                failures.append(f"ndgrad.{name}: input {i} gradient off by {err:.3g}")
    return failures
