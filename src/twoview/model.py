"""The shared encoder, the linear+softmax classifier, and CAM extraction.

The encoder standardises its input by the train split's per-channel mean and
std, then runs a 3x3 conv stem and ReLU, then one block per stage:
depthwise 3x3 conv, 2x2 average pool, pointwise 1x1 conv, and GroupNorm
fused with its ReLU.  Nothing nonlinear sits between the two convs, so the
pool, which is linear per channel, commutes with the pointwise conv and its
bias, which are linear per pixel: pooling first is the separable conv then
the pool, with the channel mix run on a quarter of the pixels (the order of
Xception's factored conv, Chollet, arXiv 1610.02357, with the pool moved
inside).  GroupNorm (Wu & He, arXiv 1803.08494) works per sample, so a
representation does not depend on the batch it is computed in.  Global
average pooling of the final maps gives the d-dimensional representation;
the same maps feed class activation mapping, so the heatmap and the
representation describe the same evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ndgrad
from .ndgrad import (
    ContractError,
    ShapeError,
    Tensor,
    avg_pool2,
    conv2d,
    dense,
    global_avg_pool,
    group_norm_relu,
    relu,
    separable_conv2d,
    softmax,
)

# separable_conv2d has no caller here.  It stays bound because
# bench/tracing.py:116 patches `model.separable_conv2d` by name.  The stages
# call depthwise_conv2d and pointwise_conv2d through the ndgrad module, where
# the tracer patches them.


@dataclass(frozen=True)
class ModelConfig:
    """Architecture shape: input size, channel plan, and the derived rep width d.

    channels[0] is the stem width; each later entry is one stage's width,
    and each stage halves the spatial size.  d equals the last channel count.
    """

    input_size: int = 64
    channels: tuple[int, ...] = (16, 32, 64, 128)

    def __post_init__(self):
        if len(self.channels) < 2 or any(c < 1 for c in self.channels):
            raise ContractError(f"channel plan needs >= 2 positive entries, got {self.channels}")
        if self.input_size % (2**self.n_stages) != 0:
            raise ContractError(
                f"input size {self.input_size} must be divisible by 2^{self.n_stages}"
            )

    @property
    def n_stages(self) -> int:
        return len(self.channels) - 1

    @property
    def d(self) -> int:
        return self.channels[-1]


# A model's state: param_shapes names -> tensors.  The encoder's mapping holds
# the encoder/... entries, the classifier's the classifier/... ones.  The
# encoder's also holds the input statistics input/mean and input/std, [3]
# each: constants of the data, not parameters, so named_parameters leaves
# them out.
Params = dict[str, Tensor]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in draw order and checkpoint order."""
    c0 = config.channels[0]
    shapes: dict[str, tuple[int, ...]] = {
        "encoder/stem/weight": (c0, 3, 3, 3),
        "encoder/stem/bias": (c0,),
    }
    for i, (c_in, c_out) in enumerate(zip(config.channels, config.channels[1:])):
        shapes[f"encoder/stage{i}/depthwise"] = (c_in, 3, 3)
        shapes[f"encoder/stage{i}/pointwise"] = (c_out, c_in)
        shapes[f"encoder/stage{i}/bias"] = (c_out,)
        shapes[f"encoder/stage{i}/gn_gamma"] = (c_out,)
        shapes[f"encoder/stage{i}/gn_beta"] = (c_out,)
    shapes["classifier/weight"] = (2, config.d)
    shapes["classifier/bias"] = (2,)
    return shapes


def params_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> tuple[Params, Params]:
    """(encoder, classifier) mappings over the named arrays, used as given (not copied).

    The parameters are trainable; input/mean and input/std, which `arrays`
    must hold too, are constants.
    """
    params = {name: Tensor(arrays[name], requires_grad=True) for name in param_shapes(config)}
    enc = {name: Tensor(arrays[name]) for name in ("input/mean", "input/std")}
    enc.update((name, t) for name, t in params.items() if name.startswith("encoder/"))
    cls = {name: t for name, t in params.items() if name.startswith("classifier/")}
    return enc, cls


def init_params(config: ModelConfig, seed: int) -> tuple[Params, Params]:
    """Fresh parameters, drawn in param_shapes order, and identity input statistics.

    A weight or bias is uniform in +-sqrt(1/fan_in).  A weight's fan-in is the
    product of its trailing dims; a bias shares the fan-in of the weight
    before it.  GroupNorm's gn_gamma and gn_beta start at 1 and 0 and take
    no draw, so every other parameter draws what it would without them.
    The input statistics start at mean 0 and std 1; train() sets the train
    split's.
    """
    gen = np.random.default_rng(int(seed))
    arrays: dict[str, np.ndarray] = {"input/mean": np.zeros(3), "input/std": np.ones(3)}
    for name, shape in param_shapes(config).items():
        if name.endswith("/gn_gamma"):
            arrays[name] = np.ones(shape)
            continue
        if name.endswith("/gn_beta"):
            arrays[name] = np.zeros(shape)
            continue
        if len(shape) > 1:
            fan_in = math.prod(shape[1:])
        bound = np.sqrt(1.0 / fan_in)
        arrays[name] = gen.uniform(-bound, bound, shape)
    return params_from_arrays(config, arrays)


def named_parameters(enc: Params, cls: Params) -> Params:
    """The whole model's parameters, name -> tensor, in param_shapes order.

    The input statistics are data, not parameters: they are left out, so
    Adam never sees them.
    """
    return {name: t for name, t in {**enc, **cls}.items() if not name.startswith("input/")}


def detach(params: Params) -> Params:
    """The same arrays, not copied, as constants: a forward pass records no graph."""
    return {name: t.detach() for name, t in params.items()}


def encoder_forward(batch: Tensor, enc: Params) -> tuple[Tensor, Tensor]:
    """[B,3,S,S] -> (reps [B,d], feature maps [B,d,s,s]).

    The batch is data: it is standardised as (x - input/mean) / input/std
    per channel, and no gradient flows back to it.  reps is exactly
    global_avg_pool(maps); the maps are returned for CAM.
    """
    stem = enc["encoder/stem/weight"]
    if batch.ndim != 4 or batch.shape[1] != stem.shape[1]:
        raise ShapeError(f"encoder expects [B,{stem.shape[1]},S,S], got {batch.shape}")
    mean, std = (enc[name].data[:, None, None] for name in ("input/mean", "input/std"))
    h = relu(conv2d(Tensor((batch.data - mean) / std), stem, enc["encoder/stem/bias"], stride=1, pad=1))
    i = 0
    while f"encoder/stage{i}/depthwise" in enc:
        stage = f"encoder/stage{i}/"
        pooled = avg_pool2(ndgrad.depthwise_conv2d(h, enc[stage + "depthwise"], pad=1))
        mixed = ndgrad.pointwise_conv2d(pooled, enc[stage + "pointwise"], enc[stage + "bias"])
        # min(4, C) groups; where that does not divide C, its largest divisor below 4
        groups = next(g for g in (4, 3, 2, 1) if mixed.shape[1] % g == 0)
        h = group_norm_relu(mixed, enc[stage + "gn_gamma"], enc[stage + "gn_beta"], groups)
        i += 1
    return global_avg_pool(h), h


def classifier_forward(reps: Tensor, cls: Params) -> Tensor:
    """[B,d] -> per-sample probability of the fake class (softmax column 1)."""
    weight = cls["classifier/weight"]
    if reps.ndim != 2 or reps.shape[1] != weight.shape[1]:
        raise ShapeError(f"classifier expects [B,{weight.shape[1]}], got {reps.shape}")
    probs = softmax(dense(reps, weight, cls["classifier/bias"]))
    return probs[:, 1]


def cam(maps: np.ndarray, cls: Params) -> np.ndarray:
    """Fake-class-weighted sum of the final maps, min-max normalized to [0,1].

    The bias plays no part; a constant weighted sum normalizes to all zeros.
    """
    if maps.ndim != 3:
        raise ShapeError(f"cam expects [d,s,s] feature maps, got {maps.shape}")
    weights = cls["classifier/weight"].data[1]
    if weights.shape[0] != maps.shape[0]:
        raise ShapeError(
            f"classifier width {weights.shape[0]} does not match {maps.shape[0]} channels"
        )
    heat = np.einsum("k,kij->ij", weights, maps)
    lo = heat.min()
    hi = heat.max()
    if hi - lo <= ndgrad.EPS_NORM:
        return np.zeros_like(heat)
    return (heat - lo) / (hi - lo)
