"""The shared encoder, the linear+softmax classifier, and CAM extraction.

The encoder is a small separable-conv stack: a 3x3 stem, then one
(separable conv, ReLU, 2x2 average pool) block per stage.  Global average
pooling of the final maps gives the d-dimensional representation; the same
maps feed class activation mapping, so the heatmap and the representation
describe the same evidence.
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
    relu,
    separable_conv2d,
    softmax,
)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture shape: input size, channel plan, and the derived rep width d.

    channels[0] is the stem width; each later entry is one separable stage,
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


# A model's trainable state: param_shapes names -> tensors.  The encoder's
# mapping holds the encoder/... entries, the classifier's the classifier/... ones.
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
    shapes["classifier/weight"] = (2, config.d)
    shapes["classifier/bias"] = (2,)
    return shapes


def params_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> tuple[Params, Params]:
    """Trainable (encoder, classifier) mappings over the named arrays, used as given (not copied)."""
    params = {name: Tensor(arrays[name], requires_grad=True) for name in param_shapes(config)}
    enc = {name: t for name, t in params.items() if name.startswith("encoder/")}
    cls = {name: t for name, t in params.items() if name.startswith("classifier/")}
    return enc, cls


def init_params(config: ModelConfig, seed: int) -> tuple[Params, Params]:
    """Fresh parameters, uniform in +-sqrt(1/fan_in), drawn in param_shapes order.

    A weight's fan-in is the product of its trailing dims; a bias shares the
    fan-in of the weight before it.
    """
    gen = np.random.default_rng(int(seed))
    arrays: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) > 1:
            fan_in = math.prod(shape[1:])
        bound = np.sqrt(1.0 / fan_in)
        arrays[name] = gen.uniform(-bound, bound, shape)
    return params_from_arrays(config, arrays)


def named_parameters(enc: Params, cls: Params) -> Params:
    """The whole model's name -> tensor map, in param_shapes order."""
    return {**enc, **cls}


def detach(params: Params) -> Params:
    """The same parameter arrays, not copied, as constants: a forward pass records no graph."""
    return {name: t.detach() for name, t in params.items()}


def encoder_forward(batch: Tensor, enc: Params) -> tuple[Tensor, Tensor]:
    """[B,3,S,S] -> (reps [B,d], feature maps [B,d,s,s]).

    reps is exactly global_avg_pool(maps); the maps are returned for CAM.
    """
    stem = enc["encoder/stem/weight"]
    if batch.ndim != 4 or batch.shape[1] != stem.shape[1]:
        raise ShapeError(f"encoder expects [B,{stem.shape[1]},S,S], got {batch.shape}")
    h = relu(conv2d(batch, stem, enc["encoder/stem/bias"], stride=1, pad=1))
    i = 0
    while f"encoder/stage{i}/depthwise" in enc:
        stage = f"encoder/stage{i}/"
        h = avg_pool2(
            relu(separable_conv2d(h, enc[stage + "depthwise"], enc[stage + "pointwise"], enc[stage + "bias"]))
        )
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
