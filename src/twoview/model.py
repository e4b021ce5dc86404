"""The shared encoder, the linear+softmax classifier, and CAM extraction.

The encoder is a small separable-conv stack: a 3x3 stem, then one
(separable conv, ReLU, 2x2 average pool) block per stage.  Global average
pooling of the final maps gives the d-dimensional representation; the same
maps feed class activation mapping, so the heatmap and the representation
describe the same evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    num_classes: int = 2

    def __post_init__(self):
        if self.num_classes != 2:
            raise ContractError(f"binary task: num_classes is fixed at 2, got {self.num_classes}")
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

    @property
    def map_size(self) -> int:
        return self.input_size // (2**self.n_stages)


@dataclass
class StageParams:
    depthwise: Tensor  # [C, 3, 3]
    pointwise: Tensor  # [O, C]
    bias: Tensor  # [O]


@dataclass
class EncoderParams:
    stem_weight: Tensor  # [c0, 3, 3, 3]
    stem_bias: Tensor  # [c0]
    stages: list[StageParams] = field(default_factory=list)


@dataclass
class ClassifierParams:
    weight: Tensor  # [2, d]
    bias: Tensor  # [2]


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


def params_from_arrays(
    config: ModelConfig, arrays: dict[str, np.ndarray]
) -> tuple[EncoderParams, ClassifierParams]:
    """Trainable parameter structures over the named arrays, used as given (not copied)."""
    t = {name: Tensor(arrays[name], requires_grad=True) for name in param_shapes(config)}
    enc = EncoderParams(stem_weight=t["encoder/stem/weight"], stem_bias=t["encoder/stem/bias"])
    for i in range(config.n_stages):
        enc.stages.append(
            StageParams(
                depthwise=t[f"encoder/stage{i}/depthwise"],
                pointwise=t[f"encoder/stage{i}/pointwise"],
                bias=t[f"encoder/stage{i}/bias"],
            )
        )
    return enc, ClassifierParams(weight=t["classifier/weight"], bias=t["classifier/bias"])


def init_params(
    config: ModelConfig, seed: int
) -> tuple[EncoderParams, ClassifierParams]:
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


def named_parameters(enc: EncoderParams, cls: ClassifierParams) -> dict[str, Tensor]:
    """Stable name -> tensor map, in param_shapes order."""
    out: dict[str, Tensor] = {
        "encoder/stem/weight": enc.stem_weight,
        "encoder/stem/bias": enc.stem_bias,
    }
    for i, stage in enumerate(enc.stages):
        out[f"encoder/stage{i}/depthwise"] = stage.depthwise
        out[f"encoder/stage{i}/pointwise"] = stage.pointwise
        out[f"encoder/stage{i}/bias"] = stage.bias
    out["classifier/weight"] = cls.weight
    out["classifier/bias"] = cls.bias
    return out


def detach_encoder(enc: EncoderParams) -> EncoderParams:
    """The same parameter arrays, not copied, as constants: a forward pass records no graph."""
    return EncoderParams(
        stem_weight=enc.stem_weight.detach(),
        stem_bias=enc.stem_bias.detach(),
        stages=[
            StageParams(s.depthwise.detach(), s.pointwise.detach(), s.bias.detach())
            for s in enc.stages
        ],
    )


def detach_classifier(cls: ClassifierParams) -> ClassifierParams:
    return ClassifierParams(cls.weight.detach(), cls.bias.detach())


def encoder_forward(batch: Tensor, enc: EncoderParams) -> tuple[Tensor, Tensor]:
    """[B,3,S,S] -> (reps [B,d], feature maps [B,d,s,s]).

    reps is exactly global_avg_pool(maps); the maps are returned for CAM.
    """
    if batch.ndim != 4 or batch.shape[1] != enc.stem_weight.shape[1]:
        raise ShapeError(
            f"encoder expects [B,{enc.stem_weight.shape[1]},S,S], got {batch.shape}"
        )
    h = relu(conv2d(batch, enc.stem_weight, enc.stem_bias, stride=1, pad=1))
    for stage in enc.stages:
        h = avg_pool2(relu(separable_conv2d(h, stage.depthwise, stage.pointwise, stage.bias)))
    return global_avg_pool(h), h


def classifier_forward(reps: Tensor, cls: ClassifierParams) -> Tensor:
    """[B,d] -> per-sample probability of the fake class (softmax column 1)."""
    if reps.ndim != 2 or reps.shape[1] != cls.weight.shape[1]:
        raise ShapeError(f"classifier expects [B,{cls.weight.shape[1]}], got {reps.shape}")
    probs = softmax(dense(reps, cls.weight, cls.bias))
    return probs[:, 1]


def model_probs(batch: Tensor, enc: EncoderParams, cls: ClassifierParams) -> Tensor:
    reps, _ = encoder_forward(batch, enc)
    return classifier_forward(reps, cls)


def cam(feature_maps, cls: ClassifierParams, class_index: int) -> np.ndarray:
    """Classifier-weighted sum of the final maps, min-max normalized to [0,1].

    The bias plays no part; a constant weighted sum normalizes to all zeros.
    """
    maps = feature_maps.data if isinstance(feature_maps, Tensor) else np.asarray(feature_maps)
    if maps.ndim != 3:
        raise ShapeError(f"cam expects [d,s,s] feature maps, got {maps.shape}")
    if class_index not in (0, 1):
        raise ContractError(f"class index must be 0 or 1, got {class_index}")
    weights = cls.weight.data[class_index]
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
