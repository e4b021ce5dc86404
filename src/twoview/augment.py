"""Seed-addressable image augmentations and the two-view pair sampler.

Every transform takes an `RngStream` address rather than a live generator:
the stream is hashed into a fresh generator on each call, so a transform is
a pure function of (image, address).  That makes batches reproducible no
matter which order (or thread) assembles them.

Strategies:
  none      identity
  re        random erasing — one noise-filled rectangle
  randcrop  random resized crop back to the input size
  raaug     1/3 identity, 1/3 random erasing, 1/3 random resized crop
  dfdc      corruption pipeline: quality drop, noise, blur, shift, scale
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .imgops import bilinear_resize, gaussian_blur, scale_about_center, shift_image
from .ndgrad import ContractError


@dataclass(frozen=True)
class RngStream:
    """Counter-based RNG address: (seed, epoch, sample index, view index).

    Identical addresses always yield identical draw sequences; distinct
    addresses yield statistically independent streams (SeedSequence keys).
    """

    seed: int
    epoch: int = 0
    index: int = 0
    view: int = 0

    def __post_init__(self):
        for name in ("seed", "epoch", "index", "view"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ContractError(f"RngStream.{name} must be a non-negative int, got {value!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.epoch), int(self.index), int(self.view))
        )
        return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, tag: str) -> int:
    """Stable sub-seed for one purpose (init, shuffle, augmentation, ...).

    SHA-256 of "seed:tag", not Python's hash(), so the value survives
    interpreter restarts and PYTHONHASHSEED.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ContractError(f"seed must be a non-negative int, got {seed!r}")
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # keep it a positive int64


@dataclass(frozen=True)
class RectParams:
    """Ranges a sampled rectangle's area fraction and aspect ratio must meet."""

    area_range: tuple[float, float]
    aspect_range: tuple[float, float]


@dataclass(frozen=True)
class CorruptParams:
    stage_prob: float = 0.5
    quality_range: tuple[float, float] = (0.3, 1.0)
    noise_sigma_range: tuple[float, float] = (0.0, 0.1)
    blur_sigma_range: tuple[float, float] = (0.0, 2.0)
    shift_frac: float = 0.1
    scale_range: tuple[float, float] = (0.9, 1.1)


# The fixed hyperparameters every strategy draws with.
RECT_ATTEMPTS = 10
ERASE = RectParams(area_range=(0.02, 0.2), aspect_range=(0.5, 2.0))
CROP = RectParams(area_range=(1.0 / 1.3, 1.0), aspect_range=(0.9, 1.1))
CORRUPT = CorruptParams()

STRATEGY_KINDS = ("none", "re", "randcrop", "raaug", "dfdc")


@dataclass(frozen=True)
class ViewPair:
    """Two augmented views of one source image; the label rides along unchanged."""

    x1: np.ndarray
    x2: np.ndarray
    label: int
    source_id: str = ""


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ContractError(f"expected an HxWx3 image, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ContractError(f"image has empty dimensions: {img.shape}")
    return img


# -- random erasing and random resized crop -----------------------------------


def _sample_rect(h, w, gen, params: RectParams):
    """Draw (top, left, rh, rw) whose realized area fraction and aspect ratio
    land inside the configured ranges; None if every attempt misses.

    Rounding to whole pixels can push a sampled rectangle out of range, so
    the realized values are validated, not the draws.
    """
    lo_a, hi_a = params.area_range
    lo_r, hi_r = params.aspect_range
    for _ in range(RECT_ATTEMPTS):
        frac = gen.uniform(lo_a, hi_a)
        ratio = math.exp(gen.uniform(math.log(lo_r), math.log(hi_r)))  # rh / rw
        target = frac * h * w
        rh = int(round(math.sqrt(target * ratio)))
        rw = int(round(math.sqrt(target / ratio)))
        if rh < 1 or rw < 1 or rh > h or rw > w:
            continue
        if not lo_a <= (rh * rw) / (h * w) <= hi_a:
            continue
        if not lo_r <= rh / rw <= hi_r:
            continue
        top = int(gen.integers(0, h - rh + 1))
        left = int(gen.integers(0, w - rw + 1))
        return top, left, rh, rw
    return None


def _erase_rect(img, rect, gen):
    top, left, rh, rw = rect
    out = img.copy()
    # one draw per pixel, broadcast across channels: the fill is gray noise,
    # so erasing never injects channel imbalance that could mimic (or drown)
    # the color trace the detector is supposed to key on
    out[top : top + rh, left : left + rw, :] = gen.uniform(0.0, 1.0, (rh, rw, 1))
    return out


def _erase(img, gen, params: RectParams):
    """Fill one random rectangle with uniform noise; everything else is untouched."""
    rect = _sample_rect(img.shape[0], img.shape[1], gen, params)
    if rect is None:
        return img.copy()
    return _erase_rect(img, rect, gen)


def _resized_crop(img, gen, params: RectParams):
    """Crop a near-full-area rectangle and bilinearly resize it back."""
    h, w = img.shape[:2]
    rect = _sample_rect(h, w, gen, params)
    if rect is None:
        return img.copy()
    top, left, ch, cw = rect
    crop = img[top : top + ch, left : left + cw]
    return np.clip(bilinear_resize(crop, h, w), 0.0, 1.0)


# -- composite strategies --------------------------------------------------------


def _ra_aug(img, gen, erase: RectParams, crop: RectParams):
    """Uniformly one of: identity, random erasing, random resized crop."""
    u = gen.random()
    if u < 1.0 / 3.0:
        return img.copy()
    if u < 2.0 / 3.0:
        return _erase(img, gen, erase)
    return _resized_crop(img, gen, crop)


def _dfdc_selim_impl(img, gen, params: CorruptParams):
    h, w = img.shape[:2]
    out = img
    p = params.stage_prob
    if gen.random() < p:
        # Quality drop: throw away detail by downscaling, then upscale back.
        q = gen.uniform(*params.quality_range)
        dh = max(1, int(round(h * q)))
        dw = max(1, int(round(w * q)))
        if (dh, dw) != (h, w):
            out = bilinear_resize(bilinear_resize(out, dh, dw), h, w)
    if gen.random() < p:
        sigma = gen.uniform(*params.noise_sigma_range)
        out = np.clip(out + gen.normal(0.0, sigma, out.shape), 0.0, 1.0)
    if gen.random() < p:
        sigma = gen.uniform(*params.blur_sigma_range)
        out = gaussian_blur(out, sigma)
    if gen.random() < p:
        max_dy = int(math.floor(h * params.shift_frac))
        max_dx = int(math.floor(w * params.shift_frac))
        dy = int(gen.integers(-max_dy, max_dy + 1))
        dx = int(gen.integers(-max_dx, max_dx + 1))
        out = shift_image(out, dy, dx)
    if gen.random() < p:
        factor = gen.uniform(*params.scale_range)
        out = scale_about_center(out, factor)
    return np.clip(out, 0.0, 1.0)


def dfdc_selim(img: np.ndarray, rng: RngStream) -> np.ndarray:
    """Corruption pipeline; each stage fires independently, in a fixed order."""
    img = _check_image(img)
    return _dfdc_selim_impl(img, rng.generator(), CORRUPT)


def apply_augment(img: np.ndarray, kind: str, rng: RngStream) -> np.ndarray:
    """Run the `kind` strategy's transform for this rng address."""
    if kind not in STRATEGY_KINDS:
        raise ContractError(f"unknown augmentation kind {kind!r}; expected one of {STRATEGY_KINDS}")
    img = _check_image(img)
    gen = rng.generator()
    if kind == "none":
        return img.copy()
    if kind == "re":
        return _erase(img, gen, ERASE)
    if kind == "randcrop":
        return _resized_crop(img, gen, CROP)
    if kind == "raaug":
        return _ra_aug(img, gen, ERASE, CROP)
    return _dfdc_selim_impl(img, gen, CORRUPT)


def make_pair(
    img: np.ndarray,
    label: int,
    kind: str,
    rng1: RngStream,
    rng2: RngStream,
    source_id: str = "",
) -> ViewPair:
    """Draw the two views for one sample; the label is copied, never derived."""
    x1 = apply_augment(img, kind, rng1)
    x2 = apply_augment(img, kind, rng2)
    return ViewPair(x1=x1, x2=x2, label=int(label), source_id=source_id)
