"""Procedural tamper-detection dataset and its on-disk layout.

Real samples are soft-textured scenes with a centered elliptical subject.
Fakes copy a small rectangle from a donor subject into the base subject with
a feathered seam and a slight color shift: the forgery evidence is purely
local structure.  Brightness carries no class signal by construction — every
fake inherits its base's palette, and each real in a split donates the same
number of fakes — which the generator verifies with a brightness-only AUC
check on the test split.  Only brightness is class-neutral: the colour
shift's fixed direction is linearly visible even to random, untrained
features, so an untrained model separates the classes with a random sign.

Generated and loaded images lie on the 8-bit grid, and a Sample holds them
as their uint8 codes, an eighth of the float64 bytes; `Sample.image` gives
float64 all the same.  Only this module knows how an image is held.

On disk: `index.csv` (columns file,label,split,mask_file), images as binary
PPM (P6), tamper masks as binary PGM (P5).  The PPM payload is the codes
themselves, so saving and loading is lossless.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .augment import RngStream, dfdc_selim
from .imgops import ImageFileError, bilinear_resize, read_pgm, read_ppm, write_pgm, write_ppm
from .metrics import ScoredSet, auc
from .ndgrad import ContractError


class DatasetError(Exception):
    """Dataset generation or loading failed; the message names the culprit."""


# Ellipse half-axes as fractions of the image side.
ELLIPSE_RY = 0.35
ELLIPSE_RX = 0.40
# Pasted rectangles keep their corners inside this fraction of the ellipse.
_ELLIPSE_MARGIN = 0.95
# Pasted rectangle side lengths at the default 64-px canvas, inclusive.
# Other canvas sizes scale these proportionally so the rect always fits.
# The draw floor sits well above the hard minimum of 8: the color trace a
# paste leaves scales with patch area, and a 64-px canvas needs double-digit
# sides before a few hundred training images can reveal it.  Mask areas stay
# inside the documented 64..576 px envelope.
RECT_SIDE_MIN = 20
RECT_SIDE_MAX = 24


def _rect_side_bounds(size: int) -> tuple[int, int]:
    lo = max(3, round(RECT_SIDE_MIN * size / 64))
    hi = max(lo + 1, round(RECT_SIDE_MAX * size / 64))
    return lo, hi

# Purpose lanes for RngStream's epoch field during generation.
_LANE_REAL = 0
_LANE_FAKE = 1
_LANE_SPLIT = 2

SPLIT_NAMES = ("train", "val", "test")


def _as_float(pixels: np.ndarray) -> np.ndarray:
    return pixels / 255.0 if pixels.dtype == np.uint8 else pixels


class _HeldImage:
    """`Sample.image`: held as given, read as float64.

    Assigning keeps the array itself.  Reading returns float64: uint8 codes
    c come back as c / 255.0, a new array on each read, the same bits that
    `np.round(x * 255) / 255` gives; a float64 image comes back as it is.
    """

    def __get__(self, sample, owner=None):
        if sample is None:
            raise AttributeError("image")  # the dataclass field has no default
        return _as_float(sample._pixels)

    def __set__(self, sample, value):
        sample._pixels = value


@dataclass
class Sample:
    """One labelled image.

    `image` is (S, S, 3): uint8 codes for an image on the 8-bit grid, as
    gen_real, gen_fake and load_dataset make them (12 KB at 64 px), or
    float64 in [0,1] for one that is not, as shift_split makes them (98 KB).
    Either is held as given; reading `.image` gives float64, so
    `dataclasses.replace` without `image=` gives the copy float64 to hold.
    """

    image: np.ndarray = _HeldImage()
    label: int  # 0 real, 1 fake
    mask: np.ndarray | None  # (S, S) bool, fakes only; never fed to training
    source_id: str

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ContractError(f"label must be 0 or 1, got {self.label}")
        if (self.mask is None) != (self.label == 0):
            raise ContractError("fakes carry a mask, reals do not")

    @property
    def shape(self) -> tuple[int, ...]:
        """`image.shape`, without converting the image."""
        return self._pixels.shape


def stack_images(samples) -> np.ndarray:
    """The float64 images of `samples` as one [N, S, S, 3] array.

    Codes are stacked first and converted in one pass; the bits are those
    of stacking each `.image`.
    """
    held = [s._pixels for s in samples]
    if all(p.dtype == np.uint8 for p in held):
        return np.stack(held) / 255.0
    return np.stack([_as_float(p) for p in held])


def channel_stats(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std, shape (3,) each, of the float64 images of `samples`.

    Two passes over the held images, one image at a time, so no float64
    stack of the split is made (29.5 MB for 300 images at 64 px).  The std
    is taken around the first pass's mean, not as E[x**2] - mean**2: that
    form cancels, and a generated image's mean is about 40 times its std.
    """
    count = sum(s.shape[0] * s.shape[1] for s in samples)
    mean = sum(_as_float(s._pixels).sum(axis=(0, 1)) for s in samples) / count
    var = sum(np.square(_as_float(s._pixels) - mean).sum(axis=(0, 1)) for s in samples) / count
    return mean, np.sqrt(var)


@dataclass
class DatasetSplit:
    train: list[Sample] = field(default_factory=list)
    val: list[Sample] = field(default_factory=list)
    test: list[Sample] = field(default_factory=list)

    def split(self, name: str) -> list[Sample]:
        if name not in SPLIT_NAMES:
            raise ContractError(f"unknown split {name!r}; expected one of {SPLIT_NAMES}")
        return getattr(self, name)


@lru_cache(maxsize=8)
def ellipse_interior(size: int) -> np.ndarray:
    """Boolean mask of the centered subject ellipse (read-only, cached)."""
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    inside = ((yy - c) / (ELLIPSE_RY * size)) ** 2 + ((xx - c) / (ELLIPSE_RX * size)) ** 2 <= 1.0
    inside.setflags(write=False)
    return inside


def _to_codes(img: np.ndarray) -> np.ndarray:
    """uint8 codes of the nearest 8-bit grid values; / 255.0 gives them back."""
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def _codes_of(sample: Sample) -> np.ndarray:
    """The held codes of `sample`; a float64 image is quantized first."""
    pixels = sample._pixels
    return pixels if pixels.dtype == np.uint8 else _to_codes(pixels)


def _smooth_texture(gen, grid: int, size: int, center: float, amplitude: float) -> np.ndarray:
    """Low-frequency luminance field: coarse gray noise upsampled bilinearly.

    One field drives all three channels, so pristine content is exactly
    achromatic.  That is deliberate: the cleanest trace tampering leaves is
    the per-channel imbalance of the pasted patch's color shift, and any
    benign channel-decorrelated texture would bury it.
    """
    coarse = gen.uniform(-1.0, 1.0, (grid, grid, 1))
    field = bilinear_resize(coarse, size, size) * amplitude + center
    return np.repeat(field, 3, axis=2)


def gen_real(rng: RngStream, size: int = 64) -> Sample:
    """One pristine sample: textured background plus a smoother subject ellipse.

    Each subject draws its own texture statistics (spatial frequency,
    contrast, brightness).  Tampering copies a patch from one subject
    into another, so the detectable signal is a statistics mismatch inside
    a single image; that mismatch only exists if the statistics vary
    between subjects.
    """
    if size < 32:
        raise ContractError(f"image size must be >= 32, got {size}")
    gen = rng.generator()
    # Benign variance is kept deliberately small everywhere: the tamper
    # trace is a few-percent local anomaly, and every unit of pristine
    # spread (brightness, contrast) is noise in front of it.  The texture
    # only has to be visibly non-flat and to differ between subjects.
    bg = _smooth_texture(gen, grid=6, size=size, center=0.5, amplitude=0.02)
    face_bright = gen.uniform(0.49, 0.51)
    face_grid = int(gen.integers(4, 7))
    face_amp = gen.uniform(0.015, 0.025)
    face = _smooth_texture(gen, grid=face_grid, size=size, center=face_bright, amplitude=face_amp)
    img = np.where(ellipse_interior(size)[:, :, None], face, bg)
    return Sample(
        image=_to_codes(img),
        label=0,
        mask=None,
        source_id=f"real_{rng.index:05d}",
    )


def _sample_rect_in_ellipse(gen, size: int, rh: int, rw: int) -> tuple[int, int]:
    """(top, left) placing the rect's corners inside the ellipse margin.

    Rejection-sampled; the center position always qualifies for the allowed
    side lengths, so the fallback cannot distort the size distribution.
    """
    c = (size - 1) / 2.0
    ry = ELLIPSE_RY * size * _ELLIPSE_MARGIN
    rx = ELLIPSE_RX * size * _ELLIPSE_MARGIN

    def fits(top: int, left: int) -> bool:
        corners = ((top, left), (top, left + rw - 1), (top + rh - 1, left), (top + rh - 1, left + rw - 1))
        return all(((y - c) / ry) ** 2 + ((x - c) / rx) ** 2 <= 1.0 for y, x in corners)

    for _ in range(50):
        top = int(gen.integers(0, size - rh + 1))
        left = int(gen.integers(0, size - rw + 1))
        if fits(top, left):
            return top, left
    top = int(round(c - rh / 2.0))
    left = int(round(c - rw / 2.0))
    if not fits(top, left):
        raise ContractError(f"a {rh}x{rw} rect cannot fit inside the size-{size} ellipse")
    return top, left


def _feather_alpha(rh: int, rw: int) -> np.ndarray:
    """Blend weights inside the pasted rect: 2-px border band below 1."""
    rows = np.minimum(np.arange(rh), np.arange(rh)[::-1])
    cols = np.minimum(np.arange(rw), np.arange(rw)[::-1])
    edge_dist = np.minimum(rows[:, None], cols[None, :])
    return np.minimum(1.0, (edge_dist + 1.0) / 3.0)


def _blend_patch(base_patch: np.ndarray, donor_patch: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Feathered composite of the (color-shifted) donor over the base."""
    alpha = _feather_alpha(base_patch.shape[0], base_patch.shape[1])[:, :, None]
    return alpha * (donor_patch + shift[None, None, :]) + (1.0 - alpha) * base_patch


def gen_fake(base: Sample, donor: Sample, rng: RngStream) -> Sample:
    """Copy one donor-subject rectangle into the base subject.

    Only pixels inside the pasted rectangle change (the feather band is part
    of the rectangle); the mask marks exactly that rectangle.
    """
    if base.label != 0 or donor.label != 0:
        raise ContractError("gen_fake needs two real samples as base and donor")
    if base.shape != donor.shape:
        raise ContractError(f"base and donor sizes differ: {base.shape} vs {donor.shape}")
    size = base.shape[0]
    gen = rng.generator()
    side_lo, side_hi = _rect_side_bounds(size)
    rh = int(gen.integers(side_lo, side_hi + 1))
    rw = int(gen.integers(side_lo, side_hi + 1))
    dst_top, dst_left = _sample_rect_in_ellipse(gen, size, rh, rw)
    src_top, src_left = _sample_rect_in_ellipse(gen, size, rh, rw)
    # The color shift pushes red and blue up and green down by exactly their
    # sum, so the three channels cancel per pixel and the paste never moves
    # mean brightness.  The direction is fixed across fakes, the way a real
    # compositing pipeline's chroma artifacts always lean the same way; that
    # consistency is what makes the trace learnable from a few hundred
    # images.  Magnitude floors keep it from vanishing on an unlucky draw,
    # and every channel stays within +/-0.05.
    up = gen.uniform(0.02, 0.025, 2)
    shift = np.array([up[0], -(up[0] + up[1]), up[1]])

    base_codes = _codes_of(base)
    donor_patch = _codes_of(donor)[src_top : src_top + rh, src_left : src_left + rw] / 255.0
    base_patch = base_codes[dst_top : dst_top + rh, dst_left : dst_left + rw] / 255.0
    blended = _to_codes(_blend_patch(base_patch, donor_patch, shift))

    img = base_codes.copy()
    img[dst_top : dst_top + rh, dst_left : dst_left + rw] = blended
    mask = np.zeros((size, size), dtype=bool)
    mask[dst_top : dst_top + rh, dst_left : dst_left + rw] = True
    return Sample(image=img, label=1, mask=mask, source_id=f"fake_{rng.index:05d}")


def _split_sizes(n_real: int, fracs: tuple[float, float, float]) -> tuple[int, int, int]:
    if len(fracs) != 3 or any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ContractError(f"split fractions must be three non-negatives summing to 1, got {fracs}")
    n_val = max(1, int(round(fracs[1] * n_real)))
    n_test = max(1, int(round(fracs[2] * n_real)))
    n_train = n_real - n_val - n_test
    if n_train < 1:
        raise ContractError(f"split fractions {fracs} leave no training reals out of {n_real}")
    return n_train, n_val, n_test


def _brightness_shortcut_check(test_samples: list[Sample]) -> None:
    """Refuse generation if mean brightness alone separates the test classes.

    Skipped below 5 test reals, where the AUC estimate is too noisy to mean
    anything; the default split sizes always qualify.
    """
    labels = np.array([s.label for s in test_samples])
    if (labels == 0).sum() < 5 or (labels == 1).sum() < 1:
        return
    scores = np.array([float(s.image.mean()) for s in test_samples])
    value = auc(ScoredSet(scores=scores, labels=labels))
    value = max(value, 1.0 - value)
    if value >= 0.6:
        raise DatasetError(
            f"brightness-only AUC {value:.3f} >= 0.6 on the test split; "
            "the generator produced a global-intensity shortcut"
        )


def gen_dataset(
    n_real: int = 100,
    ratio: int = 4,
    seed: int = 0,
    split_fracs: tuple[float, float, float] = (0.7, 0.15, 0.15),
    size: int = 64,
) -> DatasetSplit:
    """n_real pristine samples plus ratio fakes per real, split by source id.

    Fakes are generated within a split (base and donor both local), so no
    source imagery leaks across splits.  Assigning exactly `ratio` fakes to
    every real keeps brightness rank statistics class-neutral.
    """
    if n_real < 10:
        raise ContractError(f"n_real must be >= 10, got {n_real}")
    if ratio < 1:
        raise ContractError(f"ratio must be >= 1, got {ratio}")
    reals = [gen_real(RngStream(seed, _LANE_REAL, i, 0), size=size) for i in range(n_real)]

    n_train, n_val, n_test = _split_sizes(n_real, split_fracs)
    perm = RngStream(seed, _LANE_SPLIT, 0, 0).generator().permutation(n_real)
    assignment = {
        "train": [reals[i] for i in perm[:n_train]],
        "val": [reals[i] for i in perm[n_train : n_train + n_val]],
        "test": [reals[i] for i in perm[n_train + n_val :]],
    }

    dataset = DatasetSplit()
    fake_counter = 0
    for name in SPLIT_NAMES:
        split_reals = assignment[name]
        samples = list(split_reals)
        for base in split_reals:
            for _ in range(ratio):
                stream = RngStream(seed, _LANE_FAKE, fake_counter, 0)
                fake_counter += 1
                others = [r for r in split_reals if r is not base]
                if others:
                    pick = int(stream.generator().integers(0, len(others)))
                    donor = others[pick]
                else:
                    donor = base  # single-real split: self-donation still tampers
                fake = gen_fake(base, donor, RngStream(seed, _LANE_FAKE, stream.index, 1))
                samples.append(fake)
        dataset.split(name).extend(samples)

    _brightness_shortcut_check(dataset.test)
    return dataset


# -- on-disk layout -------------------------------------------------------------


def save_dataset(dataset: DatasetSplit, directory) -> None:
    """Write index.csv plus one PPM per sample (and one PGM per fake mask)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in SPLIT_NAMES:
        for i, sample in enumerate(dataset.split(name)):
            stem = f"{name}_{i:05d}"
            write_ppm(directory / f"{stem}.ppm", sample._pixels)
            mask_file = ""
            if sample.mask is not None:
                mask_file = f"{stem}_mask.pgm"
                write_pgm(directory / mask_file, sample.mask)
            rows.append((f"{stem}.ppm", sample.label, name, mask_file))
    with open(directory / "index.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "label", "split", "mask_file"])
        writer.writerows(rows)


def load_dataset(directory, splits: tuple[str, ...] = SPLIT_NAMES, ids=None) -> DatasetSplit:
    """Rebuild a DatasetSplit from the save_dataset layout, images as saved.

    Every index row is validated, but image and mask files are opened only
    for rows of the named `splits` and, when `ids` is given, only for rows
    whose id (the file stem, which becomes the source_id) it holds.  Rows
    left out are not loaded, and a damaged file in them goes unnoticed.
    Each split keeps the index's row order; `twoview eval --shifted-test`
    corrupts the loaded test split with shift_split.
    """
    unknown = [name for name in splits if name not in SPLIT_NAMES]
    if unknown:
        raise ContractError(f"unknown splits {unknown}; expected names from {SPLIT_NAMES}")
    directory = Path(directory)
    index = directory / "index.csv"
    if not index.exists():
        raise DatasetError(f"{directory}: missing index.csv")
    with open(index, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["file", "label", "split", "mask_file"]:
        raise DatasetError(f"{index}: expected header file,label,split,mask_file")

    dataset = DatasetSplit()
    first = None  # (file, shape) of the first image
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise DatasetError(f"{index}:{lineno}: expected 4 columns, got {len(row)}")
        fname, label_s, split_name, mask_file = row
        if label_s not in ("0", "1"):
            raise DatasetError(f"{index}:{lineno}: label must be 0 or 1, got {label_s!r}")
        label = int(label_s)
        if split_name not in SPLIT_NAMES:
            raise DatasetError(f"{index}:{lineno}: unknown split {split_name!r}")
        if (label == 1) != bool(mask_file):
            raise DatasetError(f"{index}:{lineno}: fakes need a mask_file, reals must not have one")
        source_id = Path(fname).stem
        if split_name not in splits or (ids is not None and source_id not in ids):
            continue
        try:
            image = read_ppm(directory / fname, codes=True)
            mask = read_pgm(directory / mask_file) > 0.5 if mask_file else None
        except ImageFileError as exc:
            raise DatasetError(str(exc)) from exc
        if first is None:
            first = (fname, image.shape)
        elif image.shape != first[1]:
            raise DatasetError(
                f"{index}:{lineno}: {directory / fname} has shape {image.shape}, "
                f"but the first image, {first[0]}, has shape {first[1]}"
            )
        dataset.split(split_name).append(
            Sample(image=image, label=label, mask=mask, source_id=source_id)
        )
    return dataset


def shift_split(samples: list[Sample], seed: int) -> None:
    """Replace each entry of `samples`, in place, by a corrupted copy.

    Entry i becomes a copy whose image went through the corruption pipeline
    at RngStream(seed, 0, i, 0): the desk-scale stand-in for evaluating on a
    different source distribution.  The Sample objects themselves are not
    changed, so a caller that keeps the clean split passes a copy of the list.
    """
    for i, sample in enumerate(samples):
        samples[i] = replace(sample, image=dfdc_selim(sample.image, RngStream(seed, 0, i, 0)))
