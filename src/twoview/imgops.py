"""Pure-numpy image primitives: resampling, blur, shift, and PPM/PGM files.

Images are float64 arrays, HxW (gray) or HxWx3 (color), values in [0,1].
These helpers do not clip; callers that must guarantee the [0,1] invariant
clip once at the end of their transform.  The file functions also speak
uint8 codes: the writers store them as they are, and `read_ppm(path,
codes=True)` returns them instead of code / 255.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


class ImageFileError(ValueError):
    """A PPM/PGM file is missing, malformed, or inconsistent."""


def _resample_axes(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear sample at the grid ys x xs, clamping coordinates to the edges."""
    h, w = img.shape[:2]
    ys = np.clip(ys, 0.0, float(h - 1))
    xs = np.clip(xs, 0.0, float(w - 1))
    y0 = np.floor(ys).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x0 = np.floor(xs).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    ty = (ys - y0).reshape((-1,) + (1,) * (img.ndim - 1))
    tx = (xs - x0).reshape((1, -1) + (1,) * (img.ndim - 2))
    rows = img[y0] * (1.0 - ty) + img[y1] * ty
    return rows[:, x0] * (1.0 - tx) + rows[:, x1] * tx


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize with half-pixel-centered bilinear sampling.

    Resizing to the input size reproduces the input bitwise (the sample
    grid lands exactly on the pixel centers).
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[:2]
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target size must be positive, got {out_h}x{out_w}")
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    return _resample_axes(img, ys, xs)


def scale_about_center(img: np.ndarray, factor: float) -> np.ndarray:
    """Zoom by `factor` about the image center; out-of-frame reads replicate edges."""
    img = np.asarray(img, dtype=np.float64)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    h, w = img.shape[:2]
    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    ys = (np.arange(h, dtype=np.float64) - cy) / factor + cy
    xs = (np.arange(w, dtype=np.float64) - cx) / factor + cx
    return _resample_axes(img, ys, xs)


def shift_image(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate content by (dy, dx) pixels, replicating edges into the gap."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[:2]
    rows = np.clip(np.arange(h) - int(dy), 0, h - 1)
    cols = np.clip(np.arange(w) - int(dx), 0, w - 1)
    return img[rows][:, cols]


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication; sigma <= 0 is the identity."""
    img = np.asarray(img, dtype=np.float64)
    if sigma <= 0.0:
        return img.copy()
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = img
    for axis in (0, 1):
        pads = [(0, 0)] * out.ndim
        pads[axis] = (radius, radius)
        padded = np.pad(out, pads, mode="edge")
        acc = np.zeros_like(out)
        length = out.shape[axis]
        for k, tap in enumerate(taps):
            sl = [slice(None)] * out.ndim
            sl[axis] = slice(k, k + length)
            acc += tap * padded[tuple(sl)]
        out = acc
    return out


# -- lossless 8-bit image files ----------------------------------------------


def _codes(img: np.ndarray) -> np.ndarray:
    """The 8-bit codes of img: uint8 as given, a float image quantized."""
    if img.dtype == np.uint8:
        return img
    return np.clip(np.round(np.asarray(img, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6, maxval 255. img is HxWx3: uint8 codes, written as they
    are, or float in [0,1], quantized to 8 bits."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ImageFileError(f"PPM wants an HxWx3 image, got shape {img.shape}")
    h, w = img.shape[:2]
    payload = _codes(img).tobytes()
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + payload)


def write_pgm(path, img: np.ndarray) -> None:
    """Binary P5, maxval 255. img is HxW: uint8 codes, or float in [0,1]
    (or bool), quantized."""
    img = np.asarray(img)
    if img.dtype == bool:
        img = img.astype(np.float64)
    if img.ndim != 2:
        raise ImageFileError(f"PGM wants an HxW image, got shape {img.shape}")
    h, w = img.shape
    payload = _codes(img).tobytes()
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + payload)


def _parse_netpbm_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    """Return (width, height, payload offset); comments and whitespace per the format."""
    if not data.startswith(magic):
        raise ImageFileError(f"{path}: expected {magic.decode()} magic, got {data[:2]!r}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ImageFileError(f"{path}: bad header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte separates header from payload
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFileError(f"{path}: only maxval 255 is supported, got {maxval}")
    return width, height, pos


def _read_netpbm(path, magic: bytes, channels: tuple, codes: bool) -> np.ndarray:
    """A file's pixels, (h, w) + channels: code / 255 as float64, or the codes."""
    path = Path(path)
    if not path.exists():
        raise ImageFileError(f"{path}: no such image file")
    data = path.read_bytes()
    w, h, offset = _parse_netpbm_header(data, magic, path)
    shape = (h, w) + channels
    expected = math.prod(shape)
    payload = data[offset : offset + expected]
    if len(payload) != expected:
        raise ImageFileError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(shape)
    return pixels.copy() if codes else pixels / 255.0


def read_ppm(path, codes: bool = False) -> np.ndarray:
    """HxWx3 float64 in [0,1], each value code / 255; with `codes`, the
    file's uint8 codes themselves."""
    return _read_netpbm(path, b"P6", (3,), codes)


def read_pgm(path) -> np.ndarray:
    """HxW float64 in [0,1], each value code / 255."""
    return _read_netpbm(path, b"P5", (), codes=False)
