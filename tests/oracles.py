"""Slow, implementation-free reference functions the test suite checks against.

Everything here is written as directly as possible (nested loops, exhaustive
sweeps) so that agreement with the library is evidence, not tautology.  Keep
these independent: no imports from twoview.  The one exception is the probe
at the end, which instruments the real encoder instead of copying it.
"""

from __future__ import annotations

import csv
import hashlib
import struct

import numpy as np


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference relative to the larger array's magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1e-12, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


# -- layer forward references -------------------------------------------------


def conv2d_ref(x, k, b, stride=1, pad=0):
    """Six-nested-loop cross-correlation."""
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for bi in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[bi, ci, i * stride + u, j * stride + v] * k[oi, ci, u, v]
                    out[bi, oi, i, j] = acc + b[oi]
    return out


def depthwise_ref(x, k, pad=0):
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    _, kh, kw = k.shape
    ho = h - kh + 1
    wo = w - kw + 1
    out = np.zeros((n, c, ho, wo))
    for bi in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            acc += x[bi, ci, i + u, j + v] * k[ci, u, v]
                    out[bi, ci, i, j] = acc
    return out


def dense_ref(x, w, b):
    n, din = x.shape
    dout = w.shape[0]
    out = np.zeros((n, dout))
    for bi in range(n):
        for i in range(dout):
            acc = 0.0
            for j in range(din):
                acc += w[i, j] * x[bi, j]
            out[bi, i] = acc + b[i]
    return out


def avg_pool2_ref(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for bi in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[bi, ci, i, j] = x[bi, ci, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
    return out


def global_avg_pool_ref(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c))
    for bi in range(n):
        for ci in range(c):
            out[bi, ci] = x[bi, ci].mean()
    return out


def cam_ref(maps, weight_row):
    """Double-loop weighted channel sum, no normalization."""
    d, s1, s2 = maps.shape
    out = np.zeros((s1, s2))
    for i in range(s1):
        for j in range(s2):
            acc = 0.0
            for kk in range(d):
                acc += weight_row[kk] * maps[kk, i, j]
            out[i, j] = acc
    return out


# -- optimizer reference -------------------------------------------------------


def adam_scalar_ref(theta0, grads, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Published Adam recurrence on a scalar parameter; returns theta after each step."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta)
    return out


# -- metric references ---------------------------------------------------------


def auc_pair_count(scores, labels):
    """O(P*N) Mann-Whitney: fraction of (pos, neg) pairs won, ties at half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def tdr_exhaustive(scores, labels, fdr_target):
    """Try every score as a threshold (plus +inf); keep the best feasible TDR."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    best = 0.0
    for tau in list(scores) + [np.inf]:
        fdr = np.mean(neg >= tau)
        if fdr <= fdr_target:
            best = max(best, float(np.mean(pos >= tau)))
    return best


def trapezoid_area(points):
    """Trapezoid rule over (x, y) points sorted by x."""
    pts = sorted(points)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


# -- hashing reference ---------------------------------------------------------

# Known FNV-1a 64-bit digests, from the reference vectors published with the
# algorithm.
FNV1A_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


def fnv1a_ref(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) % (1 << 64)
    return h


# -- checkpoint layout -----------------------------------------------------------


def checkpoint_body(table: dict, version: int = 2) -> bytes:
    """A checkpoint file up to its 8-byte trailer, written field by field.

    Magic, u32 version, u32 tensor count; then per tensor a u16 name length,
    the UTF-8 name, a u8 rank, one u32 per dim and the little-endian float64
    values.  All integers are little-endian.
    """
    out = struct.pack("<8sII", b"CORECKPT", version, len(table))
    for name, arr in table.items():
        arr = np.asarray(arr, dtype=np.float64)
        name_b = name.encode("utf-8")
        out += struct.pack("<H", len(name_b)) + name_b
        out += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        out += arr.astype("<f8").tobytes()
    return out


def checkpoint_v2_entries(ckpt) -> dict:
    """The format-2 entries of a trainer.Checkpoint, listed by hand in file order.

    A scalar is a one-value tensor; the u64 seed is stored as two 32-bit
    halves.  This list pins the layout apart from the code that writes it.
    """

    def one(value):
        return np.array([value], dtype=np.float64)

    return {
        "config/input_size": one(ckpt.config.input_size),
        "config/channels": np.array(ckpt.config.channels, dtype=np.float64),
        "config/num_classes": one(2),
        **ckpt.params,
        "adam/t": one(ckpt.adam_t),
        "adam/lr": one(ckpt.lr),
        "adam/beta1": one(ckpt.beta1),
        "adam/beta2": one(ckpt.beta2),
        "adam/eps": one(ckpt.eps),
        **{f"adam/m/{name}": arr for name, arr in ckpt.adam_m.items()},
        **{f"adam/v/{name}": arr for name, arr in ckpt.adam_v.items()},
        "meta/epoch": one(ckpt.epoch),
        "meta/best_val_auc": one(ckpt.best_val_auc),
        "meta/seed": np.array([ckpt.seed >> 32, ckpt.seed % 2**32], dtype=np.float64),
    }


def sealed(body: bytes) -> bytes:
    """`body` followed by the format-2 trailer: its 8-byte BLAKE2b digest."""
    return body + hashlib.blake2b(body, digest_size=8).digest()


# -- readers of the files the CLI writes -----------------------------------------


def parse_report(text: str) -> dict:
    """Inverse of MetricReport.to_text: n_* keys as ints, roc as (fpr, tpr) pairs, the rest floats."""
    out: dict = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "roc":
            out[key] = tuple(
                (float(f), float(t)) for f, t in (pair.split(",") for pair in value.split(";") if pair)
            )
        elif key.startswith("n_"):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def read_scores_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(ids, scores, labels) from a scores file; a header other than id,score,label raises."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["id", "score", "label"]:
        raise ValueError(f"{path}: expected header id,score,label")
    ids = [row[0] for row in rows[1:]]
    scores = np.array([float(row[1]) for row in rows[1:]])
    labels = np.array([int(row[2]) for row in rows[1:]])
    return ids, scores, labels


# -- probes of the real model ---------------------------------------------------


def relu_kink_margin(batch, enc) -> float:
    """Smallest |pre-activation| any relu sees in one encoder forward pass.

    Finite-difference gradient checks only converge where the loss is
    locally smooth, so a probe point is valid only if this margin exceeds
    the activation shift the parameter perturbation can cause.  Runs the
    real encoder_forward with model.relu wrapped to record its inputs.
    """
    from twoview import model

    relu = model.relu
    margins = []

    def recording_relu(x):
        margins.append(float(np.abs(x.data).min()))
        return relu(x)

    model.relu = recording_relu
    try:
        model.encoder_forward(batch, enc)
    finally:
        model.relu = relu
    return min(margins)
