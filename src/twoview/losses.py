"""Batch consistency penalties and class-weighted batch cross-entropy.

The consistency penalty compares the two views' representations: the cosine
form squares (1 - cosine similarity) so only directions matter, while the
l1/l2 forms act on the raw vectors and are deliberately scale-sensitive.
Both losses SUM over pairs (not mean), so gradients scale with batch size
and a batch of one is the single-pair loss.
"""

from __future__ import annotations

import numpy as np

from .ndgrad import ContractError, ShapeError, Tensor, l2_normalize

PENALTY_KINDS = ("cos", "l1", "l2")

# Probabilities are clamped to [CLAMP, 1-CLAMP] before any log.
CLAMP = 1e-12


def batch_consistency(F1: Tensor, F2: Tensor, kind: str = "cos") -> Tensor:
    """Sum of the per-pair penalty over the N rows of [N, d] view batches."""
    if F1.ndim != 2 or F1.shape != F2.shape:
        raise ShapeError(
            f"batch_consistency expects two equal-shape 2-d tensors, got {F1.shape}, {F2.shape}"
        )
    if kind == "cos":
        n1 = l2_normalize(F1)
        n2 = l2_normalize(F2)
        dots = (n1 * n2).sum(axis=1)
        return ((1.0 - dots) ** 2).sum()
    if kind == "l1":
        return (F1 - F2).abs().mean(axis=1).sum()
    if kind == "l2":
        return ((F1 - F2) ** 2).mean(axis=1).sum()
    raise ContractError(f"penalty must be one of {PENALTY_KINDS}, got {kind!r}")


def batch_ce(
    P1: Tensor, P2: Tensor, labels, weights: tuple[float, float] = (4.0, 1.0)
) -> Tensor:
    """Sum of per-view weighted cross-entropy over both views of every pair."""
    labels = np.asarray(labels)
    if P1.ndim != 1 or P2.ndim != 1 or P1.shape != P2.shape or labels.shape != P1.shape:
        raise ShapeError(
            f"batch_ce expects equal-length 1-d inputs, got {P1.shape}, {P2.shape}, {labels.shape}"
        )
    if not np.isin(labels, (0, 1)).all():
        raise ContractError("labels must be 0 (real) or 1 (fake)")
    w_real, w_fake = weights
    y = labels.astype(np.float64)
    w = np.where(labels == 1, float(w_fake), float(w_real))

    def view_ce(P: Tensor) -> Tensor:
        pc = P.clamp(CLAMP, 1.0 - CLAMP)
        ll = pc.log() * Tensor(y * w) + (1.0 - pc).log() * Tensor((1.0 - y) * w)
        return ll.sum() * -1.0

    return view_ce(P1) + view_ce(P2)

