"""Evaluation metrics: AUC, TDR at fixed FDR, accuracy, and ROC points.

Scores are probabilities of the fake class; label 1 = fake (positive),
label 0 = real (negative).  "FDR" here is the false-positive rate over the
real samples (the detect-rate convention), not false-discovery rate.

The AUC uses midranks, which makes it exactly — bitwise — equal to the
pair-counting definition: sums of integers and halves are exact in float64.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .ndgrad import ContractError


class MetricUndefinedError(ValueError):
    """The metric needs both classes present and the input has only one."""


@dataclass(frozen=True)
class ScoredSet:
    """Parallel score/label arrays, the unit every metric consumes."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise ContractError(
                f"scores and labels must be equal-length 1-d, got {scores.shape}, {labels.shape}"
            )
        if scores.size == 0:
            raise ContractError("empty score set")
        if not np.isin(labels, (0, 1)).all():
            raise ContractError("labels must be 0 (real) or 1 (fake)")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def n_fake(self) -> int:
        return int(self.labels.sum())

    @property
    def n_real(self) -> int:
        return int(self.labels.size - self.labels.sum())

    def require_both_classes(self, op: str) -> None:
        if self.n_fake == 0 or self.n_real == 0:
            raise MetricUndefinedError(
                f"{op} needs both classes; got {self.n_real} real / {self.n_fake} fake"
            )


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged; exact halves, no float slop."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts).astype(np.float64)
    starts = ends - counts
    mid = (starts + 1.0 + ends) / 2.0
    return mid[inverse]


def auc(scored: ScoredSet) -> float:
    """Mann-Whitney AUC: P(random fake outscores random real), ties at half."""
    scored.require_both_classes("auc")
    ranks = _midranks(scored.scores)
    p = scored.n_fake
    u = ranks[scored.labels == 1].sum() - p * (p + 1) / 2.0
    return float(u / (p * scored.n_real))


def roc_points(scored: ScoredSet) -> list[tuple[float, float]]:
    """(FDR, TDR) per distinct threshold, descending, with (0,0) prepended."""
    scored.require_both_classes("roc_points")
    pos = np.sort(scored.scores[scored.labels == 1])
    neg = np.sort(scored.scores[scored.labels == 0])
    thresholds = np.unique(scored.scores)[::-1]
    # Integer >= counts divided once, so each rate is bit-identical to
    # np.mean(x >= tau) and to any count-based oracle.
    fdr = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    tdr = (pos.size - np.searchsorted(pos, thresholds, side="left")) / pos.size
    return [(0.0, 0.0)] + list(zip(fdr.tolist(), tdr.tolist()))


def tdr_at_fdr(scored: ScoredSet, fdr_target: float) -> float:
    """Best TDR over thresholds whose FDR stays at or below the target.

    The +inf threshold (detect nothing) is always feasible, so the result
    is well-defined even when any real sample outscores every fake.
    """
    if not 0.0 < fdr_target < 1.0:
        raise ContractError(f"fdr_target must lie strictly in (0,1), got {fdr_target}")
    scored.require_both_classes("tdr_at_fdr")
    points = roc_points(scored)  # includes (0,0), the +inf threshold
    best = 0.0
    for fdr, tdr in points:
        if fdr <= fdr_target and tdr > best:
            best = tdr
    return float(best)


def accuracy(scored: ScoredSet) -> float:
    """Fraction with (score >= 0.5) matching the label; 0.5 predicts fake."""
    predicted = (scored.scores >= 0.5).astype(np.int64)
    return float(np.mean(predicted == scored.labels))


@dataclass(frozen=True)
class MetricReport:
    auc: float
    acc: float
    tdr_0_1pct: float
    tdr_0_01pct: float
    tdr_1pct: float
    n_real: int
    n_fake: int
    roc: tuple[tuple[float, float], ...]

    def to_text(self) -> str:
        """Flat key: value lines; the roc list is one semicolon-joined line."""
        lines = [
            f"auc: {self.auc!r}",
            f"acc: {self.acc!r}",
            f"tdr_0.1pct: {self.tdr_0_1pct!r}",
            f"tdr_0.01pct: {self.tdr_0_01pct!r}",
            f"tdr_1pct: {self.tdr_1pct!r}",
            f"n_real: {self.n_real}",
            f"n_fake: {self.n_fake}",
            "roc: " + ";".join(f"{f!r},{t!r}" for f, t in self.roc),
        ]
        return "\n".join(lines) + "\n"


def compute_report(scored: ScoredSet) -> MetricReport:
    """All headline metrics at once (TDR at 1% is the desk-scale companion
    to the 0.1% / 0.01% targets, which round to zero-false-positive here)."""
    return MetricReport(
        auc=auc(scored),
        acc=accuracy(scored),
        tdr_0_1pct=tdr_at_fdr(scored, 0.001),
        tdr_0_01pct=tdr_at_fdr(scored, 0.0001),
        tdr_1pct=tdr_at_fdr(scored, 0.01),
        n_real=scored.n_real,
        n_fake=scored.n_fake,
        roc=tuple(roc_points(scored)),
    )


# -- score files ---------------------------------------------------------------


def write_scores_csv(path, ids, scored: ScoredSet) -> None:
    ids = list(ids)
    if len(ids) != scored.scores.size:
        raise ContractError(f"{len(ids)} ids for {scored.scores.size} scores")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score", "label"])
        for sample_id, score, label in zip(ids, scored.scores, scored.labels):
            writer.writerow([sample_id, repr(float(score)), int(label)])
