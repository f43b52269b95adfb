"""Evaluation metrics: ROC-AUC plus macro sensitivity/specificity/accuracy/F1.

AUC is the Mann-Whitney statistic: the fraction of (positive, negative)
pairs where the positive outscores the negative, ties counted as half a
win. Multi-class metrics are one-vs-rest on argmax predictions, macro
averaged; accuracy is the micro mean of one-vs-rest correctness. Classes
that are degenerate for a metric (no positives, or single-class for AUC)
are reported as 0 / excluded and flagged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, UndefinedMetricError


@dataclass
class MetricsReport:
    auc: float
    sensitivity: float
    specificity: float
    accuracy: float
    f1: float
    per_class_auc: list[float | None]
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        """Fixed key order; degenerate per-class AUCs serialize as null."""
        return json.dumps({
            "auc": self.auc,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "accuracy": self.accuracy,
            "f1": self.f1,
            "per_class_auc": self.per_class_auc,
        })

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        d = json.loads(text)
        return cls(d["auc"], d["sensitivity"], d["specificity"], d["accuracy"],
                   d["f1"], d["per_class_auc"])


def roc_auc(scores, labels) -> float:
    """Pairwise win fraction of positives over negatives, ties half-counted."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionError("scores and labels must be equal-length vectors")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    diff = pos[:, None] - neg[None, :]
    wins = int((diff > 0).sum())
    ties = int((diff == 0).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def confusion_counts(pred, labels, num_classes: int | None = None) -> np.ndarray:
    """One-vs-rest confusion counts; row k is (TP, FP, TN, FN) for class k."""
    pred = np.asarray(pred, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if pred.shape != labels.shape:
        raise DimensionError("pred and labels must have the same length")
    if num_classes is None:
        num_classes = int(max(pred.max(), labels.max())) + 1
    out = np.zeros((num_classes, 4), dtype=int)
    for k in range(num_classes):
        p = pred == k
        t = labels == k
        out[k, 0] = int((p & t).sum())
        out[k, 1] = int((p & ~t).sum())
        out[k, 2] = int((~p & ~t).sum())
        out[k, 3] = int((~p & t).sum())
    return out


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def classification_report(probs, labels) -> MetricsReport:
    """Full metric set from probability outputs.

    Single-label mode (1-D integer labels) argmaxes softmax rows;
    multi-label mode (2-D 0/1 labels) thresholds sigmoid scores at 0.5.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise DimensionError(f"probs must be [N, K], got {probs.shape}")
    n, k = probs.shape
    flags: list[str] = []

    if labels.ndim == 1:
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
            raise ContractError("single-label probabilities must sum to 1 per row")
        pred = probs.argmax(axis=1)
        counts = confusion_counts(pred, labels.astype(int), num_classes=k)
        positives = counts[:, 0] + counts[:, 3]
        ovr_labels = [(labels == c).astype(int) for c in range(k)]
    else:
        if labels.shape != (n, k):
            raise DimensionError(f"multi-hot labels must be {(n, k)}, got {labels.shape}")
        pred_mat = (probs > 0.5).astype(int)
        counts = np.zeros((k, 4), dtype=int)
        for c in range(k):
            p = pred_mat[:, c] == 1
            t = labels[:, c] == 1
            counts[c] = [(p & t).sum(), (p & ~t).sum(), (~p & ~t).sum(), (~p & t).sum()]
        positives = counts[:, 0] + counts[:, 3]
        ovr_labels = [labels[:, c].astype(int) for c in range(k)]

    sens = np.zeros(k)
    spec = np.zeros(k)
    f1 = np.zeros(k)
    for c in range(k):
        tp, fp, tn, fn = counts[c]
        if positives[c] == 0:
            flags.append(f"class {c}: no positives; sensitivity and F1 reported as 0")
        sens[c] = _safe_div(tp, tp + fn)
        spec[c] = _safe_div(tn, tn + fp)
        f1[c] = _safe_div(2 * tp, 2 * tp + fp + fn)
    accuracy = float(counts[:, [0, 2]].sum()) / (n * k)

    per_class_auc: list[float | None] = []
    valid_auc: list[float] = []
    for c in range(k):
        ovr = ovr_labels[c]
        if ovr.sum() == 0 or ovr.sum() == n:
            per_class_auc.append(None)
            flags.append(f"class {c}: single-class labels; AUC excluded")
            continue
        value = roc_auc(probs[:, c], ovr)
        per_class_auc.append(value)
        valid_auc.append(value)
    if not valid_auc:
        raise UndefinedMetricError("AUC undefined for every class")

    return MetricsReport(
        auc=float(np.mean(valid_auc)),
        sensitivity=float(sens.mean()),
        specificity=float(spec.mean()),
        accuracy=accuracy,
        f1=float(f1.mean()),
        per_class_auc=per_class_auc,
        flags=flags,
    )
