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
from dataclasses import asdict, dataclass, field

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
        """Fields in declaration order, without the flags; degenerate
        per-class AUCs serialize as null."""
        record = asdict(self)
        del record["flags"]
        return json.dumps(record)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls(**json.loads(text))


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


def _ovr_counts(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """(TP, FP, TN, FN) per column of boolean [n, k] prediction and truth matrices."""
    return np.stack([(pred & truth).sum(axis=0), (pred & ~truth).sum(axis=0),
                     (~pred & ~truth).sum(axis=0), (~pred & truth).sum(axis=0)], axis=1)


def confusion_counts(pred, labels, num_classes: int | None = None) -> np.ndarray:
    """One-vs-rest confusion counts; row k is (TP, FP, TN, FN) for class k."""
    pred = np.asarray(pred, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if pred.shape != labels.shape:
        raise DimensionError("pred and labels must have the same length")
    if num_classes is None:
        num_classes = int(max(pred.max(), labels.max())) + 1
    classes = np.arange(num_classes)
    return _ovr_counts(pred[:, None] == classes, labels[:, None] == classes)


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
        if labels.shape != (n,):
            raise DimensionError(f"labels must be {(n,)}, got {labels.shape}")
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
            raise ContractError("single-label probabilities must sum to 1 per row")
        classes = np.arange(k)
        pred = probs.argmax(axis=1)[:, None] == classes
        truth = labels[:, None] == classes
    else:
        if labels.shape != (n, k):
            raise DimensionError(f"multi-hot labels must be {(n, k)}, got {labels.shape}")
        pred = probs > 0.5
        truth = labels == 1
    counts = _ovr_counts(pred, truth)
    positives = counts[:, 0] + counts[:, 3]

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
        if positives[c] == 0 or positives[c] == n:
            per_class_auc.append(None)
            flags.append(f"class {c}: single-class labels; AUC excluded")
            continue
        value = roc_auc(probs[:, c], truth[:, c])
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
