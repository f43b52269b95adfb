"""Supervised and consistency losses, plus batch-relation machinery.

The relation machinery turns a feature matrix A (one row per sample) into
a case-wise similarity structure: the Gram matrix G = A A^T, then its
row-L2-normalized form R. The relation consistency loss penalizes the
squared Frobenius difference between the student's and the teacher's R,
averaged over the batch; gradients flow through the whole student-side
chain (Gram product and row normalization) while the teacher side is
always treated as a constant.

All losses return scalar tape nodes so they can be combined and
differentiated; pass plain arrays where no gradient is wanted. This module
is math only; ``experiments.write_matrix_csv`` writes the matrix dumps.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError

DEFAULT_ROW_NORM_EPS = 1e-8


def _as_node(x) -> T.Tensor:
    return x if isinstance(x, T.Tensor) else T.constant(np.asarray(x, dtype=np.float64))


def _detached(x) -> T.Tensor:
    """Constant node view of x: no gradient will ever flow into it."""
    data = x.data if isinstance(x, T.Tensor) else np.asarray(x, dtype=np.float64)
    return T.constant(data)


def inverse_frequency_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class weights proportional to inverse frequency, normalized to mean 1.

    For multi-hot labels the frequency of a class is its positive count.
    Classes absent from the labels are given the weight of a single count.
    """
    labels = np.asarray(labels)
    if labels.ndim == 1:
        counts = np.bincount(labels.astype(int), minlength=num_classes).astype(float)
    else:
        counts = labels.sum(axis=0).astype(float)
    counts = np.maximum(counts, 1.0)
    w = 1.0 / counts
    return w * (num_classes / w.sum())


def weighted_cross_entropy(logits, labels, class_weights: np.ndarray) -> T.Tensor:
    """Class-weighted cross-entropy, averaged over the batch.

    Integer labels select single-label mode (softmax cross-entropy via
    log-sum-exp); a 2-D 0/1 matrix selects multi-label mode (per-class
    sigmoid binary cross-entropy, averaged over batch and classes). Each
    class's terms are scaled by its entry of ``class_weights``, K positive values.
    """
    logits = _as_node(logits)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [B, K], got {logits.shape}")
    b, k = logits.shape
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if class_weights.shape != (k,) or (class_weights <= 0).any():
        raise ContractError("class_weights must be K positive values")

    labels = np.asarray(labels)
    if labels.ndim == 1:
        labels = labels.astype(int)
        if labels.shape[0] != b:
            raise DimensionError("need one label per row of logits")
        if labels.min() < 0 or labels.max() >= k:
            raise ContractError(f"label index out of range for {k} classes")
        nll = T.sub(T.logsumexp_rows(logits), T.take_per_row(logits, labels))
        return T.mean_all(T.mul(nll, T.constant(class_weights[labels])))

    if labels.shape != (b, k):
        raise DimensionError(f"multi-hot labels must be [B, K] = {(b, k)}, got {labels.shape}")
    y = T.constant(labels.astype(np.float64))
    # per-element BCE from logits: softplus(z) - z*y, numerically stable
    per = T.sub(T.softplus(logits), T.mul(logits, y))
    w = T.constant(np.broadcast_to(class_weights, (b, k)).copy())
    return T.mean_all(T.mul(per, w))


def consistency_mse(p_student, p_teacher) -> T.Tensor:
    """Mean over the batch of squared prediction differences.

    Inputs are probability matrices [B, K]; the sum runs over classes and
    the mean over samples. The teacher side is detached.
    """
    p_student = _as_node(p_student)
    p_teacher = _detached(p_teacher)
    if p_student.shape != p_teacher.shape:
        raise DimensionError(f"shapes {p_student.shape} and {p_teacher.shape} differ")
    if p_student.ndim != 2:
        raise DimensionError(f"expected [B, K] probabilities, got {p_student.shape}")
    b = p_student.shape[0]
    return T.scale(T.frobenius_sq(T.sub(p_student, p_teacher)), 1.0 / b)


def gram_matrix(a) -> T.Tensor:
    """Case-wise Gram matrix G = A A^T; entry (i, j) is the inner product
    of the feature rows of samples i and j."""
    a = _as_node(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a [B, D] feature matrix, got {a.shape}")
    if a.shape[0] < 2:
        raise ContractError("relation structure needs a batch of at least 2 samples")
    return T.matmul(a, T.transpose(a))


def relation_matrix(a, eps: float = DEFAULT_ROW_NORM_EPS) -> T.Tensor:
    """Row-L2-normalized Gram matrix; eps guards exact-zero rows."""
    if eps < 0:
        raise ContractError("eps must be >= 0")
    g = gram_matrix(a)
    norms = T.clip_min(T.row_l2_norm(g), eps)
    return T.div_rows(g, norms)


def src_loss(a_student, a_teacher, eps: float = DEFAULT_ROW_NORM_EPS) -> T.Tensor:
    """Squared Frobenius distance between the two relation matrices, / B.

    Gradient flows through the student-side Gram product and row
    normalization; the teacher features are constants.
    """
    a_student = _as_node(a_student)
    a_teacher = _detached(a_teacher)
    if a_student.shape != a_teacher.shape:
        raise DimensionError(f"shapes {a_student.shape} and {a_teacher.shape} differ")
    b = a_student.shape[0]
    diff = T.sub(relation_matrix(a_student, eps), relation_matrix(a_teacher, eps))
    return T.scale(T.frobenius_sq(diff), 1.0 / b)


def feature_consistency_loss(a_student, a_teacher) -> T.Tensor:
    """Plain MSE between feature matrices (mean over all B*D entries);
    the direct-regularization ablation of the relation loss."""
    a_student = _as_node(a_student)
    a_teacher = _detached(a_teacher)
    if a_student.shape != a_teacher.shape:
        raise DimensionError(f"shapes {a_student.shape} and {a_teacher.shape} differ")
    return T.scale(T.frobenius_sq(T.sub(a_student, a_teacher)), 1.0 / a_student.data.size)


def distance_matrix(r1, r2) -> np.ndarray:
    """Absolute difference of two relation matrices amplified 3x, so that
    small gaps show, and clipped to [0, 1] for rendering."""
    r1 = r1.data if isinstance(r1, T.Tensor) else np.asarray(r1, dtype=np.float64)
    r2 = r2.data if isinstance(r2, T.Tensor) else np.asarray(r2, dtype=np.float64)
    if r1.shape != r2.shape:
        raise DimensionError(f"shapes {r1.shape} and {r2.shape} differ")
    return np.clip(3.0 * np.abs(r1 - r2), 0.0, 1.0)
