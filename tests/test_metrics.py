"""Metrics: AUC oracle, confusion counts, report invariants."""

import json

import numpy as np
import pytest

from relcon import metrics as M
from relcon.errors import UndefinedMetricError


def pairwise_auc(scores, labels):
    """Independent O(n^2) oracle: count wins and half-ties over all pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    wins = ties = 0
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                wins += 1
            elif scores[i] == scores[j]:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert M.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_equal_scores(self):
        assert M.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_case(self):
        assert M.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            M.roc_auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_pairwise_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 51))
        scores = rng.integers(0, 5, size=n).astype(float)  # forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert M.roc_auc(scores, labels) == pairwise_auc(scores, labels)

    @pytest.mark.parametrize("seed", range(40))
    def test_complement_identity_exact(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 51))
        scores = rng.normal(size=n).round(1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert M.roc_auc(scores, labels) + M.roc_auc(-scores, labels) == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_nan_scores_and_other_labels_match_pairwise_oracle(self, seed):
        # a NaN score neither wins nor ties; labels other than 0 and 1 take no part
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(4, 60))
        scores = rng.integers(0, 4, size=n).astype(float)
        scores[rng.random(n) < 0.25] = np.nan
        labels = rng.integers(0, 3, size=n)
        labels[:2] = (0, 1)
        assert M.roc_auc(scores, labels) == pairwise_auc(scores, labels)

    def test_large_tied_input_exact_in_bounded_memory(self):
        import tracemalloc
        rng = np.random.default_rng(400)
        n = 6000
        scores = rng.integers(0, 10, size=n).astype(float)
        labels = (rng.random(n) < 1 / 3).astype(int)
        # exact U from per-value counts
        pos = np.bincount(scores[labels == 1].astype(int), minlength=10).tolist()
        neg = np.bincount(scores[labels == 0].astype(int), minlength=10).tolist()
        twice_u = sum(p * (2 * sum(neg[:v]) + neg[v]) for v, p in enumerate(pos))
        tracemalloc.start()
        try:
            got = M.roc_auc(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (twice_u / 2) / (sum(pos) * sum(neg))
        assert peak < 1_000_000   # a P x N pair matrix alone would take 64 MB

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(200)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = M.roc_auc(scores, labels)
        assert M.roc_auc(np.exp(5 * scores), labels) == base
        assert M.roc_auc(scores ** 3 + 10, labels) == base


def _one_hot(pred, k):
    """Probability rows whose argmax is ``pred``."""
    probs = np.full((len(pred), k), 0.1 / (k - 1))
    probs[np.arange(len(pred)), pred] = 0.9
    return probs


class TestConfusionCounts:
    """One-vs-rest counts, seen through the metrics they feed."""

    def test_perfect_predictions(self):
        rep = M.classification_report(_one_hot([0, 1, 2, 0], 3), np.array([0, 1, 2, 0]))
        assert rep.sensitivity == rep.specificity == rep.accuracy == rep.f1 == 1.0

    def test_all_positive_binary(self):
        # class 1: TP 2, FP 2, TN 0, FN 0; class 0: TP 0, FP 0, TN 2, FN 2
        rep = M.classification_report(_one_hot([1, 1, 1, 1], 2), np.array([1, 1, 0, 0]))
        assert rep.sensitivity == (0 + 1) / 2
        assert rep.specificity == (1 + 0) / 2
        assert rep.f1 == (0 + 2 * 2 / (2 * 2 + 2)) / 2
        assert rep.accuracy == 0.5

    def test_exhaustive_tally(self):
        pred = np.array([0, 1, 2, 2, 1, 0])
        labels = np.array([0, 2, 2, 1, 1, 1])
        rep = M.classification_report(_one_hot(pred, 3), labels)
        sens, spec, f1, correct = [], [], [], 0
        for k in range(3):
            tp = sum(1 for p, t in zip(pred, labels) if p == k and t == k)
            fp = sum(1 for p, t in zip(pred, labels) if p == k and t != k)
            tn = sum(1 for p, t in zip(pred, labels) if p != k and t != k)
            fn = sum(1 for p, t in zip(pred, labels) if p != k and t == k)
            sens.append(tp / (tp + fn))
            spec.append(tn / (tn + fp))
            f1.append(2 * tp / (2 * tp + fp + fn))
            correct += tp + tn
        assert rep.sensitivity == pytest.approx(np.mean(sens), abs=1e-15)
        assert rep.specificity == pytest.approx(np.mean(spec), abs=1e-15)
        assert rep.f1 == pytest.approx(np.mean(f1), abs=1e-15)
        assert rep.accuracy == correct / (len(pred) * 3)


class TestClassificationReport:
    def test_perfect_predictor(self):
        probs = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]] * 4)
        labels = np.array([0, 1, 2] * 4)
        rep = M.classification_report(probs, labels)
        assert rep.auc == 1.0 and rep.sensitivity == 1.0
        assert rep.specificity == 1.0 and rep.accuracy == 1.0 and rep.f1 == 1.0

    def test_binary_half_and_half(self):
        # TP=1, FP=1, FN=1, TN=1 for each class one-vs-rest
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        labels = np.array([0, 1, 1, 0])
        rep = M.classification_report(probs, labels)
        assert rep.f1 == 0.5
        assert rep.accuracy == 0.5

    def test_macro_equals_mean_of_per_class(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(60, 4))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=60)
        rep = M.classification_report(probs, labels)
        valid = [a for a in rep.per_class_auc if a is not None]
        assert abs(rep.auc - np.mean(valid)) <= 1e-12

    def test_order_independence(self):
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, size=50)
        rep1 = M.classification_report(probs, labels)
        perm = rng.permutation(50)
        rep2 = M.classification_report(probs[perm], labels[perm])
        assert rep1.to_json() == rep2.to_json()

    def test_zero_positive_class_flagged(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.2, 0.7, 0.1],
                          [0.1, 0.8, 0.1]])
        labels = np.array([0, 0, 1, 1])  # class 2 never appears
        rep = M.classification_report(probs, labels)
        assert any("class 2" in f for f in rep.flags)
        assert rep.per_class_auc[2] is None

    def test_json_fixed_key_order(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
        labels = np.array([0, 1, 0, 1])
        text = M.classification_report(probs, labels).to_json()
        keys = list(json.loads(text).keys())
        assert keys == ["auc", "sensitivity", "specificity", "accuracy", "f1",
                        "per_class_auc"]
        back = M.MetricsReport(**json.loads(text))
        assert back.to_json() == text


class TestMultilabelAuc:
    """Multi-label AUC: classification_report on multi-hot labels."""

    def test_all_perfect(self):
        scores = np.array([[0.9, 0.9], [0.8, 0.8], [0.1, 0.2], [0.2, 0.1]])
        labels = np.array([[1, 1], [1, 1], [0, 0], [0, 0]])
        rep = M.classification_report(scores, labels)
        assert rep.per_class_auc == [1.0, 1.0] and rep.auc == 1.0

    def test_mixed_perfect_and_ties(self):
        scores = np.array([[0.9, 0.5], [0.8, 0.5], [0.1, 0.5], [0.2, 0.5]])
        labels = np.array([[1, 1], [1, 0], [0, 1], [0, 0]])
        rep = M.classification_report(scores, labels)
        assert rep.per_class_auc[0] == 1.0 and rep.per_class_auc[1] == 0.5
        assert rep.auc == 0.75

    def test_degenerate_class_excluded(self):
        scores = np.random.default_rng(9).random((10, 3))
        labels = np.zeros((10, 3), dtype=int)
        labels[:5, 0] = 1
        labels[3:, 1] = 1   # class 2 all negative -> excluded
        rep = M.classification_report(scores, labels)
        assert rep.per_class_auc[2] is None
        assert rep.auc == np.mean([rep.per_class_auc[0], rep.per_class_auc[1]])
        assert any("class 2" in f for f in rep.flags)

    @pytest.mark.parametrize("seed", range(10))
    def test_many_columns_match_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        # four score levels in [0, 1] force ties
        scores = rng.integers(0, 4, size=(30, 14)) / 3.0
        labels = rng.integers(0, 2, size=(30, 14))
        labels[0] = 1
        labels[1] = 0
        rep = M.classification_report(scores, labels)
        for c, value in enumerate(rep.per_class_auc):
            if value is None:
                continue
            expected = pairwise_auc(scores[:, c], labels[:, c])
            assert value == expected
