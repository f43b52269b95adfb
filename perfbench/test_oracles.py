"""Fast tests of the benchmark's oracles on hand-made inputs.

Each test checks an oracle against a value worked out by hand, then shows
that the check built on it rejects a deliberately wrong output.

    python3 -m pytest perfbench -q
"""

import math
from types import SimpleNamespace

import numpy as np

import oracles


def test_relation_loss_brute_force_by_hand():
    # student rows are orthogonal, so R_s = I; teacher rows are equal, so every
    # entry of R_t is 1/sqrt(2). Each row of R_s - R_t then has squared norm
    # (1 - 1/sqrt(2))^2 + 1/2 = 2 - sqrt(2), and the loss averages two such rows.
    student = [[1.0, 0.0], [0.0, 1.0]]
    teacher = [[1.0, 0.0], [1.0, 0.0]]
    expected = 2.0 - math.sqrt(2.0)
    assert math.isclose(oracles.relation_loss_brute_force(student, teacher), expected,
                        rel_tol=1e-15)
    assert oracles.relation_loss_matches(expected, student, teacher)[0]
    assert not oracles.relation_loss_matches(expected * (1 + 1e-9), student, teacher)[0]


def test_relation_loss_is_zero_for_scaled_features():
    # relation matrices ignore a global scale, so the loss vanishes
    a = [[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]
    scaled = (3.0 * np.array(a)).tolist()
    assert oracles.relation_loss_brute_force(a, scaled) < 1e-30
    assert not oracles.relation_loss_matches(1e-6, a, scaled)[0]


def test_midrank_auc_without_ties():
    # positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs won
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert oracles.midrank_auc(scores, labels) == 0.75
    assert oracles.auc_matches(0.75, scores, labels)[0]
    assert not oracles.auc_matches(0.25, scores, labels)[0]


def test_midrank_auc_counts_ties_as_half():
    # positives {2, 1, 2}, negatives {1, 3}: against 1 -> win, tie, win;
    # against 3 -> three losses. (2 + 0.5) / 6
    scores = [2.0, 1.0, 1.0, 3.0, 2.0]
    labels = [1, 1, 0, 0, 1]
    assert oracles.midrank_auc(scores, labels) == 2.5 / 6
    # a value one ulp away is rejected: the check is exact
    assert not oracles.auc_matches(math.nextafter(2.5 / 6, 1.0), scores, labels)[0]


def test_midrank_auc_all_tied_is_one_half():
    assert oracles.midrank_auc([0.3] * 6, [1, 0, 1, 0, 0, 1]) == 0.5


def test_confusion_from_argmax_by_hand():
    probs = np.array([[0.7, 0.2, 0.1],    # true 0, predicted 0
                      [0.1, 0.8, 0.1],    # true 0, predicted 1
                      [0.2, 0.5, 0.3],    # true 1, predicted 1
                      [0.1, 0.1, 0.8],    # true 2, predicted 2
                      [0.6, 0.3, 0.1]])   # true 2, predicted 0
    labels = np.array([0, 0, 1, 2, 2])
    confusion = oracles.confusion_from_argmax(probs, labels, 3)
    assert confusion.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 1]]
    # per class (TP, FP, FN, TN): 0 -> (1,1,1,2), 1 -> (1,1,0,3), 2 -> (1,0,1,3)
    expected = {
        "accuracy": (3 + 4 + 4) / 15,
        "sensitivity": (1 / 2 + 1 / 1 + 1 / 2) / 3,
        "specificity": (2 / 3 + 3 / 4 + 3 / 3) / 3,
        "f1": (2 / 4 + 2 / 3 + 2 / 3) / 3,
    }
    got = oracles.metrics_from_confusion(confusion)
    assert all(math.isclose(got[k], v, rel_tol=1e-15) for k, v in expected.items())

    report = SimpleNamespace(**expected)
    assert oracles.report_matches_confusion(report, probs, labels)[0]
    wrong = SimpleNamespace(**{**expected, "f1": expected["f1"] + 1e-9})
    ok, detail = oracles.report_matches_confusion(wrong, probs, labels)
    assert not ok and "f1" in detail


def test_summary_recomputed_from_results():
    results = ("variant,beta,labeled_fraction,seed,auc,accuracy\n"
               "te,1,0.1,0,0.9,0.8\n"
               "te,1,0.1,1,0.7,0.6\n"
               "src_te,1,0.1,0,0.5,0.5\n")
    summary = ("variant,beta,labeled_fraction,runs,auc_mean,auc_sd,accuracy_mean,accuracy_sd\n"
               "te,1,0.1,2,0.8,0.141421356,0.7,0.141421356\n"
               "src_te,1,0.1,1,0.5,0,0.5,0\n")
    assert oracles.summary_matches_results(results, summary)[0]
    wrong_sd = summary.replace("0.8,0.141421356", "0.8,0.1")
    assert not oracles.summary_matches_results(results, wrong_sd)[0]
