"""Reference computations the benchmark checks relcon's outputs against.

Each oracle is computed apart from the program, from plain Python loops or
from a different formula, and needs only numpy. Each ``*_matches`` function
returns ``(ok, detail)`` for one output of the program.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

RELATION_RTOL = 1e-10
REPORT_ATOL = 1e-12
SUMMARY_ATOL = 1e-8   # summary.csv and results.csv each round to 9 significant digits


# ---------------------------------------------------------------------------
# relation consistency loss


def relation_loss_brute_force(a_student, a_teacher, eps: float = 1e-8) -> float:
    """||R_s - R_t||_F^2 / B by pairwise loops, R the row-normalised Gram matrix."""
    a_s = np.asarray(a_student, dtype=np.float64).tolist()
    a_t = np.asarray(a_teacher, dtype=np.float64).tolist()
    b = len(a_s)

    def relation(a):
        gram = [[math.fsum(x * y for x, y in zip(a[i], a[j])) for j in range(b)]
                for i in range(b)]
        rows = []
        for g in gram:
            norm = max(math.sqrt(math.fsum(v * v for v in g)), eps)
            rows.append([v / norm for v in g])
        return rows

    r_s, r_t = relation(a_s), relation(a_t)
    return math.fsum((r_s[i][j] - r_t[i][j]) ** 2 for i in range(b) for j in range(b)) / b


def relation_loss_matches(value: float, a_student, a_teacher,
                          eps: float = 1e-8) -> tuple[bool, str]:
    expected = relation_loss_brute_force(a_student, a_teacher, eps)
    ok = abs(value - expected) <= RELATION_RTOL * max(abs(expected), 1e-30)
    return ok, f"src_loss {value!r} vs pairwise oracle {expected!r}"


# ---------------------------------------------------------------------------
# ROC-AUC


def midrank_auc(scores, labels) -> float:
    """Mann-Whitney AUC from midranks, held doubled so they stay integers.

    With the scores sorted, a group of tied scores occupying 1-based ranks
    lo..hi gets the doubled midrank lo + hi. Then 2U = sum of the doubled
    ranks of the positives - P (P + 1), and AUC = 2U / (2 P N), one correctly
    rounded division, so it equals (wins + ties / 2) / (P N) exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == 1
    n = scores.size
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    doubled = np.empty(n, dtype=np.int64)
    doubled[order] = np.repeat(starts + 1 + ends, ends - starts)
    p = int(positive.sum())
    q = n - p
    if p == 0 or q == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    twice_u = int(doubled[positive].sum()) - p * (p + 1)
    return twice_u / (2 * p * q)


def auc_matches(value: float, scores, labels) -> tuple[bool, str]:
    expected = midrank_auc(scores, labels)
    return value == expected, f"AUC {value!r} vs midrank Mann-Whitney {expected!r}"


# ---------------------------------------------------------------------------
# classification metrics from argmax confusion counts


def confusion_from_argmax(probs, labels, num_classes: int) -> np.ndarray:
    """[K, K] counts: row = true class, column = argmax prediction."""
    pred = np.asarray(probs).argmax(axis=1)
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(out, (np.asarray(labels, dtype=int), pred), 1)
    return out


def metrics_from_confusion(confusion: np.ndarray) -> dict[str, float]:
    """Macro one-vs-rest sensitivity, specificity and F1; micro accuracy."""
    n = int(confusion.sum())
    k = confusion.shape[0]
    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    tn = n - tp - fp - fn

    def ratio(num, den):
        return [float(a) / float(b) if b > 0 else 0.0 for a, b in zip(num, den)]

    return {
        "accuracy": float((tp + tn).sum()) / (n * k),
        "sensitivity": statistics.fmean(ratio(tp, tp + fn)),
        "specificity": statistics.fmean(ratio(tn, tn + fp)),
        "f1": statistics.fmean(ratio(2 * tp, 2 * tp + fp + fn)),
    }


def report_matches_confusion(report, probs, labels) -> tuple[bool, str]:
    """The report's accuracy, sensitivity, specificity and F1 against the
    values recomputed from argmax confusion counts."""
    probs = np.asarray(probs)
    expected = metrics_from_confusion(confusion_from_argmax(probs, labels, probs.shape[1]))
    bad = {name: (getattr(report, name), value) for name, value in expected.items()
           if not abs(getattr(report, name) - value) <= REPORT_ATOL}
    return not bad, f"mismatched (report, oracle): {bad}" if bad else "all four match"


# ---------------------------------------------------------------------------
# sweep summaries


_CELL_KEYS = ("variant", "beta", "labeled_fraction", "seed")


def _csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def summary_matches_results(results_text: str, summary_text: str) -> tuple[bool, str]:
    """summary.csv means and sample sds against ones recomputed from results.csv."""
    header, rows = _csv(results_text)
    metric_names = [h for h in header if h not in _CELL_KEYS]
    groups: dict[tuple[str, str, str], list[dict[str, str]]] = {}
    for row in rows:
        key = (row["variant"], row["beta"], row["labeled_fraction"])
        groups.setdefault(key, []).append(row)
    summary = {(r["variant"], r["beta"], r["labeled_fraction"]): r
               for r in _csv(summary_text)[1]}
    if set(summary) != set(groups):
        return False, f"groups differ: {sorted(summary)} vs {sorted(groups)}"
    for key, rows in groups.items():
        for name in metric_names:
            values = [float(r[name]) for r in rows]
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            got_mean = float(summary[key][f"{name}_mean"])
            got_sd = float(summary[key][f"{name}_sd"])
            if not (abs(got_mean - mean) <= SUMMARY_ATOL and abs(got_sd - sd) <= SUMMARY_ATOL):
                return False, (f"{key} {name}: summary mean/sd {got_mean}/{got_sd}, "
                               f"recomputed {mean}/{sd}")
    return True, f"{len(groups)} groups match"
