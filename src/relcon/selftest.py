"""Verification oracles, runnable without pytest.

Each check re-derives expected behavior from an independent route
(central differences, exhaustive pair counting, closed forms) and
compares it against the library. The acceptance suite calls these checks
at its instance counts; ``run_all`` runs them at small counts, prints one
PASS/FAIL line per check and returns the number of failures.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from . import losses, metrics, models
from . import tensor as T
from .data import gen_blob_images, load_dataset, save_dataset
from .trainer import ema_update, lambda_rampup

Check = tuple[str, bool, str]

# Worst-case errors are tracked with np.maximum so that a NaN propagates and
# fails the tolerance test instead of being skipped by max().


def check_loss_gradients(instances: int) -> Check:
    """Every loss, multi-label cross-entropy included, against central
    differences (eps 1e-5) to relative error 1e-4."""
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(instances):
        b = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        y = rng.integers(0, k, size=b)
        y_multi = rng.integers(0, 2, size=(b, k))
        w = rng.uniform(0.5, 2.0, size=k)
        p_t = rng.dirichlet(np.ones(k), size=b)
        a_t = rng.normal(size=(b, d))
        cases = [
            (lambda t: losses.weighted_cross_entropy(t, y, w), (b, k)),
            (lambda t: losses.weighted_cross_entropy(t, y_multi, w), (b, k)),
            (lambda t: losses.consistency_mse(T.softmax(t), p_t), (b, k)),
            (lambda t: losses.src_loss(t, a_t), (b, d)),
            (lambda t: losses.feature_consistency_loss(t, a_t), (b, d)),
        ]
        for f, shape in cases:
            err = T.finite_difference_check(f, rng.normal(size=shape), eps=1e-5)
            worst = np.maximum(worst, err)
    ok = bool(worst <= 1e-4)
    return ("loss gradients vs central differences", ok, f"max rel err {worst:.2e}")


def check_relation_algebra(batches: int) -> Check:
    """Gram symmetry, unit relation rows, scale and permutation equivariance."""
    rng = np.random.default_rng(7)
    worst_sym = worst_norm = worst_scale = worst_perm = 0.0
    for _ in range(batches):
        b = int(rng.integers(2, 12))
        d = int(rng.integers(1, 24))
        a = rng.normal(size=(b, d))
        g = losses.gram_matrix(T.constant(a)).data
        worst_sym = np.maximum(worst_sym, np.abs(g - g.T).max())
        r = losses.relation_matrix(T.constant(a)).data
        worst_norm = np.maximum(worst_norm, np.abs(np.linalg.norm(r, axis=1) - 1.0).max())
        for c in (0.5, 3.7, 100.0):
            rc = losses.relation_matrix(T.constant(c * a)).data
            worst_scale = np.maximum(worst_scale, np.abs(rc - r).max())
        p = rng.permutation(b)
        rp = losses.relation_matrix(T.constant(a[p])).data
        worst_perm = np.maximum(worst_perm, np.abs(rp - r[np.ix_(p, p)]).max())
    ok = bool(worst_sym <= 1e-12 and worst_norm <= 1e-9
          and worst_scale <= 1e-9 and worst_perm <= 1e-12)
    return ("relation matrix algebra", ok,
            f"sym {worst_sym:.1e} norm {worst_norm:.1e} "
            f"scale {worst_scale:.1e} perm {worst_perm:.1e}")


def check_relation_loss_bruteforce(instances: int) -> Check:
    """Matrix-form relation loss against a pairwise double loop, to 1e-10 relative."""
    rng = np.random.default_rng(13)
    worst = 0.0
    ok = True
    for _ in range(instances):
        b = int(rng.integers(2, 17))
        d = int(rng.integers(1, 33))
        a1, a2 = rng.normal(size=(b, d)), rng.normal(size=(b, d))
        fast = losses.src_loss(T.constant(a1), a2).item()

        def rel(a):
            g = [[sum(a[i][x] * a[j][x] for x in range(d)) for j in range(b)]
                 for i in range(b)]
            rows = []
            for i in range(b):
                norm = max(math.sqrt(sum(v * v for v in g[i])), 1e-8)
                rows.append([v / norm for v in g[i]])
            return rows

        r1, r2 = rel(a1), rel(a2)
        slow = sum((r1[i][j] - r2[i][j]) ** 2 for i in range(b) for j in range(b)) / b
        ok = ok and abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-30)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-30))
    return ("relation loss vs pairwise double loop", ok, f"max rel err {worst:.2e}")


def check_ema_closed_form(steps: int) -> Check:
    """Teacher-student gap equals alpha^t times the initial gap, to 1e-12."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for alpha in (0.9, 0.99):
        student = models.Params({"w": rng.normal(size=(5, 4))})
        gap = rng.normal(size=(5, 4))
        teacher = models.Params({"w": student["w"] + gap})
        for t in range(1, steps + 1):
            ema_update(teacher, student, alpha)
            err = np.abs(teacher["w"] - student["w"] - alpha ** t * gap).max()
            worst = np.maximum(worst, err)
    ok = bool(worst <= 1e-12)
    return (f"EMA gap closed form over {steps} steps", ok, f"max abs err {worst:.1e}")


def check_rampup(points: int) -> Check:
    """Exact warm-up endpoints; nondecreasing over ``points`` samples of [0, T]."""
    samples = [lambda_rampup(t, 30) for t in np.linspace(0.0, 30.0, points)]
    ok = (abs(lambda_rampup(0, 30) - math.exp(-5)) <= 1e-12
          and lambda_rampup(30, 30) == 1.0
          and all(lambda_rampup(t, 30) == 1.0 for t in (31, 45, 10_000))
          and all(b >= a for a, b in zip(samples, samples[1:])))
    return ("ramp-up endpoints and monotonicity", ok, "")


def check_auc_oracle(sets: int) -> Check:
    """AUC equals exhaustive pair counting exactly, on tied and Gaussian scores,
    and AUC(s) + AUC(-s) == 1."""
    name = "AUC vs exhaustive pair counting"
    rng = np.random.default_rng(99)
    for i in range(sets):
        n = int(rng.integers(4, 51))
        if i % 2 == 0:
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        wins = ties = 0
        for a in range(n):
            for bq in range(n):
                if labels[a] == 1 and labels[bq] == 0:
                    wins += scores[a] > scores[bq]
                    ties += scores[a] == scores[bq]
        p, q = int(labels.sum()), n - int(labels.sum())
        expected = (wins + 0.5 * ties) / (p * q)
        got = metrics.roc_auc(scores, labels)
        if got != expected:
            return (name, False, f"set {i}: {got!r} != {expected!r}")
        if metrics.roc_auc(scores, labels) + metrics.roc_auc(-scores, labels) != 1.0:
            return (name, False, f"set {i}: complement identity broken")
    return (name, True, "")


def check_dataset_round_trip() -> Check:
    """A saved dataset file loads back to the same inputs and labels."""
    ds = gen_blob_images(24, 2, 8, 1.0, np.random.default_rng(3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
    ok = np.array_equal(ds.inputs, back.inputs) and np.array_equal(ds.labels, back.labels)
    return ("dataset file round trip", ok, "")


# each check with the instance count ``run_all`` gives it; the acceptance
# suite runs the same checks at its larger counts
ALL_CHECKS = (
    (check_loss_gradients, (10,)),
    (check_relation_algebra, (200,)),
    (check_relation_loss_bruteforce, (50,)),
    (check_ema_closed_form, (1000,)),
    (check_rampup, (1000,)),
    (check_auc_oracle, (50,)),
    (check_dataset_round_trip, ()),
)


def run_all() -> int:
    failures = 0
    for check, counts in ALL_CHECKS:
        name, ok, detail = check(*counts)
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
    return failures
