"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here. The ordering experiment (criterion 7)
trains 30 runs of 40 epochs, two at a time in worker processes, and dominates
the runtime.
"""

import hashlib
import subprocess
import sys
import time

import numpy as np
import pytest

from relcon import data as D
from relcon import experiments as E
from relcon import selftest
from relcon import trainer as TR
from relcon.models import ArchSpec


def _report(criterion: str, detail: str = ""):
    print(f"\n[PASS] {criterion}" + (f"  ({detail})" if detail else ""))


def _digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].tobytes())
    return h.hexdigest()


def test_criterion_1_gradient_oracle():
    """Every loss matches central differences at 1e-4 over 100+ random cases."""
    started = time.perf_counter()
    _, ok, detail = selftest.check_loss_gradients(100)
    assert ok, detail
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"gradient oracle took {elapsed:.0f}s (limit 120s)"
    _report("criterion 1: loss-gradient oracle", f"{detail}, {elapsed:.1f}s")


def test_criterion_2_relation_algebra():
    """Gram/relation invariants over 1000 random batches."""
    started = time.perf_counter()
    _, ok, detail = selftest.check_relation_algebra(1000)
    assert ok, detail
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"relation algebra took {elapsed:.0f}s (limit 60s)"
    _report("criterion 2: relation-matrix algebra", f"{elapsed:.1f}s")


def test_criterion_3_relation_loss_brute_force():
    """Matrix-form relation loss equals a pairwise double loop, 500 instances."""
    _, ok, detail = selftest.check_relation_loss_bruteforce(500)
    assert ok, detail
    _report("criterion 3: relation loss vs brute force")


def test_criterion_4_ema_closed_form():
    """Teacher gap equals alpha^t * initial gap to 1e-12 for 1000 steps."""
    _, ok, detail = selftest.check_ema_closed_form(1000)
    assert ok, detail
    _report("criterion 4: EMA closed form", detail)


def test_criterion_5_rampup_endpoints():
    """Warm-up endpoints exact; nondecreasing over 1000 sample points."""
    _, ok, detail = selftest.check_rampup(1000)
    assert ok, detail
    _report("criterion 5: ramp-up endpoints and monotonicity")


def _collapse_splits():
    ds = D.gen_blob_images(400, 3, 10, 1.0, np.random.default_rng(11), noise_sd=0.1)
    return D.split_labeled(ds, D.SplitSpec(0.1, True, 4))


def test_criterion_6_variant_collapse():
    """MT and the relation variant at weight 0 coincide bitwise; the
    supervised baseline never touches unlabeled inputs."""
    started = time.perf_counter()
    arch = ArchSpec(input_shape=(1, 10, 10), num_classes=3, conv_channels=(5, 6),
                    dropout_rate=0.2)

    def run(variant, beta):
        cfg = TR.TrainConfig(variant=variant, beta=beta, total_epochs=4,
                             ramp_epochs=3, seed=123, learning_rate=1e-3)
        splits = _collapse_splits()
        state = TR.init_trainer(cfg, arch, splits.labeled)
        trail = []
        for _ in range(cfg.total_epochs):
            point = TR.train_epoch(state, splits)
            trail.append((point, _digest(state.student), _digest(state.teacher)))
        return trail

    trail_mt = run("mt", 0.0)
    trail_src = run("src_mt", 0.0)
    for (pt_a, s_a, t_a), (pt_b, s_b, t_b) in zip(trail_mt, trail_src):
        assert pt_a == pt_b
        assert s_a == s_b and t_a == t_b

    splits = _collapse_splits()
    cfg = TR.TrainConfig(variant="baseline", total_epochs=4, ramp_epochs=3, seed=123,
                         learning_rate=1e-3)
    TR.run_variant(cfg, arch, splits)
    assert splits.unlabeled.reads == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"variant collapse took {elapsed:.0f}s (limit 300s)"
    _report("criterion 6: variant-collapse identities",
            f"4-epoch trajectories bitwise equal, {elapsed:.1f}s")


ORDERING_CONFIG = """
[dataset]
generator = blobs
n = 1000
classes = 3
size = 12
noise_sd = 0.25
center_jitter = 0.15
imbalance_ratio = 1.0
seed = 7

[split]
labeled_fraction = 0.1
stratified = true
seed = 29

[train]
total_epochs = 40
ramp_epochs = 15
learning_rate = 3e-3
conv_channels = 6, 8
dropout_rate = 0.2

[perturb]
noise_enabled = true
noise_variance = 0.09
noise_clip = 0.5

[sweep]
variant = baseline, mt, src_mt
beta = 1.0
seeds = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
"""


def test_criterion_7_desk_scale_ordering():
    """Mean test accuracy: relation variant >= mean teacher - 0.5pp and
    >= supervised baseline; optimizing the relation term (weight 1) lowers
    its converged value below the value merely measured at weight 0."""
    started = time.perf_counter()
    cfg = E.parse_config_text(ORDERING_CONFIG)
    report = E.run_experiment(cfg, parallel=2)
    assert not report.failed, [r.error for r in report.rows if r.error]

    acc = {v: np.mean([E._row_metrics(r)[3] for r in report.rows if r.variant == v])
           for v in ("baseline", "mt", "src_mt")}
    rel_tail = {
        v: np.mean([np.mean([c.loss_relation for c in r.curves[-5:]])
                    for r in report.rows if r.variant == v])
        for v in ("mt", "src_mt")}

    assert acc["src_mt"] >= acc["mt"] - 0.005, acc
    assert acc["src_mt"] >= acc["baseline"], acc
    assert rel_tail["src_mt"] < rel_tail["mt"], rel_tail

    elapsed = time.perf_counter() - started
    assert elapsed < 1200.0, f"ordering experiment took {elapsed:.0f}s (limit 1200s)"
    _report(
        "criterion 7: desk-scale ordering",
        f"acc baseline {acc['baseline']:.4f} | mt {acc['mt']:.4f} | "
        f"src_mt {acc['src_mt']:.4f}; relation tail optimized "
        f"{rel_tail['src_mt']:.5f} < measured {rel_tail['mt']:.5f}; {elapsed:.0f}s")


def test_criterion_8_metrics_oracle():
    """Rank-statistic AUC equals exhaustive pair counting on 200 sets."""
    _, ok, detail = selftest.check_auc_oracle(200)
    assert ok, detail
    _report("criterion 8: AUC pairwise oracle and complement identity")


REPRO_CONFIG = """
[dataset]
generator = blobs
n = 200
classes = 2
size = 8
noise_sd = 0.1
seed = 3

[split]
labeled_fraction = 0.2
seed = 1

[train]
variant = src_mt
total_epochs = 3
ramp_epochs = 2
batch_labeled = 6
batch_unlabeled = 12
learning_rate = 1e-3
conv_channels = 4, 5
seed = 0

[sweep]
variant = mt, src_mt
seeds = 0, 1
"""


def test_criterion_9_cli_reproducibility(tmp_path):
    """Two CLI runs of the same config produce byte-identical CSVs."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(REPRO_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "relcon.cli", "run", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    curves_a = sorted(p.relative_to(a) for p in a.rglob("curves.csv"))
    curves_b = sorted(p.relative_to(b) for p in b.rglob("curves.csv"))
    assert curves_a == curves_b and curves_a
    for rel in curves_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    _report("criterion 9: byte-identical re-run",
            f"{len(curves_a)} curve files compared")
