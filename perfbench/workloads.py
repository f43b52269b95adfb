"""The benchmark's workloads: timed rounds of relcon calls plus output checks.

Run through ``run.py``, which starts this file in a fresh process with BLAS
threads pinned to 1. A run repeats whole rounds for about ``--seconds``:
it stops where its length comes closest to that. A round sets the workload
up from its seed (timed as ``setup_s``), runs the timed operations, then
checks their outputs untimed. With
``--trace 1`` rounds alternate untraced and traced; the per-layer metrics
come from the traced ones, and the ratio of the two medians is the tracing
overhead. See README.md for the inputs and what each metric means.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from relcon import data as D
from relcon import experiments as E
from relcon import metrics as M
from relcon import models
from relcon import perturb as P
from relcon import trainer as TR

import oracles
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, write_chrome_trace

OUT_DIR = Path(__file__).resolve().parent / "out"
WORKERS = min(2, len(os.sched_getaffinity(0)))


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, by kind; a failed check is a failed op."""

    attempted: dict[str, int] = dataclasses.field(default_factory=dict)
    failed: dict[str, int] = dataclasses.field(default_factory=dict)

    def ops(self, kind: str, attempted: int, failed: int = 0) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def check(self, name: str, result: tuple[bool, str]) -> None:
        ok, detail = result
        self.ops("output check", 1, 0 if ok else 1)
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    @property
    def total(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


@dataclasses.dataclass
class Round:
    setup_s: float
    op_s: list[float]     # wall time of each timed operation
    samples: int          # samples the timed operations consumed


# ---------------------------------------------------------------------------
# train_blobs_src_mt


TRAIN_CONFIG = """
[dataset]
generator = blobs
n = 1000
classes = 3
size = 12
noise_sd = 0.25
center_jitter = 0.15
imbalance_ratio = 1.0
seed = {dataset_seed}

[split]
labeled_fraction = 0.1
stratified = true
seed = {split_seed}

[train]
variant = src_mt
total_epochs = 16
ramp_epochs = 8
learning_rate = 3e-3
conv_channels = 6, 8
dropout_rate = 0.2
seed = {train_seed}

[perturb]
noise_enabled = true
noise_variance = 0.09
noise_clip = 0.5
"""


class _StepProbe:
    """Trainer probe: counts steps and samples, keeps the last step's info."""

    def __init__(self):
        self.steps = 0
        self.bad_steps = 0
        self.samples = 0
        self.last: dict | None = None

    def __call__(self, info: dict) -> None:
        self.steps += 1
        self.samples += info["probs_student"].shape[0]
        if not math.isfinite(info["breakdown"].total):
            self.bad_steps += 1
        self.last = info


class TrainBlobs:
    """One src_mt cell on the acceptance ordering blob images, epoch by epoch."""

    CHECKS = 5

    def __init__(self, seed: int):
        # seed 0 gives the acceptance suite's ordering dataset and split
        self.text = TRAIN_CONFIG.format(dataset_seed=7 + seed, split_seed=29 + seed,
                                        train_seed=seed)
        self.seed = seed
        cfg, splits, _ = self._setup()
        steps = len(D.epoch_batches(splits.labeled, splits.unlabeled, cfg.train.plan,
                                    np.random.default_rng(0)))
        self.ops_per_round = cfg.train.total_epochs * steps + self.CHECKS

    def _setup(self):
        cfg = E.parse_config_text(self.text)
        dataset = E.build_dataset(cfg.dataset)
        arch = E.arch_for(dataset, cfg.model)
        splits = D.split_labeled(dataset, cfg.split)
        state = TR.init_trainer(cfg.train, arch, splits.labeled)
        return cfg, splits, state

    def round(self, tally: Tally, region) -> Round:
        probe = _StepProbe()
        epoch_s = []
        curves = []
        with region:
            t0 = time.perf_counter()
            cfg, splits, state = self._setup()
            setup_s = time.perf_counter() - t0
            for _ in range(cfg.train.total_epochs):
                t0 = time.perf_counter()
                curves.append(TR.train_epoch(state, splits, probe))
                epoch_s.append(time.perf_counter() - t0)
        tally.ops("training step", probe.steps, probe.bad_steps)
        self._check(tally, cfg, splits, state, probe, curves)
        return Round(setup_s, epoch_s, probe.samples)

    def _check(self, tally, cfg, splits, state, probe, curves) -> None:
        last = probe.last
        tally.check("src_loss equals the pairwise oracle on the last batch",
                    oracles.relation_loss_matches(
                        last["breakdown"].relation, last["features_student"],
                        last["features_teacher"], cfg.train.relation_eps))

        # a sample's views depend on its id, not on its place or company
        x, ids = splits.validation.inputs, splits.validation.ids
        key = (cfg.train.seed, 2, state.epoch - 1, 0)
        perm = np.random.default_rng(self.seed).permutation(48)
        base = P.perturb_pair(x[:48], cfg.train.perturb, key, sample_ids=ids[:48])
        shuffled = P.perturb_pair(x[:48][perm], cfg.train.perturb, key,
                                  sample_ids=ids[:48][perm])
        tally.check("perturb_pair views unchanged by permuting the batch",
                    (all(np.array_equal(shuffled[v], base[v][perm]) for v in (0, 1)),
                     "permuted views differ"))
        mixed = np.r_[0:24, 48:72]
        recomposed = P.perturb_pair(x[mixed], cfg.train.perturb, key, sample_ids=ids[mixed])
        tally.check("perturb_pair views unchanged by recomposing the batch",
                    (all(np.array_equal(recomposed[v][:24], base[v][:24]) for v in (0, 1)),
                     "recomposed views differ"))

        losses_ok = all(math.isfinite(v) for c in curves for v in (
            c.loss_supervised, c.loss_consistency, c.loss_relation))
        params_ok = all(np.isfinite(p).all() for params in (state.student, state.teacher)
                        for p in params.values())
        tally.check("losses and parameters finite",
                    (losses_ok and params_ok, f"losses {losses_ok}, params {params_ok}"))

        probs = TR.predict_probs(state.arch, TR.eval_model_params(state),
                                 splits.validation.inputs, state.multilabel)
        accuracy = float((probs.argmax(axis=1) == splits.validation.labels).mean())
        tally.check("final validation accuracy above 1/3",
                    (accuracy > 1 / 3, f"top-1 accuracy {accuracy}"))


# ---------------------------------------------------------------------------
# sweep_moons_te


SWEEP_CONFIG = """
[dataset]
generator = moons
n = 1000
noise_sd = 0.1
seed = {dataset_seed}

[split]
labeled_fraction = 0.1
seed = {split_seed}

[train]
total_epochs = 10
ramp_epochs = 5
learning_rate = 3e-3
hidden = 32, 32

[perturb]
noise_enabled = true
noise_variance = 0.01
noise_clip = 0.2

[sweep]
variant = te, src_te
seeds = {seed_a}, {seed_b}
"""


class SweepMoons:
    """run_experiment over te and src_te x 2 seeds on two moons, then emit_reports."""

    CHECKS = 4

    def __init__(self, seed: int):
        self.text = SWEEP_CONFIG.format(dataset_seed=11 + seed, split_seed=13 + seed,
                                        seed_a=2 * seed, seed_b=2 * seed + 1)
        self.outdir = OUT_DIR / f"sweep-seed{seed}"
        self.digest: str | None = None
        cfg = E.parse_config_text(self.text)
        cells = E.sweep_cells(cfg)
        self.ops_per_round = len(cells) + self.CHECKS
        # samples all cells' training steps consume, from relcon's own batching;
        # batch sizes do not depend on the shuffle, so any rng gives the count
        splits = D.split_labeled(E.build_dataset(cfg.dataset), cfg.split)
        self.samples = 0
        for variant, *_ in cells:
            plan = dataclasses.replace(cfg.train, variant=variant).plan
            batches = D.epoch_batches(splits.labeled, splits.unlabeled, plan,
                                      np.random.default_rng(0))
            self.samples += cfg.train.total_epochs * sum(b.size for b in batches)

    def _setup(self):
        # run_cell repeats this set-up inside each worker; doing it once here
        # too makes setup_s cover the same steps as on the other workloads
        cfg = E.parse_config_text(self.text)
        dataset = E.build_dataset(cfg.dataset)
        D.split_labeled(dataset, cfg.split)
        models.init_params(E.arch_for(dataset, cfg.model), np.random.default_rng(0))
        return cfg

    def round(self, tally: Tally, region) -> Round:
        shutil.rmtree(self.outdir, ignore_errors=True)
        with region:
            t0 = time.perf_counter()
            cfg = self._setup()
            setup_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            report = E.run_experiment(cfg, parallel=WORKERS)
            E.emit_reports(report, self.outdir)
            sweep_s = time.perf_counter() - t0
        errors = [f"{r.run_name}: {r.error}" for r in report.rows if r.error]
        tally.ops("sweep cell", len(report.rows), len(errors))
        self._check(tally, report, errors)
        return Round(setup_s, [sweep_s], self.samples)

    def _check(self, tally, report, errors) -> None:
        tally.check("no cell has an error", (not errors, "; ".join(errors)))
        accuracies = {r.run_name: None if r.metrics is None else r.metrics.accuracy
                      for r in report.rows}
        tally.check("every cell's test accuracy above 0.5",
                    (all(a is not None and a > 0.5 for a in accuracies.values()),
                     str(accuracies)))
        results = (self.outdir / "results.csv").read_text(encoding="utf-8")
        summary = (self.outdir / "summary.csv").read_text(encoding="utf-8")
        tally.check("summary.csv means and sds recomputed from results.csv",
                    oracles.summary_matches_results(results, summary))
        digest = hashlib.sha256(results.encode("utf-8")).hexdigest()
        if self.digest is None:
            self.digest = digest
            print(f"results.csv sha256 {digest}")
        tally.check("results.csv digest identical in every round",
                    (digest == self.digest, f"{digest} != {self.digest}"))


# ---------------------------------------------------------------------------
# eval_blobs_large


EVAL_CONFIG = """
[dataset]
generator = blobs
n = {n}
classes = 3
size = 12
noise_sd = 0.25
center_jitter = 0.15
seed = {dataset_seed}

[train]
conv_channels = 6, 8
"""

EVAL_N = 12000
EVAL_CHUNK = 256
UNCHUNKED_ROWS = 300   # one full chunk and a ragged one


class EvalBlobsLarge:
    """predict_probs then classification_report on a large blob set, untrained weights."""

    CHECKS = 4
    ops_per_round = 1 + CHECKS

    def __init__(self, seed: int):
        self.text = EVAL_CONFIG.format(n=EVAL_N, dataset_seed=17 + seed)
        self.seed = seed

    def _setup(self):
        cfg = E.parse_config_text(self.text)
        dataset = E.build_dataset(cfg.dataset)
        arch = E.arch_for(dataset, cfg.model)
        params = models.init_params(arch, np.random.default_rng(self.seed))
        return dataset, arch, params

    def round(self, tally: Tally, region) -> Round:
        with region:
            t0 = time.perf_counter()
            dataset, arch, params = self._setup()
            setup_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            probs = TR.predict_probs(arch, params, dataset.inputs, False, chunk=EVAL_CHUNK)
            report = M.classification_report(probs, dataset.labels)
            eval_s = time.perf_counter() - t0
        tally.ops("eval pass", 1)
        self._check(tally, dataset, arch, params, probs, report)
        return Round(setup_s, [eval_s], len(dataset))

    def _check(self, tally, dataset, arch, params, probs, report) -> None:
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        tally.check("probability rows sum to 1 within 1e-12",
                    (worst <= 1e-12, f"largest deviation {worst}"))
        whole = TR.predict_probs(arch, params, dataset.inputs[:UNCHUNKED_ROWS], False,
                                 chunk=UNCHUNKED_ROWS)
        gap = float(np.abs(whole - probs[:UNCHUNKED_ROWS]).max())
        tally.check("chunked predictions equal one unchunked pass within 1e-12",
                    (gap <= 1e-12, f"largest difference {gap}"))
        aucs = [oracles.auc_matches(report.per_class_auc[c], probs[:, c],
                                    (dataset.labels == c).astype(int))
                for c in range(probs.shape[1])]
        tally.check("per-class AUC equals midrank Mann-Whitney",
                    (all(ok for ok, _ in aucs), "; ".join(d for _, d in aucs)))
        tally.check("accuracy, sensitivity, specificity, F1 from confusion counts",
                    oracles.report_matches_confusion(report, probs, dataset.labels))


WORKLOADS = {
    "train_blobs_src_mt": TrainBlobs,
    "sweep_moons_te": SweepMoons,
    "eval_blobs_large": EvalBlobsLarge,
}


# ---------------------------------------------------------------------------
# driver


@contextlib.contextmanager
def _installed(tracer: Tracer):
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _peak_rss_mib() -> float:
    """Largest peak RSS of this process and of its waited-for children (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = WORKLOADS[workload](seed)
    tally = Tally()
    tracer = Tracer() if trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    layer_sums: collections.Counter = collections.Counter()
    # stop where the run's length comes closest to `seconds`
    started = time.perf_counter()
    round_s = 0.0
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - started + round_s / 2 < seconds:
        round_started = time.perf_counter()
        is_traced = trace and i % 2 == 1
        region = _installed(tracer) if is_traced else contextlib.nullcontext()
        done_before = tally.total
        try:
            rnd = bench.round(tally, region)
        except Exception:  # noqa: BLE001 - a broken round is reported, not fatal
            traceback.print_exc()
            missing = bench.ops_per_round - (tally.total - done_before)
            tally.ops("operation lost to an exception", missing, missing)
        else:
            (traced if is_traced else plain).append(rnd)
        if is_traced:
            # fold the round's spans now: spans kept across rounds would grow
            # the process that the next sweep forks its workers from
            spans, counts = tracer.take()
            layer_sums.update(layer_metrics(spans, counts, WORKERS))
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(spans, OUT_DIR / f"trace-{workload}-seed{seed}.json")
            del spans
        round_s = time.perf_counter() - round_started
        i += 1

    if trace:
        values = {name: total / len(traced) for name, total in layer_sums.items()}
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(o for r in traced for o in r.op_s)
            / statistics.median(o for r in plain for o in r.op_s) - 1.0)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        op_total = sum(o for r in plain for o in r.op_s)
        metrics = {
            "setup_s": (statistics.median(r.setup_s for r in plain), "s"),
            "samples_per_s": (sum(r.samples for r in plain) / op_total, "samples/s"),
            "op_s_p50": (statistics.median(o for r in plain for o in r.op_s), "s"),
            "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        }

    ops = len([o for r in plain + traced for o in r.op_s])
    print(f"workload {workload}, seed {seed}: {i} rounds ({len(traced)} traced), "
          f"{ops} timed operations, {WORKERS} pool workers")
    for kind, n in tally.attempted.items():
        print(f"  {kind}: attempted {n}, failed {tally.failed[kind]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": tally.total_failed == 0,
        "attempted": tally.total,
        "failed": tally.total_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("run this through perfbench/run.py, which pins BLAS threads",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
