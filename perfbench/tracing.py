"""Span tracer that times calls into relcon from the benchmark's own files.

Nothing under ``src/`` changes. ``Tracer.install`` replaces each traced
function by a timing wrapper under every name a ``relcon`` module binds it
to, which is where calling code looks the name up: ``trainer.perturb_pair``
and ``perturb.perturb_pair`` are the same function, so both names are
rebound. Each tensor op wrapper also wraps the vjp of the node the op
returns, so ``tensor.backward`` runs timed vjps. ``uninstall`` restores
every original binding.

A span is ``[name, start, end, parent index, pid]``. Spans and counters stay
in memory for one round; ``layer_metrics`` folds them into the per-layer
metrics and ``write_chrome_trace`` writes them for a trace viewer.

Sweep cells run in forked pool workers, which inherit the installed
wrappers. In a worker, the ``run_cell`` wrapper collects the cell's spans
afresh and attaches them to the returned row; the ``run_experiment``
wrapper in the parent folds them back in under its own span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from relcon import data, experiments, losses, metrics, models, perturb, trainer
from relcon import tensor as T

_ROW_TRACE_ATTR = "_perfbench_trace"

# tensor functions that are not tape ops, or are traced under another name
_NOT_OPS = frozenset({"constant", "parameter", "backward", "grads_for",
                      "finite_difference_check"})


def _tensor_ops() -> list[str]:
    return sorted(name for name, fn in vars(T).items()
                  if callable(fn) and not isinstance(fn, type)
                  and not name.startswith("_") and name not in _NOT_OPS
                  and getattr(fn, "__module__", None) == T.__name__)


class Tracer:
    def __init__(self):
        self.pid = os.getpid()          # stamped on spans; a worker's own pid there
        self._home_pid = self.pid       # the process that installed the wrappers
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pid])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts, self._stack = [], Counter(), []
        return spans, counts

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def _timed_op(self, fn, op: str):
        span = f"tensor.{op}"
        vjp_span = f"tensor.{op}.vjp"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(span)
            try:
                node = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if isinstance(node, T.Tensor) and node._vjp is not None:
                self.counts["tensor.nodes"] += 1
                node._vjp = self._timed(node._vjp, vjp_span)
            return node
        return wrapper

    def _run_cell(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self._home_pid:
                return self._timed(fn, "experiments.run_cell")(*args, **kwargs)
            # forked pool worker: collect this cell alone and ship it home
            self.take()
            self.pid = os.getpid()
            row = self._timed(fn, "experiments.run_cell")(*args, **kwargs)
            setattr(row, _ROW_TRACE_ATTR, self.take())
            return row
        return wrapper

    def _run_experiment(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter("experiments.run_experiment")
            try:
                report = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            for row in report.rows:
                shipped = row.__dict__.pop(_ROW_TRACE_ATTR, None)
                if shipped is not None:
                    self._adopt(*shipped, parent=idx)
            return report
        return wrapper

    def _adopt(self, spans: list[list], counts: Counter, parent: int) -> None:
        base = len(self.spans)
        for name, start, end, p, pid in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, pid])
        self.counts.update(counts)

    def _forward_name(self, args, kwargs) -> str:
        if self._innermost() == "trainer.predict_probs":
            return "models.forward_eval"
        trainable = kwargs["trainable"] if "trainable" in kwargs else (
            args[5] if len(args) > 5 else True)
        return "models.forward_student" if trainable else "models.forward_teacher"

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every relcon module name bound to ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "relcon" and not mod_name.startswith("relcon."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.pid = self._home_pid = os.getpid()
        plain = [
            (perturb.perturb_pair, "perturb.perturb_pair", _count_views),
            (models.forward, self._forward_name, None),
            (losses.src_loss, "losses.src_loss", None),
            (losses.consistency_mse, "losses.consistency_mse", None),
            (losses.weighted_cross_entropy, "losses.weighted_cross_entropy", None),
            (trainer.train_epoch, "trainer.train_epoch", None),
            (trainer.ema_update, "trainer.ema_update", None),
            (trainer.predict_probs, "trainer.predict_probs", None),
            (data.gen_blob_images, "data.generate", None),
            (data.gen_two_moons, "data.generate", None),
            (data.split_labeled, "data.split", None),
            (data.epoch_batches, "data.epoch_batches", _count_batches),
            (metrics.classification_report, "metrics.classification_report", None),
            (metrics.roc_auc, "metrics.roc_auc", _count_auc_pairs),
            (experiments.parse_config_text, "experiments.parse_config", None),
            (experiments.emit_reports, "experiments.emit_reports", None),
            (T.backward, "tensor.backward", None),
        ]
        for fn, name, count in plain:
            self._rebind(fn, self._timed(fn, name, count))
        for op in _tensor_ops():
            fn = getattr(T, op)
            self._rebind(fn, self._timed_op(fn, op))
        self._rebind(experiments.run_cell, self._run_cell(experiments.run_cell))
        self._rebind(experiments.run_experiment,
                     self._run_experiment(experiments.run_experiment))
        read = data.UnlabeledView.read
        self._patches.append((data.UnlabeledView, "read", read))
        data.UnlabeledView.read = self._timed(read, "data.unlabeled_read", _count_reads)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _count_views(counts, args, result) -> None:
    counts["perturb.views"] += 2 * len(args[0])


def _count_batches(counts, args, result) -> None:
    counts["data.batches"] += len(result)


def _count_reads(counts, args, result) -> None:
    counts["data.unlabeled_reads"] += 1


def _count_auc_pairs(counts, args, result) -> None:
    labels = np.asarray(args[1])
    counts["metrics.auc_pairs"] += int((labels == 1).sum()) * int((labels == 0).sum())


# ---------------------------------------------------------------------------
# aggregation

# per-layer metric -> span names whose inclusive time it sums
_INCLUSIVE = {
    "perturb.perturb_pair_s": ("perturb.perturb_pair",),
    "models.forward_student_s": ("models.forward_student",),
    "models.forward_teacher_s": ("models.forward_teacher",),
    "models.forward_eval_s": ("models.forward_eval",),
    "tensor.conv2d_fwd_s": ("tensor.conv2d",),
    "tensor.conv2d_vjp_s": ("tensor.conv2d.vjp",),
    "tensor.matmul_fwd_s": ("tensor.matmul",),
    "tensor.matmul_vjp_s": ("tensor.matmul.vjp",),
    "losses.src_loss_s": ("losses.src_loss",),
    "losses.consistency_mse_s": ("losses.consistency_mse",),
    "losses.weighted_cross_entropy_s": ("losses.weighted_cross_entropy",),
    "trainer.ema_update_s": ("trainer.ema_update",),
    "trainer.predict_probs_s": ("trainer.predict_probs",),
    "data.generate_s": ("data.generate",),
    "data.split_s": ("data.split",),
    "data.epoch_batches_s": ("data.epoch_batches",),
    "metrics.classification_report_s": ("metrics.classification_report",),
    "metrics.roc_auc_s": ("metrics.roc_auc",),
    "experiments.parse_config_s": ("experiments.parse_config",),
    "experiments.cell_s": ("experiments.run_cell",),
    "experiments.emit_reports_s": ("experiments.emit_reports",),
}
_SELF = {
    "trainer.self_s": "trainer.train_epoch",
    "tensor.backward_self_s": "tensor.backward",
}
_COUNTS = ("perturb.views", "tensor.nodes", "data.batches", "data.unlabeled_reads",
           "metrics.auc_pairs")

PER_LAYER_UNITS = {
    **{name: "s" for name in _INCLUSIVE},
    **{name: "s" for name in _SELF},
    "tensor.other_fwd_s": "s",
    "tensor.other_vjp_s": "s",
    "experiments.pool_wait_s": "s",
    **{name: "count" for name in _COUNTS},
    "experiments.cells": "count",
    "trace.overhead_pct": "%",
}


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Inclusive time, self time and call count per span name.

    Self time is a span's duration minus that of its direct children.
    """
    inclusive: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), children in zip(spans, child_time):
        own[name] += end - start - children
    return inclusive, own, calls


def layer_metrics(spans: list[list], counts: Counter, workers: int) -> dict[str, float]:
    """Per-layer metrics, except the tracing overhead, of one traced round."""
    inclusive, own, calls = span_totals(spans)
    out = {name: sum(inclusive[s] for s in names) for name, names in _INCLUSIVE.items()}
    out.update({name: own[span] for name, span in _SELF.items()})
    fwd_other = vjp_other = 0.0
    for name, seconds in inclusive.items():
        if not name.startswith("tensor.") or name == "tensor.backward":
            continue
        if name in ("tensor.conv2d", "tensor.matmul", "tensor.conv2d.vjp",
                    "tensor.matmul.vjp"):
            continue
        if name.endswith(".vjp"):
            vjp_other += seconds
        else:
            fwd_other += seconds
    out["tensor.other_fwd_s"] = fwd_other
    out["tensor.other_vjp_s"] = vjp_other
    out["experiments.pool_wait_s"] = (
        inclusive["experiments.run_experiment"] - inclusive["experiments.run_cell"] / workers
        if calls["experiments.run_experiment"] else 0.0)
    out.update({name: float(counts[name]) for name in _COUNTS})
    out["experiments.cells"] = float(calls["experiments.run_cell"])
    return out


def write_chrome_trace(spans: list[list], path) -> None:
    """Spans as complete events ("ph": "X") for chrome://tracing or Perfetto."""
    if not spans:
        return
    t0 = min(s[1] for s in spans)
    events = [{"name": name, "ph": "X", "pid": pid, "tid": pid,
               "ts": round((start - t0) * 1e6, 3), "dur": round((end - start) * 1e6, 3)}
              for name, start, end, _, pid in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
