"""Semi-supervised training state machine and the variant registry.

One trainer covers nine variants:

* ``baseline``       supervised on the labeled split only
* ``self_training``  pseudo-labels confident unlabeled samples once per epoch
* ``pi``             consistency vs. a second stochastic forward pass
* ``te``             consistency vs. per-sample temporal-ensemble targets
* ``mt``             consistency vs. an EMA-weight teacher model
* ``fc_mt``          mt plus direct feature-consistency regularization
* ``src_pi/src_te/src_mt``  the above consistency variants plus the
  batch-relation consistency loss

``VARIANT_TABLE`` is the one place that decides what a name means: its
consistency target source and its optional extra feature term.

A step runs the student on one perturbed view and, where the variant has a
target view, the target side on the other with the parameters that
``eval_model_params`` picks (the EMA teacher, else the student). The target
side's probabilities are computed once: they are the consistency target
(unless it comes from the temporal store) and what the step's probe sees.
The same parameters make the validation and test predictions.

The student is optimized with Adam (implemented here from its update
rule); the teacher, where one exists, changes only through the EMA
update, applied once per optimization step. The unsupervised weight
follows the Gaussian ramp exp(-5 (1 - t/T)^2) over the first T epochs,
then stays at 1. Everything is deterministic given the config seed:
initialization, batch order and dropout draw from substreams keyed on
(seed, purpose, epoch, batch, ...), and input perturbations from a
counter-based Philox stream keyed on (seed, purpose, epoch, batch) and
counted on each sample's id and view, so recomputation or extra reads
never shift unrelated draws. An epoch's views are drawn a group of
consecutive batches at a time, each row still under its own batch's key;
where two cores are usable, a helper thread draws the next group while the
current one trains, held in a ``with`` block that joins it however the
epoch ends.

The student and the teacher are ``models.Params``, and Adam's moments
share the layout of the student's ``flat`` buffer. Both updates work on
whole buffers in place, so a parameter dict changes as training goes on,
and a snapshot is ``models.Params(params)``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import losses, metrics, models
from . import tensor as T
from .data import Batch, BatchPlan, Dataset, Splits, UnlabeledView, epoch_batches
from .errors import ConfigError, ContractError, DimensionError
from .models import ArchSpec, Params
from .perturb import PerturbConfig, perturb_pair, substream

# variant -> (consistency target source, extra feature term). Targets come
# from a second student pass ("pi"), the temporal-ensemble store ("te") or
# the EMA teacher ("ema"); the extra term compares student and target-side
# features through the relation loss or direct feature consistency.
VARIANT_TABLE: dict[str, tuple[str | None, str | None]] = {
    "baseline": (None, None),
    "self_training": (None, None),
    "pi": ("pi", None),
    "te": ("te", None),
    "mt": ("ema", None),
    "fc_mt": ("ema", "feature"),
    "src_pi": ("pi", "relation"),
    "src_te": ("te", "relation"),
    "src_mt": ("ema", "relation"),
}
VARIANTS = tuple(VARIANT_TABLE)


def has_target_view(variant: str) -> bool:
    """Whether a step runs the target side on the perturbed view, so that
    teacher features exist: temporal-ensemble targets need it only for an
    extra term."""
    target, extra = VARIANT_TABLE[variant]
    return target is not None and (target != "te" or extra is not None)


# substream purpose tags
_TAG_INIT = 0
_TAG_BATCH = 1
_TAG_PERTURB = 2
_TAG_DROPOUT = 3

# Input values that one perturb_pair call of train_epoch covers at most,
# unless one batch alone holds more. A call spans consecutive batches, which
# saves the call's fixed cost on small inputs; its Gaussian and gather
# temporaries grow with it, and a whole epoch of 12x12 noisy blob images in
# one call raises a training run's peak RSS by about a sixth. Where the next
# group is drawn ahead on a helper thread, two groups' views are held at once.
PERTURB_BLOCK_VALUES = 2 ** 14

# Adam moment decays and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "src_mt"
    alpha: float = 0.99                 # EMA decay of the teacher weights
    beta: float = 1.0                   # weight of the relation/feature term
    ramp_epochs: int = 30
    total_epochs: int = 60
    batch_labeled: int = 12
    batch_unlabeled: int = 36
    learning_rate: float = 1e-4
    lr_decay_power: float = 0.9
    pseudo_label_threshold: float = 0.9
    te_ensemble_rate: float = 0.99
    seed: int = 0
    feature_tap: str = "post_pool"
    teacher_dropout: bool = True
    relation_eps: float = losses.DEFAULT_ROW_NORM_EPS
    perturb: PerturbConfig = field(default_factory=PerturbConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        # the float range checks are written so that NaN fails them
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError("alpha must be in [0, 1)")
        if not self.beta >= 0:
            raise ConfigError("beta must be >= 0")
        if self.ramp_epochs < 1 or self.total_epochs < 1:
            raise ConfigError("epoch counts must be >= 1")
        if self.ramp_epochs > self.total_epochs:
            raise ConfigError("ramp_epochs must not exceed total_epochs")
        if self.batch_labeled < 1 or self.batch_unlabeled < 0:
            raise ConfigError("batch sizes must be >= 1 labeled / >= 0 unlabeled")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
        if not self.lr_decay_power >= 0:
            raise ConfigError("lr_decay_power must be >= 0")
        if not 0.0 < self.pseudo_label_threshold < 1.0:
            raise ConfigError("pseudo_label_threshold must be in (0, 1)")
        if not 0.0 <= self.te_ensemble_rate < 1.0:
            raise ConfigError("te_ensemble_rate must be in [0, 1)")
        if self.feature_tap not in ("post_pool", "pre_pool"):
            raise ConfigError("feature_tap must be 'post_pool' or 'pre_pool'")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be in [0, 2**64)")
        if not self.relation_eps >= 0:
            raise ConfigError("relation_eps must be >= 0")

    @property
    def plan(self) -> BatchPlan:
        if self.variant == "self_training":
            # pseudo-labeled samples join the supervised pool: full batch, all labeled
            return BatchPlan(self.batch_labeled + self.batch_unlabeled, 0)
        target, _ = VARIANT_TABLE[self.variant]
        return BatchPlan(self.batch_labeled, self.batch_unlabeled if target else 0)


@dataclass
class LossBreakdown:
    supervised: float
    consistency: float
    relation: float
    total: float


@dataclass
class CurvePoint:
    epoch: int
    loss_supervised: float
    loss_consistency: float
    loss_relation: float
    ramp_weight: float
    learning_rate: float
    val_auc: float
    val_accuracy: float


class TemporalStore:
    """Per-sample running average of predictions, in arrays indexed by sample id.

    Ids run from 0 to ``num_ids - 1``: ``train_epoch`` creates the store on
    the first epoch with one row per id up to the largest labeled or
    unlabeled one. ``record`` keeps each sample's latest prediction of the
    epoch; ``apply_epoch_update`` folds them in as ensemble <- rate * ensemble
    + (1 - rate) * prediction. Targets are startup-bias corrected by
    1 / (1 - rate**t), t counting the updates a sample has had.
    """

    def __init__(self, rate: float, num_classes: int, num_ids: int):
        self.rate = rate
        self.ensemble = np.zeros((num_ids, num_classes))
        self.pending = np.zeros((num_ids, num_classes))
        self.update_counts = np.zeros(num_ids, dtype=int)
        self.has_pending = np.zeros(num_ids, dtype=bool)
        # 1 - rate**t indexed by t, from Python float powers: np.power can
        # differ from them in the last bit
        self._bias = np.array([0.0])

    def targets(self, ids: np.ndarray, current: np.ndarray) -> np.ndarray:
        """Bias-corrected ensemble rows; ``current`` rows where none exists yet."""
        out = current.copy()
        t = self.update_counts[ids]
        seen = t > 0
        out[seen] = self.ensemble[ids[seen]] / self._bias[t[seen], None]
        return out

    def record(self, ids: np.ndarray, predictions: np.ndarray) -> None:
        """Hold the epoch's predictions; a repeated id keeps its last row."""
        _, last_rev = np.unique(ids[::-1], return_index=True)
        last = ids.shape[0] - 1 - last_rev
        self.pending[ids[last]] = predictions[last]
        self.has_pending[ids[last]] = True

    def apply_epoch_update(self) -> None:
        rows = self.has_pending
        self.ensemble[rows] = self.rate * self.ensemble[rows] \
            + (1.0 - self.rate) * self.pending[rows]
        self.update_counts[rows] += 1
        self.has_pending[:] = False
        self._bias = np.append(self._bias, 1.0 - self.rate ** self._bias.size)


@dataclass
class TrainerState:
    config: TrainConfig
    arch: ArchSpec
    student: Params
    teacher: Params | None
    class_weights: np.ndarray
    multilabel: bool
    adam_m: np.ndarray   # Adam's moments, in the layout of the student's buffer
    adam_v: np.ndarray
    adam_steps: int = 0
    epoch: int = 0
    temporal: TemporalStore | None = None   # created by a te variant's first epoch
    pseudo: tuple[np.ndarray, np.ndarray] | None = None  # (unlabeled rows, hard labels)


@dataclass
class RunResult:
    test_metrics: metrics.MetricsReport
    curves: list[CurvePoint]
    state: TrainerState
    relation_dumps: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# schedule and update primitives


def lambda_rampup(t: float, ramp_epochs: int) -> float:
    """Gaussian warm-up exp(-5 (1 - t/T)^2) on [0, T], exactly 1 afterwards."""
    if ramp_epochs < 1:
        raise ContractError("ramp_epochs must be >= 1")
    if t < 0:
        raise ContractError("t must be >= 0")
    if t >= ramp_epochs:
        return 1.0
    frac = t / ramp_epochs
    return math.exp(-5.0 * (1.0 - frac) ** 2)


def learning_rate_for_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Polynomial decay: lr0 * (1 - epoch/total)^power, applied per epoch."""
    return cfg.learning_rate * (1.0 - epoch / cfg.total_epochs) ** cfg.lr_decay_power


def ema_update(teacher: Params, student: Params, alpha: float) -> None:
    """teacher <- alpha * teacher + (1 - alpha) * student, elementwise over the
    two models' buffers, in place."""
    if not (isinstance(teacher, Params) and isinstance(student, Params)):
        raise ContractError("ema_update needs two models.Params")
    t, s = teacher.flat, student.flat
    if t.shape != s.shape:
        raise ContractError(f"teacher has {t.size} parameters, student {s.size}")
    t[...] = alpha * t + (1.0 - alpha) * s


def combine_losses(supervised: T.Tensor, consistency: T.Tensor | None,
                   relation: T.Tensor | None, ramp_weight: float,
                   relation_weight: float,
                   measured_relation: float = 0.0) -> tuple[T.Tensor, LossBreakdown]:
    """Total objective: supervised + ramp * (consistency + weight * relation).

    ``relation`` must be None when relation_weight is 0: the term is then
    skipped entirely rather than multiplied by zero. ``measured_relation``
    lets callers log a relation value computed outside the objective.
    """
    if relation is not None and relation_weight == 0.0:
        raise ContractError("relation term must be skipped, not zero-weighted")
    total = supervised
    cons_value = 0.0
    rel_value = measured_relation
    if consistency is not None:
        unsup = consistency
        if relation is not None:
            unsup = T.add(unsup, T.scale(relation, relation_weight))
            rel_value = relation.item()
        total = T.add(total, T.scale(unsup, ramp_weight))
        cons_value = consistency.item()
    return total, LossBreakdown(
        supervised=supervised.item(), consistency=cons_value, relation=rel_value,
        total=total.item())


def pseudo_label_select(probs: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose top probability strictly exceeds the threshold, and their
    argmax labels (ties resolve to the lowest class index)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DimensionError(f"probs must be [B, K], got {probs.shape}")
    rows = np.flatnonzero(probs.max(axis=1) > threshold)
    return rows, probs[rows].argmax(axis=1)


# ---------------------------------------------------------------------------
# trainer


def init_trainer(cfg: TrainConfig, arch: ArchSpec, labeled: Dataset) -> TrainerState:
    if len(labeled) == 0:
        raise ConfigError("labeled split is empty; every variant needs supervision")
    target, _ = VARIANT_TABLE[cfg.variant]
    student = models.init_params(arch, substream(cfg.seed, _TAG_INIT))
    teacher = Params(student) if target == "ema" else None
    weights = losses.inverse_frequency_weights(labeled.labels, arch.num_classes)
    return TrainerState(
        config=cfg, arch=arch, student=student, teacher=teacher,
        class_weights=weights, multilabel=labeled.multilabel,
        adam_m=np.zeros_like(student.flat), adam_v=np.zeros_like(student.flat),
    )


def _adam_step(state: TrainerState, grads: dict[str, np.ndarray], lr: float) -> None:
    state.adam_steps += 1
    t = state.adam_steps
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    p, m, v = state.student.flat, state.adam_m, state.adam_v
    # a parameter the loss does not reach gets a zero gradient
    g = np.concatenate([grads.get(name, np.zeros(w.size)) for name, w in state.student.items()],
                       axis=None)
    m[...] = b1 * m + (1 - b1) * g
    v[...] = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _probs_node(logits: T.Tensor, multilabel: bool) -> T.Tensor:
    return T.sigmoid(logits) if multilabel else T.softmax(logits)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict_probs(arch: ArchSpec, params: Params, x: np.ndarray, multilabel: bool,
                  chunk: int = 256) -> np.ndarray:
    """Deterministic eval-mode probabilities, computed in chunks of at most
    ``chunk`` rows.

    With more than one chunk, the chunks run on one thread per usable core
    (at most one per chunk): the calling thread and the threads of a pool
    that the call shuts down before it returns, so no thread outlives it
    into a process that ``run_experiment`` forks. Each thread takes the next
    unclaimed chunk until none is left; numpy releases the interpreter lock
    in the conv patch copy and the GEMMs, so the threads overlap. The caller
    takes chunks rather than waiting because each thread keeps its freed
    activations in its own malloc arena: one pool thread fewer holds about
    10 MB less. Chunk boundaries depend on ``chunk`` alone and the results
    are joined in chunk order, so the output does not depend on the thread
    count. A one-chunk call runs on the caller alone.
    """
    starts = range(0, x.shape[0], chunk)
    outs: list[np.ndarray | None] = [None] * len(starts)
    unclaimed = iter(range(len(starts)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(unclaimed, None)
            if i is None:
                return
            fwd = models.forward(arch, params, x[starts[i]:starts[i] + chunk], mode="eval",
                                 trainable=False)
            outs[i] = _probs_node(fwd.logits, multilabel).data

    helpers = min(len(starts), _usable_cores()) - 1
    # an executor starts no thread before its first submit
    with ThreadPoolExecutor(max_workers=max(1, helpers)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return np.concatenate(outs, axis=0)


def eval_model_params(state: TrainerState) -> Params:
    """Parameters used for prediction and for the target side of a step: the
    EMA teacher when one exists, else the student."""
    return state.teacher if state.teacher is not None else state.student


def _evaluate(state: TrainerState, ds: Dataset) -> metrics.MetricsReport:
    """Metrics of the prediction parameters on a labeled split."""
    probs = predict_probs(state.arch, eval_model_params(state), ds.inputs, state.multilabel)
    return metrics.classification_report(probs, ds.labels)


def _batch_groups(batches: list[Batch]) -> list[range]:
    """Runs of consecutive batch indices whose inputs hold at most
    ``PERTURB_BLOCK_VALUES`` values in total; a larger batch is a run alone."""
    groups = []
    start = 0
    while start < len(batches):
        stop, values = start + 1, batches[start].inputs.size
        while stop < len(batches) and values + batches[stop].inputs.size <= PERTURB_BLOCK_VALUES:
            values += batches[stop].inputs.size
            stop += 1
        groups.append(range(start, stop))
        start = stop
    return groups


def _group_views(cfg: TrainConfig, batches: list[Batch], group: range,
                 epoch: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each batch's student and target views, from one ``perturb_pair`` call
    over the group, every row keyed by its own batch's step key."""
    sizes = [batches[i].size for i in group]
    keys = np.repeat(np.array([(cfg.seed, _TAG_PERTURB, epoch, batch_idx) for batch_idx in group],
                              dtype=np.uint64), sizes, axis=0)
    x = np.concatenate([batches[i].inputs for i in group])
    ids = np.concatenate([batches[i].sample_ids for i in group])
    views = perturb_pair(x, cfg.perturb, keys, sample_ids=ids)
    splits = np.cumsum(sizes)[:-1]
    return np.split(views[0], splits), np.split(views[1], splits)


def _train_step(state: TrainerState, batch: Batch, view_s: np.ndarray, view_t: np.ndarray,
                epoch: int, batch_idx: int, ramp_weight: float, lr: float,
                probe: Callable[[dict], None] | None = None) -> LossBreakdown:
    """One optimization step on a batch and its two perturbed views, the
    student's and the target side's; returns the loss breakdown for logging."""
    cfg = state.config
    target, extra = VARIANT_TABLE[cfg.variant]
    ids = batch.sample_ids
    n_lab = batch.n_labeled
    b = batch.size

    out_s = models.forward(
        state.arch, state.student, view_s, mode="train",
        rng=substream(cfg.seed, _TAG_DROPOUT, epoch, batch_idx, 0), trainable=True)
    probs_s = _probs_node(out_s.logits, state.multilabel)

    lab_logits = out_s.logits if n_lab == b else T.slice_rows(out_s.logits, 0, n_lab)
    supervised = losses.weighted_cross_entropy(lab_logits, batch.y_labeled,
                                               state.class_weights)

    consistency = None
    relation = None
    measured = 0.0
    out_t = probs_t = None
    feat_s_values = feat_t_values = None

    if has_target_view(cfg.variant):
        # the target side: the EMA teacher, or a second stochastic student pass
        out_t = models.forward(
            state.arch, eval_model_params(state), view_t,
            mode="train" if cfg.teacher_dropout else "eval",
            rng=substream(cfg.seed, _TAG_DROPOUT, epoch, batch_idx, 1), trainable=False)
        probs_t = _probs_node(out_t.logits, state.multilabel).data

    if target is not None:
        targets = probs_t if state.temporal is None else state.temporal.targets(ids, probs_s.data)
        consistency = losses.consistency_mse(probs_s, targets)

        if out_t is not None and b >= 2:
            feat_s = models.tap_features(out_s, cfg.feature_tap)
            feat_s_values = feat_s.data
            feat_t_values = models.tap_features(out_t, cfg.feature_tap).data
            if extra == "relation" and cfg.beta > 0.0:
                relation = losses.src_loss(feat_s, feat_t_values, eps=cfg.relation_eps)
            elif extra == "feature" and cfg.beta > 0.0:
                relation = losses.feature_consistency_loss(feat_s, feat_t_values)
            else:
                measured = losses.src_loss(T.constant(feat_s_values), feat_t_values,
                                           eps=cfg.relation_eps).item()

        if state.temporal is not None:
            state.temporal.record(ids, probs_s.data)

    total, breakdown = combine_losses(supervised, consistency, relation,
                                      ramp_weight, cfg.beta, measured)
    grads = T.backward(total)
    _adam_step(state, grads, lr)
    if state.teacher is not None:
        ema_update(state.teacher, state.student, cfg.alpha)

    if probe is not None:
        probe({
            "epoch": epoch, "batch": batch_idx, "breakdown": breakdown,
            "probs_student": probs_s.data,
            "probs_teacher": probs_t,
            "features_student": feat_s_values,
            "features_teacher": feat_t_values,
        })
    return breakdown


def _pseudo_label_pass(state: TrainerState, unlabeled: UnlabeledView) -> None:
    """Refresh pseudo-labels from the model of the previous epoch.

    Single-label rows follow ``pseudo_label_select``. A multi-label row is
    kept when every class score is confident (p > t or p < 1 - t), and its
    label is the multi-hot p > 0.5.
    """
    if len(unlabeled) == 0:
        state.pseudo = None
        return
    probs = predict_probs(state.arch, state.student, unlabeled.read(), state.multilabel)
    t = state.config.pseudo_label_threshold
    if state.multilabel:
        rows = np.flatnonzero(((probs > t) | (probs < 1.0 - t)).all(axis=1))
        labels = (probs[rows] > 0.5).astype(int)
    else:
        rows, labels = pseudo_label_select(probs, t)
    state.pseudo = (rows, labels) if rows.size else None


def _self_training_pool(state: TrainerState, splits: Splits) -> Dataset:
    labeled = splits.labeled
    if state.pseudo is None:
        return labeled
    rows, labels = state.pseudo
    extra_inputs = splits.unlabeled.read(rows)
    return Dataset(
        np.concatenate([labeled.inputs, extra_inputs], axis=0),
        np.concatenate([labeled.labels, labels]),
        labeled.num_classes,
        ids=np.concatenate([labeled.ids, splits.unlabeled.ids[rows]]),
    )


def train_epoch(state: TrainerState, splits: Splits,
                probe: Callable[[dict], None] | None = None) -> CurvePoint:
    """Run one epoch (state is advanced in place) and return its curve point.

    The caller draws the first group of views (see ``_batch_groups``). With
    two or more groups and two usable cores, a helper thread draws group
    k + 1 while group k trains (numpy releases the interpreter lock in the
    Philox and Box-Muller ufuncs); otherwise each group is drawn when due."""
    cfg = state.config
    epoch = state.epoch
    if epoch >= cfg.total_epochs:
        raise ContractError(f"training already ran all {cfg.total_epochs} epochs")
    ramp_weight = lambda_rampup(epoch, cfg.ramp_epochs)
    lr = learning_rate_for_epoch(cfg, epoch)
    batch_rng = substream(cfg.seed, _TAG_BATCH, epoch)
    if epoch == 0 and VARIANT_TABLE[cfg.variant][0] == "te":
        # steps see only the ids of the labeled and unlabeled splits
        num_ids = max(splits.labeled.ids.max(), splits.unlabeled.ids.max(initial=0)) + 1
        state.temporal = TemporalStore(cfg.te_ensemble_rate, state.arch.num_classes, num_ids)

    pool = splits.labeled
    if cfg.variant == "self_training":
        if epoch > 0:
            _pseudo_label_pass(state, splits.unlabeled)
        pool = _self_training_pool(state, splits)
    # a plan without unlabeled slots never reads the unlabeled split
    batches = epoch_batches(pool, splits.unlabeled, cfg.plan, batch_rng)

    groups = _batch_groups(batches)
    ahead = len(groups) >= 2 and _usable_cores() >= 2
    sums = np.zeros(3)
    # leaving the block joins the helper even when a step raises, so none
    # outlives the epoch into a process that run_experiment forks
    with ThreadPoolExecutor(max_workers=1) as helper:
        following = None
        for k, group in enumerate(groups):
            views = following.result() if following is not None else \
                _group_views(cfg, batches, group, epoch)
            following = helper.submit(_group_views, cfg, batches, groups[k + 1], epoch) \
                if ahead and k + 1 < len(groups) else None
            for batch_idx, view_s, view_t in zip(group, *views):
                bd = _train_step(state, batches[batch_idx], view_s, view_t, epoch, batch_idx,
                                 ramp_weight, lr, probe)
                sums += (bd.supervised, bd.consistency, bd.relation)
    means = sums / max(1, len(batches))

    if state.temporal is not None:
        state.temporal.apply_epoch_update()

    val_report = _evaluate(state, splits.validation)
    state.epoch += 1
    return CurvePoint(
        epoch=epoch, loss_supervised=float(means[0]), loss_consistency=float(means[1]),
        loss_relation=float(means[2]), ramp_weight=ramp_weight, learning_rate=lr,
        val_auc=val_report.auc, val_accuracy=val_report.accuracy)


def run_variant(cfg: TrainConfig, arch: ArchSpec, splits: Splits,
                relation_dump_epochs: tuple[int, ...] = ()) -> RunResult:
    """Train one variant to completion and evaluate on the test split, keeping
    batch 0's relation matrices in each of ``relation_dump_epochs``."""
    state = init_trainer(cfg, arch, splits.labeled)
    dumps: dict[int, dict[str, np.ndarray]] = {}
    dump_epochs = set(relation_dump_epochs)

    def dump_probe(info: dict) -> None:
        if info["epoch"] in dump_epochs and info["batch"] == 0 \
                and info["features_student"] is not None:
            r_s = losses.relation_matrix(T.constant(info["features_student"]),
                                         cfg.relation_eps).data
            r_t = losses.relation_matrix(T.constant(info["features_teacher"]),
                                         cfg.relation_eps).data
            dumps[info["epoch"]] = {
                "student": r_s, "teacher": r_t,
                "distance": losses.distance_matrix(r_s, r_t),
            }

    curves = [train_epoch(state, splits, dump_probe) for _ in range(cfg.total_epochs)]
    return RunResult(test_metrics=_evaluate(state, splits.test), curves=curves, state=state,
                     relation_dumps=dumps)
