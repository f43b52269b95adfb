"""Synthetic datasets, labeled/unlabeled splitting, and batch planning.

Two generator families stand in for real data at desk scale:

* two interleaved half-circles in the plane (vector data), and
* grayscale blob images whose class determines blob radius and intensity
  but not position, so flips and small translations preserve the class.

Splitting follows a 70/10/20 train/validation/test partition; within the
training part a configurable fraction becomes the labeled set and the rest
an unlabeled view whose labels are hidden from training code (they are
retained privately for oracle evaluation only, and every read of the
unlabeled inputs is counted).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, FormatError, SplitError

_MAGIC = b"RCDS"
_VERSION = 1


@dataclass
class Dataset:
    inputs: np.ndarray        # [N, D] vectors or [N, C, H, W] images
    labels: np.ndarray        # [N] class indices or [N, K] multi-hot
    kind: str                 # "vector" | "image"
    num_classes: int
    ids: np.ndarray | None = None   # stable per-sample ids; default arange

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels)
        if self.kind not in ("vector", "image"):
            raise ContractError(f"kind must be 'vector' or 'image', got {self.kind!r}")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DimensionError("inputs and labels disagree on sample count")
        if self.ids is None:
            self.ids = np.arange(len(self))
        self.ids = np.asarray(self.ids, dtype=int)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def multilabel(self) -> bool:
        return self.labels.ndim == 2

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.kind,
                       self.num_classes, ids=self.ids[idx])


class UnlabeledView:
    """Inputs-only view of a dataset slice.

    Training code can see ``ids`` and call ``read``; the ground-truth
    labels are hidden behind ``oracle_labels`` which exists solely for
    post-hoc evaluation. ``reads`` counts every input access.
    """

    def __init__(self, inputs: np.ndarray, ids: np.ndarray, hidden_labels: np.ndarray):
        self._inputs = inputs
        self.ids = np.asarray(ids, dtype=int)
        self._hidden_labels = hidden_labels
        self.reads = 0

    def __len__(self) -> int:
        return self._inputs.shape[0]

    def read(self, idx=None) -> np.ndarray:
        """Fetch (a subset of) the unlabeled inputs; every call is counted."""
        self.reads += 1
        return self._inputs if idx is None else self._inputs[idx]

    def oracle_labels(self) -> np.ndarray:
        """Hidden labels, for evaluation harnesses only (never the trainer)."""
        return self._hidden_labels


@dataclass(frozen=True)
class SplitSpec:
    labeled_fraction: float = 0.2
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise ContractError("labeled_fraction must be in (0, 1]")


@dataclass(frozen=True)
class BatchPlan:
    n_labeled: int = 12
    n_unlabeled: int = 36

    def __post_init__(self):
        if self.n_labeled < 1 or self.n_unlabeled < 0:
            raise ContractError("batch plan needs n_labeled >= 1 and n_unlabeled >= 0")

    @property
    def batch_size(self) -> int:
        return self.n_labeled + self.n_unlabeled


@dataclass
class Batch:
    x_labeled: np.ndarray
    y_labeled: np.ndarray
    ids_labeled: np.ndarray
    x_unlabeled: np.ndarray | None = None
    ids_unlabeled: np.ndarray | None = None

    @property
    def n_labeled(self) -> int:
        return self.x_labeled.shape[0]

    @property
    def inputs(self) -> np.ndarray:
        if self.x_unlabeled is None or self.x_unlabeled.shape[0] == 0:
            return self.x_labeled
        return np.concatenate([self.x_labeled, self.x_unlabeled], axis=0)

    @property
    def sample_ids(self) -> np.ndarray:
        if self.ids_unlabeled is None or len(self.ids_unlabeled) == 0:
            return self.ids_labeled
        return np.concatenate([self.ids_labeled, self.ids_unlabeled])

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Splits:
    labeled: Dataset
    unlabeled: UnlabeledView
    validation: Dataset
    test: Dataset


# ---------------------------------------------------------------------------
# generators


def gen_two_moons(n: int, noise_sd: float, rng: np.random.Generator) -> Dataset:
    """Two interleaved half-circles with Gaussian jitter."""
    if n % 2 != 0:
        raise ContractError("n must be even")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    pts = np.concatenate([upper, lower], axis=0)
    pts = pts + rng.normal(0.0, noise_sd, size=pts.shape) if noise_sd > 0 else pts
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return Dataset(pts, labels, "vector", 2)


def geometric_class_counts(n: int, num_classes: int, ratio: float) -> np.ndarray:
    """Partition n into class counts following a geometric ratio.

    Class k receives weight ratio**(K-1-k); rounding uses the largest
    remainder rule so the counts always sum to n.
    """
    if ratio <= 0:
        raise ContractError("imbalance ratio must be > 0")
    weights = np.array([ratio ** (num_classes - 1 - k) for k in range(num_classes)])
    exact = n * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    remainder = exact - counts
    for idx in np.argsort(-remainder)[: n - counts.sum()]:
        counts[idx] += 1
    if (counts < 1).any():
        raise ContractError("class count rounded to zero; increase n or reduce ratio")
    return counts


def gen_blob_images(n: int, num_classes: int, size: int, imbalance_ratio: float,
                    rng: np.random.Generator, noise_sd: float = 0.05,
                    center_jitter: float = 0.15) -> Dataset:
    """Grayscale images with one Gaussian blob per image.

    The class fixes the blob's radius and intensity; the blob center is
    drawn uniformly (class-independent), so flips and translations keep
    the class recognizable. ``center_jitter`` is the center spread as a
    fraction of the image size; with it and ``noise_sd`` both zero, images
    within a class are identical.
    """
    if size < 8:
        raise ContractError("size must be >= 8")
    if num_classes < 2:
        raise ContractError("need at least 2 classes")
    counts = geometric_class_counts(n, num_classes, imbalance_ratio)
    grid_y, grid_x = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.zeros((n, 1, size, size))
    labels = np.zeros(n, dtype=int)
    row = 0
    for k in range(num_classes):
        frac = (k + 1) / (num_classes + 1)
        sigma = size * (0.08 + 0.10 * frac)
        intensity = 0.55 + 0.45 * frac
        for _ in range(counts[k]):
            cy = size / 2.0 + rng.uniform(-center_jitter * size, center_jitter * size)
            cx = size / 2.0 + rng.uniform(-center_jitter * size, center_jitter * size)
            blob = intensity * np.exp(-((grid_y - cy) ** 2 + (grid_x - cx) ** 2) / (2 * sigma ** 2))
            if noise_sd > 0:
                blob = blob + rng.normal(0.0, noise_sd, size=(size, size))
            images[row, 0] = blob
            labels[row] = k
            row += 1
    return Dataset(images, labels, "image", num_classes)


def gen_multiblob_images(n: int, size: int, rng: np.random.Generator,
                         noise_sd: float = 0.05, num_types: int = 3) -> Dataset:
    """Multi-label surrogate: up to ``num_types`` blob kinds per image.

    Each blob kind (its own radius and intensity) is independently present
    with probability 0.5, yielding a multi-hot target per image. Every kind
    is guaranteed at least one positive and one negative sample.
    """
    if size < 8:
        raise ContractError("size must be >= 8")
    present = rng.random((n, num_types)) < 0.5
    for c in range(num_types):   # keep every column non-degenerate
        if not present[:, c].any():
            present[c % n, c] = True
        if present[:, c].all():
            present[c % n, c] = False
    grid_y, grid_x = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.zeros((n, 1, size, size))
    for i in range(n):
        canvas = np.zeros((size, size))
        for c in range(num_types):
            cy = size / 2.0 + rng.uniform(-0.2 * size, 0.2 * size)
            cx = size / 2.0 + rng.uniform(-0.2 * size, 0.2 * size)
            if not present[i, c]:
                continue
            frac = (c + 1) / (num_types + 1)
            sigma = size * (0.06 + 0.08 * frac)
            intensity = 0.5 + 0.5 * frac
            canvas += intensity * np.exp(
                -((grid_y - cy) ** 2 + (grid_x - cx) ** 2) / (2 * sigma ** 2))
        if noise_sd > 0:
            canvas = canvas + rng.normal(0.0, noise_sd, size=(size, size))
        images[i, 0] = canvas
    return Dataset(images, present.astype(int), "image", num_types)


# ---------------------------------------------------------------------------
# splitting and batching


def _stratified_pick(labels: np.ndarray, pool: np.ndarray, quota: int) -> np.ndarray:
    """Pick ``quota`` indices from ``pool`` preserving class ratios (+/- 1)."""
    classes = np.unique(labels[pool])
    exact = np.array([quota * (labels[pool] == c).sum() / len(pool) for c in classes])
    take = np.floor(exact).astype(int)
    remainder = exact - take
    for idx in np.argsort(-remainder)[: quota - take.sum()]:
        take[idx] += 1
    picked = []
    for c, t in zip(classes, take):
        members = pool[labels[pool] == c]
        if t == 0:
            raise SplitError(f"class {c} would be absent from the labeled split")
        picked.append(members[:t])
    return np.concatenate(picked)


def split_labeled(ds: Dataset, spec: SplitSpec) -> Splits:
    """70/10/20 train/val/test, then carve the labeled set out of train."""
    n = len(ds)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.1 * n))
    train_idx = perm[:n_train]
    val_idx = perm[n_train:n_train + n_val]
    test_idx = perm[n_train + n_val:]

    quota = int(round(spec.labeled_fraction * n_train))
    quota = max(quota, 1)
    if spec.stratified and not ds.multilabel:
        labeled_idx = _stratified_pick(ds.labels, train_idx, quota)
    else:
        labeled_idx = train_idx[:quota]
    labeled_set = set(labeled_idx.tolist())
    unlabeled_idx = np.array([i for i in train_idx if i not in labeled_set], dtype=int)

    if not ds.multilabel:
        present = np.unique(ds.labels[labeled_idx])
        if len(present) < ds.num_classes:
            raise SplitError(
                f"labeled split covers {len(present)} of {ds.num_classes} classes")

    labeled = ds.subset(labeled_idx)
    unlabeled = UnlabeledView(ds.inputs[unlabeled_idx], ds.ids[unlabeled_idx],
                              ds.labels[unlabeled_idx])
    return Splits(labeled, unlabeled, ds.subset(val_idx), ds.subset(test_idx))


def epoch_batches(labeled: Dataset, unlabeled: UnlabeledView | None,
                  plan: BatchPlan, rng: np.random.Generator) -> list[Batch]:
    """One epoch of batches.

    The unlabeled stream is covered exactly once (without replacement,
    reshuffled here); the labeled stream cycles with reshuffling whenever
    it runs out. With no unlabeled stream the epoch covers the labeled set
    once in chunks of ``n_labeled``.
    """
    if len(labeled) < 1:
        raise ContractError("need at least one labeled sample")

    def labeled_cycler():
        while True:
            for i in rng.permutation(len(labeled)):
                yield i

    if unlabeled is None or plan.n_unlabeled == 0 or len(unlabeled) == 0:
        order = rng.permutation(len(labeled))
        chunks = [order[i:i + plan.n_labeled] for i in range(0, len(order), plan.n_labeled)]
        return [
            Batch(labeled.inputs[chunk], labeled.labels[chunk], labeled.ids[chunk])
            for chunk in chunks
        ]

    u_order = rng.permutation(len(unlabeled))
    cycler = labeled_cycler()
    batches = []
    for start in range(0, len(u_order), plan.n_unlabeled):
        chunk = u_order[start:start + plan.n_unlabeled]
        lab_idx = np.array([next(cycler) for _ in range(plan.n_labeled)])
        batches.append(Batch(
            labeled.inputs[lab_idx], labeled.labels[lab_idx], labeled.ids[lab_idx],
            unlabeled.read(chunk), unlabeled.ids[chunk]))
    return batches


# ---------------------------------------------------------------------------
# file IO


def _kind_byte(ds: Dataset) -> int:
    return (1 if ds.kind == "image" else 0) | (2 if ds.multilabel else 0)


def save_dataset(ds: Dataset, path) -> None:
    """Binary format: magic, version u32, kind u8, N u32, K u32, three u32
    per-sample dims, little-endian f64 inputs, then the label block (u16
    class index per sample, or K bytes of multi-hot)."""
    dims = ds.inputs.shape[1:]
    dims3 = tuple(dims) + (1,) * (3 - len(dims))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBII", _VERSION, _kind_byte(ds), len(ds), ds.num_classes))
        fh.write(struct.pack("<3I", *dims3))
        fh.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())
        if ds.multilabel:
            fh.write(np.ascontiguousarray(ds.labels, dtype=np.uint8).tobytes())
        else:
            fh.write(np.ascontiguousarray(ds.labels, dtype="<u2").tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}", offset=0)
    try:
        version, kind_byte, n, k = struct.unpack_from("<IBII", blob, 4)
        dims3 = struct.unpack_from("<3I", blob, 17)
    except struct.error:
        raise FormatError("truncated header", offset=len(blob)) from None
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    kind = "image" if kind_byte & 1 else "vector"
    multilabel = bool(kind_byte & 2)
    dims = dims3 if kind == "image" else dims3[:1]
    off = 29
    n_input = n * int(np.prod(dims))
    if len(blob) < off + 8 * n_input:
        raise FormatError("truncated input block", offset=len(blob))
    inputs = np.frombuffer(blob, dtype="<f8", count=n_input, offset=off).reshape((n,) + dims)
    off += 8 * n_input
    if multilabel:
        if len(blob) < off + n * k:
            raise FormatError("truncated label block", offset=len(blob))
        labels = np.frombuffer(blob, dtype=np.uint8, count=n * k, offset=off)
        labels = labels.reshape(n, k).astype(int)
    else:
        if len(blob) < off + 2 * n:
            raise FormatError("truncated label block", offset=len(blob))
        labels = np.frombuffer(blob, dtype="<u2", count=n, offset=off).astype(int)
        bad = np.flatnonzero(labels >= k)
        if bad.size:
            raise FormatError(f"class index {labels[bad[0]]} out of range for {k} classes",
                              offset=off + 2 * int(bad[0]))
    return Dataset(np.ascontiguousarray(inputs), labels, kind, k)


def load_csv_dataset(path) -> Dataset:
    """Headerless CSV import for vector data: feature columns then the label."""
    try:
        table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"malformed CSV: {exc}") from None
    if table.shape[1] < 2:
        raise FormatError("CSV needs at least one feature column and a label column")
    labels = table[:, -1].astype(int)
    if (labels < 0).any():
        raise FormatError("labels must be non-negative class indices")
    return Dataset(table[:, :-1], labels, "vector", int(labels.max()) + 1)
