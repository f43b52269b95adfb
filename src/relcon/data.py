"""Synthetic datasets, labeled/unlabeled splitting, and batch planning.

Two generator families stand in for real data at desk scale:

* two interleaved half-circles in the plane (vector data), and
* grayscale blob images whose class determines blob radius and intensity
  but not position, so flips and small translations preserve the class.

Splitting follows a 70/10/20 train/validation/test partition; within the
training part a configurable fraction becomes the labeled set and the rest
an unlabeled view that holds no labels (every read of its inputs is
counted). A dataset's kind follows from the shape of its inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, FormatError, SplitError

_MAGIC = b"RCDS"
_VERSION = 1
_MAX_CLASS_INDEX = 0xFFFF   # the largest class index a u16 label holds


@dataclass
class Dataset:
    inputs: np.ndarray        # [N, D] vectors or [N, C, H, W] images
    labels: np.ndarray        # [N] class indices or [N, K] multi-hot
    num_classes: int
    ids: np.ndarray | None = None   # stable per-sample ids; default arange

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels)
        if self.inputs.ndim not in (2, 4):
            raise DimensionError(
                f"inputs must be [N, D] vectors or [N, C, H, W] images, got {self.inputs.shape}")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DimensionError("inputs and labels disagree on sample count")
        if self.ids is None:
            self.ids = np.arange(len(self))
        self.ids = np.asarray(self.ids, dtype=int)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def kind(self) -> str:
        return "vector" if self.inputs.ndim == 2 else "image"

    @property
    def multilabel(self) -> bool:
        return self.labels.ndim == 2

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes,
                       ids=self.ids[idx])


class UnlabeledView:
    """Inputs-only view of a dataset slice: it holds no labels.

    Training code can see ``ids`` and call ``read``; ``reads`` counts every
    input access.
    """

    def __init__(self, inputs: np.ndarray, ids: np.ndarray):
        self._inputs = inputs
        self.ids = np.asarray(ids, dtype=int)
        self.reads = 0

    def __len__(self) -> int:
        return self._inputs.shape[0]

    def read(self, idx=None) -> np.ndarray:
        """Fetch (a subset of) the unlabeled inputs; every call is counted."""
        self.reads += 1
        return self._inputs if idx is None else self._inputs[idx]


@dataclass(frozen=True)
class SplitSpec:
    labeled_fraction: float = 0.2
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise ContractError("labeled_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


@dataclass(frozen=True)
class BatchPlan:
    n_labeled: int = 12
    n_unlabeled: int = 36

    def __post_init__(self):
        if self.n_labeled < 1 or self.n_unlabeled < 0:
            raise ContractError("batch plan needs n_labeled >= 1 and n_unlabeled >= 0")


@dataclass
class Batch:
    inputs: np.ndarray          # labeled rows first, then unlabeled rows
    sample_ids: np.ndarray      # one per input row
    y_labeled: np.ndarray       # labels of the first n_labeled rows

    @property
    def n_labeled(self) -> int:
        return self.y_labeled.shape[0]

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
    return Dataset(pts, labels, 2)


def _largest_remainder(exact: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` from exact shares that sum to it:
    floor each share, then add one to the ``total - sum`` shares with the
    largest remainders."""
    counts = np.floor(exact).astype(int)
    counts[np.argsort(-(exact - counts))[: total - counts.sum()]] += 1
    return counts


def geometric_class_counts(n: int, num_classes: int, ratio: float) -> np.ndarray:
    """Partition n into class counts following a geometric ratio.

    Class k receives weight ratio**(K-1-k); rounding uses the largest
    remainder rule so the counts always sum to n.
    """
    if ratio <= 0:
        raise ContractError("imbalance ratio must be > 0")
    if not num_classes <= n < 2**63:
        raise ContractError(f"n = {n} is outside [{num_classes}, 2**63): "
                            "each class needs a sample")
    rounded_to_zero = "class count rounded to zero; increase n or reduce ratio"
    try:
        weights = np.array([ratio ** (num_classes - 1 - k) for k in range(num_classes)])
    except OverflowError:   # ratio**(K-1) > 1e308 leaves the last class a share below 1
        raise ContractError(rounded_to_zero) from None
    counts = _largest_remainder(n * weights / weights.sum(), n)
    if (counts < 1).any():
        raise ContractError(rounded_to_zero)
    return counts


def _draw_centers_and_noise(rng: np.random.Generator, n: int, size: int, blobs: int,
                            spread: float, noise_sd: float) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of ``n`` blob images, in the generators' fixed order:
    image by image, ``blobs`` centres (y, then x, each ``size / 2`` plus a
    ``rng.uniform(-spread, spread)`` offset), then, when ``noise_sd > 0``,
    the ``size * size`` pixel noise values from ``rng.normal``.

    Returns the centres [n, blobs, 2] and the images [n, 1, size, size]
    holding the noise (zeros without it).
    """
    images = np.zeros((n, 1, size, size))
    centers = np.empty((n, blobs, 2))
    uniform, normal = rng.uniform, rng.normal
    noise = images.reshape(n, size * size)
    for i in range(n):
        centers[i] = uniform(-spread, spread, (blobs, 2))
        if noise_sd > 0:
            noise[i] = normal(0.0, noise_sd, size * size)
    centers += size / 2.0
    return centers, images


# pixels per rendering pass: each float64 temporary stays at 64 KiB, under
# glibc's default mmap threshold, so passes reuse heap memory
_RENDER_PIXELS = 8192


def _add_blobs(out: np.ndarray, rows: np.ndarray, centers: np.ndarray, sigma: float,
               intensity: float) -> None:
    """Add ``intensity * exp(-((y - cy)**2 + (x - cx)**2) / (2 * sigma**2))``
    to image ``out[rows[i]]``, centred at ``centers[i] = (cy, cx)``, in place.

    ``out`` is [N, size, size]. Rows go ``_RENDER_PIXELS // size**2`` at a
    time; each pixel sees the same float operations, in the same order, as
    the formula evaluated on one image.
    """
    size = out.shape[-1]
    grid = np.arange(size)
    step = max(1, _RENDER_PIXELS // size ** 2)
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        dy2 = np.square(grid - centers[part, :1])     # [m, size]: depends on y only
        dx2 = np.square(grid - centers[part, 1:])     # [m, size]: depends on x only
        blob = np.add(dy2[:, :, None], dx2[:, None, :])
        np.negative(blob, out=blob)
        np.divide(blob, 2 * sigma ** 2, out=blob)
        np.exp(blob, out=blob)
        np.multiply(blob, intensity, out=blob)
        out[rows[part]] += blob


def gen_blob_images(n: int, num_classes: int, size: int, imbalance_ratio: float,
                    rng: np.random.Generator, noise_sd: float = 0.05,
                    center_jitter: float = 0.15) -> Dataset:
    """Grayscale images with one Gaussian blob per image.

    The class fixes the blob's radius and intensity; the blob center is
    drawn uniformly (class-independent), so flips and translations keep
    the class recognizable. ``center_jitter`` is the center spread as a
    fraction of the image size; with it and ``noise_sd`` both zero, images
    within a class are identical. Images come in class order, class k's
    ``geometric_class_counts`` rows after class k-1's.

    Draw order, which keeps a seed's dataset byte-stable: image by image,
    the two centre offsets (y, then x) from ``rng.uniform``, then, when
    ``noise_sd > 0``, the ``size * size`` noise values from ``rng.normal``.
    Each pixel is noise + blob, or the blob alone without noise.
    """
    if size < 8:
        raise ContractError("size must be >= 8")
    if num_classes < 2:
        raise ContractError("need at least 2 classes")
    counts = geometric_class_counts(n, num_classes, imbalance_ratio)
    centers, images = _draw_centers_and_noise(rng, n, size, 1, center_jitter * size, noise_sd)
    ends = np.cumsum(counts)
    for k in range(num_classes):
        frac = (k + 1) / (num_classes + 1)
        rows = np.arange(ends[k] - counts[k], ends[k])
        _add_blobs(images[:, 0], rows, centers[rows, 0], size * (0.08 + 0.10 * frac),
                   0.55 + 0.45 * frac)
    return Dataset(images, np.repeat(np.arange(num_classes), counts), num_classes)


def gen_multiblob_images(n: int, size: int, rng: np.random.Generator,
                         noise_sd: float = 0.05, num_types: int = 3) -> Dataset:
    """Multi-label surrogate: up to ``num_types`` blob kinds per image.

    Each blob kind (its own radius and intensity) is independently present
    with probability 0.5, yielding a multi-hot target per image. Every kind
    is guaranteed at least one positive and one negative sample.

    Draw order, which keeps a seed's dataset byte-stable: the [n, num_types]
    presence uniforms from ``rng.random``; then image by image, a centre
    (y, then x) for every kind, present or not, from ``rng.uniform``, then,
    when ``noise_sd > 0``, the ``size * size`` noise values from
    ``rng.normal``. Each pixel is noise + the sum of its present blobs,
    added in kind order starting from 0.0.
    """
    if size < 8:
        raise ContractError("size must be >= 8")
    present = rng.random((n, num_types)) < 0.5
    for c in range(num_types):   # keep every column non-degenerate
        if not present[:, c].any():
            present[c % n, c] = True
        if present[:, c].all():
            present[c % n, c] = False
    centers, images = _draw_centers_and_noise(rng, n, size, num_types, 0.2 * size, noise_sd)
    canvas = np.zeros((n, size, size))
    for c in range(num_types):
        frac = (c + 1) / (num_types + 1)
        rows = np.flatnonzero(present[:, c])
        _add_blobs(canvas, rows, centers[rows, c], size * (0.06 + 0.08 * frac),
                   0.5 + 0.5 * frac)
    images[:, 0] += canvas
    return Dataset(images, present.astype(int), num_types)


# ---------------------------------------------------------------------------
# splitting and batching


def _stratified_pick(labels: np.ndarray, pool: np.ndarray, quota: int) -> np.ndarray:
    """Pick ``quota`` indices from ``pool`` preserving class ratios (+/- 1)."""
    classes = np.unique(labels[pool])
    exact = np.array([quota * (labels[pool] == c).sum() / len(pool) for c in classes])
    take = _largest_remainder(exact, quota)
    picked = []
    for c, t in zip(classes, take):
        members = pool[labels[pool] == c]
        if t == 0:
            raise SplitError(f"class {c} would be absent from the labeled split")
        picked.append(members[:t])
    return np.concatenate(picked)


def split_labeled(ds: Dataset, spec: SplitSpec) -> Splits:
    """70/10/20 train/val/test, then carve the labeled set out of train.

    Raises SplitError when the validation or the test split would be empty
    or the labeled split would miss a class."""
    n = len(ds)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.1 * n))
    train_idx = perm[:n_train]
    val_idx = perm[n_train:n_train + n_val]
    test_idx = perm[n_train + n_val:]
    for name, idx in (("validation", val_idx), ("test", test_idx)):
        if idx.size == 0:
            raise SplitError(f"{n} samples leave the {name} split empty")

    quota = int(round(spec.labeled_fraction * n_train))
    quota = max(quota, 1)
    if spec.stratified and not ds.multilabel:
        labeled_idx = _stratified_pick(ds.labels, train_idx, quota)
    else:
        labeled_idx = train_idx[:quota]
    is_labeled = np.zeros(n, dtype=bool)
    is_labeled[labeled_idx] = True
    unlabeled_idx = train_idx[~is_labeled[train_idx]]

    if not ds.multilabel:
        present = np.unique(ds.labels[labeled_idx])
        if len(present) < ds.num_classes:
            raise SplitError(
                f"labeled split covers {len(present)} of {ds.num_classes} classes")

    labeled = ds.subset(labeled_idx)
    unlabeled = UnlabeledView(ds.inputs[unlabeled_idx], ds.ids[unlabeled_idx])
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

    if unlabeled is None or plan.n_unlabeled == 0 or len(unlabeled) == 0:
        order = rng.permutation(len(labeled))
        chunks = [order[i:i + plan.n_labeled] for i in range(0, len(order), plan.n_labeled)]
        return [
            Batch(labeled.inputs[chunk], labeled.ids[chunk], labeled.labels[chunk])
            for chunk in chunks
        ]

    u_order = rng.permutation(len(unlabeled))
    starts = range(0, len(u_order), plan.n_unlabeled)
    # the labeled stream: as many reshuffled passes as the epoch's batches use
    need = len(starts) * plan.n_labeled
    l_order = np.concatenate([rng.permutation(len(labeled))
                              for _ in range(-(-need // len(labeled)))])
    batches = []
    for b, start in enumerate(starts):
        chunk = u_order[start:start + plan.n_unlabeled]
        lab_idx = l_order[b * plan.n_labeled:(b + 1) * plan.n_labeled]
        batches.append(Batch(
            np.concatenate([labeled.inputs[lab_idx], unlabeled.read(chunk)], axis=0),
            np.concatenate([labeled.ids[lab_idx], unlabeled.ids[chunk]]),
            labeled.labels[lab_idx]))
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
    """Read a ``save_dataset`` file. Any malformed header, block length,
    non-finite input, label or trailing byte raises ``FormatError`` at its
    byte offset."""
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
    multilabel = bool(kind_byte & 2)
    dims = dims3 if kind_byte & 1 else dims3[:1]
    off = 29
    n_input = n * math.prod(dims)
    if len(blob) < off + 8 * n_input:
        raise FormatError("truncated input block", offset=len(blob))
    inputs = np.frombuffer(blob, dtype="<f8", count=n_input, offset=off)
    bad = np.flatnonzero(~np.isfinite(inputs))
    if bad.size:
        raise FormatError(f"input value {inputs[bad[0]]} is not finite",
                          offset=off + 8 * int(bad[0]))
    inputs = inputs.reshape((n,) + dims)
    off += 8 * n_input
    if multilabel:
        if len(blob) < off + n * k:
            raise FormatError("truncated label block", offset=len(blob))
        labels = np.frombuffer(blob, dtype=np.uint8, count=n * k, offset=off)
        bad = np.flatnonzero(labels > 1)
        if bad.size:
            raise FormatError(f"multi-hot entry {labels[bad[0]]} is not 0 or 1",
                              offset=off + int(bad[0]))
        labels = labels.reshape(n, k).astype(int)
        off += n * k
    else:
        if len(blob) < off + 2 * n:
            raise FormatError("truncated label block", offset=len(blob))
        labels = np.frombuffer(blob, dtype="<u2", count=n, offset=off).astype(int)
        bad = np.flatnonzero(labels >= k)
        if bad.size:
            raise FormatError(f"class index {labels[bad[0]]} out of range for {k} classes",
                              offset=off + 2 * int(bad[0]))
        off += 2 * n
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} bytes after the label block", offset=off)
    return Dataset(np.ascontiguousarray(inputs), labels, k)


def load_csv_dataset(path) -> Dataset:
    """Headerless CSV import for vector data: feature columns then the label.

    Features must be finite and labels whole numbers in [0, 65535] (a dataset
    file's u16 label); anything else raises ``FormatError`` naming the row."""
    try:
        table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"malformed CSV: {exc}") from None
    if table.shape[1] < 2:
        raise FormatError("CSV needs at least one feature column and a label column")
    features, raw_labels = table[:, :-1], table[:, -1]
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise FormatError(f"row {row + 1} feature {col + 1} is {features[row, col]}, not finite")
    bad = np.flatnonzero(~((raw_labels >= 0) & (raw_labels <= _MAX_CLASS_INDEX)
                           & (raw_labels == np.round(raw_labels))))
    if bad.size:
        raise FormatError(f"row {bad[0] + 1} label {raw_labels[bad[0]]:g} is not a whole "
                          f"number in [0, {_MAX_CLASS_INDEX}]")
    labels = raw_labels.astype(int)
    return Dataset(features, labels, int(labels.max()) + 1)
