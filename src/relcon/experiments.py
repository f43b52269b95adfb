"""Config-driven experiment harness: grids, reports, and diagnostic dumps.

An experiment config is a UTF-8 key-value file with ``[section]`` headers
and ``key = value`` lines; ``#`` starts a comment that runs to the end of
the line. Sections: ``[dataset]``, ``[split]``, ``[train]``, optional
``[perturb]``, optional ``[sweep]`` (lists over variant / beta /
labeled_fraction / seeds), and optional ``[output]``. Each section's keys,
their types and their defaults are the fields of its dataclasses (see
``_SECTIONS``). Parsing is strict: unknown keys and malformed values are
rejected with their line number. Missing keys fall back to the library
defaults (EMA decay 0.99, relation weight 1.0, 12+36 batches, dropout 0.2).

Running an experiment builds the dataset once, then splits it, trains and
evaluates on the held-out test split in each cell of the sweep, and writes
``results.csv``, ``summary.csv``, per-run ``curves.csv``/``metrics.json``,
and optional relation/distance matrix dumps, every CSV through one writer
(``_csv_text``). Outputs are deterministic functions of the config, so
re-running reproduces them byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import time
import traceback
import typing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from .errors import ConfigError, ContractError, FormatError
from .metrics import MetricsReport
from .models import ArchSpec, ModelSection
from .perturb import PerturbConfig, max_shift_px
from .trainer import CurvePoint, TrainConfig, has_target_view, run_variant

MAX_SWEEP_CELLS = 10_000

_GENERATORS = ("moons", "blobs", "multiblobs", "file", "csv")


@dataclass(frozen=True)
class DatasetSection:
    generator: str = "blobs"
    path: str = ""
    n: int = 1000
    classes: int = 3
    size: int = 12
    noise_sd: float = 0.05
    center_jitter: float = 0.15
    imbalance_ratio: float = 1.0
    seed: int = 7

    def __post_init__(self):
        """Reject at parse time what the chosen generator would reject or
        silently misread; the float checks are written so that NaN fails them."""
        if self.generator not in _GENERATORS:
            raise ConfigError(f"generator must be one of {_GENERATORS}", key="generator")
        if self.generator in ("file", "csv") and not self.path:
            raise ConfigError("file/csv generator needs a path", key="path")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", key="seed")
        if self.generator in ("moons", "blobs", "multiblobs") and not self.noise_sd >= 0:
            raise ConfigError("noise_sd must be >= 0", key="noise_sd")
        if self.generator in ("blobs", "multiblobs") and self.size < 8:
            raise ConfigError("image generators need size >= 8", key="size")
        if self.generator in ("moons", "multiblobs") and self.n < 2:
            raise ConfigError(f"{self.generator} need n >= 2", key="n")
        if self.generator in ("blobs", "multiblobs") and self.classes < 2:
            raise ConfigError("blob generators need at least 2 classes", key="classes")
        if self.generator == "blobs" and not 0 <= 2 * self.center_jitter * self.size < math.inf:
            raise ConfigError("center_jitter must be finite and >= 0", key="center_jitter")
        if self.generator == "blobs" and not 0 < self.imbalance_ratio < float("inf"):
            raise ConfigError("imbalance_ratio must be finite and > 0", key="imbalance_ratio")
        if self.generator == "blobs":
            D.geometric_class_counts(self.n, self.classes, self.imbalance_ratio)
        if self.generator == "moons" and self.n % 2 != 0:
            raise ConfigError("moons need an even n", key="n")


@dataclass(frozen=True)
class SweepSection:
    variant: tuple[str, ...] = ()
    beta: tuple[float, ...] = ()
    labeled_fraction: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class OutputSection:
    dir: str = "results"
    dump_relations: tuple[int, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    split: D.SplitSpec = field(default_factory=D.SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelSection = field(default_factory=ModelSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    output: OutputSection = field(default_factory=OutputSection)
    source_text: str = ""

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# config parsing

_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_scalar(raw: str, kind: type, line: int, key: str):
    try:
        if kind is bool:
            return _BOOL[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {raw!r} as {kind.__name__}",
                          line=line, key=key) from None


def _parse_list(raw: str, kind: type, line: int, key: str) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return tuple(_parse_scalar(s, kind, line, key) for s in items)


# [section] -> the dataclasses whose fields are its keys. [train] also holds
# the ModelSection keys, and [perturb] fills TrainConfig.perturb.
_SECTIONS: dict[str, tuple[type, ...]] = {
    "dataset": (DatasetSection,),
    "split": (D.SplitSpec,),
    "train": (TrainConfig, ModelSection),
    "perturb": (PerturbConfig,),
    "sweep": (SweepSection,),
    "output": (OutputSection,),
}
_SECTION_OF = {cls: name for name, classes in _SECTIONS.items() for cls in classes}


def _field_kinds(cls: type) -> dict[str, tuple[type, bool]]:
    """Field name -> (scalar type, comma list?); a scalar is int, float, str or
    bool, and tuple[X, ...] is a comma list of X. Nested dataclass fields are
    sections of their own."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            continue
        is_list = typing.get_origin(hint) is tuple
        kind = typing.get_args(hint)[0] if is_list else hint
        if kind not in (int, float, str, bool):
            raise TypeError(f"{cls.__name__}.{name}: {hint} has no config syntax")
        out[name] = (kind, is_list)
    return out


# [section] -> key -> (owning dataclass, scalar type, comma list?), built once
_KEYS: dict[str, dict[str, tuple[type, type, bool]]] = {
    name: {key: (cls, *kind) for cls in classes for key, kind in _field_kinds(cls).items()}
    for name, classes in _SECTIONS.items()
}


def _build(cls: type, values: dict[type, dict], **nested):
    """Construct one section dataclass; a value its checks reject is a
    ConfigError naming the section."""
    try:
        return cls(**values[cls], **nested)
    except (ConfigError, ContractError) as exc:
        raise ConfigError(f"[{_SECTION_OF[cls]}] {exc}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Strict parse of the key-value config grammar."""
    values: dict[type, dict] = {cls: {} for cls in _SECTION_OF}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        entry = _KEYS[section].get(key)
        if entry is None:
            raise ConfigError(f"unknown key in [{section}]", line=lineno, key=key)
        cls, kind, is_list = entry
        parse = _parse_list if is_list else _parse_scalar
        values[cls][key] = parse(raw.strip(), kind, lineno, key)

    cfg = ExperimentConfig(
        dataset=_build(DatasetSection, values),
        split=_build(D.SplitSpec, values),
        train=_build(TrainConfig, values, perturb=_build(PerturbConfig, values)),
        model=_build(ModelSection, values),
        sweep=_build(SweepSection, values),
        output=_build(OutputSection, values),
        source_text=text,
    )
    _check_sweep(cfg)
    _check_dump_epochs(cfg)
    return cfg


def _check_sweep(cfg: ExperimentConfig) -> None:
    """Build the TrainConfig or SplitSpec each sweep value makes, so their own
    checks reject a bad value at parse time rather than in its cell."""
    for key, base, name in (("variant", cfg.train, "variant"), ("beta", cfg.train, "beta"),
                            ("seeds", cfg.train, "seed"),
                            ("labeled_fraction", cfg.split, "labeled_fraction")):
        for value in getattr(cfg.sweep, key):
            try:
                dataclasses.replace(base, **{name: value})
            except (ConfigError, ContractError) as exc:
                raise ConfigError(f"[sweep] {key} = {value!r}: {exc}") from None


def _check_dump_epochs(cfg: ExperimentConfig) -> None:
    """Dump epochs must be run, by variants whose steps make teacher features."""
    total = cfg.train.total_epochs
    for epoch in cfg.output.dump_relations:
        if not 0 <= epoch < total:
            raise ConfigError(f"[output] dump_relations: epoch {epoch} is outside "
                              f"[0, {total}) for total_epochs = {total}")
    variants = dict.fromkeys(variant for variant, *_ in sweep_cells(cfg))
    blind = [v for v in variants if not has_target_view(v)]
    if cfg.output.dump_relations and blind:
        raise ConfigError(f"[output] dump_relations: {', '.join(blind)} "
                          f"{'has' if len(blind) == 1 else 'have'} no target view "
                          "and so no relation matrices to dump")


# ---------------------------------------------------------------------------
# running


@dataclass
class ResultRow:
    variant: str
    beta: float
    labeled_fraction: float
    seed: int
    metrics: MetricsReport | None
    curves: list[CurvePoint] = field(default_factory=list)
    relation_dumps: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    error: str = ""             # "Type: message" of a failed cell
    error_traceback: str = ""   # its full traceback, written to error.txt

    @property
    def run_name(self) -> str:
        return (f"{self.variant}_b{self.beta:g}_f{self.labeled_fraction:g}"
                f"_s{self.seed}")


@dataclass
class ExperimentReport:
    rows: list[ResultRow]
    config: ExperimentConfig
    wall_time_s: float = 0.0

    @property
    def failed(self) -> bool:
        return any(r.error for r in self.rows)


def build_dataset(section: DatasetSection) -> D.Dataset:
    rng = np.random.default_rng(section.seed)
    if section.generator == "moons":
        return D.gen_two_moons(section.n, section.noise_sd, rng)
    if section.generator == "blobs":
        return D.gen_blob_images(section.n, section.classes, section.size,
                                 section.imbalance_ratio, rng,
                                 noise_sd=section.noise_sd,
                                 center_jitter=section.center_jitter)
    if section.generator == "multiblobs":
        return D.gen_multiblob_images(section.n, section.size, rng,
                                      noise_sd=section.noise_sd,
                                      num_types=section.classes)
    if section.generator == "file":
        return D.load_dataset(section.path)
    return D.load_csv_dataset(section.path)


def arch_for(dataset: D.Dataset, model: ModelSection) -> ArchSpec:
    shape = dataset.inputs.shape[1:]
    try:
        return ArchSpec(input_shape=shape, num_classes=dataset.num_classes,
                        **dataclasses.asdict(model))
    except ContractError as exc:
        raise ConfigError(f"[train] {exc} (dataset samples of shape {shape})") from None


def _check_shift_bound(perturb: PerturbConfig, dataset: D.Dataset) -> None:
    """Reject a ``translate_frac_max`` too large for the images' width once,
    here, rather than in every cell."""
    if dataset.inputs.ndim == 4:
        width = dataset.inputs.shape[3]
        try:
            max_shift_px(perturb, width)
        except ContractError as exc:
            raise ConfigError(f"[perturb] translate_frac_max = {perturb.translate_frac_max!r} "
                              f"on images {width} pixels wide: {exc}") from None


def sweep_cells(cfg: ExperimentConfig) -> list[tuple[str, float, float, int]]:
    """Cross product of (variant, beta, labeled_fraction, seed). Each axis is
    its ``[sweep]`` list, else the one ``[train]`` or ``[split]`` value; this
    is the only place that rule is written."""
    axes = (cfg.sweep.variant or (cfg.train.variant,),
            cfg.sweep.beta or (cfg.train.beta,),
            cfg.sweep.labeled_fraction or (cfg.split.labeled_fraction,),
            cfg.sweep.seeds or (cfg.train.seed,))
    count = math.prod(map(len, axes))
    if count > MAX_SWEEP_CELLS:
        raise ConfigError(f"sweep would run {count} cells (limit {MAX_SWEEP_CELLS})")
    cells = list(itertools.product(*axes))
    [(name, uses)] = Counter(ResultRow(*cell, None).run_name for cell in cells).most_common(1)
    if uses > 1:
        raise ConfigError(f"[sweep] {uses} cells would share the run directory runs/{name}")
    return cells


def _split_seed(base_seed: int, run_seed: int) -> int:
    # runs with different seeds also draw different labeled splits
    return base_seed * 1_000_003 + run_seed


def run_cell(cfg: ExperimentConfig, dataset: D.Dataset, arch: ArchSpec, variant: str,
             beta: float, fraction: float, seed: int) -> ResultRow:
    split_spec = dataclasses.replace(cfg.split, labeled_fraction=fraction,
                                     seed=_split_seed(cfg.split.seed, seed))
    splits = D.split_labeled(dataset, split_spec)
    train_cfg = dataclasses.replace(cfg.train, variant=variant, beta=beta, seed=seed)
    result = run_variant(train_cfg, arch, splits,
                         relation_dump_epochs=cfg.output.dump_relations)
    return ResultRow(variant, beta, fraction, seed, result.test_metrics,
                     result.curves, result.relation_dumps)


def _run_cell_safe(job) -> ResultRow:
    try:
        return run_cell(*job)
    except Exception as exc:  # noqa: BLE001 - cell failures are recorded per-row
        return ResultRow(*job[-4:], None,
                         error=f"{type(exc).__name__}: {exc}",
                         error_traceback=traceback.format_exc())


def run_experiment(cfg: ExperimentConfig, parallel: int = 1) -> ExperimentReport:
    """Train every sweep cell and collect rows in deterministic cell order.

    Each job carries the one dataset and architecture, built first. With
    ``parallel > 1`` the cells run in a process pool of at most one worker
    per cell. The pool forks its workers, whatever the platform's default
    start method, so they inherit the parent's modules as they are (a
    tracer's wrappers, say); it starts them all at the first submit.
    """
    started = time.perf_counter()
    cells = sweep_cells(cfg)
    dataset = build_dataset(cfg.dataset)
    arch = arch_for(dataset, cfg.model)
    _check_shift_bound(cfg.train.perturb, dataset)
    jobs = [(cfg, dataset, arch, *cell) for cell in cells]
    workers = min(parallel, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            rows = list(pool.map(_run_cell_safe, jobs))
    else:
        rows = [_run_cell_safe(job) for job in jobs]
    return ExperimentReport(rows=rows, config=cfg,
                            wall_time_s=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# report emission


# the scalar fields of MetricsReport, in declaration order
METRIC_NAMES = tuple(name for name, hint in typing.get_type_hints(MetricsReport).items()
                     if hint is float)
# results.csv's columns in order, each with the type load_results_csv reads it as
RESULTS_COLUMNS: dict[str, type] = {"variant": str, "beta": float, "labeled_fraction": float,
                                    "seed": int, **dict.fromkeys(METRIC_NAMES, float)}


def _csv_text(rows) -> str:
    """Every CSV of a run directory: one line per row, floats to 9 significant
    digits (NaN as ``nan``), any other value as ``str``, no quoting."""
    return "".join(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in rows)


def _row_metrics(row: ResultRow) -> list[float]:
    if row.metrics is None:
        return [float("nan")] * len(METRIC_NAMES)
    return [getattr(row.metrics, name) for name in METRIC_NAMES]


def results_csv_text(report: ExperimentReport) -> str:
    return _csv_text([list(RESULTS_COLUMNS)] + [
        [row.variant, row.beta, row.labeled_fraction, row.seed, *_row_metrics(row)]
        for row in report.rows])


def summary_csv_text(report: ExperimentReport) -> str:
    lines = [["variant", "beta", "labeled_fraction", "runs",
              *(f"{name}_{stat}" for name in METRIC_NAMES for stat in ("mean", "sd"))]]
    groups: dict[tuple, list[ResultRow]] = {}
    for row in report.rows:
        groups.setdefault((row.variant, row.beta, row.labeled_fraction), []).append(row)
    for key, rows in groups.items():
        values = np.array([_row_metrics(r) for r in rows if r.metrics is not None])
        cols = [*key, len(values)]
        for j in range(len(METRIC_NAMES)):
            if len(values) == 0:
                cols += [float("nan"), float("nan")]
            else:
                sd = float(values[:, j].std(ddof=1)) if len(values) > 1 else 0.0
                cols += [float(values[:, j].mean()), sd]
        lines.append(cols)
    return _csv_text(lines)


def curves_csv_text(curves: list[CurvePoint]) -> str:
    names = [f.name for f in dataclasses.fields(CurvePoint)]
    return _csv_text([names] + [[getattr(c, name) for name in names] for c in curves])


def write_matrix_csv(matrix, path) -> None:
    """Plain CSV dump of a matrix: one row per line, no header."""
    Path(path).write_text(_csv_text(np.atleast_2d(matrix)), encoding="utf-8")


def emit_reports(report: ExperimentReport, outdir) -> None:
    """Write results.csv, summary.csv, per-run artifacts, and report.json."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(results_csv_text(report), encoding="utf-8")
    (out / "summary.csv").write_text(summary_csv_text(report), encoding="utf-8")
    for row in report.rows:
        run_dir = out / "runs" / row.run_name
        run_dir.mkdir(parents=True, exist_ok=True)
        if row.error:
            (run_dir / "error.txt").write_text(row.error_traceback, encoding="utf-8")
            continue
        (run_dir / "curves.csv").write_text(curves_csv_text(row.curves), encoding="utf-8")
        (run_dir / "metrics.json").write_text(row.metrics.to_json() + "\n", encoding="utf-8")
        for epoch, dump in row.relation_dumps.items():
            write_matrix_csv(dump["student"], run_dir / f"relation_epoch{epoch}_student.csv")
            write_matrix_csv(dump["teacher"], run_dir / f"relation_epoch{epoch}_teacher.csv")
            write_matrix_csv(dump["distance"], run_dir / f"distance_epoch{epoch}.csv")
    payload = {
        "config_hash": report.config.config_hash,
        "wall_time_s": report.wall_time_s,
        "cells": len(report.rows),
        "failures": [{"run": r.run_name, "error": r.error} for r in report.rows if r.error],
        "flags": {r.run_name: r.metrics.flags for r in report.rows
                  if not r.error and r.metrics.flags},
        "config_echo": report.config.source_text,
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_results_csv(path) -> list[dict]:
    """Re-parse a results.csv written by emit_reports. FormatError names the
    byte where the text is not UTF-8, or the line that lacks a column or a
    number."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text", offset=exc.start) from None
    header = lines[0].split(",") if lines else []
    missing = [key for key in RESULTS_COLUMNS if key not in header]
    if missing:
        raise FormatError(f"{path} line 1: no {missing[0]} column")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        row: dict = dict(zip(header, line.split(",")))
        for key, kind in RESULTS_COLUMNS.items():
            try:
                row[key] = kind(row[key])
            except (KeyError, ValueError):
                raise FormatError(f"{path} line {number}: cannot read {key} "
                                  f"from {row.get(key, '')!r}") from None
        rows.append(row)
    return rows


def _mean_metrics(rows: list[dict]) -> np.ndarray:
    return np.array([[r[m] for m in METRIC_NAMES] for r in rows]).mean(axis=0)


def compare_table(rows: list[dict], baseline_variant: str) -> list[dict]:
    """Per-(variant, beta, fraction) mean metrics as deltas vs the baseline
    variant at the same labeled fraction, sorted by AUC delta (descending).
    Failed cells, whose AUC is NaN, are left out."""
    if not any(r["variant"] == baseline_variant for r in rows):
        raise ContractError(f"baseline variant {baseline_variant!r} not in results")
    groups: dict[tuple, list[dict]] = {}
    base: dict[float, list[dict]] = {}
    for r in rows:
        if not math.isnan(r["auc"]):
            groups.setdefault((r["variant"], r["beta"], r["labeled_fraction"]), []).append(r)
            if r["variant"] == baseline_variant:
                base.setdefault(r["labeled_fraction"], []).append(r)
    out = []
    for (variant, beta, frac), members in groups.items():
        if frac not in base:
            continue
        delta = _mean_metrics(members) - _mean_metrics(base[frac])
        entry = {"variant": variant, "beta": beta, "labeled_fraction": frac,
                 "runs": len(members)}
        entry.update({f"d_{m}": float(d) for m, d in zip(METRIC_NAMES, delta)})
        out.append(entry)
    out.sort(key=lambda e: -e["d_auc"])
    return out
