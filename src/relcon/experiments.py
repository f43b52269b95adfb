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

Running an experiment iterates the sweep cross-product times the seed
list, trains each cell, evaluates on the held-out test split, and writes
``results.csv``, ``summary.csv``, per-run ``curves.csv``/``metrics.json``,
and optional relation/distance matrix dumps. Outputs are deterministic
functions of the config, so re-running reproduces them byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from .errors import ConfigError, ContractError
from .losses import write_matrix_csv
from .metrics import MetricsReport
from .models import ArchSpec
from .perturb import PerturbConfig
from .trainer import CurvePoint, TrainConfig, run_variant

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
        if self.generator not in _GENERATORS:
            raise ConfigError(f"generator must be one of {_GENERATORS}", key="generator")
        if self.generator in ("file", "csv") and not self.path:
            raise ConfigError("file/csv generator needs a path", key="path")


@dataclass(frozen=True)
class ModelSection:
    hidden: tuple[int, ...] = (32, 32)
    conv_channels: tuple[int, ...] = (6, 8)
    dropout_rate: float = 0.2


@dataclass(frozen=True)
class SweepSection:
    variant: tuple[str, ...] = ()
    beta: tuple[float, ...] = ()
    labeled_fraction: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.variant or self.beta or self.labeled_fraction or self.seeds)


@dataclass(frozen=True)
class OutputSection:
    dir: str = "results"
    dump_relations: tuple[int, ...] = ()


@dataclass
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
    """Construct one section dataclass; a value its checks reject is a ConfigError."""
    try:
        return cls(**values[cls], **nested)
    except ContractError as exc:
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

    return ExperimentConfig(
        dataset=_build(DatasetSection, values),
        split=_build(D.SplitSpec, values),
        train=_build(TrainConfig, values, perturb=_build(PerturbConfig, values)),
        model=_build(ModelSection, values),
        sweep=_build(SweepSection, values),
        output=_build(OutputSection, values),
        source_text=text,
    )


def parse_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config_text(text)


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
    error: str = ""

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
    sample_shape = dataset.inputs.shape[1:]
    return ArchSpec(input_shape=tuple(sample_shape), num_classes=dataset.num_classes,
                    hidden=model.hidden, conv_channels=model.conv_channels,
                    dropout_rate=model.dropout_rate)


def sweep_cells(cfg: ExperimentConfig) -> list[tuple[str, float, float, int]]:
    """Cross product of (variant, beta, labeled_fraction, seed)."""
    variants = cfg.sweep.variant or (cfg.train.variant,)
    betas = cfg.sweep.beta or (cfg.train.beta,)
    fractions = cfg.sweep.labeled_fraction or (cfg.split.labeled_fraction,)
    seeds = cfg.sweep.seeds or (cfg.train.seed,)
    cells = list(itertools.product(variants, betas, fractions, seeds))
    if len(cells) > MAX_SWEEP_CELLS:
        raise ConfigError(f"sweep would run {len(cells)} cells (limit {MAX_SWEEP_CELLS})")
    return cells


def _split_seed(base_seed: int, run_seed: int) -> int:
    # runs with different seeds also draw different labeled splits
    return base_seed * 1_000_003 + run_seed


def run_cell(cfg: ExperimentConfig, variant: str, beta: float, fraction: float,
             seed: int) -> ResultRow:
    dataset = build_dataset(cfg.dataset)
    arch = arch_for(dataset, cfg.model)
    split_spec = dataclasses.replace(cfg.split, labeled_fraction=fraction,
                                     seed=_split_seed(cfg.split.seed, seed))
    splits = D.split_labeled(dataset, split_spec)
    train_cfg = dataclasses.replace(cfg.train, variant=variant, beta=beta, seed=seed)
    result = run_variant(train_cfg, arch, splits,
                         relation_dump_epochs=cfg.output.dump_relations)
    return ResultRow(variant, beta, fraction, seed, result.test_metrics,
                     result.curves, result.relation_dumps)


def _run_cell_safe(args) -> ResultRow:
    cfg, variant, beta, fraction, seed = args
    try:
        return run_cell(cfg, variant, beta, fraction, seed)
    except Exception as exc:  # noqa: BLE001 - cell failures are recorded per-row
        return ResultRow(variant, beta, fraction, seed, None,
                         error=f"{type(exc).__name__}: {exc}")


def run_experiment(cfg: ExperimentConfig, parallel: int = 1) -> ExperimentReport:
    """Train every sweep cell and collect rows in deterministic cell order."""
    started = time.perf_counter()
    cells = sweep_cells(cfg)
    jobs = [(cfg, *cell) for cell in cells]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(_run_cell_safe, jobs))
    else:
        rows = [_run_cell_safe(job) for job in jobs]
    return ExperimentReport(rows=rows, config=cfg,
                            wall_time_s=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# report emission


def _fmt(x: float) -> str:
    return f"{x:.9g}"


# the scalar fields of MetricsReport, in declaration order
_METRIC_NAMES = tuple(name for name, hint in typing.get_type_hints(MetricsReport).items()
                      if hint is float)


def _row_metrics(row: ResultRow) -> list[float]:
    if row.metrics is None:
        return [float("nan")] * len(_METRIC_NAMES)
    return [getattr(row.metrics, name) for name in _METRIC_NAMES]


def results_csv_text(report: ExperimentReport) -> str:
    lines = ["variant,beta,labeled_fraction,seed," + ",".join(_METRIC_NAMES)]
    for row in report.rows:
        values = ",".join(_fmt(v) for v in _row_metrics(row))
        lines.append(f"{row.variant},{_fmt(row.beta)},{_fmt(row.labeled_fraction)},"
                     f"{row.seed},{values}")
    return "\n".join(lines) + "\n"


def summary_csv_text(report: ExperimentReport) -> str:
    header = ["variant", "beta", "labeled_fraction", "runs"]
    for name in _METRIC_NAMES:
        header += [f"{name}_mean", f"{name}_sd"]
    lines = [",".join(header)]
    groups: dict[tuple, list[ResultRow]] = {}
    for row in report.rows:
        groups.setdefault((row.variant, row.beta, row.labeled_fraction), []).append(row)
    for key, rows in groups.items():
        values = np.array([_row_metrics(r) for r in rows if r.metrics is not None])
        cols = [key[0], _fmt(key[1]), _fmt(key[2]), str(len(values))]
        for j in range(len(_METRIC_NAMES)):
            if len(values) == 0:
                cols += ["nan", "nan"]
            else:
                mean = float(values[:, j].mean())
                sd = float(values[:, j].std(ddof=1)) if len(values) > 1 else 0.0
                cols += [_fmt(mean), _fmt(sd)]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def curves_csv_text(curves: list[CurvePoint]) -> str:
    names = [f.name for f in dataclasses.fields(CurvePoint)]
    lines = [",".join(names)]
    for c in curves:
        values = (getattr(c, name) for name in names)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
    return "\n".join(lines) + "\n"


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
            (run_dir / "error.txt").write_text(row.error + "\n", encoding="utf-8")
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
        "config_echo": report.config.source_text,
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_results_csv(path) -> list[dict]:
    """Re-parse a results.csv written by emit_reports."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row: dict = dict(zip(header, parts))
        for key in ("beta", "labeled_fraction", *_METRIC_NAMES):
            row[key] = float(row[key])
        row["seed"] = int(row["seed"])
        rows.append(row)
    return rows


def load_curves_csv(path) -> list[CurvePoint]:
    """Re-parse a curves.csv written by emit_reports."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    points = []
    for line in lines[1:]:
        parts = line.split(",")
        points.append(CurvePoint(int(parts[0]), *(float(v) for v in parts[1:])))
    return points


def compare_table(rows: list[dict], baseline_variant: str) -> list[dict]:
    """Per-(variant, beta, fraction) mean metrics as deltas vs the baseline
    variant at the same labeled fraction, sorted by AUC delta (descending)."""
    base_rows = [r for r in rows if r["variant"] == baseline_variant]
    if not base_rows:
        raise ContractError(f"baseline variant {baseline_variant!r} not in results")
    base_by_frac: dict[float, np.ndarray] = {}
    for frac in {r["labeled_fraction"] for r in base_rows}:
        vals = np.array([[r[m] for m in _METRIC_NAMES]
                         for r in base_rows if r["labeled_fraction"] == frac])
        base_by_frac[frac] = vals.mean(axis=0)

    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["variant"], r["beta"], r["labeled_fraction"]), []).append(r)
    out = []
    for (variant, beta, frac), members in groups.items():
        if frac not in base_by_frac:
            continue
        vals = np.array([[r[m] for m in _METRIC_NAMES] for r in members]).mean(axis=0)
        delta = vals - base_by_frac[frac]
        entry = {"variant": variant, "beta": beta, "labeled_fraction": frac,
                 "runs": len(members)}
        entry.update({f"d_{m}": float(d) for m, d in zip(_METRIC_NAMES, delta)})
        out.append(entry)
    out.sort(key=lambda e: -e["d_auc"])
    return out
