"""Experiment harness: config grammar, sweeps, reports, CLI."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcon import cli, selftest
from relcon import data as D
from relcon import experiments as E
from relcon.errors import ConfigError, ContractError, FormatError
from relcon.perturb import PerturbConfig, max_shift_px, perturb_pair
from relcon.trainer import CurvePoint

README = Path(__file__).resolve().parents[1] / "README.md"
IDENTITY = Path(__file__).resolve().parent / "identity"
RESULTS_HEADER = list(E.RESULTS_COLUMNS)
ACCEPTED_KEYS = sorted((section, key) for section, keys in E._KEYS.items() for key in keys)

QUICK_CONFIG = """
[dataset]
generator = blobs
n = 160
classes = 2
size = 8
noise_sd = 0.05
seed = 3

[split]
labeled_fraction = 0.2
seed = 1

[train]
variant = mt
total_epochs = 2
ramp_epochs = 2
batch_labeled = 6
batch_unlabeled = 12
learning_rate = 1e-3
conv_channels = 4, 5
seed = 0

[output]
dir = results
"""

SWEEP_BLOCK = """
[sweep]
variant = baseline, mt
beta = 0, 1
seeds = 0, 1
"""


class TestConfigParsing:
    def test_defaults_fill_missing_keys(self):
        cfg = E.parse_config_text("[dataset]\ngenerator = moons\n[split]\n[train]\n")
        assert cfg.train.alpha == 0.99
        assert cfg.train.beta == 1.0
        assert cfg.train.batch_labeled == 12 and cfg.train.batch_unlabeled == 36
        assert cfg.model.dropout_rate == 0.2

    def test_unknown_key_named_with_line(self):
        bad = "[train]\nbata = 1.0\n"
        with pytest.raises(ConfigError, match="bata"):
            E.parse_config_text(bad)
        try:
            E.parse_config_text(bad)
        except ConfigError as exc:
            assert exc.line == 2

    def test_out_of_range_value(self):
        with pytest.raises(ConfigError, match="alpha"):
            E.parse_config_text("[train]\nalpha = 1.5\n")

    def test_type_mismatch_reports_line(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            E.parse_config_text("[train]\ntotal_epochs = soon\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            E.parse_config_text("[universe]\nanswer = 42\n")

    @pytest.mark.parametrize("text, line, key, match", [
        ("[train]\nbeta = 1\nbeta = 2\n", 3, "beta", r"repeated key in \[train\]"),
        # conv_channels is a ModelSection key that [train] holds
        ("[train]\nconv_channels = 4\nalpha = 0.9\nconv_channels = 8\n", 4, "conv_channels",
         r"repeated key in \[train\]"),
        ("[train]\nbeta = 1\n[split]\nseed = 2\n[train]\nalpha = 0.9\n", 5, None,
         r"repeated section \[train\]"),
    ])
    def test_repeat_is_config_error_naming_line(self, text, line, key, match):
        """A second assignment of a key, or a second header of a section,
        is rejected at its line rather than overriding or merging."""
        with pytest.raises(ConfigError, match=match) as info:
            E.parse_config_text(text)
        assert (info.value.line, info.value.key) == (line, key)

    def test_perturb_section(self):
        cfg = E.parse_config_text(
            "[perturb]\nnoise_enabled = true\nnoise_variance = 0.04\nflip_prob = 0.25\n"
            "noise_clip = inf\n")
        assert cfg.train.perturb.noise_enabled
        assert cfg.train.perturb.noise_variance == 0.04
        assert cfg.train.perturb.noise_clip == float("inf")   # no clip
        assert cfg.train.perturb.flip_prob == 0.25

    def test_trailing_comments_stripped(self):
        cfg = E.parse_config_text("[dataset]  # data\npath = # for file/csv\n"
                                  "size = 12   # image side length\n"
                                  "[output]\ndir = results  # out\n")
        assert cfg.dataset.path == ""
        assert cfg.dataset.size == 12
        assert cfg.output.dir == "results"

    def test_readme_example_parses_and_names_every_key(self):
        block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = E.parse_config_text(block)
        assert cfg.dataset.size == 12 and cfg.dataset.path == ""
        assert cfg.train.relation_eps == 1e-8
        assert cfg.output.dir == "results" and cfg.output.dump_relations == ()
        pairs = set()
        section = None
        for line in block.splitlines():
            line = line.partition("#")[0].strip()
            if line.startswith("["):
                section = line.strip("[]")
            elif line:
                pairs.add((section, line.partition("=")[0].strip()))
        assert sorted(pairs) == ACCEPTED_KEYS

    @pytest.mark.parametrize("section, line", [
        ("perturb", "flip_prob = 2"),
        ("perturb", "noise_variance = -1"),
        ("perturb", "noise_variance = nan"),
        ("split", "labeled_fraction = 0"),
        ("train", "alpha = 2"),
        ("train", "feature_tap = side"),
        ("train", "beta = nan"),
        ("train", "learning_rate = nan"),
        ("train", "relation_eps = -1"),
        ("train", "lr_decay_power = nan"),
        ("train", "lr_decay_power = -1"),
        ("train", "beta = inf"),
        ("train", "learning_rate = inf"),
        ("train", "lr_decay_power = inf"),
        ("train", "relation_eps = inf"),
        ("sweep", "beta = 1, inf"),
        ("dataset", "generator = moons\nnoise_sd = inf"),
        ("dataset", "generator = blobs\nnoise_sd = inf"),
        ("perturb", "noise_variance = inf"),
        ("dataset", "size = 3"),
        ("dataset", "generator = moons\nnoise_sd = nan"),
        ("dataset", "generator = blobs\nnoise_sd = -1"),
        ("dataset", "generator = multiblobs\nnoise_sd = nan"),
        ("dataset", "generator = blobs\ncenter_jitter = nan"),
        ("dataset", "generator = blobs\ncenter_jitter = -0.1"),
        ("dataset", "generator = blobs\ncenter_jitter = inf"),
        ("perturb", "translate_frac_max = inf"),
        ("perturb", "rotation_deg_max = inf"),
        ("dataset", "generator = blobs\nimbalance_ratio = nan"),
        ("dataset", "generator = blobs\nimbalance_ratio = inf"),
        ("dataset", "generator = blobs\nimbalance_ratio = 1e308"),
        ("dataset", "generator = moons\nn = -2"),
        ("dataset", "generator = multiblobs\nn = 0"),
        ("dataset", "generator = multiblobs\nclasses = 0"),
        ("dataset", "generator = blobs\nn = 0"),
        ("dataset", "generator = blobs\nclasses = 1000000000000"),
        ("dataset", "generator = blobs\nn = 1000000000000000000000000000000"),
        ("dataset", "seed = -1"),
        ("dataset", "generator = moons\nseed = -1"),
        ("split", "seed = -1"),
        ("train", "seed = -1"),
        ("train", "seed = 18446744073709551616"),
    ])
    def test_rejected_value_is_config_error_naming_section(self, section, line):
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
            E.parse_config_text(f"[{section}]\n{line}\n")

    @pytest.mark.parametrize("text, match", [
        ("[train]\ndropout_rate = 1.5\n", r"\[train\] dropout_rate"),
        ("[train]\nconv_channels = 0, 8\n", r"\[train\] layer widths"),
        ("[train]\nhidden = 16, 0\n", r"\[train\] layer widths"),
        ("[dataset]\ngenerator = blobs\nsize = 1\n", "size"),
        ("[dataset]\ngenerator = multiblobs\nsize = 7\n", "size"),
        ("[dataset]\ngenerator = blobs\nclasses = 1\n", "classes"),
        ("[dataset]\ngenerator = blobs\nimbalance_ratio = 0\n", "imbalance_ratio"),
        ("[dataset]\ngenerator = moons\nn = 301\n", "'n'"),
        ("[train]\ntotal_epochs = 2\nramp_epochs = 2\n[output]\ndump_relations = 0, 2\n",
         r"dump_relations: epoch 2 is outside \[0, 2\)"),
        ("[output]\ndump_relations = -1\n", "dump_relations: epoch -1"),
    ])
    def test_generator_and_model_bounds_checked_at_parse_time(self, text, match):
        with pytest.raises(ConfigError, match=match):
            E.parse_config_text(text)

    @pytest.mark.parametrize("train_variant, sweep, blind", [
        ("baseline", "", "baseline has"),
        ("te", "", "te has"),
        ("mt", "self_training", "self_training has"),
        ("mt", "mt, te, src_te, baseline", "te, baseline have"),
    ])
    def test_dump_relations_needs_target_views(self, train_variant, sweep, blind):
        text = QUICK_CONFIG.replace("variant = mt", f"variant = {train_variant}")
        text = text.replace("dir = results", "dir = results\ndump_relations = 0")
        if sweep:
            text += f"[sweep]\nvariant = {sweep}\n"
        with pytest.raises(ConfigError, match=rf"dump_relations: {blind} no target view"):
            E.parse_config_text(text)
        # without dumps the same config parses
        E.parse_config_text(text.replace("dump_relations = 0", ""))

    def test_dump_relations_with_target_views_parses(self):
        text = QUICK_CONFIG.replace("dir = results", "dir = results\ndump_relations = 0, 1")
        text += "[sweep]\nvariant = pi, mt, fc_mt, src_pi, src_te, src_mt\n"
        assert E.parse_config_text(text).output.dump_relations == (0, 1)

    def test_bounds_leave_other_generators_alone(self):
        cfg = E.parse_config_text("[dataset]\ngenerator = moons\nsize = 1\nclasses = 1\n"
                                  "imbalance_ratio = 0\n[train]\nconv_channels =\n")
        assert cfg.dataset.size == 1 and cfg.model.conv_channels == ()

    @pytest.mark.parametrize("line", [
        "variant = mt, srcmt",
        "labeled_fraction = 0.2, 0",
        "beta = 1, -1",
        "seeds = 0, -1",
    ])
    def test_rejected_sweep_value_is_config_error(self, line):
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=rf"^\[sweep\] {key} = "):
            E.parse_config_text(QUICK_CONFIG + f"[sweep]\n{line}\n")

    @pytest.mark.parametrize("sweep, cells, name", [
        ("beta = 0.1234567, 0.1234568\nseeds = 0, 0", 4, "mt_b0.123457_f0.2_s0"),
        ("beta = 0.1234567, 0.1234568", 2, "mt_b0.123457_f0.2_s0"),
        ("seeds = 0, 0", 2, "mt_b1_f0.2_s0"),
    ])
    def test_cells_sharing_a_run_directory_are_config_error(self, sweep, cells, name):
        message = f"[sweep] {cells} cells would share the run directory runs/{name}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            E.parse_config_text(QUICK_CONFIG + f"[sweep]\n{sweep}\n")

    def test_sweep_values_with_distinct_run_names_parse(self):
        cfg = E.parse_config_text(QUICK_CONFIG + "[sweep]\nbeta = 0.5, 1\n")
        assert [E.ResultRow(*cell, None).run_name for cell in E.sweep_cells(cfg)] == [
            "mt_b0.5_f0.2_s0", "mt_b1_f0.2_s0"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(ACCEPTED_KEYS),
           st.one_of(st.text(), st.floats().map(repr), st.integers().map(str),
                     st.sampled_from(["", "true", "no", "moons", "file", "src_mt",
                                      "pre_pool", "1, 2", "0.5, -1"])))
    def test_any_value_parses_or_raises_config_error(self, entry, value):
        section, key = entry
        try:
            E.parse_config_text(f"[{section}]\n{key} = {value}\n")
        except ConfigError:
            pass

    def test_sweep_lists(self):
        cfg = E.parse_config_text(QUICK_CONFIG + SWEEP_BLOCK)
        assert cfg.sweep.variant == ("baseline", "mt")
        assert cfg.sweep.beta == (0.0, 1.0)
        assert cfg.sweep.seeds == (0, 1)

    def test_cross_product_size(self):
        cfg = E.parse_config_text(QUICK_CONFIG + SWEEP_BLOCK)
        cells = E.sweep_cells(cfg)
        assert len(cells) == 2 * 2 * 1 * 2

    def test_cross_product_guard(self):
        cfg = E.parse_config_text(QUICK_CONFIG)
        huge = tuple(range(101))
        cfg = dataclasses.replace(cfg, sweep=E.SweepSection(
            variant=("mt",), beta=(0.0,) * 101, labeled_fraction=(0.1,), seeds=huge))
        with pytest.raises(ConfigError, match="cells"):
            E.sweep_cells(cfg)


@pytest.fixture(scope="module")
def report():
    cfg = E.parse_config_text(QUICK_CONFIG + "[sweep]\nvariant = baseline, mt\nseeds = 0, 1\n")
    return E.run_experiment(cfg)


class TestRunExperiment:

    def test_one_row_per_cell(self, report):
        assert len(report.rows) == 4
        assert not report.failed

    def test_results_csv_shape(self, report):
        text = E.results_csv_text(report)
        lines = text.strip().splitlines()
        assert lines[0] == ("variant,beta,labeled_fraction,seed,"
                            "auc,sensitivity,specificity,accuracy,f1")
        assert len(lines) == 5

    def test_results_columns_are_declared_once(self, report, tmp_path):
        failed = dataclasses.replace(report.rows[0], metrics=None, error="SplitError: x")
        E.emit_reports(dataclasses.replace(report, rows=[failed, *report.rows[1:]]), tmp_path)
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header.split(",") == list(E.RESULTS_COLUMNS)
        rows = E.load_results_csv(tmp_path / "results.csv")
        for row in rows:
            assert {key: type(value) for key, value in row.items()} == E.RESULTS_COLUMNS
        assert all(np.isnan(rows[0][name]) for name in E.METRIC_NAMES)
        assert not any(np.isnan(rows[1][name]) for name in E.METRIC_NAMES)

    def test_summary_single_seed_group_equals_run(self):
        cfg = E.parse_config_text(QUICK_CONFIG)
        rep = E.run_experiment(cfg)
        summary = E.summary_csv_text(rep).strip().splitlines()
        row = summary[1].split(",")
        metrics = E._row_metrics(rep.rows[0])
        assert float(row[4]) == pytest.approx(metrics[0], abs=1e-9)
        assert float(row[5]) == 0.0  # sd of a single run

    def test_emit_and_reload(self, report, tmp_path):
        E.emit_reports(report, tmp_path)
        rows = E.load_results_csv(tmp_path / "results.csv")
        assert len(rows) == 4
        assert {r["variant"] for r in rows} == {"baseline", "mt"}
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 4
        for rd in run_dirs:
            assert (rd / "curves.csv").exists()
            payload = json.loads((rd / "metrics.json").read_text())
            assert list(payload) == ["auc", "sensitivity", "specificity",
                                     "accuracy", "f1", "per_class_auc"]
        meta = json.loads((tmp_path / "report.json").read_text())
        assert meta["cells"] == 4
        assert meta["flags"] == {}

    def test_report_json_keeps_metric_flags(self, report, tmp_path):
        note = "class 1: no positives; sensitivity and F1 reported as 0"
        row = report.rows[1]
        flagged = dataclasses.replace(row, metrics=dataclasses.replace(row.metrics, flags=[note]))
        rows = [report.rows[0], flagged, *report.rows[2:]]
        E.emit_reports(dataclasses.replace(report, rows=rows), tmp_path)
        meta = json.loads((tmp_path / "report.json").read_text())
        assert meta["flags"] == {row.run_name: [note]}
        metrics = json.loads((tmp_path / "runs" / row.run_name / "metrics.json").read_text())
        assert "flags" not in metrics

    def test_compare_table(self, report, tmp_path):
        E.emit_reports(report, tmp_path)
        rows = E.load_results_csv(tmp_path / "results.csv")
        table = E.compare_table(rows, "baseline")
        baseline_row = [r for r in table if r["variant"] == "baseline"][0]
        assert baseline_row["d_auc"] == 0.0
        assert baseline_row["d_f1"] == 0.0
        assert len(table) == 2
        assert table == sorted(table, key=lambda r: -r["d_auc"])

    def test_every_emitted_file_reparses(self, report, tmp_path):
        E.emit_reports(report, tmp_path)
        assert E.load_results_csv(tmp_path / "results.csv")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary[0].split(",")) == len(summary[1].split(","))
        json.loads((tmp_path / "report.json").read_text())
        for run_dir in (tmp_path / "runs").iterdir():
            table = np.loadtxt(run_dir / "curves.csv", delimiter=",", skiprows=1, ndmin=2)
            points = [CurvePoint(int(row[0]), *(float(v) for v in row[1:])) for row in table]
            assert points and points[0].epoch == 0
            # round trip: re-serializing the parsed points reproduces the file
            assert E.curves_csv_text(points) == (run_dir / "curves.csv").read_text()

    def test_compare_missing_baseline(self, report):
        rows = [{"variant": "mt", "beta": 1.0, "labeled_fraction": 0.2, "seed": 0,
                 "auc": 0.9, "sensitivity": 0.5, "specificity": 0.5,
                 "accuracy": 0.9, "f1": 0.5}]
        with pytest.raises(ContractError):
            E.compare_table(rows, "baseline")


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        cfg_text = QUICK_CONFIG
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rep = E.run_experiment(E.parse_config_text(cfg_text))
            E.emit_reports(rep, out)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        curves_a = sorted((out_a / "runs").rglob("curves.csv"))
        curves_b = sorted((out_b / "runs").rglob("curves.csv"))
        for a, b in zip(curves_a, curves_b):
            assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_sequential(self, tmp_path):
        cfg_text = QUICK_CONFIG + "[sweep]\nvariant = baseline, mt\n"
        seq = E.run_experiment(E.parse_config_text(cfg_text), parallel=1)
        par = E.run_experiment(E.parse_config_text(cfg_text), parallel=2)
        assert E.results_csv_text(seq) == E.results_csv_text(par)


class TestMultilabelPath:
    def test_multiblob_experiment_end_to_end(self, tmp_path):
        cfg = E.parse_config_text("""
[dataset]
generator = multiblobs
n = 120
classes = 3
size = 8
noise_sd = 0.02
seed = 5

[split]
labeled_fraction = 0.3
stratified = false
seed = 1

[train]
variant = src_mt
total_epochs = 2
ramp_epochs = 2
batch_labeled = 6
batch_unlabeled = 12
learning_rate = 1e-3
conv_channels = 4, 5
seed = 0
""")
        rep = E.run_experiment(cfg)
        assert not rep.failed, [r.error for r in rep.rows]
        E.emit_reports(rep, tmp_path)
        payload = json.loads(
            next((tmp_path / "runs").rglob("metrics.json")).read_text())
        assert len(payload["per_class_auc"]) == 3


class TestFileGenerator:
    def test_saved_dataset_round_trips_through_config(self, tmp_path):
        import numpy as np
        from relcon import data as D
        ds = D.gen_blob_images(160, 2, 8, 1.0, np.random.default_rng(3), noise_sd=0.05)
        path = tmp_path / "blobs.bin"
        D.save_dataset(ds, path)
        cfg = E.parse_config_text(f"""
[dataset]
generator = file
path = {path}

[split]
labeled_fraction = 0.2
seed = 1

[train]
variant = baseline
total_epochs = 1
ramp_epochs = 1
batch_labeled = 6
conv_channels = 4, 5
seed = 0
""")
        rep = E.run_experiment(cfg)
        assert not rep.failed, [r.error for r in rep.rows]


class TestRelationDumps:
    def test_dump_files_have_unit_rows(self, tmp_path):
        cfg = E.parse_config_text(QUICK_CONFIG)
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output,
                                                                  dump_relations=(1,)))
        rep = E.run_experiment(cfg)
        E.emit_reports(rep, tmp_path)
        dumps = sorted((tmp_path / "runs").rglob("relation_epoch1_student.csv"))
        assert dumps
        r = np.loadtxt(dumps[0], delimiter=",", ndmin=2)
        assert r.shape[0] == r.shape[1]
        norms = np.linalg.norm(r, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6  # 9 significant digits in file
        dist = np.loadtxt(dumps[0].parent / "distance_epoch1.csv", delimiter=",", ndmin=2)
        assert (dist >= 0).all() and (dist <= 1).all()


class TestFailureHandling:
    def test_cell_failure_recorded_not_fatal(self, tmp_path):
        cfg = E.parse_config_text(QUICK_CONFIG + "[sweep]\nlabeled_fraction = 0.2, 0.001\n")
        rep = E.run_experiment(cfg)
        assert rep.failed
        good = [r for r in rep.rows if not r.error]
        bad = [r for r in rep.rows if r.error]
        assert good and bad
        E.emit_reports(rep, tmp_path)
        text = (tmp_path / "results.csv").read_text()
        assert "nan" in text

        # report.json keeps "Type: message"; error.txt holds the full traceback
        (row,) = bad
        assert row.error.startswith("SplitError: ")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["failures"] == [{"run": row.run_name, "error": row.error}]
        lines = (tmp_path / "runs" / row.run_name / "error.txt").read_text().splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-1] == "relcon.errors." + row.error

    @pytest.mark.parametrize("dataset", [
        "generator = moons\nn = 4",
        "generator = multiblobs\nn = 3\nsize = 8",
    ])
    def test_empty_validation_split_is_split_error(self, tmp_path, dataset):
        text = f"[dataset]\n{dataset}\n[split]\nlabeled_fraction = 1.0\n" \
               "[train]\nvariant = mt\ntotal_epochs = 1\nramp_epochs = 1\n"
        rep = E.run_experiment(E.parse_config_text(text))
        (row,) = rep.rows
        assert row.error.startswith("SplitError: ") and "validation split empty" in row.error
        E.emit_reports(rep, tmp_path)
        lines = (tmp_path / "runs" / row.run_name / "error.txt").read_text().splitlines()
        assert lines[-1] == "relcon.errors." + row.error

    def test_report_counts_only_cells_that_ran(self, tmp_path, capsys):
        """The 0.001 cells fail with SplitError. summary.csv gives them 0 runs,
        and the delta table skips them: no baseline cell ran at 0.001."""
        text = ("[dataset]\ngenerator = moons\nn = 200\nnoise_sd = 0.1\n"
                "[train]\ntotal_epochs = 1\nramp_epochs = 1\nhidden = 8\n"
                "[sweep]\nvariant = baseline, mt\nlabeled_fraction = 0.2, 0.001\n")
        rep = E.run_experiment(E.parse_config_text(text))
        assert [r.labeled_fraction for r in rep.rows if r.error.startswith("SplitError")] \
            == [0.001, 0.001]
        E.emit_reports(rep, tmp_path)
        summary = [line.split(",") for line in
                   (tmp_path / "summary.csv").read_text().splitlines()[1:]]
        assert {(v, f, runs) for v, _, f, runs, *_ in summary} == {
            ("baseline", "0.2", "1"), ("baseline", "0.001", "0"),
            ("mt", "0.2", "1"), ("mt", "0.001", "0")}
        table = E.compare_table(E.load_results_csv(tmp_path / "results.csv"), "baseline")
        assert [(r["variant"], r["labeled_fraction"], r["runs"]) for r in
                sorted(table, key=lambda r: r["variant"])] == [("baseline", 0.2, 1),
                                                               ("mt", 0.2, 1)]
        assert all(np.isfinite(r["d_auc"]) for r in table)
        assert cli.main(["report", str(tmp_path)]) == 0
        assert "nan" not in capsys.readouterr().out.split("deltas vs baseline:")[1]

    def test_report_with_every_baseline_cell_failed_prints_an_empty_table(self, report,
                                                                         tmp_path, capsys):
        failed = [dataclasses.replace(r, metrics=None, error="SplitError: x")
                  if r.variant == "baseline" else r for r in report.rows]
        E.emit_reports(dataclasses.replace(report, rows=failed), tmp_path)
        assert E.compare_table(E.load_results_csv(tmp_path / "results.csv"), "baseline") == []
        assert cli.main(["report", str(tmp_path)]) == 0
        *_, title, header = capsys.readouterr().out.splitlines()
        assert title == "deltas vs baseline:"
        assert header.split() == ["variant", "beta", "labeled_fraction", "runs",
                                  *(f"d_{m}" for m in E.METRIC_NAMES)]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_dataset_built_once_per_experiment(self, tmp_path, monkeypatch, parallel):
        """Cells share one dataset; calls are logged to a file, which also
        sees any made in a forked worker."""
        calls = tmp_path / "calls"
        build = E.build_dataset

        def logged(section):
            with calls.open("a") as fh:
                fh.write("build\n")
            return build(section)

        monkeypatch.setattr(E, "build_dataset", logged)
        cfg = E.parse_config_text(QUICK_CONFIG + "[sweep]\nseeds = 0, 1\n")
        rep = E.run_experiment(cfg, parallel=parallel)
        assert not rep.failed and len(rep.rows) == 2
        assert calls.read_text() == "build\n"

    @pytest.mark.parametrize("case, error", [
        ("nan", "data error: FormatError: input value nan is not finite"),
        ("missing", "data error: FileNotFoundError: "),
    ])
    def test_unreadable_dataset_is_one_data_error(self, tmp_path, capsys, case, error):
        """A dataset file that cannot be read stops the run before its 18
        cells, with one error line, exit 2 and no run directory."""
        data = tmp_path / "moons.bin"
        if case == "nan":
            moons = D.gen_two_moons(40, 0.1, np.random.default_rng(0))
            moons.inputs[3, 1] = np.nan
            D.save_dataset(moons, data)
        text = (IDENTITY / "moons.cfg").read_text(encoding="utf-8")
        cfg_path = tmp_path / "moons.cfg"
        cfg_path.write_text(text.replace("generator = moons",
                                         f"generator = file\npath = {data}"))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--parallel", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(error)
        assert not out.exists()

    @pytest.mark.parametrize("frac, pixels", [((2 ** 31 - 1) / 8, 2 ** 31 - 1),
                                              ((2 ** 31 - 0.5) / 8, None),
                                              (2 ** 31 / 8, None), (1e308, None)])
    def test_shift_bound_checked_against_image_width(self, frac, pixels):
        """2 * bound + 1 shifts must fit in 32 bits: 2^31 - 1 pixels is the
        largest bound that does, and 2^31 - 0.5 rounds (half to even) to
        2^31. 1e308 * 8 overflows to inf. A vector dataset has no geometry
        to check."""
        blobs = E.build_dataset(E.parse_config_text(QUICK_CONFIG).dataset)
        assert blobs.inputs.shape[3] == 8
        perturb = PerturbConfig(translate_frac_max=frac)
        if pixels is not None:
            E._check_shift_bound(perturb, blobs)
            assert max_shift_px(perturb, 8) == pixels
            views = perturb_pair(blobs.inputs[:3], perturb, (0,))
            assert all(np.isfinite(view).all() for view in views)
        else:
            with pytest.raises(ConfigError, match="pixels is too large"):
                E._check_shift_bound(perturb, blobs)
        moons = D.gen_two_moons(8, 0.1, np.random.default_rng(0))
        E._check_shift_bound(PerturbConfig(translate_frac_max=1e300), moons)

    def test_pool_has_no_more_workers_than_cells(self, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(E, "ProcessPoolExecutor", RecordingPool)
        two_cells = E.parse_config_text(QUICK_CONFIG + "[sweep]\nseeds = 0, 1\n")
        pooled = E.run_experiment(two_cells, parallel=4)
        assert sizes == [2]
        assert E.results_csv_text(pooled) == E.results_csv_text(E.run_experiment(two_cells))
        one_cell = E.parse_config_text(QUICK_CONFIG)
        E.run_experiment(one_cell, parallel=4)
        assert sizes == [2]   # a single cell runs in this process


    def test_pool_forks_its_workers(self, monkeypatch):
        """Whatever the platform's default start method: perfbench's tracer
        relies on workers inheriting its wrappers."""
        contexts = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, mp_context=None, **kwargs):
                contexts.append(mp_context)
                super().__init__(max_workers, mp_context, **kwargs)

        monkeypatch.setattr(E, "ProcessPoolExecutor", RecordingPool)
        two_cells = E.parse_config_text(QUICK_CONFIG + "[sweep]\nseeds = 0, 1\n")
        assert not E.run_experiment(two_cells, parallel=2).failed
        assert [context.get_start_method() for context in contexts] == ["fork"]

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: no variant column"),
        (",".join(RESULTS_HEADER[:-1]) + "\n", "line 1: no f1 column"),
        (",".join(RESULTS_HEADER) + "\nmt,0.5,0.2,0,0.9,0.8,0.7,0.6,0.5"
         "\nmt,abc,0.2,1,0.9,0.8,0.7,0.6,0.5\n", "line 3: cannot read beta from 'abc'"),
        (",".join(RESULTS_HEADER) + "\nmt,0.5,0.2,0,0.9,0.8\n",
         "line 2: cannot read specificity from ''"),
        (b"variant,b\xe9ta\n", "is not UTF-8 text (at byte offset 9)"),
    ], ids=["empty", "missing-column", "not-a-number", "short-row", "not-utf8"])
    def test_malformed_results_csv_is_one_data_error(self, tmp_path, capsys, text, message):
        (tmp_path / "results.csv").write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(FormatError, match=re.escape(message)):
            E.load_results_csv(tmp_path / "results.csv")
        assert cli.main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("data error: FormatError: ") and line.endswith(message)

    def test_missing_results_csv_is_one_data_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("data error: FileNotFoundError: ")
        assert line.endswith(str(tmp_path / "results.csv") + "'")

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_parallel_below_one_is_a_usage_error(self, tmp_path, capsys, parallel):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", str(cfg_path), "--out", str(out), "--parallel", parallel])
        assert stop.value.code == 2
        assert "--parallel must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "relcon.cli", *args],
                              capture_output=True, text=True, timeout=600)

    def test_run_and_report_and_selftest(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG)
        out = tmp_path / "out"
        proc = self.run_cli("run", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "results.csv").exists()

        proc = self.run_cli("report", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "auc_mean" in proc.stdout

    @pytest.mark.parametrize("command, text, flags, message", [
        ("run", "[train]\nbata = 1\n", (), "bata"),
        # a run is set by its config alone: no sweep alias, seed or dump-epoch flag
        ("sweep", QUICK_CONFIG + SWEEP_BLOCK, (), "invalid choice: 'sweep'"),
        ("run", QUICK_CONFIG, ("--seed", "5"), "--seed"),
        ("run", QUICK_CONFIG, ("--dump-relations", "0"), "--dump-relations"),
    ], ids=["unknown-key", "sweep-command", "seed-flag", "dump-relations-flag"])
    def test_config_error_exit_code(self, tmp_path, command, text, flags, message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        proc = self.run_cli(command, str(cfg_path), "--out", str(out), *flags)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert not out.exists()

    def test_rejected_value_exits_with_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("[perturb]\nflip_prob = 2\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "config error: [perturb]" in capsys.readouterr().err

    @pytest.mark.parametrize("content, error", [(None, "FileNotFoundError"),
                                                (b"\xff\xfe[train]\n", "UnicodeDecodeError")])
    def test_unreadable_config_file_is_one_config_error(self, tmp_path, capsys, content, error):
        cfg_path = tmp_path / "exp.cfg"
        if content is not None:
            cfg_path.write_bytes(content)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"config error: {error}: ")
        assert not out.exists()

    def test_huge_shift_bound_is_one_config_error(self, tmp_path, capsys):
        """A finite translate_frac_max too large for 8-pixel images stops the
        run before its two cells, with one error line, exit 2 and no run
        directory."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG + "[perturb]\ntranslate_frac_max = 1e300\n"
                            "[sweep]\nseeds = 0, 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--parallel", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("config error: [perturb] translate_frac_max = 1e+300 on images "
                               "8 pixels wide: ")
        assert not out.exists()

    def test_rejected_sweep_value_exits_with_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG + "[sweep]\nvariant = mt, srcmt\n")
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: [sweep] variant = 'srcmt'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "[train]\ndropout_rate = 1.5\n",
        "[train]\nconv_channels = 0, 8\n",
        "[dataset]\ngenerator = blobs\nsize = 1\n",
        "[dataset]\nseed = -1\n",
        "[split]\nseed = -1\n",
        # layers that do not fit the dataset: found when the run builds its model
        "[dataset]\ngenerator = moons\n[train]\nhidden =\n",
        "[dataset]\ngenerator = blobs\n[train]\nconv_channels =\n",
    ])
    def test_out_of_range_model_or_dataset_exits_with_config_error(
            self, tmp_path, capsys, text):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_cli_block_names_exactly_the_parsers_commands_and_flags(self, capsys):
        def help_text(*argv):
            with pytest.raises(SystemExit):
                cli.main([*argv, "--help"])
            return capsys.readouterr().out

        def flags(text):
            return set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help"}

        commands = re.search(r"\{([a-z,]+)\}", help_text()).group(1).split(",")
        parsed = {command: flags(help_text(command)) for command in commands}
        section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.splitlines():
            command = line.partition("#")[0]
            assert command.startswith("relcon "), line
            documented[command.split()[1]] = flags(command)
        assert parsed == documented
        assert sorted(commands) == ["report", "run", "selftest"]
        assert parsed["run"] == {"--out", "--parallel"}

    def test_selftest_subcommand(self):
        proc = self.run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("[PASS]") == len(selftest.ALL_CHECKS)
        assert "[FAIL]" not in proc.stdout


class TestDeterminism:
    """Results do not depend on BLAS threads or on the number of workers."""

    CONFIG = QUICK_CONFIG + """
[perturb]
noise_enabled = true
noise_variance = 0.04
noise_clip = 0.3

[sweep]
variant = mt, src_mt
seeds = 0, 1
"""

    @staticmethod
    def _outputs(out: Path) -> dict[str, bytes]:
        files = [out / "results.csv", *sorted((out / "runs").rglob("curves.csv"))]
        return {str(f.relative_to(out)): f.read_bytes() for f in files}

    def test_blas_threads_and_workers_leave_outputs_unchanged(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG)
        runs = {}
        for threads, parallel in (("1", "1"), ("2", "1"), ("1", "2")):
            out = tmp_path / f"out-t{threads}-p{parallel}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "relcon.cli", "run", str(cfg_path),
                                   "--out", str(out), "--parallel", parallel],
                                  capture_output=True, text=True, timeout=600, env=env)
            assert proc.returncode == 0, proc.stderr
            runs[threads, parallel] = self._outputs(out)
        first = runs["1", "1"]
        assert len(first) == 5   # results.csv and four cells' curves
        for outputs in runs.values():
            assert outputs == first

        # the run directory records the run it holds
        out = tmp_path / "out-t1-p1"
        report = json.loads((out / "report.json").read_text())
        echo = report["config_echo"]
        assert report["config_hash"] == hashlib.sha256(echo.encode("utf-8")).hexdigest()
        rows = [(r["variant"], r["beta"], r["labeled_fraction"], r["seed"])
                for r in E.load_results_csv(out / "results.csv")]
        assert E.sweep_cells(E.parse_config_text(echo)) == rows
