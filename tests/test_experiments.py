"""Experiment harness: config grammar, sweeps, reports, CLI."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcon import cli
from relcon import experiments as E
from relcon.errors import ConfigError, ContractError

README = Path(__file__).resolve().parents[1] / "README.md"
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

    def test_perturb_section(self):
        cfg = E.parse_config_text(
            "[perturb]\nnoise_enabled = true\nnoise_variance = 0.04\nflip_prob = 0.25\n")
        assert cfg.train.perturb.noise_enabled
        assert cfg.train.perturb.noise_variance == 0.04
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
        ("split", "labeled_fraction = 0"),
    ])
    def test_rejected_value_is_config_error_naming_section(self, section, line):
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
            E.parse_config_text(f"[{section}]\n{line}\n")

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
        cfg.sweep = E.SweepSection(variant=("mt",), beta=(0.0,) * 101,
                                   labeled_fraction=(0.1,), seeds=huge)
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
            points = E.load_curves_csv(run_dir / "curves.csv")
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
        import dataclasses
        cfg.output = dataclasses.replace(cfg.output, dump_relations=(1,))
        rep = E.run_experiment(cfg)
        E.emit_reports(rep, tmp_path)
        dumps = sorted((tmp_path / "runs").rglob("relation_epoch1_student.csv"))
        assert dumps
        from relcon.losses import read_matrix_csv
        r = read_matrix_csv(dumps[0])
        assert r.shape[0] == r.shape[1]
        norms = np.linalg.norm(r, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6  # 9 significant digits in file
        dist = read_matrix_csv(dumps[0].parent / "distance_epoch1.csv")
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

    def test_sweep_requires_sweep_section(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG)
        proc = self.run_cli("sweep", str(cfg_path))
        assert proc.returncode == 2
        assert "sweep" in proc.stderr

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG)
        out = tmp_path / "out"
        proc = self.run_cli("run", str(cfg_path), "--out", str(out), "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        rows = E.load_results_csv(out / "results.csv")
        assert [r["seed"] for r in rows] == [5]

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("[train]\nbata = 1\n")
        proc = self.run_cli("run", str(cfg_path))
        assert proc.returncode == 2
        assert "bata" in proc.stderr

    def test_rejected_value_exits_with_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("[perturb]\nflip_prob = 2\n")
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "config error: [perturb]" in capsys.readouterr().err

    def test_dump_relations_flag(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(QUICK_CONFIG)
        out = tmp_path / "out"
        proc = self.run_cli("run", str(cfg_path), "--out", str(out),
                            "--dump-relations", "0,1")
        assert proc.returncode == 0, proc.stderr
        dumps = list((out / "runs").rglob("distance_epoch0.csv"))
        assert dumps

    def test_selftest_subcommand(self):
        proc = self.run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("[PASS]") >= 7
        assert "[FAIL]" not in proc.stdout
