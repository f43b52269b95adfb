"""tools/bench_pairs.py: the summary of alternating parent/change pairs."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"samples_per_s": "higher", "peak_rss_mb": "lower", "tensor.nodes": "lower"}
BOUNDS = {"samples_per_s": 0.25, "peak_rss_mb": 0.1}


def _runs(values: dict[str, dict[str, list[float]]]) -> list[dict]:
    """One run per side and pair, holding the given metric values."""
    runs = []
    for side, metrics in values.items():
        for pair in range(len(next(iter(metrics.values())))):
            result = {"failed": 0, "attempted": 10, "correct": True,
                      "metrics": {name: {"value": v[pair], "unit": "u"}
                                  for name, v in metrics.items()}}
            runs.append({"side": side, "pair": pair, "seconds": 40,
                         "ru_minflt": 1000 + pair, "result": result})
    return runs


RUNS = _runs({
    "parent": {"samples_per_s": [100.0, 110.0, 90.0, 100.0],
               "peak_rss_mb": [50.0, 50.0, 50.0, 50.0],
               "tensor.nodes": [8064, 8064, 8064, 8064]},
    "change": {"samples_per_s": [100.0, 120.0, 80.0, 70.0],
               "peak_rss_mb": [56.0, 55.0, 50.0, 54.0],
               "tensor.nodes": [8064, 8064, 8064, 8064]},
})


def test_pairs_won_and_tied():
    out = bench_pairs.summarise(RUNS, BETTER, BOUNDS)
    assert out["pairs"] == 4
    assert out["pairs_won_by_change"] == {"samples_per_s": 1, "peak_rss_mb": 0,
                                          "tensor.nodes": 0}
    assert out["pairs_tied"] == {"samples_per_s": 1, "peak_rss_mb": 1, "tensor.nodes": 4}


def test_worse_by_against_bounds():
    out = bench_pairs.summarise(RUNS, BETTER, BOUNDS)
    # samples_per_s medians 100 -> 90: 10% worse, within 25%
    # peak_rss_mb medians 50 -> 54.5: 9% worse, within 10%
    # parent spreads: samples_per_s (102.5 - 97.5) / 100 = 5%, peak_rss_mb 0
    assert out["worse_by"]["samples_per_s"] == {"shift": pytest.approx(0.10), "bound": 0.25,
                                                "within_bound": True,
                                                "parent_spread": pytest.approx(0.05),
                                                "resolved": True}
    assert out["worse_by"]["peak_rss_mb"]["shift"] == pytest.approx(0.09)
    assert out["worse_by"]["peak_rss_mb"]["within_bound"]
    assert "tensor.nodes" not in out["worse_by"]   # a per-layer metric has no bound
    tight = bench_pairs.summarise(RUNS, BETTER, {"peak_rss_mb": 0.05})
    assert tight["worse_by"] == {"peak_rss_mb": {"shift": pytest.approx(0.09), "bound": 0.05,
                                                 "within_bound": False, "parent_spread": 0.0,
                                                 "resolved": True}}


def test_spread_wider_than_bound_is_unresolved():
    out = bench_pairs.summarise(RUNS, BETTER, {"samples_per_s": 0.04, "peak_rss_mb": 0.0})
    # samples_per_s: the parent's 5% spread exceeds a 4% bound; a spread of 0 meets a bound of 0
    assert out["worse_by"]["samples_per_s"]["parent_spread"] == pytest.approx(0.05)
    assert not out["worse_by"]["samples_per_s"]["resolved"]
    assert out["worse_by"]["peak_rss_mb"]["resolved"]


def test_side_entries():
    out = bench_pairs.summarise(RUNS, BETTER, BOUNDS)
    assert out["parent"]["samples_per_s"] == {"median": 100.0, "q1": 97.5, "q3": 102.5,
                                              "unit": "u"}
    assert out["change"]["attempted_ops"] == 40 and out["change"]["failed_ops"] == 0
    assert out["change"]["all_correct"]
    assert out["change"]["ru_minflt"]["median"] == 1001.5


@pytest.mark.parametrize("parent, change, better, shift", [
    (100.0, 90.0, "higher", 0.1),
    (100.0, 110.0, "higher", -0.1),
    (2.0, 2.5, "lower", 0.25),
    (2.0, 1.5, "lower", -0.25),
    (3.0, 3.0, "lower", 0.0),
])
def test_worse_shift_sign(parent, change, better, shift):
    assert bench_pairs.worse_shift(parent, change, better) == pytest.approx(shift)


# ten pairs: the parent's samples_per_s has median 100 and quartiles 99.25 and 100.75
PARENT_TEN = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]


@pytest.mark.parametrize("change, verdict", [
    # nine wins and a tie, medians 100 -> 104: both parts met
    ([104.0, 104.0, 104.0, 104.0, 104.0, 104.0, 104.0, 104.0, 104.0, 102.0],
     {"won": 9, "tied": 1, "lost": 0, "wins_met": True, "gap_met": True, "met": True}),
    # ten wins, but a median gain of 1.5 is not larger than the parent's IQR of 1.5
    ([99.5, 100.5, 100.5, 101.0, 101.5, 101.5, 101.5, 102.0, 102.0, 103.0],
     {"won": 10, "tied": 0, "lost": 0, "wins_met": True, "gap_met": False, "met": False}),
    # a large median gain from eight wins; the two ties count for neither side
    ([98.0, 99.0, 110.0, 110.0, 110.0, 110.0, 110.0, 110.0, 110.0, 110.0],
     {"won": 8, "tied": 2, "lost": 0, "wins_met": False, "gap_met": True, "met": False}),
], ids=["met", "gap-within-iqr", "eight-wins"])
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_iqr(change, verdict):
    runs = _runs({"parent": {"samples_per_s": PARENT_TEN}, "change": {"samples_per_s": change}})
    out = bench_pairs.summarise(runs, BETTER, BOUNDS, claim="samples_per_s")
    claim = out["claim"]
    assert claim["metric"] == "samples_per_s" and claim["pairs"] == 10
    assert claim["parent_iqr"] == 1.5
    assert {k: claim[k] for k in verdict} == verdict


def test_claim_on_a_lower_is_better_metric():
    runs = _runs({"parent": {"peak_rss_mb": [50.0, 52.0, 51.0, 50.0]},
                  "change": {"peak_rss_mb": [40.0, 41.0, 40.0, 42.0]}})
    claim = bench_pairs.summarise(runs, BETTER, BOUNDS, claim="peak_rss_mb")["claim"]
    assert claim["median_gap"] == pytest.approx(10.0)
    assert claim["won"] == 4 and claim["met"]
    assert "claim" not in bench_pairs.summarise(runs, BETTER, BOUNDS)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_state_names_the_commit_and_tracked_edits(tmp_path):
    """A checkout's HEAD, dirty only when a tracked file differs from it; a
    directory that is not the top of a checkout gives nulls."""
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    (repo / "sub" / "a.txt").write_text("one\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                               "user.email=t@example.com", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert bench_pairs.tree_state(repo) == {"head": head, "dirty": False}
    (repo / "new.txt").write_text("untracked\n")
    assert bench_pairs.tree_state(repo) == {"head": head, "dirty": False}
    (repo / "sub" / "a.txt").write_text("two\n")
    assert bench_pairs.tree_state(repo) == {"head": head, "dirty": True}
    assert bench_pairs.tree_state(repo / "sub") == {"head": None, "dirty": None}
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.tree_state(plain) == {"head": None, "dirty": None}


def test_relcon_run_summary_on_canned_runs():
    """Runs built as run_once builds them for the relcon_run_p1 workload: a
    non-zero exit is one failed op, and every metric is lower-is-better
    with no bound."""
    better, bounds = bench_pairs.metric_rules(bench_pairs.RUN_WORKLOAD, Path("unused"))
    assert better == {"wall_s": "lower", "minor_faults": "lower", "peak_rss_mb": "lower"}
    assert bounds == {}
    canned = {"parent": [(0, 10.0, 24000, 66560), (0, 11.0, 26000, 67584), (0, 12.0, 25000, 66560)],
              "change": [(0, 9.0, 900, 68608), (1, 12.5, 800, 68608), (0, 10.0, 1000, 69632)]}
    runs = [{"side": side, "pair": pair, "seconds": 40, "ru_minflt": faults,
             "result": bench_pairs.run_result(code, wall_s,
                                              SimpleNamespace(ru_minflt=faults, ru_maxrss=kib))}
            for side, values in canned.items()
            for pair, (code, wall_s, faults, kib) in enumerate(values)]
    out = bench_pairs.summarise(runs, better, bounds, claim="minor_faults")
    assert out["pairs_won_by_change"] == {"wall_s": 2, "minor_faults": 3, "peak_rss_mb": 0}
    assert out["worse_by"] == {}
    assert out["parent"]["wall_s"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "unit": "s"}
    assert out["change"]["peak_rss_mb"] == {"median": 67.0, "q1": 67.0, "q3": 67.5,
                                            "unit": "MiB"}
    assert out["change"]["minor_faults"]["median"] == 900
    assert (out["change"]["failed_ops"], out["change"]["attempted_ops"]) == (1, 3)
    assert not out["change"]["all_correct"] and out["parent"]["all_correct"]
    assert out["claim"]["won"] == 3 and out["claim"]["met"]


def test_run_child_reports_each_childs_own_peak_rss(tmp_path):
    """A small child after a large one reports its own peak, not the large
    one's, as a running maximum over all children would."""
    def child(mib):
        return bench_pairs.run_child(
            [sys.executable, "-c", f"import sys; b = b'x' * ({mib} << 20); print(len(b) >> 20); "
             "sys.exit(3)"], tmp_path, None)

    code, out, _, wall_s, big = child(96)
    assert (code, out.strip()) == (3, "96") and wall_s > 0
    _, _, _, _, small = child(1)
    assert big.ru_maxrss >= 96 * 1024 > small.ru_maxrss
