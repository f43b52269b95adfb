"""tools/bench_pairs.py: the summary of alternating parent/change pairs."""

import importlib.util
from pathlib import Path

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
