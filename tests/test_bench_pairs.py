"""tools/bench_pairs.py: seed lists and the per-metric pair summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(work, rss):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"work_per_s": work, "peak_rss_mb": rss}}


def test_parse_seeds_takes_ranges_and_lists():
    assert bench_pairs.parse_seeds("1501-1503,1507") == [1501, 1502, 1503, 1507]
    assert bench_pairs.parse_seeds("9") == [9]


def test_summary_counts_pairs_won_by_direction_and_ties_for_neither():
    runs = [
        {"seed": 1, "first": "parent", "parent": _run(100.0, 40.0), "change": _run(120.0, 40.0)},
        {"seed": 2, "first": "change", "parent": _run(110.0, 41.0), "change": _run(110.0, 40.5)},
        {"seed": 3, "first": "parent", "parent": _run(90.0, 40.0), "change": _run(95.0, 41.0)},
        {"seed": 4, "first": "change", "parent": {"error": "boom"}, "change": _run(1.0, 1.0)},
    ]
    out = bench_pairs.summarise(runs, {"work_per_s": "higher", "peak_rss_mb": "lower"})
    assert out["pairs"] == 3 and out["seeds"] == [1, 2, 3]
    assert out["errors"] == [{"seed": 4, "parent": "boom"}]
    assert out["attempted"] == {"parent": 30, "change": 30}
    work, rss = out["metrics"]["work_per_s"], out["metrics"]["peak_rss_mb"]
    assert work["change_better_pairs"] == "2/3"  # the tie in pair 2 counts for neither
    assert rss["change_better_pairs"] == "1/3"
    assert work["parent_q1_median_q3"] == [95.0, 100.0, 105.0]  # inclusive quartiles
    assert work["parent_iqr"] == 10.0
    assert work["change_over_parent_median"] == pytest.approx(110.0 / 100.0)
