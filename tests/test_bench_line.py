"""bench.py prints one JSON line that parses: headline fields only."""

from __future__ import annotations

import json

import bench


def test_headline_line_parses_without_queries():
    result = {
        "metric": "flagship_quality_filter_sec", "value": 6.48, "unit": "sec",
        "queries": {f"q{i}": i / 10 for i in range(200)},
        "sf": "sf0.1", "num_cpus": 32, "n_docs": 1_200_000, "docs_per_sec": 185185.2,
    }
    line = bench.headline_line(result, bench.DETAIL_PATH)
    assert "\n" not in line
    head = json.loads(line)
    assert "queries" not in head
    assert head["detail"] == bench.DETAIL_PATH
    assert {k: v for k, v in head.items() if k != "detail"} == {
        k: v for k, v in result.items() if k != "queries"}
    assert len(line) < 400


def test_headline_line_keeps_scaling_results_whole():
    """--scaling results carry no per-query dict and print as they are."""
    result = {"metric": "scaling_efficiency", "value": 0.855, "unit": "ratio",
              "per_repeat_eff": [0.85, 0.86, 0.84], "cpus": [2, 8]}
    assert json.loads(bench.headline_line(result)) == result
