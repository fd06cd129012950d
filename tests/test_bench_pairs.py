"""The summary of `scripts/bench_pairs.py`, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _line(wall, rss, digits, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "err_digits": {"value": digits, "unit": "digits"}}
    return "env line\n" + json.dumps({"correct": not failed, "attempted": 10,
                                      "failed": failed, "metrics": metrics})


def test_parse_result_reads_the_last_line():
    assert bench_pairs.parse_result(_line(0.5, 40.0, 7.0, failed=2)) == {
        "wall_s": 0.5, "peak_rss_mb": 40.0, "err_digits": 7.0, "failed": 2}


def test_summary_counts_wins_in_each_metric_direction():
    better = {"wall_s": "lower", "peak_rss_mb": "lower", "err_digits": "higher",
              "ok_frac": "higher"}
    runs = [((0.10, 40.0, 7.0), (0.05, 41.0, 7.0)),
            ((0.12, 40.0, 7.0), (0.06, 40.0, 7.5)),
            ((0.08, 40.0, 7.0), (0.09, 39.0, 6.5)),
            ((0.11, 40.0, 7.0), (0.04, 40.5, 7.0))]
    pairs = [(bench_pairs.parse_result(_line(*old)), bench_pairs.parse_result(_line(*new)))
             for old, new in runs]
    rows = {row[0]: row[1:] for row in bench_pairs.summarize(pairs, better)}
    assert set(rows) == {"wall_s", "peak_rss_mb", "err_digits"}   # ok_frac: not reported
    median, q1, q3, new_median, new_q1, new_q3, wins, count = rows["wall_s"]
    assert (median, new_median, wins, count) == (pytest.approx(0.105), 0.055, 3, 4)
    assert q1 == pytest.approx(0.095) and q3 == pytest.approx(0.1125)
    assert (new_q1, new_q3) == (pytest.approx(0.0475), pytest.approx(0.0675))
    assert rows["peak_rss_mb"][6] == 1          # ties count for neither side
    assert rows["err_digits"][6] == 1           # higher is better
    assert "3/4" in bench_pairs.format_rows(bench_pairs.summarize(pairs, better))


def test_directions_come_from_the_benchmark():
    better = bench_pairs.directions()
    assert better["wall_s"] == "lower" and better["err_digits"] == "higher"


def test_paths_of_different_length_are_refused(tmp_path):
    bench_pairs.check_paths(tmp_path / "base", tmp_path / "head")
    with pytest.raises(ValueError, match="differ in length"):
        bench_pairs.check_paths(tmp_path / "base", tmp_path / "change")
