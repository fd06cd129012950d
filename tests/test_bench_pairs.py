"""The summary of `scripts/bench_pairs.py`, on canned result lines."""

import importlib.util
import json
import subprocess
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
    assert "3/4" in bench_pairs.format_rows(bench_pairs.summarize(pairs, better), better)


def test_directions_come_from_the_benchmark():
    better = bench_pairs.directions()
    assert better["wall_s"] == "lower" and better["err_digits"] == "higher"


def test_paths_of_different_length_are_refused(tmp_path):
    bench_pairs.check_paths(tmp_path / "base", tmp_path / "head")
    with pytest.raises(ValueError, match="differ in length"):
        bench_pairs.check_paths(tmp_path / "base", tmp_path / "change")


def _rows(walls):
    """`summarize`'s wall_s row of (parent, change) wall times."""
    pairs = [(bench_pairs.parse_result(_line(old, 40.0, 7.0)),
              bench_pairs.parse_result(_line(new, 40.0, 7.0))) for old, new in walls]
    return bench_pairs.summarize(pairs, {"wall_s": "lower"})


def test_verdict_needs_nine_of_ten_wins_and_a_gap_past_the_iqr():
    better = {"wall_s": "lower"}
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # every pair won, by a gap far past the parent's IQR (0.03)
    (row,) = _rows([(old, old - 0.1) for old in parent])
    assert bench_pairs.verdict(row, better) == "gain"
    assert row[0] == "wall_s" and bench_pairs.format_rows([row], better).endswith("gain")
    # 9 of 10 pairs still count; 8 of 10 do not
    nine = [(old, old - 0.1) for old in parent[:9]] + [(parent[9], parent[9] + 0.1)]
    assert bench_pairs.verdict(_rows(nine)[0], better) == "gain"
    eight = nine[:8] + [(old, old + 0.1) for old in parent[8:]]
    assert bench_pairs.verdict(_rows(eight)[0], better) == "unresolved"
    # every pair won, but the medians differ by less than the parent's IQR
    (row,) = _rows([(old, old - 0.01) for old in parent])
    assert row[7] == 10 and bench_pairs.verdict(row, better) == "unresolved"
    # higher is better: a fall is no gain
    (row,) = _rows([(old, old - 0.1) for old in parent])
    assert bench_pairs.verdict(row, {"wall_s": "higher"}) == "unresolved"


def test_checkouts_with_cached_bytecode_are_refused(tmp_path, capsys):
    for side in ("base", "head"):
        for top in ("src/vps", "perfbench", "tests"):
            (tmp_path / side / top).mkdir(parents=True)
    (tmp_path / "head" / "tests" / "__pycache__").mkdir()   # outside src/ and perfbench/
    bench_pairs.check_caches(tmp_path / "head")
    cache = tmp_path / "head" / "src" / "vps" / "__pycache__"
    cache.mkdir()
    with pytest.raises(ValueError, match="__pycache__"):
        bench_pairs.check_caches(tmp_path / "head")
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "circ-n64",
            "--pairs", "1", "--seconds", "1", "--seed", "1"]
    assert bench_pairs.main(argv) == 2
    assert str(cache) in capsys.readouterr().err
    cache.rmdir()
    (tmp_path / "base" / "perfbench" / "__pycache__").mkdir()
    assert bench_pairs.main(argv) == 2
    assert str(tmp_path / "base" / "perfbench" / "__pycache__") in capsys.readouterr().err


def test_runs_compile_from_source(tmp_path, monkeypatch):
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen.update(cmd=cmd, env=env, cwd=cwd)
        return subprocess.CompletedProcess(cmd, 0, stdout=_line(0.5, 40.0, 7.0))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path.parent)
    assert bench_pairs.run_once(tmp_path.name, "circ-n64", 1, 1.0)["wall_s"] == 0.5
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1" and seen["cwd"] == str(tmp_path)
    assert seen["cmd"][1] == str(tmp_path / "perfbench" / "run.py")   # a relative checkout too


def test_names_the_environment_that_moves_the_metrics():
    line = bench_pairs.environment({"MALLOC_MMAP_THRESHOLD_": "131072", "OMP_NUM_THREADS": "1"})
    assert line == ("environment: MALLOC_MMAP_THRESHOLD_=131072 OPENBLAS_NUM_THREADS=unset "
                    "OMP_NUM_THREADS=1")


def test_prints_the_environment_before_the_summary(tmp_path, monkeypatch, capsys):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds:
                        bench_pairs.parse_result(_line(0.5, 40.0, 7.0)))
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "circ-n64",
            "--pairs", "2", "--seconds", "1", "--seed", "1"]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("environment: MALLOC_MMAP_THRESHOLD_=131072 "
                     "OPENBLAS_NUM_THREADS=unset OMP_NUM_THREADS=unset")
    assert at == 4 and lines[at + 1].startswith("metric")
