"""The file comparison of `scripts/same_outputs.py`, on two temporary
directories, and its default list of workloads."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text)
    return root


FILES = {"band.csv": b"s,F\n0.1,0.2\n0.3,0.4\n", "sub/band.cfg": b"t_min = 1e-08\n"}


def test_identical_trees_have_no_difference(tmp_path):
    a, b = _tree(tmp_path / "a", FILES), _tree(tmp_path / "b", FILES)
    assert same_outputs.compare(a, b) == []


def test_names_the_first_differing_line(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "band.csv": b"s,F\n0.1,0.2\n0.3,0.41\n"})
    assert same_outputs.compare(a, b) == [
        "band.csv: line 3: parent b'0.3,0.4\\n', change b'0.3,0.41\\n'"]


def test_a_longer_file_differs_past_the_shorter_ones_end(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "sub/band.cfg": FILES["sub/band.cfg"] + b"x\n"})
    assert same_outputs.compare(a, b) == ["sub/band.cfg: line 2: parent None, change b'x\\n'"]


def test_names_a_file_on_one_side_only(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {"band.csv": FILES["band.csv"], "extra.txt": b""})
    assert same_outputs.compare(a, b) == ["sub/band.cfg: only in parent",
                                          "extra.txt: only in change"]


def test_default_is_every_benchmark_workload(monkeypatch):
    bench = importlib.util.spec_from_file_location("bench_workloads",
                                                   ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(bench)
    monkeypatch.setitem(sys.modules, bench.name, workloads)   # for its dataclasses
    bench.loader.exec_module(workloads)
    assert same_outputs.WORKLOADS == tuple(workloads.WORKLOADS)


def test_rtol_counts_a_file_whose_numbers_agree_as_equal(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "band.csv": b"s,F\n0.1,0.2000000000001\n0.3,0.4\n"})
    assert same_outputs.compare(a, b, rtol=1e-10) == []
    assert list(same_outputs.report(a, b, rtol=1e-10)) == [
        (False, "band.csv: largest relative deviation 5e-13 at line 2")]
    assert same_outputs.compare(a, b) == [
        "band.csv: line 2: parent b'0.1,0.2\\n', change b'0.1,0.2000000000001\\n'"]
    assert same_outputs.compare(a, b, rtol=1e-14) == [
        "band.csv: largest relative deviation 5e-13 at line 2, over 1e-14"]


def test_deviation_reads_numbers_and_compares_the_text(tmp_path):
    deviation = same_outputs.deviation
    assert deviation(b"x = 1.0\ny = -2e-3, nan\n", b"x = 1.0\ny = -2.2e-3, nan\n") == (
        pytest.approx(0.2 / 2.2), 2)
    assert deviation(b"a,1\nb,2\n", b"a,1\nb,4\n") == (0.5, 2)
    assert deviation(b"a,1\n", b"a,1\n") == (0.0, None)
    assert deviation(b"s,F\n0.5,0.25\n", b"s,G\n0.5,0.25\n") is None    # text differs
    assert deviation(b"0.5,0.25\n", b"0.5,0.25,1\n") is None             # a number more
    assert deviation(b"0.5\n", b"0.5\n0.5\n") is None                      # a line more
    assert deviation(b"0.5,inf\n0.1\n", b"0.5,1e308\n0.2\n") == (math.inf, 1)
    assert deviation(b"0.5,nan\n", b"0.5,0.5\n") == (math.inf, 1)


def test_rtol_still_names_a_text_difference(tmp_path):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "sub/band.cfg": b"t_max = 1e-08\n"})
    assert same_outputs.compare(a, b, rtol=1.0) == [
        "sub/band.cfg: line 1: parent b't_min = 1e-08\\n', change b't_max = 1e-08\\n'"]
