"""The file comparison of `scripts/same_outputs.py`, on two temporary
directories, and its default list of workloads."""

import importlib.util
import sys
from pathlib import Path

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
