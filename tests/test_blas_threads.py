"""`scripts/blas_threads.py` on one round of `circ-n64`."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("blas_threads", ROOT / "scripts" / "blas_threads.py")
blas_threads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas_threads)


def test_one_round_reports_every_case():
    try:
        blas_threads.thread_control()
    except blas_threads.NoThreadControl as exc:
        pytest.skip(str(exc))
    code, record, stderr = blas_threads.run(ROOT, workload="circ-n64",
                                            functions=["vps.profiles._product"], runs=1)
    assert code == 0, stderr
    assert record["threads"] >= 1
    cases = record["cases"]
    assert list(cases) == [blas_threads.NONE, "vps.profiles._product", blas_threads.ALL]
    for times in cases.values():
        assert len(times["cpu"]) == len(times["wall"]) == 1 and times["wall"][0] > 0
    lines = blas_threads.report(record).splitlines()
    assert len(lines) == 2 + len(cases) and lines[3].startswith("vps.profiles._product")


def test_missing_thread_control_exits_2(monkeypatch, capsys):
    code, record, stderr = blas_threads.run(ROOT, workload="circ-n64", runs=1,
                                            symbols=[["no_such_set", "no_such_get"]])
    assert code == 2 and record is None
    assert "no loaded OpenBLAS exports no_such_set" in stderr
    monkeypatch.setattr(blas_threads, "run", lambda checkout, **kwargs: (code, record, stderr))
    assert blas_threads.main([str(ROOT), "--workload", "circ-n64"]) == 2
    assert "no loaded OpenBLAS exports no_such_set" in capsys.readouterr().err


def test_threads_inside_the_function_alone(monkeypatch):
    try:
        setter, getter = blas_threads.thread_control()
    except blas_threads.NoThreadControl as exc:
        pytest.skip(str(exc))
    import vps

    threads = getter()
    probe = types.ModuleType("vps.blas_probe")
    probe.seen = []
    probe.inside = lambda: probe.seen.append(getter())
    monkeypatch.setitem(sys.modules, "vps.blas_probe", probe)
    monkeypatch.setattr(vps, "blas_probe_inside", probe.inside, raising=False)
    target = probe.inside
    setter(1)
    undo = blas_threads.threaded_inside("vps.blas_probe.inside", setter, threads)
    try:
        assert probe.inside is not target and vps.blas_probe_inside is probe.inside
        probe.inside()
        outside = getter()
    finally:
        undo()
        setter(threads)
    assert probe.seen == [threads] and outside == 1
    assert probe.inside is target and vps.blas_probe_inside is target
