"""Tests of the benchmark itself, at tiny n."""

import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads as W  # noqa: E402
from vps import default_s_grid  # noqa: E402
from vps.cli import main  # noqa: E402
from vps.profiles import spectral_radius  # noqa: E402


def _tiny_band(tmp_path, config=None):
    """Band model B at n = 40 on 6 radii, with a default-config reference."""
    bench = W.BandSolve(n=40)
    s = default_s_grid(math.sqrt(spectral_radius(bench.profile())), 6)
    bench = W.BandSolve(n=40, reference=(s, np.zeros(len(s))))
    inputs = bench.prepare(0, str(tmp_path))
    dest = str(tmp_path / "reference.csv")
    assert main(["solve", "--profile", inputs["profile"], "--grid", inputs["grid"],
                 "--out", dest]) == 0
    cols = W.read_csv_columns(dest)
    return W.BandSolve(n=40, config=config, reference=(cols["s"], 1.0 - cols["inner"]))


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("bench", [W.CircularDensity(n=8), W.BlockAtomDensity(m=4),
                                   W.MonteCarlo(n=12, m=4)])
def test_random_inputs_repeat_per_seed_and_differ_across_seeds(bench, tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        inputs = bench.prepare(seed, str(tmp_path / name))
        (tmp_path / name / "inputs.json").write_text(
            json.dumps({k: os.path.basename(v) for k, v in inputs.items()}))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_band_inputs_do_not_depend_on_the_seed(tmp_path):
    bench = W.BandSolve(n=30, reference=(np.linspace(0.1, 1.0, 5), np.zeros(5)))
    for name, seed in (("a", 1), ("b", 2)):
        (tmp_path / name).mkdir()
        bench.prepare(seed, str(tmp_path / name))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_band_grid_is_the_stored_reference_grid(tmp_path):
    ref_s = W.BandSolve().reference()[0]
    start, stop, count = W.BandSolve(n=30).prepare(0, str(tmp_path))["grid"].split(":")
    assert np.array_equal(np.linspace(float(start), float(stop), int(count)), ref_s)


def test_scaled_circular_profile_reproduces_the_circular_law(tmp_path):
    bench = W.CircularDensity(n=8, grid_points=20)
    grid = bench.profile_grid(3)
    assert not np.allclose(grid, 1.0)
    outcome = bench.run(bench.prepare(3, str(tmp_path)), str(tmp_path), main)
    assert outcome.failed == 0, outcome.failures
    assert outcome.attempted > 20
    assert outcome.max_dev <= 1e-6


def test_permuted_block_atom_reproduces_its_closed_form(tmp_path):
    bench = W.BlockAtomDensity(m=4, grid_points=20)
    grid = bench.profile_grid(3)
    assert not np.array_equal(grid, W.build_block_atom(W.K, 4).variances)
    outcome = bench.run(bench.prepare(3, str(tmp_path)), str(tmp_path), main)
    assert outcome.failed == 0, outcome.failures
    assert outcome.max_dev <= 1e-4


def test_too_small_iteration_budget_fails_density_checks(tmp_path):
    # the library reports F = 1 everywhere and exits 0; the checks see it
    bench = W.BlockAtomDensity(m=20, grid_points=20, config={"max_iters": 60})
    outcome = bench.run(bench.prepare(1, str(tmp_path)), str(tmp_path), main)
    assert outcome.failed > 0
    assert 0.0 < outcome.failed / outcome.attempted < 1.0


def test_too_small_iteration_budget_fails_solve_rows(tmp_path):
    good = _tiny_band(tmp_path)
    assert good.run(good.prepare(0, str(tmp_path)), str(tmp_path), main).failed == 0
    bad = _tiny_band(tmp_path, config={"max_iters": 5})
    outcome = bad.run(bad.prepare(0, str(tmp_path)), str(tmp_path), main)
    assert outcome.failed > 0
    assert any("residual=inf" in f for f in outcome.failures)


def test_off_kernel_distance_of_an_exact_sample_is_small():
    s = np.linspace(0.01, W.block_atom_edge(W.K), 2000)
    # moduli distributed by the conditioned block atom CDF, plus the kernel
    F = np.array([(W.block_atom_F(W.K, x) - 1 / 3) / (2 / 3) for x in s])
    moduli = np.concatenate([np.zeros(1000), np.interp(np.linspace(0, 1, 2000), F, s)])
    assert W.off_kernel_distance(moduli) <= 2e-3


def test_benchmark_file_names_every_workload_and_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric(tmp_path, trace):
    bench = W.CircularDensity(n=8, grid_points=12)
    out = io.StringIO()
    result = run.run_benchmark(bench, 2, 0.0, trace, out=out, work=str(tmp_path / "work"),
                               spans_dir=str(tmp_path / "spans"))
    env = json.loads(out.getvalue())["env"]
    assert {"nproc", "cpu", "python", "numpy", "blas", "VPS_THREADS", "git_commit"} <= set(env)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["mesolver.points"] == 12 and m["mesolver.fp_iters"] > 0
        assert m["profiles.spectral_radius_calls"] >= 1
        assert os.listdir(tmp_path / "spans")
    else:
        assert m["ok_frac"] == 1.0 and m["err_digits"] > 6
        assert all(math.isfinite(v) and v > 0 for v in m.values())
