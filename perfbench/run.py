"""Benchmark of the `vps` command line, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload circ-n64 --seed 1 --seconds 20 --trace 0

A run imports `vps` from `src/`, then repeats the workload's closed-loop
command sequence (see `workloads.py`) on inputs written from the seed, for
about `--seconds` seconds and at least once.  Every output is checked.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it records the environment.

`--trace 0` reports the end-to-end metrics:

- `setup_s`: import of numpy and `vps` plus writing the inputs; the median
  of three setups.  The first import is this script's own, timed from its
  start; the other two are timed in fresh interpreters.
- `wall_s`, `cpu_s`: wall and process CPU (user + sys) time of one command
  sequence with its output checks, each the minimum over the sequences of
  the run, so that a slow stretch of the host within a run does not count.
- `peak_rss_mb`: the process's `ru_maxrss`.
- `err_digits`: -log10 of the largest deviation of an output from the
  workload's reference.
- `ok_frac`: operations that passed over operations attempted.

`--trace 1` alternates untraced and traced sequences and reports the
per-layer metrics of the traced ones (see `spans.py`).  Each module's self
time is the time its spans cover minus their children, and the layers'
self times sum to the traced wall time.  Two counts are computed, not
measured:

- `mesolver.matvec_gb` = fp_iters * 2 * 8 n^2 / 1e9: each fixed-point
  iteration reads V twice, once for V q_tilde and once for V^T q.
- `montecarlo.eig_gflop` = 10 n^3 / 1e9 per `spectrum` call: the nominal
  flop count of a dense nonsymmetric eigenvalue solve (Hessenberg
  reduction and QR iteration, eigenvalues only), whatever the arithmetic.

The spans of a traced run are written to `.perfbench_out/`.  The benchmark
sets no BLAS thread variable.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "err_digits": "digits", "ok_frac": "frac"}

PER_LAYER = {
    "cli.self_s": "s", "core.self_s": "s", "profiles.self_s": "s",
    "mesolver.self_s": "s", "measures.self_s": "s", "montecarlo.self_s": "s",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_frac": "frac",
    "mesolver.solve_curve_s": "s", "mesolver.points": "count",
    "mesolver.fp_iters": "count", "mesolver.fp_iters_spread": "count",
    "mesolver.us_per_iter": "us", "mesolver.failed_points": "count",
    "mesolver.matvec_gb": "GB", "mesolver.matvec_gbps": "GB/s",
    "mesolver.derivative_s2_s": "s", "mesolver.derivative_s2_calls": "count",
    "mesolver.solve_at_zero_s": "s",
    "measures.cdf_s": "s", "measures.grid_density_self_s": "s",
    "measures.atom_at_zero_s": "s", "measures.density_lower_bound_s": "s",
    "measures.density_at_zero_s": "s",
    "profiles.spectral_radius_s": "s", "profiles.spectral_radius_calls": "count",
    "core.read_profile_csv_s": "s", "core.eig_csv_io_s": "s",
    "montecarlo.sample_matrix_s": "s", "montecarlo.spectrum_s": "s",
    "montecarlo.eig_gflop": "GFLOP", "montecarlo.kolmogorov_distance_s": "s",
}

LAYERS = ("cli", "core", "profiles", "mesolver", "measures", "montecarlo", "bench")

SETUPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sys; "
                "sys.path[:0] = sys.argv[1:]; import numpy, vps, workloads; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import numpy, `vps` and the
    benchmark's modules."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src"), HERE],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, or None outside a git clone.  Git does not look
    for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def environment(np) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "VPS_THREADS": os.environ.get("VPS_THREADS"),
            "git_commit": git_commit()}


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced sequence."""
    own = tracer.self_times()
    total, count, self_by_layer = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for span, t_self in zip(tracer.spans, own):
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        count[span.name] = count.get(span.name, 0) + 1
        layer = span.name.split(".")[0]
        self_by_layer[layer] += t_self
    curves = [s.attrs for s in tracer.spans if s.name == "mesolver.solve_curve"]
    fp_iters = sum(c["fp_iters"] for c in curves)
    matvec_gb = sum(c["fp_iters"] * 2 * 8 * c["n"] ** 2 for c in curves) / 1e9
    solve_s = total.get("mesolver.solve_curve", 0.0)
    grid_density_self = sum(t for s, t in zip(tracer.spans, own)
                            if s.name == "measures.grid_density")
    eig_gflop = sum(10 * s.attrs["n"] ** 3 for s in tracer.spans
                    if s.name == "montecarlo.spectrum") / 1e9
    m = {f"{layer}.self_s": t for layer, t in self_by_layer.items()}
    m.update({
        "trace.wall_s": wall,
        "mesolver.solve_curve_s": solve_s,
        "mesolver.points": sum(c["points"] for c in curves),
        "mesolver.fp_iters": fp_iters,
        "mesolver.us_per_iter": 1e6 * solve_s / fp_iters if fp_iters else 0.0,
        "mesolver.failed_points": sum(c["failed_points"] for c in curves),
        "mesolver.matvec_gb": matvec_gb,
        "mesolver.matvec_gbps": matvec_gb / solve_s if solve_s else 0.0,
        "mesolver.derivative_s2_s": total.get("mesolver.derivative_s2", 0.0),
        "mesolver.derivative_s2_calls": count.get("mesolver.derivative_s2", 0),
        "mesolver.solve_at_zero_s": total.get("mesolver.solve_at_zero", 0.0),
        "measures.cdf_s": total.get("measures.cdf", 0.0),
        "measures.grid_density_self_s": grid_density_self,
        "measures.atom_at_zero_s": total.get("measures.atom_at_zero", 0.0),
        "measures.density_lower_bound_s": total.get("measures.density_lower_bound", 0.0),
        "measures.density_at_zero_s": total.get("measures.density_at_zero", 0.0),
        "profiles.spectral_radius_s": total.get("profiles.spectral_radius", 0.0),
        "profiles.spectral_radius_calls": count.get("profiles.spectral_radius", 0),
        "core.read_profile_csv_s": total.get("core.read_profile_csv", 0.0),
        "core.eig_csv_io_s": total.get("core.eig_csv_io", 0.0),
        "montecarlo.sample_matrix_s": total.get("montecarlo.sample_matrix", 0.0),
        "montecarlo.spectrum_s": total.get("montecarlo.spectrum", 0.0),
        "montecarlo.eig_gflop": eig_gflop,
        "montecarlo.kolmogorov_distance_s": total.get("montecarlo.kolmogorov_distance", 0.0),
    })
    return m


def sequences(workload, inputs, workdir, seconds, trace):
    """Repeat the workload's command sequence for about `seconds`, at least
    once; with `trace`, alternate untraced and traced sequences."""
    from spans import Tracer
    from vps.cli import main as vps_main
    from workloads import Outcome

    total = Outcome()
    walls, cpus, traced_walls, layers, spans = [], [], [], [], []
    began = time.perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        main = vps_main
        if traced:
            tracer = Tracer(run=len(walls) + len(traced_walls))
            tracer.install()
            main = tracer.wrap("cli.main", vps_main)
            root = tracer.begin("bench.sequence")
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = workload.run(inputs, workdir, main)
        finally:
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            if traced:
                span = tracer.end(root)
                tracer.uninstall()
                wall = span.end - span.start
        total.merge(outcome)
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, wall))
            spans.append(tracer.to_json())
        else:
            walls.append(wall)
            cpus.append(cpu)
        elapsed = time.perf_counter() - began
        done = len(walls) + len(traced_walls)
        if (not trace or traced_walls) and elapsed * (done + 1) / done > seconds:
            return total, walls, cpus, traced_walls, layers, spans


def run_benchmark(workload, seed, seconds, trace, out=sys.stdout, work=WORK, spans_dir=OUT):
    """One benchmark run; returns the result object of the last line."""
    import numpy as np

    imports = [time.perf_counter() - START]
    print(json.dumps({"env": environment(np), "workload": workload.name, "seed": seed,
                      "seconds": seconds, "trace": trace}), file=out)
    imports += [import_seconds() for _ in range(SETUPS - 1)]
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work)
    try:
        setups = []
        for import_s in imports:
            t0 = time.perf_counter()
            inputs = workload.prepare(seed, workdir)
            setups.append(import_s + time.perf_counter() - t0)
        total, walls, cpus, traced_walls, layers, spans = sequences(
            workload, inputs, workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work)  # only when no other run is using it
        except OSError:
            pass
    for failure in total.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER
                   if k not in ("trace.overhead_frac", "mesolver.fp_iters_spread")}
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(walls) - 1.0)
        fp = [m["mesolver.fp_iters"] for m in layers]
        metrics["mesolver.fp_iters_spread"] = max(fp) - min(fp)
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, f"spans-{workload.name}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": workload.name, "seed": seed, "untraced_wall_s": walls,
                       "traced_wall_s": traced_walls, "spans": spans}, fh)
        units = PER_LAYER
    else:
        dev = min(max(total.max_dev, 1e-17), 1e17)
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": min(walls),
                   "cpu_s": min(cpus),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "err_digits": -math.log10(dev),
                   "ok_frac": 1.0 - total.failed / total.attempted}
        units = END_TO_END
    return {"correct": total.failed == 0, "attempted": total.attempted,
            "failed": total.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import vps
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import vps from {src}: {exc}", file=sys.stderr)
        return 1
    if not os.path.abspath(vps.__file__).startswith(src + os.sep):
        print(f"perfbench: vps was imported from {vps.__file__}, not {src}", file=sys.stderr)
        return 1
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_benchmark(WORKLOADS[args.workload](), args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
