"""Which `vps` function wakes OpenBLAS's other threads on a workload.

Usage, from anywhere:

    python3 scripts/blas_threads.py CHECKOUT --workload circ-n64 \
        [--function vps.profiles._product ...] [--runs 15] [--seed 1]

The measurement runs in a fresh interpreter that imports `vps` and the
benchmark's `workloads` from the checkout.  It finds numpy's bundled
OpenBLAS among the libraries the process has loaded and holds it to one
thread everywhere, except inside one named function at a time, where the
library's own thread count applies (nested calls of the function stay
inside).  The function is wrapped under every name a `vps` module binds
it to.  Two more cases bracket the functions: `(none)`, one thread
everywhere, and `(all)`, the library's thread count everywhere.

Each round runs the workload's command sequence twice per case, in turn,
on inputs written from `--seed`, and measures the second: the first, after
a pause of SETTLE seconds in which idle threads stop spinning, wakes the
threads the case uses.  `--runs` rounds are made.  For each case it
prints the min and median of the sequence's process CPU time and wall
time, in ms.  A function whose times read well above `(none)`'s runs a
BLAS call that OpenBLAS spreads over its threads: they spin after the
call, which shows as CPU time above the wall time, or the call stalls
while they wake, which shows in both (on `circ-n64`, with each product
of up to 200 rows made as one call, `vps.profiles._product` read 23 ms
against 6 ms for `(none)`).

The thread control is the library's `openblas_set_num_threads` (under
the names numpy's scipy-openblas build exports it by); when no loaded
library exports it, the script exits 2 with a message.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys

# Functions measured by default: the products of the small-profile routes.
FUNCTIONS = ("vps.profiles._product", "vps.separable._roots",
             "vps.mesolver._residual_at_zero", "vps.mesolver.curve_products",
             "vps.mesolver.solve_at_zero", "vps.profiles.spectral_radius")

# (set, get) symbol names of the thread control, in the order tried.
SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
           ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
           ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
           ("openblas_set_num_threads", "openblas_get_num_threads"))

NONE, ALL = "(none)", "(all)"

# Seconds to wait before each case: OpenBLAS's idle threads spin for a
# while after their last call before they sleep, and that spinning would
# count against the next case.  An unmeasured sequence then wakes the
# threads the case uses, so that the measured one runs as the benchmark's
# closed loop does, with them awake.
SETTLE = 0.25

# The program of one measurement: argv is this script, the checkout, then
# the JSON of `measure`'s keyword arguments.  It prints the record as one
# JSON line, or exits 2 with a message when the thread control is missing.
RUN = """
import importlib.util, json, os, sys
script, checkout, kwargs = sys.argv[1:]
src = os.path.realpath(os.path.join(checkout, "src"))
sys.path[:0] = [src, os.path.realpath(os.path.join(checkout, "perfbench"))]
import vps
if not os.path.realpath(vps.__file__).startswith(src + os.sep):
    sys.exit(f"vps was imported from {vps.__file__}, not from {src}")
spec = importlib.util.spec_from_file_location("blas_threads", script)
blas_threads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas_threads)
try:
    record = blas_threads.measure(**json.loads(kwargs))
except blas_threads.NoThreadControl as exc:
    print(exc, file=sys.stderr)
    sys.exit(2)
print(json.dumps(record))
"""


class NoThreadControl(RuntimeError):
    """No loaded library exports OpenBLAS's thread control."""


def thread_control(symbols=SYMBOLS):
    """(set, get) of the thread count of the OpenBLAS that numpy loaded,
    found among the shared libraries mapped into this process whose name
    holds "openblas" (read from /proc/self/maps, so on Linux).  Raises
    NoThreadControl when none exports one of `symbols`."""
    import numpy  # noqa: F401  (loads the library)

    try:
        with open("/proc/self/maps") as fh:   # Linux: the mapped libraries
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for set_name, get_name in symbols:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    raise NoThreadControl(f"no loaded OpenBLAS exports {' or '.join(s for s, _ in symbols)} "
                          f"(libraries searched: {', '.join(paths) or 'none'})")


def _bindings(target):
    """Every (module, attribute) of a loaded `vps` module bound to `target`."""
    return [(module, name) for module_name, module in sorted(sys.modules.items())
            if module is not None and module_name.split(".")[0] == "vps"
            for name, value in list(vars(module).items()) if value is target]


def _resolve(dotted):
    import importlib

    module_name, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), name)


def threaded_inside(dotted, setter, threads):
    """Wrap the function `dotted` under every name bound to it so that
    OpenBLAS runs `threads` threads inside it and one outside; returns the
    undo."""
    target = _resolve(dotted)
    depth = [0]

    def wrapper(*args, **kwargs):
        if not depth[0]:
            setter(threads)
        depth[0] += 1
        try:
            return target(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                setter(1)

    bindings = _bindings(target)
    for module, name in bindings:
        setattr(module, name, wrapper)

    def undo():
        for module, name in bindings:
            setattr(module, name, target)
    return undo


def measure(workload, functions=FUNCTIONS, runs=15, seed=1, symbols=SYMBOLS) -> dict:
    """CPU and wall seconds of each of `runs` sequences of `workload`, per
    case: {case: {"cpu": [...], "wall": [...]}} for `(none)`, each of
    `functions` and `(all)`, with `threads` the library's own count.
    Raises NoThreadControl, or RuntimeError when a sequence fails a check."""
    import tempfile
    import time

    from vps.cli import main
    from workloads import WORKLOADS

    setter, getter = thread_control([tuple(pair) for pair in symbols])
    threads = getter()
    for dotted in functions:
        _resolve(dotted)   # a bad name fails before any run
    cases = (NONE, *functions, ALL)
    record = {case: {"cpu": [], "wall": []} for case in cases}
    work = WORKLOADS[workload]()
    with tempfile.TemporaryDirectory() as workdir:
        inputs = work.prepare(seed, workdir)
        try:
            for _ in range(runs):
                for case in cases:
                    undo = None
                    setter(threads if case == ALL else 1)
                    if case not in (NONE, ALL):
                        undo = threaded_inside(case, setter, threads)
                    time.sleep(SETTLE)
                    try:
                        work.run(inputs, workdir, main)
                        w0, c0 = time.perf_counter(), time.process_time()
                        outcome = work.run(inputs, workdir, main)
                        wall = time.perf_counter() - w0
                        cpu = time.process_time() - c0
                    finally:
                        if undo:
                            undo()
                    if outcome.failed:
                        raise RuntimeError(f"{case}: {outcome.failures[0]}")
                    record[case]["cpu"].append(cpu)
                    record[case]["wall"].append(wall)
        finally:
            setter(threads)
    return {"threads": threads, "cases": record}


def run(checkout, **kwargs):
    """`measure` in a fresh interpreter importing `vps` from the checkout:
    (exit code, record or None, stderr)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", RUN, os.path.abspath(__file__),
                           os.path.abspath(checkout), json.dumps(kwargs)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        return done.returncode, None, done.stderr
    return 0, json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def report(record) -> str:
    """One line per case: min and median CPU and wall time in ms."""
    lines = [f"OpenBLAS threads: {record['threads']}; times in ms",
             f"{'case':36} {'cpu min':>8} {'cpu med':>8} {'wall min':>8} {'wall med':>8}"]
    for case, times in record["cases"].items():
        cpu, wall = times["cpu"], times["wall"]
        lines.append(f"{case:36} {1e3 * min(cpu):8.2f} {1e3 * statistics.median(cpu):8.2f} "
                     f"{1e3 * min(wall):8.2f} {1e3 * statistics.median(wall):8.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", help="checkout whose src/ and perfbench/ are measured")
    p.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    p.add_argument("--function", action="append", dest="functions",
                   help="dotted name of a function to thread (repeatable; "
                        "default: the products of the small-profile routes)")
    p.add_argument("--runs", type=int, default=15, help="rounds of sequences (default 15)")
    p.add_argument("--seed", type=int, default=1, help="seed of the inputs (default 1)")
    args = p.parse_args(argv)
    code, record, stderr = run(args.checkout, workload=args.workload,
                               functions=args.functions or list(FUNCTIONS),
                               runs=args.runs, seed=args.seed)
    if code:
        print(f"blas_threads: {stderr.strip()}", file=sys.stderr)
        return 2
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
