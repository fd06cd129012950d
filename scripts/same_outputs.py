"""Byte-for-byte comparison of the benchmark workloads' files from two checkouts.

Usage, from anywhere:

    python3 scripts/same_outputs.py PARENT CHANGE --seed 3 [--rtol 1e-10] \
        [--workload circ-n64 --workload mc-n2000 ...]

For each workload, each checkout runs in a fresh interpreter of its own:
it imports `vps` from the checkout's `src/` and `workloads` from its
`perfbench/`, and runs the workload's `prepare` at the seed and then its
`run` once, in a temporary work directory of its own.  Every file the two
runs leave there, inputs and outputs alike, is then compared byte for
byte; each file that differs is named with its first differing line, and
so is a file that only one run wrote.  With `--rtol R`, a file that
differs is compared line by line, each line split into numbers and the
text between them: it counts as equal when its text is identical and
every number is within R of the parent's, relatively, and the largest
relative deviation is printed with its line either way.  By default
every workload runs, `mc-n2000`'s eigensolves included (about 12 s a
seed).  Exit code 0 when every file is identical (or, with `--rtol`,
equal), 1 on any difference, 2 when a run fails.
Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile

WORKLOADS = ("circ-n64", "block-atom-n300", "band-B-n800", "mc-n2000")

# The program of one run: argv is the checkout, the workload, the seed and
# the work directory.  It prints the workload's operations and failures.
RUN = """
import os, sys
checkout, name, seed, workdir = sys.argv[1:]
src = os.path.realpath(os.path.join(checkout, "src"))
sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
import vps.cli
from workloads import WORKLOADS
if not os.path.realpath(vps.__file__).startswith(src + os.sep):
    sys.exit(f"vps was imported from {vps.__file__}, not from {src}")
workload = WORKLOADS[name]()
outcome = workload.run(workload.prepare(int(seed), workdir), workdir, vps.cli.main)
print(f"{outcome.attempted} operations, {outcome.failed} failed")
"""


def run_workload(checkout, name, seed, workdir) -> str:
    """Run one workload of the checkout in workdir; its summary line, the
    last of its output after the reports `vps compare` prints.  Raises
    RuntimeError, with the run's stderr, when it fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", RUN, os.path.abspath(checkout), name,
                           str(seed), workdir],
                          cwd=workdir, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{name} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def _files(root) -> set:
    """The paths of the files under root, relative to it."""
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


# A number in a line of text, as Python writes floats and ints.
NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def deviation(x: bytes, y: bytes):
    """(d, line): the largest relative deviation |u - v| / max(|u|, |v|) of
    the numbers u of x and v of y, pair by pair, and the first line where
    it occurs; None when the two differ in anything but their numbers (in
    their text between the numbers, or in the count of lines or numbers).
    Equal numbers, NaN and infinities included, deviate by 0; NaN against
    a number, or an infinity against anything else, by infinity."""
    lines_x, lines_y = x.splitlines(), y.splitlines()
    if len(lines_x) != len(lines_y):
        return None
    worst = (0.0, None)
    for line, (lx, ly) in enumerate(zip(lines_x, lines_y), 1):
        if NUMBER.split(lx) != NUMBER.split(ly):
            return None
        for u, v in zip(map(float, NUMBER.findall(lx)), map(float, NUMBER.findall(ly))):
            if u == v or (u != u and v != v):
                continue
            d = abs(u - v) / max(abs(u), abs(v))
            if d != d:   # NaN against a number, or an infinity against another value
                return math.inf, line
            if d > worst[0]:
                worst = (d, line)
    return worst


def report(a, b, rtol=None):
    """(differs, line) for each file under the parent's directory a or the
    change's directory b that is not byte-identical on both sides, in path
    order: a file under one of them only, or a file whose bytes differ,
    with its first differing line on each side (None past a file's end).
    With rtol, a file whose `deviation` is measured is named with its
    largest deviation instead, and differs only when that is over rtol."""
    files_a, files_b = _files(a), _files(b)
    for label, only in (("parent", files_a - files_b), ("change", files_b - files_a)):
        for path in sorted(only):
            yield True, f"{path}: only in {label}"
    for path in sorted(files_a & files_b):
        with open(os.path.join(a, path), "rb") as fa, open(os.path.join(b, path), "rb") as fb:
            x, y = fa.read(), fb.read()
        if x == y:
            continue
        close = None if rtol is None else deviation(x, y)
        if close is not None:
            over = close[0] > rtol
            yield over, (f"{path}: largest relative deviation {close[0]:.3g} "
                         f"at line {close[1]}" + (f", over {rtol:g}" if over else ""))
            continue
        pairs = itertools.zip_longest(x.splitlines(keepends=True), y.splitlines(keepends=True))
        line, (old, new) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        yield True, f"{path}: line {line}: parent {old!r}, change {new!r}"


def compare(a, b, rtol=None) -> list:
    """The lines of `report` that name a difference."""
    return [line for differs, line in report(a, b, rtol) if differs]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--seed", type=int, required=True, help="the workloads' seed")
    p.add_argument("--workload", action="append",
                   help="workload to run, repeatable (default: "
                        + ", ".join(WORKLOADS) + ")")
    p.add_argument("--rtol", type=float,
                   help="count a file as equal when only its numbers differ, each "
                        "within this relative deviation (default: byte for byte)")
    args = p.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for name in args.workload or WORKLOADS:
            dirs = {}
            for side in ("parent", "change"):
                dirs[side] = os.path.join(tmp, name, side)
                os.makedirs(dirs[side])
                try:
                    summary = run_workload(getattr(args, side), name, args.seed, dirs[side])
                except RuntimeError as exc:
                    print(f"same_outputs: {exc}", file=sys.stderr)
                    return 2
                print(f"{name}, seed {args.seed}, {side}: {summary}", flush=True)
            lines = list(report(dirs["parent"], dirs["change"], args.rtol))
            diffs = sum(differs for differs, _ in lines)
            count = len(_files(dirs["parent"]) | _files(dirs["change"]))
            same = "identical" if args.rtol is None else f"equal within {args.rtol:g}"
            print(f"{name}, seed {args.seed}: {count - diffs} of {count} files {same}")
            for _, line in lines:
                print(f"  {line}")
            differ = differ or bool(diffs)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
