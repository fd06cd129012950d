"""Interleaved benchmark pairs: a parent checkout against a change checkout.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload block-atom-n300 \
        --pairs 10 --seconds 20 --seed 401

Pair i runs `perfbench/run.py --trace 0` once in each checkout, both at
seed `--seed` + i, the parent first on even i and the change first on odd
i.  Each run's end-to-end metrics are printed as it finishes, then the
environment variables that move the metrics, as the runs see them
(`MALLOC_MMAP_THRESHOLD_`, the heap layout, and the BLAS thread counts
`OPENBLAS_NUM_THREADS` and `OMP_NUM_THREADS`; "unset" where absent),
then one row per metric: each side's median and quartiles, and in how many pairs the
change was better, in the direction `BENCHMARK.json` gives (ties count for
neither side), and its verdict: `gain` when the change wins at least 9 of
10 pairs and its median is better than the parent's by more than the
parent's interquartile range, `unresolved` otherwise.

Each run compiles the program from source, with PYTHONDONTWRITEBYTECODE=1,
as the checked runs do: cached bytecode moves `setup_s` and `peak_rss_mb`.
So a checkout that holds a `__pycache__` under `src/` or `perfbench/` (a
pytest run leaves one) is refused, with exit code 2, and so is a pair of
checkouts whose paths differ in length: `peak_rss_mb` moves with the
length of the paths a run holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def directions(path=BENCHMARK) -> dict:
    """End-to-end metric name -> "lower" or "higher", the better side."""
    with open(path) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def check_paths(parent, change) -> None:
    """Raise ValueError unless the two checkout paths have the same length."""
    a, b = os.path.abspath(parent), os.path.abspath(change)
    if len(a) != len(b):
        raise ValueError(f"checkout paths differ in length ({len(a)} against {len(b)}): "
                         f"{a} and {b}; peak_rss_mb would not compare")


def check_caches(checkout) -> None:
    """Raise ValueError naming the first `__pycache__` directory under the
    checkout's `src/` or `perfbench/`."""
    for top in ("src", "perfbench"):
        for path, dirs, _ in os.walk(os.path.join(os.path.abspath(checkout), top)):
            if "__pycache__" in dirs:
                raise ValueError(f"{os.path.join(path, '__pycache__')} holds cached "
                                 "bytecode; remove it, the checked runs compile from source")


# Environment variables that move the metrics: glibc's heap layout and the
# BLAS thread counts.
ENVIRONMENT = ("MALLOC_MMAP_THRESHOLD_", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def environment(env=None) -> str:
    """One line naming each of ENVIRONMENT as the runs see it."""
    env = os.environ if env is None else env
    return "environment: " + " ".join(f"{name}={env.get(name, 'unset')}"
                                      for name in ENVIRONMENT)


def parse_result(stdout: str) -> dict:
    """The metric values of a run's last line of output, plus `failed`."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def run_once(checkout, workload, seed, seconds) -> dict:
    checkout = os.path.abspath(checkout)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    return parse_result(done.stdout)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better) -> list:
    """One row per metric of `better` that every run reports:
    (metric, parent median, q1, q3, change median, q1, q3, change wins,
    pairs), from (parent, change) pairs of metric dicts."""
    rows = []
    for name, side in better.items():
        if not all(name in p and name in c for p, c in pairs):
            continue
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        sign = 1.0 if side == "lower" else -1.0
        wins = sum(sign * (o - n) > 0 for o, n in zip(old, new))
        rows.append((name, statistics.median(old), *_quartiles(old),
                     statistics.median(new), *_quartiles(new), wins, len(pairs)))
    return rows


def verdict(row, better) -> str:
    """`gain` when the change of a `summarize` row wins at least 9/10 of
    the pairs and its median beats the parent's by more than the parent's
    interquartile range, `unresolved` otherwise."""
    name, om, oq1, oq3, nm, _, _, wins, count = row
    sign = 1.0 if better[name] == "lower" else -1.0
    return "gain" if 10 * wins >= 9 * count and sign * (om - nm) > oq3 - oq1 else "unresolved"


def format_rows(rows, better) -> str:
    lines = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
             "  wins  verdict"]
    for row in rows:
        name, om, oq1, oq3, nm, nq1, nq3, wins, count = row
        lines.append(f"{name:<12} {om:>12.6g} [{oq1:.6g}, {oq3:.6g}]".ljust(47)
                     + f" {nm:>12.6g} [{nq1:.6g}, {nq3:.6g}]".ljust(35)
                     + f" {wins}/{count}".ljust(6) + f"  {verdict(row, better)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = p.parse_args(argv)
    try:
        check_paths(args.parent, args.change)
        check_caches(args.parent)
        check_caches(args.change)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    better = directions()
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            print(json.dumps({"pair": i, "side": side, "seed": seed, **runs[side]}), flush=True)
        pairs.append((runs["parent"], runs["change"]))
    print(environment())
    print(format_rows(summarize(pairs, better), better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
