"""Iteration counts and failed radii of the solver on random sparse profiles.

Usage, from anywhere:

    python3 scripts/sparse_survey.py CHECKOUT [--profiles 148]

The survey runs in a fresh interpreter that imports `vps` from the
checkout's `src/`.  It draws profiles from `numpy.random.default_rng(12345)`:
n from 6 to 16, each entry nonzero with a probability drawn from 10-35%,
and nonzero variances U(0.5, 2).  A draw whose `spectral_radius` raises or
reads at most 1e-3 is skipped (a nilpotent pattern, where the power
iteration does not settle).  Each of the first `--profiles` profiles kept is
solved by `solve_curve` on the 20-point `default_s_grid` up to its support
radius, with `max_iters` = 60,000 and the other settings at their defaults.
It prints the total iterations of all radii, the failed radii, the refused
radii (inside radii that kept the kernel's t_min row: not solved at t = 0,
and not failed), the iterations of the longest radius and the survey's wall
time, which is not part of the record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

# The program of one survey: argv is this script, the checkout and the
# number of profiles.  It prints `measure`'s record as one JSON line.
RUN = """
import importlib.util, json, os, sys
script, checkout, count = sys.argv[1:]
src = os.path.realpath(os.path.join(checkout, "src"))
sys.path[:0] = [src]
import vps
if not os.path.realpath(vps.__file__).startswith(src + os.sep):
    sys.exit(f"vps was imported from {vps.__file__}, not from {src}")
spec = importlib.util.spec_from_file_location("sparse_survey", script)
survey = importlib.util.module_from_spec(spec)
spec.loader.exec_module(survey)
print(json.dumps(survey.measure(int(count))))
"""


def draws(rng):
    """Random sparse variance arrays, without end."""
    while True:
        n = int(rng.integers(6, 17))
        density = rng.uniform(0.10, 0.35)
        mask = rng.random((n, n)) < density
        yield np.where(mask, rng.uniform(0.5, 2.0, size=(n, n)), 0.0)


def measure(profiles) -> dict:
    """The survey on the first `profiles` kept draws, with the `vps` this
    interpreter imports: the profiles solved, the draws skipped, the total
    iterations, the failed and refused radii and the longest radius's
    iterations."""
    from vps.core import NoConvergenceError, SolverConfig, default_s_grid, validate_profile
    from vps.mesolver import solve_curve
    from vps.profiles import spectral_radius

    config = SolverConfig(max_iters=60_000)
    record = {"profiles": 0, "skipped": 0, "iterations": 0, "failed": 0, "refused": 0,
              "longest": 0}
    for a in draws(np.random.default_rng(12345)):
        if record["profiles"] == profiles:
            break
        profile = validate_profile(a)
        try:
            rho = spectral_radius(profile)
        except NoConvergenceError:
            rho = 0.0
        if rho <= 1e-3:
            record["skipped"] += 1
            continue
        curve = solve_curve(profile, default_s_grid(math.sqrt(rho), 20), config)
        rows = curve.rows
        failed = np.array([error is not None for error in rows.errors])
        inside = curve.s_grid < math.sqrt(curve.rho)
        record["profiles"] += 1
        record["iterations"] += int(rows.iterations.sum())
        record["failed"] += int(failed.sum())
        record["refused"] += int((inside & ~failed & ~rows.at_zero).sum())
        record["longest"] = max(record["longest"], int(rows.iterations.max()))
    return record


def survey(checkout, profiles) -> dict:
    """`measure` in a fresh interpreter importing `vps` from the checkout.
    Raises RuntimeError, with the run's stderr, when it fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", RUN, os.path.abspath(__file__),
                           os.path.abspath(checkout), str(profiles)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", help="checkout whose src/ provides vps")
    p.add_argument("--profiles", type=int, default=148, help="profiles to solve (default 148)")
    args = p.parse_args(argv)
    start = time.perf_counter()
    try:
        record = survey(args.checkout, args.profiles)
    except RuntimeError as exc:
        print(f"sparse_survey: {exc}", file=sys.stderr)
        return 2
    print(f"{record['profiles']} profiles ({record['skipped']} draws skipped): "
          f"{record['iterations']:,} iterations, {record['failed']} failed radii, "
          f"{record['refused']} refused radii, "
          f"longest radius {record['longest']:,} iterations, "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
