"""Regenerate the stored band-B reference curve of the `band-B-n800` workload.

Runs `vps solve` on band model B at n = 800 over the grid
default_s_grid(sqrt(rho), 30) with the default `SolverConfig` (tolerance
1e-12, t_min 1e-10), and keeps s and F = 1 - inner of every row.  The
workload reads its grid back from the stored radii.  Run from the
repository root:

    python3 perfbench/make_reference.py
"""

import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from vps import default_s_grid  # noqa: E402
from vps.cli import main  # noqa: E402
from vps.profiles import spectral_radius  # noqa: E402
from workloads import (BAND_B_REFERENCE, BandSolve, grid_spec, read_csv_columns,  # noqa: E402
                       write_grid_csv)

GRID_POINTS = 30


def make_reference(path=BAND_B_REFERENCE):
    profile = BandSolve().profile()
    grid = default_s_grid(math.sqrt(spectral_radius(profile)), GRID_POINTS)
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        csv = os.path.join(work, "band.csv")
        write_grid_csv(profile.variances, csv)
        dest = os.path.join(work, "reference_solve.csv")
        code = main(["solve", "--profile", csv, "--grid", grid_spec(grid), "--out", dest])
        if code != 0:
            raise SystemExit(f"vps solve exited {code}")
        cols = read_csv_columns(dest)
    if not np.all(np.isfinite(cols["residual"])):
        raise SystemExit("reference solve has failed grid points")
    with open(path, "w") as fh:
        fh.write("s,F\n")
        for s, inner in zip(cols["s"], cols["inner"]):
            fh.write(f"{float(s)!r},{1.0 - float(inner)!r}\n")


if __name__ == "__main__":
    make_reference()
