"""Two-level separable profile ("sombrero" density).

A separable profile with row factors taking the two values a = 1 and b = 4
on equal halves has a radial density with a dip at the origin and a bump
before the edge. This script computes the density three independent ways
(full solver, one-dimensional separable reduction, closed form) and writes
them side by side.

Usage: python3 demos/sombrero.py [outdir]
"""

import csv
import math
import sys
from pathlib import Path

import numpy as np

from vps.core import default_s_grid
from vps.measures import density_at_zero, grid_density
from vps.mesolver import solve_curve
from vps.profiles import build_separable
from vps.separable import separable_curve, separable_density_zero, sombrero_density


def main(outdir: str = "demo_output") -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    n = 200
    d = np.concatenate([np.ones(n // 2), 4.0 * np.ones(n // 2)])
    profile, sep = build_separable(d, np.ones(n))
    grid = default_s_grid(math.sqrt(sep.rho), 60)
    curve = solve_curve(profile, grid)

    f_solver = grid_density(curve, "exact")
    _, f_separable = separable_curve(sep, grid)
    with open(out / "sombrero_density.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "f_solver", "f_separable", "f_closed_form"])
        for s, f, g in zip(grid, f_solver, f_separable):
            w.writerow([s, f, g, sombrero_density(1.0, 4.0, 0.5, float(s))])

    f0_solver, _ = density_at_zero(profile)
    print(f"f(0) solver     = {f0_solver:.10f}")
    print(f"f(0) separable  = {separable_density_zero(sep):.10f}")
    print(f"f(0) closed form= {sombrero_density(1.0, 4.0, 0.5, 0.0):.10f}")
    print(f"(target 5/(8 pi) = {5 / (8 * math.pi):.10f})")
    print(f"wrote sombrero_density.csv to {out}")


if __name__ == "__main__":
    main(*sys.argv[1:])
