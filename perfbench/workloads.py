"""Workload inputs, command sequences and output checks of the vps benchmark.

Each workload is a closed loop from one process: `prepare` writes the
inputs a user would hand to `vps` (a profile CSV, a config file) from the
benchmark seed, and `run` issues the `vps` commands in order, each after the
previous one returned, through `vps.cli.main(argv)`, then checks every output
against the workload's reference.  Every grid point, output check and command
is one operation of the `Outcome`; an operation fails when its output is
missing, non-finite or outside the tolerance of the acceptance criterion it
mirrors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import vps
from vps.profiles import build_block_atom, build_sampled
from vps.reference import block_atom_density, block_atom_edge, block_atom_F

HERE = os.path.dirname(os.path.abspath(__file__))
BAND_B_REFERENCE = os.path.join(HERE, "band_b_n800_reference.csv")

K = 3  # blocks of the block atom profile; its atom at zero is 1 - 2/K
KS_TOL_CIRC, KS_TOL_BLOCK = 0.05, 0.06  # criterion 9's Kolmogorov tolerances


@dataclass
class Outcome:
    """Operations attempted and failed, and the largest deviation from the
    reference over every checked output value."""

    attempted: int = 0
    failed: int = 0
    max_dev: float = 0.0
    failures: list = field(default_factory=list)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def deviation(self, dev) -> float:
        """Record a deviation; NaN counts as infinitely far."""
        dev = float(dev)
        if not math.isfinite(dev):
            dev = math.inf
        self.max_dev = max(self.max_dev, dev)
        return dev

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_dev = max(self.max_dev, other.max_dev)
        self.failures.extend(other.failures)


def write_grid_csv(grid, path) -> None:
    """Profile CSV in the format `vps.core.read_profile_csv` parses."""
    np.savetxt(path, np.asarray(grid, dtype=float), delimiter=",", fmt="%.17g")


def write_config(path, **fields) -> None:
    with open(path, "w") as fh:
        for key, value in fields.items():
            fh.write(f"{key} = {value!r}\n")


def read_csv_columns(path):
    """Header names and float columns of a CSV written by `vps`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    cols = np.array(rows, dtype=float).reshape(len(rows), len(header)).T
    return dict(zip(header, cols))


def read_info(path) -> dict:
    """`key = value` lines of a `vps density` info sidecar."""
    info = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                info[key.strip()] = value.strip()
    return info


def _command(out: Outcome, main, argv) -> bool:
    code = main(argv)
    return out.check(code == 0, f"`vps {argv[0]}` exited {code}")


def grid_spec(grid) -> str:
    return f"{float(grid[0])!r}:{float(grid[-1])!r}:{len(grid)}"


def _check_points(out: Outcome, name, values, reference, tol) -> None:
    """One operation per grid point: |value - reference| <= tol."""
    for i, (v, r) in enumerate(zip(values, reference)):
        dev = out.deviation(abs(v - r))
        out.check(dev <= tol, f"{name}[{i}] = {float(v)!r}, reference {float(r)!r}")


# ---------------------------------------------------------------------------
# Workloads


class _Density:
    """Inputs and command shared by the two `vps density` workloads: a
    profile CSV drawn from the seed, an optional config file, and one
    `vps density` call on the CLI's default grid unless `grid_points` is
    given."""

    stem = mode = None

    def __init__(self, grid_points=None, config=None):
        self.grid_points = grid_points
        self.config = config

    def prepare(self, seed, workdir) -> dict:
        paths = {"profile": os.path.join(workdir, f"{self.stem}.csv")}
        write_grid_csv(self.profile_grid(seed), paths["profile"])
        if self.config:
            paths["config"] = os.path.join(workdir, f"{self.stem}.cfg")
            write_config(paths["config"], **self.config)
        return paths

    def density(self, out: Outcome, inputs, workdir, main, edge):
        """Run `vps density`; its CSV columns and info sidecar, or None."""
        dest = os.path.join(workdir, f"{self.stem}_density.csv")
        argv = ["density", "--profile", inputs["profile"], "--mode", self.mode,
                "--out", dest]
        if self.grid_points:
            argv += ["--grid", grid_spec(vps.default_s_grid(edge, self.grid_points))]
        if "config" in inputs:
            argv += ["--config", inputs["config"]]
        if not _command(out, main, argv):
            return None
        return read_csv_columns(dest), read_info(dest + ".info.txt")


class CircularDensity(_Density):
    """`vps density` (fd mode) on sigma2_ij = d_j / d_i, d_i ~ U(0.5, 2).

    The profile is a diagonal similarity of the constant profile, so
    F = min(s^2 / rho, 1) with rho = 1 and f = 1/pi for every seed.
    """

    name = "circ-n64"
    stem, mode = "circ", "fd"

    def __init__(self, n=64, grid_points=None, config=None):
        super().__init__(grid_points, config)
        self.n = n

    def profile_grid(self, seed):
        d = np.random.default_rng(seed).uniform(0.5, 2.0, size=self.n)
        return d[None, :] / d[:, None]

    def run(self, inputs, workdir, main) -> Outcome:
        out = Outcome()
        result = self.density(out, inputs, workdir, main, 1.0)
        if result is None:
            return out
        cols, info = result
        s, F, f_fd = cols["s"], cols["F"], cols["f_fd"]
        # criterion 1: sup |F - min(s^2, 1)| <= 1e-8, |f - 1/pi| <= 1e-6
        _check_points(out, "F", F, np.minimum(s ** 2, 1.0), 1e-8)
        # np.gradient's central difference is exact on s^2; the first point
        # is one-sided and the points next to the edge straddle the kink
        inner = np.flatnonzero(s < 1.0)[1:-1]
        _check_points(out, "f_fd", f_fd[inner], np.full(len(inner), 1 / math.pi), 1e-6)
        f0_pi_rho = float(info.get("f0_pi_rho", "nan"))
        out.check(abs(f0_pi_rho - 1.0) <= 1e-6, f"f0*pi*rho = {f0_pi_rho!r}")
        out.check(info.get("verdict_cdf_monotone") == "pass", "F not monotone")
        return out


class BlockAtomDensity(_Density):
    """`vps density --mode exact` on the K = 3 block atom profile with rows
    and columns permuted by one seeded permutation.

    A permutation similarity leaves the measure unchanged, so the closed
    forms of `vps.reference` hold for every seed.
    """

    name = "block-atom-n300"
    stem, mode = "block", "exact"

    def __init__(self, m=100, grid_points=None, config=None):
        super().__init__(grid_points, config)
        self.m = m

    def profile_grid(self, seed):
        perm = np.random.default_rng(seed).permutation(K * self.m)
        return build_block_atom(K, self.m).variances[np.ix_(perm, perm)]

    def run(self, inputs, workdir, main) -> Outcome:
        out = Outcome()
        edge = block_atom_edge(K)
        result = self.density(out, inputs, workdir, main, edge)
        if result is None:
            return out
        cols, info = result
        s, F, f_exact = cols["s"], cols["F"], cols["f_exact"]
        # criterion 2: sup |F - F_ref| <= 1e-6, atom within 1e-3 of 1 - 2/K,
        # density within 1e-4 of the closed form and f(s -> 0) <= 1e-2.  Near
        # zero the derivative system degenerates with the atom and rounding,
        # which moves with the permutation, sets the density error there.
        _check_points(out, "F", F, [block_atom_F(K, x) for x in s], 1e-6)
        near_zero = s < 0.05 * edge
        _check_points(out, "f_exact", f_exact[~near_zero],
                      [block_atom_density(K, x) for x in s[~near_zero]], 1e-4)
        for i in np.flatnonzero(near_zero):
            out.check(0.0 <= f_exact[i] <= 1e-2,
                      f"f_exact[{i}] = {float(f_exact[i])!r} near zero")
        atom = float(info.get("atom_at_zero", "nan"))
        out.check(abs(atom - (1 - 2 / K)) <= 1e-3, f"atom_at_zero = {atom!r}")
        out.check(info.get("verdict_cdf_monotone") == "pass", "F not monotone")
        return out


def band_b_sigma2(x, y):
    """Band model B of acceptance criterion 10."""
    return (x + 2 * y) ** 2 if abs(x - y) <= 1 / 10 else 0.0


class BandSolve:
    """`vps solve` on band model B sampled at n = 800 with the loose
    criterion-10 config, on the grid of the stored reference curve.

    The kernel is deterministic: the seed is recorded and not used.  The
    reference is a default-config curve stored with the benchmark; its grid,
    default_s_grid(sqrt(rho), 30) when it was made, is passed as `--grid`, so
    the inputs do not depend on the program's own spectral radius.
    """

    name = "band-B-n800"
    CONFIG = {"fixed_point_tol": 1e-9, "t_min": 1e-8}

    def __init__(self, n=800, config=None, reference=None):
        self.n = n
        self.config = self.CONFIG if config is None else config
        self._reference = reference  # (s, F); None: the stored n = 800 curve

    def reference(self):
        if self._reference is None:
            cols = read_csv_columns(BAND_B_REFERENCE)
            self._reference = cols["s"], cols["F"]
        return self._reference

    def profile(self):
        return build_sampled(band_b_sigma2, self.n)

    def prepare(self, seed, workdir) -> dict:
        paths = {"profile": os.path.join(workdir, "band.csv"),
                 "config": os.path.join(workdir, "band.cfg"),
                 "grid": grid_spec(self.reference()[0])}
        write_grid_csv(self.profile().variances, paths["profile"])
        write_config(paths["config"], **self.config)
        return paths

    def run(self, inputs, workdir, main) -> Outcome:
        out = Outcome()
        dest = os.path.join(workdir, "band_solve.csv")
        argv = ["solve", "--profile", inputs["profile"], "--grid", inputs["grid"],
                "--config", inputs["config"], "--out", dest]
        if not _command(out, main, argv):
            return out
        return check_solve_rows(out, read_csv_columns(dest), self.n, self.reference())


def check_solve_rows(out: Outcome, cols, n, reference) -> Outcome:
    """Per-row checks of a `vps solve` CSV against a reference (s, F) curve.

    A row with residual = inf is a failed grid point; the others must keep
    trace balance |sum q - sum qt| / n <= 1e-10 and lie within criterion 10's
    0.01 of the reference F, interpolated to the row's radius.  There must be
    one row per reference radius, and F = 1 - inner must be nondecreasing.
    """
    ref_s, ref_F = reference
    s, F = cols["s"], 1.0 - cols["inner"]
    out.check(len(s) == len(ref_s), f"{len(s)} solve rows for {len(ref_s)} radii")
    ref_at_s = np.interp(s, ref_s, ref_F)
    for i in range(len(s)):
        ok = math.isfinite(cols["residual"][i])
        balance = abs(cols["sum_q"][i] - cols["sum_qtilde"][i]) / n
        ok = ok and balance <= 1e-10
        dev = out.deviation(abs(F[i] - ref_at_s[i]))
        out.check(ok and dev <= 0.01,
                  f"solve row {i}: s={float(s[i])!r} residual={float(cols['residual'][i])!r} "
                  f"balance={balance:.2e} |F-ref|={dev:.2e}")
    out.check(bool(np.all(np.diff(F) >= 0.0)), "solve F = 1 - inner decreases")
    return out


class MonteCarlo:
    """`vps oracle`, `vps simulate` and `vps compare` on two seeded draws:
    the constant profile under `rademacher` (a real law) and the K = 3
    block atom under `complex-bernoulli`.

    The references are the closed-form oracles and the deviation is the
    larger Kolmogorov distance.  For the block draw that distance is taken,
    as in acceptance criterion 9, over the eigenvalues off the deterministic
    kernel: `vps compare` compares the empirical CDF's left limit at the
    first numerically zero modulus (0) with the model's atom (1 - 2/K), so
    on a sample with an atom it reads about 1 - 2/K whatever the sample.
    """

    name = "mc-n2000"

    def __init__(self, n=2000, m=667):
        self.n, self.m = n, m

    def prepare(self, seed, workdir) -> dict:
        seed_circ, seed_block = np.random.SeedSequence(seed).generate_state(2)
        paths = {"circ": os.path.join(workdir, "mc_const.csv"),
                 "block": os.path.join(workdir, "mc_block.csv"),
                 "seed_circ": str(seed_circ), "seed_block": str(seed_block)}
        write_grid_csv(np.ones((self.n, self.n)), paths["circ"])
        write_grid_csv(build_block_atom(K, self.m).variances, paths["block"])
        return paths

    def run(self, inputs, workdir, main) -> Outcome:
        out = Outcome()
        edge = block_atom_edge(K)
        draws = (("circ", "circular:1", "0.005:1.05:300", "rademacher"),
                 ("block", f"block-atom:{K}", f"0.001:{edge * 1.02!r}:400",
                  "complex-bernoulli"))
        for key, family, grid, law in draws:
            oracle = os.path.join(workdir, f"mc_{key}_oracle.csv")
            eig = os.path.join(workdir, f"mc_{key}_eig.csv")
            report = os.path.join(workdir, f"mc_{key}_ks.txt")
            if not (_command(out, main, ["oracle", "--family", family, "--grid", grid,
                                         "--out", oracle])
                    and _command(out, main, ["simulate", "--profile", inputs[key],
                                             "--law", law, "--seed", inputs[f"seed_{key}"],
                                             "--out", eig])
                    and _command(out, main, ["compare", "--eigenvalues", eig,
                                             "--density", oracle, "--out", report])):
                continue
            dist = float(read_info(report).get("kolmogorov_distance", "nan"))
            if key == "circ":
                out.check(out.deviation(dist) <= KS_TOL_CIRC,
                          f"circular Kolmogorov distance {dist!r}")
                continue
            out.check(0.0 <= dist <= 1.0, f"block Kolmogorov distance {dist!r}")
            cols = read_csv_columns(eig)
            moduli = np.hypot(cols["re"], cols["im"])
            zeros = int(np.sum(moduli < 1e-8))
            # criterion 9: 665 of the m (K - 2) = 667 kernel eigenvalues
            need = self.m * (K - 2) - 2
            out.check(zeros >= need, f"{zeros} zero eigenvalues (< {need})")
            out.check(out.deviation(off_kernel_distance(moduli)) <= KS_TOL_BLOCK,
                      "block off-kernel Kolmogorov distance")
        return out


def off_kernel_distance(moduli) -> float:
    """Criterion 9's distance between the moduli >= 1e-8 and the block atom
    CDF conditioned off its atom."""
    nz = np.sort(moduli[moduli >= 1e-8])
    atom = 1 - 2 / K
    grid = np.linspace(1e-3, block_atom_edge(K) * 1.02, 400)
    F = np.array([(block_atom_F(K, s) - atom) / (1 - atom) for s in grid])
    emp = np.searchsorted(nz, grid, side="right") / len(nz)
    return float(np.abs(emp - F).max())


WORKLOADS = {w.name: w for w in (CircularDensity, BlockAtomDensity, BandSolve, MonteCarlo)}
