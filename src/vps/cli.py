"""Command line front end.

Subcommands: solve, density, separable, check, oracle, simulate, compare.
Exit codes: 2 usage error, 3 data error, 4 convergence error (a failed
solve, or a rank-deficient exact-derivative system).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .core import (
    NoConvergenceError,
    ProfileError,
    RadialMeasure,
    RankDeficientError,
    UnresolvedAtomError,
    default_s_grid,
    read_config,
    read_profile_csv,
    write_columns_csv,
)
from .measures import (
    atom_at_zero,
    atom_from_cdf,
    cdf,
    density_at_zero,
    density_from_cdf,
    density_lower_bound,
    grid_density,
)
from .mesolver import _identity, _route, envelope_fraction, solve_curve, solve_route
from .montecarlo import (
    EntryLaw,
    kolmogorov_distance,
    read_eigenvalue_csv,
    sample_matrix,
    spectrum,
    write_eigenvalue_csv,
)
from .profiles import (
    _scc,
    build_separable,
    circular_law_test,
    cyclic_classes,
    is_block_fully_indecomposable,
    spectral_radius,
)
from .reference import (
    block_atom_density,
    block_atom_edge,
    block_atom_F,
    circular_density,
    circular_F,
)
from .separable import separable_curve, separable_density_zero

EXIT_DATA = 3
EXIT_CONVERGENCE = 4


class DataError(RuntimeError):
    pass


def _warn_failures(curve) -> None:
    """Name the grid points that failed to converge on stderr."""
    try:
        curve.raise_failures()
    except NoConvergenceError as exc:
        sys.stderr.write(f"vps: warning: {exc}\n")


def _parse_grid(spec: str | None, edge: float | None = None):
    """The grid of a start:stop:count spec.  Without a spec, the default grid
    up to `edge`, or None, which leaves the grid to `solve_curve`."""
    if spec is None:
        return None if edge is None else default_s_grid(edge)
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise DataError(f"bad grid spec {spec!r}; expected start:stop:count") from exc
    if not (0 < start < stop < math.inf and count >= 2):
        raise DataError(f"bad grid range in {spec!r}")
    return np.linspace(start, stop, count)


def _parse_vector(spec: str, n: int | None) -> np.ndarray:
    """d / d_tilde input: a CSV vector file or a named function spec
    evaluated at i/n ("constant:c", "power:a", "two-level:a,b,alpha")."""
    if os.path.exists(spec):
        vals = []
        with open(spec) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    vals.extend(float(tok) for tok in line.split(","))
        return np.array(vals)
    if ":" not in spec:
        raise DataError(f"{spec!r} is neither a file nor a function spec")
    if n is None:
        raise DataError("--n is required with function specs")
    name, args = spec.split(":", 1)
    x = np.arange(1, n + 1) / n
    if name == "constant":
        return np.full(n, float(args))
    if name == "power":
        return x ** float(args)
    if name == "two-level":
        a, b, alpha = (float(tok) for tok in args.split(","))
        k = int(round(alpha * n))
        return np.concatenate([np.full(k, a), np.full(n - k, b)])
    raise DataError(f"unknown function spec {name!r}")


def _write_density_csv(path, s, F, f_exact, f_fd, lb) -> None:
    write_columns_csv(path, "s,F,f_exact,f_fd,lower_bound_ratio", (s, F, f_exact, f_fd, lb))


def read_density_csv(path):
    """Re-ingest a density CSV: returns (s, F, f_exact, f_fd, lb) arrays.
    Raises DataError, naming the file and the line, on a row without
    exactly five fields, with a field that is not a number, or with an s
    or F that is not finite; f_exact, f_fd and the lower bound may be NaN,
    as `vps oracle` writes them where it has none."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "s,F,f_exact,f_fd,lower_bound_ratio":
            raise DataError(f"unexpected density CSV header in {path}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                if len(fields) != 5:
                    raise ValueError(f"{len(fields)} fields, expected 5")
                row = [float(tok) for tok in fields]
            except ValueError as exc:
                raise DataError(f"{path}, line {lineno}: {exc}") from None
            if not (math.isfinite(row[0]) and math.isfinite(row[1])):
                raise DataError(f"{path}, line {lineno}: non-finite s or F {line!r}")
            rows.append(row)
    if not rows:
        raise DataError(f"empty density CSV: {path}")
    cols = np.array(rows).T
    return tuple(cols)


# ---------------------------------------------------------------------------
# Subcommand bodies

def _solve(args):
    """The solved curve of `vps solve` and `vps density`."""
    config = read_config(args.config) if args.config else None
    return solve_curve(read_profile_csv(args.profile), _parse_grid(args.grid), config)


def _cmd_solve(args) -> int:
    curve = _solve(args)
    rows = curve.rows
    write_columns_csv(args.out, "s,t_final,sum_q,sum_qtilde,inner,residual,iterations",
                      (curve.s_grid, curve.t, rows.q.sum(axis=1), rows.q_tilde.sum(axis=1),
                       curve.products.w / curve.profile.n, rows.residual, rows.iterations))
    _warn_failures(curve)
    return 0


def _density_outputs(curve, mode):
    F = cdf(curve)
    f_fd = density_from_cdf(curve.s_grid, F, math.sqrt(curve.rho))
    if mode == "exact":
        f_exact = grid_density(curve, mode="exact")
    else:
        f_exact = np.full(len(F), math.nan)
    return F, f_exact, f_fd, density_lower_bound(curve)


def _cmd_density(args) -> int:
    curve = _solve(args)
    rho = curve.rho
    _warn_failures(curve)
    F, f_exact, f_fd, lb = _density_outputs(curve, args.mode)
    out = args.out
    _write_density_csv(out, curve.s_grid, F, f_exact, f_fd, lb)

    try:
        atom = repr(atom_at_zero(curve))
    except UnresolvedAtomError as exc:   # as a failed point: named, and the rest written
        sys.stderr.write(f"vps: warning: {exc}\n")
        atom = f"unavailable ({exc})"
    lines = [f"rho = {rho!r}",
             f"support_radius = {math.sqrt(rho)!r}",
             f"atom_at_zero = {atom}"]
    try:
        f0, f0_cross = density_at_zero(curve.profile, curve.config, curve.route)
        lines.append(f"density_at_zero = {f0!r}")
        lines.append(f"density_at_zero_cross_check = {f0_cross!r}")
        lines.append(f"f0_pi_rho = {f0 * math.pi * rho!r}")
        lines.append(f"verdict_zero_density_bound = "
                     f"{'pass' if f0 * math.pi * rho >= 1.0 - 1e-9 else 'fail'}")
    except NoConvergenceError as exc:
        lines.append(f"density_at_zero = unavailable ({exc})")
    lines.append(f"verdict_cdf_monotone = "
                 f"{'pass' if bool(np.all(np.diff(F) >= 0)) else 'fail'}")
    lines.append("solve_route = " + solve_route(curve.profile))
    inside = int(np.count_nonzero(curve.s_grid < math.sqrt(rho)))
    lines.append(f"t0_radii = {int(curve.rows.at_zero.sum())} of {inside}")
    lines.append(f"krylov_iters = {int(curve.rows.krylov.sum())}")
    with open(out + ".info.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_separable(args) -> int:
    d = _parse_vector(args.d, args.n)
    dt = _parse_vector(args.dtilde, args.n)
    _, sep = build_separable(d, dt)
    edge = math.sqrt(sep.rho)
    grid = _parse_grid(args.grid, edge)
    F, f = separable_curve(sep, grid)
    lb = np.full(len(grid), math.nan)
    _write_density_csv(args.out, grid, F, f, density_from_cdf(grid, F, edge), lb)
    with open(args.out + ".info.txt", "w") as fh:
        fh.write(f"rho = {sep.rho!r}\n")
        fh.write(f"support_radius = {edge!r}\n")
        fh.write("atom_at_zero = 0.0\n")
        fh.write(f"density_at_zero = {separable_density_zero(sep)!r}\n")
    return 0


def _cmd_check(args) -> int:
    profile = read_profile_csv(args.profile)
    config = read_config(args.config) if args.config else None
    K = profile.n if args.blocks is None else args.blocks
    phi = args.phi
    route = _route(profile)   # one route, so each operand's panels are found once
    rho = spectral_radius(profile, operand=route.product_T)
    pattern = profile.variances > 0
    classes = cyclic_classes(pattern)
    pair_classes = profile.pair_classes
    # the envelope share is V's own, so a quotient route does not lend its panels
    full = route if pair_classes is None else _identity(profile.normalized)
    structure = ("irreducible = false\n" if classes is None else
                 f"irreducible = true\nperiod = {classes.max() + 1}\n")
    structure += (f"frobenius_blocks = {_scc(pattern).max() + 1}\n"
                  f"envelope_frac = {envelope_fraction(full):.4g}\n"
                  f"pair_classes = {'none' if pair_classes is None else len(pair_classes[1])}\n"
                  f"rank_one = {str(profile.rank_one_factors is not None).lower()}\n")
    bfid = is_block_fully_indecomposable(profile, K, phi)
    if bfid:
        try:
            circular, diag = circular_law_test(profile, config=config, rho=rho,
                                              route=route)
            extra = (f"max_deviation = {diag['max_deviation']!r}\n"
                     f"density_at_zero = {diag['density_at_zero']!r}\n"
                     f"f0_pi_rho = {diag['f0_pi_rho']!r}\n")
        except NoConvergenceError:
            circular, extra = False, "boundary solve did not converge\n"
    else:
        circular, extra = False, ""
    report = (f"n = {profile.n}\n"
              f"rho = {rho!r}\n"
              + structure +
              f"block_fully_indecomposable = {str(bfid).lower()} "
              f"(K = {K}, phi = {phi})\n"
              f"circular = {str(circular).lower()}\n" + extra)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def _cmd_oracle(args) -> int:
    name, _, arg = args.family.partition(":")
    if name == "circular":
        variance = float(arg) if arg else 1.0
        edge = math.sqrt(variance)
        grid = _parse_grid(args.grid, edge)
        F = np.array([circular_F(variance, s) for s in grid])
        f = np.array([circular_density(variance, s) for s in grid])
    elif name == "block-atom":
        k = int(arg) if arg else 3
        edge = block_atom_edge(k)
        grid = _parse_grid(args.grid, edge)
        F = np.array([block_atom_F(k, s) for s in grid])
        f = np.array([block_atom_density(k, s) for s in grid])
    else:
        raise DataError(f"unknown oracle family {args.family!r}; "
                        "use circular:V or block-atom:k")
    lb = np.full(len(grid), math.nan)
    _write_density_csv(args.out, grid, F, f, density_from_cdf(grid, F, edge), lb)
    return 0


def _cmd_simulate(args) -> int:
    """Sample Y from the profile and write its spectrum; no reference to
    the profile outlives the draw, so the eigensolve holds Y alone."""
    Y = sample_matrix(read_profile_csv(args.profile), EntryLaw(kind=args.law, seed=args.seed))
    write_eigenvalue_csv(spectrum(Y), args.out)
    return 0


def _cmd_compare(args) -> int:
    sample = read_eigenvalue_csv(args.eigenvalues)
    s, F, _, _, _ = read_density_csv(args.density)
    atom = atom_from_cdf(s, F)
    support = float(s[np.argmax(F >= 1.0)]) if np.any(F >= 1.0) else float(s[-1])
    measure = RadialMeasure(s_grid=s, F=F, f=np.zeros_like(F),
                            atom_at_zero=atom, support_radius=support)
    dist = kolmogorov_distance(measure, sample)
    report = f"kolmogorov_distance = {dist!r}\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "density": _cmd_density,
    "separable": _cmd_separable,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each
    `parse_args` call starts from a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="vps",
        description="Deterministic equivalent spectral measures for "
                    "non-Hermitian random matrices with a variance profile.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, profile=False, out_required=True):
        sp = sub.add_parser(name, help=help_text)
        if profile:
            sp.add_argument("--profile", required=True, help="profile CSV path")
        sp.add_argument("--grid", help="radial grid start:stop:count")
        sp.add_argument("--config", help="solver config key=value file")
        sp.add_argument("--out", required=out_required, help="output path")
        return sp

    add("solve", "solve the master equations along a radial grid", profile=True)
    dp = add("density", "emit CDF/density CSV with diagnostics", profile=True)
    dp.add_argument("--mode", choices=("exact", "fd"), default="fd")
    spp = add("separable", "scalar solver for separable profiles")
    spp.add_argument("--d", required=True, help="vector CSV or function spec")
    spp.add_argument("--dtilde", required=True, help="vector CSV or function spec")
    spp.add_argument("--n", type=int, help="dimension for function specs")
    cp = add("check", "structural and circular-law report", profile=True,
             out_required=False)
    cp.add_argument("--blocks", type=int, help="partition block count K")
    cp.add_argument("--phi", type=float, default=1e-9,
                    help="blockwise threshold phi (entries vs phi/n)")
    op = add("oracle", "closed-form oracle CDF/density CSV")
    op.add_argument("--family", required=True,
                    help="circular:V or block-atom:k")
    sim = add("simulate", "sample a matrix and emit its eigenvalue CSV",
              profile=True)
    sim.add_argument("--law", default="complex-bernoulli",
                     choices=("real-gaussian", "complex-gaussian",
                              "rademacher", "complex-bernoulli"))
    sim.add_argument("--seed", type=int, default=0)
    cmp_p = add("compare", "Kolmogorov distance: eigenvalue CSV vs density CSV",
                out_required=False)
    cmp_p.add_argument("--eigenvalues", required=True, help="eigenvalue CSV")
    cmp_p.add_argument("--density", required=True, help="density CSV")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the options that name input files
        for key in ("profile", "config", "eigenvalues", "density"):
            path = getattr(args, key, None)
            if path and not os.path.exists(path):
                raise DataError(f"input path does not exist: {path}")
        return _COMMANDS[args.command](args)
    except (ProfileError, DataError, OSError, ValueError) as exc:
        sys.stderr.write(f"vps: data error: {exc}\n")
        return EXIT_DATA
    except NoConvergenceError as exc:
        sys.stderr.write(f"vps: convergence error: {exc}\n")
        return EXIT_CONVERGENCE
    except RankDeficientError as exc:
        sys.stderr.write(f"vps: rank deficient: {exc}\n")
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
