"""Command line front end.

Subcommands: solve, density, separable, check, oracle, simulate, compare.
Exit codes: 2 usage error, 3 data error, 4 convergence error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NoConvergenceError,
    ProfileError,
    SolverConfig,
    default_s_grid,
    read_config,
    read_profile_csv,
)
from .measures import (
    atom_at_zero,
    cdf,
    density_at_zero,
    density_lower_bound,
    grid_density,
)
from .mesolver import solve_curve
from .montecarlo import (
    EntryLaw,
    kolmogorov_distance,
    read_eigenvalue_csv,
    sample_matrix,
    spectrum,
    write_eigenvalue_csv,
)
from .profiles import (
    build_separable,
    circular_law_test,
    is_block_fully_indecomposable,
    is_irreducible,
    spectral_radius,
)
from .reference import block_atom_density, block_atom_F, circular_density, circular_F
from .separable import separable_density, separable_density_zero, solve_u

EXIT_DATA = 3
EXIT_CONVERGENCE = 4


@dataclass(frozen=True)
class RunManifest:
    """A fully resolved command invocation."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    seed: int | None = None


class DataError(RuntimeError):
    pass


def _warn_failures(curve) -> None:
    """Name the grid points that failed to converge on stderr."""
    try:
        curve.raise_failures()
    except NoConvergenceError as exc:
        sys.stderr.write(f"vps: warning: {exc}\n")


def _parse_grid(spec: str | None, rho: float) -> np.ndarray:
    if spec is None:
        return default_s_grid(math.sqrt(rho))
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise DataError(f"bad grid spec {spec!r}; expected start:stop:count") from exc
    if not (0 < start < stop and count >= 2):
        raise DataError(f"bad grid range in {spec!r}")
    return np.linspace(start, stop, count)


def _load_config(path: str | None) -> SolverConfig:
    if path is None:
        return SolverConfig()
    return read_config(path)


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
    with open(path, "w") as fh:
        fh.write("s,F,f_exact,f_fd,lower_bound_ratio\n")
        for row in zip(s, F, f_exact, f_fd, lb):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_density_csv(path):
    """Re-ingest a density CSV: returns (s, F, f_exact, f_fd, lb) arrays."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "s,F,f_exact,f_fd,lower_bound_ratio":
            raise DataError(f"unexpected density CSV header in {path}")
        rows = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    if not rows:
        raise DataError(f"empty density CSV: {path}")
    cols = np.array(rows).T
    return tuple(cols)


# ---------------------------------------------------------------------------
# Subcommand bodies

def _cmd_solve(m: RunManifest) -> int:
    profile = read_profile_csv(m.inputs["profile"])
    config = _load_config(m.inputs.get("config"))
    rho = spectral_radius(profile)
    grid = _parse_grid(m.options.get("grid"), rho)
    curve = solve_curve(profile, grid, config)
    V = profile.normalized
    with open(m.outputs["out"], "w") as fh:
        fh.write("s,t_final,sum_q,sum_qtilde,inner,residual,iterations\n")
        for sol in curve.solutions:
            inner = float(sol.q @ (V @ sol.q_tilde)) / profile.n
            fh.write(",".join(repr(float(v)) for v in (
                sol.s, sol.t, sol.q.sum(), sol.q_tilde.sum(),
                inner, sol.residual, sol.iterations)) + "\n")
    _warn_failures(curve)
    return 0


def _density_outputs(profile, curve, mode):
    F = cdf(curve)
    f_fd = grid_density(curve, mode="fd")
    if mode == "exact":
        f_exact = grid_density(curve, mode="exact")
    else:
        f_exact = np.full(len(F), math.nan)
    lb = np.array([
        density_lower_bound(profile, sol) if not sol.is_trivial else math.nan
        for sol in curve.solutions])
    return F, f_exact, f_fd, lb


def _cmd_density(m: RunManifest) -> int:
    profile = read_profile_csv(m.inputs["profile"])
    config = _load_config(m.inputs.get("config"))
    rho = spectral_radius(profile)
    grid = _parse_grid(m.options.get("grid"), rho)
    curve = solve_curve(profile, grid, config)
    _warn_failures(curve)
    F, f_exact, f_fd, lb = _density_outputs(profile, curve, m.options.get("mode", "fd"))
    out = m.outputs["out"]
    _write_density_csv(out, grid, F, f_exact, f_fd, lb)

    atom = atom_at_zero(curve)
    lines = [f"rho = {rho!r}",
             f"support_radius = {math.sqrt(rho)!r}",
             f"atom_at_zero = {atom!r}"]
    try:
        f0, f0_cross = density_at_zero(profile, config)
        lines.append(f"density_at_zero = {f0!r}")
        lines.append(f"density_at_zero_cross_check = {f0_cross!r}")
        lines.append(f"f0_pi_rho = {f0 * math.pi * rho!r}")
        lines.append(f"verdict_zero_density_bound = "
                     f"{'pass' if f0 * math.pi * rho >= 1.0 - 1e-9 else 'fail'}")
    except NoConvergenceError:
        lines.append("density_at_zero = unavailable (no boundary limit; "
                     "profile may carry an atom)")
    lines.append(f"verdict_cdf_monotone = "
                 f"{'pass' if bool(np.all(np.diff(F) >= 0)) else 'fail'}")
    with open(out + ".info.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_separable(m: RunManifest) -> int:
    n = m.options.get("n")
    d = _parse_vector(m.options["d_spec"], n)
    dt = _parse_vector(m.options["dtilde_spec"], n)
    _, sep = build_separable(d, dt)
    grid = _parse_grid(m.options.get("grid"), sep.rho)
    edge = math.sqrt(sep.rho)
    F = np.empty(len(grid))
    f = np.empty(len(grid))
    for i, s in enumerate(grid):
        F[i] = 1.0 - solve_u(sep, float(s)).u
        f[i] = separable_density(sep, float(s)) if s < edge else 0.0
    f_fd = np.maximum(np.gradient(F, grid) / (2.0 * math.pi * grid), 0.0)
    f_fd[grid >= edge] = 0.0
    lb = np.full(len(grid), math.nan)
    _write_density_csv(m.outputs["out"], grid, F, f, f_fd, lb)
    with open(m.outputs["out"] + ".info.txt", "w") as fh:
        fh.write(f"rho = {sep.rho!r}\n")
        fh.write(f"support_radius = {edge!r}\n")
        fh.write("atom_at_zero = 0.0\n")
        fh.write(f"density_at_zero = {separable_density_zero(sep)!r}\n")
    return 0


def _cmd_check(m: RunManifest) -> int:
    profile = read_profile_csv(m.inputs["profile"])
    config = _load_config(m.inputs.get("config"))
    K = m.options.get("blocks") or profile.n
    phi = m.options.get("phi", 1e-9)
    rho = spectral_radius(profile)
    irr = is_irreducible(profile)
    bfid = is_block_fully_indecomposable(profile, K, phi)
    if bfid:
        try:
            circular, diag = circular_law_test(profile, config=config)
            extra = (f"max_deviation = {diag['max_deviation']!r}\n"
                     f"density_at_zero = {diag['density_at_zero']!r}\n"
                     f"f0_pi_rho = {diag['f0_pi_rho']!r}\n")
        except NoConvergenceError:
            circular, extra = False, "boundary solve did not converge\n"
    else:
        circular, extra = False, ""
    report = (f"n = {profile.n}\n"
              f"rho = {rho!r}\n"
              f"irreducible = {str(irr).lower()}\n"
              f"block_fully_indecomposable = {str(bfid).lower()} "
              f"(K = {K}, phi = {phi})\n"
              f"circular = {str(circular).lower()}\n" + extra)
    out = m.outputs.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def _cmd_oracle(m: RunManifest) -> int:
    family = m.options["family"]
    name, _, arg = family.partition(":")
    if name == "circular":
        variance = float(arg) if arg else 1.0
        rho = variance
        grid = _parse_grid(m.options.get("grid"), rho)
        F = np.array([circular_F(variance, s) for s in grid])
        f = np.array([circular_density(variance, s) for s in grid])
    elif name == "block-atom":
        k = int(arg) if arg else 3
        rho = math.sqrt(k - 1) / k
        grid = _parse_grid(m.options.get("grid"), rho)
        F = np.array([block_atom_F(k, s) for s in grid])
        f = np.array([block_atom_density(k, s) for s in grid])
    else:
        raise DataError(f"unknown oracle family {family!r}; "
                        "use circular:V or block-atom:k")
    f_fd = np.maximum(np.gradient(F, grid) / (2.0 * math.pi * grid), 0.0)
    lb = np.full(len(grid), math.nan)
    _write_density_csv(m.outputs["out"], grid, F, f, f_fd, lb)
    return 0


def _cmd_simulate(m: RunManifest) -> int:
    profile = read_profile_csv(m.inputs["profile"])
    law = EntryLaw(kind=m.options.get("law", "complex-bernoulli"),
                   seed=m.seed if m.seed is not None else 0)
    Y = sample_matrix(profile, law)
    sample = spectrum(Y)
    write_eigenvalue_csv(sample, m.outputs["out"])
    return 0


def _cmd_compare(m: RunManifest) -> int:
    from .core import RadialMeasure

    sample = read_eigenvalue_csv(m.inputs["eigenvalues"])
    s, F, _, _, _ = read_density_csv(m.inputs["density"])
    # atom read off the CSV by the same extrapolation used in measures
    F0 = F[0] - s[0] ** 2 * (F[1] - F[0]) / (s[1] ** 2 - s[0] ** 2)
    atom = float(min(max(F0, 0.0), 1.0))
    support = float(s[np.argmax(F >= 1.0)]) if np.any(F >= 1.0) else float(s[-1])
    measure = RadialMeasure(s_grid=s, F=F, f=np.zeros_like(F),
                            atom_at_zero=atom, support_radius=support)
    dist = kolmogorov_distance(measure, sample)
    report = f"kolmogorov_distance = {dist!r}\n"
    out = m.outputs.get("out")
    if out:
        with open(out, "w") as fh:
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


def run(manifest: RunManifest) -> int:
    """Execute one resolved command; raises on data/convergence errors."""
    for path in manifest.inputs.values():
        if path is not None and not os.path.exists(path):
            raise DataError(f"input path does not exist: {path}")
    return _COMMANDS[manifest.command](manifest)


def _build_parser() -> argparse.ArgumentParser:
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


def _manifest_from_args(args) -> RunManifest:
    inputs, outputs, options = {}, {}, {}
    if getattr(args, "profile", None):
        inputs["profile"] = args.profile
    if getattr(args, "config", None):
        inputs["config"] = args.config
    if args.command == "separable":
        options["n"] = args.n
    if args.command == "compare":
        inputs["eigenvalues"] = args.eigenvalues
        inputs["density"] = args.density
    if getattr(args, "out", None):
        outputs["out"] = args.out
    for key in ("grid", "mode", "family", "law", "blocks", "phi"):
        if getattr(args, key, None) is not None:
            options[key] = getattr(args, key)
    if args.command == "separable":
        options["d_spec"] = args.d
        options["dtilde_spec"] = args.dtilde
    seed = getattr(args, "seed", None)
    return RunManifest(command=args.command, inputs=inputs, outputs=outputs,
                       options=options, seed=seed)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    manifest = _manifest_from_args(args)
    try:
        return run(manifest)
    except (ProfileError, DataError, OSError, ValueError) as exc:
        sys.stderr.write(f"vps: data error: {exc}\n")
        return EXIT_DATA
    except NoConvergenceError as exc:
        sys.stderr.write(f"vps: convergence error: {exc}\n")
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
