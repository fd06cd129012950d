"""Radial measure construction from solved master equation curves.

Builds the radially symmetric deterministic equivalent measure: its CDF
F(s) = 1 - (1/n) <q(s), V q_tilde(s)>, its density (exact derivative or
finite differences), the atom at zero, the density lower bound and the
density at zero.  Every measure of a curve reads its one set of products
(`MECurve.products`: the curve's rows of q and q_tilde and V q_tilde,
V^T q at every radius, on one entry per class of the curve's route: its
pair classes, or the n indices of V itself), so each is evaluated for the
whole curve at once.  The exact
density of a rank-one profile is the closed-form derivative of its scalar
equation; any other profile's solves the linearized equations at every
nontrivial radius in stacked LU solves (`derivative_rows`, whose one-radius
call is `derivative_s2`).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    InsufficientGridError,
    OutsideSupportError,
    RadialMeasure,
    SolverConfig,
    UnresolvedAtomError,
    VarianceProfile,
)
from .mesolver import (  # noqa: F401  perfbench's tracer wraps measures.derivative_s2
    MECurve,
    _route,
    _solve_inside,
    derivative_rows,
    derivative_s2,
    solve_at_zero,
    solve_curve,
)
from .separable import _density_from_products

# `atom_at_zero` refuses a grid on which the extrapolation of F to s = 0
# from radii (1, 2) is estimated to be off by more than ATOM_GAP, the
# estimate read from its gap to the extrapolation from radii (2, 3).  On
# the 200-point default grids the three profiles whose two-radius atom is
# wrong (`zero_rows_16()`, `zero_column_12()` of the tests, band model B
# at n = 200) have gaps of 2.2e-3 or more, estimates of 2.8e-4 or more; the
# block atom at m = 100 a gap of 3.2e-8 and a dense U(0.5, 2) profile at
# n = 64 one of 8.5e-11.
ATOM_GAP = 1e-4


def _raw_cdf(curve: MECurve) -> np.ndarray:
    """F(s) = 1 - <q, V qt> / n over the curve's grid, not clamped."""
    return 1.0 - curve.products.w / curve.profile.n


def cdf(curve: MECurve) -> np.ndarray:
    """CDF values F(s) over the curve's grid, clamped to [0, 1]; exactly 1
    at and past the support radius sqrt(rho), where the solutions are
    zero.  No running maximum is taken, so a solution that breaks
    monotonicity shows as a step down."""
    return np.clip(_raw_cdf(curve), 0.0, 1.0)


def _on_support(f, s, edge: float) -> np.ndarray:
    """Density values f over the grid s, clipped at 0 and set to 0 from the
    support edge on."""
    f = np.maximum(f, 0.0)
    f[s >= edge] = 0.0
    return f


def density_from_cdf(s, F, edge: float) -> np.ndarray:
    """Finite-difference density f = F'(s) / (2 pi s) over an increasing
    grid s of at least two radii, clipped at 0 and set to 0 from the support
    edge on.

    F' is the central difference, except at the last radius below the edge,
    which takes the backward difference: a central one there straddles the
    edge, where F' drops from 2 pi s f to 0, and can read half the density.
    """
    s = np.asarray(s, dtype=float)
    dF = np.gradient(F, s)
    i = np.searchsorted(s, edge) - 1
    if i >= 1:
        dF[i] = (F[i] - F[i - 1]) / (s[i] - s[i - 1])
    return _on_support(dF / (2.0 * math.pi * s), s, edge)


def _exact_density(curve: MECurve) -> np.ndarray:
    """f(s) = -(<dq, V qt> + <q, V dqt>) / (pi n) at every radius of the
    curve, from the derivative in s^2 of its solutions; 0 at the trivial
    radii.  Not clipped.

    On a profile with `rank_one_factors` (a, b), w = <q, V qt> = <a, q> <b, qt>
    is the root of sum_i pi_i / (s^2 + pi_i w) = 1 with pi_i = a_i b_i, and
    F = 1 - w / n; f is that equation's derivative in closed form,
    `vps.separable._density_from_products` on pi with unit weights, over
    n, at all radii at once.  Otherwise `derivative_rows` gives (dq, dqt),
    and <q, V dqt> = <V^T q, dqt>."""
    products = curve.products
    n = curve.profile.n
    live = np.flatnonzero(products.live)
    f = np.zeros(len(products.s2))
    factors = curve.profile.rank_one_factors
    if factors is not None:
        a, b = factors
        f[live] = _density_from_products(a * b, np.ones(n), products.s2[live],
                                         products.w[live]) / n
        return f
    dq, dqt = derivative_rows(products, live)
    inner = (dq * products.v_qt[live] + products.vt_q[live] * dqt) @ products.route.sizes
    f[live] = -inner / (math.pi * n)
    return f


def density(curve: MECurve, z_modulus: float, mode: str = "exact") -> float:
    """Radial density f(|z|) at a single modulus inside the support.

    mode "exact" solves a one-radius curve at |z| by the route of the curve
    (`_solve_inside` on `curve.route`, whose components are labeled
    already; the curve's rho places |z| inside the support), raises its
    NoConvergenceError if that failed, and differentiates the master
    equations there, as `grid_density` does;
    mode "fd" takes density_from_cdf at the interior point of the curve's
    grid nearest |z| among those below the support edge, where the density
    is not zeroed.  It needs at least three radii, and its resolution is
    tied to the grid spacing.
    """
    s = float(z_modulus)
    edge = math.sqrt(curve.rho)
    if not 0.0 < s < edge:
        raise OutsideSupportError(f"|z| = {s} outside (0, {edge})")
    if mode == "exact":
        rows = _solve_inside(curve.profile, curve.route, [s], curve.config, curve.rho)
        point = MECurve(curve.profile, np.array([s]), rows, curve.rho, curve.config, curve.route)
        point.raise_failures()
        return max(0.0, float(_exact_density(point)[0]))
    if mode == "fd":
        grid = curve.s_grid
        interior = np.flatnonzero(grid[1:-1] < edge) + 1
        if len(interior) == 0:
            raise InsufficientGridError(
                "fd density needs an interior grid point below the support "
                f"edge {edge}, got {len(grid)} grid points")
        i = interior[np.argmin(np.abs(grid[interior] - s))]
        return float(density_from_cdf(grid, cdf(curve), edge)[i])
    raise ValueError(f"unknown density mode: {mode!r}")


def grid_density(curve: MECurve, mode: str = "fd") -> np.ndarray:
    """Density along the full grid; fd mode differences the CDF, exact mode
    differentiates the equations at every radius (`_exact_density`)."""
    grid = curve.s_grid
    edge = math.sqrt(curve.rho)
    if mode == "fd":
        return density_from_cdf(grid, cdf(curve), edge)
    if mode == "exact":
        return _on_support(_exact_density(curve), grid, edge)
    raise ValueError(f"unknown density mode: {mode!r}")


def density_at_zero(profile: VarianceProfile, config: SolverConfig | None = None,
                    route=None):
    """Density at z = 0: (f0, cross_check).

    f0 = (1/(pi n)) sum_i q_i(0) qt_i(0); the cross check evaluates the
    equivalent form (1/(pi n)) sum_i 1 / ((V^T q)_i (V qt)_i), on the
    classes of the profile's `_route` (`route`, a curve's, or made here),
    each weighted by its size, by `_Route.apply`.
    """
    if route is None:
        route = _route(profile)
    sol = solve_at_zero(profile, config, route)
    n = profile.n
    f0 = float(np.sum(sol.q * sol.q_tilde)) / (math.pi * n)
    vt_q, v_qt = route.apply(sol.q[None, route.pick], sol.q_tilde[None, route.pick])
    cross = float(np.sum(route.sizes / (vt_q * v_qt))) / (math.pi * n)
    return f0, cross


def _extrapolate(s, F) -> float:
    """F extrapolated linearly in s^2 to s = 0 from two radii, unclamped."""
    s1sq, s2sq = s[0] ** 2, s[1] ** 2
    return float(F[0] - s1sq * (F[1] - F[0]) / (s2sq - s1sq))


def atom_from_cdf(s, F) -> float:
    """Point mass at zero: F extrapolated linearly in s^2 to s = 0 from the
    first two points of a CDF on an increasing grid, clamped to [0, 1]."""
    if len(s) < 2:
        raise InsufficientGridError(
            f"the atom needs at least two grid points, got {len(s)}")
    return min(max(_extrapolate(s, F), 0.0), 1.0)


def atom_at_zero(curve: MECurve) -> float:
    """Point mass at zero: limit of F(s) as s -> 0, extrapolated linearly
    in s^2 from the two smallest grid points, which must lie below
    0.25 sqrt(rho).  Where a third radius lies there too, F is also
    extrapolated from the second and third.  Were F = a + b s^2 + c s^4,
    the two would be off a by c s1^2 s2^2 and c s2^2 s3^2, so the first is
    off by their gap times s1^2 / (s3^2 - s1^2) (1/8 on a uniform grid
    from its step); where that estimate passes ATOM_GAP,
    UnresolvedAtomError, an InsufficientGridError naming both values, is
    raised: the two smallest radii do not fix F's limit.  At rho = 0 every
    radius is past the support edge and the measure is a unit atom: 1.0 on
    any grid."""
    if curve.rho == 0.0:
        return 1.0
    grid = curve.s_grid
    near = 0.25 * math.sqrt(curve.rho)
    if len(grid) > 1 and grid[1] > near:
        raise InsufficientGridError(
            "need at least two grid points close to zero for the atom")
    F = _raw_cdf(curve)
    if len(grid) > 2 and grid[2] < near:
        first, second = _extrapolate(grid[:2], F[:2]), _extrapolate(grid[1:3], F[1:3])
        error = abs(first - second) * grid[0] ** 2 / (grid[2] ** 2 - grid[0] ** 2)
        if error > ATOM_GAP:
            raise UnresolvedAtomError(
                f"the atom at zero is not resolved: F extrapolates to {first!r} from the "
                f"first two radii and to {second!r} from the second and third, so the "
                f"first is off by about {error:.2e} (more than {ATOM_GAP:g})")
    return atom_from_cdf(grid[:2], F[:2])


def density_lower_bound(curve: MECurve) -> np.ndarray:
    """Diagnostic ratio sum(q qt / Psi) / sum(Psi q^2 qt^2) at every radius
    of the curve, NaN where the solution is trivial (at and past the
    support edge, and at failed radii); positive whenever the density is
    positive.  Exposed raw, with no normalization convention attached."""
    p = curve.products
    inv_psi = p.v_qt * p.vt_q
    inv_psi += p.s2[:, None]
    qqt = p.q * p.q_tilde
    num = (inv_psi * qqt) @ p.route.sizes
    qqt *= qqt
    qqt /= inv_psi
    with np.errstate(invalid="ignore"):   # 0 / 0 at the trivial radii
        ratio = num / (qqt @ p.route.sizes)
    return np.where(p.live, ratio, math.nan)


def build_measure(profile: VarianceProfile, s_grid=None,
                  config: SolverConfig | None = None,
                  mode: str = "fd") -> RadialMeasure:
    """Solve the curve and assemble the full radial measure.

    Density over the grid uses finite differences by default; pass
    mode="exact" for the derivative-system density at every point.  Raises
    NoConvergenceError, naming the radii, when a grid point failed.
    """
    curve = solve_curve(profile, s_grid, config)
    curve.raise_failures()
    F = cdf(curve)
    f = grid_density(curve, mode=mode)
    atom = atom_at_zero(curve)
    return RadialMeasure(s_grid=curve.s_grid, F=F, f=f,
                         atom_at_zero=atom, support_radius=math.sqrt(curve.rho))
