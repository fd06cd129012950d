"""Scalar reductions for separable profiles sigma_ij^2 = d_i * dt_j.

For such profiles the 2n master equations collapse to one scalar equation
for u(s) in [0, 1]:

    (1/n) sum_i d_i dt_i / (s^2 + d_i dt_i u) = 1,

with F(s) = 1 - u(s).  Sampled variants replace the sum by an integral over
[0, 1] evaluated by composite trapezoid quadrature.  Girko's Sombrero
distribution covers the two-level case in closed form.

One vectorized root-finder, `_roots`, solves the equation at every radius
of a grid at once.  `separable_curve` and `sampled_separable_curve` call
it once for a whole grid, on the products and weights of the discrete and
of the sampled profile, and so does `vps.mesolver.solve_curve` for a
profile whose V is rank one (see `VarianceProfile.rank_one_factors`),
which it then lifts to (q, q_tilde).
"""

from __future__ import annotations

import math

import numpy as np

from .profiles import SeparableProfile

# A radius's Newton iteration stops once its increment is no longer
# positive beyond this many ulps of u.
STOP_ULPS = 4


class QuadratureUnstableError(RuntimeError):
    """The quadrature integrand varies too sharply between adjacent nodes."""


def _roots(prods: np.ndarray, weights: np.ndarray, s2):
    """The root u of sum_i w_i p_i / (s2 + p_i u) = 1 at every entry of the
    array s2 > 0, and the Newton steps each radius took.

    prods holds the products p_i >= 0, weights the weights w_i.  Where
    s2 >= sum_i w_i p_i there is no positive root, and u = 0 with no step.
    Elsewhere g(u) = sum_i w_i p_i / (s2 + p_i u) - 1 is decreasing and
    convex, so Newton from u = 0 increases u monotonically toward the root
    and, in exact arithmetic, never passes it.  The radii still running
    step together; a radius stops when its increment is no longer positive
    beyond STOP_ULPS ulps of u.  A relative-step test would not do: near
    the edge u -> 0 and rounding in g sets the step there.

    The sums over i are single matrix-vector products: OpenBLAS 0.3.31
    runs one on one thread below m n = 460,800 multiply-adds (measured on
    2 cores), so a grid of 200 radii stays on one thread up to n = 2,303.
    """
    s2 = np.asarray(s2, dtype=float)
    wp = weights * prods
    wpp = wp * prods
    u = np.zeros(s2.shape)
    steps = np.zeros(s2.shape, dtype=np.int64)
    live = np.flatnonzero(s2 < wp.sum())
    while len(live):
        inv = 1.0 / (s2[live, None] + prods * u[live, None])
        g = inv @ wp - 1.0
        inv *= inv
        step = g / (inv @ wpp)   # -g / g'
        steps[live] += 1
        grow = step > STOP_ULPS * np.finfo(float).eps * u[live]
        live = live[grow]
        u[live] += step[grow]
    return u, steps


def _discrete(sep: SeparableProfile):
    """The products d_i dt_i and the weights 1/n of a discrete profile."""
    return sep.d * sep.d_tilde, np.full(sep.n, 1.0 / sep.n)


def _density_from_products(prods, weights, s2, u):
    """Radial density at s^2 = s2 from the root u there; for arrays s2 and
    u of one shape, one density per entry."""
    s2, u = np.asarray(s2, dtype=float), np.asarray(u, dtype=float)
    inv2 = (s2[..., None] + prods * u[..., None]) ** -2.0
    num = inv2 @ (weights * prods)
    den = inv2 @ (weights * prods ** 2)
    return num / (math.pi * den)


def _curve(prods, weights, s_grid):
    """F = 1 - u and the radial density f at every radius of a finite,
    positive grid, from one `_roots` solve of u for the whole grid; f = 0
    from the support edge sqrt(sum_i w_i p_i) on."""
    s = np.asarray(s_grid, dtype=float)
    if not (np.isfinite(s).all() and (s > 0).all()):
        raise ValueError("s_grid must be finite and positive")
    s2 = s * s
    u = _roots(prods, weights, s2)[0]
    inside = s < math.sqrt(np.sum(weights * prods))
    return 1.0 - u, np.where(inside, _density_from_products(prods, weights, s2, u), 0.0)


def separable_curve(sep: SeparableProfile, s_grid):
    """(F, f) of a discrete separable profile at every radius of a finite,
    positive grid (`_curve`)."""
    return _curve(*_discrete(sep), s_grid)


def separable_density_zero(sep: SeparableProfile) -> float:
    """f(0) = (1/(n pi)) sum_i 1 / (d_i dt_i), exact."""
    return float(np.sum(1.0 / (sep.d * sep.d_tilde))) / (sep.n * math.pi)


def _quad_nodes(d_func, dtilde_func, quad_points: int):
    """Trapezoid nodes, weights and products for the sampled problem."""
    if quad_points < 2:
        raise ValueError("quad_points must be >= 2")
    x = np.linspace(0.0, 1.0, quad_points)
    d = np.array([float(d_func(xi)) for xi in x])
    dt = np.array([float(dtilde_func(xi)) for xi in x])
    if np.any(d < 0) or np.any(dt < 0):
        raise ValueError("d and d_tilde must be nonnegative on [0, 1]")
    prods = d * dt
    jump = np.abs(np.diff(prods)).max()
    if prods.max() > 0 and jump > 0.5 * prods.max():
        raise QuadratureUnstableError(
            "integrand varies too sharply between adjacent quadrature nodes; "
            "increase quad_points")
    h = x[1] - x[0]
    weights = np.full(quad_points, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return prods, weights


def sampled_rho(d_func, dtilde_func, quad_points: int = 2000) -> float:
    """rho_inf = integral of d(x) dt(x) over [0, 1] by trapezoid quadrature."""
    prods, weights = _quad_nodes(d_func, dtilde_func, quad_points)
    return float(np.sum(weights * prods))


def sampled_separable_curve(d_func, dtilde_func, s_grid, quad_points: int = 2000):
    """(F, f) of the limit of a sampled separable profile at every radius
    of a finite, positive grid (`_curve`), the integral over [0, 1] by
    trapezoid quadrature on quad_points nodes."""
    return _curve(*_quad_nodes(d_func, dtilde_func, quad_points), s_grid)


def sombrero_density(a: float, b: float, alpha: float, z_modulus: float) -> float:
    """Girko's Sombrero radial density for the two-level separable profile
    taking value a on an alpha fraction of indices and b on the rest.

    Support radius is sqrt(alpha a + beta b) with beta = 1 - alpha; the
    density is 0 beyond it.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    beta = 1.0 - alpha
    rho = alpha * a + beta * b
    z2 = z_modulus * z_modulus
    if z2 >= rho:
        return 0.0
    c = a * b * (2.0 * rho - (a + b))
    num = z2 * (a - b) ** 2 + c
    root = math.sqrt(z2 * z2 * (a - b) ** 2 + 2.0 * z2 * c + (a * b) ** 2)
    return ((a + b) - num / root) / (2.0 * math.pi * a * b)
