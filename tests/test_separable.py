import dataclasses
import math

import numpy as np
import pytest

from vps.core import validate_profile
from vps.measures import _exact_density, cdf, density, grid_density
from vps.mesolver import solve_curve, solve_route
from vps.profiles import build_separable
from vps.separable import (
    QuadratureUnstableError,
    sampled_rho,
    sampled_separable_curve,
    separable_curve,
    separable_density_zero,
    sombrero_density,
)


def sep_of(d, dt):
    return build_separable(np.asarray(d, float), np.asarray(dt, float))[1]


def u_of(sep, grid):
    """The root u = 1 - F at every radius of the grid."""
    return 1.0 - separable_curve(sep, grid)[0]


class TestSolveU:
    def test_constant_closed_form(self):
        sep = sep_of(np.ones(10), np.ones(10))
        assert u_of(sep, [0.6])[0] == pytest.approx(0.64, abs=1e-12)

    def test_trivial_regime(self):
        sep = sep_of([1.0, 4.0], [1.0, 1.0])
        assert sep.rho == pytest.approx(2.5)
        F, f = separable_curve(sep, [math.sqrt(2.5), 2.0])
        assert (F == 1.0).all() and (f == 0.0).all()

    def test_monotone_decreasing(self):
        sep = sep_of([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        ss = np.linspace(0.05, math.sqrt(sep.rho) - 0.01, 25)
        assert np.all(np.diff(u_of(sep, ss)) < 0)

    def test_rejects_negative_s(self):
        # and every other radius that is not finite and positive, in a grid
        # of otherwise good radii, as the sampled call does
        for s in (-0.1, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                separable_curve(sep_of([1.0], [1.0]), [0.5, s])
            with pytest.raises(ValueError):
                sampled_separable_curve(lambda x: 1.0, lambda x: 1.0, [0.5, s])


class TestSeparableDensity:
    def test_constant_circular(self):
        sep = sep_of(np.ones(8), np.ones(8))
        for f in separable_curve(sep, [0.2, 0.7, 0.95])[1]:
            assert f == pytest.approx(1 / math.pi, abs=1e-10)

    def test_outside_support(self):
        # F = 1 and f = 0 from the edge sqrt(rho) = 1 on
        sep = sep_of(np.ones(8), np.ones(8))
        F, f = separable_curve(sep, [0.5, 1.0, 1.2])
        assert (F[1:] == 1.0).all() and (f[1:] == 0.0).all() and f[0] > 0

    def test_matches_full_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            d = rng.uniform(0.5, 2.0, size=50)
            dt = rng.uniform(0.5, 2.0, size=50)
            profile, sep = build_separable(d, dt)
            grid = np.linspace(0.1, 1.05 * math.sqrt(sep.rho), 12)
            curve = solve_curve(profile, grid)
            _, want = separable_curve(sep, [0.3, 0.6])
            for z, f in zip((0.3, 0.6), want):
                assert density(curve, z, "exact") == pytest.approx(f, abs=1e-6)

    def test_density_at_zero_formula(self):
        assert separable_density_zero(sep_of(np.ones(4), np.ones(4))) == \
            pytest.approx(1 / math.pi)
        assert separable_density_zero(sep_of([1.0, 4.0], [1.0, 1.0])) == \
            pytest.approx(5 / (8 * math.pi))

    def test_power_quarter_approaches_two_over_pi(self):
        n = 4000
        x = np.arange(1, n + 1) / n
        d = x ** 0.25
        sep = sep_of(d, d)
        assert separable_density_zero(sep) == pytest.approx(2 / math.pi,
                                                            rel=0.02)


class TestRankOneExactDensity:
    """The exact density of a rank-one profile: the closed-form derivative
    of its scalar equation, at the root w = <a, q> <b, qt> of each solution."""

    @staticmethod
    def curve(n, seed):
        d, dt = np.random.default_rng(seed).uniform(0.5, 2.0, size=(2, n))
        profile, sep = build_separable(d, dt)
        assert solve_route(profile) == "separable (rank 1)"
        return solve_curve(profile), sep

    @pytest.mark.parametrize("n", [50, 1000])
    def test_matches_separable_curve(self, n):
        curve, sep = self.curve(n, 31)
        _, want = separable_curve(sep, curve.s_grid)
        assert np.abs(grid_density(curve, "exact") - want).max() <= 1e-12

    def test_matches_the_dense_lu(self, full_n):
        curve, _ = self.curve(12, 32)
        full = validate_profile(curve.profile.variances)
        assert full_n(full) == "full"
        inside = curve.products.live
        assert inside.sum() == 190
        want = _exact_density(dataclasses.replace(curve, profile=full))[inside]
        assert np.all(np.abs(_exact_density(curve)[inside] - want) <= 1e-10 * want)

    def test_point_density_takes_the_curve_route(self):
        # `density` solves its radius as `solve_curve` does, at t = 0, not
        # by the kernel at t_min
        curve, _ = self.curve(40, 33)
        f = grid_density(curve, "exact")
        for i in (0, 50, 120, 189):
            assert density(curve, curve.s_grid[i], "exact") == pytest.approx(f[i], rel=1e-14)


class TestCollapse:
    def test_F_equals_one_minus_u(self):
        rng = np.random.default_rng(19)
        d = rng.uniform(0.5, 1.5, size=30)
        dt = rng.uniform(0.5, 1.5, size=30)
        profile, sep = build_separable(d, dt)
        grid = np.linspace(0.1, 1.05 * math.sqrt(sep.rho), 15)
        curve = solve_curve(profile, grid)
        F = cdf(curve)
        u = u_of(sep, grid)
        assert np.abs(F - (1 - u)).max() <= 1e-8

    def test_single_sided_equivalence(self):
        rng = np.random.default_rng(20)
        d = rng.uniform(0.5, 1.5, size=20)
        dt = rng.uniform(0.5, 1.5, size=20)
        g = np.sqrt(d * dt)
        sep_two = sep_of(d, dt)
        sep_one = sep_of(g, g)
        grid = np.linspace(0.05, 1.05 * math.sqrt(sep_two.rho), 20)
        u2 = u_of(sep_two, grid)
        u1 = u_of(sep_one, grid)
        assert np.abs(u2 - u1).max() <= 1e-8


class TestSampledSeparable:
    def test_constant_matches_discrete(self):
        F, _ = sampled_separable_curve(lambda x: 1.0, lambda x: 1.0, [0.6])
        assert 1.0 - F[0] == pytest.approx(0.64, abs=1e-10)

    def test_rho_linear(self):
        rho = sampled_rho(lambda x: x, lambda x: x, quad_points=20000)
        assert rho == pytest.approx(1 / 3, abs=1e-7)

    def test_zero_past_the_edge(self):
        # the edge is sqrt(sampled_rho) = 0.577... for d = dt = x
        F, f = sampled_separable_curve(lambda x: x, lambda x: x, [0.5, 0.6])
        assert f[0] > 0 and F[0] < 1.0
        assert F[1] == 1.0 and f[1] == 0.0

    def test_quadrature_convergence(self):
        F1, _ = sampled_separable_curve(lambda x: x + 0.2, lambda x: 1.0, [0.4],
                                        quad_points=4000)
        F2, _ = sampled_separable_curve(lambda x: x + 0.2, lambda x: 1.0, [0.4],
                                        quad_points=8000)
        assert abs(F1[0] - F2[0]) <= 1e-8

    def test_linear_profile_blowup_rate(self):
        z = 1e-3
        _, f = sampled_separable_curve(lambda x: x, lambda x: x, [z],
                                       quad_points=20000)
        assert f[0] * z == pytest.approx(0.25, rel=0.05)

    def test_unstable_quadrature_rejected(self):
        step = lambda x: 0.0 if x < 0.5 else 10.0
        with pytest.raises(QuadratureUnstableError):
            sampled_separable_curve(step, step, [0.3], quad_points=50)

    def test_rejects_negative_function(self):
        with pytest.raises(ValueError):
            sampled_separable_curve(lambda x: x - 0.5, lambda x: 1.0, [0.3])


class TestSombrero:
    def test_equal_levels_circular(self):
        for z in (0.1, 0.5, 0.9):
            assert sombrero_density(1.0, 1.0, 0.5, z) == pytest.approx(
                1 / math.pi, abs=1e-12)

    def test_zero_value(self):
        assert sombrero_density(1.0, 4.0, 0.5, 0.0) == pytest.approx(
            5 / (8 * math.pi), abs=1e-12)

    def test_outside_support_zero(self):
        assert sombrero_density(1.0, 4.0, 0.5, 2.0) == 0.0

    def test_matches_discrete_two_level(self):
        n = 100
        sep = sep_of(np.concatenate([np.ones(50), 4 * np.ones(50)]),
                     np.ones(n))
        for z, f in zip((0.3, 0.8, 1.2), separable_curve(sep, [0.3, 0.8, 1.2])[1]):
            assert f == pytest.approx(sombrero_density(1.0, 4.0, 0.5, z), abs=1e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sombrero_density(0.0, 1.0, 0.5, 0.3)
        with pytest.raises(ValueError):
            sombrero_density(1.0, 1.0, 1.0, 0.3)


class TestNormalization:
    def test_sombrero_total_mass(self):
        grid = np.linspace(1e-4, math.sqrt(2.5), 4000)
        f = np.array([sombrero_density(1.0, 4.0, 0.5, z) for z in grid])
        mass = 2 * math.pi * np.trapezoid(f * grid, grid)
        assert mass == pytest.approx(1.0, abs=1e-3)
