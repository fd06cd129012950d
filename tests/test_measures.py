import math

import numpy as np
import pytest

import vps.mesolver
from vps.core import (
    InsufficientGridError,
    NoConvergenceError,
    OutsideSupportError,
    RankDeficientError,
    SolverConfig,
    default_s_grid,
    validate_profile,
)
from vps.measures import (
    ATOM_GAP,
    _exact_density,
    atom_at_zero,
    atom_from_cdf,
    build_measure,
    cdf,
    density,
    density_at_zero,
    density_lower_bound,
    grid_density,
)
from vps.mesolver import derivative_s2, solve_curve, solve_route
from vps.profiles import build_block_atom, build_sampled, build_separable, spectral_radius
from vps.reference import block_atom_F, block_atom_edge
from vps.separable import _density_from_products

from test_mesolver import band_model_b, zero_column_12, zero_rows_16


@pytest.fixture(scope="module")
def circular_curve():
    p = validate_profile(np.ones((24, 24)))
    grid = np.linspace(0.02, 1.06, 60)
    return p, solve_curve(p, grid)


@pytest.fixture(scope="module")
def block_curve():
    p = build_block_atom(3, 10)
    rho = math.sqrt(2) / 3
    grid = np.linspace(0.01, 1.05 * math.sqrt(rho), 50)
    return p, solve_curve(p, grid)


class TestCdf:
    def test_circular_matches_s_squared(self, circular_curve):
        _, curve = circular_curve
        F = cdf(curve)
        assert np.abs(F - np.minimum(curve.s_grid ** 2, 1.0)).max() < 1e-7

    def test_block_atom_closed_form(self, block_curve):
        _, curve = block_curve
        F = cdf(curve)
        Fo = np.array([block_atom_F(3, s) for s in curve.s_grid])
        assert np.abs(F - Fo).max() < 1e-6

    def test_one_beyond_support(self, circular_curve):
        _, curve = circular_curve
        F = cdf(curve)
        assert np.all(F[curve.s_grid >= 1.0] == 1.0)

    def test_monotone(self, block_curve):
        _, curve = block_curve
        assert np.all(np.diff(cdf(curve)) >= 0.0)


class TestDensity:
    def test_circular_constant(self, circular_curve):
        _, curve = circular_curve
        for z in (0.2, 0.5, 0.9):
            assert density(curve, z, "exact") == pytest.approx(1 / math.pi,
                                                               abs=1e-6)

    def test_fd_matches_exact(self, circular_curve):
        _, curve = circular_curve
        for z in (0.3, 0.6):
            assert density(curve, z, "fd") == pytest.approx(
                density(curve, z, "exact"), abs=1e-4)

    def test_outside_support_rejected(self, circular_curve):
        _, curve = circular_curve
        with pytest.raises(OutsideSupportError):
            density(curve, 1.5)
        with pytest.raises(OutsideSupportError):
            density(curve, 0.0)

    def test_unknown_mode_rejected(self, circular_curve):
        _, curve = circular_curve
        with pytest.raises(ValueError):
            density(curve, 0.5, "spline")

    def test_exact_needs_no_spectral_radius(self, circular_curve, spectral_radius_calls):
        # the curve's rho already places |z| inside the support
        _, curve = circular_curve
        density(curve, 0.5, "exact")
        assert spectral_radius_calls == []

    def test_block_atom_vanishes_near_zero(self, block_curve):
        _, curve = block_curve
        assert density(curve, 0.02, "exact") < 5e-3

    def test_fd_needs_three_grid_points(self):
        # circular n=8: f = 1/pi at 0.35, but two radii give no central
        # difference and one gives none at all
        p = validate_profile(np.ones((8, 8)))
        for grid in ([0.3, 0.6], [0.3]):
            curve = solve_curve(p, np.array(grid))
            with pytest.raises(InsufficientGridError):
                density(curve, 0.35, "fd")

    def test_fd_just_inside_the_edge(self):
        # circular n=8: the grid point nearest z lies past the edge, where
        # the density is zeroed, so the value comes from the last interior
        # point below the edge.  Its backward difference reads f(1 - h/(2s))
        # for F = s^2, well inside f/2 < f_fd <= f.
        p = validate_profile(np.ones((8, 8)))
        curve = solve_curve(p, np.linspace(0.02, 1.06, 60))
        f_fd = density(curve, math.sqrt(curve.rho) - 1e-4, "fd")
        assert 0.5 / math.pi < f_fd <= 1 / math.pi + 1e-8

    def test_fd_backward_difference_below_the_edge(self):
        # circular n=8, F = s^2: at the last radius below the edge the
        # backward difference reads (2s - h) / (2 pi s), i.e. 1/pi within
        # h/(2s) relative, where a central stencil straddling the edge reads
        # 20% low.  Every other radius keeps np.gradient's central difference.
        p = validate_profile(np.ones((8, 8)))
        s = np.linspace(0.02, 1.06, 60)
        curve = solve_curve(p, s)
        edge = math.sqrt(curve.rho)
        f = grid_density(curve, "fd")
        i = np.flatnonzero(s < edge)[-1]
        h = s[i] - s[i - 1]
        assert abs(math.pi * f[i] - 1.0) <= h / (2 * s[i]) + 1e-6
        central = np.gradient(cdf(curve), s) / (2 * math.pi * s)
        assert np.array_equal(f[1:i], central[1:i])

    def test_grid_density_modes_agree(self, circular_curve):
        _, curve = circular_curve
        fd = grid_density(curve, "fd")
        ex = grid_density(curve, "exact")
        interior = (curve.s_grid > 0.05) & (curve.s_grid < 0.95)
        assert np.abs(fd[interior] - ex[interior]).max() < 1e-4


class TestDensityAtZero:
    def test_circular(self):
        p = validate_profile(np.ones((16, 16)))
        f0, cross = density_at_zero(p)
        assert f0 == pytest.approx(1 / math.pi, abs=1e-8)
        assert cross == pytest.approx(f0, abs=1e-7)

    def test_lower_bound_inequality(self):
        rng = np.random.default_rng(13)
        p = validate_profile(rng.uniform(0.3, 2.0, size=(12, 12)))
        from vps.profiles import spectral_radius

        f0, _ = density_at_zero(p)
        assert f0 * math.pi * spectral_radius(p) >= 1.0 - 1e-9

    def test_continuity_toward_zero(self):
        p = validate_profile(np.ones((16, 16)))
        grid = np.linspace(0.01, 1.05, 80)
        curve = solve_curve(p, grid)
        f0, _ = density_at_zero(p)
        assert abs(density(curve, 1e-2, "exact") - f0) < 5e-3


class TestAtomAtZero:
    def test_circular_no_atom(self, circular_curve):
        _, curve = circular_curve
        assert atom_at_zero(curve) == pytest.approx(0.0, abs=1e-3)

    def test_block_atom_k3(self, block_curve):
        _, curve = block_curve
        assert atom_at_zero(curve) == pytest.approx(1 / 3, abs=1e-3)

    def test_block_atom_k2(self):
        p = build_block_atom(2, 8)
        rho = 0.5
        grid = np.linspace(0.01, 1.05 * math.sqrt(rho), 40)
        curve = solve_curve(p, grid)
        assert atom_at_zero(curve) == pytest.approx(0.0, abs=1e-3)

    def test_insufficient_grid(self):
        p = validate_profile(np.ones((8, 8)))
        for grid in ([0.8, 0.9], [0.05]):
            curve = solve_curve(p, np.array(grid))
            with pytest.raises(InsufficientGridError):
                atom_at_zero(curve)

    @staticmethod
    def first_three(p):
        """The curve on the first three radii of the profile's 200-point
        default grid."""
        return solve_curve(p, default_s_grid(math.sqrt(spectral_radius(p)))[:3])

    @pytest.mark.parametrize("make", [zero_rows_16, zero_column_12,
                                      lambda: build_sampled(band_model_b, 200)],
                             ids=["zero-rows-16", "zero-column-12", "band-B-200"])
    def test_guard_refuses_an_unresolved_atom(self, make):
        # F is not linear in s^2 at the smallest radii: the extrapolations
        # from radii (1, 2) and (2, 3) differ by 2.2e-3 or more, and the
        # first is estimated off by an eighth of that
        curve = self.first_three(make())
        F = cdf(curve)
        first, second = (atom_from_cdf(curve.s_grid[i:], F[i:]) for i in (0, 1))
        assert abs(first - second) / 8 > 2.5 * ATOM_GAP
        with pytest.raises(InsufficientGridError, match="not resolved") as info:
            atom_at_zero(curve)
        assert repr(first) in str(info.value) and repr(second) in str(info.value)
        # the two radii alone keep the two-radius extrapolation
        two = solve_curve(curve.profile, curve.s_grid[:2])
        assert atom_at_zero(two) == atom_from_cdf(two.s_grid, cdf(two))

    def test_guard_reads_the_error_not_the_gap(self):
        # radii 0.02, 0.073 and 0.127 on the block atom: the extrapolations
        # differ by 5e-4, but the first is 1.3e-5 off 1/3, as estimated
        curve = solve_curve(build_block_atom(3, 8), np.linspace(0.02, 0.5, 10))
        F = cdf(curve)
        gap = atom_from_cdf(curve.s_grid, F) - atom_from_cdf(curve.s_grid[1:], F[1:])
        assert gap > 4 * ATOM_GAP
        assert atom_at_zero(curve) == pytest.approx(1 / 3, abs=2e-5)

    @pytest.mark.parametrize("make, atom", [
        (lambda: build_block_atom(3, 100), 1 / 3),
        (lambda: validate_profile(np.random.default_rng(11).uniform(0.5, 2.0, (64, 64))), 0.0),
    ], ids=["block-atom-100", "dense-64"])
    def test_guard_passes_a_resolved_atom(self, make, atom):
        # gaps of 3.2e-8 and 8.5e-11
        curve = self.first_three(make())
        F = cdf(curve)
        assert abs(atom_from_cdf(curve.s_grid, F) - atom_from_cdf(curve.s_grid[1:], F[1:])) < 1e-7
        assert ATOM_GAP == 1e-4
        assert atom_at_zero(curve) == atom_from_cdf(curve.s_grid[:2], cdf(curve)[:2])
        assert atom_at_zero(curve) == pytest.approx(atom, abs=1e-6)


class TestFailedPoints:
    def test_build_measure_names_failed_radii(self):
        # block atom k=3, m=20 with an iteration budget most radii exhaust
        p = build_block_atom(3, 20)
        grid = default_s_grid(math.sqrt(spectral_radius(p)))
        config = SolverConfig(max_iters=60)
        curve = solve_curve(p, grid, config)
        failed = curve.failed_indices
        assert 0 < len(failed) < len(grid)
        for i in failed:
            assert curve.solutions[i].residual == math.inf
        with pytest.raises(NoConvergenceError,
                           match=f"{len(failed)} of {len(grid)} grid points did not converge"):
            build_measure(p, grid, config)


class TestDensityLowerBound:
    def test_circular_closed_form(self):
        p = validate_profile(np.ones((16, 16)))
        # q = qt = 0.8, 1/Psi = 1: ratio = 0.64 / 0.4096
        assert density_lower_bound(solve_curve(p, [0.6]))[0] == pytest.approx(1.5625, abs=1e-6)

    def test_positive_on_random_profiles(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            p = validate_profile(rng.uniform(0.4, 1.6, size=(8, 8)))
            assert density_lower_bound(solve_curve(p, [0.5]))[0] > 0.0

    def test_trivial_is_nan(self):
        p = validate_profile(np.ones((8, 8)))
        lb = density_lower_bound(solve_curve(p, [0.5, 2.0]))
        assert lb[0] > 0.0
        assert math.isnan(lb[1])


class TestBuildMeasure:
    def test_circular_uniform_disk(self):
        p = validate_profile(np.ones((24, 24)))
        m = build_measure(p, s_grid=np.linspace(0.02, 1.06, 60))
        assert m.support_radius == pytest.approx(1.0, abs=1e-8)
        assert m.atom_at_zero == pytest.approx(0.0, abs=1e-3)
        inside = m.s_grid < 0.95
        assert np.abs(m.f[inside][2:] - 1 / math.pi).max() < 2e-3

    def test_normalization(self):
        p = build_block_atom(3, 8)
        m = build_measure(p, s_grid=np.linspace(0.005, 0.75, 150))
        mass = m.atom_at_zero + 2 * math.pi * np.trapezoid(m.f * m.s_grid,
                                                           m.s_grid)
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_default_grid_and_one_spectral_radius(self, spectral_radius_calls):
        p = build_block_atom(3, 4)
        m = build_measure(p)
        assert len(spectral_radius_calls) == 1
        assert np.array_equal(m.s_grid, default_s_grid(m.support_radius))
        assert m.support_radius == pytest.approx(block_atom_edge(3), abs=1e-9)

    def test_edge_density_zero(self):
        p = validate_profile(np.ones((12, 12)))
        m = build_measure(p, s_grid=np.linspace(0.02, 1.06, 40))
        assert m.f[m.s_grid >= 1.0].max() == 0.0


def _one_radius_measures(curve):
    """F, the lower bound ratio and the unclipped exact density of each
    solution of the curve, one radius at a time: the per-solution formulas
    on all n entries, with `derivative_s2` for the derivative."""
    profile = curve.profile
    V, n = profile.normalized, profile.n
    factors = profile.rank_one_factors
    F, lb, f = [], [], []
    for sol in curve.solutions:
        q, qt = sol.q, sol.q_tilde
        F.append(1.0 - float(q @ (V @ qt)) / n)
        if sol.is_trivial:
            lb.append(math.nan)
            f.append(0.0)
            continue
        inv_psi = sol.s ** 2 + (V @ qt) * (V.T @ q)
        lb.append(float(np.sum(inv_psi * q * qt)) / float(np.sum(q ** 2 * qt ** 2 / inv_psi)))
        if factors is not None:
            a, b = factors
            w = float(a @ q) * float(b @ qt)
            f.append(float(_density_from_products(a * b, np.ones(n), sol.s ** 2, w)) / n)
        else:
            dq, dqt = derivative_s2(profile, sol)
            f.append(-(float(dq @ (V @ qt)) + float(q @ (V @ dqt))) / (math.pi * n))
    return np.array(F), np.array(lb), np.array(f)


def _random_full():
    return validate_profile(np.random.default_rng(41).uniform(0.5, 2.0, size=(12, 12)))


def _random_rank_one():
    return build_separable(*np.random.default_rng(42).uniform(0.5, 2.0, size=(2, 12)))[0]


@pytest.fixture()
def solve_calls(monkeypatch):
    """Record the shape of the matrix argument of every `np.linalg.solve`
    call."""
    calls = []
    original = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(a))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestWholeCurve:
    """The measures of a curve, evaluated for all radii at once from
    `MECurve.products`, against the one-radius formulas."""

    @pytest.mark.parametrize("make, route", [
        (lambda: build_block_atom(3, 20), "quotient (2 classes)"),
        (_random_full, "full"),
        (_random_rank_one, "separable (rank 1)"),
    ], ids=["quotient", "full", "rank-one"])
    def test_matches_one_radius_formulas(self, make, route):
        p = make()
        assert solve_route(p) == route
        edge = math.sqrt(spectral_radius(p))
        curve = solve_curve(p, edge * np.linspace(0.1, 1.1, 21))
        F, lb, f = _one_radius_measures(curve)
        assert np.isnan(lb).sum() == 3   # at and past the edge
        np.testing.assert_allclose(cdf(curve), np.clip(F, 0.0, 1.0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(density_lower_bound(curve), lb, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(_exact_density(curve), f, rtol=1e-12, atol=0.0)
        near = solve_curve(p, edge * np.array([0.05, 0.1]))
        want = atom_from_cdf(near.s_grid, _one_radius_measures(near)[0])
        assert atom_at_zero(near) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_one_stacked_solve_per_chunk(self, monkeypatch, solve_calls):
        p = _random_full()
        assert solve_route(p) == "full"
        curve = solve_curve(p, math.sqrt(spectral_radius(p)) * np.linspace(0.05, 0.95, 10))
        want = _one_radius_measures(curve)[2]
        del solve_calls[:]
        np.testing.assert_allclose(grid_density(curve, "exact"), want, rtol=1e-12, atol=0.0)
        assert solve_calls == [(10, 25, 25)]
        # three systems of 25 x 25 doubles per chunk: chunks of 3, 3, 3 and 1
        monkeypatch.setattr(vps.mesolver, "BASIS", 3 * 25 * 25)
        del solve_calls[:]
        np.testing.assert_allclose(grid_density(curve, "exact"), want, rtol=1e-12, atol=0.0)
        assert solve_calls == [(3, 25, 25)] * 3 + [(1, 25, 25)]

    def test_one_singular_radius_raises(self):
        # the 12 x 12 pattern without total support: at s = 0.3, below
        # 0.7 sqrt(rho), its solution is a boundary point whose system reads
        # a condition estimate near 1e17; above, the systems are regular
        p = zero_column_12()
        curve = solve_curve(p, [0.3, 0.35, 0.4, 0.45])
        with pytest.raises(RankDeficientError):
            derivative_s2(p, curve.solutions[0])
        for sol in curve.solutions[1:]:
            derivative_s2(p, sol)
        with pytest.raises(RankDeficientError, match="at s = 0.3$"):
            grid_density(curve, "exact")
