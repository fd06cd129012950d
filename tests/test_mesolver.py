import math
import tracemalloc

import numpy as np
import pytest

import vps.core
import vps.mesolver
import vps.profiles
from vps.core import (
    RANK_ONE_ULPS,
    NoConvergenceError,
    RankDeficientError,
    SolverConfig,
    default_s_grid,
    read_profile_csv,
    validate_profile,
    write_profile_csv,
)
from vps.measures import cdf, density, density_at_zero, grid_density
from vps.mesolver import (
    _aitken,
    _envelope,
    _identity,
    _layout,
    _lift,
    _linearization,
    _product,
    _residual_at_zero,
    _route,
    _solve_rank_one,
    _solve_rows,
    derivative_s2,
    envelope_fraction,
    solve_at_zero,
    solve_curve,
    solve_route,
)
from vps.profiles import PANEL, build_block_atom, build_sampled, build_separable, spectral_radius
from vps.reference import block_atom_density, block_atom_edge, block_atom_F


def limit_at(profile, s, config=None):
    """The t -> 0 solution at the one radius s: `solve_curve` on [s],
    raising its NoConvergenceError if the radius failed."""
    curve = solve_curve(profile, [s], config)
    curve.raise_failures()
    return curve.solutions[0]


def kernel_rows(profile, s, t, config=None):
    """The kernel `_solve_rows` at t on the profile's `_route`, each row
    lifted to the n entries."""
    route = _route(profile)
    return _lift(_solve_rows(_layout(route), s, t, config or SolverConfig()), route.label)


def regularized(profile, s, t):
    """(q, q_tilde) of the kernel's one row at (s, t), t > 0, which must
    converge."""
    rows = kernel_rows(profile, [s], t)
    assert rows.errors == [None]
    return rows.q[0], rows.q_tilde[0]


def constant_profile(n, variance=1.0):
    return validate_profile(variance * np.ones((n, n)))


def profile_from_entries(n, entries):
    """Profile with sigma^2 = v at each (i, j, v) of `entries`, zero elsewhere."""
    a = np.zeros((n, n))
    for i, j, v in entries:
        a[i, j] = v
    return validate_profile(a)


def zero_rows_16():
    """A 16 x 16 sparse pattern with six zero rows and three components."""
    return profile_from_entries(16, [
        (0, 0, 0.88), (0, 5, 0.85), (0, 6, 1.851), (0, 11, 1.635), (2, 14, 1.535),
        (4, 4, 0.569), (4, 6, 1.811), (4, 14, 1.613), (5, 2, 0.844), (5, 5, 1.828),
        (5, 7, 0.944), (7, 7, 1.043), (8, 2, 1.541), (8, 14, 1.951), (10, 7, 1.412),
        (12, 5, 0.572), (12, 15, 0.634), (13, 3, 0.517), (13, 4, 1.066),
        (13, 13, 0.519), (14, 3, 1.882)])


def zero_column_12():
    """A 15%-sparse 12 x 12 pattern with column 9 zero, without total
    support: at its solutions q spans 1e-9 to 1e3."""
    return profile_from_entries(12, [
        (0, 4, 1.902), (1, 0, 1.839), (1, 2, 0.567), (1, 4, 1.306), (2, 4, 0.696),
        (2, 6, 0.909), (3, 0, 1.713), (3, 4, 1.062), (3, 8, 0.801), (4, 1, 1.368),
        (4, 3, 0.698), (4, 5, 0.503), (5, 2, 1.629), (5, 4, 1.31), (5, 7, 0.603),
        (6, 1, 0.837), (6, 5, 1.971), (7, 2, 1.217), (8, 3, 1.36), (9, 11, 1.347),
        (10, 10, 1.01), (10, 11, 0.823), (11, 0, 1.302), (11, 10, 0.545)])


def zero_column_12_in_pairs():
    """`zero_column_12` with each index split into two, interleaved at
    random: 12 pair classes of size 2, whose quotient solves the same
    equations as the 12 x 12 profile."""
    label = np.random.default_rng(1).permutation(np.repeat(np.arange(12), 2))
    return validate_profile(zero_column_12().variances[np.ix_(label, label)])


def two_copies(block):
    """The direct sum diag(block, block)."""
    m = len(block)
    a = np.zeros((2 * m, 2 * m))
    a[:m, :m] = a[m:, m:] = block
    return validate_profile(a)


def decomposable_20():
    """A symmetric permutation of diag(B1, B2), B1 8 x 8 and B2 12 x 12 with
    different edges, the permutation, the two blocks' index ranges, each
    block alone with its variances scaled by n_b / n (normalized B_b / n),
    and a grid below, between and past the two blocks' edges."""
    rng = np.random.default_rng(17)
    a = np.zeros((20, 20))
    a[:8, :8] = rng.uniform(0.5, 2.0, size=(8, 8))
    a[8:, 8:] = rng.uniform(1.5, 6.0, size=(12, 12))
    perm = rng.permutation(20)
    blocks = [slice(0, 8), slice(8, 20)]
    parts = [validate_profile(a[b, b] * (b.stop - b.start) / 20) for b in blocks]
    lo, hi = sorted(math.sqrt(spectral_radius(part)) for part in parts)
    grid = np.concatenate([lo * np.linspace(0.05, 0.95, 5),
                           np.linspace(1.02 * lo, 0.98 * hi, 4), [1.1 * hi]])
    return validate_profile(a[np.ix_(perm, perm)]), perm, blocks, parts, grid


def scalar_regularized_root(s, t):
    """Bisection oracle for r = (r+t) / (s^2 + (r+t)^2), the constant
    profile reduction of the regularized system."""
    def g(r):
        return (r + t) / (s * s + (r + t) ** 2) - r
    lo, hi = 0.0, 1.0 / t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveRegularized:
    def test_matches_scalar_oracle(self):
        q, qt = regularized(constant_profile(16), s=1.0, t=0.1)
        assert np.allclose(q, scalar_regularized_root(1.0, 0.1), atol=1e-10)
        assert np.allclose(q, qt)

    def test_small_t_approaches_limit(self):
        q, _ = regularized(constant_profile(16), s=0.6, t=1e-8)
        assert np.allclose(q, 0.8, atol=1e-6)

    def test_large_s_first_order(self):
        t = 1e-3
        q, _ = regularized(constant_profile(8), s=30.0, t=t)
        assert np.allclose(q, t / 900.0, rtol=1e-2)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        p = validate_profile(rng.uniform(0.5, 1.5, size=(10, 10)))
        q, qt = regularized(p, s=0.7, t=1e-6)
        assert abs(q.sum() - qt.sum()) <= 10 * 1e-9

    def test_one_over_t_bound(self):
        p = constant_profile(8)
        for t in (1.0, 1e-2, 1e-4):
            q, _ = regularized(p, s=0.3, t=t)
            assert q.max() <= 1.0 / t * (1 + 1e-9)


class TestAnnealToLimit:
    def test_scalar_limit(self):
        p = constant_profile(16)
        sol = limit_at(p, 0.6)
        assert np.allclose(sol.q, 0.8, atol=1e-8)
        assert sol.t == 0.0

    def test_trivial_regime_exact_zeros(self):
        p = constant_profile(16)
        sol = limit_at(p, 1.5)
        assert sol.is_trivial
        assert np.all(sol.q == 0.0)

    def test_just_supercritical_is_trivial(self):
        # close above the edge a solve at t_min would leave a residue of
        # order t_min / (s^2 - rho); the radius is past sqrt(rho), so it is
        # never iterated and its zeros are exact
        p = constant_profile(16)
        sol = limit_at(p, 1.0029)
        assert sol.is_trivial and sol.iterations == 0

    def test_just_subcritical_nontrivial(self):
        p = constant_profile(16)
        sol = limit_at(p, 0.95)
        assert not sol.is_trivial
        assert np.allclose(sol.q, math.sqrt(1 - 0.95 ** 2), atol=1e-7)

    def test_block_atom_two_values(self):
        p = build_block_atom(3, 1)
        sol = limit_at(p, 0.3)
        # first block carries one value, blocks 2..k another
        q1, q2 = sol.q[0], sol.q[1]
        assert abs(sol.q[2] - q2) < 1e-10
        assert abs(q1 - q2) > 1e-3
        # verify the fixed point by direct residual of the defining equations
        V = p.normalized
        r1 = V.T @ sol.q / (0.09 + (V @ sol.q_tilde) * (V.T @ sol.q))
        assert np.allclose(r1, sol.q, atol=1e-9)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            limit_at(constant_profile(4), 0.0)

    def test_failure_quotes_the_kernel_message(self):
        # the loose phase before the t = 0 Newton needs more than 10 iterations
        with pytest.raises(NoConvergenceError) as exc:
            limit_at(build_block_atom(3, 10), 0.3, SolverConfig(max_iters=10))
        assert "1 of 1 grid points did not converge, at s = 0.3" in str(exc.value)
        assert "no fixed point after 10 iterations" in str(exc.value)
        assert "residual" in str(exc.value)

    def test_newton_first_step_may_raise_the_residual(self):
        # at these radii of a sparse pattern with six zero rows a step of the
        # hand-off that converges raises the residual, and the next ones
        # converge quadratically: at s = 0.104 the first step of the
        # hand-off at 2048 iterations (from 0.011 to 0.21), at s = 0.08 and
        # 0.124 a later step of a stall hand-off (6.8 to 7, 0.98 to 1.8).
        # Stopping at the first such step, s = 0.08 fails
        p = zero_rows_16()
        for s, iterations in ((0.08, 833), (0.104, 2048), (0.124, 545)):
            sol = limit_at(p, s)
            assert not sol.is_trivial and sol.iterations == iterations

    def test_sparse_profile_without_total_support(self):
        # 15%-sparse, column 9 zero, no total support: at the solution q
        # spans 1e-9 to 1e3.  The fixed point does not settle there, and an
        # additive Newton step from its iterate leaves the positive cone
        p = zero_column_12()
        V = p.normalized
        F = []
        for s in (0.25, 0.2727, 0.3):
            sol = limit_at(p, s)  # raises if the radius fails
            F.append(1 - sol.q @ V @ sol.q_tilde / p.n)
        assert F[0] < F[1] < F[2]

    def test_symmetry_q_equals_qtilde(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 1.5, size=(8, 8))
        p = validate_profile((a + a.T) / 2)
        sol = limit_at(p, 0.5)
        assert np.abs(sol.q - sol.q_tilde).max() <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.5, 1.5, size=(8, 8))
        p = validate_profile(a)
        perm = rng.permutation(8)
        pp = validate_profile(a[np.ix_(perm, perm)])
        sol = limit_at(p, 0.6)
        sol_p = limit_at(pp, 0.6)
        assert np.allclose(sol.q[perm], sol_p.q, atol=1e-9)
        assert np.allclose(sol.q_tilde[perm], sol_p.q_tilde, atol=1e-9)


class TestSolveAtZero:
    def test_constant_profile_ones(self):
        sol = solve_at_zero(constant_profile(12))
        assert np.allclose(sol.q, 1.0, atol=1e-8)
        assert np.allclose(sol.q_tilde, 1.0, atol=1e-8)

    def test_variance_four(self):
        sol = solve_at_zero(constant_profile(12, variance=4.0))
        assert np.allclose(sol.q, 0.5, atol=1e-8)

    def test_balance_relations(self):
        rng = np.random.default_rng(8)
        p = validate_profile(rng.uniform(0.5, 2.0, size=(10, 10)))
        sol = solve_at_zero(p)
        V = p.normalized
        assert np.abs(sol.q * (V @ sol.q_tilde) - 1.0).max() <= 1e-7
        assert np.abs(sol.q_tilde * (V.T @ sol.q) - 1.0).max() <= 1e-7

    def test_scaled_profile_doubly_stochastic(self):
        rng = np.random.default_rng(9)
        d = rng.uniform(0.5, 2.0, size=6)
        p, _ = build_separable(d, d)
        sol = solve_at_zero(p)
        scaled = sol.q[:, None] * p.normalized * sol.q_tilde[None, :]
        assert np.allclose(scaled.sum(axis=1), 1.0, atol=1e-8)
        assert np.allclose(scaled.sum(axis=0), 1.0, atol=1e-8)

    def test_atom_profile_raises(self):
        with pytest.raises(NoConvergenceError):
            solve_at_zero(build_block_atom(3, 3),
                          SolverConfig(max_iters=20_000))

    @staticmethod
    def _spied(monkeypatch):
        calls = []
        total_support = vps.mesolver._total_support

        def spy(pattern):
            calls.append(pattern.shape)
            return total_support(pattern)

        monkeypatch.setattr(vps.mesolver, "_total_support", spy)
        return calls

    def test_block_atom_fails_hall_on_its_quotient(self, monkeypatch):
        # 2m rows of the block atom share its first m columns: refused on
        # the 2 x 2 quotient, with no search on V
        calls = self._spied(monkeypatch)
        perm = np.random.default_rng(17).permutation(300)
        p = validate_profile(build_block_atom(3, 100).variances[np.ix_(perm, perm)])
        with pytest.raises(NoConvergenceError, match="pattern has no total support"):
            solve_at_zero(p)
        assert calls == []

    def test_zero_row_fails_hall_on_v_itself(self, monkeypatch):
        # without pair classes V is its own quotient, n classes of size 1:
        # a zero row fails Hall's count there, with no search on V, and the
        # count casts no n x n array to float (the boolean pattern is n^2
        # bytes, its float cast 8 n^2)
        calls = self._spied(monkeypatch)
        n = 600
        a = np.random.default_rng(19).uniform(0.5, 2.0, size=(n, n))
        a[5] = 0.0
        p = validate_profile(a)
        assert p.pair_classes is None and p.rank_one_factors is None
        tracemalloc.start()
        with pytest.raises(NoConvergenceError, match="pattern has no total support"):
            solve_at_zero(p)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert calls == [] and peak <= 2 * n * n

    def test_hall_on_the_classes_is_not_total_support(self, monkeypatch):
        # [[1, 1], [0, 1]] on classes of 50: every class passes Hall's
        # count and the pattern has a perfect matching, but the entries of
        # the upper right block lie on none
        calls = self._spied(monkeypatch)
        labels = np.repeat([0, 1], 50)[np.random.default_rng(18).permutation(100)]
        p = validate_profile(np.array([[1.0, 1.0], [0.0, 1.0]])[np.ix_(labels, labels)])
        assert len(p.pair_classes[1]) == 2
        with pytest.raises(NoConvergenceError, match="pattern has no total support"):
            solve_at_zero(p)
        assert calls == [(100, 100)]


def _two_block_parts():
    """Two positive diagonal blocks of different scales, and the row and
    column permutations that take them apart."""
    rng = np.random.default_rng(14)
    a = np.zeros((20, 20))
    a[:8, :8] = rng.uniform(0.5, 2.0, size=(8, 8))
    a[8:, 8:] = rng.uniform(1.5, 6.0, size=(12, 12))
    return a, rng.permutation(20), rng.permutation(20)


def _two_block_profile():
    """Total support with two Frobenius blocks, rows and columns permuted
    apart."""
    a, rows, cols = _two_block_parts()
    return validate_profile(a[np.ix_(rows, cols)])


def _sparse_profile():
    rng = np.random.default_rng(15)
    a = (rng.uniform(size=(300, 300)) < 0.1) * rng.uniform(0.5, 2.0, size=(300, 300))
    np.fill_diagonal(a, rng.uniform(0.5, 2.0, size=300))
    return validate_profile(a)


def _permuted_block_atom():
    rng = np.random.default_rng(16)
    a = build_block_atom(3, 100).variances
    return validate_profile(a[np.ix_(rng.permutation(300), rng.permutation(300))])


def _kernel_at_zero(V, config):
    rows = _solve_rows(_layout(_identity(V)), [0.0], config.t_min, config)
    assert rows.errors == [None]
    return rows.q[0], rows.q_tilde[0]


class TestSolveAtZeroMatchesAnneal:
    """The fixed-point kernel at s = 0 and t = t_min is the reference."""

    @pytest.mark.parametrize("make", [
        lambda: validate_profile(np.random.default_rng(13).uniform(0.5, 2.0, size=(30, 30))),
        _sparse_profile,
        lambda: build_separable(np.linspace(0.5, 2.0, 16), np.linspace(3.0, 1.0, 16))[0],
        _two_block_profile,
    ], ids=["positive", "sparse", "separable", "two-block"])
    def test_agrees_with_anneal(self, make):
        p = make()
        config = SolverConfig()
        V = p.normalized
        if make is _two_block_profile:
            # row i of V is row rows[i] of diag(B1, B2) and column j its
            # column cols[j]; each block, its variances scaled by n_b / n so
            # that its normalized matrix is B_b / n, is solved on its own
            a, rows, cols = _two_block_parts()
            q_ref, qt_ref = np.empty(20), np.empty(20)
            for b in (slice(0, 8), slice(8, 20)):
                block = validate_profile(a[b, b] * (b.stop - b.start) / 20)
                q_ref[b], qt_ref[b] = _kernel_at_zero(block.normalized, config)
            q_ref, qt_ref = q_ref[rows], qt_ref[cols]
        else:
            q_ref, qt_ref = _kernel_at_zero(V, config)
        sol = solve_at_zero(p, config)
        assert np.abs(sol.q - q_ref).max() <= 1e-7
        assert np.abs(sol.q_tilde - qt_ref).max() <= 1e-7
        residual = max(np.abs(sol.q * (V @ sol.q_tilde) - 1.0).max(),
                       np.abs(sol.q_tilde * (V.T @ sol.q) - 1.0).max())
        assert residual <= config.fixed_point_tol

    @pytest.mark.parametrize("make", [
        lambda: validate_profile(np.triu(np.ones((10, 10)))),
        _permuted_block_atom,
    ], ids=["upper-triangular", "permuted-block-atom"])
    def test_no_total_support_raises(self, make):
        with pytest.raises(NoConvergenceError, match="no total support"):
            solve_at_zero(make())


class TestDerivative:
    def test_scalar_closed_form(self):
        p = constant_profile(16)
        sol = limit_at(p, 0.6)
        dq, dqt = derivative_s2(p, sol)
        assert np.allclose(dq, -0.625, atol=1e-8)    # -1/(2 sqrt(1-s^2))
        assert np.allclose(dqt, -0.625, atol=1e-8)

    def test_small_s_limit(self):
        p = constant_profile(16)
        sol = limit_at(p, 0.05)
        dq, _ = derivative_s2(p, sol)
        assert np.allclose(dq, -0.5, atol=1e-3)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            p = validate_profile(rng.uniform(0.5, 1.5, size=(8, 8)))
            s = 0.5
            sol = limit_at(p, s)
            dq, dqt = derivative_s2(p, sol)
            h = 1e-4
            hi = limit_at(p, math.sqrt(s * s + h))
            lo = limit_at(p, math.sqrt(s * s - h))
            fd_q = (hi.q - lo.q) / (2 * h)
            assert np.abs(dq - fd_q).max() <= 1e-5

    def test_rejects_trivial(self):
        p = constant_profile(8)
        sol = limit_at(p, 2.0)
        with pytest.raises(ValueError):
            derivative_s2(p, sol)

    def test_linearization_matches_block_assembly(self):
        rng = np.random.default_rng(3)
        n = 7
        V = rng.uniform(0.0, 1.0, size=(n, n))
        d, cq, cqt = rng.uniform(0.1, 1.0, size=(3, n))
        J = np.block([[d[:, None] * V.T, -cq[:, None] * V],
                      [-cqt[:, None] * V.T, d[:, None] * V]])
        r = np.concatenate([np.ones(n), -np.ones(n)])
        A = _linearization(V, V.T, d, cq, cqt, trace=np.ones(n))
        assert np.array_equal(A[:2 * n, :2 * n], np.eye(2 * n) - J)
        assert np.array_equal(A[2 * n, :2 * n], r)
        assert not A[:, 2 * n].any()   # the column is `_stacked_solve`'s
        assert np.array_equal(_linearization(V, V.T, d, cq, cqt), A[:2 * n, :2 * n])

    def test_stacked_solve_borders_each_component(self, monkeypatch):
        # components {0, 2, 3} and {1, 4}: each gets the row of its trace
        # weights and its gauge direction (q, -qt) over its peak as the
        # column, and the multipliers are dropped from the solution
        rng = np.random.default_rng(8)
        n, component = 5, np.array([0, 1, 0, 0, 1])
        V = rng.uniform(0.5, 1.5, size=(n, n)) * (component[:, None] == component)
        weights = np.array([2.0, 1.0, 3.0, 1.0, 2.0])
        x = rng.uniform(0.1, 2.0, size=(2, 2 * n))
        coefficients = rng.uniform(0.1, 1.0, size=(3, 2, n))
        F = rng.uniform(-1.0, 1.0, size=(2, 2 * n))
        made = []

        def recorded(*args, trace=None):
            made.append(_linearization(*args, trace=trace))
            return made[-1]

        monkeypatch.setattr(vps.mesolver, "_linearization", recorded)
        dx, cond = vps.mesolver._stacked_solve(V, V.T, coefficients, F, (x, component, weights))
        (M,) = made
        assert M.shape == (2, 2 * n + 2, 2 * n + 2)
        for j in range(2):
            members = np.tile(component == j, 2)
            peak = x[:, members].max(axis=1, keepdims=True)
            gauge = np.where(members, x * np.repeat([1.0, -1.0], n), 0.0) / peak
            np.testing.assert_array_equal(M[:, :2 * n, 2 * n + j], gauge)
            trace = np.where(component == j, weights, 0.0)
            np.testing.assert_array_equal(M[:, 2 * n + j, :2 * n],
                                          np.tile(np.concatenate([trace, -trace]), (2, 1)))
        assert not M[:, 2 * n:, 2 * n:].any()
        full = np.linalg.solve(M, np.concatenate([F, np.zeros((2, 2))], axis=1)[..., None])
        np.testing.assert_allclose(dx, full[:, :2 * n, 0], rtol=1e-12)
        assert dx.shape == (2, 2 * n) and (cond < 1e6).all()

    def test_quotient_linearization_lifts(self):
        # on a pair-class quotient, (I - J) P = P (I - Jbar) for the lifting
        # P = blockdiag(E, E) with E the 0/1 class indicator, and the trace
        # row of the lifted vector is the weighted trace row of the quotient
        rng = np.random.default_rng(5)
        sizes = np.array([3, 1, 4])
        label = rng.permutation(np.repeat(np.arange(3), sizes))
        Vbar = rng.uniform(0.0, 1.0, size=(3, 3))
        V = Vbar[label][:, label]
        d, cq, cqt = rng.uniform(0.1, 1.0, size=(3, 3))
        weights = sizes[:, None]
        M = _linearization(weights * Vbar, weights * Vbar.T, d, cq, cqt, trace=sizes)
        n = len(label)
        full = _linearization(V, V.T, d[label], cq[label], cqt[label], trace=np.ones(n))
        E = (label[:, None] == np.arange(3)).astype(float)
        P = np.zeros((2 * n + 1, 7))
        P[:n, :3], P[n:2 * n, 3:6], P[2 * n, 6] = E, E, 1.0
        np.testing.assert_allclose(full @ P, P @ M, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("profile, s, route", [
        (validate_profile(np.random.default_rng(11).uniform(0.0, 1.0, size=(10, 10))), 0.4,
         "dense"),
        (build_block_atom(3, 10), 0.3, "quotient"),
        (build_separable(*np.random.default_rng(12).uniform(0.5, 1.5, size=(2, 10)))[0], 0.4,
         "dense"),
        (validate_profile(np.random.default_rng(13).uniform(0.0, 1.0, size=(12, 3))
                          @ np.random.default_rng(14).uniform(0.0, 1.0, size=(3, 12))), 0.4,
         "dense"),
        # index 2 has a zero row and column: a component with q = qt = 0
        (validate_profile(np.outer([1.0, 2.0, 0.0, 1.5, 0.7], [0.5, 1.0, 0.0, 2.0, 1.2])), 0.3,
         "dense"),
    ], ids=["random10", "block-atom-k3-m10", "separable-rank1", "random-rank3-n12",
            "separable-zero-index"])
    def test_matches_least_squares_reference(self, profile, s, route):
        # reference: the (2n+1) x 2n least-squares form of the same system,
        # the linearization with only the trace row, solved by SVD.  Without
        # pair classes `derivative_s2` runs the dense LU, low rank or not
        assert (profile.pair_classes is None) == (route == "dense")
        sol = limit_at(profile, s)
        V, n = profile.normalized, profile.n
        q, qt = sol.q, sol.q_tilde
        p = 1.0 / (s * s + (V @ qt) * (V.T @ q))
        A = _linearization(V, V.T, s * s * p ** 2, q ** 2, qt ** 2,
                           trace=np.ones(n))[:, :2 * n]
        b = -np.concatenate([p * q, p * qt, [0.0]])
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        dq, dqt = derivative_s2(profile, sol)
        x = np.concatenate([dq, dqt])
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("route", ["classes", "dense"])
    def test_rank_deficient_raises(self, route):
        # at 0.3 sqrt(rho) the 12 x 12 pattern without total support
        # converges to a boundary point: the t = 0 Newton refuses it, and
        # the system at the kernel's row reads a condition estimate near
        # 1e18.  Split into pair classes, the quotient route solves it
        p = zero_column_12() if route == "dense" else zero_column_12_in_pairs()
        assert solve_route(p) == ("full" if route == "dense" else "quotient (12 classes)")
        s = 0.3 * math.sqrt(spectral_radius(p))
        sol = limit_at(p, s)
        with pytest.raises(RankDeficientError,
                           match=rf"condition estimate \S+ > 1e13 at s = {s:.6g}$"):
            derivative_s2(p, sol)

    def test_singular_system_raises(self, monkeypatch):
        # a system made exactly singular after its assembly is named by its
        # radius
        p = validate_profile(np.random.default_rng(3).uniform(0.5, 2.0, size=(10, 10)))
        curve = solve_curve(p, [0.2, 0.4])
        linearization = vps.mesolver._linearization

        def singular(*args, trace=None):
            M = linearization(*args, trace=trace)
            M[1] = 0.0
            return M

        monkeypatch.setattr(vps.mesolver, "_linearization", singular)
        with pytest.raises(RankDeficientError, match="^derivative system is singular at s = 0.4$"):
            grid_density(curve, "exact")

    def test_direct_sum_density_is_the_blocks_sum(self):
        # each component carries its own gauge direction, and its own trace
        # row fixes it: below both edges, between them and past them
        p, _, blocks, parts, grid = decomposable_20()
        curve = solve_curve(p, grid)
        f_blocks = sum((b.stop - b.start) / 20 * grid_density(solve_curve(part, grid), "exact")
                       for b, part in zip(blocks, parts))
        f = grid_density(curve, "exact")
        assert np.abs(f - f_blocks).max() <= 1e-10 * np.abs(f_blocks).max()

    @pytest.mark.parametrize("block, route", [
        (np.random.default_rng(0).random((6, 6)), "full"),
        (np.ones((6, 6)), "quotient (2 classes)"),
        (np.ones((6, 6)), "full"),
    ], ids=["random-full", "ones-quotient", "ones-full"])
    def test_identical_blocks_have_identical_derivatives(self, block, route, full_n):
        p = two_copies(block)
        assert (full_n(p) if route == "full" else solve_route(p)) == route
        dq, dqt = derivative_s2(p, limit_at(p, 0.3))
        assert np.abs(dq[:6] - dq[6:]).max() <= 1e-12
        assert np.abs(dqt[:6] - dqt[6:]).max() <= 1e-12


class TestRowClasses:
    """`VarianceProfile.pair_classes`: the classes of equal rows of
    [V | V^T], and the kernel's solve on their quotient."""

    def test_permuted_block_atom(self):
        # rows and columns permuted apart: an index's class is its row block
        # (the first, or one of the other two) and its column block alike
        p = _permuted_block_atom()
        label, sizes, Vbar = p.pair_classes
        assert len(sizes) == 4 and sizes.sum() == p.n
        assert np.array_equal(np.bincount(label), sizes)
        assert np.array_equal(Vbar[label][:, label], p.normalized)
        assert p.pair_classes[2] is Vbar   # cached

    @pytest.mark.parametrize("a, count", [
        (np.eye(10)[np.random.default_rng(41).permutation(10)], None),
        (np.array([np.roll([3.0, 1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 0.0], i) for i in range(8)]),
         None),
        (np.tile([1.0, 2.0], (200, 100)) + np.eye(200)[[150]].T @ [[1.0, -1.0] * 100], 3),
        ((np.tile([1.0, 2.0], (200, 100)) + np.eye(200)[[150]].T @ [[1.0, -1.0] * 100]).T, 3),
        (np.array([[2.0, 1.0], [1.0, 2.0]])[[0, 1] * 8][:, [0, 1] * 8], 2),
        (np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])[[0, 1, 2] * 5]
         [:, [0, 1, 2] * 5], 3),
    ], ids=["permutation", "circulant", "one-row-past-the-first-chunk",
            "one-column-past-the-first-chunk", "two-classes", "constant-sums"])
    def test_equal_sums_are_never_merged(self, a, count):
        # indices with equal row sums and equal column sums, two of which
        # differ in a row or a column, fall in different classes: too many
        # for a quotient, or the exact classes
        p = validate_profile(a)
        if count is None:
            assert p.pair_classes is None
            return
        label, sizes, Vbar = p.pair_classes
        assert len(sizes) == count
        assert np.array_equal(Vbar[label][:, label], p.normalized)

    def test_equal_columns_in_a_narrow_last_chunk(self):
        # n = 65: column 64 is hashed alone, in a last chunk one column
        # wide, and classes 0 and 1 share their plain sums.  A floating
        # point key that sums that column in another order split its class
        Vbar = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5], [0.7, 0.7, 3.0]])
        label = np.repeat([0, 1, 2], [20, 20, 25])[np.random.default_rng(2).permutation(65)]
        p = validate_profile(Vbar[label][:, label])
        got, sizes, _ = p.pair_classes
        assert sorted(sizes) == [20, 20, 25]
        assert len({(a, b) for a, b in zip(got, label)}) == 3

    def test_none_past_half_the_rows(self):
        # four classes: a quotient in eight indices, None in seven
        Vbar = np.diag([1.0, 2.0, 3.0, 4.0])
        label, sizes, _ = validate_profile(Vbar[[0, 1, 2, 3] * 2][:, [0, 1, 2, 3] * 2]
                                           ).pair_classes
        assert list(label) == [0, 1, 2, 3] * 2 and list(sizes) == [2] * 4
        seven = [0, 1, 2, 3, 0, 1, 2]
        assert validate_profile(Vbar[seven][:, seven]).pair_classes is None

    @staticmethod
    def fixtures():
        """The matrices of the pair-class tests above and below."""
        Vbar = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5], [0.7, 0.7, 3.0]])
        shared = np.repeat([0, 1, 2], [20, 20, 25])[np.random.default_rng(2).permutation(65)]
        four = np.diag([1.0, 2.0, 3.0, 4.0])
        zero = build_block_atom(3, 4).variances.copy()
        zero[[2, 7]] = zero[:, [2, 7]] = 0.0
        chunk = np.tile([1.0, 2.0], (200, 100)) + np.eye(200)[[150]].T @ [[1.0, -1.0] * 100]
        return [np.eye(10)[np.random.default_rng(41).permutation(10)],
                np.array([np.roll([3.0, 1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 0.0], i) for i in range(8)]),
                chunk, chunk.T,
                np.array([[2.0, 1.0], [1.0, 2.0]])[[0, 1] * 8][:, [0, 1] * 8],
                np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])[[0, 1, 2] * 5]
                [:, [0, 1, 2] * 5],
                Vbar[shared][:, shared], four[[0, 1, 2, 3] * 2][:, [0, 1, 2, 3] * 2],
                four[[0, 1, 2, 3, 0, 1, 2]][:, [0, 1, 2, 3, 0, 1, 2]], zero,
                _permuted_block_atom().variances, TestRowClasses.interleaved_blocks().variances]

    def test_sums_keep_every_class(self):
        # the classes of equal rows of [V | V^T], numbered by first index,
        # or None past n / 2 of them, whether the sums or the keys decide
        for a in self.fixtures():
            V = validate_profile(a).normalized
            _, first, label = np.unique(np.hstack([V, V.T]), axis=0, return_index=True,
                                        return_inverse=True)
            got = vps.core._pair_classes(V)
            if 2 * len(first) > len(V):
                assert got is None
                continue
            label = np.argsort(np.argsort(first))[label.ravel()]
            assert np.array_equal(got[0], label)
            assert np.array_equal(got[1], np.bincount(label))

    def test_sums_refuse_band_b_without_hashing(self, monkeypatch):
        def hashed(V):
            raise AssertionError("hashed")

        monkeypatch.setattr(vps.core, "_pair_keys", hashed)
        assert build_sampled(band_model_b, 800).pair_classes is None
        with pytest.raises(AssertionError, match="hashed"):
            _permuted_block_atom().pair_classes

    def test_zero_row_is_its_own_class(self):
        # a zero row and column in two different blocks
        a = build_block_atom(3, 4).variances.copy()
        a[[2, 7]] = a[:, [2, 7]] = 0.0
        label, sizes, Vbar = validate_profile(a).pair_classes
        assert len(sizes) == 3
        assert label[2] == label[7] and sizes[label[2]] == 2
        assert not (Vbar[label[2]].any() or Vbar[:, label[2]].any())
        assert len(set(label[[0, 2, 4]])) == 3

    def test_classes_are_read_only_and_own_their_memory(self):
        p = build_block_atom(3, 10)
        label, sizes, Vbar = p.pair_classes
        assert not (label.flags.writeable or sizes.flags.writeable or Vbar.flags.writeable)
        assert Vbar.base is None and not np.shares_memory(Vbar, p.normalized)

    @staticmethod
    def interleaved_blocks():
        """diag(ones(6, 6), 2 ones(10, 10)), symmetrically permuted: two pair
        classes and two components, so the kernel permutes the quotient."""
        a = np.zeros((16, 16))
        a[:6, :6], a[6:, 6:] = 1.0, 2.0
        perm = np.random.default_rng(43).permutation(16)
        return validate_profile(a[np.ix_(perm, perm)])

    @pytest.mark.parametrize("make", [_permuted_block_atom, interleaved_blocks],
                             ids=["permuted-block-atom", "interleaved-blocks"])
    def test_curve_matches_the_panel_products(self, make, kernel_only, full_n):
        # the kernel at t_min on both: the quotient of the permuted block
        # atom ends at t = 0, and all its n = 300 indices at t_min
        p, panels = make(), make()
        assert kernel_only(p).startswith("quotient")
        assert full_n(panels) == "full"
        grid = math.sqrt(spectral_radius(p)) * np.array([0.1, 0.5, 0.9])
        config = SolverConfig()
        rows, ref = (kernel_rows(x, grid, config.t_min, config) for x in (p, panels))
        assert rows.errors == ref.errors == [None] * 3
        for i in range(3):
            assert abs(rows.iterations[i] - ref.iterations[i]) <= 1
            for x, y in ((rows.q[i], ref.q[i]), (rows.q_tilde[i], ref.q_tilde[i])):
                assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    def test_stalled_aitken_gain_does_not_set_the_count(self, full_n):
        # classes of sizes 13 (zero rows), 1 and 4, without total support:
        # at 0.193 sqrt(rho) the Aitken block ratio nears 1 - 3e-5, where
        # the gain r / (1 - r) turns rounding into the iteration count
        # (995 to 1,314 over these copies).  Handed to Newton past
        # STALL_GAIN, the quotient and all n, one ulp apart, take one count
        label = [2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 2, 0]
        a = np.array([[0.0, 0.0, 0.0], [0.0, 0.983, 0.2], [0.865, 0.0, 1.755]])[label][:, label]
        grid = [0.193 * math.sqrt(spectral_radius(validate_profile(a)))]
        counts = set()
        for ulps in range(3):
            b = a.copy()
            b[0, 0] += ulps * np.spacing(b[0, 0])
            p, full = validate_profile(b), validate_profile(b)
            assert p.pair_classes is not None and full_n(full) == "full"
            counts |= {solve_curve(x, grid).solutions[0].iterations for x in (p, full)}
        assert len(counts) == 1


class TestSolveCurve:
    def test_scalar_curve(self):
        p = constant_profile(16)
        grid = np.arange(0.2, 0.95, 0.1)
        curve = solve_curve(p, grid)
        for s, sol in zip(grid, curve.solutions):
            assert np.allclose(sol.q, math.sqrt(1 - s * s), atol=1e-8)

    def test_input_layout_does_not_move_the_curve(self, full_n):
        # a profile is stored in C order whatever the caller's layout: the
        # kernel's products round by layout, and on this pattern without
        # total support a Fortran-ordered V moved q by 1.2e-10
        a = np.array([[1.0, 0.0, 0.0, 0.0]] + [[1.0] * 4] * 3)
        p, f = validate_profile(a), validate_profile(np.asfortranarray(a))
        assert full_n(p) == full_n(f) == "full"
        assert f.variances.flags.c_contiguous and f.normalized.flags.c_contiguous
        grid = [0.5 * math.sqrt(spectral_radius(p))]
        sol, want = solve_curve(f, grid).solutions[0], solve_curve(p, grid).solutions[0]
        assert sol.iterations == want.iterations
        assert np.array_equal(sol.q, want.q) and np.array_equal(sol.q_tilde, want.q_tilde)

    def test_supercritical_point_zeroed(self):
        p = constant_profile(16)
        curve = solve_curve(p, np.array([0.5, 1.1]))
        assert curve.solutions[1].is_trivial
        assert not curve.solutions[0].is_trivial

    def test_inner_product_nonincreasing(self):
        p = build_block_atom(3, 5)
        grid = np.linspace(0.05, 0.75, 20)
        curve = solve_curve(p, grid)
        V = p.normalized
        inner = [sol.q @ (V @ sol.q_tilde) / p.n for sol in curve.solutions]
        assert np.all(np.diff(inner) <= 1e-10)

    def test_rejects_bad_grid(self):
        p = constant_profile(4)
        with pytest.raises(ValueError):
            solve_curve(p, np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            solve_curve(p, np.array([]))
        for grid in ([math.nan, 0.3], [0.3, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                solve_curve(p, grid)

    def test_batched_curve_matches_pointwise_anneal(self):
        # a non-symmetric profile on a grid across the edge, with a budget
        # that only the radius just below the edge exhausts, in the loose
        # phase before the t = 0 Newton
        rng = np.random.default_rng(11)
        p = validate_profile(rng.uniform(0.2, 2.0, size=(12, 12)))
        grid = math.sqrt(spectral_radius(p)) * np.array([0.3, 0.6, 0.9, 0.99, 1.01, 1.2])
        config = SolverConfig(max_iters=32)
        curve = solve_curve(p, grid, config)
        assert curve.failed_indices == (3,)
        failed = curve.solutions[3]
        assert failed.is_trivial and failed.residual == math.inf
        assert failed.iterations == config.max_iters
        with pytest.raises(NoConvergenceError):
            limit_at(p, grid[3], config)
        for i in (0, 1, 2, 4, 5):
            sol = curve.solutions[i]
            ref = limit_at(p, grid[i], config)
            assert np.abs(sol.q - ref.q).max() <= 1e-10
            assert np.abs(sol.q_tilde - ref.q_tilde).max() <= 1e-10
        # past the edge: exact zeros, never iterated
        for sol in curve.solutions[4:]:
            assert sol.is_trivial
            assert sol.iterations == 0 and sol.residual == 0.0

    def test_grid_of_many_radii_is_one_block(self):
        # 140 radii iterate in lock step as one block; the budget starves
        # only the radii next to the edge (131 to 139, in the loose phase),
        # and every other radius takes the iterations it takes alone
        rng = np.random.default_rng(11)
        p = validate_profile(rng.uniform(0.2, 2.0, size=(12, 12)))
        count = 140
        grid = math.sqrt(spectral_radius(p)) * np.linspace(0.05, 0.995, count)
        config = SolverConfig(max_iters=32)
        curve = solve_curve(p, grid, config)
        failed = curve.failed_indices
        assert failed and failed == tuple(range(failed[0], count))
        for i, sol in enumerate(curve.solutions):
            if i in failed:
                assert sol.iterations == config.max_iters
                assert sol.residual == math.inf
                continue
            ref = limit_at(p, grid[i], config)
            assert sol.iterations == ref.iterations
            assert np.abs(sol.q - ref.q).max() <= 1e-10
            assert np.abs(sol.q_tilde - ref.q_tilde).max() <= 1e-10

    def test_anneal_never_sees_a_radius_past_the_edge(self, monkeypatch):
        p = build_block_atom(3, 4)
        edge = math.sqrt(spectral_radius(p))
        grid = edge * np.array([0.2, 0.7, 0.999, 1.0, 1.001, 1.5])
        kernel = vps.mesolver._solve_rows

        def recorded(layout, s, t, config, start=None):
            seen.extend(s)
            return kernel(layout, s, t, config, start)

        monkeypatch.setattr(vps.mesolver, "_solve_rows", recorded)
        # with COARSE_MIN = 1 the 2-class route's loose phase makes two
        # kernel calls, on the coarse profile and on the route itself
        for calls, coarse_min in ((1, vps.mesolver.COARSE_MIN), (2, 1)):
            monkeypatch.setattr(vps.mesolver, "COARSE_MIN", coarse_min)
            seen = []
            curve = solve_curve(p, grid)
            limit_at(p, 1.2 * edge)
            assert seen == list(grid[:3]) * calls
            assert all(s < math.sqrt(curve.rho) for s in seen)
            assert [sol.is_trivial for sol in curve.solutions] == [False] * 3 + [True] * 3

    def test_decomposable_profile(self):
        # a symmetric permutation of diag(B1, B2): the pattern of V + V^T
        # has two components, each with its own gauge and its own edge
        p, perm, blocks, parts, grid = decomposable_20()
        curve = solve_curve(p, grid)
        assert curve.failed_indices == ()
        for b in blocks:
            members = (perm >= b.start) & (perm < b.stop)
            for sol in curve.solutions:
                assert abs(sol.q[members].sum() - sol.q_tilde[members].sum()) <= 1e-12
        F_blocks = sum((b.stop - b.start) / 20 * cdf(solve_curve(part, grid))
                       for b, part in zip(blocks, parts))
        assert np.abs(cdf(curve) - F_blocks).max() <= 1e-10

    def test_narrow_sampled_band(self):
        # from ones at t_min every radius converges; a schedule in t stalled
        # at an intermediate t on this profile
        p = build_sampled(lambda x, y: (1 + x) * (2 - y) if abs(x - y) <= 0.086 else 0.0, 45)
        assert not limit_at(p, 0.3779516650220765).is_trivial
        curve = solve_curve(p)
        assert curve.failed_indices == ()
        assert np.all(np.diff(cdf(curve)) >= 0)

    def test_newton_hand_off_on_band_model(self, monkeypatch):
        def band_b(x, y):
            return (x + 2 * y) ** 2 if abs(x - y) <= 1 / 10 else 0.0

        p = build_sampled(band_b, 40)
        config = SolverConfig(fixed_point_tol=1e-9, t_min=1e-8)
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 30)
        handed = []   # (t, rows) of each call of the one Newton
        newton = vps.mesolver._newton

        def counted(A, B, x, s2, t, tol, gauge):
            handed.append((t, len(x)))
            return newton(A, B, x, s2, t, tol, gauge)

        monkeypatch.setattr(vps.mesolver, "_newton", counted)
        # the kernel at t_min to the full tolerance, as a refused radius
        # takes it: past LU_UNKNOWNS its hand-offs are solved by GMRES
        inside = grid[grid < math.sqrt(spectral_radius(p))]
        kernel = kernel_rows(p, inside, config.t_min, config)
        assert sum(rows for t, rows in handed if t > 0) > 0
        assert not any(kernel.errors) and kernel.krylov.sum() > 0
        balance = kernel.q.sum(axis=1) - kernel.q_tilde.sum(axis=1)
        assert (np.abs(balance) / p.n <= 1e-10).all()
        # the curve takes the t = 0 endgame from the loose kernel instead
        handed.clear()
        curve = solve_curve(p, grid, config)
        assert [t for t, _ in handed] == [0.0]
        assert curve.rows.at_zero.sum() == len(inside) and curve.rows.krylov.sum() > 0
        assert curve.failed_indices == ()
        for sol in curve.solutions:
            assert abs(sol.q.sum() - sol.q_tilde.sum()) / p.n <= 1e-10
        assert np.all(np.diff(cdf(curve)) >= 0)


def separable_pair(seed, n, low=0.5, high=2.0):
    """Two copies of one random separable profile, the second held to the
    fixed-point kernel by the caller."""
    d, dt = np.random.default_rng(seed).uniform(low, high, size=(2, n))
    return build_separable(d, dt)[0], build_separable(d, dt)[0]


class TestCurveRecord:
    """`MECurve.rows` is the one record of a solve; the views and the
    failures are read from it."""

    @pytest.fixture(scope="class")
    def starved(self):
        # block atom k=3, m=20 with a budget that 4 of 200 radii exhaust in
        # the loose phase before the t = 0 Newton
        config = SolverConfig(max_iters=60)
        return solve_curve(build_block_atom(3, 20), None, config), config

    def test_views_and_failures_agree_with_the_rows(self, starved):
        curve, config = starved
        rows = curve.rows
        failed = tuple(i for i, error in enumerate(rows.errors) if error)
        assert len(failed) == 4
        assert curve.failed_indices == failed
        assert curve.failure_messages == tuple(rows.errors[i] for i in failed)
        # every radius that converged is solved at t = 0; the failed ones
        # stopped at t_min
        assert not curve.t.flags.writeable
        for i, sol in enumerate(curve.solutions):
            assert (sol.s, sol.t) == (curve.s_grid[i], config.t_min if i in failed else 0.0)
            assert sol.t == curve.t[i]
            assert np.shares_memory(sol.q, rows.q) and np.shares_memory(sol.q_tilde, rows.q_tilde)
            assert np.array_equal(sol.q, rows.q[i])
            assert np.array_equal(sol.q_tilde, rows.q_tilde[i])
            assert (sol.iterations, sol.residual) == (rows.iterations[i], rows.residual[i])
        for i in failed:
            sol = curve.solutions[i]
            assert sol.is_trivial and sol.residual == math.inf
            assert sol.iterations == config.max_iters

    def test_radii_past_the_edge_are_exact_zeros(self, starved):
        curve, _ = starved
        rows = curve.rows
        past = np.flatnonzero(curve.s_grid >= math.sqrt(curve.rho))
        assert len(past) and past[-1] == len(curve.s_grid) - 1
        assert not rows.q[past].any() and not rows.q_tilde[past].any()
        assert not rows.iterations[past].any() and not rows.residual[past].any()
        assert not rows.krylov.any()   # the quotient's Newton steps are solved by LU
        assert all(rows.errors[i] is None for i in past)

    def test_record_is_read_only(self, starved):
        rows = starved[0].rows
        for a in (rows.q, rows.q_tilde, rows.iterations, rows.residual, rows.krylov):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            rows.q[0, 0] = 1.0

    def test_exact_density_at_a_failed_radius_raises(self, starved):
        curve, _ = starved
        s = curve.s_grid[curve.failed_indices[0]]
        with pytest.raises(NoConvergenceError, match="1 of 1 grid points did not converge"):
            density(curve, s, "exact")


class TestEndgame:
    """A route with at most LU_UNKNOWNS unknowns per half ends with Newton
    on the t = 0 equations; a radius it refuses keeps the kernel's row at
    t_min, as solved without the endgame."""

    @staticmethod
    def assert_kernel_rows(profile, grid, rows, where=None):
        """The rows at the mask `where` (all, by default) are those of the
        kernel at t_min on those radii alone, bit for bit."""
        config = SolverConfig()
        if where is None:
            where = np.ones(len(grid), dtype=bool)
        want = kernel_rows(profile, grid[where], config.t_min, config)
        for got, ref in ((rows.q, want.q), (rows.q_tilde, want.q_tilde),
                         (rows.iterations, want.iterations), (rows.residual, want.residual)):
            np.testing.assert_array_equal(got[where], ref)
        assert [rows.errors[i] for i in np.flatnonzero(where)] == want.errors

    def test_block_atom_at_t_zero(self):
        k, m = 3, 100
        perm = np.random.default_rng(1).permutation(k * m)
        p = validate_profile(build_block_atom(k, m).variances[np.ix_(perm, perm)])
        assert solve_route(p) == "quotient (2 classes)"
        curve = solve_curve(p)
        inside = curve.s_grid < math.sqrt(curve.rho)
        assert curve.failed_indices == ()
        assert np.array_equal(curve.rows.at_zero, inside)
        F = np.array([block_atom_F(k, s) for s in curve.s_grid])
        assert np.abs(cdf(curve) - F).max() <= 1e-11
        far = curve.s_grid >= 0.05 * block_atom_edge(k)
        f = np.array([block_atom_density(k, s) for s in curve.s_grid[far]])
        assert np.abs(grid_density(curve, "exact")[far] - f).max() <= 1e-9

    def test_refused_radii_keep_the_kernel_rows(self):
        # the 16 x 16 pattern is refused at these radii, and the 12 x 12
        # one converges at 0.05 and 0.1 sqrt(rho) to boundary points whose
        # bordered systems fail the condition gate
        p = zero_rows_16()
        grid = np.array([0.08, 0.104, 0.124])
        rows = solve_curve(p, grid).rows
        assert not rows.at_zero.any()
        assert list(rows.iterations) == [833, 2048, 545]
        self.assert_kernel_rows(p, grid, rows)
        p = zero_column_12()
        grid = math.sqrt(spectral_radius(p)) * np.array([0.05, 0.1])
        rows = solve_curve(p, grid).rows
        assert not rows.at_zero.any()
        self.assert_kernel_rows(p, grid, rows)

    def test_mixed_curve_is_monotone(self):
        p = zero_column_12()
        grid = math.sqrt(spectral_radius(p)) * np.linspace(0.02, 0.98, 40)
        curve = solve_curve(p, grid)
        rows, config = curve.rows, curve.config
        assert curve.failed_indices == ()
        assert 0 < rows.at_zero.sum() < 40
        assert np.all(np.diff(cdf(curve)) >= 0)
        refused = ~rows.at_zero
        self.assert_kernel_rows(p, grid, rows, refused)
        # an accepted radius meets the t = 0 residual, and its record says so
        q, qt = rows.q[rows.at_zero], rows.q_tilde[rows.at_zero]
        bound = config.fixed_point_tol * np.maximum(1.0, np.maximum(q, qt).max(axis=1))
        s2 = grid[rows.at_zero, None] ** 2
        assert (_residual_at_zero(_identity(p.normalized), q, qt, s2) <= bound).all()
        assert (rows.residual[rows.at_zero] <= bound).all()

    def test_only_the_refused_radii_are_solved_again(self, monkeypatch):
        kernel = vps.mesolver._solve_rows

        def recorded(layout, s, t, config, start=None):
            calls.append((list(s), config.fixed_point_tol))
            return kernel(layout, s, t, config, start)

        monkeypatch.setattr(vps.mesolver, "_solve_rows", recorded)
        p = zero_column_12()
        grid = math.sqrt(spectral_radius(p)) * np.linspace(0.02, 0.98, 40)
        # with COARSE_MIN = 1 the 12 classes' loose phase starts from the
        # solve of their coarse profile, a second loose kernel call
        for loose_calls, coarse_min in ((1, vps.mesolver.COARSE_MIN), (2, 1)):
            monkeypatch.setattr(vps.mesolver, "COARSE_MIN", coarse_min)
            calls = []
            curve = solve_curve(p, grid)
            refused = ~curve.rows.at_zero
            assert 0 < refused.sum() < 40
            full = [s for s, tol in calls if tol == curve.config.fixed_point_tol]
            assert full == [list(grid[refused])]
            loose = [s for s, tol in calls if tol != curve.config.fixed_point_tol]
            assert loose == [list(grid)] * loose_calls
            assert (curve.t == np.where(refused, curve.config.t_min, 0.0)).all()

    def test_solve_regularized_keeps_its_t(self, monkeypatch):
        newton = vps.mesolver._newton

        def hand_off_only(A, B, x, s2, t, tol, gauge):
            assert t > 0, "the t = 0 Newton ran"
            return newton(A, B, x, s2, t, tol, gauge)

        monkeypatch.setattr(vps.mesolver, "_newton", hand_off_only)
        # the kernel at a caller's t > 0 hands off to Newton at that t only
        p = validate_profile(np.random.default_rng(2).uniform(0.5, 2.0, size=(8, 8)))
        rows = kernel_rows(p, [0.3], 1e-6)
        assert rows.errors == [None] and not rows.at_zero[0]

    def test_a_singular_system_refuses_only_its_radius(self, monkeypatch):
        p = validate_profile(np.random.default_rng(3).uniform(0.5, 2.0, size=(10, 10)))
        grid = math.sqrt(spectral_radius(p)) * np.array([0.2, 0.4, 0.6, 0.8])
        linearization = vps.mesolver._linearization
        stacks = []

        def singular_once(*args, trace=None):
            M = linearization(*args, trace=trace)
            if trace is not None and not stacks:
                M[2] = 0.0   # the first Newton step's system of radius 2
            stacks.append(len(M))
            return M

        monkeypatch.setattr(vps.mesolver, "_linearization", singular_once)
        rows = solve_curve(p, grid).rows
        assert stacks[0] == 4
        assert list(rows.at_zero) == [True, True, False, True]
        self.assert_kernel_rows(p, grid, rows, np.arange(4) == 2)


def zero_column_12_and_block():
    """The direct sum of `zero_column_12` and a positive 16 x 16 block:
    n = 28 past LU_UNKNOWNS, two components, and the 12 x 12 pattern's
    boundary points at small radii."""
    a = np.zeros((28, 28))
    a[:12, :12] = zero_column_12().variances
    a[12:, 12:] = np.random.default_rng(7).uniform(0.5, 2.0, size=(16, 16))
    return validate_profile(a)


class TestKrylovRoute:
    """Past LU_UNKNOWNS unknowns per half the t = 0 Newton solves its steps
    by GMRES; it agrees with the stacked LUs, and its condition gate
    refuses what theirs would."""

    @staticmethod
    def endgames(monkeypatch):
        """Record (met, cond) of every t = 0 call of `_newton`."""
        calls = []
        newton = vps.mesolver._newton

        def recorded(A, B, x, s2, t, tol, gauge):
            out = newton(A, B, x, s2, t, tol, gauge)
            if t == 0:
                calls.append((out[3].copy(), out[4].copy()))
            return out

        monkeypatch.setattr(vps.mesolver, "_newton", recorded)
        return calls

    @pytest.mark.parametrize("bordered", [False, True])
    def test_solves_the_stacked_systems(self, bordered):
        # the matrix-free operator is the `_linearization`, bordered once
        # per component at t = 0; its condition estimate is at most
        # ||M||_inf / sigma_min(M)
        rng = np.random.default_rng(9)
        n, component = 30, np.repeat([0, 1], [12, 18])
        V = rng.uniform(0.5, 1.5, size=(n, n)) * (component[:, None] == component) / n
        x = rng.uniform(0.1, 2.0, size=(3, 2 * n))
        coefficients = rng.uniform(0.1, 1.0, size=(3, 3, n))
        F = rng.uniform(-1.0, 1.0, size=(3, 2 * n))
        border = (x, component, None) if bordered else None
        made = []
        linearization = vps.mesolver._linearization

        def recorded(*args, trace=None):
            made.append(linearization(*args, trace=trace))
            return made[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vps.mesolver, "_linearization", recorded)
            want, _ = vps.mesolver._stacked_solve(V, V.T, coefficients, F, border)
        got, cond, iterations = vps.mesolver._krylov_solve(
            (V, _envelope(V)), (V.T, _envelope(V.T)), coefficients, F, border, np.full(3, 1e-12),
            vps.mesolver._operand_sums(V, V.T))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert (0 < iterations).all() and (iterations < 2 * n).all()
        (M,) = made
        exact = np.abs(M).sum(axis=-1).max(axis=-1) / np.linalg.svd(M, compute_uv=False)[:, -1]
        assert (cond <= exact * (1 + 1e-10)).all() and (cond >= 1.0).all()

    def test_matches_the_lu_route(self, monkeypatch):
        p = validate_profile(np.random.default_rng(11).uniform(0.5, 2.0, size=(30, 30)))
        assert solve_route(p) == "full"
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 30)
        inside = grid < math.sqrt(spectral_radius(p))
        krylov = solve_curve(p, grid).rows
        monkeypatch.setattr(vps.mesolver, "LU_UNKNOWNS", 32)
        lu = solve_curve(p, grid).rows
        np.testing.assert_array_equal(krylov.at_zero, lu.at_zero)
        assert krylov.at_zero[inside].all()
        assert (krylov.krylov[inside] > 0).all() and not lu.krylov.any()
        assert not krylov.krylov[~inside].any()
        for got, want in ((krylov.q, lu.q), (krylov.q_tilde, lu.q_tilde)):
            scale = np.abs(want[inside]).max(axis=1)
            assert (np.abs(got - want)[inside].max(axis=1) <= 1e-10 * scale).all()

    def test_gate_refuses_where_the_lu_gate_would(self, monkeypatch):
        p = zero_column_12_and_block()
        assert solve_route(p) == "full" and _route(p).component.max() == 1
        grid = math.sqrt(spectral_radius(p)) * np.linspace(0.02, 0.98, 40)
        calls = self.endgames(monkeypatch)
        curve = solve_curve(p, grid)
        rows, config = curve.rows, curve.config
        assert curve.failed_indices == ()
        refused = ~rows.at_zero
        assert 0 < refused.sum() < 40
        TestEndgame.assert_kernel_rows(p, grid, rows, refused)
        q, qt = rows.q[rows.at_zero], rows.q_tilde[rows.at_zero]
        bound = config.fixed_point_tol * np.maximum(1.0, np.maximum(q, qt).max(axis=1))
        s2 = grid[rows.at_zero, None] ** 2
        assert (_residual_at_zero(_identity(p.normalized), q, qt, s2) <= bound).all()
        assert rows.krylov[rows.at_zero].all()
        # the stacked LUs meet the t = 0 residual at the refused radii, and
        # their gate refuses them; GMRES's estimate passes 1e13 there too
        monkeypatch.setattr(vps.mesolver, "LU_UNKNOWNS", 32)
        lu = solve_curve(p, grid).rows
        (_, krylov_cond), (lu_met, lu_cond) = calls
        np.testing.assert_array_equal(lu.at_zero, rows.at_zero)
        assert lu_met[refused].all() and (lu_cond[refused] > 1e13).all()
        assert (krylov_cond[refused] > 1e13).all()
        assert (krylov_cond[rows.at_zero] <= 1e13).all()

    def test_band_model_b_at_t_zero(self):
        # every radius is solved at t = 0, where the kernel at t = 1e-10 and
        # 2e-10 extrapolates to (Richardson in t: its bias is linear)
        p = build_sampled(band_model_b, 200)
        edge = math.sqrt(spectral_radius(p))
        grid = default_s_grid(edge, 30)
        inside = grid < edge
        curve = solve_curve(p, grid, SolverConfig(fixed_point_tol=1e-9, t_min=1e-8))
        assert np.array_equal(curve.rows.at_zero, inside)
        V = p.normalized

        def F(t):
            rows = _solve_rows(_layout(_identity(V)), grid[inside], t,
                               SolverConfig(fixed_point_tol=1e-12))
            assert not any(rows.errors)
            return 1.0 - (rows.q * (rows.q_tilde @ V.T)).sum(axis=1) / p.n

        assert np.abs(cdf(curve)[inside] - (2 * F(1e-10) - F(2e-10))).max() <= 1e-9

    def test_sums_the_operands_once_per_newton_call(self, monkeypatch):
        # ||M||_inf reads the operands' column sums and diagonals, formed
        # once per `_newton` call however many GMRES steps it takes
        calls = {"newton": 0, "sums": 0, "krylov": 0}

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(vps.mesolver, original.__name__, call)

        counted("newton", vps.mesolver._newton)
        counted("sums", vps.mesolver._operand_sums)
        counted("krylov", vps.mesolver._krylov_solve)
        p = validate_profile(np.random.default_rng(11).uniform(0.5, 2.0, size=(30, 30)))
        solve_curve(p, default_s_grid(math.sqrt(spectral_radius(p)), 10))
        assert calls["sums"] == calls["newton"] >= 1
        assert calls["krylov"] > calls["newton"]

    def test_lays_v_out_once(self, monkeypatch):
        # the loose kernel, Newton and the kernel's second run for the
        # refused radius share one layout, and the derivative reads the
        # components labeled once, on the curve's route
        layouts, labels = [], []
        layout, scc = vps.mesolver._layout, vps.mesolver._scc

        def counted(route):
            layouts.append(route.V.shape)
            return layout(route)

        def labeled(pattern):
            labels.append(pattern.shape)
            return scc(pattern)

        monkeypatch.setattr(vps.mesolver, "_layout", counted)
        monkeypatch.setattr(vps.mesolver, "_scc", labeled)
        p = zero_column_12_and_block()
        grid = math.sqrt(spectral_radius(p)) * np.array([0.05, 0.5, 0.9])
        curve = solve_curve(p, grid)
        assert list(curve.rows.at_zero) == [False, True, True]
        assert layouts == [(28, 28)] and labels == [(28, 28)]
        vps.mesolver.derivative_rows(curve.products, [1, 2])
        assert labels == [(28, 28)] and curve.products.route is curve.route
        np.testing.assert_array_equal(curve.route.component, np.repeat([0, 1], [12, 16]))
        # each exact density at one modulus solves one radius by the curve's
        # route: it lays that route out again, but labels no component
        p = validate_profile(np.random.default_rng(11).uniform(0.5, 2.0, size=(30, 30)))
        edge = math.sqrt(spectral_radius(p))
        curve = solve_curve(p, default_s_grid(edge, 10))
        assert solve_route(p) == "full" and labels == [(28, 28), (30, 30)]
        for z in (0.2, 0.5, 0.8):
            assert density(curve, z * edge, "exact") > 0.0
        assert layouts == [(28, 28)] + [(30, 30)] * 4 and labels == [(28, 28), (30, 30)]


    def test_forcing_follows_the_newton_residual(self, monkeypatch):
        # after the first step each GMRES row solves only as far as its
        # Newton step needs; GUARD = 0 puts back the fixed FORCING pair
        p = build_sampled(band_model_b, 200)
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 30)
        config = SolverConfig(fixed_point_tol=1e-9, t_min=1e-8)
        curve = solve_curve(p, grid, config)
        monkeypatch.setattr(vps.mesolver, "GUARD", 0.0)
        fixed = solve_curve(p, grid, config)
        assert curve.rows.krylov.sum() < fixed.rows.krylov.sum()
        assert curve.rows.at_zero[:-2].all()
        np.testing.assert_array_equal(curve.rows.at_zero, fixed.rows.at_zero)
        np.testing.assert_array_equal(curve.rows.iterations, fixed.rows.iterations)
        assert np.abs(cdf(curve) - cdf(fixed)).max() <= 1e-11

    def test_an_ill_conditioned_system_keeps_the_tight_forcing(self, monkeypatch):
        # a system whose last estimate passed GUARD is solved to FORCING[1]
        # at its next step, so the condition gate sees the Krylov space it
        # would see with the fixed pair; the others solve more loosely
        p = validate_profile(np.random.default_rng(11).uniform(0.5, 2.0, size=(30, 30)))
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 10)
        krylov_solve = vps.mesolver._krylov_solve

        def forcings(inflate):
            seen = []

            def spy(*args):
                seen.append(np.array(args[5], dtype=float, copy=True))
                dx, cond, work = krylov_solve(*args)
                return dx, np.maximum(cond, 10.0 * vps.mesolver.GUARD) if inflate else cond, work

            monkeypatch.setattr(vps.mesolver, "_krylov_solve", spy)
            assert solve_curve(p, grid).rows.at_zero[:-1].all()
            return np.concatenate(seen)

        loose, tight = forcings(False), forcings(True)
        first, fixed = vps.mesolver.FORCING
        # the first steps, the same rows either way, solve to FORCING[0];
        # every later one of `tight` to FORCING[1], and some of `loose` not
        assert len(loose) == len(tight)
        assert (loose == first).sum() == (tight == first).sum() > 0
        assert ((tight == first) | (tight == fixed)).all() and (tight == fixed).any()
        assert (~np.isin(loose, (first, fixed))).any()

    @staticmethod
    def stopping_systems():
        """Six 40 x 40 systems, the fourth with b = 0, whose forcings stop
        each at its own GMRES iteration."""
        rng = np.random.default_rng(5)
        k, size = 6, 40
        M = np.eye(size) + rng.uniform(-0.3, 0.3, size=(k, size, size)) / math.sqrt(size)
        b = rng.uniform(-1.0, 1.0, size=(k, size))
        b[3] = 0.0
        return M, b, np.array([1e-2, 1e-10, 1e-4, 1e-6, 1e-8, 1e-3])

    @pytest.mark.parametrize("swap", [vps.mesolver.SWAP, 1])
    def test_stopped_rows_cost_no_products(self, monkeypatch, swap):
        # rows that meet their forcing are swapped behind the running ones
        # (their bases in one block, and one vector at a time): `apply`
        # sees the running rows alone, one product per iteration, and each
        # row's solution is the one it gets solved alone
        monkeypatch.setattr(vps.mesolver, "SWAP", swap)
        M, b, forcing = self.stopping_systems()
        k = len(b)
        seen = []

        def apply(z, out, rows):
            seen.append(np.array(rows))
            out[:] = np.matmul(M[rows], z[:, :, None])[:, :, 0]

        x, sigma, iterations = vps.mesolver._gmres(apply, b, forcing)
        assert iterations[3] == 0 and not x[3].any()
        assert len(set(iterations)) == k
        assert sum(len(rows) for rows in seen) == iterations.sum()
        for j, rows in enumerate(seen):
            np.testing.assert_array_equal(np.sort(rows), np.flatnonzero(iterations > j))
        for i in np.flatnonzero(b.any(axis=1)):
            alone = vps.mesolver._gmres(lambda z, out, rows: apply(z, out, rows + i),
                                        b[i:i + 1], forcing[i:i + 1])
            assert alone[2][0] == iterations[i]
            assert np.abs(alone[0][0] - x[i]).max() <= 1e-12 * np.abs(x[i]).max()
            assert alone[1][0] == pytest.approx(sigma[i], rel=1e-10)
            r = b[i] - M[i] @ x[i]
            assert np.linalg.norm(r) <= forcing[i] * np.linalg.norm(b[i]) * (1 + 1e-8)

    def test_reads_no_basis_vector_it_did_not_write(self, monkeypatch):
        # the basis is allocated uninitialized, and a row writes vectors only
        # up to its own iterations: memory left holding NaN must change no
        # solution, neither of a row that stopped early nor of b = 0
        M, b, forcing = self.stopping_systems()

        def apply(z, out, rows):
            out[:] = np.matmul(M[rows], z[:, :, None])[:, :, 0]

        want = vps.mesolver._gmres(apply, b, forcing)
        empty = np.empty

        def poisoned(*args, **kwargs):
            a = empty(*args, **kwargs)
            if a.dtype.kind == "f":
                a.fill(math.nan)
            return a

        monkeypatch.setattr(np, "empty", poisoned)
        got = vps.mesolver._gmres(apply, b, forcing)
        assert np.isfinite(got[0]).all() and not got[0][3].any()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestRankOneRoute:
    @staticmethod
    def circular_benchmark_profile(tmp_path):
        """sigma2_ij = d_j / d_i, d ~ U(0.5, 2), n = 64, written to CSV and
        read back: rank one only to rounding."""
        d = np.random.default_rng(1).uniform(0.5, 2.0, size=64)
        path = tmp_path / "circ.csv"
        write_profile_csv(validate_profile(d[None, :] / d[:, None]), path)
        return read_profile_csv(path)

    def test_detects_the_circular_profile_read_back(self, tmp_path):
        p = self.circular_benchmark_profile(tmp_path)
        a, b = p.rank_one_factors
        assert not (a.flags.writeable or b.flags.writeable)
        assert a.base is None and b.base is None
        ab = np.outer(a, b)
        assert np.abs(p.normalized - ab).max() > 0.0   # rank one only to rounding
        assert (np.abs(p.normalized - ab) <= RANK_ONE_ULPS * np.finfo(float).eps * ab).all()
        assert solve_route(p) == "separable (rank 1)"
        # the constant profile, with one pair class, takes the route too
        assert solve_route(constant_profile(8)) == "separable (rank 1)"

    def test_none_off_rank_one(self, tmp_path):
        p = self.circular_benchmark_profile(tmp_path)
        for i, j in ((5, 7), (0, 0), (63, 20)):
            a = p.variances.copy()
            a[i, j] *= 1.0 + 1e-12
            assert validate_profile(a).rank_one_factors is None
        assert build_sampled(band_model_b, 800).rank_one_factors is None
        block = build_block_atom(3, 100)
        assert block.rank_one_factors is None
        assert solve_route(block) == "quotient (2 classes)"

    def test_zero_rows_and_columns(self, kernel_only):
        a = np.array([1.0, 0.0, 2.0, 0.5, 0.0, 3.0, 0.0])
        b = np.array([0.0, 1.5, 1.0, 0.0, 2.0, 0.7, 0.0])
        p, ref = validate_profile(np.outer(a, b)), validate_profile(np.outer(a, b))
        assert p.rank_one_factors is not None
        assert kernel_only(ref) != "separable (rank 1)"
        grid = math.sqrt(spectral_radius(p)) * np.array([0.1, 0.5, 0.9, 1.1])
        curve, kernel = solve_curve(p, grid), solve_curve(ref, grid)
        assert curve.failed_indices == kernel.failed_indices == ()
        for sol in curve.solutions[:3]:
            assert 0 < sol.iterations < 100
            assert (sol.q[b == 0] == 0.0).all() and (sol.q[b > 0] > 0.0).all()
            assert (sol.q_tilde[a == 0] == 0.0).all() and (sol.q_tilde[a > 0] > 0.0).all()
        assert curve.solutions[3].is_trivial
        assert np.abs(cdf(curve) - cdf(kernel)).max() <= 1e-8

    def test_a_lift_that_fails_the_check_comes_from_the_kernel(self, monkeypatch,
                                                                kernel_only):
        p, ref = separable_pair(31, 20)
        assert kernel_only(ref) == "full"
        grid = math.sqrt(spectral_radius(p)) * np.array([0.2, 0.5, 0.8])
        roots = vps.mesolver._roots

        def corrupted(prods, weights, s2):
            w, steps = roots(prods, weights, s2)
            w[1] *= 1.001
            return w, steps

        seen = []
        endgame = vps.mesolver._solve_at_zero_rows
        config = SolverConfig()
        want = vps.mesolver._solve_inside(ref, _route(ref), grid[1:2], config,
                                          spectral_radius(ref))

        def recorded(route, s, config, rho):
            seen.extend(s)
            return endgame(route, s, config, rho)

        monkeypatch.setattr(vps.mesolver, "_roots", corrupted)
        monkeypatch.setattr(vps.mesolver, "_solve_at_zero_rows", recorded)
        curve = solve_curve(p, grid)
        assert seen == [grid[1]]
        rows = curve.rows
        assert curve.failed_indices == ()
        # the rejected radius takes the endgame, which solves it at t = 0
        assert list(rows.at_zero) == [True, True, True] and want.at_zero[0]
        for got, ref_rows in ((rows.q, want.q), (rows.q_tilde, want.q_tilde),
                              (rows.iterations, want.iterations),
                              (rows.residual, want.residual), (rows.krylov, want.krylov)):
            np.testing.assert_array_equal(got[1], ref_rows[0])
        assert rows.errors[1] is want.errors[0] is None
        assert curve.solutions[1].t == 0.0
        assert np.abs(cdf(curve) - cdf(solve_curve(ref, grid))).max() <= 1e-8

    def test_no_root_gives_exact_zeros(self):
        # nilpotent: only V[0, 1:] is nonzero, so sum(pi) = 0, and every
        # radius that a computed rho of order 1e-5 would place inside gets
        # the exact zeros of the t = 0 equations
        V = np.zeros((5, 5))
        V[0, 1:] = 1.0
        p = validate_profile(V)
        rows = _solve_rank_one(p, _route(p), [1e-3, 0.1], SolverConfig(), spectral_radius(p))
        assert (rows.q == 0.0).all() and (rows.q_tilde == 0.0).all()
        assert (rows.iterations == 0).all() and (rows.residual == 0.0).all()
        assert rows.errors == [None, None]
        # the constant profile at its edge s^2 = sum(pi) = 1
        p = constant_profile(8)
        rows = _solve_rank_one(p, _route(p), [0.6, 1.0], SolverConfig(), 1.0)
        assert np.abs(rows.q[0] - 0.8).max() <= 1e-15 and rows.iterations[0] > 0
        assert (rows.q[1] == 0.0).all() and (rows.q_tilde[1] == 0.0).all()
        assert rows.iterations[1] == 0 and rows.residual[1] == 0.0

    @pytest.mark.parametrize("seed, n, low, high", [(41, 7, 0.5, 2.0), (42, 33, 0.1, 3.0),
                                                    (43, 50, 0.01, 5.0)])
    def test_matches_the_kernel(self, seed, n, low, high, kernel_only):
        # within the kernel's t_min bias
        p, ref = separable_pair(seed, n, low, high)
        assert kernel_only(ref) == "full"
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 25)
        curve, kernel = solve_curve(p, grid), solve_curve(ref, grid)
        assert curve.failed_indices == kernel.failed_indices == ()
        assert all(sol.iterations < 100 for sol in curve.solutions)
        assert np.abs(cdf(curve) - cdf(kernel)).max() <= 1e-8
        assert all(sol.t == 0.0 for sol in curve.solutions)

    def test_trace_balance_and_symmetry(self):
        p, _ = separable_pair(44, 30)
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 20)
        for sol in solve_curve(p, grid).solutions:
            assert abs(sol.q.sum() - sol.q_tilde.sum()) <= 1e-14 * max(1.0, sol.q.sum())
        d = np.random.default_rng(45).uniform(0.5, 2.0, size=30)
        sym = build_separable(d, d)[0]
        assert solve_route(sym) == "separable (rank 1)"
        for sol in solve_curve(sym, grid).solutions:
            assert np.abs(sol.q - sol.q_tilde).max() <= 1e-15 * max(1.0, sol.q.max())


def band_model_b(x, y):
    return (x + 2 * y) ** 2 if abs(x - y) <= 1 / 10 else 0.0


class TestEnvelope:
    @staticmethod
    def sparse_pattern(rng, n):
        """A random band of random width, with or without scattered
        entries, with zero rows, zero columns and a run of empty columns."""
        i, j = np.indices((n, n))
        a = np.where(np.abs(i - j - rng.integers(-3, 4)) <= rng.integers(0, n // 8 + 1),
                     rng.uniform(0.5, 2.0, (n, n)), 0.0)
        a[rng.random((n, n)) < rng.choice([0.0, 2.0]) / n] = 1.0
        a[rng.choice(n, n // 10, replace=False)] = 0.0
        a[:, rng.choice(n, n // 10, replace=False)] = 0.0
        start = rng.integers(0, n)
        a[:, start:start + rng.integers(0, 2 * PANEL)] = 0.0
        return a

    @pytest.mark.parametrize("split", [0.5, 1.0], ids=["default", "always"])
    def test_panels_cover_every_nonzero(self, split, monkeypatch):
        monkeypatch.setattr(vps.profiles, "SPLIT", split)
        rng = np.random.default_rng(37)
        split_seen = 0
        for n in (1, 5, 63, 64, 65, 129, 200, 300):
            for _ in range(4):
                a = self.sparse_pattern(rng, n)
                panels = _envelope(a)
                split_seen += len(panels) > 1
                # the panels tile the columns in order
                assert [p[2] for p in panels] == [0] + [p[3] for p in panels[:-1]]
                assert panels[-1][3] == n
                covered = np.zeros((n, n), dtype=bool)
                for lo, hi, a0, b0 in panels:
                    assert 0 <= lo <= hi <= n
                    covered[lo:hi, a0:b0] = True
                    if lo == hi:
                        assert lo == 0 and not a[:, a0:b0].any()
                assert covered[a != 0].all()
                x = rng.uniform(size=(3, n))
                out = np.full((3, n), np.nan)
                _product(x, a, panels, out)
                np.testing.assert_allclose(out, x @ a, rtol=1e-13, atol=0.0)
        assert split_seen

    @pytest.mark.parametrize("n", [8, 300])
    def test_dense_profile_keeps_one_panel(self, n):
        assert _envelope(np.ones((n, n))) == ((0, n, 0, n),)
        assert envelope_fraction(_identity(np.ones((n, n)))) == 1.0

    def test_band_model_b_matches_the_full_panel(self, monkeypatch):
        p = build_sampled(band_model_b, 300)
        assert p.n > PANEL and len(_envelope(p.normalized)) > 1
        assert envelope_fraction(_identity(p.normalized)) < 0.5
        config = SolverConfig(fixed_point_tol=1e-9, t_min=1e-8)
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 12)
        curve = solve_curve(p, grid, config)
        monkeypatch.setattr(vps.mesolver, "_envelope", lambda V: ((0, len(V), 0, len(V)),))
        full = solve_curve(p, grid, config)
        assert curve.failed_indices == full.failed_indices == ()
        for sol, ref in zip(curve.solutions, full.solutions):
            assert sol.iterations == ref.iterations
            for x, y in ((sol.q, ref.q), (sol.q_tilde, ref.q_tilde)):
                assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


class TestEveryProductThroughThePanels:
    """The products with V outside the kernel, on band model B's envelope
    panels, against their dense forms."""

    @pytest.fixture(scope="class")
    def band(self):
        p = build_sampled(band_model_b, 400)
        assert solve_route(p) == "full" and len(_route(p).product[1]) > 1
        return p

    def test_curve_products_match_the_dense_products(self, band):
        config = SolverConfig(fixed_point_tol=1e-9, t_min=1e-8)
        curve = solve_curve(band, default_s_grid(math.sqrt(spectral_radius(band)), 8), config)
        V, rows, got = band.normalized, curve.rows, curve.products
        for x, want in ((got.vt_q, rows.q @ V), (got.v_qt, rows.q_tilde @ V.T)):
            assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
        w = np.einsum("ij,ij->i", rows.q, rows.q_tilde @ V.T)
        assert np.abs(got.w - w).max() <= 1e-13 * np.abs(w).max()

    def test_solve_at_zero_matches_the_dense_sinkhorn(self, band, monkeypatch):
        sol = solve_at_zero(band)
        f0, cross = density_at_zero(band)
        V = band.normalized
        want = float(np.sum(1.0 / ((V.T @ sol.q) * (V @ sol.q_tilde)))) / (math.pi * band.n)
        assert abs(cross - want) <= 1e-13 * want and abs(f0 - cross) <= 1e-8 * f0
        # one whole panel per operand: the products V^T q and V qt themselves
        monkeypatch.setattr(vps.mesolver, "_envelope", lambda M: ((0, len(M), 0, len(M)),))
        dense = solve_at_zero(band)
        assert dense.iterations == sol.iterations
        for x, y in ((sol.q, dense.q), (sol.q_tilde, dense.q_tilde)):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

    def test_panels_are_found_once_per_operand_of_the_route(self, monkeypatch):
        # the spectral radius, the kernel's layout, the endgame, the curve's
        # products and the density at zero all read the route's two
        # operands, each with the panels found once; the coarse start finds
        # those of its own two operands, on the 200 / COARSE groups
        seen = []

        def counted(M):
            seen.append(M)
            return _envelope(M)

        monkeypatch.setattr(vps.mesolver, "_envelope", counted)
        monkeypatch.setattr(vps.profiles, "_envelope", counted)
        p = build_sampled(band_model_b, 200)
        curve = solve_curve(p, config=SolverConfig(fixed_point_tol=1e-9, t_min=1e-8))
        curve.products
        density_at_zero(p, route=curve.route)
        groups = 200 // vps.mesolver.COARSE
        assert len(seen) == 4
        assert seen[0] is curve.route.operands[1] and seen[1] is curve.route.operands[0]
        assert [M.shape for M in seen[2:]] == [(groups, groups)] * 2
        assert len(curve.route.product[1]) > 1 and len(curve.route.product_T[1]) > 1


class TestComponentOrder:
    SIZES = (64, 96, 128)

    @pytest.fixture(scope="class")
    def direct_sum(self):
        """Three positive blocks, interleaved by a random symmetric
        permutation, and each block alone with its variances scaled by
        n_b / n, so that its normalized profile is the block of V."""
        rng = np.random.default_rng(29)
        n = sum(self.SIZES)
        a = np.zeros((n, n))
        blocks, start = [], 0
        for size, (lo, hi) in zip(self.SIZES, [(0.5, 2.0), (1.0, 3.0), (0.2, 1.0)]):
            blocks.append(slice(start, start + size))
            a[blocks[-1], blocks[-1]] = rng.uniform(lo, hi, (size, size))
            start += size
        perm = rng.permutation(n)
        parts = [validate_profile(a[b, b] * (b.stop - b.start) / n) for b in blocks]
        return validate_profile(a[np.ix_(perm, perm)]), perm, blocks, parts

    def test_layout_makes_v_block_diagonal(self, direct_sum):
        p, perm, blocks, _ = direct_sum
        (order, starts, sizes, _), (V, panels), (VT, _) = _layout(_identity(p.normalized))
        assert (order != np.arange(p.n)).any()
        assert sorted(sizes) == list(self.SIZES)
        assert list(starts) == [0, sizes[0], sizes[0] + sizes[1]]
        assert len(panels) > 1
        np.testing.assert_array_equal(V, p.normalized[np.ix_(order, order)])
        np.testing.assert_array_equal(VT, V.T)
        block_of = np.searchsorted([b.stop for b in blocks], perm, side="right")
        inside = np.zeros_like(V, dtype=bool)
        for start, size in zip(starts, sizes):
            inside[start:start + size, start:start + size] = True
            assert len(set(block_of[order[start:start + size]])) == 1
        assert (V[~inside] == 0).all() and (V[inside] > 0).all()

    def test_matches_each_block_alone(self, direct_sum):
        p, perm, blocks, parts = direct_sum
        edges = [math.sqrt(spectral_radius(part)) for part in parts]
        grid = min(edges) * np.array([0.2, 0.5, 0.8])
        curve = solve_curve(p, grid)
        assert curve.failed_indices == ()
        for b, part in zip(blocks, parts):
            members = np.flatnonzero((perm >= b.start) & (perm < b.stop))
            local = perm[members] - b.start
            for sol, ref in zip(curve.solutions, solve_curve(part, grid).solutions):
                for x, y in ((sol.q, ref.q), (sol.q_tilde, ref.q_tilde)):
                    assert np.abs(x[members] - y[local]).max() <= 1e-10 * np.abs(y).max()
                balance = sol.q[members].sum() - sol.q_tilde[members].sum()
                assert abs(balance) <= 1e-10 * sol.q[members].sum()

    def test_cdf_is_the_weighted_sum_of_the_blocks(self, direct_sum):
        p, perm, blocks, parts = direct_sum
        lo, mid, hi = sorted(math.sqrt(spectral_radius(part)) for part in parts)
        grid = np.concatenate([lo * np.linspace(0.1, 0.95, 4),
                               np.linspace(1.02 * lo, 0.98 * hi, 4), [1.1 * hi]])
        curve = solve_curve(p, grid)
        assert curve.failed_indices == ()
        for b in blocks:
            members = (perm >= b.start) & (perm < b.stop)
            for sol in curve.solutions:
                balance = sol.q[members].sum() - sol.q_tilde[members].sum()
                assert abs(balance) <= 1e-10 * max(sol.q[members].sum(), 1.0)
        F_blocks = sum((b.stop - b.start) / p.n * cdf(solve_curve(part, grid))
                       for b, part in zip(blocks, parts))
        assert np.abs(cdf(curve) - F_blocks).max() <= 1e-10


class TestCoarseStart:
    CONFIG = SolverConfig(fixed_point_tol=1e-9, t_min=1e-8)

    def test_a_permuted_band_keeps_its_curve(self):
        # groups of a randomly permuted band average unrelated indices, so
        # the coarse profile's spectral radius falls well below rho; the
        # radii past that coarse edge would start near zero and collapse
        # onto the trivial solution, F off by 0.06, unless the coarse
        # profile is scaled.  The default tolerance leaves the two starts'
        # curves within rounding of each other
        p = build_sampled(band_model_b, 200)
        perm = np.random.default_rng(3).permutation(p.n)
        permuted = validate_profile(p.variances[np.ix_(perm, perm)])
        assert len(_route(permuted).sizes) >= vps.mesolver.COARSE_MIN
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 30)
        curve, ref = solve_curve(permuted, grid), solve_curve(p, grid)
        assert curve.failed_indices == ref.failed_indices == ()
        assert np.abs(cdf(curve) - cdf(ref)).max() <= 1e-12

    def test_each_component_is_scaled_to_its_own_radius(self, monkeypatch):
        # a dense block with the larger rho beside a randomly permuted band:
        # the band's coarse edge lies well inside its own, so the radii
        # between would start the band near zero and collapse onto q = 0
        # (F off by 0.017) were its block scaled to the curve's rho
        band = build_sampled(band_model_b, 200).variances
        perm = np.random.default_rng(3).permutation(200)
        a = np.zeros((264, 264))
        a[:64, :64] = np.random.default_rng(5).uniform(2.5, 10.0, (64, 64))
        a[64:, 64:] = band[np.ix_(perm, perm)]
        p = validate_profile(a)
        assert len(_route(p).sizes) >= vps.mesolver.COARSE_MIN
        V = p.normalized[64:, 64:]
        E = np.repeat(np.eye(200 // vps.mesolver.COARSE), vps.mesolver.COARSE, axis=0)
        coarse_edge = math.sqrt(np.abs(np.linalg.eigvals(E.T @ V @ E / vps.mesolver.COARSE)).max())
        edge = math.sqrt(spectral_radius(V))
        assert spectral_radius(p) > edge ** 2
        grid = edge * np.linspace(0.05, 0.95, 19)
        assert (grid > coarse_edge).sum() >= 5
        curve = solve_curve(p, grid)
        monkeypatch.setattr(vps.mesolver, "COARSE_MIN", p.n + 1)
        ones = solve_curve(p, grid)
        assert curve.rows.at_zero.all() and ones.rows.at_zero.all()
        assert np.abs(cdf(curve) - cdf(ones)).max() <= 1e-12

    def test_every_radius_of_the_default_grid_is_accepted_at_zero(self):
        # from the coarse start radius 0 of the 200 stalled its endgame at
        # a residual of 1.76e-7, just above its bound, and went to t_min,
        # until a row that misses a 10% gain took the tight forcing
        p = build_sampled(band_model_b, 400)
        curve = solve_curve(p, config=self.CONFIG)
        np.testing.assert_array_equal(curve.rows.at_zero, curve.s_grid < math.sqrt(curve.rho))

    def test_the_loose_phase_takes_under_half_the_iterations(self, monkeypatch):
        p = build_sampled(band_model_b, 400)
        grid = default_s_grid(math.sqrt(spectral_radius(p)), 30)
        kernel = vps.mesolver._solve_rows

        def recorded(layout, s, t, config, start=None):
            rows = kernel(layout, s, t, config, start)
            if len(layout[0][0]) == p.n:   # the route's own kernel, not the coarse one
                loose.append(rows.iterations.sum())
            return rows

        monkeypatch.setattr(vps.mesolver, "_solve_rows", recorded)
        loose = []
        coarse = solve_curve(p, grid, self.CONFIG)
        monkeypatch.setattr(vps.mesolver, "COARSE_MIN", p.n + 1)
        ones = solve_curve(p, grid, self.CONFIG)
        assert len(loose) == 2 and loose[0] < loose[1] / 2
        inside = grid < math.sqrt(coarse.rho)
        np.testing.assert_array_equal(coarse.rows.at_zero, inside)
        np.testing.assert_array_equal(ones.rows.at_zero, inside)
        assert np.abs(cdf(coarse) - cdf(ones)).max() <= 1e-10

    def test_groups_stay_in_a_component_and_weigh_class_sizes(self, monkeypatch):
        # 20 pair classes of 2 to 4 indices in two components of 9 and 11
        # classes: the coarse operand is diag(N) Vbar over groups of
        # COARSE classes of one component, consecutive in the layout's
        # order, the size-weighted group means, each component's block
        # scaled to that component's rho
        rng = np.random.default_rng(41)
        sizes = rng.integers(2, 5, 20)
        label = rng.permutation(np.repeat(np.arange(20), sizes))
        Vbar = rng.uniform(0.5, 2.0, (20, 20))
        Vbar[:9, 9:] = Vbar[9:, :9] = 0.0
        p = validate_profile(Vbar[np.ix_(label, label)])
        route = _route(p)
        assert len(route.sizes) == 20 and (route.sizes > 1).all()
        kernel = vps.mesolver._solve_rows
        layouts = []

        def recorded(layout, s, t, config, start=None):
            layouts.append(layout)
            return kernel(layout, s, t, config, start)

        monkeypatch.setattr(vps.mesolver, "_solve_rows", recorded)
        monkeypatch.setattr(vps.mesolver, "COARSE_MIN", 1)
        grid = math.sqrt(spectral_radius(p)) * np.array([0.2, 0.5, 0.8])
        curve = solve_curve(p, grid)
        order, _, counts, _ = _layout(route)[0]
        assert sorted(counts) == [9, 11]
        n_k, V = route.sizes[order], route.V[np.ix_(order, order)]
        group = np.concatenate([2 * c + np.arange(count) // vps.mesolver.COARSE
                                for c, count in enumerate(counts)])   # 2 groups each
        E = (group[:, None] == np.unique(group)).astype(float) * n_k[:, None]
        N = E.sum(axis=0)
        Vbar = (E.T @ V @ E) / np.outer(N, N)
        fine, coarse = np.repeat(np.arange(2), counts), np.repeat(np.arange(2), 2)
        for c in range(2):   # each component's block to that component's rho
            rho = np.abs(np.linalg.eigvals((V * n_k)[np.ix_(fine == c, fine == c)])).max()
            block = np.ix_(coarse == c, coarse == c)
            Vbar[block] *= rho / np.abs(np.linalg.eigvals((Vbar * N)[block])).max()
        want = N[:, None] * Vbar
        (*_, trace), (A, _), _ = layouts[0]
        np.testing.assert_allclose(A, want, rtol=1e-9)
        np.testing.assert_array_equal(trace, N)
        monkeypatch.setattr(vps.mesolver, "COARSE_MIN", 21)
        ones = solve_curve(p, grid)
        assert curve.rows.at_zero.all() and ones.rows.at_zero.all()
        assert np.abs(cdf(curve) - cdf(ones)).max() <= 1e-12


def _aitken_row_reference(x, last, prev_norm):
    """The one-row Aitken step the vectorized `_aitken` replaced, with the
    gain r / (1 - r) of its jump before the positivity cap (0 without a
    jump)."""
    dx = x - last
    norm, jumped = np.abs(dx).max(), 0.0
    if 0.0 < norm < prev_norm:
        r = norm / prev_norm
        if r > 0.2:
            gain = raw = r / (1.0 - r)
            neg = dx < 0.0
            if neg.any():
                gain = min(gain, np.min(0.9 * x[neg] / -dx[neg]))
            if gain > 0.0:
                x += gain * dx
                norm, jumped = math.nan, raw
    last[:] = x
    return norm, jumped


class TestAitken:
    def assert_matches_rows(self, x, last, prev_norm):
        ref_x, ref_last = x.copy(), last.copy()
        ref_norm, ref_gain = zip(*(_aitken_row_reference(ref_x[g], ref_last[g], prev_norm[g])
                                   for g in range(len(x))))
        norm, gain = _aitken(x, last, prev_norm.copy(), np.empty_like(x), np.empty_like(x))
        np.testing.assert_array_equal(x, ref_x)
        np.testing.assert_array_equal(last, ref_last)
        np.testing.assert_array_equal(norm, ref_norm)
        np.testing.assert_array_equal(gain, ref_gain)
        return norm

    def test_crafted_rows(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0],    # first block: prev_norm NaN
                      [1.0, 1.0, 1.0, 1.0],    # ratio 0.1 <= 0.2
                      [0.1, 1.0, 1.0, 1.0],    # the positivity cap binds
                      [1.5, 1.0, 1.0, 1.0],    # no negative component
                      [0.7, 0.3, 0.2, 0.9],    # zero step
                      [1.0, 1.0, 1.0, 1.0],    # the norm grew
                      [0.0, 1.0, 1.0, 1.0]])   # a zero entry caps the gain at 0
        last = x.copy()
        last[0, 0] += 0.1
        last[1, 0] += 0.01
        last[2, 0] += 0.1
        last[3, 0] -= 0.1
        last[5, 1] += 0.2
        last[6, 0] += 0.1
        prev_norm = np.array([math.nan, 0.1, 0.11, 0.2, 0.3, 0.1, 0.12])
        x0 = x.copy()
        norm = self.assert_matches_rows(x, last, prev_norm)
        jumped = np.isnan(norm)
        assert list(jumped) == [False, False, True, True, False, False, False]
        assert x[2, 0] == pytest.approx(0.1 * x0[2, 0])  # x + gain dx = 0.1 x
        assert norm[4] == 0.0
        np.testing.assert_array_equal(x[~jumped], x0[~jumped])

    def test_random_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(0.0, 2.0, size=(7, 6))
            dx = rng.normal(size=(7, 6)) * rng.uniform(0.0, 0.5, size=(7, 1))
            dx[rng.random(7) < 0.15] = 0.0
            last = x - dx
            norm = np.abs(dx).max(axis=1)
            with np.errstate(divide="ignore"):
                prev_norm = norm / rng.uniform(0.0, 1.2, size=7)
            prev_norm[rng.random(7) < 0.2] = math.nan
            self.assert_matches_rows(x, last, prev_norm)
