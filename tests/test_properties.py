"""Property tests of the master equations on small random profiles.

Profiles are n x n with n <= 12 and entries in [0.1, 2], so every one is
positive and its measure fills the disc of radius sqrt(rho).  Grids hold at
most six radii, given as fractions of the support radius; fractions within
5% of 1 are left out except 1 itself, since there the computed rho of two
equivalent profiles can round to opposite sides of a radius.  The block
profiles of the pair-class property are sparser: n <= 24, at most five
pair classes of any sizes, zero blocks, zero rows and zero columns.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vps.core import RankDeficientError, validate_profile
from vps.measures import cdf
from vps.mesolver import derivative_s2, solve_curve, solve_route
from vps.profiles import spectral_radius

PROPERTY = settings(max_examples=12, deadline=2000, derandomize=True)


@st.composite
def grids(draw):
    n = draw(st.integers(2, 12))
    a = draw(arrays(float, (n, n), elements=st.floats(0.1, 2.0)))
    inside = st.floats(0.05, 0.95)
    outside = st.one_of(st.just(1.0), st.floats(1.05, 1.6))
    fractions = draw(st.lists(st.one_of(inside, outside), min_size=1, max_size=6,
                              unique=True))
    return a, np.unique(fractions)


def off_edge(fractions):
    """The fractions without 1 itself, for comparing two profiles whose
    computed support radii may round apart."""
    return fractions[fractions != 1.0]


def solve(a, fractions):
    p = validate_profile(a)
    return solve_curve(p, math.sqrt(spectral_radius(p)) * fractions)


def raw_F(curve):
    V, n = curve.profile.normalized, curve.profile.n
    return np.array([1.0 - sol.q @ (V @ sol.q_tilde) / n for sol in curve.solutions])


@PROPERTY
@given(grids())
def test_trace_balance_monotone_F_and_exact_zeros_past_the_edge(case):
    a, fractions = case
    curve = solve(a, fractions)
    n, edge = len(a), math.sqrt(curve.rho)
    assert curve.failed_indices == ()
    for s, sol in zip(curve.s_grid, curve.solutions):
        assert abs(sol.q.sum() - sol.q_tilde.sum()) / n <= 1e-10
        if s >= edge:
            assert sol.is_trivial
            assert sol.iterations == 0 and sol.residual == 0.0
        else:
            assert sol.q.min() > 0.0 and sol.q_tilde.min() > 0.0
    F = raw_F(curve)
    assert np.all(np.diff(F) >= -1e-10)
    assert np.all(cdf(curve)[curve.s_grid >= edge] == 1.0)


@PROPERTY
@given(grids())
def test_symmetric_profile_has_q_equal_q_tilde(case):
    a, fractions = case
    curve = solve((a + a.T) / 2, fractions)
    for sol in curve.solutions:
        assert np.abs(sol.q - sol.q_tilde).max() <= 1e-9 * max(1.0, sol.q.max())


@PROPERTY
@given(grids(), st.data())
def test_permutation_equivariance(case, data):
    a, fractions = case[0], off_edge(case[1])
    if len(fractions) == 0:
        return
    perm = np.array(data.draw(st.permutations(range(len(a)))))
    curve = solve(a, fractions)
    permuted = solve(a[np.ix_(perm, perm)], fractions)
    assert np.allclose(raw_F(curve), raw_F(permuted), rtol=0.0, atol=1e-9)
    for sol, sol_p in zip(curve.solutions, permuted.solutions):
        assert np.allclose(sol.q[perm], sol_p.q, rtol=0.0, atol=1e-8)
        assert np.allclose(sol.q_tilde[perm], sol_p.q_tilde, rtol=0.0, atol=1e-8)


@PROPERTY
@given(grids(), st.floats(0.25, 4.0))
def test_scaling_maps_F_s_to_F_s_over_root_c(case, c):
    # V -> cV solves with q -> q / sqrt(c) at s -> sqrt(c) s, so F(s) -> F(s / sqrt(c))
    a, fractions = case[0], off_edge(case[1])
    if len(fractions) == 0:
        return
    curve = solve(a, fractions)
    scaled = solve(c * a, fractions)
    assert np.allclose(scaled.s_grid, math.sqrt(c) * curve.s_grid, rtol=1e-9)
    assert ([sol.is_trivial for sol in scaled.solutions]
            == [sol.is_trivial for sol in curve.solutions])
    assert np.allclose(raw_F(scaled), raw_F(curve), rtol=0.0, atol=1e-7)


@st.composite
def block_profiles(draw):
    """A profile of at most five pair classes of random sizes, interleaved
    at random, each block zero or constant, and radii inside the support
    as fractions of its radius."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2 * k, 24))
    values = draw(arrays(float, (k, k),
                         elements=st.one_of(st.just(0.0), st.floats(0.1, 2.0))))
    label = draw(arrays(int, n, elements=st.integers(0, k - 1)))
    fractions = draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True))
    return values[label][:, label], np.unique(fractions)


def _classes(values, sizes, seed):
    """The block profile of `values` with classes of the given sizes,
    interleaved by a seeded permutation, at three radii."""
    label = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    return np.array(values, dtype=float)[label][:, label], np.array([0.2, 0.6, 0.9])


UNEQUAL_SIZES = _classes([[0.5, 1.5], [1.0, 0.2]], [3, 13], 1)
ZERO_ROW_AND_COLUMN = _classes([[1.0, 2.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]],
                               [5, 4, 3], 2)
DIRECT_SUM = _classes([[1.0, 0.5, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 1.5], [0.0, 0.0, 0.7, 0.4]], [4, 3, 5, 6], 3)
# two classes whose rows, and whose columns, have exactly equal sums
EQUAL_SUMS = _classes([[2.0, 1.0], [1.0, 2.0]], [8, 8], 4)


@pytest.mark.usefixtures("rank_one_off")
@PROPERTY
@given(case=block_profiles())
@example(case=UNEQUAL_SIZES)
@example(case=ZERO_ROW_AND_COLUMN)
@example(case=DIRECT_SUM)
@example(case=EQUAL_SUMS)
def test_row_classes_give_the_dense_curve_and_derivative(case, full_n):
    # the pair-class quotient against all n indices, with the dense LU.  A
    # rank-one draw (one class, or ZERO_ROW_AND_COLUMN) is held to the
    # kernel on both sides by `rank_one_off`.  Hypothesis seeds the
    # derandomized draws from this function's source less its decorators
    # and comments, and also from the numeric literals of every local
    # module.  On patterns without total support the two sides agree
    # because a row whose Aitken gain passes `mesolver.STALL_GAIN` is handed
    # to Newton
    a, fractions = case
    # rho > 0 iff the pattern has a cycle, that is, a nonzero n-th power
    assume(np.linalg.matrix_power(a != 0, len(a)).any())
    p, full = validate_profile(a), validate_profile(a)
    assert solve_route(p).startswith("quotient")
    assert full_n(full) == "full"
    grid = math.sqrt(spectral_radius(p)) * fractions
    curve, ref = solve_curve(p, grid), solve_curve(full, grid)
    assert curve.failed_indices == ref.failed_indices
    for sol, sol_ref in zip(curve.solutions, ref.solutions):
        assert abs(sol.iterations - sol_ref.iterations) <= 1
    assert np.abs(cdf(curve) - cdf(ref)).max() <= 1e-12
    for sol in curve.solutions:
        if sol.is_trivial:
            continue
        try:
            want = np.concatenate(derivative_s2(full, sol))
        except RankDeficientError:
            continue
        got = np.concatenate(derivative_s2(p, sol))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
