"""Property tests of the master equations on small random profiles.

Profiles are n x n with n <= 12 and entries in [0.1, 2], so every one is
positive and its measure fills the disc of radius sqrt(rho).  Grids hold at
most six radii, given as fractions of the support radius; fractions within
5% of 1 are left out except 1 itself, since there the computed rho of two
equivalent profiles can round to opposite sides of a radius.  The block
profiles of the row-class property are sparser: n <= 24, at most five
distinct rows, zero blocks, zero rows and zero columns.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vps.core import RankDeficientError, validate_profile
from vps.measures import cdf
from vps.mesolver import derivative_s2, solve_curve
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
    """A profile with at most five row types and four column groups, each
    block zero or constant, symmetrically permuted, and radii inside the
    support as fractions of its radius."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2 * k, 24))
    groups = draw(st.integers(1, 4))
    values = draw(arrays(float, (k, groups),
                         elements=st.one_of(st.just(0.0), st.floats(0.1, 2.0))))
    rows = draw(arrays(int, n, elements=st.integers(0, k - 1)))
    cols = draw(arrays(int, n, elements=st.integers(0, groups - 1)))
    perm = np.array(draw(st.permutations(range(n))))
    fractions = draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True))
    return values[rows][:, cols][np.ix_(perm, perm)], np.unique(fractions)


def _without_classes(a):
    """The profile of a, with its row classes and SVD factors forced to
    None, so the kernel reads its panels and the derivative runs the
    dense LU."""
    p = validate_profile(a)
    vars(p)["row_classes"] = vars(p)["low_rank_factors"] = None
    return p


@PROPERTY
@given(block_profiles())
def test_row_classes_give_the_dense_curve_and_derivative(case):
    a, fractions = case
    assume(a.any())
    p = validate_profile(a)
    assume(p.row_classes is not None and spectral_radius(p) > 0.0)
    dense = _without_classes(a)
    grid = math.sqrt(spectral_radius(p)) * fractions
    curve, ref = solve_curve(p, grid), solve_curve(dense, grid)
    assert curve.failed_indices == ref.failed_indices
    assert np.abs(cdf(curve) - cdf(ref)).max() <= 1e-12
    for sol in curve.solutions:
        if sol.is_trivial:
            continue
        try:
            want = np.concatenate(derivative_s2(dense, sol))
        except RankDeficientError:
            continue
        got = np.concatenate(derivative_s2(p, sol))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
