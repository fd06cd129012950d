import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from test_mesolver import _two_block_profile, band_model_b

from vps.core import NoConvergenceError, validate_profile
from vps.mesolver import solve_curve
from vps.profiles import (
    FLOOR,
    ONE_THREAD,
    BadPartitionError,
    LengthMismatchError,
    NegativeFunctionValueError,
    NonPositiveEntryError,
    _acyclic,
    _envelope,
    _one_thread,
    _product,
    _scc,
    _total_support,
    build_block_atom,
    build_sampled,
    build_separable,
    circular_law_test,
    cyclic_classes,
    is_block_fully_indecomposable,
    is_fully_indecomposable,
    is_irreducible,
    sinkhorn_scale,
    spectral_radius,
)


class TestConstructors:
    def test_sampled_evaluates_on_grid(self):
        p = build_sampled(lambda x, y: x + y, 4)
        assert p.variances[0, 0] == pytest.approx(0.5)   # (1/4 + 1/4)
        assert p.variances[3, 3] == pytest.approx(2.0)

    def test_sampled_rejects_negative_function(self):
        with pytest.raises(NegativeFunctionValueError):
            build_sampled(lambda x, y: x - y, 4)

    def test_separable_outer_product(self):
        p, sep = build_separable([1.0, 2.0], [3.0, 1.0])
        assert np.allclose(p.variances, [[3.0, 1.0], [6.0, 2.0]])
        assert sep.rho == pytest.approx(2.5)   # mean of (1*3, 2*1)

    def test_separable_rejects_mismatch(self):
        with pytest.raises(LengthMismatchError):
            build_separable([1.0, 2.0], [1.0])

    def test_separable_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEntryError):
            build_separable([1.0, 0.0], [1.0, 1.0])

    def test_block_atom_structure(self):
        p = build_block_atom(3, 2)
        a = p.variances
        assert a.shape == (6, 6)
        assert np.all(a[:2, 2:] == 1.0)
        assert np.all(a[2:, :2] == 1.0)
        assert np.all(a[:2, :2] == 0.0)
        assert np.all(a[2:, 2:] == 0.0)


class TestSpectralRadius:
    def test_constant_profile(self):
        p = validate_profile(np.ones((32, 32)))
        assert spectral_radius(p) == pytest.approx(1.0, abs=1e-9)

    def test_scaled_constant(self):
        p = validate_profile(4.0 * np.ones((16, 16)))
        assert spectral_radius(p) == pytest.approx(4.0, abs=1e-9)

    def test_block_atom_closed_form(self):
        for k in (2, 3, 5):
            p = build_block_atom(k, 10)
            assert spectral_radius(p) == pytest.approx(math.sqrt(k - 1) / k,
                                                       abs=1e-8)

    def test_separable_mean_product(self):
        d = np.array([1.0, 2.0, 0.5, 1.5])
        dt = np.array([2.0, 1.0, 1.0, 3.0])
        p, sep = build_separable(d, dt)
        assert spectral_radius(p) == pytest.approx(sep.rho, abs=1e-9)

    def test_periodic_pattern_converges(self):
        # 2x2 permutation support has period-2 digraph; the shifted
        # iteration must still converge
        p = validate_profile(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert spectral_radius(p) == pytest.approx(0.5, abs=1e-9)


    @pytest.mark.parametrize("family", ["circ", "block-atom", "band"])
    def test_matches_two_matvec_power_iteration(self, family):
        if family == "circ":
            d = np.random.default_rng(1).uniform(0.5, 2.0, size=64)
            p = validate_profile(d[None, :] / d[:, None])
        elif family == "block-atom":
            perm = np.random.default_rng(1).permutation(300)
            p = validate_profile(build_block_atom(3, 100).variances[np.ix_(perm, perm)])
        else:
            p = build_sampled(lambda x, y: (x + 2 * y) ** 2 if abs(x - y) <= 0.1 else 0.0, 200)
        V = p.normalized
        assert spectral_radius(V) == _two_matvec_spectral_radius(V)
        # the block atom has pair classes and is read on its quotient
        # (TestQuotientSpectralRadius); the others on all of V
        if p.pair_classes is None:
            assert spectral_radius(p) == spectral_radius(V)

    def test_nilpotent_pattern_is_exactly_zero(self):
        # a star of edges out of node 0: no cycle, so rho = 0, where the
        # power iteration crept to 9e-6 in 0.8 s
        V = np.zeros((10, 10))
        V[0, 1:] = 1.0
        start = time.perf_counter()
        assert spectral_radius(V) == 0.0
        assert time.perf_counter() - start < 0.2
        # the acyclic test against nilpotency (adj^n = 0) on seeded random
        # patterns without self-loops, half of them DAGs
        rng = np.random.default_rng(25)
        for trial in range(2000):
            n = int(rng.integers(1, 12))
            adj = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            if trial % 2:
                perm = rng.permutation(n)
                adj = np.triu(adj, 1)[np.ix_(perm, perm)]
            np.fill_diagonal(adj, False)
            nilpotent = not np.linalg.matrix_power(adj.astype(np.int64), n).any()
            assert _acyclic(adj) == nilpotent

    def test_triangular_pattern_is_its_largest_diagonal_entry(self):
        # np.triu(ones) is one Jordan block, on which the power iteration
        # raised NoConvergenceError
        assert spectral_radius(validate_profile(np.triu(np.ones((7, 7))))) == 1 / 7
        rng = np.random.default_rng(24)
        upper = np.triu(rng.uniform(0.5, 2.0, size=(9, 9)))
        perm = rng.permutation(9)
        V = upper[np.ix_(perm, perm)]
        assert spectral_radius(V) == V.diagonal().max()

    def test_cycle_keeps_the_power_iteration(self):
        # one 2-cycle below a triangular part: the iteration runs on all of V
        V = np.triu(np.ones((6, 6)))
        V[5, 4] = 1.0
        assert spectral_radius(V) == _two_matvec_spectral_radius(V)
        assert spectral_radius(V) == pytest.approx(2.0, rel=1e-6)

    def test_band_reads_its_envelope_panels(self):
        # W x is x W^T: on band model B at n = 800 that is 13 panel
        # products, each reading the rows of a panel's nonzeros
        V = build_sampled(band_model_b, 800).normalized
        panels = _envelope(V.T)
        assert len(panels) == 13 and all(hi - lo < 800 for lo, hi, _, _ in panels)
        rho, want = spectral_radius(V), _two_matvec_spectral_radius(V)
        assert abs(rho - want) <= 1e-13 * want
        assert spectral_radius(V, operand=(V.T, panels)) == rho


def _block_profile(Vbar, sizes, seed):
    """The profile with sizes[c] indices in class c and the value Vbar[c, d]
    on every entry of a class-c row in a class-d column, the indices in a
    seeded order."""
    label = np.repeat(np.arange(len(sizes)), sizes)
    label = label[np.random.default_rng(seed).permutation(len(label))]
    return validate_profile(np.asarray(Vbar, dtype=float)[np.ix_(label, label)])


def _quotient_cases():
    rng = np.random.default_rng(27)
    Vbar = rng.uniform(0.5, 2.0, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.6)
    np.fill_diagonal(Vbar, 1.0)   # a self-loop in every class: aperiodic
    return {
        "periodic": ([[0.0, 1.0], [1.0, 0.0]], [100, 200]),   # the block atom, k = 3
        "aperiodic": (Vbar, rng.integers(5, 40, size=5)),
        "acyclic": ([[0.0, 1.0], [0.0, 1.0]], [20, 30]),      # class 1 loops
        "constant": ([[1.0]], [48]),
    }


class TestQuotientSpectralRadius:
    """A profile with pair classes is read on W = Vbar diag(sizes)."""

    @pytest.mark.parametrize("case", ["periodic", "aperiodic", "acyclic", "constant"])
    def test_matches_the_iteration_on_v(self, case):
        Vbar, sizes = _quotient_cases()[case]
        p = _block_profile(Vbar, sizes, 28)
        _, got_sizes, got_Vbar = p.pair_classes
        assert len(got_sizes) == len(sizes)
        rho, full = spectral_radius(p), spectral_radius(p.normalized)
        assert abs(rho - full) <= 1e-14 * full
        if case in ("acyclic", "constant"):
            # W is triangular up to a permutation: its largest diagonal
            # entry, exactly
            assert rho == (got_Vbar * got_sizes).diagonal().max()
        if case == "periodic":
            assert rho == pytest.approx(math.sqrt(2) / 3, rel=1e-12)

    def test_equal_diagonal_blocks_are_exact(self):
        # W = [[0.75, *], [0, 0.75]] is one Jordan block: the iteration on
        # V stops 2.7e-5 off, the quotient reads the diagonal exactly
        p = _block_profile([[1.0, 2.0], [0.0, 3.0]], [30, 10], 29)
        _, sizes, Vbar = p.pair_classes
        assert spectral_radius(p) == (Vbar * sizes).diagonal().max()
        assert spectral_radius(p) == pytest.approx(0.75, rel=1e-15)

    def test_no_n_by_n_temporary(self):
        perm = np.random.default_rng(30).permutation(600)
        p = validate_profile(build_block_atom(3, 200).variances[np.ix_(perm, perm)])
        p.pair_classes   # formed, with V, before the trace
        tracemalloc.start()
        try:
            spectral_radius(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 600 * 600 // 8   # an n x n boolean pattern alone is n^2 bytes


def _two_matvec_spectral_radius(V, tol=1e-10, max_iters=100_000):
    """The power iteration that `spectral_radius` replaced, which took the
    Rayleigh product and the next step as two separate matvecs."""
    n = V.shape[0]
    shift = float(np.max(V.sum(axis=1)))
    x = np.ones(n)
    lam_prev = None
    for _ in range(max_iters):
        y = V @ x + shift * x
        norm = np.linalg.norm(y)
        x = y / norm
        lam = float(x @ (V @ x + shift * x))
        if lam_prev is not None and abs(lam - lam_prev) <= tol * abs(lam):
            return lam - shift
        lam_prev = lam
    raise NoConvergenceError("power iteration did not converge")


class TestIrreducibility:
    def test_positive_profile_irreducible(self):
        assert is_irreducible(validate_profile(np.ones((5, 5))))

    def test_block_diagonal_reducible(self):
        grid = np.zeros((4, 4))
        grid[:2, :2] = 1.0
        grid[2:, 2:] = 1.0
        assert not is_irreducible(validate_profile(grid))

    def test_triangular_reducible(self):
        assert not is_irreducible(validate_profile(np.triu(np.ones((4, 4)))))

    def test_block_atom_irreducible(self):
        assert is_irreducible(build_block_atom(3, 4))


class TestCyclicClasses:
    def test_block_atom_has_period_two(self):
        # the first block row and the rest alternate
        classes = cyclic_classes(build_block_atom(3, 4).variances)
        np.testing.assert_array_equal(classes, [0] * 4 + [1] * 8)

    def test_self_loop_makes_it_aperiodic(self):
        pattern = build_block_atom(3, 4).variances.copy()
        pattern[5, 5] = 1.0
        np.testing.assert_array_equal(cyclic_classes(pattern), np.zeros(12))

    def test_reducible_pattern_has_none(self):
        assert cyclic_classes(np.triu(np.ones((4, 4)))) is None


def closure_components(adj):
    """Reference: i and j share a strongly connected component iff each
    reaches the other, read off the reflexive transitive closure (Warshall)."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, [k]] & reach[[k], :]
    return reach & reach.T


def block_triangular(sizes, rng, density=0.6):
    """Random diagonal blocks of the given sizes, with sparse edges below
    them, so each component lies inside one block."""
    n = int(sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    inside = block[:, None] == block
    return (inside & (rng.uniform(size=(n, n)) < density)) | (
        (block[:, None] > block) & (rng.uniform(size=(n, n)) < 0.1))


class TestScc:
    def test_matches_transitive_closure(self):
        rng = np.random.default_rng(21)
        kinds = set()
        for trial in range(400):
            n = int(rng.integers(1, 41))
            kind = ("sparse", "block-triangular", "permuted")[trial % 3]
            if kind == "sparse":
                adj = rng.uniform(size=(n, n)) < rng.choice([0.02, 0.05, 0.1, 0.2])
            else:
                adj = block_triangular(rng.multinomial(n, np.ones(4) / 4), rng)
                if kind == "permuted":
                    perm = rng.permutation(n)
                    adj = adj[np.ix_(perm, perm)]
            loops = rng.uniform() < 0.5
            np.fill_diagonal(adj, loops & (rng.uniform(size=n) < 0.5))
            kinds.add((kind, loops))
            label = _scc(adj)
            assert set(label) == set(range(label.max() + 1))
            np.testing.assert_array_equal(label[:, None] == label, closure_components(adj))
        assert len(kinds) == 6

    @pytest.mark.parametrize("name, count", [
        ("lower-triangular", 2000), ("diagonal", 2000), ("50 blocks", 50),
        ("50 blocks, permuted", 50)])
    def test_large_patterns(self, name, count):
        n = 2000
        if name == "lower-triangular":
            adj = np.tril(np.ones((n, n), dtype=bool))
        elif name == "diagonal":
            adj = np.eye(n, dtype=bool)
        else:
            adj = block_triangular([40] * 50, np.random.default_rng(22))
            if name.endswith("permuted"):
                perm = np.random.default_rng(23).permutation(n)
                adj = adj[np.ix_(perm, perm)]
        start = time.perf_counter()
        label = _scc(adj)
        assert time.perf_counter() - start < 2.0
        assert label.max() + 1 == count

    def test_triangular_has_no_total_support(self):
        assert _total_support(np.tril(np.ones((2000, 2000)))) is None

    def test_positive_pattern_is_one_component(self):
        for n in (1, 2, 7, 300):
            label = _scc(np.ones((n, n), dtype=bool))
            assert label.dtype == np.int_       # the dtype of every other labelling
            np.testing.assert_array_equal(label, np.zeros(n))


def brute_total_support(t) -> bool:
    """Reference: a perfect matching exists and every nonzero of t lies on
    one, read off all n! permutations."""
    n = len(t)
    perms = np.array(list(itertools.permutations(range(n))))
    on = t[np.arange(n), perms].all(axis=1)
    covered = np.zeros_like(t)
    covered[np.broadcast_to(np.arange(n), perms[on].shape), perms[on]] = True
    return bool(on.any()) and bool((covered == t).all())


def zero_matching(t):
    """A permutation p with t[i, p[i]] == 0 for every row i, by augmenting
    paths on the zeros of t, or None when there is none."""
    n = len(t)
    row_of = [-1] * n

    def augment(i, seen):
        for j in np.flatnonzero(~t[i]):
            if not seen[j]:
                seen[j] = True
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    if not all(augment(i, [False] * n) for i in range(n)):
        return None
    p = np.empty(n, dtype=int)
    p[row_of] = np.arange(n)
    return p


def small_pattern(kind, rng):
    """A square 0/1 pattern of n <= 16 of one of the kinds below."""
    n = int(rng.integers(2, 17))
    t = rng.uniform(size=(n, n)) < rng.choice([0.15, 0.3, 0.45])
    if kind == "zero rows":
        t[rng.permutation(n)[:int(rng.integers(1, 3))]] = False
    elif kind == "partial diagonal":
        t[np.diag_indices(n)] |= rng.uniform(size=n) < 0.6
    elif kind == "zero-free diagonal":
        t |= np.eye(n, dtype=bool)
    elif kind == "permuted direct sum":
        sizes = rng.multinomial(n, np.ones(3) / 3)
        block = np.repeat(np.arange(3), sizes)
        t = (block[:, None] == block) & (rng.uniform(size=(n, n)) < 0.5)
        t |= np.eye(n, dtype=bool)
        t = t[np.ix_(rng.permutation(n), rng.permutation(n))]
    return t


class TestTotalSupport:
    def test_matches_permutation_search(self):
        rng = np.random.default_rng(25)
        verdicts = set()
        for trial in range(400):
            n = int(rng.integers(1, 8))
            t = rng.uniform(size=(n, n)) < rng.choice([0.2, 0.4, 0.6, 0.8])
            if trial % 2:
                t[np.diag_indices(n)] |= rng.uniform(size=n) < 0.7
            expected = brute_total_support(t)
            assert (_total_support(t) is not None) == expected, t.astype(int)
            verdicts.add((bool(t.diagonal().all()), expected))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("kind", ["sparse", "zero rows", "partial diagonal",
                                      "zero-free diagonal", "permuted direct sum"])
    def test_blocks_do_not_depend_on_the_matching(self, kind):
        # permuting the columns (or the rows) so the diagonal holds no
        # nonzero makes the search start from an empty matching and end at
        # another perfect matching: the blocks stay, with their labels
        rng = np.random.default_rng(26)
        checked = supported = 0
        while checked < 60:
            t = small_pattern(kind, rng)
            p = zero_matching(t)
            if p is None:
                continue
            checked += 1
            ours = _total_support(t)
            by_cols = _total_support(t[:, p])
            sigma = np.argsort(p)           # t[sigma[i], i] == 0
            by_rows = _total_support(t[sigma])
            assert (ours is None) == (by_cols is None) == (by_rows is None)
            if ours is None:
                continue
            supported += 1
            (match, block), (match_c, block_c), (match_r, block_r) = ours, by_cols, by_rows
            np.testing.assert_array_equal(block_c, block)
            col_block = np.empty_like(block)
            col_block[match] = block
            col_block_c = np.empty_like(block)
            col_block_c[match_c] = block_c
            np.testing.assert_array_equal(col_block_c, col_block[p])
            np.testing.assert_array_equal(block_r[:, None] == block_r,
                                          block[sigma][:, None] == block[sigma])
            col_block_r = np.empty_like(block)
            col_block_r[match_r] = block_r
            np.testing.assert_array_equal(col_block_r[:, None] == col_block_r,
                                          col_block[:, None] == col_block)
        assert supported >= (0 if kind == "zero rows" else 5)

    def test_pins_the_match_and_the_blocks(self):
        # one component returns before the test of edges between
        # components, which cannot fire; (match, block) stay those of the
        # full test
        t = _two_block_profile().variances > 0
        match, block = _total_support(t)
        assert match.tolist() == [16, 13, 2, 3, 19, 18, 6, 12, 17, 15,
                                  14, 11, 7, 1, 10, 9, 0, 8, 5, 4]
        assert block.tolist() == [0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0]
        i = np.arange(7)
        t = np.zeros((7, 7), dtype=bool)
        t[i, (i + 1) % 7] = t[i, (i + 3) % 7] = True   # a zero diagonal: the search runs
        match, block = _total_support(t)
        assert match.tolist() == [3, 4, 5, 6, 0, 1, 2]
        assert block.tolist() == [0] * 7
        rng = np.random.default_rng(31)
        for kind in ("sparse", "partial diagonal", "zero-free diagonal", "permuted direct sum"):
            for _ in range(40):
                t = small_pattern(kind, rng)
                structure = _total_support(t)
                if structure is None:
                    continue
                match, block = structure
                assert t[np.arange(len(t)), match].all()
                np.testing.assert_array_equal(np.sort(match), np.arange(len(t)))
                np.testing.assert_array_equal(block, _scc(t[:, match]))
                assert not (t[:, match] & (block[:, None] != block)).any()

    def test_positive_pattern_needs_no_search(self):
        # the diagonal is a perfect matching at once
        start = time.perf_counter()
        match, block = _total_support(np.ones((2000, 2000)))
        assert time.perf_counter() - start < 0.5
        np.testing.assert_array_equal(match, np.arange(2000))
        assert not block.any()


class TestFullyIndecomposable:
    def test_all_ones(self):
        assert is_fully_indecomposable(np.ones((5, 5)))

    def test_identity_fails(self):
        # I = rows {0}, J = zero columns of that row: |I| + |J| = 1 + (K-1)
        assert not is_fully_indecomposable(np.eye(4))

    def test_single_zero_entry_ok(self):
        t = np.ones((4, 4))
        t[1, 2] = 0.0
        assert is_fully_indecomposable(t)

    def test_permutation_fails(self):
        assert not is_fully_indecomposable(np.roll(np.eye(5), 1, axis=1))

    def test_circulant_with_two_bands_passes(self):
        t = np.eye(5) + np.roll(np.eye(5), 1, axis=1)
        assert is_fully_indecomposable(t)

    def test_one_by_one(self):
        assert is_fully_indecomposable(np.array([[1.0]]))
        assert not is_fully_indecomposable(np.array([[0.0]]))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(20)
        verdicts = set()
        for _ in range(300):
            K = int(rng.integers(1, 11))
            density = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
            t = rng.uniform(size=(K, K)) < density
            if rng.uniform() < 0.5:
                t |= np.eye(K, dtype=bool)   # a perfect matching, as in most profiles
            expected = exhaustive_fully_indecomposable(t)
            assert is_fully_indecomposable(t) == expected, t.astype(int)
            verdicts.add((K == 1, expected))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_large_block_atom_fails(self):
        assert not is_fully_indecomposable(build_block_atom(3, 667).variances)

    def test_large_band_passes(self):
        p = build_sampled(lambda x, y: 1.0 if abs(x - y) <= 0.1 else 0.0, 800)
        assert is_fully_indecomposable(p.variances)


def exhaustive_fully_indecomposable(pattern) -> bool:
    """Reference: the pattern fails iff some nonempty row subset I has a
    nonempty set J of columns that vanish on all of I with |I| + |J| >= K.
    Enumerates all 2^K row subsets."""
    t = np.asarray(pattern) != 0
    K = t.shape[0]
    if t.all():
        return True
    # bitmask of rows carrying a nonzero in column j
    col_masks = [int(sum(1 << i for i in np.flatnonzero(t[:, j]))) for j in range(K)]
    for rows in range(1, 1 << K):
        # columns with no support inside the row subset
        zero_cols = sum(1 for m in col_masks if (m & rows) == 0)
        if zero_cols >= 1 and bin(rows).count("1") + zero_cols >= K:
            return False
    return True


class TestBlockFullyIndecomposable:
    def test_positive_profile(self):
        p = validate_profile(np.ones((20, 20)))
        assert is_block_fully_indecomposable(p, 4, 1.0)

    def test_bad_partition(self):
        p = validate_profile(np.ones((10, 10)))
        with pytest.raises(BadPartitionError):
            is_block_fully_indecomposable(p, 3, 1.0)

    def test_block_atom_fails(self):
        p = build_block_atom(3, 4)
        assert not is_block_fully_indecomposable(p, 3, 1.0)

    def test_band_profile_narrow_band_fails(self):
        # bandwidth 1/20 with K=20 blocks: adjacent blocks contain index
        # pairs farther apart than the band, so off-diagonal block minima
        # vanish and the induced pattern is the identity
        p = build_sampled(lambda x, y: 1.0 if abs(x - y) <= 1 / 20 else 0.0, 100)
        assert not is_block_fully_indecomposable(p, 20, 1.0)

    def test_one_zero_block_still_passes(self):
        grid = np.ones((6, 6))
        grid[:2, :2] = 0.0
        p = validate_profile(grid)
        assert is_block_fully_indecomposable(p, 3, 1.0)

    def test_threshold_sensitivity(self):
        p = validate_profile(np.full((8, 8), 0.5))
        assert is_block_fully_indecomposable(p, 2, 0.4)
        assert not is_block_fully_indecomposable(p, 2, 0.6)


class TestSinkhorn:
    def test_scales_to_doubly_stochastic(self):
        rng = np.random.default_rng(3)
        p = validate_profile(rng.uniform(0.5, 2.0, size=(12, 12)))
        res = sinkhorn_scale(p)
        assert np.allclose(res.scaled.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(res.scaled.sum(axis=1), 1.0, atol=1e-9)

    def test_gauge_geometric_means_match(self):
        rng = np.random.default_rng(4)
        p = validate_profile(rng.uniform(0.5, 2.0, size=(9, 9)))
        res = sinkhorn_scale(p)
        assert np.mean(np.log(res.d1)) == pytest.approx(np.mean(np.log(res.d2)),
                                                        abs=1e-9)

    def test_two_frobenius_blocks(self):
        res = sinkhorn_scale(_two_block_profile())
        assert np.abs(res.scaled.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(res.scaled.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.mean(np.log(res.d1)) == pytest.approx(np.mean(np.log(res.d2)),
                                                        abs=1e-9)

    def test_refuses_without_total_support(self):
        # upper-triangular ones have a perfect matching (the diagonal) but
        # no other, so no positive scaling exists
        p = validate_profile(np.triu(np.ones((10, 10))))
        with pytest.raises(NoConvergenceError, match="total support"):
            sinkhorn_scale(p)

    def test_already_balanced_identity_factors(self):
        p = validate_profile(np.ones((6, 6)))
        res = sinkhorn_scale(p)
        assert np.allclose(res.d1 * res.d2 * (1.0 / 6.0), res.scaled[0, 0])


def test_nilpotent_profile_needs_a_grid():
    grid = np.zeros((10, 10))
    grid[0, 1:] = 1.0
    p = validate_profile(grid)
    with pytest.raises(ValueError, match="unit atom at zero.*a grid must be given"):
        solve_curve(p)
    curve = solve_curve(p, [0.1, 0.2])
    assert curve.rho == 0.0 and not curve.rows.q.any()


class TestCircularLawTest:
    def test_constant_profile_is_circular(self):
        p = validate_profile(np.ones((12, 12)))
        flag, diag = circular_law_test(p)
        assert flag
        assert diag["f0_pi_rho"] == pytest.approx(1.0, abs=1e-6)
        assert diag["density_at_zero"] == pytest.approx(1 / math.pi, abs=1e-8)

    def test_diagonal_conjugation_stays_circular(self):
        rng = np.random.default_rng(11)
        n = 16
        dvec = rng.uniform(0.5, 2.0, size=n)
        # V = D^{-1} S D with S doubly stochastic keeps the circular law
        S = np.ones((n, n)) / n
        V = (1.0 / dvec)[:, None] * S * dvec[None, :]
        p = validate_profile(V * n)
        flag, diag = circular_law_test(p)
        assert flag
        assert diag["f0_pi_rho"] == pytest.approx(1.0, abs=1e-6)

    def test_unbalanced_profile_not_circular(self):
        rng = np.random.default_rng(12)
        p = validate_profile(rng.uniform(0.2, 3.0, size=(16, 16)))
        flag, diag = circular_law_test(p)
        assert not flag
        assert diag["f0_pi_rho"] > 1.0 + 1e-4


class TestOneThread:
    """`_one_thread`, the whole-panel branch of `_product`: blocks of rows
    that OpenBLAS runs on one thread, against the single call x @ M."""

    @staticmethod
    def ulps(a, b):
        """Largest difference of a from b in units of b's last place."""
        return float((np.abs(a - b) / np.spacing(np.abs(b))).max())

    @staticmethod
    def matmuls(monkeypatch, f, *args):
        """f(*args), and the rows and right-operand size of each np.matmul."""
        made, matmul = [], np.matmul

        def recording(a, b, **kwargs):
            made.append((a.shape[0], b.size))
            return matmul(a, b, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", recording)
            result = f(*args)
        return result, made

    # at n = 64 every block takes the single call's kernel, so the rows are
    # the single call's to the bit; at n = 100 the single call of more than
    # B rows takes another kernel and sums in another order: measured up to
    # 9 ulps over 6 seeds
    @pytest.mark.parametrize("n, ulps", [(64, 0), (100, 16)])
    @pytest.mark.parametrize("transposed", [False, True], ids=["V", "VT"])
    def test_whole_panel_product_matches_one_call(self, n, ulps, transposed, monkeypatch):
        B = (ONE_THREAD - 1) // (n * n)   # rows per block: 127 at n = 64, 52 at n = 100
        rng = np.random.default_rng(8)
        V = rng.uniform(0.5, 2.0, (n, n))
        M = V.T if transposed else V
        for rows in (1, B - 1, B, B + 1, 3 * B + 5):
            x = rng.uniform(0.0, 1.0, (rows, n))
            out = np.full((rows, n), np.nan)
            _, made = self.matmuls(monkeypatch, _product, x, M, ((0, n, 0, n),), out)
            sizes = [r for r, _ in made]
            assert len(made) == -(-rows // B)
            assert max(sizes) - min(sizes) <= 1 and sum(sizes) == rows
            assert max(r * size for r, size in made) < ONE_THREAD
            assert self.ulps(out, x @ M) <= ulps

    def test_floor_keeps_one_call(self, monkeypatch):
        # from n = 104 a block would hold fewer than FLOOR rows: one call
        n = 104
        assert (ONE_THREAD - 1) // (n * n) < FLOOR <= (ONE_THREAD - 1) // (103 * 103)
        rng = np.random.default_rng(10)
        x, M = rng.uniform(size=(200, n)), rng.uniform(size=(n, n))
        y = np.empty((200, n))
        _, made = self.matmuls(monkeypatch, _one_thread, x, M, y)
        assert [r for r, _ in made] == [200]
        assert np.array_equal(y, x @ M)
