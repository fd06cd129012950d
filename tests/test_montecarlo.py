import math
import tracemalloc

import numpy as np
import pytest

from vps.core import RadialMeasure, validate_profile
from vps.montecarlo import (
    EntryLaw,
    SpectrumSample,
    _draw_entries,
    empirical_radial_cdf,
    kolmogorov_distance,
    read_eigenvalue_csv,
    sample_matrix,
    spectrum,
    write_eigenvalue_csv,
)
from vps.profiles import build_block_atom, cyclic_classes
from vps.reference import block_atom_edge, block_atom_F, circular_F, rank_deficiency_bound

ALL_LAWS = ("real-gaussian", "complex-gaussian", "rademacher",
            "complex-bernoulli")


class TestEntryLaw:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            EntryLaw(kind="cauchy", seed=0)

    @pytest.mark.parametrize("kind", ALL_LAWS)
    def test_standardized(self, kind):
        p = validate_profile(np.ones((200, 200)))
        y = sample_matrix(p, EntryLaw(kind=kind, seed=1))
        x = y * math.sqrt(200)
        assert abs(np.mean(x.real)) < 0.02
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=0.02)


class TestSampleMatrix:
    def test_zero_variance_entries_zero(self):
        grid = np.ones((6, 6))
        grid[2, 3] = 0.0
        p = validate_profile(grid)
        y = sample_matrix(p, EntryLaw(kind="real-gaussian", seed=3))
        assert y[2, 3] == 0.0

    def test_deterministic_given_seed(self):
        p = validate_profile(np.ones((10, 10)))
        law = EntryLaw(kind="complex-bernoulli", seed=99)
        assert np.array_equal(sample_matrix(p, law), sample_matrix(p, law))

    def test_different_seeds_differ(self):
        p = validate_profile(np.ones((10, 10)))
        a = sample_matrix(p, EntryLaw(kind="real-gaussian", seed=1))
        b = sample_matrix(p, EntryLaw(kind="real-gaussian", seed=2))
        assert not np.array_equal(a, b)

    def test_entry_variance_profile(self):
        n = 200
        p = validate_profile(np.ones((n, n)))
        acc = np.zeros((n, n))
        for seed in range(50):
            y = sample_matrix(p, EntryLaw(kind="real-gaussian", seed=seed))
            acc += np.abs(y) ** 2
        assert np.mean(n * acc / 50) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("kind", ALL_LAWS)
    def test_matches_one_expression_bit_for_bit(self, kind):
        n = 50
        p = validate_profile(np.random.default_rng(4).uniform(0.0, 3.0, (n, n)))
        law = EntryLaw(kind=kind, seed=8)
        ref = p.std_devs * _draw_entries(law, n) / np.sqrt(n)
        assert np.array_equal(sample_matrix(p, law), ref)

    @pytest.mark.parametrize("kind", ["complex-gaussian", "complex-bernoulli"])
    def test_complex_draw_matches_two_array_expression(self, kind):
        z = _draw_entries(EntryLaw(kind=kind, seed=5), 40)
        assert z.dtype == np.complex128
        assert z.tobytes() == one_shot_draw(kind, 5, 40).tobytes()

    @pytest.mark.parametrize("n", [129, 130])
    @pytest.mark.parametrize("kind", ALL_LAWS)
    def test_row_blocks_keep_the_one_shot_stream(self, kind, n):
        # three CHUNK-row blocks, the last one partial
        p = validate_profile(np.random.default_rng(n).uniform(0.0, 3.0, (n, n)))
        law = EntryLaw(kind=kind, seed=8)
        ref = one_shot_draw(kind, 8, n)
        assert _draw_entries(law, n).tobytes() == ref.tobytes()
        assert sample_matrix(p, law).tobytes() == (p.std_devs * ref / np.sqrt(n)).tobytes()

    @pytest.mark.parametrize("kind", ["complex-gaussian", "complex-bernoulli", "rademacher"])
    def test_complex_draw_peak_memory(self, kind):
        # the output plus one CHUNK-row block in flight; a first small draw
        # keeps one-time allocations out of the measurement
        law = EntryLaw(kind=kind, seed=5)
        _draw_entries(law, 2)
        tracemalloc.start()
        z = _draw_entries(law, 300)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.35 * z.nbytes

    @pytest.mark.parametrize("kind", ALL_LAWS)
    def test_sample_matrix_peak_memory(self, kind):
        # sigma is applied by row blocks, and V is never formed
        p = validate_profile(np.random.default_rng(2).uniform(0.0, 3.0, (300, 300)))
        law = EntryLaw(kind=kind, seed=5)
        sample_matrix(validate_profile(np.ones((2, 2))), law)
        tracemalloc.start()
        Y = sample_matrix(p, law)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.35 * Y.nbytes
        assert "normalized" not in vars(p)


def one_shot_draw(kind, seed, n):
    """The law's n x n draw in one pass over whole arrays: for a complex
    law the real and imaginary parts as two arrays, real part first,
    summed and divided by sqrt(2)."""
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "real-gaussian":
        return rng.standard_normal((n, n))
    if kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
    if kind == "complex-gaussian":
        re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    else:
        re = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
        im = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
    return (re + 1j * im) / np.sqrt(2.0)


def cyclic_matrix(sizes, seed, dtype=float):
    """A matrix that is block cyclic on classes of the given sizes, with
    full Gaussian blocks C_c -> C_{c+1}, its rows and columns permuted by
    one seeded permutation."""
    rng = np.random.default_rng(seed)
    n, h = sum(sizes), len(sizes)
    start = np.cumsum([0, *sizes])
    A = np.zeros((n, n), dtype)
    for c in range(h):
        d = (c + 1) % h
        block = rng.standard_normal((sizes[c], sizes[d]))
        if dtype is complex:
            block = block + 1j * rng.standard_normal(block.shape)
        A[start[c]:start[c + 1], start[d]:start[d + 1]] = block / np.sqrt(n)
    perm = rng.permutation(n)
    return A[np.ix_(perm, perm)]


class TestSpectrum:
    def test_swap_matrix(self):
        sample = spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sorted(np.round(sample.eigenvalues.real, 10)) == [-1.0, 1.0]
        assert sample.eigenvalues.dtype == np.complex128

    @pytest.mark.parametrize("kind", ["real-gaussian", "rademacher"])
    def test_real_draw_matches_complex_solve(self, kind):
        p = validate_profile(np.ones((200, 200)))
        y = sample_matrix(p, EntryLaw(kind=kind, seed=13))
        ev = spectrum(y).eigenvalues
        ref = np.linalg.eigvals(y.astype(complex))
        assert ev.dtype == np.complex128
        assert np.abs(np.sort(np.abs(ev)) - np.sort(np.abs(ref))).max() <= 1e-12

    @pytest.mark.parametrize("matrix", [
        np.array([[0.0, -1.0], [1.0, 0.0]]),
        np.array([[1.0 + 1.0j, 0.0], [2.0, -1.0j]]),
        np.array([[1.0 + 1.0j, 0.0], [2.0, -1.0j]], dtype=np.complex64),
    ], ids=["conjugate-pair", "complex128", "complex64"])
    def test_result_is_complex128(self, matrix):
        assert spectrum(matrix).eigenvalues.dtype == np.complex128

    def test_narrow_input_solved_in_double(self):
        a32 = np.random.default_rng(5).standard_normal((30, 30)).astype(np.float32)
        assert np.array_equal(spectrum(a32).eigenvalues,
                              spectrum(a32.astype(np.float64)).eigenvalues)
        ints = np.random.default_rng(6).integers(-3, 4, size=(30, 30))
        assert np.array_equal(spectrum(ints).eigenvalues,
                              spectrum(ints.astype(np.float64)).eigenvalues)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_input_not_modified(self, dtype):
        a = np.random.default_rng(9).standard_normal((40, 40)).astype(dtype)
        before = a.copy()
        spectrum(a)
        assert np.array_equal(a, before)

    def test_diagonal(self):
        c = np.array([1.0 + 2.0j, -3.0, 0.5j])
        sample = spectrum(np.diag(c))
        assert np.allclose(sorted(sample.eigenvalues, key=abs),
                           sorted(c, key=abs))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectrum(np.ones((2, 3)))

    def test_block_atom_kernel(self):
        p = build_block_atom(3, 50)
        y = sample_matrix(p, EntryLaw(kind="complex-bernoulli", seed=5))
        ev = spectrum(y).eigenvalues
        n_zero = int(np.sum(np.abs(ev) < 1e-8))
        assert n_zero >= rank_deficiency_bound(3, 50)


class TestCyclicSpectrum:
    """`spectrum` on irreducible patterns of period h >= 2, solved from the
    cyclic block product, against the dense solve."""

    SIZES = {2: (40, 70), 3: (50, 30, 80), 4: (60, 45, 90, 70)}

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_matches_dense_solve(self, h, dtype):
        sizes = self.SIZES[h]
        a = cyclic_matrix(sizes, 20 + h, dtype)
        n, kept = a.shape[0], h * min(sizes)
        assert cyclic_classes(a).max() + 1 == h
        ev = spectrum(a).eigenvalues
        assert ev.dtype == np.complex128 and ev.size == n
        # the dense solve scatters the defective zero eigenvalue (to about
        # 2e-8 at h = 3 and 4e-6 at h = 4), so only the rest is compared
        ours = np.sort(np.abs(ev))[n - kept:]
        dense = np.sort(np.abs(np.linalg.eigvals(a)))[n - kept:]
        assert np.abs(ours - dense).max() <= 1e-12
        assert np.count_nonzero(ev == 0.0) == n - kept

    def test_real_draw_keeps_exact_conjugate_pairs(self):
        pattern = (cyclic_matrix((20, 35, 25), 3) != 0).astype(float)
        y = sample_matrix(validate_profile(pattern), EntryLaw(kind="real-gaussian", seed=4))
        ev = spectrum(y).eigenvalues
        assert np.count_nonzero(ev.imag) > 0
        assert np.count_nonzero((ev.imag == 0.0) & (ev.real != 0.0)) > 0
        np.testing.assert_array_equal(np.sort(ev), np.sort(ev.conj()))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_input_not_modified(self, dtype):
        a = cyclic_matrix((10, 20, 15), 9, dtype)
        before = a.copy()
        spectrum(a)
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("law", ["real-gaussian", "rademacher"])
    def test_weighted_n_cycle(self, law):
        # h = n = 300 classes of one node: the product of the 300 weights,
        # about e^-1046 or 300^-150, is out of the float range unscaled
        n = 300
        rng = np.random.default_rng(11)
        pattern = np.zeros((n, n))
        pattern[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        perm = rng.permutation(n)
        pattern = pattern[np.ix_(perm, perm)]
        y = sample_matrix(validate_profile(pattern), EntryLaw(kind=law, seed=5))
        assert cyclic_classes(y).max() + 1 == n
        ev = spectrum(y).eigenvalues
        modulus = np.exp(np.log(np.abs(y[y != 0.0])).mean())
        assert modulus > 0.02
        np.testing.assert_allclose(np.abs(ev), modulus, rtol=1e-12)
        # every eigenvalue has modulus |prod w|^(1/n); the dense solve sees
        # the cycle through an ill-conditioned diagonal similarity and
        # misses it by up to 2e-6 relative on the Gaussian draw
        np.testing.assert_allclose(np.sort(np.abs(np.linalg.eigvals(y))),
                                   np.sort(np.abs(ev)), rtol=1e-5)

    @pytest.mark.parametrize("law", ["complex-bernoulli", "rademacher"])
    def test_block_draw_peak_memory(self, law):
        # the first class block is read in row blocks, and only the second
        # is copied whole: copying both peaked at 0.56 of Y's bytes here
        spectrum(sample_matrix(build_block_atom(3, 2), EntryLaw(kind=law, seed=7)))
        y = sample_matrix(build_block_atom(3, 334), EntryLaw(kind=law, seed=7))
        tracemalloc.start()
        ev = spectrum(y).eigenvalues
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.count_nonzero(ev == 0.0) == 334
        assert peak <= 0.5 * y.nbytes

    def test_long_period_of_wide_classes_solved_densely(self):
        # the product of 30 Gaussian 5 x 5 blocks spreads its eigenvalues
        # far past 1/eps, so the roots of the smallest would be noise
        a = cyclic_matrix((5,) * 30, 13)
        assert cyclic_classes(a).max() + 1 == 30
        np.testing.assert_array_equal(spectrum(a).eigenvalues,
                                      np.linalg.eigvals(a).astype(complex))

    @pytest.mark.parametrize("pattern", ["zero-free", "reducible", "aperiodic"])
    def test_other_patterns_solved_densely(self, pattern):
        a = np.random.default_rng(7).standard_normal((60, 60))
        if pattern == "reducible":
            a[:20, 20:] = 0.0
            assert cyclic_classes(a) is None
        elif pattern == "aperiodic":
            a = cyclic_matrix((20, 40), 7)
            a[3, 3] = 1.0
            assert not cyclic_classes(a).any()
        np.testing.assert_array_equal(spectrum(a).eigenvalues,
                                      np.linalg.eigvals(a).astype(complex))


class TestEmpiricalCdf:
    def test_counting(self):
        sample = SpectrumSample(eigenvalues=np.array([0.0, 0.0, 1.0]),
                                source="ingested")
        assert empirical_radial_cdf(sample, [0.5])[0] == pytest.approx(2 / 3)

    def test_empty_grid(self):
        sample = SpectrumSample(eigenvalues=np.array([1.0]), source="ingested")
        assert len(empirical_radial_cdf(sample, [])) == 0

    def test_circular_sample_quarter(self):
        p = validate_profile(np.ones((2000, 2000)))
        y = sample_matrix(p, EntryLaw(kind="complex-gaussian", seed=7))
        sample = spectrum(y)
        val = empirical_radial_cdf(sample, [0.5])[0]
        assert val == pytest.approx(0.25, abs=0.03)


def uniform_disk_measure(grid_count=200):
    s = np.linspace(0.005, 1.0, grid_count)
    return RadialMeasure(s_grid=s, F=s ** 2, f=np.full(grid_count, 1 / math.pi),
                         atom_at_zero=0.0, support_radius=1.0)


class TestKolmogorovDistance:
    def test_quantile_construction_small(self):
        m = uniform_disk_measure()
        n = 500
        # moduli at the exact quantiles of F(s) = s^2
        moduli = np.sqrt((np.arange(1, n + 1) - 0.5) / n)
        sample = SpectrumSample(eigenvalues=moduli.astype(complex),
                                source="ingested")
        assert kolmogorov_distance(m, sample) <= 1.0 / n + 1e-9

    def test_single_atom_at_one(self):
        m = uniform_disk_measure()
        sample = SpectrumSample(eigenvalues=np.array([1.0 + 0.0j]),
                                source="ingested")
        assert kolmogorov_distance(m, sample) == pytest.approx(1.0, abs=1e-2)

    def _block_atom_sample(self, k, zero):
        """Block atom measure, and a sample of n(1 - 2/k) moduli equal to
        `zero` plus the quantiles of the CDF conditioned off the atom."""
        n, edge, atom = 3000, block_atom_edge(k), 1.0 - 2.0 / k
        s = np.linspace(0.001, 1.02 * edge, 400)
        m = RadialMeasure(s_grid=s, F=np.array([block_atom_F(k, x) for x in s]),
                          f=np.zeros_like(s), atom_at_zero=atom, support_radius=edge)
        kernel = round(n * atom)
        u = (np.arange(n - kernel) + 0.5) / (n - kernel)
        F = atom + (1.0 - atom) * u
        off = (((k * F) ** 2 - (k - 2) ** 2) / (4.0 * k * k)) ** 0.25
        moduli = np.concatenate([zero(kernel), off])
        return m, SpectrumSample(eigenvalues=moduli.astype(complex), source="ingested"), n

    def test_exact_zeros_compare_with_the_atom(self):
        m, sample, n = self._block_atom_sample(3, np.zeros)
        assert kolmogorov_distance(m, sample) <= 2.0 / n

    def test_numerical_zeros_keep_the_left_limit(self):
        # no threshold: moduli of 1e-14 are not zeros, and the left limit at
        # the first of them reads the atom's weight
        def tiny(count):
            return 1e-14 * (1.0 + np.arange(count) / count)

        m, sample, _ = self._block_atom_sample(3, tiny)
        assert kolmogorov_distance(m, sample) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_circular_draw_close(self):
        p = validate_profile(np.ones((2000, 2000)))
        y = sample_matrix(p, EntryLaw(kind="complex-bernoulli", seed=11))
        sample = spectrum(y)
        s = np.linspace(0.005, 1.05, 300)
        m = RadialMeasure(s_grid=s, F=np.array([circular_F(1.0, x) for x in s]),
                          f=np.zeros_like(s), atom_at_zero=0.0,
                          support_radius=1.0)
        assert kolmogorov_distance(m, sample) <= 0.05


class TestEigenvalueCsv:
    def test_round_trip(self, tmp_path):
        ev = np.array([1.5 - 0.25j, -0.125 + 2.0j, 0.0])
        sample = SpectrumSample(eigenvalues=ev, source="sampled")
        path = tmp_path / "ev.csv"
        write_eigenvalue_csv(sample, path)
        back = read_eigenvalue_csv(path)
        assert back.source == "ingested"
        assert np.array_equal(back.eigenvalues, ev)

    def test_rows_are_the_repr_of_each_part(self, tmp_path):
        ev = np.array([1.5 - 0.0j, complex(-0.0, 2.0), complex(np.nan, 1e-300), 3.0 + 0.0j])
        path = tmp_path / "ev.csv"
        write_eigenvalue_csv(SpectrumSample(eigenvalues=ev, source="sampled"), path)
        assert path.read_text() == "re,im\n" + "".join(
            f"{repr(float(np.real(lam)))},{repr(float(np.imag(lam)))}\n" for lam in ev)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_eigenvalue_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("re,im\n")
        with pytest.raises(ValueError):
            read_eigenvalue_csv(path)

    @pytest.mark.parametrize("row", ["nan,0", "inf,0", "0.5,-inf", "0.5,0.25,1", "0.5", "x,0"])
    def test_rejects_a_bad_row_by_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"re,im\n0.5,0.25\n\n{row}\n")
        with pytest.raises(ValueError, match="line 4"):
            read_eigenvalue_csv(path)
