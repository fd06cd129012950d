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
from vps.profiles import build_block_atom
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
        # the draw that builds the real and imaginary parts as two arrays,
        # real part first, summed and divided by sqrt(2)
        n = 40
        rng = np.random.Generator(np.random.Philox(5))
        if kind == "complex-gaussian":
            re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        else:
            re = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
            im = 2.0 * rng.integers(0, 2, size=(n, n)) - 1.0
        ref = (re + 1j * im) / np.sqrt(2.0)
        z = _draw_entries(EntryLaw(kind=kind, seed=5), n)
        assert z.dtype == np.complex128
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["complex-gaussian", "complex-bernoulli"])
    def test_complex_draw_peak_memory(self, kind):
        # the complex array plus one real part in flight; a first small draw
        # keeps one-time allocations out of the measurement
        law = EntryLaw(kind=kind, seed=5)
        _draw_entries(law, 2)
        tracemalloc.start()
        z = _draw_entries(law, 300)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.6 * z.nbytes


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
