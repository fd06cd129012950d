import math
import tracemalloc

import numpy as np
import pytest

from vps.core import (
    AllZeroError,
    MESolution,
    NegativeEntryError,
    NonFiniteError,
    NonSquareError,
    ProfileError,
    SolverConfig,
    default_s_grid,
    read_config,
    read_profile_csv,
    validate_profile,
    write_columns_csv,
    write_profile_csv,
)


class TestValidateProfile:
    def test_accepts_constant_profile(self):
        p = validate_profile(np.ones((8, 8)))
        assert p.n == 8
        assert np.allclose(p.normalized, 1.0 / 8)
        assert p.is_symmetric()

    def test_std_devs(self):
        p = validate_profile(4.0 * np.ones((3, 3)))
        assert np.allclose(p.std_devs, 2.0)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            validate_profile(np.ones((3, 4)))

    def test_rejects_vector(self):
        with pytest.raises(NonSquareError):
            validate_profile(np.ones(5))

    def test_rejects_negative(self):
        grid = np.ones((4, 4))
        grid[2, 1] = -0.5
        with pytest.raises(NegativeEntryError):
            validate_profile(grid)

    def test_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf):
            grid = np.ones((4, 4))
            grid[0, 0] = bad
            with pytest.raises(NonFiniteError):
                validate_profile(grid)

    def test_rejects_all_zero(self):
        with pytest.raises(AllZeroError):
            validate_profile(np.zeros((4, 4)))

    def test_arrays_are_readonly(self):
        p = validate_profile(np.ones((4, 4)))
        with pytest.raises(ValueError):
            p.variances[0, 0] = 2.0

    def test_normalized_is_formed_on_first_read_and_cached(self):
        p = validate_profile(np.random.default_rng(3).uniform(0.0, 3.0, (7, 7)))
        assert "normalized" not in vars(p)
        V = p.normalized
        assert p.normalized is V
        assert not V.flags.writeable
        assert V.tobytes() == (p.variances / 7).tobytes()

    def test_caller_array_stays_writable(self):
        grid = np.ones((4, 4))
        p = validate_profile(grid)
        assert grid.flags.writeable
        grid[0, 0] = 2.0
        assert p.variances[0, 0] == 1.0

    def test_asymmetric_detected(self):
        grid = np.ones((4, 4))
        grid[0, 1] = 2.0
        assert not validate_profile(grid).is_symmetric()


class TestSolverConfig:
    def test_defaults(self):
        c = SolverConfig()
        assert (c.fixed_point_tol, c.max_iters, c.t_min) == (1e-12, 200_000, 1e-10)

    @pytest.mark.parametrize("kwargs", [
        {"fixed_point_tol": 0.0},
        {"max_iters": 0},
        {"t_min": 0.0},
        {"fixed_point_tol": math.inf},
        {"fixed_point_tol": math.nan},
        {"max_iters": math.inf},
        {"max_iters": 60.5},   # a budget that `it == max_iters` never meets
        {"t_min": math.inf},
        {"t_min": math.nan},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestMESolution:
    def test_trivial_flag(self):
        z = np.zeros(4)
        sol = MESolution(s=2.0, t=0.0, q=z, q_tilde=z, iterations=1, residual=0.0)
        assert sol.is_trivial
        sol2 = MESolution(s=0.5, t=0.0, q=np.ones(4), q_tilde=np.ones(4),
                          iterations=1, residual=0.0)
        assert not sol2.is_trivial


class TestColumnsCsv:
    def test_each_value_is_the_repr_of_its_float(self, tmp_path):
        # the format of the row-by-row writers it replaced: repr(float(v))
        s = np.array([0.1, 1e-300, 2.5e300, 3.0, 5e-324])
        F = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf])
        counts = np.array([0, 7, 2**52 + 1, 123456789, -3], dtype=np.int64)
        path = tmp_path / "rows.csv"
        write_columns_csv(path, "s,F,count", (s, F, counts))
        assert path.read_text() == "s,F,count\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in zip(s, F, counts))


class TestProfileCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        p = validate_profile(rng.uniform(0.1, 2.0, size=(6, 6)))
        path = tmp_path / "p.csv"
        write_profile_csv(p, path)
        p2 = read_profile_csv(path)
        assert np.array_equal(p.variances, p2.variances)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nx,y\n")
        with pytest.raises(ProfileError):
            read_profile_csv(path)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(NonSquareError):
            read_profile_csv(path)

    def test_ragged_names_the_row(self, tmp_path):
        # numpy's row number, counting the non-blank rows
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n\n4,5,6\n  \n7,8\n")
        with pytest.raises(NonSquareError, match="from 3 to 2 at row 3"):
            read_profile_csv(path)

    @pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.0\n5.0,6.0\n", "1.0\n\n2.0\n",
                                      "1.0,2.0\n"], ids=["3 x 2", "2 x 1", "1 x 2"])
    def test_rejects_a_row_count_other_than_the_column_count(self, tmp_path, text):
        # the grid is read as n rows of the first row's n values
        path = tmp_path / "oblong.csv"
        path.write_text(text)
        with pytest.raises(NonSquareError):
            read_profile_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProfileError):
            read_profile_csv(path)

    @pytest.mark.parametrize("writer", ["repr", "savetxt"])
    def test_round_trip_bit_exact_n50(self, tmp_path, writer):
        rng = np.random.default_rng(11)
        grid = rng.uniform(0.0, 1.0, (50, 50)) * 10.0 ** rng.integers(-8, 9, (50, 50))
        grid[rng.uniform(size=(50, 50)) < 0.2] = 0.0
        p = validate_profile(grid)
        path = tmp_path / "p.csv"
        if writer == "repr":
            write_profile_csv(p, path)
        else:
            np.savetxt(path, p.variances, fmt="%.17g", delimiter=",")
        assert np.array_equal(read_profile_csv(path).variances, p.variances)

    def test_blank_lines_and_spaces_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n 1.0 , 2.5\n\n  \t\n\t3 ,4e-1 \n\n")
        assert np.array_equal(read_profile_csv(path).variances,
                              [[1.0, 2.5], [3.0, 0.4]])

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n# note,x\n3.0,4.0\n",
        "1.0,2.0,\n3.0,4.0,\n",
        "1_0,2.0\n3.0,4.0\n",
    ], ids=["comment-line", "trailing-comma", "digit-separator"])
    def test_rejects_non_decimal_token(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ProfileError) as exc:
            read_profile_csv(path)
        assert not isinstance(exc.value, NonSquareError)

    def test_peak_memory(self, tmp_path):
        # the grid alone, plus the parser's row buffers: V is not formed
        path, small = tmp_path / "p.csv", tmp_path / "small.csv"
        write_profile_csv(validate_profile(np.random.default_rng(2).uniform(0.0, 3.0, (300, 300))),
                          path)
        write_profile_csv(validate_profile(np.ones((2, 2))), small)
        read_profile_csv(small)
        tracemalloc.start()
        p = read_profile_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.35 * p.variances.nbytes

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,nan\n3.0,4.0\n")
        with pytest.raises(NonFiniteError):
            read_profile_csv(path)


class TestReadConfig:
    def test_parses_keys_and_comments(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("fixed_point_tol = 1e-10  # tight\nmax_iters=5000\n\n")
        c = read_config(path)
        assert c.fixed_point_tol == 1e-10
        assert c.max_iters == 5000
        assert isinstance(c.max_iters, int)

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("warp_factor=9\n")
        with pytest.raises(ValueError):
            read_config(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            read_config(path)


class TestDefaultGrid:
    def test_shape_and_range(self):
        g = default_s_grid(2.0, count=100)
        assert len(g) == 100
        assert g[0] > 0
        assert math.isclose(g[-1], 2.1)
        assert np.all(np.diff(g) > 0)
