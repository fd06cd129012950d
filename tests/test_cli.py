import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vps.cli
import vps.core
import vps.mesolver
import vps.profiles
from test_mesolver import band_model_b, two_copies, zero_column_12
from vps.cli import main, read_density_csv
from vps.core import read_profile_csv, validate_profile, write_profile_csv
from vps.mesolver import solve_curve
from vps.montecarlo import read_eigenvalue_csv
from vps.profiles import build_block_atom, build_sampled, build_separable
from vps.reference import block_atom_F


@pytest.fixture()
def circular_profile_csv(tmp_path):
    path = tmp_path / "circular.csv"
    write_profile_csv(validate_profile(np.ones((32, 32))), path)
    return str(path)


@pytest.fixture()
def block_profile_csv(tmp_path):
    path = tmp_path / "block.csv"
    write_profile_csv(build_block_atom(3, 8), path)
    return str(path)


@pytest.fixture()
def separable_profile_csv(tmp_path):
    # rank 1 with distinct rows and columns, so no pair classes: the SVD
    # factors it
    path = tmp_path / "separable.csv"
    write_profile_csv(build_separable(np.linspace(0.5, 2.0, 32), np.linspace(1.5, 0.5, 32))[0],
                      path)
    return str(path)


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_missing_input_is_data_error(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert main(["solve", "--profile", str(tmp_path / "nope.csv"),
                     "--out", out]) == 3

    def test_consecutive_calls_parse_independently(self, circular_profile_csv, monkeypatch):
        # the parser is built once per process; no option of one call
        # leaks into the next
        seen = []

        def record(args):
            seen.append(vars(args))
            return 0

        monkeypatch.setattr(vps.cli, "_COMMANDS", dict.fromkeys(vps.cli._COMMANDS, record))
        profile = ["--profile", circular_profile_csv]
        calls = [["check", *profile, "--blocks", "3", "--phi", "0.5"],
                 ["density", *profile, "--mode", "exact", "--out", "a.csv"],
                 ["check", *profile],
                 ["density", *profile, "--grid", "0.1:0.5:5", "--out", "b.csv"],
                 ["simulate", *profile, "--seed", "4", "--out", "c.csv"],
                 ["simulate", *profile, "--out", "d.csv"]]
        for argv in calls:
            assert main(argv) == 0
        assert vps.cli._build_parser() is vps.cli._build_parser()
        check, density, check_default, density_default, simulate, simulate_default = seen
        assert (check["blocks"], check["phi"]) == (3, 0.5)
        assert (check_default["blocks"], check_default["phi"]) == (None, 1e-9)
        assert check_default["out"] is None and "mode" not in check_default
        assert (density["mode"], density["grid"], density["out"]) == ("exact", None, "a.csv")
        assert (density_default["mode"], density_default["grid"]) == ("fd", "0.1:0.5:5")
        assert (simulate["seed"], simulate_default["seed"]) == (4, 0)
        assert "blocks" not in density and "seed" not in check_default

    def test_bad_grid_is_data_error(self, circular_profile_csv, tmp_path):
        out = str(tmp_path / "o.csv")
        assert main(["solve", "--profile", circular_profile_csv,
                     "--grid", "oops", "--out", out]) == 3

    @pytest.mark.parametrize("line", [
        "zero_threshold = 1e-8",   # the support radius decides the trivial regime
        "t_initial = 1.0",         # each radius is solved once, at t_min
        "t_decay = 0.5",
        "averaging_weight = 0.5",  # a solver constant
    ], ids=lambda line: line.split()[0])
    def test_removed_config_key_is_data_error(self, line, circular_profile_csv, tmp_path):
        config = tmp_path / "old.cfg"
        config.write_text(line + "\n")
        assert main(["solve", "--profile", circular_profile_csv, "--config", str(config),
                     "--out", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("command", ["solve", "density"])
    @pytest.mark.parametrize("line", ["fixed_point_tol = inf", "t_min = nan"])
    def test_non_finite_config_value_is_data_error(self, command, line, tmp_path, capsys):
        # an infinite tolerance would stop every radius after one iteration
        profile, config = tmp_path / "block.csv", tmp_path / "bad.cfg"
        write_profile_csv(build_block_atom(3, 20), profile)
        config.write_text(line + "\n")
        out = tmp_path / "o.csv"
        assert main([command, "--profile", str(profile), "--config", str(config),
                     "--out", str(out)]) == 3
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "density"])
    @pytest.mark.parametrize("grid", ["0.1:inf:5", "0.1:nan:5"])
    def test_non_finite_grid_bound_is_data_error(self, command, grid, circular_profile_csv,
                                                 tmp_path):
        out = tmp_path / "o.csv"
        assert main([command, "--profile", circular_profile_csv, "--grid", grid,
                     "--out", str(out)]) == 3
        assert not out.exists()


class TestConvergenceFailure:
    @pytest.fixture()
    def starved(self, tmp_path):
        """Block atom k=3, m=20 with a 60-iteration budget: most grid
        points fail to converge."""
        profile = tmp_path / "block.csv"
        write_profile_csv(build_block_atom(3, 20), profile)
        config = tmp_path / "starved.cfg"
        config.write_text("max_iters = 60\n")
        return str(profile), str(config)

    def test_density_names_failed_radii(self, starved, tmp_path, capsys):
        profile, config = starved
        main(["density", "--profile", profile, "--config", config,
              "--out", str(tmp_path / "density.csv")])
        assert "grid points did not converge, at s = " in capsys.readouterr().err

    def test_solve_writes_failed_rows_and_names_them(self, starved, tmp_path, capsys):
        profile, config = starved
        out = tmp_path / "curve.csv"
        main(["solve", "--profile", profile, "--config", config, "--out", str(out)])
        assert "grid points did not converge, at s = " in capsys.readouterr().err
        rows = out.read_text().strip().splitlines()[1:]
        residuals = [float(row.split(",")[5]) for row in rows]
        assert len(rows) == 200
        assert math.inf in residuals
        assert any(math.isfinite(r) for r in residuals)


    def test_rank_deficient_derivative_exits_4(self, tmp_path, capsys, monkeypatch):
        # every system but the first of a stack made exactly singular after
        # its assembly: the second radius's, in the t = 0 Newton (which then
        # refuses it) and in the derivative
        linearization = vps.mesolver._linearization

        def singular(*args, trace=None):
            M = linearization(*args, trace=trace)
            M[1:] = 0.0
            return M

        profile = tmp_path / "random.csv"
        write_profile_csv(validate_profile(np.random.default_rng(3).uniform(0.5, 2.0, (10, 10))),
                          profile)
        monkeypatch.setattr(vps.mesolver, "_linearization", singular)
        assert main(["density", "--profile", str(profile), "--mode", "exact",
                     "--grid", "0.2:0.4:2", "--out", str(tmp_path / "d.csv")]) == 4
        err = capsys.readouterr().err
        assert err == "vps: rank deficient: derivative system is singular at s = 0.4\n"
        assert "Traceback" not in err

    def test_one_singular_radius_exits_4(self, tmp_path, capsys):
        # the 12 x 12 pattern without total support converges at s = 0.3,
        # below 0.7 sqrt(rho), to a boundary point whose system reads a
        # condition estimate near 1e17; at the two radii above it the t = 0
        # Newton is accepted and the systems are regular
        profile = tmp_path / "zero_column.csv"
        write_profile_csv(zero_column_12(), profile)
        assert main(["density", "--profile", str(profile), "--mode", "exact",
                     "--grid", "0.3:0.4:3", "--out", str(tmp_path / "d.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("vps: rank deficient: derivative system condition estimate ")
        assert err.endswith(" > 1e13 at s = 0.3\n")
        assert "Traceback" not in err

    def test_direct_sum_exact_density_exits_0(self, tmp_path):
        # two copies of one random block: each carries its own gauge, and
        # its own trace row fixes it
        profile = tmp_path / "two_blocks.csv"
        write_profile_csv(two_copies(np.random.default_rng(0).random((6, 6))), profile)
        out = tmp_path / "d.csv"
        assert main(["density", "--profile", str(profile), "--mode", "exact",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_exact_density_leaves_numpy_random_unloaded(self, tmp_path):
        # numpy loads numpy.random on first use, at about 5 MB; the exact
        # density's condition probe is hashed, not drawn
        profile, out = tmp_path / "block.csv", tmp_path / "d.csv"
        write_profile_csv(build_block_atom(3, 20), profile)
        script = ("import sys\n"
                  "from vps.cli import main\n"
                  f"code = main(['density', '--profile', {str(profile)!r}, '--mode', 'exact',"
                  f" '--out', {str(out)!r}])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(vps.cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        assert run.stdout.split() == ["0", "False"]


class TestSpectralRadiusOnce:
    @pytest.mark.parametrize("command", ["solve", "density"])
    def test_one_call(self, command, block_profile_csv, tmp_path, spectral_radius_calls):
        out = tmp_path / "out.csv"
        assert main([command, "--profile", block_profile_csv, "--out", str(out)]) == 0
        assert len(spectral_radius_calls) == 1
        assert len(out.read_text().strip().splitlines()) == 201

    def test_check_one_call(self, circular_profile_csv, tmp_path, spectral_radius_calls):
        # the constant profile is block fully indecomposable, so the check
        # runs the circular law test, which reuses the CLI's radius
        out = tmp_path / "check.txt"
        assert main(["check", "--profile", circular_profile_csv, "--blocks", "4",
                     "--out", str(out)]) == 0
        assert "circular = true" in out.read_text()
        assert len(spectral_radius_calls) == 1


class TestSvdOnlyForTheExactDerivative:
    """No command runs an SVD: the exact density of a rank-one profile is
    in closed form, and every other profile's derivative is an LU."""

    @pytest.mark.parametrize("argv", [["solve"], ["density", "--mode", "fd"]],
                             ids=["solve", "density-fd"])
    def test_none_without_the_exact_derivative(self, argv, block_profile_csv, tmp_path,
                                               svd_calls):
        assert main(argv + ["--profile", block_profile_csv,
                            "--out", str(tmp_path / "out.csv")]) == 0
        assert len(svd_calls) == 0

    def test_none_for_an_exact_curve_of_a_separable_profile(self, separable_profile_csv,
                                                            tmp_path, svd_calls):
        # the rank-one route's density is in closed form
        assert main(["density", "--profile", separable_profile_csv, "--mode", "exact",
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert len(svd_calls) == 0

    def test_none_for_an_exact_curve_of_a_block_profile(self, block_profile_csv, tmp_path,
                                                       svd_calls, pair_classes_calls):
        # the curve and its 190 derivatives share one scan for pair classes
        out = tmp_path / "out.csv"
        assert main(["density", "--profile", block_profile_csv, "--mode", "exact",
                     "--out", str(out)]) == 0
        assert (read_density_csv(out)[2] > 0.0).sum() == 190
        assert len(pair_classes_calls) == 1
        assert len(svd_calls) == 0


class TestSolve:
    def test_curve_csv(self, circular_profile_csv, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["solve", "--profile", circular_profile_csv,
                     "--grid", "0.2:1.2:6", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,t_final,sum_q,sum_qtilde,inner,residual,iterations"
        assert len(lines) == 7
        row = [float(t) for t in lines[1].split(",")]
        # s=0.2: sum_q = n*sqrt(1-s^2), inner = q^2
        assert row[2] == pytest.approx(32 * math.sqrt(0.96), abs=1e-6)
        assert row[4] == pytest.approx(0.96, abs=1e-8)

    def test_t_final_is_each_radius_t(self, tmp_path):
        # the 12 x 12 pattern without total support: the endgame refuses
        # the six smallest radii, which end at t_min, and accepts three;
        # three lie past the edge sqrt(rho) = 0.472
        path, out = tmp_path / "p.csv", tmp_path / "curve.csv"
        write_profile_csv(zero_column_12(), path)
        assert main(["solve", "--profile", str(path), "--grid", "0.02:0.6:12",
                     "--out", str(out)]) == 0
        t_final = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert list(t_final) == [1e-10] * 6 + [0.0] * 6
        curve = solve_curve(read_profile_csv(path), np.linspace(0.02, 0.6, 12))
        assert list(curve.rows.at_zero) == [False] * 6 + [True] * 3 + [False] * 3
        assert [sol.t for sol in curve.solutions] == list(t_final)


    def test_rows_are_the_repr_of_each_float(self, tmp_path):
        # the format of the row-by-row writer: repr(float(v)), iterations too
        path, out = tmp_path / "p.csv", tmp_path / "curve.csv"
        write_profile_csv(zero_column_12(), path)
        assert main(["solve", "--profile", str(path), "--grid", "0.02:0.6:12",
                     "--out", str(out)]) == 0
        curve = solve_curve(read_profile_csv(path), np.linspace(0.02, 0.6, 12))
        rows = curve.rows
        expected = [",".join(repr(float(v)) for v in row) for row in zip(
            curve.s_grid, curve.t, rows.q.sum(axis=1), rows.q_tilde.sum(axis=1),
            curve.products.w / curve.profile.n, rows.residual, rows.iterations)]
        lines = out.read_text().splitlines()
        assert lines[1:] == expected and any(it > 0 for it in rows.iterations)


class TestDensity:
    def test_density_csv_rows_are_the_repr_of_each_float(self, tmp_path):
        s = np.array([0.25, 0.5, 1.0])
        cols = (s, np.array([0.0, -0.0, 1.0]), np.full(3, np.nan), np.array([2.0, 1e-300, 0.0]),
                np.array([np.inf, 3.0, -0.0]))
        vps.cli._write_density_csv(tmp_path / "d.csv", *cols)
        assert (tmp_path / "d.csv").read_text() == "s,F,f_exact,f_fd,lower_bound_ratio\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols))

    def test_nilpotent_profile_without_a_grid_is_data_error(self, tmp_path, capsys):
        grid = np.zeros((10, 10))
        grid[0, 1:] = 1.0
        path = tmp_path / "star.csv"
        write_profile_csv(validate_profile(grid), path)
        assert main(["density", "--profile", str(path), "--out", str(tmp_path / "d.csv")]) == 3
        assert "unit atom at zero" in capsys.readouterr().err

    def test_nilpotent_profile_on_a_grid_is_a_unit_atom(self, tmp_path):
        # rho = 0: every radius is past the edge, F = 1 on the grid, and
        # the atom at zero is the whole measure
        grid = np.zeros((10, 10))
        grid[0, 1:] = 1.0
        path = tmp_path / "star.csv"
        write_profile_csv(validate_profile(grid), path)
        out = tmp_path / "d.csv"
        assert main(["density", "--profile", str(path), "--grid", "0.1:0.5:5",
                     "--out", str(out)]) == 0
        _, F, _, _, _ = read_density_csv(out)
        np.testing.assert_array_equal(F, 1.0)
        info = open(str(out) + ".info.txt").read()
        assert "rho = 0.0\n" in info
        assert "atom_at_zero = 1.0\n" in info

    def test_circular_density_csv(self, circular_profile_csv, tmp_path):
        out = tmp_path / "dens.csv"
        assert main(["density", "--profile", circular_profile_csv,
                     "--grid", "0.02:1.05:40", "--mode", "exact",
                     "--out", str(out)]) == 0
        s, F, f_exact, f_fd, lb = read_density_csv(out)
        inside = s < 0.9
        assert np.abs(f_exact[inside] - 1 / math.pi).max() < 1e-6
        assert np.abs(F - np.minimum(s ** 2, 1.0)).max() < 1e-7
        info = (str(out) + ".info.txt")
        text = open(info).read()
        assert "atom_at_zero" in text
        assert "density_at_zero" in text
        assert "verdict_cdf_monotone = pass" in text

    def test_cdf_step_down_fails_the_monotone_verdict(self, circular_profile_csv,
                                                       tmp_path, monkeypatch):
        # swap two inner radii's rows and radii, so raw F steps down between them
        def swapped(*args):
            curve = solve_curve(*args)
            order = np.arange(len(curve.s_grid))
            order[[5, 10]] = order[[10, 5]]
            rows = dataclasses.replace(curve.rows, q=curve.rows.q[order],
                                       q_tilde=curve.rows.q_tilde[order])
            return dataclasses.replace(curve, s_grid=curve.s_grid[order], rows=rows)

        monkeypatch.setattr(vps.cli, "solve_curve", swapped)
        out = tmp_path / "dens.csv"
        assert main(["density", "--profile", circular_profile_csv,
                     "--grid", "0.05:1.05:20", "--out", str(out)]) == 0
        _, F, _, _, _ = read_density_csv(out)
        assert F[5] > F[6]
        assert "verdict_cdf_monotone = fail" in open(str(out) + ".info.txt").read()

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_sidecar_names_the_derivative_route(self, mode, separable_profile_csv,
                                                block_profile_csv, tmp_path, svd_calls):
        # one `solve_route` line names the route of the curve and of the
        # exact density alike
        out = tmp_path / "dens.csv"
        for profile, route in ((separable_profile_csv, "separable (rank 1)"),
                               (block_profile_csv, "quotient (2 classes)")):
            assert main(["density", "--profile", profile, "--mode", mode,
                         "--grid", "0.05:0.6:12", "--out", str(out)]) == 0
            lines = open(str(out) + ".info.txt").read().splitlines()
            assert [line for line in lines if "route" in line] == [f"solve_route = {route}"]
            assert not [line for line in lines if line.startswith("exact_derivative")]
        assert len(svd_calls) == 0

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_sidecar_names_the_solve_route(self, mode, circular_profile_csv,
                                           separable_profile_csv, block_profile_csv,
                                           tmp_path):
        path = tmp_path / "random.csv"
        write_profile_csv(validate_profile(
            np.random.default_rng(22).uniform(0.5, 2.0, size=(12, 12))), path)
        out = tmp_path / "dens.csv"
        for profile, route in ((circular_profile_csv, "separable (rank 1)"),
                               (separable_profile_csv, "separable (rank 1)"),
                               (block_profile_csv, "quotient (2 classes)"),
                               (str(path), "full")):
            assert main(["density", "--profile", profile, "--mode", mode,
                         "--grid", "0.05:0.6:12", "--out", str(out)]) == 0
            lines = open(str(out) + ".info.txt").read().splitlines()
            assert [line for line in lines if line.startswith("solve_route")] == [
                f"solve_route = {route}"]

    def test_sidecar_counts_the_radii_solved_at_t_zero(self, circular_profile_csv,
                                                       block_profile_csv, tmp_path):
        # the rank-one lift and the quotient's endgame solve every radius
        # inside the support at t = 0; the pattern without total support
        # keeps t_min at some.  The line follows `solve_route`
        sparse = np.zeros((12, 12))
        for i, j, v in [(0, 4, 1.9), (1, 0, 1.8), (1, 2, 0.6), (1, 4, 1.3), (2, 4, 0.7),
                        (2, 6, 0.9), (3, 0, 1.7), (3, 4, 1.1), (3, 8, 0.8), (4, 1, 1.4),
                        (4, 3, 0.7), (4, 5, 0.5), (5, 2, 1.6), (5, 4, 1.3), (5, 7, 0.6),
                        (6, 1, 0.8), (6, 5, 2.0), (7, 2, 1.2), (8, 3, 1.4), (9, 11, 1.3),
                        (10, 10, 1.0), (10, 11, 0.8), (11, 0, 1.3), (11, 10, 0.5)]:
            sparse[i, j] = v
        path = tmp_path / "sparse.csv"
        write_profile_csv(validate_profile(sparse), path)
        out = str(tmp_path / "dens.csv")
        for profile, grid in ((circular_profile_csv, "0.05:1.2:12"),
                              (block_profile_csv, "0.05:0.6:12"),
                              (str(path), "0.05:1.5:30")):
            assert main(["density", "--profile", profile, "--grid", grid, "--out", out]) == 0
            lines = open(out + ".info.txt").read().splitlines()
            route = [i for i, line in enumerate(lines) if line.startswith("solve_route")]
            curve = solve_curve(read_profile_csv(profile), vps.cli._parse_grid(grid))
            inside = int((curve.s_grid < math.sqrt(curve.rho)).sum())
            accepted = int(curve.rows.at_zero.sum())
            assert lines[route[0] + 1] == f"t0_radii = {accepted} of {inside}"
            assert 0 < accepted and (accepted == inside) == (profile != str(path))

    def test_sidecar_counts_the_krylov_iterations(self, block_profile_csv, tmp_path):
        # the GMRES iterations of the t = 0 Newton, summed over the radii:
        # none where its steps are solved by LU, as on the quotient
        path = tmp_path / "dense.csv"
        write_profile_csv(validate_profile(
            np.random.default_rng(11).uniform(0.5, 2.0, size=(30, 30))), path)
        out = str(tmp_path / "dens.csv")
        for profile, positive in ((block_profile_csv, False), (str(path), True)):
            assert main(["density", "--profile", profile, "--grid", "0.05:0.6:12",
                         "--out", out]) == 0
            lines = open(out + ".info.txt").read().splitlines()
            at = next(i for i, line in enumerate(lines) if line.startswith("t0_radii"))
            curve = solve_curve(read_profile_csv(profile), vps.cli._parse_grid("0.05:0.6:12"))
            total = int(curve.rows.krylov.sum())
            assert lines[at + 1] == f"krylov_iters = {total}"
            assert (total > 0) == positive

    def test_unresolved_atom_is_named_not_written(self, tmp_path, capsys):
        # the first three radii of the default grid of `zero_column_12()`,
        # whose extrapolations of the atom differ by 2.2e-3: the sidecar
        # and stderr say why, as for a failed point, and the rest is written
        from test_mesolver import zero_column_12
        p = zero_column_12()
        path = tmp_path / "zero_column.csv"
        write_profile_csv(p, path)
        s = vps.core.default_s_grid(math.sqrt(vps.profiles.spectral_radius(p)))
        out = tmp_path / "dens.csv"
        assert main(["density", "--profile", str(path), "--grid",
                     f"{float(s[0])!r}:{float(s[2])!r}:3", "--out", str(out)]) == 0
        assert "vps: warning: the atom at zero is not resolved" in capsys.readouterr().err
        info = open(str(out) + ".info.txt").read()
        assert "atom_at_zero = unavailable (the atom at zero is not resolved" in info
        assert "verdict_cdf_monotone = pass" in info and len(read_density_csv(out)[0]) == 3

    def test_sidecar_names_the_dense_route(self, tmp_path):
        # a positive random profile has neither rank one nor pair classes:
        # the kernel runs on V and the derivative by the dense LU
        path = tmp_path / "random.csv"
        write_profile_csv(validate_profile(
            np.random.default_rng(22).uniform(0.5, 2.0, size=(12, 12))), path)
        out = tmp_path / "dens.csv"
        assert main(["density", "--profile", str(path), "--mode", "exact",
                     "--grid", "0.05:0.8:10", "--out", str(out)]) == 0
        assert "solve_route = full\n" in open(str(out) + ".info.txt").read()

    def test_fd_mode_nan_exact_column(self, circular_profile_csv, tmp_path):
        out = tmp_path / "dens.csv"
        assert main(["density", "--profile", circular_profile_csv,
                     "--grid", "0.05:1.05:20", "--out", str(out)]) == 0
        _, _, f_exact, f_fd, _ = read_density_csv(out)
        assert np.all(np.isnan(f_exact))
        assert np.nanmax(f_fd) > 0

    def test_atom_profile_names_why_density_at_zero_is_unavailable(
            self, block_profile_csv, tmp_path):
        out = tmp_path / "dens.csv"
        assert main(["density", "--profile", block_profile_csv,
                     "--grid", "0.02:0.5:10", "--out", str(out)]) == 0
        text = open(str(out) + ".info.txt").read()
        assert "density_at_zero = unavailable (" in text
        assert "no total support" in text


class TestSeparable:
    def test_two_level_spec(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert main(["separable", "--d", "two-level:1,4,0.5",
                     "--dtilde", "constant:1", "--n", "50",
                     "--grid", "0.05:1.7:25", "--out", str(out)]) == 0
        s, F, f_exact, _, _ = read_density_csv(out)
        from vps.separable import sombrero_density
        inside = s < math.sqrt(2.5) - 0.05
        oracle = np.array([sombrero_density(1, 4, 0.5, z) for z in s[inside]])
        assert np.abs(f_exact[inside] - oracle).max() < 1e-8

    def test_vector_files(self, tmp_path):
        dpath = tmp_path / "d.csv"
        dpath.write_text("1.0\n2.0\n1.0\n2.0\n")
        out = tmp_path / "sep.csv"
        assert main(["separable", "--d", str(dpath), "--dtilde", str(dpath),
                     "--grid", "0.1:1.6:10", "--out", str(out)]) == 0
        s, F, _, _, _ = read_density_csv(out)
        assert F[-1] == pytest.approx(1.0)

    def test_function_spec_without_n_is_data_error(self, tmp_path):
        assert main(["separable", "--d", "power:1", "--dtilde", "constant:1",
                     "--out", str(tmp_path / "x.csv")]) == 3


class TestCheck:
    def test_block_atom_report(self, block_profile_csv, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["check", "--profile", block_profile_csv,
                     "--blocks", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "irreducible = true\nperiod = 2\n" in text
        assert "frobenius_blocks = 1\n" in text
        assert "pair_classes = 2\n" in text
        assert "block_fully_indecomposable = false" in text
        assert "circular = false" in text

    def test_triangular_pattern_has_a_block_per_node(self, tmp_path, capsys):
        # the pattern of ones on and above the diagonal, with distinct
        # diagonal values
        path = tmp_path / "upper.csv"
        upper = np.triu(np.random.default_rng(23).uniform(0.5, 2.0, size=(7, 7)))
        write_profile_csv(validate_profile(upper), path)
        assert main(["check", "--profile", str(path)]) == 0
        text = capsys.readouterr().out
        assert "irreducible = false\nfrobenius_blocks = 7\n" in text

    def test_jordan_block_pattern_has_its_exact_rho(self, tmp_path, capsys):
        # np.triu(ones) is one Jordan block at rho = 1/7: the pattern has no
        # cycle, so rho is read off the diagonal, where the power iteration
        # did not converge
        path = tmp_path / "upper.csv"
        write_profile_csv(validate_profile(np.triu(np.ones((7, 7)))), path)
        assert main(["check", "--profile", str(path)]) == 0
        text = capsys.readouterr().out
        assert "rho = 0.14285714285714285\n" in text
        assert "frobenius_blocks = 7\n" in text

    def test_envelope_frac_of_a_dense_profile(self, tmp_path, capsys):
        path = tmp_path / "ones.csv"
        write_profile_csv(validate_profile(np.ones((8, 8))), path)
        assert main(["check", "--profile", str(path)]) == 0
        assert ("frobenius_blocks = 1\nenvelope_frac = 1\npair_classes = 1\n"
                in capsys.readouterr().out)

    def test_envelope_frac_of_band_model_a(self, tmp_path, capsys):
        path = tmp_path / "band_a.csv"
        write_profile_csv(build_sampled(lambda x, y: 1.0 if abs(x - y) <= 1 / 20 else 0.0,
                                        400), path)
        assert main(["check", "--profile", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, row in enumerate(lines) if row.startswith("envelope_frac = "))
        assert 0.0 < float(lines[at].split(" = ")[1]) < 0.5
        assert lines[at + 1] == "pair_classes = none"

    def test_one_route_for_the_whole_check(self, tmp_path, capsys, monkeypatch):
        # band model B at n = 200: the spectral radius, the envelope share
        # and the boundary solve read one route's two operands, so each
        # operand's panels are found once
        path = tmp_path / "band_b.csv"
        write_profile_csv(build_sampled(band_model_b, 200), path)
        found = []
        envelope = vps.profiles._envelope

        def counted(M):
            found.append(M.shape)
            return envelope(M)

        monkeypatch.setattr(vps.profiles, "_envelope", counted)
        monkeypatch.setattr(vps.mesolver, "_envelope", counted)
        assert main(["check", "--profile", str(path)]) == 0
        text = capsys.readouterr().out
        assert "circular = false\nmax_deviation = " in text   # the boundary solve ran
        assert len(found) <= 2

    def test_rank_one_next_to_pair_classes(self, circular_profile_csv, separable_profile_csv,
                                           block_profile_csv, capsys):
        for profile, lines in ((circular_profile_csv, "pair_classes = 1\nrank_one = true\n"),
                               (separable_profile_csv, "pair_classes = none\nrank_one = true\n"),
                               (block_profile_csv, "pair_classes = 2\nrank_one = false\n")):
            assert main(["check", "--profile", profile]) == 0
            assert lines in capsys.readouterr().out

    def test_random_profile_without_blocks(self, tmp_path, capsys):
        path = tmp_path / "random.csv"
        rng = np.random.default_rng(21)
        write_profile_csv(validate_profile(rng.uniform(0.5, 2.0, size=(30, 30))), path)
        assert main(["check", "--profile", str(path)]) == 0
        text = capsys.readouterr().out
        assert "irreducible = true\nperiod = 1\n" in text
        assert "block_fully_indecomposable = true (K = 30" in text

    def test_large_block_atom_without_blocks(self, tmp_path, capsys):
        path = tmp_path / "block300.csv"
        write_profile_csv(build_block_atom(3, 100), path)
        assert main(["check", "--profile", str(path)]) == 0
        text = capsys.readouterr().out
        assert "block_fully_indecomposable = false (K = 300" in text
        assert "circular = false" in text

    def test_circular_report(self, circular_profile_csv, capsys):
        assert main(["check", "--profile", circular_profile_csv,
                     "--blocks", "4"]) == 0
        text = capsys.readouterr().out
        assert "circular = true" in text


    @pytest.mark.parametrize("blocks", ["0", "-2"])
    def test_bad_block_count_is_data_error(self, circular_profile_csv, blocks):
        assert main(["check", "--profile", circular_profile_csv,
                     "--blocks", blocks]) == 3


class TestOracle:
    def test_block_atom_family(self, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--family", "block-atom:3",
                     "--grid", "0.05:0.7:30", "--out", str(out)]) == 0
        s, F, f, _, _ = read_density_csv(out)
        expected = np.array([block_atom_F(3, x) for x in s])
        assert np.allclose(F, expected)

    def test_fd_column_zero_past_edge(self, tmp_path):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--family", "circular:1",
                     "--grid", "0.1:1.5:15", "--out", str(out)]) == 0
        s, _, f, f_fd, _ = read_density_csv(out)
        assert np.all(f_fd[s >= 1.0] == 0.0)
        assert np.all(f[s >= 1.0] == 0.0)
        assert np.abs(f_fd[1:8] - 1 / math.pi).max() < 1e-12

    def test_unknown_family_data_error(self, tmp_path):
        assert main(["oracle", "--family", "wigner",
                     "--out", str(tmp_path / "x.csv")]) == 3


class TestSimulateCompare:
    def test_simulate_and_compare_roundtrip(self, tmp_path):
        n = 60
        ppath = tmp_path / "p.csv"
        write_profile_csv(validate_profile(np.ones((n, n))), ppath)
        ev = tmp_path / "ev.csv"
        assert main(["simulate", "--profile", str(ppath), "--seed", "4",
                     "--law", "complex-gaussian", "--out", str(ev)]) == 0
        sample = read_eigenvalue_csv(ev)
        assert len(sample.eigenvalues) == n

        dens = tmp_path / "dens.csv"
        assert main(["density", "--profile", str(ppath),
                     "--grid", "0.02:1.05:40", "--out", str(dens)]) == 0
        report = tmp_path / "cmp.txt"
        assert main(["compare", "--eigenvalues", str(ev),
                     "--density", str(dens), "--out", str(report)]) == 0
        dist = float(report.read_text().split("=")[1])
        assert 0.0 <= dist <= 0.5   # small n, loose statistical check

    def test_compare_one_row_density_is_data_error(self, tmp_path, capsys):
        ppath = tmp_path / "p.csv"
        write_profile_csv(validate_profile(np.ones((12, 12))), ppath)
        ev = tmp_path / "ev.csv"
        assert main(["simulate", "--profile", str(ppath), "--out", str(ev)]) == 0
        dens = tmp_path / "dens.csv"
        dens.write_text("s,F,f_exact,f_fd,lower_bound_ratio\n0.5,0.25,nan,nan,nan\n")
        assert main(["compare", "--eigenvalues", str(ev), "--density", str(dens)]) == 3
        assert "at least two grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan,0", "inf,0", "0.5,0.25,1"])
    def test_compare_bad_eigenvalue_row_is_data_error(self, tmp_path, capsys, row):
        ev, dens = tmp_path / "ev.csv", tmp_path / "dens.csv"
        ev.write_text(f"re,im\n0.5,0.25\n{row}\n")
        assert main(["oracle", "--family", "circular:1", "--grid", "0.1:1.05:20",
                     "--out", str(dens)]) == 0
        assert main(["compare", "--eigenvalues", str(ev), "--density", str(dens)]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("0.5,nan,nan,nan,nan", "non-finite s or F"),
        ("inf,0.3,nan,nan,nan", "non-finite s or F"),
        ("0.5,0.3,nan,nan", "4 fields, expected 5"),
        ("0.5,0.3,nan,nan,nan,1", "6 fields, expected 5"),
        ("0.5,x,nan,nan,nan", "could not convert")])
    def test_compare_bad_density_row_is_data_error(self, tmp_path, capsys, row, message):
        ev, dens = tmp_path / "ev.csv", tmp_path / "dens.csv"
        ev.write_text("re,im\n0.5,0.25\n0.1,-0.2\n")
        assert main(["oracle", "--family", "circular:1", "--grid", "0.1:1.05:20",
                     "--out", str(dens)]) == 0
        lines = dens.read_text().splitlines()
        assert "nan" in lines[-1]   # the oracle's NaN lower bounds are read
        lines.insert(3, row)
        dens.write_text("\n".join(lines) + "\n")
        assert main(["compare", "--eigenvalues", str(ev), "--density", str(dens)]) == 3
        err = capsys.readouterr().err
        assert f"{dens}, line 4: " in err and message in err

    def test_simulate_deterministic(self, tmp_path):
        ppath = tmp_path / "p.csv"
        write_profile_csv(validate_profile(np.ones((12, 12))), ppath)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--profile", str(ppath), "--seed", "7",
                         "--out", str(out)]) == 0
        assert a.read_text() == b.read_text()

    def test_simulate_never_scans_for_rank_one(self, tmp_path, monkeypatch):
        scans = []
        monkeypatch.setattr(vps.core, "_rank_one", lambda V: scans.append(V))
        ppath = tmp_path / "p.csv"
        write_profile_csv(validate_profile(np.ones((12, 12))), ppath)
        assert main(["simulate", "--profile", str(ppath), "--out",
                     str(tmp_path / "eig.csv")]) == 0
        assert scans == []
