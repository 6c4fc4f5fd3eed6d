import ast
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ringlat
from ringlat import hamiltonian
from ringlat.cli import main

SQRT2 = math.sqrt(2.0)


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    body = [dict(zip(header, line.split(","))) for line in rows[1:]]
    return comments, header, body


def body_text(path):
    with open(path, encoding="utf-8") as handle:
        return "".join(line for line in handle
                       if not line.startswith("# timestamp"))


class TestSpectrum:
    def test_default_eight_lines(self, tmp_path):
        assert main(["spectrum", "--out", str(tmp_path),
                     "--omega-points", "11"]) == 0
        comments, header, body = read_csv(tmp_path / "spectrum.csv")
        assert header == ["omega", "omegaK_over_t", "n", "energy"]
        assert len(body) == 11 * 8
        assert any("config" in c for c in comments)

    def test_rest_frame_values(self, tmp_path):
        main(["spectrum", "--out", str(tmp_path), "--omega-min", "0",
              "--omega-max", "1", "--omega-points", "2"])
        _, _, body = read_csv(tmp_path / "spectrum.csv")
        at_rest = {row["n"]: float(row["energy"]) for row in body
                   if float(row["omega"]) == 0.0}
        assert at_rest["0"] == pytest.approx(-2.0)
        assert at_rest["4"] == pytest.approx(2.0)

    def test_winding_out_of_range_is_config_error(self, tmp_path):
        assert main(["spectrum", "--out", str(tmp_path),
                     "--windings", "0,8"]) == 1

    def test_many_body_species_rejected(self, tmp_path):
        assert main(["spectrum", "--out", str(tmp_path), "--species",
                     "fermion", "--n-up", "1", "--n-down", "1"]) == 1

    def test_svg_written(self, tmp_path):
        main(["spectrum", "--out", str(tmp_path), "--omega-points", "5",
              "--svg"])
        svg = (tmp_path / "spectrum.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestCurrents:
    def test_ground_trace_saturates(self, tmp_path):
        main(["currents", "--out", str(tmp_path), "--omega-points", "41"])
        comments, _, body = read_csv(tmp_path / "currents.csv")
        saturated = [float(r["current"]) for r in body
                     if r["is_ground"] == "true"
                     and float(r["omegaK_over_t"]) > 1.0 + SQRT2 + 0.05]
        assert saturated
        assert all(abs(j - 2.0) < 1e-9 for j in saturated)
        assert any("threshold" in c for c in comments)

    def test_opposite_windings_at_rest(self, tmp_path):
        main(["currents", "--out", str(tmp_path), "--omega-min", "0",
              "--omega-max", "1", "--omega-points", "2"])
        _, _, body = read_csv(tmp_path / "currents.csv")
        at_rest = {row["n"]: float(row["current"]) for row in body
                   if float(row["omega"]) == 0.0}
        for n in range(1, 8):
            assert at_rest[str(n)] == pytest.approx(-at_rest[str(8 - n)],
                                                    abs=1e-12)

    def test_rest_winding_slope(self, tmp_path):
        main(["currents", "--out", str(tmp_path), "--omega-min", "0",
              "--omega-max", "0.5", "--omega-points", "2", "--windings", "0"])
        _, _, body = read_csv(tmp_path / "currents.csv")
        j0, j1 = (float(r["current"]) for r in body)
        w1 = float(body[1]["omega"])
        k_factor = math.sin(math.pi / 4) / 2
        assert (j1 - j0) / w1 == pytest.approx(-2.0 * k_factor, abs=1e-12)


class TestSweep:
    def test_schema_and_determinism(self, tmp_path):
        args = ["sweep", "--species", "fermion", "--n-up", "1", "--n-down",
                "1", "--u", "2.0", "--omega-min", "0", "--omega-max", "6",
                "--omega-points", "7", "--workers", "1"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        _, header, body = read_csv(out_a / "sweep.csv")
        assert header == [
            "control", "omega", "omegaK_over_t", "u_over_t",
            "ground_energy_over_t", "gap_over_t", "current_total_over_t",
            "current_per_particle_over_t", "sector", "degenerate",
            "fast_current", "max_winding"]
        assert len(body) == 7
        assert body_text(out_a / "sweep.csv") == body_text(out_b / "sweep.csv")

    def test_interaction_sweep(self, tmp_path):
        omega = 10.0 / (math.sin(math.pi / 4) / 2)
        assert main(["sweep", "--species", "fermion", "--n-up", "1",
                     "--n-down", "1", "--u-min", "-4", "--u-max", "4",
                     "--u-points", "5", "--omega", str(omega), "--out",
                     str(tmp_path), "--workers", "2"]) == 0
        _, _, body = read_csv(tmp_path / "sweep.csv")
        assert len(body) == 5
        assert all(float(r["current_per_particle_over_t"]) > 1.8
                   for r in body)
        assert all(r["fast_current"] == "true" for r in body)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_is_config_error(self, tmp_path, capsys,
                                                    workers):
        assert main(["sweep", "--omega-points", "3", "--workers", workers,
                     "--out", str(tmp_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", [
        {"tol": 1e-17}, {"dense_threshold": 1, "tol": 1e-17}],
        ids=["dense", "krylov"])
    def test_tolerance_below_rounding_fails_on_both_paths(
            self, tmp_path, capsys, solver):
        # No solve, dense or Krylov, meets a 1e-17 residual bound.
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"solver": solver}))
        assert main(["sweep", "--sites", "6", "--species", "fermion",
                     "--n-up", "1", "--n-down", "1", "--omega-min", "0",
                     "--omega-max", "4", "--omega-points", "5",
                     "--config", str(config_path), "--out",
                     str(tmp_path)]) == 2
        assert "5 grid points failed" in capsys.readouterr().err
        _, _, body = read_csv(tmp_path / "sweep.csv")
        assert len(body) == 5
        assert all(row["sector"] == "failed" for row in body)

    def test_dense_solve_over_the_memory_budget_fails_its_rows(
            self, tmp_path, capsys, monkeypatch):
        # A dense_threshold raised above blocks of 387-398 states, with a
        # budget too small for any dense block above DENSE_THRESHOLD:
        # every point fails before its dense array is allocated.
        monkeypatch.setattr(hamiltonian, "DENSE_MEMORY_BUDGET",
                            3 * hamiltonian.DENSE_THRESHOLD ** 2 * 8)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"solver": {"dense_threshold": 400}}))
        assert main(["sweep", "--sites", "9", "--species", "fermion",
                     "--n-up", "3", "--n-down", "3", "--omega-min", "0",
                     "--omega-max", "1", "--omega-points", "2",
                     "--config", str(config_path), "--out",
                     str(tmp_path)]) == 2
        assert "2 grid points failed" in capsys.readouterr().err
        _, _, body = read_csv(tmp_path / "sweep.csv")
        assert [row["sector"] for row in body] == ["failed", "failed"]

    def test_drive_that_overflows_fails_its_row(self, tmp_path, capsys):
        # The block entries at omega = 1.7e308 overflow to inf: that point
        # fails, the other is written, and the exit code is 2.
        with np.errstate(over="ignore"):
            code = main(["sweep", "--sites", "6", "--species", "fermion",
                         "--n-up", "1", "--n-down", "1", "--u", "4",
                         "--omega-min", "0", "--omega-max", "1.7e308",
                         "--omega-points", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "1 grid points failed" in capsys.readouterr().err
        _, _, body = read_csv(tmp_path / "sweep.csv")
        assert [row["sector"] == "failed" for row in body] == [False, True]

    @pytest.mark.parametrize("refine", [[], ["--refine"]],
                             ids=["sweep", "refine"])
    def test_drive_that_overflows_warns_nothing(self, tmp_path, capsys,
                                                refine):
        # The floors, block entries and residuals overflow at the two
        # strong drives; those rows fail quietly, with no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", "--sites", "6", "--species", "fermion",
                         "--n-up", "1", "--n-down", "1",
                         "--omega-max", "1.7e308", "--omega-points", "3",
                         *refine, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Warning" not in err
        _, _, body = read_csv(tmp_path / "sweep.csv")
        assert [row["sector"] == "failed" for row in body] == [False, True,
                                                               True]

    def test_solver_summary_comment(self, tmp_path):
        assert main(["sweep", "--sites", "8", "--species", "fermion",
                     "--n-up", "2", "--n-down", "2", "--u", "4",
                     "--omega-min", "0", "--omega-max", "40",
                     "--omega-points", "41", "--out", str(tmp_path)]) == 0
        comments, _, _ = read_csv(tmp_path / "sweep.csv")
        (line,) = [c for c in comments if c.startswith("# solver-summary: ")]
        spec = ringlat.SweepSpec(ringlat.make_ring(8),
                                 ringlat.Fermions(2, 2, u=4.0),
                                 ringlat.OmegaGrid(0.0, 40.0, 41))
        assert (json.loads(line[len("# solver-summary: "):])
                == ringlat.run(spec).provenance["solver_summary"])

    def test_polarized_sweep(self, tmp_path):
        assert main(["sweep", "--species", "polarized", "--n", "3",
                     "--omega-min", "20", "--omega-max", "30",
                     "--omega-points", "3", "--out", str(tmp_path)]) == 0
        _, _, body = read_csv(tmp_path / "sweep.csv")
        expected = 2.0 * (1.0 + SQRT2)
        for row in body:
            assert float(row["current_total_over_t"]) == pytest.approx(
                expected, abs=1e-9)


class TestRefine:
    def test_search_checks_run_before_the_sweep(self, tmp_path, capsys,
                                                monkeypatch):
        # A boundary search needs fermions: the command stops before it
        # solves a grid point or writes sweep.csv.
        solves = []
        monkeypatch.setattr(ringlat.sweep, "_solve",
                            lambda *args, **kwargs: solves.append(args))
        assert main(["sweep", "--sites", "6", "--species", "boson",
                     "--n", "2", "--u-min", "0", "--u-max", "4",
                     "--u-points", "3", "--omega", "1", "--refine",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: species: boundary detection needs Fermions")
        assert solves == []
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("grid,roots", [
        (["--omega-min", "0", "--omega-max", "4", "--omega-points", "5"],
         "crossings.csv"),
        (["--u-min", "0", "--u-max", "4", "--u-points", "5", "--omega", "1"],
         "boundary.csv")], ids=["omega", "u"])
    def test_failed_points_leave_rows_and_no_roots(self, tmp_path, capsys,
                                                   grid, roots):
        # No Krylov solve meets a 1e-17 tolerance: every row fails, the
        # search stops at the first point, and no roots file is written.
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {"solver": {"dense_threshold": 1, "tol": 1e-17}}))
        out = tmp_path / "out"
        assert main(["sweep", "--sites", "6", "--species", "fermion",
                     "--n-up", "1", "--n-down", "1", *grid, "--refine",
                     "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("solver failure:")
        _, _, body = read_csv(out / "sweep.csv")
        assert len(body) == 5
        assert all(row["sector"] == "failed" for row in body)
        assert not (out / roots).exists()


class TestCrossings:
    def test_four_site_threshold(self, tmp_path):
        assert main(["crossings", "--sites", "4", "--species", "boson",
                     "--n", "1", "--omega-min", "0", "--omega-max", "6",
                     "--omega-points", "31", "--tol", "1e-7",
                     "--out", str(tmp_path)]) == 0
        _, _, body = read_csv(tmp_path / "crossings.csv")
        assert len(body) == 1
        assert float(body[0]["omega"]) == pytest.approx(2.0, abs=1e-6)
        assert float(body[0]["omegaK_over_t"]) == pytest.approx(1.0, abs=1e-6)


class TestBoundary:
    def test_missing_grid_is_config_error(self, tmp_path):
        assert main(["boundary", "--species", "fermion", "--n-up", "2",
                     "--n-down", "2", "--out", str(tmp_path)]) == 1


class TestVerifyCommand:
    def test_passes_and_prints_lines(self, capsys, monkeypatch,
                                     verify_results):
        # The session's one run of the suite, printed by the command.
        monkeypatch.setattr(ringlat.cli, "run_all_checks",
                            lambda: verify_results)
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 7
        assert "FAIL" not in out


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        config = {"ring": {"sites": 4}, "sweep": {"omega_points": 3},
                  "output": {"dir": str(tmp_path / "from_file")}}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "override"
        assert main(["spectrum", "--config", str(config_path), "--out",
                     str(out_dir)]) == 0
        assert (out_dir / "spectrum.csv").exists()
        _, _, body = read_csv(out_dir / "spectrum.csv")
        assert len(body) == 3 * 4  # file's grid and sites both honored

    def test_config_file_windings_list(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {"ring": {"sites": 4}, "sweep": {"omega_points": 3,
                                             "windings": [0, 2]}}))
        assert main(["spectrum", "--config", str(config_path), "--out",
                     str(tmp_path)]) == 0
        _, _, body = read_csv(tmp_path / "spectrum.csv")
        assert len(body) == 3 * 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["spectrum", "--config", str(bad),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("config,key", [
        # A dimension-8 sweep forced onto the Krylov path.
        ({"solver": {"seed": -1, "dense_threshold": 1}}, "seed"),
        ({"solver": {"dense_threshold": "abc"}}, "solver.dense_threshold"),
        ({"solver": {"tol": "x"}}, "solver.tol"),
        ({"ring": 5}, "ring"),
        # Values of the wrong JSON type, which used to be coerced.
        ({"output": {"svg": "false"}}, "output.svg"),
        ({"ring": {"sites": 8.9}}, "ring.sites"),
        ({"solver": {"workers": True}}, "solver.workers"),
        ({"sweep": {"windings": 3}}, "sweep.windings"),
        ({"sweep": {"windings": [1.7]}}, "sweep.windings"),
        ({"sweep": {"windings": [True, 2]}}, "sweep.windings"),
        # Non-finite tolerances, which used to run and exit 0.
        ({"solver": {"degeneracy_tol": math.nan}}, "degeneracy_tol"),
        ({"solver": {"tol": math.inf}}, "tol"),
        ({"sweep": {"tol": math.inf}}, "bisection_tol"),
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, config,
                                         key):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(config_path),
                     "--omega-points", "3", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: " + key)

    @pytest.mark.parametrize("command", ["sweep", "crossings"])
    def test_polarized_bad_tolerances_are_config_errors(self, tmp_path,
                                                        capsys, command):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(
            {"solver": {"degeneracy_tol": math.nan, "tol": math.inf}}))
        assert main([command, "--species", "polarized", "--n", "2",
                     "--config", str(config_path), "--omega-points", "3",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: tol")

    @pytest.mark.parametrize("command", ["spectrum", "currents"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_omega_points_below_one_is_config_error(self, tmp_path, capsys,
                                                    command, points):
        assert main([command, "--omega-points", points,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: omega_points")

    def test_bad_sites_is_config_error(self, tmp_path):
        assert main(["spectrum", "--sites", "2", "--out", str(tmp_path)]) == 1

    def test_unwritable_out_dir_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file")
        assert main(["spectrum", "--out", str(blocker)]) == 3


def _run_fresh(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that
    imports this checkout's ringlat."""
    src = str(Path(ringlat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout


def _imported_after_start(module: str) -> bool:
    """Whether ``import ringlat, ringlat.cli`` imports ``module``."""
    code = ("import sys, ringlat, ringlat.cli; "
            f"print({module!r} in sys.modules)")
    return _run_fresh(code).strip() == "True"


def test_import_leaves_scipy_optimize_out():
    # Importing scipy.optimize adds about 0.24 s to every start.
    assert not _imported_after_start("scipy.optimize")


def test_import_leaves_arpack_out():
    # scipy.sparse.linalg (ARPACK) serves only the Krylov path; importing
    # it adds about 27 ms and 2 MB to every start.
    assert not _imported_after_start("scipy.sparse.linalg")


def test_import_leaves_scipy_out():
    # A dense grid point calls LAPACK through ctypes and builds its blocks
    # in numpy, so starting the package imports no scipy module at all.
    code = ("import sys, ringlat, ringlat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    assert _run_fresh(code).strip() == "[]"


def test_dense_calls_import_no_scipy(tmp_path):
    # A sweep from the command line, a crossing search and a boundary
    # search whose blocks are all dense never import scipy.
    code = f"""
import sys
import ringlat
from ringlat import cli
assert cli.main(["sweep", "--sites", "8", "--species", "fermion",
                 "--n-up", "2", "--n-down", "2", "--u", "4",
                 "--omega-min", "0", "--omega-max", "40",
                 "--omega-points", "41", "--out", {str(tmp_path)!r}]) == 0
print(ringlat.find_crossings(ringlat.SweepSpec(
    ringlat.make_ring(8), ringlat.Bosons(4, u=1.0),
    ringlat.OmegaGrid(0.0, 8.0, 13), 1e-7)))
ring = ringlat.make_ring(8)
print(ringlat.fast_mode_boundary(ringlat.SweepSpec(
    ring, ringlat.Fermions(2, 2),
    ringlat.InteractionGrid(-23.0, -15.0, 3,
                            omega=10 * ring.t / ring.k_factor),
    bisection_tol=0.02)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    lines = _run_fresh(code).strip().splitlines()
    assert lines[-1] == "[]"
    crossings = ast.literal_eval(lines[-3])
    assert len(crossings) >= 1
    assert (tmp_path / "sweep.csv").is_file()


def test_krylov_run_still_works():
    # The Krylov path loads ARPACK's and csr_matvec's extension modules by
    # file, so it imports neither scipy.sparse nor scipy.sparse.linalg,
    # and finds the dense path's levels.
    code = """
import sys
import ringlat
spec = ringlat.SweepSpec(ringlat.make_ring(6), ringlat.Fermions(2, 1, u=3.0),
                         ringlat.OmegaGrid(0.0, 6.0, 3))
krylov = ringlat.run(spec, options=ringlat.SolverOptions(dense_threshold=1))
print([m for m in ("scipy.sparse", "scipy.sparse.linalg") if m in sys.modules])
print([row.ground_energy for row in krylov.rows])
"""
    imported, energies = _run_fresh(code).strip().splitlines()
    assert imported == "[]"
    spec = ringlat.SweepSpec(ringlat.make_ring(6),
                             ringlat.Fermions(2, 1, u=3.0),
                             ringlat.OmegaGrid(0.0, 6.0, 3))
    dense = [row.ground_energy for row in ringlat.run(spec).rows]
    assert np.allclose(ast.literal_eval(energies), dense, rtol=0, atol=1e-9)


_KRYLOV_CALLS = """
import sys
{first}
import ringlat
from ringlat import cli

spec = ringlat.SweepSpec(ringlat.make_ring(10), ringlat.Fermions(3, 3, u=4.0),
                         ringlat.OmegaGrid(3.0, 3.5, 2))
result = ringlat.run(spec)
print(repr(result.rows))
print(repr(result.provenance["solver_summary"]))
assert cli.main(["sweep", "--sites", "10", "--species", "fermion",
                 "--n-up", "3", "--n-down", "3", "--u", "4",
                 "--omega-min", "3", "--omega-max", "3.5",
                 "--omega-points", "2", "--out", {out!r}]) == 0
with open({out!r} + "/sweep.csv") as csv:
    print(repr([line for line in csv if not line.startswith("# timestamp")]))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

# The real-space API imports scipy.sparse and scipy.sparse.linalg after the
# extension modules were loaded by file, and eigs still finds the levels.
ring = ringlat.make_ring(6, omega=1.3)
species = ringlat.Fermions(2, 1, u=3.0)
op = ringlat.build_operator(ring, species,
                            ringlat.enumerate_basis(ring, species))
krylov = ringlat.lowest_k(op, 3, options=ringlat.SolverOptions(
    dense_threshold=1))
print(float(abs(krylov.values - ringlat.lowest_k(op, 3).values).max()))
"""


def test_krylov_calls_import_no_scipy_package(tmp_path):
    # A Krylov run and a Krylov ringlat sweep of 3+3 fermions on 10 sites
    # load scipy's extension modules by file and leave no scipy module in
    # sys.modules, with the rows of a process that imported
    # scipy.sparse.linalg first.
    def printed(first, out):
        lines = _run_fresh(_KRYLOV_CALLS.format(
            first=first, out=str(tmp_path / out))).strip().splitlines()
        return [line for line in lines if not line.startswith("wrote ")]

    plain = printed("", "plain")
    scipy_first = printed("import scipy.sparse.linalg", "scipy")
    rows, summary, csv, packages, deviation = plain
    assert packages == "[]"
    assert [rows, summary, csv] == scipy_first[:3]
    assert "failed=True" not in rows
    assert float(deviation) < 1e-9


def test_lapack_provenance_and_comment(tmp_path):
    spec = ringlat.SweepSpec(ringlat.make_ring(6), ringlat.Fermions(1, 1),
                             ringlat.OmegaGrid(0.0, 2.0, 2))
    lapack = ringlat.run(spec).provenance["lapack"]
    assert lapack == ringlat.eigen._lapack_provenance()
    assert main(["sweep", "--sites", "6", "--species", "fermion",
                 "--n-up", "1", "--n-down", "1", "--omega-min", "0",
                 "--omega-max", "2", "--omega-points", "2",
                 "--out", str(tmp_path)]) == 0
    comments, _, _ = read_csv(tmp_path / "sweep.csv")
    (line,) = [c for c in comments if c.startswith("# lapack: ")]
    assert json.loads(line[len("# lapack: "):]) == lapack
    assert lapack["library"] == "cython_lapack" or (
        lapack["library"].startswith("libscipy_openblas")
        and lapack["config"].startswith("OpenBLAS") and lapack["threads"] >= 1)
