import csv
import json
import math

import pytest

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

    def test_polarized_sweep(self, tmp_path):
        assert main(["sweep", "--species", "polarized", "--n", "3",
                     "--omega-min", "20", "--omega-max", "30",
                     "--omega-points", "3", "--out", str(tmp_path)]) == 0
        _, _, body = read_csv(tmp_path / "sweep.csv")
        expected = 2.0 * (1.0 + SQRT2)
        for row in body:
            assert float(row["current_total_over_t"]) == pytest.approx(
                expected, abs=1e-9)


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
    def test_passes_and_prints_lines(self, capsys):
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
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, config,
                                         key):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(config_path),
                     "--omega-points", "3", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: " + key)

    def test_bad_sites_is_config_error(self, tmp_path):
        assert main(["spectrum", "--sites", "2", "--out", str(tmp_path)]) == 1

    def test_unwritable_out_dir_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file")
        assert main(["spectrum", "--out", str(blocker)]) == 3
