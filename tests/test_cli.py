import csv
import json

import numpy as np
import pytest

from vortexscope.cli import (EXIT_CONFIG, EXIT_ESTIMATION, EXIT_OK,
                             build_parser, main)
from vortexscope.estimation import Calibration
from vortexscope.imaging import read_image
from vortexscope.polarization import QubitState


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(tmp_path, **overrides):
    cfg = {
        "probe": {"w0_mm": 1.0, "g_mm": 0.05, "l": 1},
        "sensor": {"pixel_pitch_mm": 8.0 / 256, "width": 256, "height": 256},
        "states": {"kind": "explicit", "theta": np.pi / 2, "phi": 0.0},
        "postselections": [[0, 0, -1]],
        "noise": None,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "config.json", cfg)


def csv_lines(path):
    """Data lines of a CSV output: header first, comments skipped."""
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def write_calibration(tmp_path, g=0.05):
    cal = Calibration(origin=(0.0, 0.0), scale=g)
    return write_json(tmp_path / "cal.json", cal.to_json())


class TestPath:
    def test_equator_csv(self, capsys):
        assert main(["path", "equator", "--steps", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,phi,x,y,z"
        assert len(lines) == 5
        for line in lines[1:]:
            z = float(line.split(",")[4])
            assert abs(z) < 1e-12

    def test_infinity_stays_south(self, capsys):
        assert main(["path", "infinity", "--steps", "24"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(line.split(",")[4]) <= 1e-9 for line in lines)

    def test_bad_steps_is_config_error(self, capsys):
        assert main(["path", "equator", "--steps", "1"]) == EXIT_CONFIG

    def test_output_file(self, tmp_path):
        out = tmp_path / "path.csv"
        assert main(["path", "equator", "--steps", "8", "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("theta,phi")


class TestSimulate:
    def test_south_pole_zip_at_origin(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = csv_lines(out / "manifest.csv")
        assert len(manifest) == 2
        assert (out / "manifest.csv").read_text().startswith("# provenance:")
        img = read_image(out / "img_0000_0.pgm")
        from vortexscope.estimation import extract_zip
        zip_est = extract_zip(img)
        assert np.hypot(*zip_est.position) < img.sensor.pixel_pitch

    def test_deterministic_outputs(self, tmp_path):
        cfg = base_config(tmp_path,
                          states={"kind": "equator", "steps": 3},
                          noise={"photon_budget": 1e5, "seed": 11})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        for name in ("manifest.csv", "img_0000_0.pgm", "img_0002_0.pgm"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json",
                         {"sensor": "fast",
                          "states": {"kind": "explicit", "theta": 0.1, "phi": 0}})
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert "probe" in capsys.readouterr().err

    def test_bad_postselection_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path, postselections=[[1, 0, 0]])
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        assert "orthogonal" in capsys.readouterr().err

    def test_margin_warning_on_stderr(self, tmp_path, capsys):
        cfg = base_config(tmp_path,
                          probe={"w0_mm": 1.0, "g_mm": 0.3, "l": 1},
                          states={"kind": "explicit", "theta": np.pi / 4,
                                  "phi": 0.0})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == EXIT_OK
        assert "margin" in capsys.readouterr().err

    def test_mixed_source_rejected(self, tmp_path):
        cfg = base_config(tmp_path,
                          states={"kind": "bloch", "x": 0.1, "y": 0.0, "z": 0.2})
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("offset", [[], [1.0], 5])
    def test_malformed_center_offset_is_config_error(self, tmp_path, capsys,
                                                     offset):
        cfg = base_config(tmp_path, sensor={"pixel_pitch_mm": 8.0 / 256,
                                            "width": 256, "height": 256,
                                            "center_offset_mm": offset})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        assert "sensor" in capsys.readouterr().err


class TestEstimate:
    def simulate_sweep(self, tmp_path, steps=8, postselect=(0, 0, -1)):
        cfg = base_config(tmp_path,
                          sensor={"pixel_pitch_mm": 8.0 / 512,
                                  "width": 512, "height": 512},
                          states={"kind": "equator", "steps": steps})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        return sorted(str(p) for p in out.glob("img_*.pgm"))

    def test_estimate_recovers_states(self, tmp_path, capsys):
        images = self.simulate_sweep(tmp_path)
        cal = write_calibration(tmp_path)
        out_csv = tmp_path / "est.csv"
        code = main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
                     "--out", str(out_csv), *images])
        assert code == EXIT_OK
        report = capsys.readouterr().out
        assert "mean fidelity" in report
        mean_fid = float(report.split("mean fidelity over")[1].split(":")[1].split()[0])
        assert mean_fid >= 0.999
        rows = csv_lines(out_csv)
        assert rows[0].startswith("file,zip_x_mm")
        assert len(rows) == len(images) + 1

    def test_wrong_postselection_label_fails_systematically(self, tmp_path):
        cfg = base_config(tmp_path,
                          sensor={"pixel_pitch_mm": 8.0 / 512,
                                  "width": 512, "height": 512},
                          states={"kind": "infinity", "steps": 12})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        images = sorted(str(p) for p in out.glob("img_*.pgm"))
        cal = write_calibration(tmp_path)
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", cal, "--postselect", "0,1,0",
                     "--out", str(out_csv), *images]) == EXIT_OK
        # the fidelity column is scored against the provenance truth, so a
        # mislabeled post-selection shows up as a systematic miss
        fidelities = [float(row.split(",")[10]) for row in csv_lines(out_csv)[1:]]
        assert np.mean(fidelities) < 0.9

    def test_empty_image_list_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--cal", "cal.json", "--postselect", "0,0,-1"])
        assert excinfo.value.code == EXIT_CONFIG

    def test_per_image_failures_recorded(self, tmp_path, capsys):
        images = self.simulate_sweep(tmp_path, steps=2)
        bad = tmp_path / "missing.pgm"
        cal = write_calibration(tmp_path)
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
                     "--out", str(out_csv), images[0], str(bad),
                     images[1]]) == EXIT_OK
        rows = csv_lines(out_csv)
        assert len(rows) == 4
        assert "error" in rows[2]

    @pytest.mark.parametrize("key, value, named", [
        ("origin_offset_mm", [], "origin_offset_mm"),
        ("pixel_pitch_mm", "x", "pixel_pitch_mm"),
        ("size line", b"wide 256", "width"),
    ])
    def test_malformed_pgm_header_is_error_row(self, tmp_path, key, value,
                                               named):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", base_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        path = out / "img_0000_0.pgm"
        magic, comment, size, rest = path.read_bytes().split(b"\n", 3)
        if key == "size line":
            size = value
        else:
            header = json.loads(comment[1:])
            header[key] = value
            comment = b"# " + json.dumps(header).encode()
        path.write_bytes(b"\n".join([magic, comment, size, rest]))
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(path)]) == EXIT_ESTIMATION
        error = csv_lines(out_csv)[1].split(",")[-1]
        assert error.startswith(f"error: {path}:")
        assert named in error

    def test_error_with_comma_stays_in_its_column(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1.0,2.0\n1.0,2.0,3.0\n")
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(ragged)]) == EXIT_ESTIMATION
        reader = csv.DictReader(csv_lines(out_csv))
        (row,) = list(reader)
        assert len(reader.fieldnames) == 12 and None not in row
        assert row["error"] == (f"error: {ragged}: ragged rows with "
                                "widths [2, 3]")

    def test_all_failures_exit_nonzero(self, tmp_path):
        cal = write_calibration(tmp_path)
        assert main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
                     "--out", str(tmp_path / "est.csv"),
                     str(tmp_path / "nope.pgm")]) == EXIT_ESTIMATION


class TestTomo:
    def tomo_config(self, tmp_path, bloch=(0.3, -0.2, 0.4), planes=None,
                    pixels=512):
        planes = planes or [[0, 0, -1], [0, 0, 1], [0, 1, 0], [0, -1, 0]]
        return base_config(
            tmp_path,
            sensor={"pixel_pitch_mm": 8.0 / pixels,
                    "width": pixels, "height": pixels},
            states={"kind": "bloch", "x": bloch[0], "y": bloch[1],
                    "z": bloch[2]},
            postselections=planes)

    def read_report(self, capsys):
        return json.loads(capsys.readouterr().out)

    def test_four_plane_recovery(self, tmp_path, capsys):
        cfg = self.tomo_config(tmp_path)
        assert main(["tomo", "--config", cfg]) == EXIT_OK
        report = self.read_report(capsys)
        assert report["recovery_error"] < 5e-3
        assert report["images_used"] == 4

    def test_two_well_chosen_planes(self, tmp_path, capsys):
        # two lines give no error averaging, so use the finer grid
        cfg = self.tomo_config(tmp_path, planes=[[0, 0, -1], [0, 1, 0]],
                               pixels=1024)
        assert main(["tomo", "--config", cfg]) == EXIT_OK
        assert self.read_report(capsys)["recovery_error"] < 5e-3

    def test_pure_state_agrees_with_pure_pipeline(self, tmp_path, capsys):
        state = QubitState(1.1, 2.4)
        b = state.bloch()
        cfg = self.tomo_config(tmp_path, bloch=(b.x, b.y, b.z))
        assert main(["tomo", "--config", cfg]) == EXIT_OK
        report = self.read_report(capsys)
        assert report["recovery_error"] < 1e-2
        assert report["uhlmann_fidelity"] > 0.9999

    def test_degenerate_planes_error_out(self, tmp_path, capsys):
        cfg = self.tomo_config(tmp_path, bloch=(0.0, 0.0, 0.0),
                               planes=[[0, 0, -1], [0, 0, 1]])
        assert main(["tomo", "--config", cfg]) == EXIT_ESTIMATION
        assert "parallel" in capsys.readouterr().err

    def test_needs_two_planes(self, tmp_path):
        cfg = self.tomo_config(tmp_path, planes=[[0, 0, -1]])
        assert main(["tomo", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.0, -1.0,
                                    1e300, [1e6]],
                         ids=["nan", "inf", "zero", "negative", "huge", "list"])
@pytest.mark.parametrize("command", ["simulate", "tomo"])
def test_bad_photon_budget_is_config_error(tmp_path, capsys, command, budget):
    states = ({"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4}
              if command == "tomo" else
              {"kind": "explicit", "theta": np.pi / 2, "phi": 0.0})
    cfg = base_config(tmp_path, states=states,
                      postselections=[[0, 0, -1], [0, 0, 1]],
                      noise={"photon_budget": budget, "seed": 1})
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "o")]) == EXIT_CONFIG
    assert "noise" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 64],
                         ids=["negative", "fraction", "too-large"])
@pytest.mark.parametrize("command", ["simulate", "tomo"])
def test_bad_noise_seed_is_config_error(tmp_path, capsys, command, seed):
    states = ({"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4}
              if command == "tomo" else
              {"kind": "explicit", "theta": np.pi / 2, "phi": 0.0})
    cfg = base_config(tmp_path, states=states,
                      postselections=[[0, 0, -1], [0, 0, 1]],
                      noise={"photon_budget": 1e5, "seed": seed})
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "o")]) == EXIT_CONFIG
    assert "noise" in capsys.readouterr().err


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path, noise={"photon_budget": 1e5, "seed": 3})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


class TestCentroidCheck:
    def test_small_grid_passes_and_reports_sign(self, tmp_path, capsys):
        grid = write_json(tmp_path / "grid.json", {
            "thetas": [np.pi / 8, np.pi / 4],
            "phis": [0.9, 4.0],
            "g_over_w0": [0.05, 1.0],
            "resolution": 256,
        })
        assert main(["centroid-check", "--grid", grid]) == EXIT_OK
        out = capsys.readouterr().out
        assert "resolved centroid sign s = -1" in out
        assert "passed" in out

    def test_unknown_config_file(self, capsys):
        assert main(["centroid-check", "--grid", "no-such.json"]) == EXIT_CONFIG
