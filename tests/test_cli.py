import csv
import errno
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vortexscope import cli, imaging
from vortexscope.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_ESTIMATION,
                             EXIT_OK, build_parser, main, parse_states)
from vortexscope.estimation import Calibration
from vortexscope.imaging import (ImageFormatError, IntensityImage,
                                 SensorConfig, read_image)
from vortexscope.polarization import QubitState, infinity_path
from vortexscope.probefield import (BAND_THREAD_PREFIX, ProbeConfig,
                                    TruncationWarning, exact_field)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# an override that leaves its key out of the config
OMIT = object()


def base_config(tmp_path, **overrides):
    cfg = {
        "probe": {"w0_mm": 1.0, "g_mm": 0.05, "l": 1},
        "sensor": {"pixel_pitch_mm": 8.0 / 256, "width": 256, "height": 256},
        "states": {"kind": "explicit", "theta": np.pi / 2, "phi": 0.0},
        "postselections": [[0, 0, -1]],
        "noise": None,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "config.json",
                      {key: value for key, value in cfg.items()
                       if value is not OMIT})


def csv_lines_of(text):
    """Data lines of CSV text: header first, comments skipped."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def csv_lines(path):
    """Data lines of a CSV output: header first, comments skipped."""
    return csv_lines_of(path.read_text())


def write_calibration(tmp_path, g=0.05):
    cal = Calibration(origin=(0.0, 0.0), scale=g)
    return write_json(tmp_path / "cal.json", cal.to_json())


def source_env():
    """Environment for a child interpreter that imports this checkout."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def make_read_only(target, monkeypatch):
    target.chmod(0o444)
    if os.access(target, os.W_OK):
        # a privileged process ignores the mode bits: refuse the write open
        # of that file as the kernel does for anyone else
        real_open = os.open

        def mode_bits_open(path, flags, *args, **kwargs):
            if (os.fspath(path) == str(target)
                    and flags & (os.O_WRONLY | os.O_RDWR)):
                raise PermissionError(errno.EACCES,
                                      os.strerror(errno.EACCES), str(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", mode_bits_open)


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

    def test_path_functions_are_called_through_the_module(self, monkeypatch):
        # the benchmark's tracer times path calls by replacing these module
        # attributes, so the command line must look them up at call time
        from vortexscope import polarization
        equator_path, calls = polarization.equator_path, []

        def spy(steps):
            calls.append(steps)
            return equator_path(steps)

        monkeypatch.setattr(polarization, "equator_path", spy)
        states = parse_states({"states": {"kind": "equator", "steps": 3}})
        assert len(states) == 3
        assert main(["path", "equator", "--steps", "4"]) == EXIT_OK
        assert calls == [3, 4]


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

    @pytest.mark.parametrize("noise, frames", [
        (None, 1.75), ({"photon_budget": 1e6, "seed": 3}, 3)],
        ids=["clean", "noisy"])
    def test_frame_is_freed_once_written(self, tmp_path, noise, frames):
        # a frame kept through the next one's render and noise draw would
        # add a whole float frame to the peak
        cfg = base_config(tmp_path, states={"kind": "equator", "steps": 3},
                          noise=noise)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < frames * 256 * 256 * np.dtype(float).itemsize

    def test_adjacent_seeds_draw_distinct_noise(self, tmp_path):
        cfg = base_config(tmp_path, postselections=[[0, 0, -1], [0, 0, -1]],
                          noise={"photon_budget": 1e5, "seed": 0})
        for seed in ("7", "8"):
            assert main(["simulate", "--config", cfg, "--seed", seed,
                         "--out", str(tmp_path / seed)]) == EXIT_OK
        second = tmp_path / "7" / "img_0000_1.pgm"
        first = tmp_path / "8" / "img_0000_0.pgm"
        payload = 256 * 256 * 2
        assert second.read_bytes()[-payload:] != first.read_bytes()[-payload:]
        assert read_image(second).provenance["noise"]["frame"] == 1

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

    def test_margin_at_the_threshold_by_rounding_does_not_warn(self, tmp_path,
                                                               capsys):
        # figure-eight state 18 of 24 is |H>, whose |w| rounds to 1 + 2^-52:
        # margin 9.999999999999998 at g/w0 = 0.1
        state = infinity_path(24)[18]
        probe = ProbeConfig(w0=1.0, g=0.1)
        assert abs(exact_field(probe, state).weak_value) > 1.0
        sensor = {"pixel_pitch_mm": 8.0 / 64, "width": 64, "height": 64}
        for g, warns in ((0.1, False), (1.0 / 9.9, True)):
            cfg = base_config(tmp_path, sensor=sensor,
                              probe={"w0_mm": 1.0, "g_mm": g, "l": 1},
                              states={"kind": "explicit",
                                      "theta": state.theta, "phi": state.phi})
            assert main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "o")]) == EXIT_OK
            assert ("margin" in capsys.readouterr().err) == warns

    def test_frame_at_the_pole_warns(self, tmp_path, capsys):
        # the least weak frame of all: exact mode renders it, margin 0
        cfg = base_config(tmp_path, states={"kind": "explicit", "theta": 0.0,
                                            "phi": 0.0})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert ("WARNING: the weak value diverges at the projection pole for "
                "state 0" in capsys.readouterr().err)
        row = csv_lines(out / "manifest.csv")[1].split(",")
        assert row[-1] == "0.0"

    def test_manifest_writes_integers_as_integers(self, tmp_path):
        cfg = base_config(tmp_path, states={"kind": "equator", "steps": 2})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(csv_lines(out / "manifest.csv")))
        assert [int(row["index"]) for row in rows] == [0, 1]
        assert [row["l"] for row in rows] == ["1", "1"]
        assert [row["w0_mm"] for row in rows] == ["1.0", "1.0"]

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

    def test_rerun_into_same_directory_matches_fresh_run(self, tmp_path):
        cfg = base_config(tmp_path, states={"kind": "equator", "steps": 3},
                          noise={"photon_budget": 1e5, "seed": 11})
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        # the first run draws other noise, so the rewrite changes payloads
        assert main(["simulate", "--config", cfg, "--seed", "12",
                     "--out", str(again)]) == EXIT_OK
        for out in (again, fresh):
            assert main(["simulate", "--config", cfg,
                         "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in again.iterdir()) == names
        for name in names:
            assert (again / name).read_bytes() == (fresh / name).read_bytes()

    def test_read_only_frame_is_config_error(self, tmp_path, capsys,
                                             monkeypatch):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        frame = out / "img_0000_0.pgm"
        make_read_only(frame, monkeypatch)
        before = frame.read_bytes()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) \
            == EXIT_CONFIG
        assert str(frame) in capsys.readouterr().err
        assert frame.read_bytes() == before


class TestEstimate:
    def simulate_sweep(self, tmp_path, steps=8, postselect=(0, 0, -1)):
        cfg = base_config(tmp_path,
                          sensor={"pixel_pitch_mm": 8.0 / 512,
                                  "width": 512, "height": 512},
                          states={"kind": "equator", "steps": steps},
                          postselections=[list(postselect)])
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

    def test_estimate_maps_each_zip_once(self, tmp_path, monkeypatch):
        images = self.simulate_sweep(tmp_path, steps=3)
        calls = []
        unapply = Calibration.unapply

        def spy(calibration, position):
            calls.append(position)
            return unapply(calibration, position)

        monkeypatch.setattr(Calibration, "unapply", spy)
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out",
                     str(tmp_path / "est.csv"), *images]) == EXIT_OK
        assert len(calls) == len(images) == 3

    def test_estimate_makes_no_float_frame(self, tmp_path, monkeypatch):
        images = self.simulate_sweep(tmp_path, steps=2)

        def no_float_view(image):
            raise AssertionError("estimate made the float view of a frame")

        monkeypatch.setattr(IntensityImage, "pixels", property(no_float_view))
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     *images]) == EXIT_OK
        assert all(row.endswith(",") for row in csv_lines(out_csv)[1:])

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
                     "--out", str(out_csv), *images]) == EXIT_ESTIMATION
        # each frame records its post-selection, so a mislabeled one is
        # refused, never read as a plausible state
        rows = csv_lines(out_csv)[1:]
        assert len(rows) == 12
        assert all("provenance 'postselection': [0.0, 0.0, -1.0] is not "
                   "--postselect [0.0, 1.0, 0.0]" in row for row in rows)
        # frames that record none are read with the flag's, and the fidelity
        # column, scored against the provenance truth, shows the mislabeled
        # post-selection as a systematic miss
        for path in images:
            image = read_image(path)
            del image.provenance["postselection"]
            imaging.write_image(image, path)
        assert main(["estimate", "--cal", cal, "--postselect", "0,1,0",
                     "--out", str(out_csv), *images]) == EXIT_OK
        fidelities = [float(row.split(",")[10]) for row in csv_lines(out_csv)[1:]]
        assert np.mean(fidelities) < 0.9

    def test_frame_is_read_with_its_recorded_postselection(self, tmp_path):
        f = [0.0, 0.3, -0.954]
        images = self.simulate_sweep(tmp_path, steps=6, postselect=f)
        cal = write_calibration(tmp_path)
        out_csv = tmp_path / "est.csv"

        def estimate(postselect, frames):
            return main(["estimate", "--cal", cal, "--postselect", postselect,
                         "--out", str(out_csv), *frames])

        assert estimate("0,0,-1", images) == EXIT_ESTIMATION
        rows = csv_lines(out_csv)[1:]
        assert len(rows) == 6 and all(
            "'postselection': [0.0, 0.2999" in row
            and "is not --postselect [0.0, 0.0, -1.0]" in row for row in rows)
        assert estimate(",".join(map(str, f)), images) == EXIT_OK
        fidelities = [float(row.split(",")[10])
                      for row in csv_lines(out_csv)[1:]]
        assert min(fidelities) > 0.999
        # a frame that records no post-selection is read with the flag's
        image = read_image(images[0])
        del image.provenance["postselection"]
        imaging.write_image(image, images[0])
        assert estimate("0,0,-1", images[:1]) == EXIT_OK
        assert csv_lines(out_csv)[1].endswith(",")

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
        ("maxval line", b"255", "expected 16-bit maxval 65535, got 255"),
        ("comment line", b"# made by hand", "missing provenance comment"),
        ("end", None, "truncated header"),
    ])
    def test_malformed_pgm_header_is_error_row(self, tmp_path, key, value,
                                               named):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", base_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        path = out / "img_0000_0.pgm"
        lines = dict(zip(["magic", "comment line", "size line", "maxval line",
                          "payload"], path.read_bytes().split(b"\n", 4)))
        if key == "end":  # the file ends after the comment line
            del lines["size line"], lines["maxval line"]
            lines["payload"] = b""
        elif key in lines:
            lines[key] = value
        else:
            header = json.loads(lines["comment line"][1:])
            header[key] = value
            lines["comment line"] = b"# " + json.dumps(header).encode()
        path.write_bytes(b"\n".join(lines.values()))
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(path)]) == EXIT_ESTIMATION
        error = list(csv.reader(csv_lines(out_csv)))[1][-1]
        assert error.startswith(f"error: {path}:")
        assert named in error

    def test_short_pgm_payload_is_error_row(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", base_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        path = out / "img_0000_0.pgm"
        path.write_bytes(path.read_bytes()[:-2])
        expected = 256 * 256 * 2
        message = f"payload is {expected - 2} bytes, expected {expected}"
        with pytest.raises(ImageFormatError, match=message):
            read_image(path)
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(path)]) == EXIT_ESTIMATION
        (row,) = csv.DictReader(csv_lines(out_csv))
        assert row["error"] == f"error: {path}: {message}"

    def test_pgm_shrinking_after_size_check_is_error_row(self, tmp_path,
                                                          monkeypatch):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", base_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        path = out / "img_0000_0.pgm"
        path.write_bytes(path.read_bytes()[:-2])
        real_fstat = os.fstat
        # the size check sees the file as it was before a rewrite cut it
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
            st_size=real_fstat(fd).st_size + 2))
        expected = 256 * 256 * 2
        message = f"payload read {expected - 2} bytes, expected {expected}"
        with pytest.raises(ImageFormatError, match=message):
            read_image(path)
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(path)]) == EXIT_ESTIMATION
        (row,) = csv.DictReader(csv_lines(out_csv))
        assert row["error"] == f"error: {path}: {message}"

    def test_error_with_comma_stays_in_its_column(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", base_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        path = out / "img_0000_0.pgm"
        magic, comment, rest = path.read_bytes().split(b"\n", 2)
        header = json.loads(comment[1:])
        header["origin_offset_mm"] = ["a", "b"]
        comment = b"# " + json.dumps(header).encode()
        path.write_bytes(b"\n".join([magic, comment, rest]))
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(path)]) == EXIT_ESTIMATION
        reader = csv.DictReader(csv_lines(out_csv))
        (row,) = list(reader)
        assert len(reader.fieldnames) == 12 and None not in row
        assert row["error"] == (f"error: {path}: header: 'origin_offset_mm' "
                                "must be a non-empty list of finite numbers "
                                "(got ['a', 'b'])")

    def test_csv_image_is_error_row_naming_the_file(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", base_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        frame = out / "img_0000_0.pgm"
        # a well-formed frame in the CSV-with-JSON-sidecar layout, which is
        # not an image format
        path = tmp_path / "frame.csv"
        np.savetxt(path, read_image(frame).pixels, delimiter=",")
        comment = frame.read_bytes().split(b"\n", 2)[1]
        (tmp_path / "frame.csv.json").write_bytes(comment[1:])
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out_csv),
                     str(path)]) == EXIT_ESTIMATION
        (row,) = csv.DictReader(csv_lines(out_csv))
        assert row["error"] == (f"error: {path}: image files are .pgm or "
                                ".pnm graymaps")

    @pytest.mark.parametrize("calibration", [
        {"origin_mm": [0.0, 0.0], "scale_mm": float("nan")},
        {"origin_mm": [0.0, 0.0], "scale_mm": 0.0},
        {"origin_mm": [0.0], "scale_mm": 0.05}],
        ids=["nan-scale", "zero-scale", "short-origin"])
    def test_bad_calibration_is_config_error(self, tmp_path, capsys,
                                             calibration):
        cal = write_json(tmp_path / "cal.json", calibration)
        assert main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
                     "--out", str(tmp_path / "est.csv"),
                     str(tmp_path / "nope.pgm")]) == EXIT_CONFIG
        assert f"calibration file {cal}" in capsys.readouterr().err

    @pytest.mark.parametrize("postselect", ["0,inf,0", "0,nan,-1"])
    def test_nonfinite_postselect_is_config_error(self, tmp_path, capsys,
                                                  postselect):
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", postselect, "--out", str(out_csv),
                     str(tmp_path / "nope.pgm")]) == EXIT_CONFIG
        assert "--postselect" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("scale, shown", [(1e-310, r"inf"),
                                              (1e-300, r"\d\.\d\de\+29\d")],
                             ids=["overflows", "finite"])
    def test_zip_mapped_past_the_cap_is_error_row(self, tmp_path, capsys,
                                                  scale, shown):
        # a valid scale so small that |w| overflows, or nearly: the row
        # names the cap and numpy prints nothing
        images = self.simulate_sweep(tmp_path, steps=2)
        cal = write_json(tmp_path / "cal.json",
                         {"origin_mm": [0, 0], "scale_mm": scale})
        out_csv = tmp_path / "est.csv"
        assert main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
                     "--out", str(out_csv), *images]) == EXIT_ESTIMATION
        rows = list(csv.DictReader(csv_lines(out_csv)))
        for row in rows:
            assert re.fullmatch(
                rf"error: \|w\| = {shown} exceeds the cap 50\.0; the estimate "
                "is ill-conditioned this close to the pole", row["error"])
        assert capsys.readouterr().err == ""

    def test_all_failures_exit_nonzero(self, tmp_path):
        cal = write_calibration(tmp_path)
        assert main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
                     "--out", str(tmp_path / "est.csv"),
                     str(tmp_path / "nope.pgm")]) == EXIT_ESTIMATION


class TestTomo:
    def tomo_config(self, tmp_path, bloch=(0.3, -0.2, 0.4), planes=None,
                    pixels=512, noise=None):
        planes = planes or [[0, 0, -1], [0, 0, 1], [0, 1, 0], [0, -1, 0]]
        return base_config(
            tmp_path,
            sensor={"pixel_pitch_mm": 8.0 / pixels,
                    "width": pixels, "height": pixels},
            states={"kind": "bloch", "x": bloch[0], "y": bloch[1],
                    "z": bloch[2]},
            postselections=planes, noise=noise)

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

    @pytest.mark.parametrize("g", [1e-310, 1e-300])
    def test_weak_value_past_the_float_range_is_refused(self, tmp_path,
                                                         capsys, g):
        cfg = base_config(
            tmp_path, probe={"w0_mm": 1.0, "g_mm": g, "l": 1},
            states={"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4},
            postselections=[[0, 0, -1], [0, 0, 1], [0, 1, 0], [0, -1, 0]])
        assert main(["tomo", "--config", cfg]) == EXIT_ESTIMATION
        assert capsys.readouterr().err == (
            "estimation failed: the projection line of plane 0 leaves the "
            "float range; check its calibration\n")

    def test_needs_two_planes(self, tmp_path):
        cfg = self.tomo_config(tmp_path, planes=[[0, 0, -1]])
        assert main(["tomo", "--config", cfg]) == EXIT_CONFIG

    def test_plane_is_freed_once_read(self, tmp_path):
        # a plane kept through the next one's render and noise draw would
        # add a whole float frame to the peak
        cfg = self.tomo_config(tmp_path, pixels=256,
                               noise={"photon_budget": 1e5, "seed": 4})
        tracemalloc.start()
        try:
            code = main(["tomo", "--config", cfg,
                         "--threshold-fraction", "0.1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 3.25 * 256 * 256 * np.dtype(float).itemsize


class BodyWriteFails:
    """File wrapper whose write of anything past the one-byte placeholder
    stops halfway."""

    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > 1:
            self.fh.write(data[:len(data) // 2])
            raise OSError("device lost")
        return self.fh.write(data)


class TestOutputRewrite:
    """Every output file is rewritten in place, never truncated first."""

    SENSOR = {"pixel_pitch_mm": 8.0 / 128, "width": 128, "height": 128}

    def frames(self, tmp_path):
        cfg = base_config(tmp_path, sensor=self.SENSOR,
                          states={"kind": "equator", "steps": 2})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        return sorted(str(p) for p in out.glob("img_*.pgm"))

    def estimate(self, tmp_path, out, images):
        return main(["estimate", "--cal", write_calibration(tmp_path),
                     "--postselect", "0,0,-1", "--out", str(out), *images])

    def tomo_config(self, tmp_path, **extra):
        return base_config(tmp_path, sensor=self.SENSOR,
                           states={"kind": "bloch", "x": 0.5, "y": -0.3,
                                   "z": 0.6},
                           postselections=[[0, 0, -1], [0, 0, 1], [0, 1, 0],
                                           [0, -1, 0]], **extra)

    def test_shorter_estimates_over_longer_match_a_fresh_write(self, tmp_path):
        images = self.frames(tmp_path)
        again, fresh = tmp_path / "again.csv", tmp_path / "fresh.csv"
        for out, subset in ((again, images), (again, images[:1]),
                            (fresh, images[:1])):
            assert self.estimate(tmp_path, out, subset) == EXIT_OK
        assert again.read_bytes() == fresh.read_bytes()

    def test_shorter_manifest_over_longer_matches_a_fresh_write(self, tmp_path):
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        long = base_config(tmp_path, sensor=self.SENSOR,
                           states={"kind": "equator", "steps": 3})
        assert main(["simulate", "--config", long, "--out", str(again)]) \
            == EXIT_OK
        short = base_config(tmp_path, sensor=self.SENSOR)
        for out in (again, fresh):
            assert main(["simulate", "--config", short, "--out", str(out)]) \
                == EXIT_OK
        assert ((again / "manifest.csv").read_bytes()
                == (fresh / "manifest.csv").read_bytes())

    def test_shorter_tomo_report_over_longer_matches_a_fresh_write(
            self, tmp_path):
        again, fresh = tmp_path / "again.json", tmp_path / "fresh.json"
        long = self.tomo_config(tmp_path, note="x" * 4000)
        assert main(["tomo", "--config", long, "--out", str(again)]) == EXIT_OK
        short = self.tomo_config(tmp_path)
        for out in (again, fresh):
            assert main(["tomo", "--config", short, "--out", str(out)]) \
                == EXIT_OK
        assert again.read_bytes() == fresh.read_bytes()

    def test_interrupted_rewrite_leaves_an_invalid_file(self, tmp_path,
                                                        monkeypatch, capsys):
        images = self.frames(tmp_path)
        out_csv, report = tmp_path / "est.csv", tmp_path / "report.json"
        cfg = self.tomo_config(tmp_path)
        assert self.estimate(tmp_path, out_csv, images) == EXIT_OK
        assert main(["tomo", "--config", cfg, "--out", str(report)]) == EXIT_OK
        assert out_csv.read_bytes().startswith(b"#")
        json.loads(report.read_text())
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs:
                            BodyWriteFails(fdopen(*args, **kwargs)))
        assert self.estimate(tmp_path, out_csv, images) == EXIT_CONFIG
        assert main(["tomo", "--config", cfg, "--out", str(report)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.count("device lost") == 2
        monkeypatch.undo()
        assert out_csv.read_bytes().startswith(b"!")
        with pytest.raises(ValueError):
            json.loads(report.read_text())

    def test_estimate_into_a_pipe_prints_the_csv(self, tmp_path):
        images = self.frames(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "vortexscope.cli", "estimate", "--cal",
             write_calibration(tmp_path), "--postselect", "0,0,-1",
             "--out", "/dev/stdout", *images],
            cwd=tmp_path, env=source_env(), capture_output=True, text=True,
            timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("# provenance: ")
        rows = list(csv.DictReader(csv_lines_of(done.stdout)))
        assert [row["file"] for row in rows[:2]] == images

    def test_read_only_estimates_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch):
        images = self.frames(tmp_path)
        out_csv = tmp_path / "est.csv"
        assert self.estimate(tmp_path, out_csv, images) == EXIT_OK
        make_read_only(out_csv, monkeypatch)
        before = out_csv.read_bytes()
        assert self.estimate(tmp_path, out_csv, images[:1]) == EXIT_CONFIG
        assert str(out_csv) in capsys.readouterr().err
        assert out_csv.read_bytes() == before


@pytest.mark.filterwarnings("ignore::vortexscope.probefield.TruncationWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("noise", [None, {"photon_budget": 1e5, "seed": 1}],
                         ids=["noiseless", "noisy"])
@pytest.mark.parametrize("command", ["simulate", "tomo"])
def test_frame_without_light_is_config_error(tmp_path, capsys, command, noise):
    # a vortex displaced far beyond the sensor leaves every pixel at zero
    states = ({"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4}
              if command == "tomo" else
              {"kind": "explicit", "theta": np.pi / 2, "phi": 0.0})
    cfg = base_config(tmp_path, probe={"w0_mm": 1.0, "g_mm": 1e300, "l": 1},
                      sensor={"pixel_pitch_mm": 8.0 / 64, "width": 64,
                              "height": 64},
                      states=states, postselections=[[0, 0, -1], [0, 0, 1]],
                      noise=noise)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "state" in err and "post-selection 0" in err
    assert "no light" in err and "g_mm = 1e+300" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.filterwarnings("ignore::vortexscope.probefield.TruncationWarning",
                            "error::RuntimeWarning")
@pytest.mark.parametrize("mode, g, refusal", [
    ("approx", 200, "renders non-finite intensities"),
    ("exact", 1e200, "renders no light"),
])
def test_frame_beyond_float_range_is_config_error(tmp_path, capsys, mode, g,
                                                  refusal):
    # the weak-limit Gaussian of a large complex displacement overflows; an
    # exact field displaced by 1e200 squares its offset past the float range
    cfg = base_config(tmp_path, probe={"w0_mm": 1.0, "g_mm": g, "l": 1},
                      sensor={"pixel_pitch_mm": 0.1, "width": 64, "height": 64},
                      states={"kind": "explicit", "theta": 1.0, "phi": 1.3})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--mode", mode,
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "state 0, post-selection 0" in err
    assert refusal in err and f"g_mm = {float(g)!r}" in err
    assert not out.exists() or not list(out.iterdir())


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


@pytest.mark.parametrize("command", ["simulate", "tomo"])
def test_count_above_sixteen_bits_is_config_error(tmp_path, capsys, command):
    states = ({"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4}
              if command == "tomo" else
              {"kind": "explicit", "theta": np.pi / 2, "phi": 0.0})
    cfg = base_config(tmp_path, states=states,
                      sensor={"pixel_pitch_mm": 8.0 / 128, "width": 128,
                              "height": 128},
                      postselections=[[0, 0, -1], [0, 0, 1]],
                      noise={"photon_budget": 1e10, "seed": 1})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert "state" in err and "post-selection 0" in err
    assert "photon budget 1e+10" in err and "65535" in err
    assert not out.exists() or not list(out.iterdir())


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


ZERO_COUPLING = {"probe": {"w0_mm": 1.0, "g_mm": 0.0, "l": 1}}


@pytest.mark.parametrize("command, overrides, flags, named", [
    ("simulate", ZERO_COUPLING, [], "'probe'"),
    ("tomo", ZERO_COUPLING, [], "'probe'"),
    ("simulate", {"postselections": [[0, float("nan"), -1]]}, [],
     "'postselections'"),
    ("tomo", {"postselections": [[0, 0, -1], [0, float("inf"), 0]]}, [],
     "'postselections'"),
    ("simulate", {"postselections": 5}, [], "'postselections'"),
    ("simulate", {"postselections": []}, [],
     "'postselections' must be a non-empty list"),
    ("simulate", {"postselections": "abc"}, [],
     "'postselections' must be a non-empty list"),
    ("simulate", {"states": {"kind": "explicit", "theta": 0.0, "phi": 0.0}},
     ["--mode", "approx"], "state 0, post-selection 0"),
    ("simulate", {"probe": {"w0_mm": 1.0, "g_mm": 0.05, "l": 2},
                  "mode": "exact"}, [], "state 0, post-selection 0"),
    ("simulate", {"states": {"kind": "equator", "steps": "x"}}, [], "'states'"),
    ("simulate", {"states": {"kind": "equator", "steps": 2.9}}, [],
     "'steps' must be an integer"),
    ("simulate", {"probe": {"w0_mm": 1.0, "g_mm": 0.05, "l": 1.7}}, [],
     "'l' must be an integer"),
    ("tomo", {"probe": {"w0_mm": 1.0, "g_mm": 0.05, "l": 2.0}}, [],
     "'l' must be an integer"),
    ("simulate", {"sensor": {"pixel_pitch_mm": 0.03, "width": 32.9,
                             "height": 256}}, [], "'width' must be an integer"),
    ("tomo", {"sensor": {"pixel_pitch_mm": 0.03, "width": 256,
                         "height": "256"}}, [], "'height' must be an integer"),
    ("simulate", {"states": {"kind": "explicit", "theta": "a", "phi": 0.0}},
     [], "'states'"),
    ("simulate", {"states": {"kind": "explicit", "theta": 1.0,
                             "phi": float("nan")}}, [], "'states'"),
    ("tomo", {"states": {"kind": "bloch", "x": float("nan"), "y": 0.0,
                         "z": 0.0}}, [], "'states'"),
    ("tomo", {"states": {"kind": "bloch", "x": 0.0, "y": 0.0, "z": 1.0}}, [],
     "Bloch state at post-selection 0"),
    # no sensor renders the default 1024² CCD, too bright for 16-bit counts
    ("simulate", {"sensor": OMIT, "noise": {"photon_budget": 1e12,
                                            "seed": 1}}, [],
     "state 0, post-selection 0: photon budget 1e+12 draws a count above"),
    ("simulate", {}, ["--seed", "3"], "--seed given but config has no noise"),
    ("simulate", {"mode": "bogus"}, [], "mode must be 'exact' or 'approx'"),
    ("tomo", {"states": {"kind": "explicit", "theta": 1.0, "phi": 0.0}}, [],
     "'tomo' expects a Bloch-vector state source"),
    ("simulate", {"sensor": "bogus"}, [],
     "config field 'sensor': unknown preset 'bogus'"),
    ("simulate", {"states": {"kind": "spiral"}}, [],
     "config field 'states.kind': unknown kind 'spiral'"),
    ("simulate", {"postselections": [[0, 1]]}, [],
     "'postselections': post-selection [0, 1] is not a 3-vector"),
    ("simulate", {"postselections": [[0, 0, 0]]}, [],
     "'postselections': post-selection vector must be nonzero"),
    ("simulate", {"probe": 5}, [], "'probe' must be an object"),
    ("simulate", {"noise": "noiseless"}, [], "config field 'noise'"),
], ids=["simulate-zero-g", "tomo-zero-g", "simulate-nan-postselection",
        "tomo-inf-postselection", "postselections-not-a-list",
        "postselections-empty", "postselections-a-string",
        "approx-at-pole", "exact-with-l2", "steps-not-a-number",
        "fractional-steps", "fractional-l", "whole-float-l", "fractional-width",
        "string-height",
        "theta-not-a-number", "nan-phi", "nan-bloch", "state-at-pole",
        "default-sensor-overflows", "seed-without-noise", "bogus-mode",
        "tomo-pure-source", "unknown-sensor-preset", "unknown-states-kind",
        "two-component-postselection", "zero-postselection",
        "probe-not-an-object", "noiseless-string"])
def test_bad_scenario_is_config_error(tmp_path, capsys, command, overrides,
                                      flags, named):
    scenario = ({"states": {"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4},
                 "postselections": [[0, 0, -1], [0, 0, 1]]}
                if command == "tomo" else {})
    cfg = base_config(tmp_path, **(scenario | overrides))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                 *flags]) == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, text, named", [
    ("simulate", "5", "JSON object"),
    ("tomo", "5", "JSON object"),
    ("simulate", "{probe: 1}", "is not valid JSON"),
], ids=["simulate", "tomo", "not-json"])
def test_config_must_be_an_object(tmp_path, capsys, command, text, named):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path, noise={"photon_budget": 1e5, "seed": 3})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("noise, expected", [
    (None, [("render", False)] * 3),
    ({"photon_budget": 1e5, "seed": 2},
     [("render", True), ("draw", False)] * 3),
], ids=["clean", "noisy"])
def test_frames_release_the_last_frame_at_one_point(monkeypatch, noise,
                                                     expected):
    # the loop body drops each frame, so the frame loop alone decides when
    # it goes: a clean one before the next render, a noisy one after the
    # next render and before its draw
    last = None  # weak reference to the frame yielded before
    seen = []

    def watching(name, function):
        def wrapper(*args, **kwargs):
            if last is not None:
                seen.append((name, last() is not None))
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(imaging, "render",
                        watching("render", imaging.render))
    monkeypatch.setattr(imaging, "add_shot_noise",
                        watching("draw", imaging.add_shot_noise))
    states = [QubitState(np.pi / 2, 0.0), QubitState(1.0, 1.3)]
    postselections = [cli.parse_postselection(v)
                      for v in ([0, 0, -1], [0, 1, 0])]
    for _, _, _, image in cli._frames(
            exact_field, ProbeConfig(w0=1.0, g=0.05), states,
            postselections, SensorConfig(8.0 / 64, 64, 64), noise,
            "state {index}, post-selection {p_index}"):
        last = weakref.ref(image)
        del image
    assert seen == expected


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_field_constructors_are_called_through_the_module(tmp_path,
                                                          monkeypatch):
    # the benchmark's tracer times field construction by replacing these
    # module attributes, so the command line must look them up at call time
    from vortexscope import probefield
    calls = {}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)
        return wrapper

    names = ("exact_field", "approx_field", "mixed_exact_field")
    for name in names:
        monkeypatch.setattr(probefield, name,
                            counting(name, getattr(probefield, name)))
    sensor = {"pixel_pitch_mm": 8.0 / 64, "width": 64, "height": 64}
    pure = base_config(tmp_path, sensor=sensor)
    for mode in ("exact", "approx"):
        assert main(["simulate", "--config", pure, "--mode", mode,
                     "--out", str(tmp_path / mode)]) == EXIT_OK
    mixed = write_json(tmp_path / "tomo.json",
                       json.loads(Path(pure).read_text())
                       | {"states": {"kind": "bloch", "x": 0.5, "y": -0.3,
                                     "z": 0.6},
                          "postselections": [[0, 0, -1], [0, 0, 1],
                                             [0, 1, 0], [0, -1, 0]]})
    assert main(["tomo", "--config", mixed]) == EXIT_OK
    assert set(calls) == set(names)


FOOTPRINT_SCRIPT = """
import json, sys
from vortexscope.cli import main
pure, cal, mixed, out = sys.argv[1:]
frame = out + "/img_0000_0.pgm"
codes = [main(["simulate", "--config", pure, "--out", out]),
         main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
               "--threshold-fraction", "0.1", "--out", out + "/estimates.csv",
               frame, frame]),
         main(["estimate", "--cal", cal, "--postselect", "0,0,-1",
               "--threshold-fraction", "0.1", "--out", out + "/estimates.csv",
               frame]),
         main(["tomo", "--config", mixed]),
         main(["tomo", "--config", mixed, "--out", out + "/tomo.json"]),
         main(["path", "equator", "--steps", "4", "--out", out + "/path.csv"])]
print(json.dumps({"codes": codes, "sparse": "scipy.sparse" in sys.modules}))
"""


def test_pipeline_leaks_no_resource_and_leaves_scipy_sparse_unloaded(tmp_path):
    # scipy.sparse.csgraph alone adds about 11 MiB of peak memory, and
    # scipy.optimize imports scipy.sparse: a fit imports inside its function
    sensor = {"pixel_pitch_mm": 8.0 / 128, "width": 128, "height": 128}
    pure = base_config(tmp_path, sensor=sensor,
                       states={"kind": "explicit", "theta": 1.1, "phi": 2.4},
                       noise={"photon_budget": 1e6, "seed": 3})
    mixed = write_json(tmp_path / "tomo.json",
                       json.loads(Path(pure).read_text())
                       | {"states": {"kind": "bloch", "x": 0.5, "y": -0.3,
                                     "z": 0.6},
                          "postselections": [[0, 0, -1], [0, 0, 1],
                                             [0, 1, 0], [0, -1, 0]]})
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         FOOTPRINT_SCRIPT, pure, write_calibration(tmp_path, g=0.05), mixed,
         str(tmp_path / "out")],
        cwd=tmp_path, env=source_env(), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [EXIT_OK] * 6, "sparse": False}


LABEL_FREE_SCRIPT = """
import json, sys
from vortexscope.cli import main
config, grid, out = sys.argv[1:]
codes = [main(["simulate", "--config", config, "--out", out]),
         main(["path", "equator", "--steps", "4", "--out", out + "/path.csv"]),
         main(["centroid-check", "--grid", grid])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.partition(".")[0] == "scipy")}))
"""


def test_commands_that_never_label_leave_scipy_unloaded(tmp_path):
    # scipy.ndimage alone takes most of the import time and about 27 MiB;
    # only extract_zip's labelling imports it
    sensor = {"pixel_pitch_mm": 8.0 / 128, "width": 128, "height": 128}
    config = base_config(tmp_path, sensor=sensor,
                         noise={"photon_budget": 1e6, "seed": 3})
    grid = write_json(tmp_path / "grid.json", {
        "thetas": [0.7], "phis": [0.9], "g_over_w0": [0.05],
        "resolution": 64})
    done = subprocess.run(
        [sys.executable, "-c", LABEL_FREE_SCRIPT, config, grid,
         str(tmp_path / "out")],
        cwd=tmp_path, env=source_env(), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [EXIT_OK] * 3, "scipy": []}


def test_truncation_warns_but_exits_zero_when_warnings_are_errors(tmp_path):
    # a 3.2 mm field of view, below the 4.1 mm the probe needs
    config = base_config(tmp_path, sensor={"pixel_pitch_mm": 0.05,
                                           "width": 64, "height": 64})
    with pytest.warns(TruncationWarning, match="tails are truncated"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == EXIT_OK


TRACED_LAYERS = ("imaging.render", "imaging.add_shot_noise",
                 "imaging.write_image", "imaging.read_image",
                 "estimation.extract_zip", "estimation.estimate_state",
                 "estimation.reconstruct_mixed", "probefield.construct",
                 "probefield.field_eval")


def test_benchmark_tracer_wraps_the_pipeline(tmp_path, monkeypatch):
    # perfbench/tracing.py replaces module attributes by name and binds
    # their parameters (path, img, threshold_fraction) by name; a renamed
    # or deleted one would break only the traced benchmark runs
    import vortexscope
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing
    modules = [vortexscope.imaging, vortexscope.estimation,
               vortexscope.probefield, vortexscope.weakvalue,
               vortexscope.polarization]
    originals = [(module, name, value) for module in modules
                 for name, value in vars(module).items() if callable(value)]
    sensor = {"pixel_pitch_mm": 8.0 / 128, "width": 128, "height": 128}
    pure = base_config(tmp_path, sensor=sensor,
                       states={"kind": "equator", "steps": 2},
                       noise={"photon_budget": 1e6, "seed": 3})
    mixed = write_json(tmp_path / "tomo.json",
                       json.loads(Path(pure).read_text())
                       | {"states": {"kind": "bloch", "x": 0.5, "y": -0.3,
                                     "z": 0.6},
                          "postselections": [[0, 0, -1], [0, 0, 1],
                                             [0, 1, 0], [0, -1, 0]]})
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.readout = 0
    restore = tracing.install(tracer, vortexscope)
    try:
        codes = [main(["simulate", "--config", pure, "--out", str(out)]),
                 main(["estimate", "--cal", write_calibration(tmp_path),
                       "--postselect", "0,0,-1", "--threshold-fraction",
                       "0.1", "--out", str(out / "estimates.csv"),
                       *sorted(map(str, out.glob("img_*.pgm")))]),
                 main(["tomo", "--config", mixed])]
    finally:
        restore()
    assert codes == [EXIT_OK] * 3
    clean = {span["name"] for span in tracer.spans if "error" not in span}
    assert set(TRACED_LAYERS) <= clean
    assert tracing.layer_metrics(tracer, 1)
    assert all(getattr(module, name) is value
               for module, name, value in originals)


def test_pipeline_runs_no_thread_outside_the_band_pool(tmp_path):
    # perfbench's tracer keeps one span stack and its host-speed probes
    # subtract kernel time from the calls they wrap, so both assume the
    # traced calls run on the main thread; only the band workers, which run
    # numpy kernels alone, may run beside it
    sensor = {"pixel_pitch_mm": 8.0 / 128, "width": 128, "height": 128}
    pure = base_config(tmp_path, sensor=sensor,
                       states={"kind": "equator", "steps": 2},
                       noise={"photon_budget": 1e6, "seed": 3})
    mixed = write_json(tmp_path / "tomo.json",
                       json.loads(Path(pure).read_text())
                       | {"states": {"kind": "bloch", "x": 0.5, "y": -0.3,
                                     "z": 0.6},
                          "postselections": [[0, 0, -1], [0, 0, 1],
                                             [0, 1, 0], [0, -1, 0]]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", pure, "--out", str(out)]) == EXIT_OK
    assert main(["estimate", "--cal", write_calibration(tmp_path),
                 "--postselect", "0,0,-1", "--threshold-fraction", "0.1",
                 "--out", str(out / "estimates.csv"),
                 *sorted(map(str, out.glob("img_*.pgm")))]) == EXIT_OK
    assert main(["tomo", "--config", mixed]) == EXIT_OK
    others = [thread.name for thread in threading.enumerate()
              if thread is not threading.main_thread()]
    assert all(name.startswith(BAND_THREAD_PREFIX) for name in others), others


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

    def test_grid_without_a_sign_vote_reports_the_sign_untested(
            self, tmp_path, capsys):
        # Im w = 0 on every row: no row votes on the sign of y
        grid = write_json(tmp_path / "grid.json", {
            "thetas": [np.pi / 4], "phis": [0.0, np.pi], "g_over_w0": [0.05],
            "resolution": 64})
        assert main(["centroid-check", "--grid", grid]) == EXIT_OK
        out = capsys.readouterr().out
        assert "centroid sign untested" in out
        assert "resolved centroid sign" not in out
        assert "passed" in out

    def test_window_without_light_says_so(self, tmp_path):
        # the vortex sits 1e6 w0 off the window: no pixel holds light
        grid = write_json(tmp_path / "grid.json", {
            "thetas": [0.7], "phis": [0.9], "g_over_w0": [1e6],
            "resolution": 64})
        with pytest.warns(TruncationWarning) as caught:
            assert main(["centroid-check", "--grid", grid]) == EXIT_CHECK
        messages = [str(warning.message) for warning in caught]
        assert any("the window holds no light" in m for m in messages)
        assert not any("tail mass" in m for m in messages)

    @pytest.mark.parametrize("field, value", [
        ("resolution", 64.7),
        ("resolution", "64"),
        ("w0_mm", float("nan")),
        ("w0_mm", "1.0"),
        ("thetas", 0.5),
        ("thetas", [0.0]),
        ("thetas", [2.0]),
        ("resolution", 32),
    ], ids=["fractional-resolution", "string-resolution", "nan-w0",
            "string-w0", "scalar-thetas", "pole-theta", "theta-past-half-pi",
            "small-resolution"])
    def test_malformed_grid_field_is_config_error(self, tmp_path, capsys,
                                                  field, value):
        grid = {"thetas": [np.pi / 4], "phis": [0.9], "g_over_w0": [0.05],
                "resolution": 64, field: value}
        path = write_json(tmp_path / "grid.json", grid)
        assert main(["centroid-check", "--grid", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"grid file {path}" in err
        assert f"'{field}'" in err


@pytest.mark.parametrize("value", ["0.7", "0.5", "0", "-0.1", "nan"])
@pytest.mark.parametrize("command", ["estimate", "tomo"])
def test_bad_threshold_fraction_is_usage_error(tmp_path, capsys, command,
                                               value):
    args = (["estimate", "--cal", write_calibration(tmp_path),
             "--postselect", "0,0,-1", "img.pgm"] if command == "estimate"
            else ["tomo", "--config", base_config(tmp_path)])
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--threshold-fraction", value])
    assert excinfo.value.code == EXIT_CONFIG
    assert "--threshold-fraction" in capsys.readouterr().err


# Each input below was accepted, or crashed with a traceback, before the
# scenario, calibration and image-header readers shared one rule for reals
# and integers.  A patch maps "section.field" or "field" to a new value in
# the scenario (run by `simulate`, or by `tomo` with a Bloch-vector state),
# in the calibration file or in one frame's JSON header.
MALFORMED_INPUTS = [
    ("scenario", {"probe.w0_mm": "1.0"}, "'w0_mm'"),
    ("scenario", {"probe.g_mm": True}, "'g_mm'"),
    ("scenario", {"probe.l": True}, "'l'"),
    ("scenario", {"probe.w0_mm": float("nan"), "sensor": "fast"}, "'w0_mm'"),
    ("scenario", {"probe.w0_mm": 1e200}, "'probe'"),
    ("scenario", {"probe.w0_mm": 1e-300}, "'probe'"),
    ("scenario", {"sensor.pixel_pitch_mm": "0.125"}, "'pixel_pitch_mm'"),
    ("scenario", {"sensor.center_offset_mm": ["0", "0"]},
     "'center_offset_mm'"),
    ("scenario", {"states.theta": "0.7"}, "'theta'"),
    ("scenario", {"states.phi": True}, "'phi'"),
    ("scenario", {"noise.photon_budget": "1e6"}, "'photon_budget'"),
    ("scenario", {"noise.photon_budget": True}, "'photon_budget'"),
    ("scenario", {"noise.seed": True}, "'seed'"),
    ("scenario", {"output_dir": 5}, "'output_dir'"),
    ("tomo", {"probe.l": 2}, "Bloch state at post-selection 0"),
    ("calibration", {"scale_mm": True}, "'scale_mm'"),
    ("calibration", {"origin_mm": ["0", "0"]}, "'origin_mm'"),
    ("calibration", {"orientation_rad": False}, "'orientation_rad'"),
    ("calibration", {"scale_mm": "0.05"}, "'scale_mm'"),
    ("calibration", {"orientation_rad": "0"}, "'orientation_rad'"),
    ("header", {"width": 256.9}, "'width'"),
    ("header", {"width": "256"}, "'width'"),
    ("header", {"pixel_pitch_mm": str(8.0 / 256)}, "'pixel_pitch_mm'"),
    ("header", {"intensity_scale": 0}, "'intensity_scale'"),
    ("header", {"intensity_scale": -1.0}, "'intensity_scale'"),
    ("header", {"provenance.state": {"theta": 0.7}}, "'phi'"),
    ("header", {"provenance.state": {"theta": None, "phi": 0.0}}, "'theta'"),
    ("header", {"provenance.state": {"theta": "0.7", "phi": 0.0}}, "'theta'"),
    ("header", {"provenance.state": {"phi": 0.0}}, "'theta'"),
]


def patched(text: str, patch: dict) -> str:
    """JSON text with each "section.field" or "field" of `patch` replaced."""
    document = json.loads(text)
    for key, value in patch.items():
        *section, field = key.split(".")
        (document[section[0]] if section else document)[field] = value
    return json.dumps(document)


@pytest.mark.parametrize(
    "source, patch, named", MALFORMED_INPUTS,
    ids=[source + "-" + ",".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                                 for k, v in patch.items())
         for source, patch, _ in MALFORMED_INPUTS])
def test_malformed_input_is_refused_naming_its_field(tmp_path, capsys, source,
                                                     patch, named):
    tomo = ({"states": {"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4},
             "postselections": [[0, 0, -1], [0, 0, 1]]}
            if source == "tomo" else {})
    cfg = Path(base_config(tmp_path, noise={"photon_budget": 1e5, "seed": 1},
                           **tomo))
    if source in ("scenario", "tomo"):
        cfg.write_text(patched(cfg.read_text(), patch))
    sim = tmp_path / "sim"
    code = main(["tomo" if tomo else "simulate", "--config", str(cfg),
                 "--out", str(sim)])
    if source in ("scenario", "tomo"):
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        return
    assert code == EXIT_OK
    cal = Path(write_calibration(tmp_path))
    frame = sim / "img_0000_0.pgm"
    if source == "calibration":
        cal.write_text(patched(cal.read_text(), patch))
    else:
        magic, comment, rest = frame.read_bytes().split(b"\n", 2)
        comment = b"# " + patched(comment[1:].decode(), patch).encode()
        frame.write_bytes(b"\n".join([magic, comment, rest]))
    out_csv = tmp_path / "est.csv"
    code = main(["estimate", "--cal", str(cal), "--postselect", "0,0,-1",
                 "--out", str(out_csv), str(frame)])
    if source == "calibration":
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"calibration file {cal}" in err and named in err
    else:
        assert code == EXIT_ESTIMATION
        (row,) = csv.DictReader(csv_lines(out_csv))
        assert row["error"].startswith(f"error: {frame}: ")
        assert named in row["error"]
