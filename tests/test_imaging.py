import json
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vortexscope import imaging
from vortexscope.estimation import extract_zip
from vortexscope.imaging import (ImageFormatError, IntensityImage,
                                 SensorConfig, add_shot_noise, fast_sensor,
                                 experiment_ccd, read_image, render, write_image)
from vortexscope.polarization import BlochVector, QubitState
from vortexscope.probefield import (ProbeConfig, TruncationWarning,
                                    approx_field, exact_field, lg_field,
                                    mixed_exact_field, quadrature_norm)

W0 = 1.0
PROBE = ProbeConfig(w0=W0, g=0.05)


class TestSensorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorConfig(pixel_pitch=0.0, width=64, height=64)
        with pytest.raises(ValueError):
            SensorConfig(pixel_pitch=0.01, width=8, height=64)

    def test_experiment_ccd_geometry(self):
        ccd = experiment_ccd()
        assert ccd.pixel_pitch == pytest.approx(6.45e-3)
        assert ccd.width == ccd.height == 1024

    def test_coordinates_are_centered(self):
        sensor = fast_sensor(W0, pixels=64)
        xg, yg = sensor.coordinates()
        assert xg.mean() == pytest.approx(0.0, abs=1e-15)
        assert yg.mean() == pytest.approx(0.0, abs=1e-15)
        assert xg[0, 1] - xg[0, 0] == pytest.approx(sensor.pixel_pitch)


class TestRender:
    def test_centered_vortex_has_rotation_symmetry(self):
        img = render(lg_field(PROBE), fast_sensor(W0, pixels=128))
        assert np.max(np.abs(img.pixels - img.pixels[::-1, ::-1])) < 1e-12

    def test_peak_ring_radius(self):
        sensor = fast_sensor(W0, pixels=256)
        img = render(lg_field(PROBE), sensor)
        i, j = np.unravel_index(np.argmax(img.pixels), img.pixels.shape)
        xg, yg = img.coordinates()
        radius = np.hypot(xg[i, j], yg[i, j])
        assert abs(radius - np.sqrt(2) * W0) <= sensor.pixel_pitch

    def test_exact_vs_approx_within_weak_margin(self):
        sensor = fast_sensor(W0, pixels=256)
        for state in (QubitState(np.pi / 4, 0), QubitState(np.pi / 4, np.pi / 2)):
            exact = render(exact_field(PROBE, state), sensor)
            approx = render(approx_field(PROBE, state), sensor)
            sup = np.max(np.abs(exact.pixels - approx.pixels))
            assert sup < 0.01 * exact.max_intensity()

    def test_resolution_consistency(self):
        fine = render(lg_field(PROBE), fast_sensor(W0, pixels=512)).pixels
        coarse = render(lg_field(PROBE), fast_sensor(W0, pixels=256)).pixels
        downsampled = fine.reshape(256, 2, 256, 2).mean(axis=(1, 3))
        assert np.max(np.abs(downsampled - coarse)) < 1e-3 * coarse.max()

    def test_total_intensity_matches_quadrature_norm(self):
        field = exact_field(PROBE, QubitState(0.9, 1.0))
        sensor = fast_sensor(W0, pixels=1024, extent_factor=16.0)
        img = render(field, sensor)
        total = img.pixels.sum() * sensor.pixel_pitch ** 2
        assert total == pytest.approx(quadrature_norm(field, 1024), abs=1e-4)

    def test_partition_independence_is_bit_exact(self):
        field = exact_field(PROBE, QubitState(0.7, 2.0))
        sensor = fast_sensor(W0, pixels=128)
        whole = render(field, sensor).pixels
        for chunk in (1, 5, 32, 128):
            parts = render(field, sensor, rows_per_chunk=chunk).pixels
            assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("make", [
        lambda: exact_field(PROBE, QubitState(0.7, 2.0),
                            BlochVector(0.0, np.sin(0.4), -np.cos(0.4))),
        lambda: approx_field(ProbeConfig(w0=W0, g=0.05, l=2),
                             QubitState(0.7, 2.0)),
        lambda: mixed_exact_field(PROBE, BlochVector(0.3, -0.2, 0.4)),
    ], ids=["exact-tilted-postselection", "approx-l2-complex-shift", "mixed"])
    def test_open_grid_matches_pointwise(self, make):
        field = make()
        sensor = fast_sensor(W0, pixels=128)
        pointwise = field.intensity(*sensor.coordinates())
        rendered = render(field, sensor).pixels
        assert np.max(np.abs(rendered - pointwise)) <= 1e-14 * pointwise.max()

    @pytest.mark.parametrize("make", [
        lambda: exact_field(PROBE, QubitState(0.7, 2.0)),
        lambda: mixed_exact_field(PROBE, BlochVector(0.3, -0.2, 0.4)),
    ], ids=["exact", "mixed"])
    @pytest.mark.parametrize("chunk, calls", [(None, 1), (5, 26), (128, 1)])
    def test_one_intensity_call_per_chunk(self, make, chunk, calls):
        field = make()

        class Counting:
            shapes = []

            def __getattr__(self, name):
                return getattr(field, name)

            def intensity(self, x, y):
                self.shapes.append(np.shape(y))
                return field.intensity(x, y)

        counting = Counting()
        render(counting, fast_sensor(W0, pixels=128), rows_per_chunk=chunk)
        assert len(counting.shapes) == calls

    @pytest.mark.parametrize("l", [1, 2])
    def test_pixel_on_weak_limit_zero_is_nonnegative(self, l):
        # rounding takes the intensity polynomial slightly below 0 at an
        # exact zero for many states; the centre pixel sits on that zero
        cfg = ProbeConfig(w0=W0, g=0.05, l=l)
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            field = approx_field(cfg, QubitState(1.0, phi))
            shift = field.terms[0][1]
            sensor = SensorConfig(pixel_pitch=0.2, width=33, height=33,
                                  center_offset=(shift.real, shift.imag))
            pixels = render(field, sensor).pixels
            assert 0 <= pixels[16, 16] <= 1e-15 * pixels.max()

    def test_truncation_warning_attached(self):
        small = SensorConfig(pixel_pitch=0.01, width=64, height=64)  # 0.64 mm fov
        with pytest.warns(TruncationWarning):
            img = render(lg_field(PROBE), small)
        assert img.provenance["warnings"]

    def test_provenance_records_probe(self):
        img = render(exact_field(PROBE, QubitState(np.pi / 4, 0)),
                     fast_sensor(W0, pixels=64))
        assert img.provenance["probe"] == {"w0": W0, "g": 0.05, "l": 1}
        assert img.provenance["mode"] == "exact"


class TestShotNoise:
    def setup_method(self):
        self.img = render(lg_field(PROBE), fast_sensor(W0, pixels=128))

    def test_deterministic_under_seed(self):
        a = add_shot_noise(self.img, 1e5, seed=7)
        b = add_shot_noise(self.img, 1e5, seed=7)
        assert np.array_equal(a.pixels, b.pixels)
        c = add_shot_noise(self.img, 1e5, seed=8)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_zero_pixels_stay_zero(self):
        pixels = self.img.pixels.copy()
        pixels[:10, :10] = 0.0
        img = IntensityImage(pixels, self.img.sensor, dict(self.img.provenance))
        noisy = add_shot_noise(img, 1e6, seed=3)
        assert np.all(noisy.pixels[:10, :10] == 0.0)

    @pytest.mark.parametrize("budget", [1e3, 1e5])
    def test_total_counts_scale_like_poisson(self, budget):
        rel_dev = [abs(add_shot_noise(self.img, budget, seed=s).pixels.sum()
                       - budget) / budget for s in range(12)]
        # Poisson: relative sd of the total is 1/sqrt(N)
        assert np.mean(rel_dev) < 4.0 / np.sqrt(budget)
        assert np.mean(rel_dev) > 0.05 / np.sqrt(budget)

    def test_metadata_untouched(self):
        noisy = add_shot_noise(self.img, 1e4, seed=1)
        assert noisy.sensor == self.img.sensor
        for key, value in self.img.provenance.items():
            if key != "noise":
                assert noisy.provenance[key] == value
        assert noisy.provenance["noise"] == {"photon_budget": 1e4, "seed": 1,
                                             "frame": 0}

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            add_shot_noise(self.img, 0.0, seed=1)

    @pytest.mark.parametrize("budget", [-1.0, np.nan, np.inf, 1e300])
    def test_unusable_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="photon budget"):
            add_shot_noise(self.img, budget, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 64, 2 ** 128, "7"])
    def test_unusable_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            add_shot_noise(self.img, 1e4, seed=seed)

    def test_seed_range_ends(self):
        for seed in (0, np.int64(5), 2 ** 64 - 1):
            assert add_shot_noise(self.img, 1e4, seed=seed) \
                .provenance["noise"]["seed"] == seed


def banded_reference(img, budget, seed, frame):
    """Serial draw of the documented scheme: band b of frame f in run s is
    Generator(SFC64(SeedSequence(s, spawn_key=(f, b)))).poisson."""
    mean = img.pixels * (budget / img.pixels.sum())
    rows = imaging._NOISE_ROWS
    bands = [np.random.Generator(np.random.SFC64(
                 np.random.SeedSequence(seed, spawn_key=(frame, band))))
             .poisson(mean[start:start + rows])
             for band, start in enumerate(range(0, len(mean), rows))]
    return np.concatenate(bands).astype(float)


class TestNoiseStreams:
    def setup_method(self):
        # 150 rows: two full bands and a partial one
        sensor = SensorConfig(pixel_pitch=8.0 / 128, width=128, height=150)
        self.img = render(lg_field(PROBE), sensor)

    @pytest.mark.parametrize("frame", [0, 5])
    def test_default_pool_matches_serial_reference(self, frame):
        noisy = add_shot_noise(self.img, 1e6, seed=11, frame=frame)
        assert np.array_equal(noisy.pixels,
                              banded_reference(self.img, 1e6, 11, frame))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_does_not_change_pixels(self, monkeypatch, workers):
        default = add_shot_noise(self.img, 1e6, seed=11, frame=2).pixels
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the band writers finely
        try:
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(imaging, "_noise_threads", pool)
                pooled = add_shot_noise(self.img, 1e6, seed=11, frame=2).pixels
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, default)
        assert np.array_equal(pooled, banded_reference(self.img, 1e6, 11, 2))

    def test_forked_child_draws_parent_bytes(self):
        # the parent's pool exists before the fork; the child must not
        # queue work on threads it did not inherit
        expected = add_shot_noise(self.img, 1e5, seed=4, frame=1).pixels
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=lambda: send.send_bytes(
            add_shot_noise(self.img, 1e5, seed=4, frame=1).pixels.tobytes()))
        child.start()
        try:
            assert receive.poll(60), "forked child did not finish its draw"
            assert receive.recv_bytes() == expected.tobytes()
            child.join(60)
            assert child.exitcode == 0
        finally:
            child.kill()
            child.join()


class TestImageIO:
    def setup_method(self):
        self.img = render(exact_field(PROBE, QubitState(np.pi / 4, 0)),
                          fast_sensor(W0, pixels=64))
        self.img.provenance["state"] = {"theta": np.pi / 4, "phi": 0.0}

    def test_csv_roundtrip_exact(self, tmp_path):
        path = tmp_path / "img.csv"
        write_image(self.img, path)
        back = read_image(path)
        assert np.array_equal(back.pixels, self.img.pixels)
        assert back.sensor == self.img.sensor
        assert back.provenance["state"]["theta"] == pytest.approx(np.pi / 4)

    def test_pgm_roundtrip_quantization_bound(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_image(self.img, path)
        back = read_image(path)
        peak = self.img.max_intensity()
        assert np.max(np.abs(back.pixels - self.img.pixels)) <= peak / 65535
        assert back.sensor == self.img.sensor

    @pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                        np.asfortranarray], ids=["C", "F"])
    def test_pgm_payload_is_rounded_scaled_pixels(self, tmp_path, layout):
        img = IntensityImage(layout(self.img.pixels), self.img.sensor, {})
        path = tmp_path / "img.pgm"
        write_image(img, path)
        scale = img.max_intensity() / 65535
        expected = np.rint(img.pixels / scale).astype(">u2").tobytes()
        assert path.read_bytes()[-len(expected):] == expected

    @pytest.mark.parametrize("height", [37, 2 * imaging._QUANTIZE_ROWS + 37])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                        np.asfortranarray], ids=["C", "F"])
    def test_partial_row_block_payload(self, tmp_path, layout, height):
        sensor = SensorConfig(pixel_pitch=0.1, width=100, height=height)
        pixels = np.random.default_rng(5).exponential(size=(height, 100))
        img = IntensityImage(layout(pixels), sensor, {})
        path = tmp_path / "img.pgm"
        write_image(img, path)
        scale = img.max_intensity() / 65535
        expected = np.rint(pixels / scale).astype(">u2").tobytes()
        assert path.read_bytes()[-len(expected):] == expected
        assert np.array_equal(read_image(path).pixels,
                              np.rint(pixels / scale) * scale)

    def test_pgm_rewrite_over_larger_frame_matches_fresh_write(self, tmp_path):
        path, fresh = tmp_path / "img.pgm", tmp_path / "fresh.pgm"
        big = IntensityImage(np.ones((1024, 1024)), experiment_ccd(), {})
        write_image(big, path)
        write_image(self.img, path)
        write_image(self.img, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_interrupted_pgm_rewrite_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "img.pgm"
        write_image(self.img, path)
        other = render(exact_field(PROBE, QubitState(np.pi / 3, 1.0)),
                       self.img.sensor)
        fdopen = os.fdopen

        class PayloadWriteFails:
            """File wrapper whose payload write stops halfway."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if isinstance(data, np.ndarray):
                    self.fh.write(data.tobytes()[:data.nbytes // 2])
                    raise OSError("device lost")
                return self.fh.write(data)

        monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs:
                            PayloadWriteFails(fdopen(*args, **kwargs)))
        with pytest.raises(OSError, match="device lost"):
            write_image(other, path)
        monkeypatch.undo()
        with pytest.raises(ImageFormatError,
                           match="expected binary graymap magic P5, got b'P0'"):
            read_image(path)

    def test_rewrite_during_read_waits_for_the_read(self, tmp_path,
                                                    monkeypatch):
        path, fresh = tmp_path / "img.pgm", tmp_path / "fresh.pgm"
        write_image(self.img, path)
        old = read_image(path)
        other = render(exact_field(PROBE, QubitState(np.pi / 3, 1.0)),
                       self.img.sensor)
        write_image(other, fresh)
        real_fstat = os.fstat
        writers = []

        def fstat_then_rewrite(fd):
            # between the header read and the payload read, rewrite the file
            if not writers:
                writers.append(threading.Thread(target=write_image,
                                                args=(other, path)))
                writers[0].start()
                time.sleep(0.05)
            return real_fstat(fd)

        monkeypatch.setattr(os, "fstat", fstat_then_rewrite)
        during = read_image(path)
        monkeypatch.undo()
        writers[0].join(timeout=10)
        assert not writers[0].is_alive()
        assert np.array_equal(during.pixels, old.pixels)
        assert during.provenance == old.provenance
        assert np.array_equal(read_image(path).pixels, read_image(fresh).pixels)

    def test_all_zero_pgm_roundtrips(self, tmp_path):
        zero = IntensityImage(np.zeros((64, 64)), self.img.sensor, {})
        write_image(zero, tmp_path / "zero.pgm")
        back = read_image(tmp_path / "zero.pgm")
        assert np.array_equal(back.pixels, zero.pixels)

    def test_negative_intensity_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_image(self.img, path)
        rows = path.read_text().splitlines()
        rows[3] = "-1.0" + rows[3][rows[3].index(","):]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ImageFormatError, match="negative"):
            read_image(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_image(self.img, path)
        rows = path.read_text().splitlines()
        rows[3] = "nan" + rows[3][rows[3].index(","):]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ImageFormatError, match="NaN"):
            read_image(path)

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_image(self.img, path)
        rows = path.read_text().splitlines()
        rows[5] = rows[5] + ",not-a-number"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ImageFormatError, match=":6"):
            read_image(path)

    def test_geometry_mismatch_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        write_image(self.img, path)
        sidecar = tmp_path / "img.csv.json"
        header = json.loads(sidecar.read_text())
        header["width"] = 32
        sidecar.write_text(json.dumps(header))
        with pytest.raises(ImageFormatError, match="geometry"):
            read_image(path)

    def test_pgm_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_image(self.img, path)
        data = bytearray(path.read_bytes())
        # corrupt the dimension line (64 64 -> 64 63): payload no longer fits
        idx = data.rindex(b"64 64")
        data[idx:idx + 5] = b"64 63"
        path.write_bytes(bytes(data))
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(self.img, tmp_path / "img.tiff")

    def test_pgm_read_keeps_counts_and_scales_them_on_demand(self, tmp_path):
        path = tmp_path / "noisy.pgm"
        write_image(add_shot_noise(self.img, 1e6, seed=3), path)
        _, comment, _, _, payload = path.read_bytes().split(b"\n", 4)
        scale = json.loads(comment[1:])["intensity_scale"]
        raw = np.frombuffer(payload, dtype=">u2").reshape(64, 64)
        back = read_image(path)
        assert back.stored.dtype == np.uint16 and back.scale == scale
        assert np.array_equal(back.stored, raw)
        assert back.pixels.tobytes() == (raw.astype(float) * scale).tobytes()
        assert back.pixels is back.pixels
        assert not back.stored.flags.writeable
        assert not back.pixels.flags.writeable
        assert back.max_intensity() == back.pixels.max()

    def test_noisy_csv_roundtrip(self, tmp_path):
        noisy = add_shot_noise(self.img, 1e4, seed=9)
        path = tmp_path / "noisy.csv"
        write_image(noisy, path)
        back = read_image(path)
        assert np.array_equal(back.pixels, noisy.pixels)
        assert back.provenance["noise"]["seed"] == 9


def test_image_shape_must_match_sensor():
    with pytest.raises(ImageFormatError):
        IntensityImage(np.zeros((10, 10)),
                       SensorConfig(pixel_pitch=0.1, width=16, height=16))


def test_image_rejects_negative_pixels():
    with pytest.raises(ImageFormatError):
        IntensityImage(-np.ones((16, 16)),
                       SensorConfig(pixel_pitch=0.1, width=16, height=16))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_image_rejects_non_finite_pixels(bad):
    pixels = np.ones((16, 16))
    pixels[3, 5] = bad
    with pytest.raises(ImageFormatError, match="NaN/inf"):
        IntensityImage(pixels, SensorConfig(pixel_pitch=0.1, width=16, height=16))


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf, 1e305])
def test_count_image_needs_a_positive_scale_finite_at_full_scale(scale):
    with pytest.raises(ImageFormatError, match="count scale"):
        IntensityImage(np.ones((16, 16), np.uint16),
                       SensorConfig(pixel_pitch=0.1, width=16, height=16),
                       {}, scale)


def test_float_image_takes_scale_one():
    with pytest.raises(ImageFormatError, match="scale 1"):
        IntensityImage(np.ones((16, 16)),
                       SensorConfig(pixel_pitch=0.1, width=16, height=16),
                       {}, 2.0)


def traced_peak(call):
    """call() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFrameMemory:
    MIB = 2 ** 20

    def setup_method(self):
        self.field = exact_field(PROBE, QubitState(0.7, 2.0),
                                 BlochVector(0.0, np.sin(0.4), -np.cos(0.4)))

    def test_render_allocates_one_frame(self):
        img, peak = traced_peak(lambda: render(self.field, experiment_ccd()))
        assert peak <= img.pixels.nbytes + self.MIB

    def test_write_image_allocates_payload_and_one_block(self, tmp_path):
        img = render(self.field, experiment_ccd())
        _, peak = traced_peak(lambda: write_image(img, tmp_path / "img.pgm"))
        payload = img.pixels.size * 2
        block = imaging._QUANTIZE_ROWS * img.sensor.width * 8
        assert peak <= payload + block + self.MIB

    def test_read_and_extract_zip_stay_below_one_float_frame(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_image(render(self.field, experiment_ccd()), path)
        zip_est, peak = traced_peak(lambda: extract_zip(read_image(path)))
        assert zip_est.pixel_count_used > 0
        assert peak < 1024 * 1024 * 8

    def test_add_shot_noise_allocates_output_and_one_band_per_worker(self):
        img = render(self.field, experiment_ccd())
        workers = imaging._noise_pool()._max_workers
        noisy, peak = traced_peak(lambda: add_shot_noise(img, 1e6, seed=2))
        band = imaging._NOISE_ROWS * img.sensor.width * 8
        assert peak <= noisy.pixels.nbytes + workers * band + self.MIB
