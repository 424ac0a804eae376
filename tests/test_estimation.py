import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from vortexscope.estimation import (AmbiguousVortexError, Calibration,
                                    CalibrationError,
                                    DegenerateGeometryError, EstimationError,
                                    NearPoleError,
                                    NoVortexError, ZipEstimate,
                                    _reference_peak, calibrate,
                                    estimate_state, extract_zip,
                                    reconstruct_mixed)
from vortexscope.imaging import (IntensityImage, SensorConfig,
                                 add_shot_noise, fast_sensor, experiment_ccd,
                                 read_image, render, write_image)
from vortexscope.polarization import (BlochVector, QubitState, fidelity,
                                      infinity_path)
from vortexscope.probefield import (ProbeConfig, approx_field, exact_field,
                                    lg_field, mixed_exact_field)
from vortexscope.weakvalue import SOUTH_POLE, stereographic_project

W0 = 1.0
PROBE = ProbeConfig(w0=W0, g=0.05)
IDENTITY_CAL = Calibration(origin=(0.0, 0.0), scale=PROBE.g)


def analytic_observation(r, postselection):
    """Exact-weak-value (w, f) line for reconstruct_mixed."""
    return (stereographic_project(BlochVector(*r), postselection),
            postselection)


class TestExtractZip:
    def test_centered_vortex(self):
        sensor = fast_sensor(W0, pixels=256)
        img = render(lg_field(PROBE), sensor)
        zip_est = extract_zip(img)
        assert np.hypot(*zip_est.position) < 0.1 * sensor.pixel_pitch
        assert zip_est.pixel_count_used >= 1

    def test_displaced_vortex_on_experiment_ccd(self):
        sensor = experiment_ccd()
        img = render(approx_field(PROBE, QubitState(np.pi / 4, 0)), sensor)
        zip_est = extract_zip(img)
        assert abs(zip_est.position[0] - PROBE.g) < 0.5 * sensor.pixel_pitch
        assert abs(zip_est.position[1]) < 0.5 * sensor.pixel_pitch

    def test_shot_noise_monte_carlo(self, capsys):
        sensor = experiment_ccd()
        img = render(approx_field(PROBE, QubitState(np.pi / 4, 0)), sensor)
        positions = []
        for seed in range(20):
            noisy = add_shot_noise(img, 1e6, seed=seed)
            positions.append(extract_zip(noisy).position)
        positions = np.array(positions)
        mean = positions.mean(axis=0)
        std = positions.std(axis=0)
        print(f"MC zip spread: mean={mean}, std(px)={std / sensor.pixel_pitch}")
        assert np.hypot(mean[0] - PROBE.g, mean[1]) < sensor.pixel_pitch

    def test_threshold_fraction_validated(self):
        img = render(lg_field(PROBE), fast_sensor(W0, pixels=64))
        for bad in (0.0, 0.5, 0.9):
            with pytest.raises(ValueError):
                extract_zip(img, threshold_fraction=bad)

    def test_uniform_image_has_no_vortex(self):
        sensor = SensorConfig(pixel_pitch=0.1, width=32, height=32)
        img = IntensityImage(np.ones((32, 32)), sensor)
        with pytest.raises(NoVortexError):
            extract_zip(img)

    def test_unlit_image_has_no_vortex(self):
        sensor = SensorConfig(pixel_pitch=0.1, width=32, height=32)
        img = IntensityImage(np.zeros((32, 32)), sensor)
        with pytest.raises(NoVortexError, match="no positive intensity"):
            extract_zip(img)

    def test_plain_gaussian_has_no_vortex(self):
        # dark pixels exist only at the border: no interior component
        sensor = fast_sensor(W0, pixels=128)
        xg, yg = np.meshgrid(*sensor.axes())
        img = IntensityImage(np.exp(-(xg ** 2 + yg ** 2) / (2 * W0 ** 2)),
                             sensor)
        with pytest.raises(NoVortexError):
            extract_zip(img)

    def test_two_equal_holes_are_ambiguous(self):
        sensor = SensorConfig(pixel_pitch=0.1, width=64, height=64)
        pixels = np.ones((64, 64))
        pixels[20:23, 10:13] = 0.0
        pixels[40:43, 50:53] = 0.0
        img = IntensityImage(pixels, sensor)
        with pytest.raises(AmbiguousVortexError) as excinfo:
            extract_zip(img)
        # unweighted hole centres: (row, column) (21, 11) and (41, 51)
        assert sorted(excinfo.value.candidates) == [
            pytest.approx((-2.05, -1.05), abs=1e-12),
            pytest.approx((1.95, 0.95), abs=1e-12)]

    @pytest.mark.parametrize("band", [np.s_[:10, 20:50], np.s_[54:, 20:50],
                                      np.s_[20:50, :10], np.s_[20:50, 54:]])
    def test_largest_component_on_border_is_skipped(self, band):
        sensor = SensorConfig(pixel_pitch=0.1, width=64, height=64)
        pixels = np.ones((64, 64))
        pixels[band] = 0.0
        pixels[30:33, 30:33] = 0.0
        zip_est = extract_zip(IntensityImage(pixels, sensor))
        assert zip_est.pixel_count_used == 9
        assert zip_est.position == pytest.approx((-0.05, -0.05), abs=1e-12)

    def test_zero_weights_fall_back_to_unweighted_mean(self):
        # threshold 0.01 * 100 is exactly 1.0, the hole's own intensity
        sensor = SensorConfig(pixel_pitch=0.1, width=64, height=64)
        pixels = np.full((64, 64), 100.0)
        pixels[20:24, 30:33] = 1.0
        zip_est = extract_zip(IntensityImage(pixels, sensor),
                              threshold_fraction=0.01)
        assert zip_est.threshold_used == 1.0
        assert zip_est.pixel_count_used == 12
        assert zip_est.position == pytest.approx((-0.05, -1.0), abs=1e-12)

    def test_translation_covariance(self):
        field = exact_field(PROBE, QubitState(0.8, 0.7))
        base = fast_sensor(W0, pixels=256)
        shift_px = 9
        dx = shift_px * base.pixel_pitch

        class Shifted:
            probe = field.probe
            weak_value = field.weak_value

            def intensity(self, x, y):
                return field.intensity(x - dx, y)

            def min_extent(self):
                return field.min_extent()

        a = extract_zip(render(field, base))
        b = extract_zip(render(Shifted(), base))
        assert b.position[0] - a.position[0] == pytest.approx(dx, abs=1e-9)
        assert b.position[1] - a.position[1] == pytest.approx(0.0, abs=1e-9)

    def test_mixture_minimum_sits_at_mixed_weak_value(self):
        sensor = fast_sensor(W0, pixels=512)
        rho = BlochVector(0.3, -0.2, 0.4)
        field = mixed_exact_field(PROBE, rho)
        img = render(field, sensor)
        zip_est = extract_zip(img)
        w = stereographic_project(rho, SOUTH_POLE)
        target = (PROBE.g * w.real, PROBE.g * w.imag)
        err = np.hypot(zip_est.position[0] - target[0],
                       zip_est.position[1] - target[1])
        assert err < sensor.pixel_pitch


SPIKE_PROBE = ProbeConfig(w0=W0, g=0.1)


def noisy_infinity_frames(budget, count=4):
    """Noisy 512² frames along the figure-eight, noise seed = index."""
    sensor = fast_sensor(W0)
    return [add_shot_noise(render(exact_field(SPIKE_PROBE, state), sensor),
                           budget, seed=index)
            for index, state in enumerate(infinity_path(count))]


# offsets of a hot cluster's pixels from its first one
CLUSTERS = {"lone": [(0, 0)], "pair": [(0, 0), (0, 1)],
            "L": [(0, 0), (0, 1), (1, 0)], "line": [(0, 0), (0, 1), (0, 2)]}


class TestLoneSpike:
    @pytest.mark.parametrize("shape, k", [
        *(pytest.param("lone", k, id=str(k)) for k in (5, 100)),
        *(pytest.param(shape, k, id=f"{shape}-{k}")
          for shape in ("pair", "L", "line") for k in (4, 5, 8, 100))])
    def test_lone_spike_reads_the_unspiked_state(self, shape, k):
        # hot pixels at k times the frame's peak count, placed at random
        positions = np.random.default_rng(11).integers(0, 512, (4, 2))
        for frame, (row, col) in zip(noisy_infinity_frames(1e6), positions):
            pixels = frame.stored.copy()
            for dr, dc in CLUSTERS[shape]:
                pixels[row + dr, col + dc] = k * frame.stored.max()
            spiked = IntensityImage(pixels, frame.sensor, frame.provenance)
            assert extract_zip(spiked, 0.1) == extract_zip(frame, 0.1)

    @pytest.mark.parametrize("budget", [1e4, 1e6])
    def test_unspiked_noisy_frames_drop_no_pixel(self, budget):
        for frame in noisy_infinity_frames(budget, count=8):
            assert _reference_peak(frame) == (frame.max_intensity(), 0)

    def test_clean_ccd_frame_drops_no_pixel(self, tmp_path):
        frame = render(exact_field(SPIKE_PROBE, QubitState(1.0, 0.4)),
                       experiment_ccd())
        write_image(frame, tmp_path / "frame.pgm")
        for img in (frame, read_image(tmp_path / "frame.pgm")):
            assert _reference_peak(img) == (img.max_intensity(), 0)
            assert extract_zip(img).threshold_used == \
                0.01 * img.max_intensity()

    def test_refusal_names_the_dropped_pixels(self):
        # a Gaussian spot with no core, and two hot pixels above it
        sensor = fast_sensor(W0, pixels=128)
        xg, yg = np.meshgrid(*sensor.axes())
        pixels = np.round(50 * np.exp(-(xg ** 2 + yg ** 2) / (2 * W0 ** 2)))
        pixels[10, 20] = pixels[90, 100] = 500.0
        with pytest.raises(NoVortexError,
                           match=r"left out of the peak: 2\)"):
            extract_zip(IntensityImage(pixels, sensor))


def full_frame_extract_zip(img, threshold_fraction):
    """Reference extraction as first written: component sizes by
    sum_labels, a Python border-membership loop and full-frame weighted
    sums over the coordinate meshgrid."""
    pixels = img.pixels
    threshold = threshold_fraction * pixels.max()
    labels, count = ndimage.label(pixels <= threshold)
    border = np.unique(np.concatenate([labels[0, :], labels[-1, :],
                                       labels[:, 0], labels[:, -1]]))
    sizes = ndimage.sum_labels(np.ones_like(labels), labels,
                               index=np.arange(1, count + 1))
    interior = sorted(((int(sizes[k - 1]), k) for k in range(1, count + 1)
                       if k not in border), reverse=True)
    assert [size for size, _ in interior].count(interior[0][0]) == 1, \
        "reference frame must not tie"
    component = labels == interior[0][1]
    weights = np.where(component, threshold - pixels, 0.0)
    xg, yg = np.meshgrid(*img.sensor.axes())
    total = weights.sum()
    return ZipEstimate(position=((xg * weights).sum() / total,
                                 (yg * weights).sum() / total),
                       pixel_count_used=int(component.sum()),
                       threshold_used=float(threshold))


@pytest.mark.parametrize("frame", ["noisy", "mixture"])
def test_extract_zip_matches_full_frame_reference(frame):
    sensor = fast_sensor(W0, pixels=512)
    if frame == "noisy":
        probe = ProbeConfig(w0=W0, g=0.1)
        clean = render(exact_field(probe, QubitState(np.pi / 3, 1.0)), sensor)
        img, fraction = add_shot_noise(clean, 1e6, seed=3), 0.1
    else:
        field = mixed_exact_field(PROBE, BlochVector(0.3, -0.2, 0.4))
        img, fraction = render(field, sensor), 0.01
    new = extract_zip(img, threshold_fraction=fraction)
    ref = full_frame_extract_zip(img, fraction)
    assert new.pixel_count_used == ref.pixel_count_used
    assert new.threshold_used == ref.threshold_used
    assert new.position == pytest.approx(ref.position, abs=1e-12)


def test_noisy_frame_sizes_count_only_pixels_off_the_edge_runs(monkeypatch):
    sensor = fast_sensor(W0, pixels=512)
    probe = ProbeConfig(w0=W0, g=0.1)
    clean = render(exact_field(probe, QubitState(np.pi / 3, 1.0)), sensor)
    img = add_shot_noise(clean, 1e6, seed=3)
    label, bincount = ndimage.label, np.bincount
    seen = {"counted": []}

    def label_spy(mask, *args, **kwargs):
        count = label(mask, *args, **kwargs)
        seen["mask"], seen["labels"] = mask, kwargs["output"]
        return count

    def bincount_spy(values, *args, **kwargs):
        seen["counted"].append(values.copy())
        return bincount(values, *args, **kwargs)

    monkeypatch.setattr(ndimage, "label", label_spy)
    monkeypatch.setattr(np, "bincount", bincount_spy)
    extract_zip(img, threshold_fraction=0.1)
    monkeypatch.undo()
    expected = []
    for dark, labels in zip(seen["mask"], seen["labels"]):
        lit = np.flatnonzero(~dark)
        if lit.size:  # the dark pixels between the first and last lit one
            between = slice(lit[0], lit[-1] + 1)
            expected.append(labels[between][dark[between]])
    (counted,) = seen["counted"]
    assert np.array_equal(counted, np.concatenate(expected))
    assert counted.size < seen["mask"].sum() / 2


def test_clean_ccd_frame_labels_only_the_core_rows(monkeypatch):
    sensor = experiment_ccd()
    img = render(exact_field(PROBE, QubitState(np.pi / 4, 0)), sensor)
    label = ndimage.label
    masks = []

    def spy(mask, *args, **kwargs):
        masks.append(mask.shape)
        return label(mask, *args, **kwargs)

    monkeypatch.setattr(ndimage, "label", spy)
    extract_zip(img, threshold_fraction=0.01)
    assert len(masks) == 1
    assert masks[0][0] < 0.1 * sensor.height


def test_clean_ccd_frame_indexes_only_the_band_rows(monkeypatch):
    # the dark corners hold almost every dark pixel of the frame; only the
    # band's dark pixels are listed, and the row structure comes from the mask
    sensor = experiment_ccd()
    img = render(exact_field(PROBE, QubitState(np.pi / 4, 0)), sensor)
    flatnonzero = np.flatnonzero
    shapes = []

    def spy(a):
        shapes.append(np.shape(a))
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", spy)
    extract_zip(img, threshold_fraction=0.01)
    monkeypatch.undo()
    band_rows = 0.1 * sensor.height
    assert any(len(shape) == 2 for shape in shapes)
    assert all(shape[0] < band_rows for shape in shapes if len(shape) == 2)
    # 1-D inputs are per-row or per-label vectors, never a frame's pixels
    assert all(np.prod(shape) < band_rows * sensor.width for shape in shapes)


def test_clean_ccd_frame_allocates_less_than_a_label_frame():
    img = render(exact_field(PROBE, QubitState(np.pi / 4, 0)), experiment_ccd())
    dark = np.count_nonzero(img.pixels <= 0.01 * img.max_intensity())
    tracemalloc.start()
    try:
        extract_zip(img, threshold_fraction=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below the bool dark mask plus an index of every dark pixel, so a
    # whole-frame dark-pixel index list does not fit
    mask = img.pixels.size * np.dtype(bool).itemsize
    assert peak < mask + dark * np.dtype(np.intp).itemsize


class TestEstimateState:
    def test_origin_is_south_pole(self):
        state = estimate_state(0j)
        assert state.theta == pytest.approx(np.pi / 2, abs=1e-12)

    def test_g_displacement_is_h(self):
        state = estimate_state(IDENTITY_CAL.unapply((PROBE.g, 0.0)))
        assert fidelity(state, QubitState(np.pi / 4, 0)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_near_pole_is_refused(self):
        with pytest.raises(NearPoleError):
            estimate_state(IDENTITY_CAL.unapply((60 * PROBE.g, 0.0)))

    def test_nan_weak_value_is_refused(self):
        with pytest.raises(NearPoleError, match="exceeds the cap"):
            estimate_state(complex(np.nan, 0.0))

    def test_inverts_under_a_tilted_analyser(self):
        f = BlochVector(0.0, np.sin(0.3), -np.cos(0.3))
        truth = QubitState(1.1, 5.4)
        state = estimate_state(stereographic_project(truth, f), f)
        assert fidelity(truth, state) == pytest.approx(1.0, abs=1e-12)

    def test_end_to_end_pure_pipeline(self):
        truth = QubitState(3 * np.pi / 8, 4.0)
        img = render(exact_field(PROBE, truth), fast_sensor(W0, pixels=512))
        state = estimate_state(IDENTITY_CAL.unapply(extract_zip(img).position))
        assert fidelity(truth, state) >= 0.999


class TestCalibration:
    def test_unapply_inverts_the_affine_map(self):
        cal = Calibration(origin=(0.3, -0.1), scale=0.07, orientation=0.6)
        for w in (0.0, 1.0, -2.3 + 0.4j):
            rotation = np.exp(1j * cal.orientation)
            z = complex(*cal.origin) + cal.scale * rotation * w
            assert cal.unapply((z.real, z.imag)) == pytest.approx(w, abs=1e-12)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            Calibration(scale=0.0)

    @pytest.mark.parametrize("fields", [
        {"scale": np.nan}, {"scale": np.inf}, {"orientation": np.nan},
        {"origin": (0.0,)}, {"origin": (np.nan, 0.0)}],
        ids=["nan-scale", "inf-scale", "nan-orientation", "short-origin",
             "nan-origin"])
    def test_rejects_nonfinite_or_malformed_fields(self, fields):
        with pytest.raises(ValueError, match="calibration"):
            Calibration(**fields)

    def test_json_roundtrip(self):
        cal = Calibration(origin=(0.1, 0.2), scale=0.05, orientation=-0.3)
        assert Calibration.from_json(cal.to_json()) == cal

    def _references(self, rotate=0.0):
        # |1> (w = 0) and |H> (w = 1) have bias-free cores: the envelope is
        # concentric with the dark spot for both.  1024^2 keeps the pixel
        # quantization of the core window below the 1e-3 relative target.
        sensor = fast_sensor(W0, pixels=1024)
        refs = []
        for state in (QubitState(np.pi / 2, 0), QubitState(np.pi / 4, 0)):
            field = exact_field(PROBE, state)
            if rotate:
                base_int = field.intensity
                cos_r, sin_r = np.cos(rotate), np.sin(rotate)

                class Rotated:
                    probe = field.probe
                    weak_value = field.weak_value

                    def intensity(self, x, y, _f=base_int):
                        return _f(cos_r * x + sin_r * y,
                                  -sin_r * x + cos_r * y)

                    def min_extent(self, _f=field):
                        return _f.min_extent()

                field = Rotated()
            refs.append((extract_zip(render(field, sensor)),
                         stereographic_project(state)))
        return refs

    def test_recovers_identity_geometry(self):
        cal, residual = calibrate(self._references())
        assert np.hypot(*cal.origin) < 1e-3 * PROBE.g
        assert cal.scale == pytest.approx(PROBE.g, rel=1e-3)
        assert abs(cal.orientation) < 1e-3
        assert residual < 1e-3 * PROBE.g

    def test_recovers_injected_rotation(self):
        cal, _ = calibrate(self._references(rotate=np.pi / 6))
        assert cal.orientation == pytest.approx(np.pi / 6, abs=1e-3)
        assert cal.scale == pytest.approx(PROBE.g, rel=1e-3)

    def test_recovers_a_tilted_analyser(self):
        # the weak values are those of the analyser f the frames were taken
        # with; the |1> analyser's would fit an orientation near -0.1 rad
        f = BlochVector(0.0, np.sin(0.3), -np.cos(0.3))
        sensor = fast_sensor(W0, pixels=1024)
        refs = [(extract_zip(render(exact_field(PROBE, state, f), sensor)),
                 stereographic_project(state, f))
                for state in (QubitState(np.pi / 2, 0),
                              QubitState(np.pi / 4, 0),
                              QubitState(3 * np.pi / 8, np.pi))]
        cal, _ = calibrate(refs)
        assert cal.scale == pytest.approx(PROBE.g, rel=1e-3)
        assert abs(cal.orientation) < 1e-3

    def test_two_references_fit_exactly(self):
        sensor = fast_sensor(W0, pixels=256)
        refs = [(extract_zip(render(exact_field(PROBE, state), sensor)),
                 stereographic_project(state))
                for state in (QubitState(np.pi / 2, 0),
                              QubitState(np.pi / 4, 0))]
        cal, residual = calibrate(refs)
        assert residual == 0.0
        assert cal.scale == pytest.approx(PROBE.g, rel=1e-2)

    def test_single_reference_rejected(self):
        with pytest.raises(CalibrationError, match="at least two"):
            calibrate(self._references()[:1])

    def test_identical_weak_values_rejected(self):
        refs = [(ZipEstimate((x, 0.0), 1, 1.0), 1.0) for x in (0.05, 0.06)]
        with pytest.raises(CalibrationError, match="all identical"):
            calibrate(refs)

    def test_one_image_under_two_states_rejected(self):
        # the ZIPs coincide while the weak values differ: zero fitted scale
        zip_est = ZipEstimate((PROBE.g, 0.0), 1, 1.0)
        other = stereographic_project(QubitState(np.pi / 3, 1.0))
        with pytest.raises(CalibrationError, match="zero scale"):
            calibrate([(zip_est, 1.0), (zip_est, other)])

    @pytest.mark.parametrize("zip_x, w", [(0.05, np.nan), (0.05, np.inf),
                                          (np.nan, 1.0)],
                             ids=["nan-w", "inf-w", "nan-zip"])
    def test_nonfinite_reference_rejected(self, zip_x, w):
        refs = [(ZipEstimate((0.0, 0.0), 1, 1.0), 0.0),
                (ZipEstimate((zip_x, 0.0), 1, 1.0), w)]
        with pytest.raises(CalibrationError, match="must be finite"):
            calibrate(refs)


class TestReconstructMixed:
    def test_maximally_mixed_two_poles_degenerate(self):
        observations = [analytic_observation([0, 0, 0], SOUTH_POLE),
                        analytic_observation([0, 0, 0], BlochVector(0, 0, 1))]
        with pytest.raises(DegenerateGeometryError):
            reconstruct_mixed(observations)

    def test_third_plane_resolves_degeneracy(self):
        observations = [analytic_observation([0, 0, 0], SOUTH_POLE),
                        analytic_observation([0, 0, 0], BlochVector(0, 0, 1)),
                        analytic_observation([0, 0, 0], BlochVector(0, 1, 0))]
        result = reconstruct_mixed(observations)
        assert np.linalg.norm(result.bloch.as_array()) < 1e-6

    def test_two_plane_exact_recovery(self):
        r = [0.3, -0.2, 0.4]
        observations = [analytic_observation(r, SOUTH_POLE),
                        analytic_observation(r, BlochVector(0, 1, 0))]
        result = reconstruct_mixed(observations)
        assert np.linalg.norm(result.bloch.as_array() - r) < 1e-9
        assert result.residual < 1e-12
        assert result.images_used == 2 and not result.clipped

    def test_random_vectors_four_planes(self, rng):
        planes = [SOUTH_POLE, BlochVector(0, 0, 1),
                  BlochVector(0, 1, 0), BlochVector(0, -1, 0)]
        for _ in range(20):
            r = rng.uniform(-1, 1, 3)
            r *= rng.uniform(0, 0.9) / np.linalg.norm(r)
            observations = [analytic_observation(r, f) for f in planes]
            result = reconstruct_mixed(observations)
            assert np.linalg.norm(result.bloch.as_array() - r) < 1e-9

    def test_image_pipeline_recovery(self):
        r = BlochVector(0.3, -0.2, 0.4)
        sensor = fast_sensor(W0, pixels=512)
        observations = []
        for f in (SOUTH_POLE, BlochVector(0, 0, 1),
                  BlochVector(0, 1, 0), BlochVector(0, -1, 0)):
            img = render(mixed_exact_field(PROBE, r, f), sensor)
            w = IDENTITY_CAL.unapply(extract_zip(img).position)
            observations.append((w, f))
        result = reconstruct_mixed(observations)
        assert np.linalg.norm(result.bloch.as_array() - r.as_array()) < 5e-3

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0),
                                     complex(np.inf, 0.0)],
                             ids=["nan-w", "inf-w"])
    def test_nonfinite_weak_value_is_refused_naming_its_plane(self, bad):
        # w comes from the caller, so reconstruct_mixed checks it itself
        planes = (SOUTH_POLE, BlochVector(0, 0, 1), BlochVector(0, 1, 0))
        observations = [analytic_observation([0.3, -0.2, 0.4], f)
                        for f in planes]
        observations[1] = (bad, planes[1])
        with pytest.raises(NearPoleError, match="line of plane 1 leaves"):
            reconstruct_mixed(observations)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            reconstruct_mixed([analytic_observation([0.1, 0, 0], SOUTH_POLE)])

    def test_error_grows_toward_the_sphere(self, rng):
        # Difficulty near the sphere is systematic: some plane's weak value
        # grows, the displaced-vortex reading degrades, and the intensity
        # minimum drifts off G*w.  Fixed small position noise on top; the
        # trend is a grouped-mean regression, not per-sample monotonicity.
        # (Pure position noise alone would show the opposite trend: the
        # projection geometry damps far plane points.)
        from scipy import optimize

        from vortexscope.probefield import mixed_exact_field

        planes = [SOUTH_POLE, BlochVector(0, 0, 1),
                  BlochVector(0, 1, 0), BlochVector(0, -1, 0)]
        noise = 1e-5  # mm, fixed across radii
        mean_errors = []
        for radius in (0.15, 0.85):
            errors = []
            for _ in range(15):
                direction = rng.normal(size=3)
                r = radius * direction / np.linalg.norm(direction)
                observations = []
                for f in planes:
                    field = mixed_exact_field(PROBE, BlochVector(*r), f)
                    w = field.weak_value
                    fit = optimize.minimize(
                        lambda p: field.intensity(p[0], p[1]),
                        [PROBE.g * w.real, PROBE.g * w.imag],
                        method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-18})
                    pos = (fit.x[0] + rng.normal(0, noise),
                           fit.x[1] + rng.normal(0, noise))
                    observations.append((IDENTITY_CAL.unapply(pos), f))
                result = reconstruct_mixed(observations)
                errors.append(np.linalg.norm(result.bloch.as_array() - r))
            mean_errors.append(np.mean(errors))
        assert mean_errors[1] > mean_errors[0]

    def test_clipping_flag(self):
        # a pure state read with every weak value 5% too long crosses
        # outside the ball, so the point is clipped back onto the sphere
        r = BlochVector(0.6, 0.0, 0.8)
        observations = []
        for f in (SOUTH_POLE, BlochVector(0, 0, 1),
                  BlochVector(0, 1, 0), BlochVector(0, -1, 0)):
            observations.append((1.05 * stereographic_project(r, f), f))
        result = reconstruct_mixed(observations)
        norm = np.linalg.norm(result.bloch.as_array())
        assert result.clipped
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert norm <= 1.0 + 1e-9


@pytest.mark.parametrize("error", [NoVortexError, AmbiguousVortexError,
                                   NearPoleError, DegenerateGeometryError,
                                   CalibrationError])
def test_estimation_errors_share_one_base(error):
    assert issubclass(error, EstimationError)


def test_zip_estimate_validation():
    with pytest.raises(ValueError):
        ZipEstimate((0.0, 0.0), 0, 0.1)
