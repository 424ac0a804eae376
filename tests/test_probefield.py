import warnings

import numpy as np
import pytest

from vortexscope.imaging import fast_sensor, render
from vortexscope.polarization import BlochVector, QubitState
from vortexscope.probefield import (CENTROID_IM_SIGN, ProbeConfig,
                                    TruncationWarning, ZeroFieldError,
                                    analytic_centroid, approx_field,
                                    centroid_by_quadrature, exact_field,
                                    exact_field_norm, lg_field,
                                    mixed_exact_field,
                                    overlap_factor, quadrature_norm)
from vortexscope.weakvalue import (SOUTH_POLE, PoleStateError,
                                   stereographic_project)

W0 = 1.0
PROBE = ProbeConfig(w0=W0, g=0.05)


def midpoint_integral(fn, extent, n):
    """Independent midpoint quadrature used as the normalization oracle."""
    cell = extent / n
    axis = -extent / 2 + (np.arange(n) + 0.5) * cell
    xg, yg = np.meshgrid(axis, axis)
    return fn(xg, yg).sum() * cell * cell


class TestProbeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(w0=0.0, g=0.1)
        with pytest.raises(ValueError):
            ProbeConfig(w0=1.0, g=-0.1)
        with pytest.raises(ValueError):
            ProbeConfig(w0=1.0, g=0.1, l=0)

    def test_l1_normalization_constant(self):
        assert PROBE.normalization() ** 2 == pytest.approx(
            1.0 / (4 * np.pi * W0 ** 4), rel=1e-12)


class TestLgAmplitude:
    def test_zero_at_origin(self):
        for l in (1, 2, 3):
            cfg = ProbeConfig(w0=W0, g=0.0, l=l)
            assert lg_field(cfg).amplitude(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("l", [1, 2])
    def test_unit_norm_by_quadrature(self, l):
        cfg = ProbeConfig(w0=W0, g=0.0, l=l)
        amplitude = lg_field(cfg).amplitude
        norm = midpoint_integral(lambda x, y: np.abs(amplitude(x, y)) ** 2,
                                 extent=16 * W0, n=400)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_rotation_invariant_magnitude(self):
        pts = np.array([[0.3, 0.1], [1.2, -0.4], [0.0, 2.0]])
        for x, y in pts:
            a = abs(lg_field(PROBE).amplitude(x, y))
            b = abs(lg_field(PROBE).amplitude(-y, x))
            assert a == pytest.approx(b, rel=1e-12)


class TestExactField:
    def test_h_state_is_single_displaced_vortex(self):
        state = QubitState(np.pi / 4, 0)
        xs = np.linspace(-2, 2, 41)
        xg, yg = np.meshgrid(xs, xs)
        got = exact_field(PROBE, state).amplitude(xg, yg)
        # the counter-displaced component cancels for w = 1
        expected = lg_field(PROBE).amplitude(xg - PROBE.g, yg) / np.sqrt(2)
        assert np.max(np.abs(got - expected)) < 1e-14
        assert abs(exact_field(PROBE, state).amplitude(PROBE.g, 0.0)) < 1e-16

    def test_w_minus_one_mirrors(self):
        state = QubitState(np.pi / 4, np.pi)  # w = -1
        assert abs(exact_field(PROBE, state).amplitude(-PROBE.g, 0.0)) < 1e-16

    def test_south_pole_intensity_is_even_in_x(self):
        # even superposition of the two displaced components: the amplitude
        # picks up -conj under x -> -x, so the observable intensity is even
        state = QubitState(np.pi / 2, 0)  # w = 0
        xs = np.linspace(0.05, 1.5, 12)
        for x in xs:
            a = exact_field(PROBE, state).amplitude(x, 0.3)
            b = exact_field(PROBE, state).amplitude(-x, 0.3)
            assert abs(a) ** 2 == pytest.approx(abs(b) ** 2, abs=1e-15)
            assert b == pytest.approx(-np.conj(a), abs=1e-16)

    def test_north_pole_zero_coupling_is_flagged(self):
        cfg = ProbeConfig(w0=W0, g=0.0)
        with pytest.raises(ZeroFieldError):
            exact_field(cfg, QubitState(0, 0)).amplitude(0.1, 0.1)
        with pytest.raises(ZeroFieldError):
            exact_field(cfg, QubitState(0, 0))

    def test_north_pole_with_coupling_is_fine(self):
        field = exact_field(PROBE, QubitState(0, 0))
        value = field.amplitude(0.5, 0.2)
        assert np.isfinite(value) and value != 0

    def test_requires_unit_charge(self):
        cfg = ProbeConfig(w0=W0, g=0.05, l=2)
        with pytest.raises(ValueError):
            exact_field(cfg, QubitState(np.pi / 4, 0)).amplitude(0.0, 0.0)


def refine_minimum(intensity, xs, ys):
    """Quadratic-interpolated argmin of a sampled intensity (test oracle)."""
    i, j = np.unravel_index(np.argmin(intensity), intensity.shape)
    out = [xs[j], ys[i]]
    for axis, idx in ((1, j), (0, i)):
        if 0 < idx < intensity.shape[axis] - 1:
            sl = intensity[i, idx - 1:idx + 2] if axis == 1 \
                else intensity[idx - 1:idx + 2, j]
            denom = sl[0] - 2 * sl[1] + sl[2]
            if denom > 0:
                delta = 0.5 * (sl[0] - sl[2]) / denom
                step = xs[1] - xs[0] if axis == 1 else ys[1] - ys[0]
                out[1 - axis] += delta * step
    return out


class TestApproxField:
    def test_zero_coupling_reduces_to_input_beam(self):
        cfg = ProbeConfig(w0=W0, g=0.0)
        state = QubitState(0.9, 2.0)
        xs = np.linspace(-2, 2, 31)
        xg, yg = np.meshgrid(xs, xs)
        got = approx_field(cfg, state).amplitude(xg, yg)
        c1 = state.amplitudes()[1]
        expected = c1 * lg_field(cfg).amplitude(xg, yg)
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_south_pole_keeps_vortex_at_origin(self):
        got = approx_field(PROBE, QubitState(np.pi / 2, 0)).amplitude(0.0, 0.0)
        assert abs(got) < 1e-16

    def test_rendered_zip_matches_weak_displacement(self):
        # render + quadratic-refine oracle; |H> puts the dark point at (g, 0)
        state = QubitState(np.pi / 4, 0)
        n, extent = 512, 6 * W0
        xs = (np.arange(n) - (n - 1) / 2) * (extent / n)
        xg, yg = np.meshgrid(xs, xs)
        intensity = np.abs(approx_field(PROBE, state).amplitude(xg, yg)) ** 2
        x0, y0 = refine_minimum(intensity, xs, xs)
        pitch = extent / n
        assert abs(x0 - PROBE.g) < 0.1 * pitch
        assert abs(y0) < 0.1 * pitch

    def test_pole_error_propagates(self):
        with pytest.raises(PoleStateError):
            approx_field(PROBE, QubitState(0, 0)).amplitude(0.0, 0.0)

    def test_higher_charge_supported(self):
        cfg = ProbeConfig(w0=W0, g=0.05, l=3)
        state = QubitState(np.pi / 4, np.pi / 2)  # w = -i
        w = stereographic_project(state)
        zip_xy = (cfg.g * w.real, cfg.g * w.imag)
        assert abs(approx_field(cfg, state).amplitude(*zip_xy)) < 1e-16


class TestAnalyticCentroid:
    def test_no_coupling_no_shift(self):
        cfg = ProbeConfig(w0=W0, g=0.0)
        assert analytic_centroid(cfg, QubitState(0.7, 1.0)) == (0.0, 0.0)

    def test_overlap_factor_values(self):
        assert overlap_factor(ProbeConfig(w0=W0, g=0.0)) == pytest.approx(1.0)
        assert overlap_factor(ProbeConfig(w0=W0, g=np.sqrt(2) * W0)) \
            == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("g", [0.02, 0.3, 1.0])
    def test_h_state_centroid_is_exactly_g(self, g):
        # |w| = 1 makes the overlap terms cancel for every coupling strength
        cfg = ProbeConfig(w0=W0, g=g)
        x_bar, y_bar = analytic_centroid(cfg, QubitState(np.pi / 4, 0))
        assert x_bar == pytest.approx(g, rel=1e-12)
        assert y_bar == 0.0

    def test_pole_raises(self):
        with pytest.raises(PoleStateError):
            analytic_centroid(PROBE, QubitState(0, 0))

    def test_higher_charge_has_no_closed_form(self):
        with pytest.raises(ValueError, match="l = 1"):
            analytic_centroid(ProbeConfig(w0=W0, g=0.05, l=2),
                              QubitState(np.pi / 4, 0))


class TestQuadratureCentroid:
    def test_centered_beam(self):
        assert centroid_by_quadrature(lg_field(PROBE), 256) \
            == pytest.approx((0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("g", [0.05, 0.5, 1.0])
    def test_h_state_matches_analytic(self, g):
        cfg = ProbeConfig(w0=W0, g=g)
        field = exact_field(cfg, QubitState(np.pi / 4, 0))
        x_bar, y_bar = centroid_by_quadrature(field, 512)
        assert x_bar == pytest.approx(g, abs=1e-9)
        assert abs(y_bar) < 1e-12

    def test_imaginary_weak_value_fixes_the_sign(self):
        # w = -i: the y centroid magnitude is g e^{-g^2/2w0^2} / D and its
        # sign against Im(w) is the module constant
        state = QubitState(np.pi / 4, np.pi / 2)
        w = stereographic_project(state)
        assert w == pytest.approx(-1j, abs=1e-14)
        field = exact_field(PROBE, state)
        x_bar, y_bar = centroid_by_quadrature(field, 512)
        expected_mag = PROBE.g * np.exp(-PROBE.g ** 2 / (2 * W0 ** 2))
        assert abs(x_bar) < 1e-10
        assert abs(y_bar) == pytest.approx(expected_mag, abs=1e-9)
        assert np.sign(y_bar) == CENTROID_IM_SIGN * np.sign(w.imag)

    def test_agrees_with_analytic_on_grid(self):
        # 5 x 8 state grid (clear of the projection pole) x 3 couplings:
        # the closed forms hold far beyond the weak regime
        for g in (0.05, 0.5, 1.0):
            cfg = ProbeConfig(w0=W0, g=g)
            for theta in np.linspace(np.pi / 16, np.pi / 2, 5):
                for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                    state = QubitState(theta, phi)
                    xa, ya = analytic_centroid(cfg, state)
                    xq, yq = centroid_by_quadrature(exact_field(cfg, state), 512)
                    assert xq == pytest.approx(xa, abs=1e-6 * W0)
                    assert abs(yq) == pytest.approx(abs(ya), abs=1e-6 * W0)
                    if abs(ya) > 1e-6:
                        assert np.sign(yq) == np.sign(ya)

    def test_norm_identity(self):
        for theta, phi in ((np.pi / 8, 1.0), (np.pi / 4, 4.0), (1.3, 0.2)):
            for g in (0.05, 0.8):
                cfg = ProbeConfig(w0=W0, g=g)
                state = QubitState(theta, phi)
                norm = quadrature_norm(exact_field(cfg, state), 512)
                assert norm == pytest.approx(exact_field_norm(cfg, state),
                                             abs=1e-6)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            centroid_by_quadrature(lg_field(PROBE), 32)

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            centroid_by_quadrature(lg_field(PROBE), 64, extent=2.0 * W0)

    def test_partition_independent_reduction(self):
        field = exact_field(PROBE, QubitState(0.6, 2.5))
        extent = 16.0 * W0
        n = 256
        cell = extent / n
        axis = -extent / 2 + (np.arange(n) + 0.5) * cell
        xg, yg = np.meshgrid(axis, axis)
        intensity = field.intensity(xg, yg)
        whole = intensity.sum()
        for chunk in (1, 7, 64):
            parts = [intensity[i:i + chunk].sum()
                     for i in range(0, n, chunk)]
            assert np.isclose(sum(parts), whole, rtol=1e-12, atol=0)


class TestWeakLimit:
    def test_zip_converges_faster_than_g(self):
        # fine render + threshold-window oracle, one representative state
        from vortexscope.estimation import extract_zip
        from vortexscope.imaging import SensorConfig, render

        state = QubitState(np.arctan(0.5), 0.0)  # w = 2
        w = stereographic_project(state)
        errors = []
        for g in (0.1, 0.05, 0.025):
            cfg = ProbeConfig(w0=W0, g=g)
            sensor = SensorConfig(pixel_pitch=6 * W0 / 1536, width=1536, height=1536)
            img = render(exact_field(cfg, state), sensor)
            zip_est = extract_zip(img, threshold_fraction=0.003)
            errors.append(np.hypot(zip_est.position[0] - g * w.real,
                                   zip_est.position[1] - g * w.imag))
        assert errors[1] / errors[0] < 0.6
        assert errors[2] / errors[1] < 0.6


class TestMirrorSymmetry:
    def test_conjugate_state_reflects_intensity(self):
        xs = np.linspace(-1.7, 1.7, 23)
        xg, yg = np.meshgrid(xs, xs)
        for theta, phi in ((0.5, 0.8), (np.pi / 4, 2.2)):
            state = QubitState(theta, phi)
            mirror = QubitState(theta, -phi)
            for maker in (exact_field, approx_field):
                a = np.abs(maker(PROBE, state).amplitude(xg, yg)) ** 2
                b = np.abs(maker(PROBE, mirror).amplitude(xg, -yg)) ** 2
                assert np.max(np.abs(a - b)) < 1e-12


TILTED = BlochVector(0.0, np.sin(0.4), -np.cos(0.4))


def eigen_mixture(cfg, rho, postselection):
    """Test-local oracle: the eigendecomposition of rho into the pure
    states +-r_hat with probabilities (1 +- |r|)/2 (the maximally mixed
    state splits along z), each with its exact post-selected field."""
    r = rho.as_array()
    n = np.linalg.norm(r)
    axis = r / n if n > 1e-12 else np.array([0.0, 0.0, 1.0])
    pairs = [((1 + n) / 2, axis), ((1 - n) / 2, -axis)]
    assert sum(p for p, _ in pairs) == pytest.approx(1.0)
    assert np.allclose(sum(p * v for p, v in pairs), r, atol=1e-12)
    return [(p, exact_field(cfg, BlochVector(*v).to_state(), postselection))
            for p, v in pairs]


class TestMixedField:
    RHO = BlochVector(0.3, -0.2, 0.4)

    def test_mixture_mass_is_weighted_sum(self):
        field = mixed_exact_field(PROBE, self.RHO)
        total = quadrature_norm(field, 512, extent=16 * W0)
        expected = sum(weight * quadrature_norm(comp, 512, extent=16 * W0)
                       for weight, comp in eigen_mixture(PROBE, self.RHO,
                                                         SOUTH_POLE))
        assert total == pytest.approx(expected, rel=1e-12)

    def test_core_is_filled_but_dark(self):
        field = mixed_exact_field(PROBE, self.RHO)
        w = field.weak_value
        core = field.intensity(PROBE.g * w.real, PROBE.g * w.imag)
        ring = field.intensity(np.sqrt(2) * W0, 0.0)
        assert 0 < core < 0.02 * ring

    def assert_matches_eigen_mixture(self, rho, postselection):
        field = mixed_exact_field(PROBE, rho, postselection)
        xs = np.linspace(-3 * W0, 3 * W0, 181)
        xg, yg = np.meshgrid(xs, xs)
        summed = sum(weight * comp.intensity(xg, yg)
                     for weight, comp in eigen_mixture(PROBE, rho,
                                                       postselection))
        assert np.max(np.abs(field.intensity(xg, yg) - summed)) \
            <= 1e-14 * summed.max()

    def test_intensity_is_weighted_sum_of_components(self):
        self.assert_matches_eigen_mixture(self.RHO, TILTED)

    @pytest.mark.parametrize("rho", [BlochVector(0.0, 0.0, 0.0),
                                     QubitState(1.1, 2.4).bloch()],
                             ids=["center", "pure"])
    @pytest.mark.parametrize("postselection", [SOUTH_POLE, TILTED],
                             ids=["south", "tilted"])
    def test_eigen_mixture_across_the_ball(self, rho, postselection):
        self.assert_matches_eigen_mixture(rho, postselection)

    @pytest.mark.parametrize("postselection", [SOUTH_POLE, TILTED],
                             ids=["south", "tilted"])
    def test_zero_coupling_scales_the_undisplaced_vortex(self, postselection):
        # post-selection succeeds with probability (1 - r.p)/2, pole p = -f
        cfg = ProbeConfig(w0=W0, g=0.0)
        rho = BlochVector(0.0, 0.0, 0.5)
        field = mixed_exact_field(cfg, rho, postselection)
        xs = np.linspace(-3 * W0, 3 * W0, 121)
        xg, yg = np.meshgrid(xs, xs)
        success = (1 - rho.as_array() @ -postselection.as_array()) / 2
        expected = success * lg_field(cfg).intensity(xg, yg)
        assert np.max(np.abs(field.intensity(xg, yg) - expected)) \
            <= 1e-14 * expected.max()

    def test_zero_coupling_at_the_pole_never_succeeds(self):
        with pytest.raises(PoleStateError):
            mixed_exact_field(ProbeConfig(w0=W0, g=0.0),
                              BlochVector(0.0, 0.0, 1.0))

    def test_window_follows_the_mixture_weak_value(self):
        # one eigenstate has |w| = 34, the mixture |w| = 1/3: the fast
        # sensor's 8 w0 window holds the mixture's annulus
        probe = ProbeConfig(w0=W0, g=0.1)
        field = mixed_exact_field(probe, BlochVector(0.05, 0.0, 0.85))
        assert field.min_extent() == pytest.approx(4.2 * W0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            render(field, fast_sensor(W0))


def test_a_mixture_has_no_amplitude():
    field = mixed_exact_field(PROBE, BlochVector(0.3, -0.2, 0.4))
    assert len(field.components) == 2
    with pytest.raises(ValueError, match="mixture of 2 incoherent"):
        field.amplitude(0.5, 0.2)


def horner_intensity(b, y, w0):
    """Reference evaluator: Horner in y over the real coefficients on one
    broadcast grid, clamped at 0, times the row Gaussian."""
    y = np.asarray(y, dtype=float)
    out = np.asarray(b[-1] * y)
    out += b[-2]
    for coeff in reversed(b[:-2]):
        out *= y
        out += coeff
    np.maximum(out, 0.0, out=out)
    out *= np.exp(y * y * (-0.5 / w0 ** 2))
    return out


class TestIntensityOracle:
    @pytest.mark.parametrize("make", [
        lambda: exact_field(PROBE, QubitState(0.7, 2.0),
                            BlochVector(0.0, np.sin(0.4), -np.cos(0.4))),
        lambda: approx_field(ProbeConfig(w0=W0, g=0.05, l=2),
                             QubitState(0.7, 2.0)),
        lambda: approx_field(ProbeConfig(w0=W0, g=0.05, l=3),
                             QubitState(1.1, -0.6)),
        lambda: mixed_exact_field(PROBE, BlochVector(0.3, -0.2, 0.4),
                                  BlochVector(0.0, np.sin(0.4), -np.cos(0.4))),
    ], ids=["exact-tilted", "approx-l2", "approx-l3", "mixed"])
    @pytest.mark.parametrize("grid", ["open", "meshgrid"])
    def test_matches_horner_reference(self, make, grid):
        field = make()
        axis = np.linspace(-4 * W0, 4 * W0, 161)
        x, y = ((axis[None, :], axis[:, None]) if grid == "open"
                else np.meshgrid(axis, axis))
        reference = horner_intensity(field.intensity_coefficients(x), y, W0)
        intensity = field.intensity(x, y)
        assert intensity.shape == reference.shape == (161, 161)
        assert np.max(np.abs(intensity - reference)) \
            <= 1e-14 * reference.max()
