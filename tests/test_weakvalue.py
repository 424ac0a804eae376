import numpy as np
import pytest

from vortexscope.polarization import BlochVector, QubitState
from vortexscope.probefield import ProbeConfig
from vortexscope.weakvalue import (SOUTH_POLE, PoleStateError,
                                   stereographic_invert,
                                   stereographic_project,
                                   weak_condition_margin)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def density(r):
    return (np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ) / 2


def trace_oracle(r, f):
    """Independent 2x2 matrix-trace weak value Tr(Pi sx rho)/Tr(Pi rho)."""
    proj = density(f)  # projector onto the pure state with Bloch vector f
    rho = density(r)
    return np.trace(proj @ SX @ rho) / np.trace(proj @ rho)


def amplitude_oracle(state):
    c0, c1 = state.amplitudes()
    return c0 / c1


class TestPureWeakValue:
    def test_h_state(self):
        assert stereographic_project(QubitState(np.pi / 4, 0)) \
            == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_south_pole_is_zero(self):
        assert stereographic_project(QubitState(np.pi / 2, 0)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_quarter_circle_state(self):
        state = QubitState(np.pi / 4, np.pi / 2)
        assert stereographic_project(state) == pytest.approx(-1j, abs=1e-12)
        assert stereographic_project(state) \
            == pytest.approx(amplitude_oracle(state), abs=1e-12)

    def test_matches_amplitude_ratio_everywhere(self):
        for theta in np.linspace(0.05, np.pi / 2, 8):
            for phi in np.linspace(0, 2 * np.pi, 7, endpoint=False):
                state = QubitState(theta, phi)
                assert stereographic_project(state) \
                    == pytest.approx(amplitude_oracle(state), abs=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleStateError):
            stereographic_project(QubitState(0.0, 0.0))


class TestMixedWeakValue:
    def test_maximally_mixed_is_zero(self):
        for f in ([0, 0, -1], [0, 1, 0], [0, -1, 0]):
            w = stereographic_project(BlochVector(0, 0, 0), BlochVector(*f))
            assert w == pytest.approx(0.0, abs=1e-15)

    def test_pure_reduces_to_closed_form(self, rng):
        for _ in range(30):
            state = QubitState(rng.uniform(0.05, np.pi / 2),
                               rng.uniform(0, 2 * np.pi))
            mixed = stereographic_project(state.bloch(), SOUTH_POLE)
            assert mixed == pytest.approx(stereographic_project(state),
                                          abs=1e-12)

    def test_frozen_trace_oracle_example(self):
        # value computed with the 2x2 trace oracle below
        r, f = [0.3, -0.2, 0.4], [0.0, -1.0, 0.0]
        expected = trace_oracle(r, f)
        assert expected == pytest.approx(0.25 + 1j / 3, abs=1e-15)
        w = stereographic_project(BlochVector(*r), BlochVector(*f))
        assert w == pytest.approx(expected, abs=1e-12)

    def test_matches_trace_oracle_randomly(self, rng):
        for _ in range(40):
            r = rng.uniform(-1, 1, 3)
            r *= rng.uniform(0, 0.95) / np.linalg.norm(r)
            angle = rng.uniform(0, 2 * np.pi)
            f = np.array([0.0, np.sin(angle), np.cos(angle)])
            w = stereographic_project(BlochVector(*r), BlochVector(*f))
            assert w == pytest.approx(trace_oracle(r, f), abs=1e-12)

    def test_zero_probability_postselection(self):
        with pytest.raises(PoleStateError):
            stereographic_project(BlochVector(0, 0, 1), SOUTH_POLE)

    def test_rejects_postselection_off_the_plane(self):
        with pytest.raises(ValueError):
            stereographic_project(BlochVector(0, 0, 0),
                                  BlochVector(np.sqrt(0.5), np.sqrt(0.5), 0))

    def test_rejects_nonunit_postselection(self):
        with pytest.raises(ValueError):
            stereographic_project(BlochVector(0, 0, 0), BlochVector(0, 0.5, 0))


class TestStereographicProjection:
    def test_south_pole_to_origin(self):
        assert stereographic_project(QubitState(np.pi / 2, 0)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_equator_maps_to_unit_circle(self):
        for phi in np.linspace(0, 2 * np.pi, 9, endpoint=False):
            w = stereographic_project(QubitState(np.pi / 4, phi))
            assert abs(w) == pytest.approx(1.0, abs=1e-12)

    def test_northern_hemisphere_is_stretched(self):
        w = stereographic_project(QubitState(np.pi / 8, 0.0))
        assert abs(w) == pytest.approx(1 / np.tan(np.pi / 8), abs=1e-12)
        assert abs(w) > 2.4

    def test_pole_is_an_error(self):
        with pytest.raises(PoleStateError):
            stereographic_project(QubitState(0, 0), SOUTH_POLE)
        with pytest.raises(PoleStateError):
            stereographic_project(BlochVector(0, 0, -1), BlochVector(0, 0, 1))

    def test_latitude_circles_have_constant_radius(self):
        for theta in (np.pi / 8, np.pi / 4, 3 * np.pi / 8):
            radii = [abs(stereographic_project(QubitState(theta, phi)))
                     for phi in np.linspace(0, 2 * np.pi, 17, endpoint=False)]
            assert max(radii) - min(radii) < 1e-12


class TestOnePoleError:
    """Every weak value refuses the pole -f with PoleStateError, by the
    amplitude test for a state and the 1 - r.p test for a Bloch vector."""

    def test_state_next_to_the_pole(self):
        state = QubitState(1e-13, 0.3)
        with pytest.raises(PoleStateError):
            stereographic_project(state)

    @pytest.mark.parametrize("theta", [1e-13, 1e-7])
    def test_bloch_vector_next_to_the_pole(self, theta):
        bloch = QubitState(theta, 0.3).bloch()
        with pytest.raises(PoleStateError):
            stereographic_project(bloch)

    def test_amplitude_form_keeps_the_state_near_the_pole(self):
        # 1 - r.p has cancelled to 2e-14 here; c0/c1 keeps every digit
        w = complex(float.fromhex("0x1.238ba9c852b5dp+23"),
                    float.fromhex("-0x1.68be10886c995p+21"))
        state = QubitState(1e-7, 0.3)
        assert stereographic_project(state) == w


def line_sphere_oracle(point, postselection):
    """Second unit-sphere intersection of the projection line, by np.roots."""
    f = postselection.as_array()
    pole = -f
    e_hat = np.cross(pole, [1.0, 0.0, 0.0])
    q = point.real * np.array([1.0, 0, 0]) - point.imag * e_hat
    d = q - pole
    # |pole + t d|^2 = 1
    roots = np.roots([d @ d, 2 * pole @ d, 0.0])
    t = max(roots, key=abs)
    return pole + t * d


class TestStereographicInversion:
    def test_origin_is_postselection_state(self):
        b = stereographic_invert(0.0)
        assert np.allclose(b.as_array(), [0, 0, -1], atol=1e-15)

    def test_unity_is_h(self):
        state = stereographic_invert(1.0 + 0j).to_state()
        assert state.theta == pytest.approx(np.pi / 4, abs=1e-12)
        assert state.phi == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("point", [0.375 + 0.5j, 0.25 + 1j / 3, -2.0 + 0.7j])
    def test_matches_line_sphere_oracle(self, point):
        post = BlochVector(0, -1, 0)
        b = stereographic_invert(point, post)
        assert np.allclose(b.as_array(), line_sphere_oracle(point, post),
                           atol=1e-12)
        assert b.norm() == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip_identity(self):
        for theta in np.linspace(0.05, np.pi / 2, 9):
            for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                state = QubitState(theta, phi)
                back = stereographic_invert(stereographic_project(state)).to_state()
                assert abs(back.theta - state.theta) < 1e-10
                dphi = (back.phi - state.phi + np.pi) % (2 * np.pi) - np.pi
                if state.theta < np.pi / 2 - 1e-9:
                    assert abs(dphi) < 1e-10

    def test_mixed_state_lies_on_projection_line(self, rng):
        # the geometric fact behind the tomography module
        for _ in range(30):
            r = rng.uniform(-1, 1, 3)
            r *= rng.uniform(0, 0.9) / np.linalg.norm(r)
            angle = rng.uniform(0, 2 * np.pi)
            f = BlochVector(0.0, np.sin(angle), np.cos(angle))
            w = stereographic_project(BlochVector(*r), f)
            pole = -f.as_array()
            e_hat = np.cross(pole, [1.0, 0, 0])
            q = w.real * np.array([1.0, 0, 0]) - w.imag * e_hat
            d = (q - pole) / np.linalg.norm(q - pole)
            dist = np.linalg.norm((r - pole) - ((r - pole) @ d) * d)
            assert dist < 1e-10

    def test_infinite_point_rejected(self):
        with pytest.raises(ValueError):
            stereographic_invert(complex(np.inf, 0))


class TestWeakConditionMargin:
    def test_direct_substitution(self):
        probe = ProbeConfig(w0=1.0, g=0.05)
        assert weak_condition_margin(1.0, probe) == pytest.approx(20.0)
        assert weak_condition_margin(50.0, probe) \
            == pytest.approx(0.4)

    def test_h_state_default_geometry(self):
        probe = ProbeConfig(w0=1.0, g=0.05)
        w = stereographic_project(QubitState(np.pi / 4, 0))
        assert weak_condition_margin(w, probe) == pytest.approx(20.0)

    def test_small_weak_values_capped_at_one(self):
        probe = ProbeConfig(w0=1.0, g=0.1)
        assert weak_condition_margin(0.1, probe) == pytest.approx(10.0)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            weak_condition_margin(1.0, ProbeConfig(w0=1.0, g=0.0))
