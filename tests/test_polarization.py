import numpy as np
import pytest

from vortexscope.polarization import (BlochVector, QubitState,
                                      apply_jones, equator_path, fidelity,
                                      half_wave_plate, infinity_path,
                                      quarter_wave_plate, state_csv_row,
                                      wave_plate)

# Independent Jones oracle: explicit 2x2 arithmetic in the linear basis,
# converted with the basis change fixed by |H> = (|0>+|1>)/sqrt(2).
U_CIRC = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)


def oracle_plate_on_h(retardance, angle):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    lin = rot @ np.diag([1.0, np.exp(-1j * retardance)]) @ rot.T
    c = U_CIRC @ lin @ np.array([1.0, 0.0])  # |H> is (1, 0) in linear basis
    return c


def bloch_of_amplitudes(c):
    c0, c1 = c
    return np.array([2 * np.real(np.conj(c0) * c1),
                     2 * np.imag(np.conj(c0) * c1),
                     abs(c0) ** 2 - abs(c1) ** 2])


class TestQubitState:
    def test_h_state_maps_to_x_axis(self):
        b = QubitState(np.pi / 4, 0.0).bloch()
        assert np.allclose([b.x, b.y, b.z], [1, 0, 0], atol=1e-12)

    def test_pole_canonicalizes_phi(self):
        assert QubitState(0.0, 1.23).phi == 0.0
        assert QubitState(np.pi / 2, 2.5).phi == 0.0

    def test_south_pole(self):
        b = QubitState(np.pi / 2, 0.7).bloch()
        assert np.allclose([b.x, b.y, b.z], [0, 0, -1], atol=1e-12)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            QubitState(-0.1, 0.0)
        with pytest.raises(ValueError):
            QubitState(np.pi / 2 + 0.1, 0.0)

    @pytest.mark.parametrize("phi", [np.nan, np.inf])
    def test_nonfinite_phi_rejected(self, phi):
        with pytest.raises(ValueError, match="phi"):
            QubitState(0.3, phi)

    def test_phi_mod_2pi(self):
        s = QubitState(np.pi / 3, 2 * np.pi + 0.5)
        assert s.phi == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_norm_is_one(self):
        for theta in np.linspace(0, np.pi / 2, 7):
            c = QubitState(theta, 1.1).amplitudes()
            assert abs(np.vdot(c, c) - 1) < 1e-15

    def test_roundtrip_through_bloch(self):
        for theta in np.linspace(0.05, np.pi / 2 - 0.05, 9):
            for phi in np.linspace(0, 2 * np.pi, 11, endpoint=False):
                s = QubitState(theta, phi)
                back = s.bloch().to_state()
                assert abs(back.theta - theta) < 1e-10
                assert abs((back.phi - phi + np.pi) % (2 * np.pi) - np.pi) < 1e-10

    def test_zero_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="zero amplitude vector"):
            QubitState.from_amplitudes(0, 0)


class TestBlochVector:
    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 0.5, 0.0)

    def test_rejects_nan_component(self):
        with pytest.raises(ValueError):
            BlochVector(0.1, np.nan, 0.0)

    def test_mixed_vector_has_no_state(self):
        with pytest.raises(ValueError):
            BlochVector(0.2, 0.0, 0.0).to_state()

    def test_theta_keeps_its_digits_next_to_the_poles(self, rng):
        # a vector d = 1e-7..1e-2 rad from a z pole has theta = d/2 or
        # pi/2 - d/2; reading theta through arccos(z) loses half the digits
        for d, phi in zip(10.0 ** rng.uniform(-7, -2, 500),
                          rng.uniform(-np.pi, np.pi, 500)):
            x, y = np.sin(d) * np.cos(phi), np.sin(d) * np.sin(phi)
            north = BlochVector(x, y, np.cos(d)).to_state().theta
            south = BlochVector(x, y, -np.cos(d)).to_state().theta
            assert north == pytest.approx(d / 2, rel=1e-15)
            assert abs(south - (np.pi / 2 - d / 2)) <= 4.5e-16  # two ulps


class TestWavePlates:
    def test_quarter_at_45_gives_circular(self):
        # matrix-multiplication oracle fixes the handedness
        oracle = bloch_of_amplitudes(oracle_plate_on_h(np.pi / 2, np.pi / 4))
        out = apply_jones(quarter_wave_plate(np.pi / 4), QubitState(np.pi / 4, 0))
        b = out.bloch()
        assert np.allclose([b.x, b.y, b.z], oracle, atol=1e-12)
        assert b.z == pytest.approx(-1.0, abs=1e-12)

    def test_half_at_22p5_gives_diagonal(self):
        oracle = bloch_of_amplitudes(oracle_plate_on_h(np.pi, np.pi / 8))
        out = apply_jones(half_wave_plate(np.pi / 8), QubitState(np.pi / 4, 0))
        b = out.bloch()
        assert np.allclose([b.x, b.y, b.z], oracle, atol=1e-12)
        assert abs(abs(b.y) - 1.0) < 1e-12 and abs(b.z) < 1e-12

    def test_half_at_zero_fixes_h(self):
        out = apply_jones(half_wave_plate(0.0), QubitState(np.pi / 4, 0))
        assert fidelity(out, QubitState(np.pi / 4, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity(self, rng):
        for _ in range(25):
            plate = wave_plate(rng.uniform(0, 2 * np.pi),
                               rng.uniform(0, np.pi))
            assert np.max(np.abs(plate @ plate.conj().T - np.eye(2))) <= 1e-12

    def test_composition_preserves_norm(self, rng):
        state = QubitState(0.9, 2.2)
        for _ in range(5):
            state = apply_jones(quarter_wave_plate(rng.uniform(0, np.pi)),
                                state)
            state = apply_jones(half_wave_plate(rng.uniform(0, np.pi)), state)
        assert abs(np.vdot(state.amplitudes(), state.amplitudes()) - 1) < 1e-12


class TestEquatorPath:
    def test_four_steps_are_quadrature_points(self):
        states = equator_path(4)
        azimuths = [np.arctan2(s.bloch().y, s.bloch().x) for s in states]
        diffs = np.diff(np.unwrap(azimuths))
        assert np.allclose(np.abs(diffs), np.pi / 2, atol=1e-12)

    def test_stays_on_equator(self):
        assert all(abs(s.bloch().z) < 1e-12 for s in equator_path(36))

    def test_winds_once(self):
        azimuths = [np.arctan2(s.bloch().y, s.bloch().x) for s in equator_path(72)]
        total = np.unwrap(azimuths + azimuths[:1])[-1] - azimuths[0]
        assert abs(abs(total) - 2 * np.pi) < 1e-9

    def test_closure_when_plate_wraps(self):
        states = equator_path(36)
        wrapped = apply_jones(half_wave_plate(np.pi / 2), QubitState(np.pi / 4, 0))
        assert fidelity(states[0], wrapped) == pytest.approx(1.0, abs=1e-10)

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            equator_path(1)


class TestInfinityPath:
    def test_closed_under_plate_period(self):
        fixed = quarter_wave_plate(np.pi / 4)
        for angle in (0.3, 1.1):
            h = QubitState(np.pi / 4, 0)
            a = apply_jones(fixed, apply_jones(quarter_wave_plate(angle), h))
            b = apply_jones(fixed, apply_jones(quarter_wave_plate(angle + np.pi),
                                               h))
            assert fidelity(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_confined_to_southern_hemisphere(self):
        assert all(s.bloch().z <= 1e-9 for s in infinity_path(360))

    def test_single_self_intersection(self):
        pts = np.array([s.bloch().as_array() for s in infinity_path(360)])
        n = len(pts)
        close_pairs = []
        for i in range(n):
            for j in range(i + 5, n):
                if i == 0 and j >= n - 5:
                    continue  # cyclic adjacency
                if np.linalg.norm(pts[i] - pts[j]) < 0.02:
                    close_pairs.append((i, j))
        assert close_pairs == [(0, 180)]

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            infinity_path(1)


class TestFidelity:
    def test_identity(self):
        s = QubitState(0.6, 1.9)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_poles(self):
        assert fidelity(QubitState(0, 0), QubitState(np.pi / 2, 0)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_non_state_argument_is_type_error(self):
        with pytest.raises(TypeError, match="QubitState or BlochVector"):
            fidelity(QubitState(0.6, 1.9), 1.0)

    def test_uhlmann_examples(self):
        mixed = BlochVector(0, 0, 0)
        assert fidelity(mixed, mixed) == pytest.approx(1.0, abs=1e-15)
        assert fidelity(mixed, QubitState(0.4, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_and_unitary_invariance(self, rng):
        a = QubitState(0.5, 0.4)
        b = QubitState(1.1, 5.0)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
        before = fidelity(a, b)
        for _ in range(4):
            angle = rng.uniform(0, np.pi)
            plate = half_wave_plate if rng.integers(2) else quarter_wave_plate
            a = apply_jones(plate(angle), a)
            b = apply_jones(plate(angle), b)
        assert fidelity(a, b) == pytest.approx(before, abs=1e-12)

    def test_pure_matches_uhlmann_on_sphere(self):
        a, b = QubitState(0.5, 0.9), QubitState(1.2, 4.4)
        assert fidelity(a, b) == pytest.approx(fidelity(a.bloch(), b.bloch()),
                                               abs=1e-12)


def test_csv_row():
    row = state_csv_row(QubitState(np.pi / 4, 0))
    assert row[0] == pytest.approx(np.pi / 4)
    assert row[2:] == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
