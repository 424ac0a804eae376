"""Polarization-qubit state algebra: parametrized pure states, Bloch vectors,
Jones-calculus wave plates, preparation paths, and fidelity.

Basis convention: |0> is left circular, |1> is right circular, anchored by
|H> = (|0>+|1>)/sqrt(2).  Wave-plate matrices are written in the linear
{H, V} basis and conjugated into the circular basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_POLE_TOL = 1e-12

# c_circ = U @ c_lin for kets, fixed by |H> = (|0>+|1>)/sqrt(2)
_LIN_TO_CIRC = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class QubitState:
    """Pure qubit state cos(theta)|0> + e^{i phi} sin(theta)|1>.

    theta is restricted to [0, pi/2]; phi is stored modulo 2*pi and
    canonicalized to 0 at the poles, where it is a global phase.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = float(self.theta)
        if not 0.0 <= theta <= np.pi / 2 + 1e-15:
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
        theta = min(theta, np.pi / 2)
        phi = float(self.phi)
        if not abs(phi) < np.inf:
            raise ValueError(f"phi must be finite, got {phi}")
        phi %= 2 * np.pi
        if theta < _POLE_TOL or (np.pi / 2 - theta) < _POLE_TOL:
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def amplitudes(self) -> np.ndarray:
        """Circular-basis amplitude pair (<0|psi>, <1|psi>)."""
        return np.array([np.cos(self.theta),
                         np.exp(1j * self.phi) * np.sin(self.theta)])

    def bloch(self) -> "BlochVector":
        two_theta = 2 * self.theta
        return BlochVector(np.sin(two_theta) * np.cos(self.phi),
                           np.sin(two_theta) * np.sin(self.phi),
                           np.cos(two_theta))

    @classmethod
    def from_amplitudes(cls, c0: complex, c1: complex) -> "QubitState":
        """Build from an (unnormalized) circular-basis amplitude pair."""
        norm = np.hypot(abs(c0), abs(c1))
        if norm == 0.0:
            raise ValueError("zero amplitude vector")
        theta = np.arctan2(abs(c1), abs(c0))
        phi = np.angle(c1) - np.angle(c0)
        return cls(theta, phi)


@dataclass(frozen=True)
class BlochVector:
    """Point in the closed Bloch ball; unit norm iff the state is pure."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.norm() <= 1.0 + 1e-9:  # also refuses NaN components
            raise ValueError(f"Bloch vector outside the unit ball: |r|={self.norm()}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def norm(self) -> float:
        return float(np.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2))

    def to_state(self) -> QubitState:
        """Convert a unit vector back to (theta, phi); errors if mixed."""
        if abs(self.norm() - 1.0) > 1e-6:
            raise ValueError("only unit Bloch vectors correspond to pure states")
        # arctan2 keeps every digit of theta next to the z poles
        theta = 0.5 * np.arctan2(np.hypot(self.x, self.y), self.z)
        phi = np.arctan2(self.y, self.x)
        return QubitState(theta, phi)

    @classmethod
    def from_array(cls, r) -> "BlochVector":
        r = np.asarray(r, dtype=float)
        return cls(r[0], r[1], r[2])


# ---------------------------------------------------------------------------
# Jones calculus
# ---------------------------------------------------------------------------

def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class JonesOperator:
    """2x2 operator with its matrix written in the circular basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("Jones matrix must be 2x2")
        object.__setattr__(self, "matrix", m)

    def is_unitary(self, tol: float = 1e-12) -> bool:
        dev = self.matrix @ self.matrix.conj().T - np.eye(2)
        return bool(np.max(np.abs(dev)) <= tol)


def wave_plate(retardance: float, angle: float) -> JonesOperator:
    """Linear retarder with the given fast-axis angle from horizontal.

    The slow axis acquires phase e^{-i retardance}; this sign choice makes a
    quarter-wave plate at 45 degrees send |H> to the south pole (|1>), the
    convention documented in the README.
    """
    r = _rotation(angle)
    lin = r @ np.diag([1.0, np.exp(-1j * retardance)]) @ r.T
    return JonesOperator(_LIN_TO_CIRC @ lin @ _LIN_TO_CIRC.conj().T)


def half_wave_plate(angle: float) -> JonesOperator:
    return wave_plate(np.pi, angle)


def quarter_wave_plate(angle: float) -> JonesOperator:
    return wave_plate(np.pi / 2, angle)


def apply_jones(op: JonesOperator, state: QubitState) -> QubitState:
    out = op.matrix @ state.amplitudes()
    return QubitState.from_amplitudes(out[0], out[1])


H_STATE = QubitState(np.pi / 4, 0.0)


# ---------------------------------------------------------------------------
# Preparation paths
# ---------------------------------------------------------------------------

def equator_path(steps: int):
    """Linear polarizations traced by a rotating half-wave plate on |H>.

    The Bloch-sphere trace closes after a quarter turn of the plate, so the
    plate angle is sampled uniformly on [0, pi/2), endpoint-exclusive.  The
    resulting path winds once around the equator.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    return [apply_jones(half_wave_plate(k * (np.pi / 2) / steps), H_STATE)
            for k in range(steps)]


def infinity_path(steps: int):
    """Figure-eight path from a rotating quarter-wave plate followed by a
    quarter-wave plate fixed at 45 degrees, on |H> input.

    Closed with plate period pi; confined to the southern hemisphere
    (z <= 0) under this module's retarder convention, crossing itself at
    the south pole.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    fixed = quarter_wave_plate(np.pi / 4)
    out = []
    for k in range(steps):
        rotated = quarter_wave_plate(k * np.pi / steps)
        out.append(apply_jones(fixed, apply_jones(rotated, H_STATE)))
    return out


# kinds of preparation path; kind k is the function `<k>_path` above
PATHS = ("equator", "infinity")


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def fidelity(a, b) -> float:
    """Fidelity between two states, each a QubitState or a BlochVector.

    Pure-pure inputs use the squared inner product; anything involving a
    Bloch vector uses the two-level Uhlmann form
    F = (1 + a.b + sqrt((1-|a|^2)(1-|b|^2))) / 2.
    """
    if isinstance(a, QubitState) and isinstance(b, QubitState):
        return float(abs(np.vdot(a.amplitudes(), b.amplitudes())) ** 2)
    ra = a.bloch() if isinstance(a, QubitState) else a
    rb = b.bloch() if isinstance(b, QubitState) else b
    if not isinstance(ra, BlochVector) or not isinstance(rb, BlochVector):
        raise TypeError("fidelity expects QubitState or BlochVector inputs")
    va, vb = ra.as_array(), rb.as_array()
    pa = max(0.0, 1.0 - float(va @ va))
    pb = max(0.0, 1.0 - float(vb @ vb))
    f = 0.5 * (1.0 + float(va @ vb) + np.sqrt(pa * pb))
    return float(np.clip(f, 0.0, 1.0))


def state_csv_row(state: QubitState):
    """CSV serialization (theta, phi, x, y, z) used by the command line."""
    b = state.bloch()
    return (state.theta, state.phi, b.x, b.y, b.z)
