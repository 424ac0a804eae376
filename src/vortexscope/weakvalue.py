"""Weak values of the circular-basis sigma_x observable and their reading as
a stereographic projection of the Bloch sphere.

For a post-selection whose Bloch vector f is orthogonal to the x axis, the
weak value of sigma_x coincides with the stereographic projection of the
state from the pole p = -f onto the plane through the origin spanned by
x_hat and e_hat = p x x_hat (real part along x_hat, imaginary part along
-e_hat).  Post-selections with a component along x are rejected: their weak
values are no longer projection points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polarization import BlochVector, QubitState

X_AXIS = np.array([1.0, 0.0, 0.0])
SOUTH_POLE = BlochVector(0.0, 0.0, -1.0)

_ORTHO_TOL = 1e-9


class PoleStateError(ValueError):
    """The pre-selected state sits at the projection pole (weak value diverges)."""


class PointAtInfinityError(ValueError):
    """The projected state is the pole itself; choose another post-selection plane."""


class ZeroPostselectionError(ValueError):
    """Orthogonal post-selection: the success probability vanishes."""


def _check_postselection(postselection: BlochVector) -> np.ndarray:
    f = postselection.as_array()
    if abs(np.linalg.norm(f) - 1.0) > 1e-9:
        raise ValueError("post-selection Bloch vector must have unit norm")
    if abs(f @ X_AXIS) > _ORTHO_TOL:
        raise ValueError(
            "post-selection must be orthogonal to the observable (x) axis "
            "for the projection reading to hold")
    return f


def projection_frame(postselection: BlochVector):
    """Projection pole p = -f and in-plane axis e_hat = p x x_hat."""
    f = _check_postselection(postselection)
    p = -f
    e_hat = np.cross(p, X_AXIS)
    return p, e_hat


def postselection_rotation_angle(postselection: BlochVector) -> float:
    """Angle beta such that rotating the south pole by beta about x gives f.

    Rotating a scene's Bloch vectors by -beta about x maps the post-selection
    onto |1>, reducing any allowed post-selection to the south-pole formulas.
    """
    f = _check_postselection(postselection)
    return float(np.arctan2(f[1], -f[2]))


@dataclass(frozen=True)
class WeakValue:
    """Complex weak value of sigma_x with its post-selection context."""

    value: complex
    postselection: BlochVector = SOUTH_POLE

    def __post_init__(self):
        _check_postselection(self.postselection)
        object.__setattr__(self, "value", complex(self.value))


def weak_value_pure(state: QubitState) -> WeakValue:
    """Weak value e^{-i phi} cot(theta) for post-selection |1>."""
    if state.theta < 1e-12:
        raise PoleStateError("weak value diverges for the |0> pre-selection")
    value = np.exp(-1j * state.phi) / np.tan(state.theta)
    return WeakValue(value, SOUTH_POLE)


def weak_value_mixed(rho: BlochVector, postselection: BlochVector) -> WeakValue:
    """Weak value Tr(Pi sigma_x rho) / Tr(Pi rho) in Bloch form.

    With pole p = -f and e_hat = p x x_hat this is
    (r.x_hat - i r.e_hat) / (1 - r.p), which reduces to the pure-state
    formula for unit r and south-pole post-selection.
    """
    p, e_hat = projection_frame(postselection)
    r = rho.as_array()
    denom = 1.0 - float(r @ p)
    if denom <= 2e-12:  # success probability is denom / 2
        raise ZeroPostselectionError(
            "post-selection probability vanishes for this state")
    value = (float(r @ X_AXIS) - 1j * float(r @ e_hat)) / denom
    return WeakValue(value, postselection)


def stereographic_project(state, postselection: BlochVector = SOUTH_POLE) -> complex:
    """Stereographic image of a state; bit-identical to its sigma_x weak
    value (weak_value_pure for pure input with the |1> post-selection,
    weak_value_mixed otherwise)."""
    if isinstance(state, QubitState) and postselection == SOUTH_POLE:
        try:
            return weak_value_pure(state).value
        except PoleStateError:
            raise PointAtInfinityError(
                "state at the projection pole maps to infinity; "
                "switch to another post-selection plane") from None
    rho = state.bloch() if isinstance(state, QubitState) else state
    p, _ = projection_frame(postselection)
    if np.linalg.norm(rho.as_array() - p) < _ORTHO_TOL:
        raise PointAtInfinityError(
            "state at the projection pole maps to infinity; "
            "switch to another post-selection plane")
    return weak_value_mixed(rho, postselection).value


def stereographic_invert(point: complex, postselection: BlochVector = SOUTH_POLE) -> BlochVector:
    """Unit Bloch vector whose projection is `point`.

    Geometrically: the second intersection of the unit sphere with the line
    from the pole p through the plane point Re(w) x_hat - Im(w) e_hat.  For
    the south-pole post-selection this is theta = arccot(|w|), phi = -arg(w).
    """
    w = complex(point)
    if not np.isfinite(w.real) or not np.isfinite(w.imag):
        raise ValueError("projection point must be finite")
    p, e_hat = projection_frame(postselection)
    q = w.real * X_AXIS - w.imag * e_hat
    t = 2.0 / (1.0 + abs(w) ** 2)
    return BlochVector.from_array((1.0 - t) * p + t * q)


def weak_condition_margin(w, probe) -> float:
    """Validity margin (W0/G) / max(1, |w|) of the weak approximation.

    Values well above 1 mean the post-selected probe is a rigidly
    displaced vortex; the command line warns below a threshold of 10.
    """
    if probe.g <= 0:
        raise ValueError("margin requires a positive coupling displacement")
    value = w.value if isinstance(w, WeakValue) else complex(w)
    return float((probe.w0 / probe.g) / max(1.0, abs(value)))


def weak_value_csv_row(w: WeakValue):
    """CSV serialization (re, im, postselect_x, postselect_y, postselect_z)."""
    f = w.postselection
    return (w.value.real, w.value.imag, f.x, f.y, f.z)
