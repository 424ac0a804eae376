"""Weak values of the circular-basis sigma_x observable and their reading as
a stereographic projection of the Bloch sphere.

For a post-selection whose Bloch vector f is orthogonal to the x axis, the
weak value of sigma_x coincides with the stereographic projection of the
state from the pole p = -f onto the plane through the origin spanned by
x_hat and e_hat = p x x_hat (real part along x_hat, imaginary part along
-e_hat).  Post-selections with a component along x are rejected: their weak
values are no longer projection points.

This module owns the post-selection frame (the orthogonality check and the
plane spanned by x_hat and e_hat), the pointer amplitudes of a pure state
in that frame, and `stereographic_project`, the one map from a state to its
weak value: the pointer amplitudes' w for a QubitState, the Bloch form for
a Bloch vector, pure or mixed.  Other modules ask it for these rather than
deriving them.

The pole p = -f has no image: `stereographic_project` raises
PoleStateError there, tested once per state form (|<f|psi>| for a pure
state, 1 - r.p for a Bloch vector).
"""

from __future__ import annotations

import numpy as np

from .polarization import BlochVector, QubitState

X_AXIS = np.array([1.0, 0.0, 0.0])
SOUTH_POLE = BlochVector(0.0, 0.0, -1.0)

_ORTHO_TOL = 1e-9
_POLE_TOL = 1e-12  # |<f|psi>| (theta at |1>) below which w diverges


class PoleStateError(ValueError):
    """The state sits at the projection pole -f: the post-selection never
    succeeds, and the weak value diverges."""


def _check_postselection(postselection: BlochVector) -> np.ndarray:
    f = postselection.as_array()
    if not abs(np.linalg.norm(f) - 1.0) <= 1e-9:
        raise ValueError("post-selection Bloch vector must have unit norm")
    if not abs(f @ X_AXIS) <= _ORTHO_TOL:
        raise ValueError(
            "post-selection must be orthogonal to the observable (x) axis "
            "for the projection reading to hold")
    return f


def projection_frame(postselection: BlochVector):
    """Projection pole p = -f and in-plane axis e_hat = p x x_hat, which
    is (0, p_z, -p_y) for the unit x_hat."""
    p = -_check_postselection(postselection)
    return p, np.array([0.0, p[2], -p[1]])


def projection_line(w: complex, postselection: BlochVector):
    """Pole p = -f and the plane point Re(w) x_hat - Im(w) e_hat of the
    projection point w; the line through them holds every Bloch vector,
    pure or mixed, whose projection is w."""
    p, e_hat = projection_frame(postselection)
    return p, w.real * X_AXIS - w.imag * e_hat


def pointer_amplitudes(state: QubitState, postselection: BlochVector = SOUTH_POLE):
    """Amplitudes (a_-, a_+) = <f|-+><-+|psi> of the two pointer components,
    <f|psi> = a_- + a_+ and the weak value w = (a_+ - a_-) / (a_+ + a_-),
    which is None where <f|psi> vanishes (the state is the pole p = -f).

    Up to the common phase of <f|, with e_hat = (0, cos b, sin b) from
    projection_frame and (c0, c1) the state's amplitudes:
    a_- = -(c0 - c1)/2 and a_+ = e^{ib} (c0 + c1)/2.  The sum and
    difference are grouped by c0 and c1, so at the south pole <f|psi> is c1
    itself and w is c0/c1, with no digits lost next to the pole.
    """
    _, e_hat = projection_frame(postselection)
    c0, c1 = state.amplitudes()
    e = complex(e_hat[1], e_hat[2])
    overlap = ((e - 1.0) * c0 + (e + 1.0) * c1) / 2.0
    w = None
    if abs(overlap) >= _POLE_TOL:
        w = complex(((e + 1.0) * c0 + (e - 1.0) * c1) / (2.0 * overlap))
    return (-(c0 - c1) / 2.0, e * (c0 + c1) / 2.0), overlap, w


def stereographic_project(state, postselection: BlochVector = SOUTH_POLE) -> complex:
    """Stereographic image of a state from the pole p = -f: its sigma_x weak
    value Tr(Pi sigma_x rho) / Tr(Pi rho).

    A QubitState takes the w of `pointer_amplitudes`.  A Bloch vector r,
    pure or mixed, takes the Bloch form (r.x_hat - i r.e_hat) / (1 - r.p)
    with e_hat = p x x_hat.  The pole itself has no image and raises
    PoleStateError.
    """
    if isinstance(state, QubitState):
        w = pointer_amplitudes(state, postselection)[2]
        if w is None:
            raise PoleStateError("weak value diverges: the state is the "
                                 "projection pole of the post-selection")
        return w
    p, e_hat = projection_frame(postselection)
    r = state.as_array()
    denom = 1.0 - float(r @ p)
    # success probability is denom / 2; this bound is wider than _POLE_TOL
    # because 1 - r.p cancels the digits that the amplitude form keeps
    if denom <= 2e-12:
        raise PoleStateError(
            "post-selection probability vanishes for this state")
    return (float(r @ X_AXIS) - 1j * float(r @ e_hat)) / denom


def stereographic_invert(point: complex, postselection: BlochVector = SOUTH_POLE) -> BlochVector:
    """Unit Bloch vector whose projection is `point`.

    Geometrically: the second intersection of the unit sphere with the line
    from the pole p through the plane point Re(w) x_hat - Im(w) e_hat.  For
    the south-pole post-selection this is theta = arccot(|w|), phi = -arg(w).
    """
    w = complex(point)
    if not np.isfinite(w.real) or not np.isfinite(w.imag):
        raise ValueError("projection point must be finite")
    p, q = projection_line(w, postselection)
    t = 2.0 / (1.0 + abs(w) ** 2)
    return BlochVector.from_array((1.0 - t) * p + t * q)


def weak_condition_margin(w: complex, probe) -> float:
    """Validity margin (W0/G) / max(1, |w|) of the weak approximation.

    Values well above 1 mean the post-selected probe is a rigidly
    displaced vortex; the command line warns below a threshold of 10.
    """
    if probe.g <= 0:
        raise ValueError("margin requires a positive coupling displacement")
    return float((probe.w0 / probe.g) / max(1.0, abs(w)))
