"""Analytic probe-beam physics: Laguerre-Gaussian vortex amplitudes, the
post-selected probe field (exact two-component form and the weak-limit
complex-displaced vortex), and closed-form intensity centroids with their
quadrature oracle.

A pure field is a short list of displaced vortex terms, (coefficient,
shift) pairs, and a mixture a coherence matrix over two such terms; one
routine evaluates both over physical (x, y) coordinates: pointwise on
full meshgrids for quadrature and root finding, separably on an open pixel
grid for rendering.  Lengths are in millimeters throughout.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .polarization import BlochVector, QubitState
from .weakvalue import (SOUTH_POLE, PoleStateError, projection_frame,
                        rotate_to_south, weak_value_mixed, weak_value_pure)

# Sign of the intensity-centroid y coordinate relative to Im(w), fixed once by
# the quadrature oracle: the centroid sits on the opposite side of the x axis
# from the displaced vortex core, because the dark core removes weight from
# the side it occupies.
CENTROID_IM_SIGN = -1.0


class ZeroFieldError(ValueError):
    """Post-selection never succeeds: the post-selected field is identically zero."""


class TruncationWarning(UserWarning):
    """Quadrature or sensor extent too small for the field's support."""


@dataclass(frozen=True)
class ProbeConfig:
    """Vortex probe parameters: 1/e^2-type width w0 of the Gaussian factor
    exp(-(x^2+y^2)/4 w0^2), coupling displacement g (the von Neumann kick
    g/hbar in length units), and vortex charge l."""

    w0: float
    g: float
    l: int = 1

    def __post_init__(self):
        # each comparison is False for NaN
        if not 0 < self.w0 < math.inf:
            raise ValueError("beam width w0 must be positive and finite")
        if not 0 <= self.g < math.inf:
            raise ValueError(f"coupling displacement g must be nonnegative "
                             f"and finite, got {self.g!r}")
        if int(self.l) != self.l or self.l < 1:
            raise ValueError("vortex charge l must be an integer >= 1")
        object.__setattr__(self, "l", int(self.l))
        try:
            norm = self.normalization()
        except ArithmeticError:  # a power overflows, or w0 ** (l + 1) is 0
            norm = 0.0
        if not sys.float_info.min <= norm < math.inf:
            raise ValueError(f"the normalization of w0 = {self.w0!r}, "
                             f"l = {self.l} is not a positive normal float")

    def normalization(self) -> float:
        """N_l with integral |N_l f_l exp(.)|^2 = 1; N_1^2 = 1/(4 pi w0^4)."""
        return 1.0 / math.sqrt(math.pi * math.factorial(self.l)
                               * 2.0 ** (self.l + 1)) / self.w0 ** (self.l + 1)


# Output rows per contraction block: 64 rows of a 1024-pixel frame are
# 512 KiB, so the clamp finds each block still in a core's L2 cache.
_BLOCK_ROWS = 64


def _intensity(b, y, w0):
    """sum_n r[n](y) b[n] with row factors r[n] = y^n exp(-y^2/2 w0^2), one
    contraction over the broadcast grid, clamped at 0, which rounding
    undershoots at an exact zero of the field.  Each element is the same sum
    of the same products for any y, so row chunks are bit-exact."""
    y = np.asarray(y, dtype=float)
    gauss = np.exp(y * y * (-0.5 / w0 ** 2))
    # the term axis n moves last as a view, so the grid axes broadcast
    rows, cols = np.broadcast_arrays(
        np.moveaxis(np.multiply.accumulate([gauss] + [y] * (len(b) - 1)), 0, -1),
        np.moveaxis(np.stack(b), 0, -1))
    out = np.empty(rows.shape[:-1])
    blocks = ([slice(i, i + _BLOCK_ROWS) for i in range(0, len(out), _BLOCK_ROWS)]
              if out.ndim else [Ellipsis])
    for block in blocks:
        part = out[block]
        np.einsum("...n,...n->...", rows[block], cols[block], out=part,
                  optimize=False)
        np.maximum(part, 0.0, out=part)
    return out


def _correlate(p, q):
    """c[n] = sum_j p[j] conj(q[n - j]): the y-polynomial p(y) conj(q(y))."""
    l = len(p) - 1
    return [sum(p[j] * np.conj(q[n - j])
                for j in range(max(0, n - l), min(n, l) + 1))
            for n in range(2 * l + 1)]


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Sum of displaced vortex terms held as (c, s) pairs:
    sum_k c_k N_l (x - s_k + iy)^l exp(-(x - s_k)^2/4 w0^2) exp(-y^2/4 w0^2).

    A complex shift s is the weak-limit displacement G w.  The sum is a
    polynomial in iy with coefficients in x alone, and its squared magnitude
    a real polynomial in y, so on an open grid (x of shape (1, W), y of
    shape (H, 1)) every exponential is one-dimensional.
    `weak_value` records the displacement context of a post-selected field.
    """

    terms: tuple  # of (coefficient, shift)
    probe: ProbeConfig
    description: str
    weak_value: Optional[complex] = None

    def _polynomial(self, x):
        """p[j](x) with amplitude = exp(-y^2/4 w0^2) sum_j p[j] y^j."""
        l, k = self.probe.l, -0.25 / self.probe.w0 ** 2
        x = np.asarray(x, dtype=float)
        # a[j] = C(l, j) sum_k c_k N u_k^(l-j) exp(-u_k^2/4 w0^2), u_k = x - s_k
        a = [0.0] * (l + 1)
        for c, s in self.terms:
            u = x - s
            term = c * self.probe.normalization() * np.exp(u * u * k)
            for j in range(l, -1, -1):
                a[j] = a[j] + math.comb(l, j) * term
                if j:
                    term = term * u
        return [aj * 1j ** j for j, aj in enumerate(a)]  # p[j] = i^j a[j]

    def intensity_coefficients(self, x):
        """Real b[n](x) with |amplitude|^2 = exp(-y^2/2 w0^2) sum_n b[n] y^n."""
        p = self._polynomial(x)
        return [np.real(c) for c in _correlate(p, p)]

    def amplitude(self, x, y):
        p = self._polynomial(x)
        y = np.asarray(y, dtype=float)
        out = p[-1]
        for coeff in reversed(p[:-1]):  # Horner in y
            out = out * y + coeff
        return out * np.exp(y * y * (-0.25 / self.probe.w0 ** 2))

    __call__ = amplitude

    def intensity(self, x, y):
        return _intensity(self.intensity_coefficients(x), y, self.probe.w0)

    def min_extent(self) -> float:
        """Full width that keeps the displaced annulus inside the window."""
        w = 1.0 if self.weak_value is None else max(1.0, abs(self.weak_value))
        return 4.0 * self.probe.w0 + 2.0 * self.probe.g * w


@dataclass(frozen=True, eq=False)
class MixedField:
    """Intensity Re sum_st M_st p_s p_t* of a Hermitian coherence matrix M
    over basis fields p_s; `weak_value` is the mixture's, and sizes the
    window as it does for a pure field."""

    basis: tuple  # of ComplexField
    coherence: np.ndarray  # M, indexed like basis
    probe: ProbeConfig
    description: str
    weak_value: Optional[complex] = None

    def intensity_coefficients(self, x):
        p = [field._polynomial(x) for field in self.basis]
        parts = [[m * c for c in _correlate(p[s], p[t])]
                 for (s, t), m in np.ndenumerate(self.coherence)]
        return [np.real(sum(cs)) for cs in zip(*parts)]

    intensity = ComplexField.intensity
    min_extent = ComplexField.min_extent


def lg_field(cfg: ProbeConfig) -> ComplexField:
    return ComplexField(((1.0, 0.0),), cfg, "lg", weak_value=0.0)


def lg_amplitude(cfg: ProbeConfig, x, y):
    """Normalized vortex amplitude N_l (x+iy)^l exp(-(x^2+y^2)/4 w0^2)."""
    return lg_field(cfg).amplitude(x, y)


def exact_field(cfg: ProbeConfig, state: QubitState,
                postselection: BlochVector = SOUTH_POLE) -> ComplexField:
    """Post-selected field without the weak approximation.  Requires l = 1.

    Two displaced vortex components phi_i(x -+ G, y) interfere with
    coefficients <1|+-><+-|psi>, a form valid at the poles where the weak
    value itself diverges; it equals (<1|psi>/2)(1 +- w) away from them.
    The overall factor carries the post-selection amplitude, so the field
    is deliberately not renormalized.  Post-selections other than |1> are
    handled by rotating the scene about the x axis (which commutes with the
    measurement coupling) so the requested post-selection becomes the
    south pole.
    """
    if cfg.l != 1:
        raise ValueError("the exact post-selected field is defined for l = 1")
    work_state = rotate_to_south(state, postselection)
    try:
        w = weak_value_pure(work_state).value
    except PoleStateError:
        # with zero coupling the components coincide and sum to <1|psi> = 0
        if cfg.g == 0.0:
            raise ZeroFieldError("post-selection never succeeds: "
                                 "pole input with zero coupling") from None
        w = None
    c0, c1 = work_state.amplitudes()
    terms = ((-(c0 - c1) / 2.0, -cfg.g), ((c0 + c1) / 2.0, cfg.g))
    return ComplexField(terms, cfg, "exact", weak_value=w)


def exact_postselected_field(cfg: ProbeConfig, state: QubitState, x, y):
    """Exact post-selected amplitude for the |1> post-selection."""
    return exact_field(cfg, state).amplitude(x, y)


def approx_field(cfg: ProbeConfig, state: QubitState,
                 postselection: BlochVector = SOUTH_POLE) -> ComplexField:
    """Weak-limit field <1|psi> phi_i(x - G w, y) with complex displacement.

    The squared magnitude is the displaced-vortex intensity whose zero sits
    at (G Re w, G Im w).  It evaluates for any l >= 1, but for l >= 2 the
    exact field has l charge-1 zeros spread by O(G), not one charge-l zero.
    """
    work_state = rotate_to_south(state, postselection)
    w = weak_value_pure(work_state).value  # raises at the theta = 0 pole
    c1 = work_state.amplitudes()[1]
    return ComplexField(((c1, cfg.g * w),), cfg, "approx", weak_value=w)


def approx_postselected_field(cfg: ProbeConfig, state: QubitState, x, y):
    """Weak-limit amplitude for the |1> post-selection."""
    return approx_field(cfg, state).amplitude(x, y)


def mixed_exact_field(cfg: ProbeConfig, rho: BlochVector,
                      postselection: BlochVector = SOUTH_POLE) -> MixedField:
    """Exact post-selected intensity of rho = (1 + r.sigma)/2; l = 1 only.

    Coherence M_st = <f|s><s|rho|t><t|f> over the unit exact terms
    phi_1(x -+ G, y); with pole p = -f and e_hat = p x x_hat it is
    1/4 [[1 - r.x_hat, -(r.p - i r.e_hat)], [-(r.p + i r.e_hat), 1 + r.x_hat]].
    """
    if cfg.l != 1:
        raise ValueError("the exact post-selected field is defined for l = 1")
    w_mix = weak_value_mixed(rho, postselection).value
    p, e_hat = projection_frame(postselection)
    r = rho.as_array()
    off = -(r @ p - 1j * (r @ e_hat))
    coherence = 0.25 * np.array([[1.0 - r[0], off], [np.conj(off), 1.0 + r[0]]])
    basis = tuple(ComplexField(((1.0, s),), cfg, "exact") for s in (-cfg.g, cfg.g))
    return MixedField(basis, coherence, cfg, "mixture", weak_value=w_mix)


# ---------------------------------------------------------------------------
# Centroids
# ---------------------------------------------------------------------------

def overlap_factor(cfg: ProbeConfig) -> float:
    """Interference overlap eta = (1 - G^2/2w0^2) exp(-G^2/2w0^2) between the
    two displaced vortex components."""
    u = cfg.g ** 2 / (2 * cfg.w0 ** 2)
    return float((1.0 - u) * np.exp(-u))


def _centroid_denominator(cfg: ProbeConfig, w: complex) -> float:
    eta = overlap_factor(cfg)
    m2 = abs(w) ** 2
    return 0.5 * ((1.0 + m2) + eta * (1.0 - m2))


def analytic_centroid(cfg: ProbeConfig, state: QubitState):
    """Closed-form intensity centroid of the exact post-selected field.

    x_bar = G Re(w) / D and y_bar = s G exp(-G^2/2w0^2) Im(w) / D with
    D = (1 + |w|^2 + eta (1 - |w|^2)) / 2 and the global sign constant
    s = CENTROID_IM_SIGN fixed by the quadrature oracle.  Note the
    exponential attenuation applies to y only.
    """
    if cfg.l != 1:
        raise ValueError("closed-form centroids are defined for l = 1")
    w = weak_value_pure(state).value  # raises at the theta = 0 pole
    d = _centroid_denominator(cfg, w)
    x_bar = cfg.g * w.real / d
    y_bar = CENTROID_IM_SIGN * cfg.g * np.exp(-cfg.g ** 2 / (2 * cfg.w0 ** 2)) \
        * w.imag / d
    return float(x_bar), float(y_bar)


def exact_field_norm(cfg: ProbeConfig, state: QubitState) -> float:
    """Closed-form squared-magnitude integral |<1|psi>|^2 D of the exact field."""
    w = weak_value_pure(state).value
    _, c1 = state.amplitudes()
    return float(abs(c1) ** 2 * _centroid_denominator(cfg, w))


def _quadrature_grid(field, resolution: int, extent: float):
    """Midpoint axis, cell width and the intensity on the open grid
    (axis[None, :], axis[:, None]): rows are y, columns x."""
    cell = extent / resolution
    axis = -extent / 2 + (np.arange(resolution) + 0.5) * cell
    return axis, cell, field.intensity(axis[None, :], axis[:, None])


def _check_truncation(intensity, mass, cell, w0, what):
    edge = (intensity[0, :].sum() + intensity[-1, :].sum()
            + intensity[:, 0].sum() + intensity[:, -1].sum()) * cell * cell
    if mass <= 0 or edge / mass > 1e-9:
        tail = edge / max(mass, 1e-300) * (w0 / cell)
        warnings.warn(
            f"{what}: window may truncate the field; "
            f"estimated relative tail mass ~{tail:.2e}", TruncationWarning,
            stacklevel=3)


def centroid_by_quadrature(field, resolution: int = 512,
                           extent: Optional[float] = None):
    """Intensity-weighted mean position by midpoint-rule quadrature.

    The independent oracle for the closed-form centroids: converges to them
    as resolution grows.  `extent` is the full window width; it defaults to
    16 w0 plus the displacement allowance of the field.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    if extent is None:
        extent = 12.0 * field.probe.w0 + field.min_extent()
    if extent < field.min_extent():
        warnings.warn(
            f"extent {extent} below the recommended {field.min_extent():.3g}",
            TruncationWarning, stacklevel=2)
    axis, cell, intensity = _quadrature_grid(field, resolution, extent)
    total = intensity.sum()
    _check_truncation(intensity, total * cell * cell, cell, field.probe.w0,
                      "centroid_by_quadrature")
    # first moments from the 1-D marginals
    return (float(axis @ intensity.sum(axis=0) / total),
            float(axis @ intensity.sum(axis=1) / total))


def quadrature_norm(field, resolution: int = 512,
                    extent: Optional[float] = None) -> float:
    """Squared-magnitude integral of a field by midpoint-rule quadrature."""
    if extent is None:
        extent = 12.0 * field.probe.w0 + field.min_extent()
    _, cell, intensity = _quadrature_grid(field, resolution, extent)
    return float(intensity.sum() * cell * cell)
