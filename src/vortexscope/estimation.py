"""State recovery from intensity images: dark-core (ZIP) localization,
calibration from reference images, inversion to a state estimate, and the
multi-post-selection least-squares reconstruction of mixed states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .imaging import IntensityImage, real, reals
from .polarization import BlochVector, QubitState
from .weakvalue import (SOUTH_POLE, projection_line, stereographic_invert,
                        weak_value_pure)


class EstimationError(ValueError):
    """Base of the failures to read a state off images or observations."""


class NoVortexError(EstimationError):
    """No interior low-intensity component: the image shows no vortex core."""


class AmbiguousVortexError(EstimationError):
    """Several equal-size interior dark components; candidates attached."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


class NearPoleError(EstimationError):
    """Estimated weak value too large: the projection is ill-conditioned."""


class DegenerateGeometryError(EstimationError):
    """Reconstruction lines too close to parallel to intersect reliably."""


class CalibrationError(EstimationError):
    """Reference set insufficient to determine the calibration."""


@dataclass(frozen=True)
class ZipEstimate:
    """Dark-core location in physical coordinates with extraction context."""

    position: tuple
    pixel_count_used: int
    threshold_used: float

    def __post_init__(self):
        if self.pixel_count_used < 1:
            raise ValueError("a ZIP estimate must use at least one pixel")
        object.__setattr__(self, "position",
                           (float(self.position[0]), float(self.position[1])))


@dataclass(frozen=True)
class Calibration:
    """Affine map from weak values to image positions: w = 0 lands at
    `origin`, |w| = 1 is `scale` away, axes rotated by `orientation`."""

    origin: tuple = (0.0, 0.0)
    scale: float = 1.0
    orientation: float = 0.0

    def __post_init__(self):
        if not 0 < self.scale < np.inf:
            raise ValueError(
                f"calibration scale must be positive and finite, got {self.scale}")
        if not np.isfinite(self.orientation):
            raise ValueError("calibration orientation must be finite")
        origin = np.asarray(self.origin, dtype=float)
        if origin.shape != (2,) or not np.isfinite(origin).all():
            raise ValueError("calibration origin must be two finite numbers")
        object.__setattr__(self, "origin", (float(origin[0]), float(origin[1])))

    def apply(self, w: complex):
        rot = complex(w) * np.exp(1j * self.orientation) * self.scale
        return (self.origin[0] + rot.real, self.origin[1] + rot.imag)

    def unapply(self, position) -> complex:
        d = complex(position[0] - self.origin[0], position[1] - self.origin[1])
        return d * np.exp(-1j * self.orientation) / self.scale

    def to_json(self) -> dict:
        return {"origin_mm": list(self.origin), "scale_mm": self.scale,
                "orientation_rad": self.orientation}

    @classmethod
    def from_json(cls, data: dict) -> "Calibration":
        return cls(origin=reals(data, "origin_mm"), scale=real(data, "scale_mm"),
                   orientation=real(data, "orientation_rad", 0.0))


@dataclass(frozen=True)
class ReconstructionResult:
    bloch: BlochVector
    residual: float
    images_used: int
    clipped: bool = False


# ---------------------------------------------------------------------------
# ZIP extraction
# ---------------------------------------------------------------------------

def extract_zip(img: IntensityImage, threshold_fraction: float = 0.01) -> ZipEstimate:
    """Locate the dark vortex core of an intensity image.

    Pixels at or below threshold_fraction * max form 4-connected candidate
    regions; the largest region not touching the border (the beam's dark
    exterior always touches it) is averaged with weights
    (threshold - intensity), so the darkest pixels dominate.

    A count image is thresholded on its counts: a count k is dark iff
    k * scale <= threshold in float, so the selection and every output equal
    those of its float view, and only the winner's pixels become floats.

    Only a band of rows is labelled.  A row is inner when it holds more dark
    pixels than its dark runs from the left and to the right edge; those
    runs reach the border along the row, so every interior region lies in
    the inner rows.  The band adds one row above and below them, and a band
    region touching its first or last row joins the exterior.  Per-row
    counts come from the sorted dark-pixel indices, the left run from
    argmin, and the dark pixels past the left run are all in the right run
    iff the first of them sits that many columns from the right edge.
    Region sizes come from one bincount over the labels of the band's dark
    pixels, held in a band-sized label array, and the average runs over the
    winner's pixels only, through the 1-D sensor axes.
    """
    if not 0.0 < threshold_fraction < 0.5:
        raise ValueError("threshold_fraction must lie in (0, 0.5)")
    stored, scale = img.stored, img.scale
    peak = img.max_intensity()
    if peak <= 0:
        raise NoVortexError("image has no positive intensity")
    threshold = threshold_fraction * peak
    limit = threshold
    if stored.dtype == np.uint16:
        # the largest count k with k * scale <= threshold in float
        limit = int(threshold / scale)
        limit += (limit + 1) * scale <= threshold
        limit -= limit * scale > threshold
    dark = stored <= limit
    flat = np.flatnonzero(dark)
    if flat.size == 0:
        raise NoVortexError("no pixels below threshold")
    height, width = dark.shape
    starts = np.searchsorted(flat, np.arange(height + 1) * width)
    per_row = np.diff(starts)
    left = dark.argmin(axis=1)  # dark run from the left edge; 0 if all dark
    rest = per_row - left
    beyond = np.flatnonzero(rest)
    first = flat[starts[beyond] + left[beyond]]
    inner = beyond[first != (beyond + 1) * width - rest[beyond]]
    if inner.size == 0:
        raise NoVortexError("no interior low-intensity component found")
    top, stop = max(inner[0] - 1, 0), min(inner[-1] + 2, height)
    band = np.empty((stop - top, width), np.int32)
    count = ndimage.label(dark[top:stop], output=band)
    flat = flat[starts[top]:starts[stop]]  # band pixels: lit label 0 has size 0
    flat_labels = band.ravel()[flat - top * width]
    sizes = np.bincount(flat_labels, minlength=count + 1)
    for edge in (band[0], band[-1], band[:, 0], band[:, -1]):
        sizes[edge] = 0
    best_size = sizes.max()
    if best_size == 0:
        raise NoVortexError("no interior low-intensity component found")
    ties = np.flatnonzero(sizes == best_size)[::-1]
    members = [np.divmod(flat[flat_labels == k], width) for k in ties]
    xs, ys = img.sensor.axes()
    if len(ties) > 1:
        candidates = [(float(xs[cols].mean()), float(ys[rows].mean()))
                      for rows, cols in members]
        raise AmbiguousVortexError(
            f"{len(ties)} equal-size dark components", candidates)
    rows, cols = members[0]
    weights = threshold - stored[rows, cols] * scale  # >= 0 on every member
    total = weights.sum()
    if total <= 0:  # every selected pixel sits exactly at the threshold
        weights, total = np.ones(rows.size), rows.size
    position = (float((xs[cols] * weights).sum() / total),
                float((ys[rows] * weights).sum() / total))
    return ZipEstimate(position=position, pixel_count_used=int(rows.size),
                       threshold_used=float(threshold))


# ---------------------------------------------------------------------------
# State estimation and calibration
# ---------------------------------------------------------------------------

def estimate_state(zip_estimate: ZipEstimate, calibration: Calibration,
                   postselection: BlochVector = SOUTH_POLE,
                   max_weak_value: float = 50.0) -> QubitState:
    """Map a ZIP through the calibration to a weak value and invert the
    projection.  Estimates beyond `max_weak_value` are refused: near the
    pole the projection stretches and small image errors explode."""
    w = calibration.unapply(zip_estimate.position)
    if abs(w) > max_weak_value:
        raise NearPoleError(
            f"|w| = {abs(w):.1f} exceeds the cap {max_weak_value}; "
            "the estimate is ill-conditioned this close to the pole")
    return stereographic_invert(w, postselection).to_state()


def calibrate(references) -> tuple:
    """Least-squares fit of (origin, scale, orientation) from reference
    images of known states.

    Each reference is an (IntensityImage, QubitState) pair taken with the
    default |1> post-selection.  Solves z = origin + c * w over complex
    unknowns (origin, c); needs two distinct weak values.  Returns the
    calibration together with the RMS position residual.
    """
    if len(references) < 2:
        raise CalibrationError("need at least two reference images")
    ws, zs = [], []
    for image, state in references:
        ws.append(weak_value_pure(state).value)
        zip_est = extract_zip(image)
        zs.append(complex(*zip_est.position))
    ws = np.array(ws)
    zs = np.array(zs)
    if np.max(np.abs(ws[:, None] - ws[None, :])) < 1e-12:
        raise CalibrationError("reference weak values are all identical")
    if np.max(np.abs(ws)) < 1e-12:
        raise CalibrationError("need at least one reference with w != 0")
    design = np.column_stack([np.ones_like(ws), ws])
    coeff, *_ = np.linalg.lstsq(design, zs, rcond=None)
    origin, c = coeff
    if abs(c) < 1e-15:
        raise CalibrationError("degenerate fit: zero scale")
    fit = Calibration(origin=(origin.real, origin.imag),
                      scale=float(abs(c)), orientation=float(np.angle(c)))
    residual = float(np.sqrt(np.mean(np.abs(design @ coeff - zs) ** 2)))
    return fit, residual


# ---------------------------------------------------------------------------
# Mixed-state reconstruction
# ---------------------------------------------------------------------------

def _reconstruction_line(w: complex, postselection: BlochVector):
    """Line through the projection pole and the plane point of w."""
    pole, plane_point = projection_line(w, postselection)
    direction = plane_point - pole
    return pole, direction / np.linalg.norm(direction)


def reconstruct_mixed(observations, condition_limit: float = 1e8) -> ReconstructionResult:
    """Least-squares crossing point of the projection lines of several
    post-selections.

    Each observation is (ZipEstimate, Calibration, postselection).  The
    Bloch vector of the measured state lies on every line through the pole
    -f and that plane's projection point, so the closest point to all lines
    recovers it; the RMS point-to-line distance is reported as the residual.
    """
    if len(observations) < 2:
        raise ValueError("need at least two observations")
    poles, dirs = [], []
    for zip_estimate, calibration, postselection in observations:
        w = calibration.unapply(zip_estimate.position)
        pole, direction = _reconstruction_line(w, postselection)
        poles.append(pole)
        dirs.append(direction)
    normal = np.zeros((3, 3))
    rhs = np.zeros(3)
    for pole, direction in zip(poles, dirs):
        proj = np.eye(3) - np.outer(direction, direction)
        normal += proj
        rhs += proj @ pole
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > condition_limit:
        overlaps = [(abs(float(dirs[i] @ dirs[j])), i, j)
                    for i in range(len(dirs)) for j in range(i + 1, len(dirs))]
        _, i, j = max(overlaps)
        raise DegenerateGeometryError(
            f"reconstruction lines {i} and {j} are (near-)parallel; "
            "add a post-selection on another axis")
    point = np.linalg.solve(normal, rhs)
    dists = [np.linalg.norm((point - pole) - ((point - pole) @ d) * d)
             for pole, d in zip(poles, dirs)]
    residual = float(np.sqrt(np.mean(np.square(dists))))
    clipped = False
    norm = np.linalg.norm(point)
    if norm > 1.0 + 1e-6:
        point = point / norm
        clipped = True
    elif norm > 1.0:
        point = point / norm
    return ReconstructionResult(bloch=BlochVector.from_array(point),
                                residual=residual,
                                images_used=len(observations),
                                clipped=clipped)
