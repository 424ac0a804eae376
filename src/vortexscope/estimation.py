"""State recovery from intensity images: dark-core (ZIP) localization,
calibration from reference ZIPs, inversion to a state estimate, and the
multi-post-selection least-squares reconstruction of mixed states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import IntensityImage, real, reals
from .polarization import BlochVector, QubitState
from .weakvalue import SOUTH_POLE, projection_line, stereographic_invert


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
    """Affine map z = origin + scale e^{i orientation} w from weak values
    to image positions; `unapply` reads w back from a position."""

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

    def unapply(self, position) -> complex:
        d = complex(position[0] - self.origin[0], position[1] - self.origin[1])
        with np.errstate(over="ignore", invalid="ignore"):  # inf, for callers
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
    """`residual` is a distance in the Bloch ball: it has no length unit."""

    bloch: BlochVector
    residual: float
    images_used: int
    clipped: bool = False


# ---------------------------------------------------------------------------
# ZIP extraction
# ---------------------------------------------------------------------------

# A pixel above 2 n + 3 sqrt(n) + SPIKE_MARGIN in intensity units (counts,
# on a noisy frame), n the brightest pixel on its ring three pixels away
# (the border of its 7x7 window), is hot: a hot pixel, a cluster of them up
# to three pixels across, or a cosmic-ray hit, which the threshold's
# reference peak leaves out.  The margin was chosen by test on noisy 512²
# frames, with n the brightest 4-neighbour, as the least that kept the peak
# of every unspiked frame at 10^3, 10^4, 10^5 and 10^6 photons; on 900
# unspiked frames from 10^3 to 10^6 photons the ring drops no peak.
SPIKE_MARGIN = 5.0


def _hot_pixels(stored, scale):
    """Mask of the hot pixels of a frame of stored values worth `scale`
    each.  The ring is the border of each pixel's 7x7 window, the maximum
    of two rows of running 7-column maxima and two columns of running 5-row
    maxima, taken over the stored values; off-frame pixels count 0.  Only a
    pixel above its ring can be hot, so only those are tested in float."""
    height, width = stored.shape
    padded = np.zeros((height + 6, width + 6), stored.dtype)
    padded[3:-3, 3:-3] = stored
    across = np.maximum(padded[:, :-1], padded[:, 1:])
    across = np.maximum(across[:, :-2], across[:, 2:])
    across = np.maximum(across[:, :-3], across[:, 3:])
    down = np.maximum(padded[:-1], padded[1:])
    down = np.maximum(down[:-2], down[2:])
    down = np.maximum(down[:-1], padded[4:])
    n = np.maximum(across[:-6], across[6:])
    np.maximum(n, down[1:-1, :-6], out=n)
    np.maximum(n, down[1:-1, 6:], out=n)
    hot = stored > n
    p, n = stored[hot] * scale, n[hot] * scale
    hot[hot] = p > 2.0 * n + 3.0 * np.sqrt(n) + SPIKE_MARGIN
    return hot


def _reference_peak(img: IntensityImage):
    """(peak, dropped): the brightest intensity that is not a hot pixel, and
    how many hot pixels lie above it.  Only the frame's peak pixel is
    tested, in its 7x7 window, unless it is hot itself."""
    stored, scale = img.stored, img.scale
    i, j = img.peak_pixel
    top, left = max(i - 3, 0), max(j - 3, 0)
    window = stored[top:i + 4, left:j + 4]
    if not _hot_pixels(window, scale)[i - top, j - left]:
        return img.max_intensity(), 0
    hot = _hot_pixels(stored, scale)
    peak = float(stored.max(where=~hot, initial=0)) * scale
    return peak, int(np.count_nonzero(stored[hot] * scale > peak))


def extract_zip(img: IntensityImage, threshold_fraction: float = 0.01) -> ZipEstimate:
    """Locate the dark vortex core of an intensity image.

    Pixels at or below threshold_fraction * peak form 4-connected candidate
    regions; the largest region not touching the border (the beam's dark
    exterior always touches it) is averaged with weights
    (threshold - intensity), so the darkest pixels dominate.  The peak is
    the brightest pixel that is not hot (SPIKE_MARGIN), so a hot pixel or a
    small cluster of them cannot raise the threshold; a refusal names how
    many were left out.
    """
    if not 0.0 < threshold_fraction < 0.5:
        raise ValueError("threshold_fraction must lie in (0, 0.5)")
    peak, dropped = _reference_peak(img)
    try:
        if peak <= 0:
            raise NoVortexError("image has no positive intensity")
        return _dark_core(img, threshold_fraction * peak)
    except EstimationError as error:
        if dropped:
            error.args = (f"{error.args[0]} (hot pixels left out of the "
                          f"peak: {dropped})", *error.args[1:])
        raise


def _dark_core(img: IntensityImage, threshold: float) -> ZipEstimate:
    """The dark-core search of extract_zip at an absolute threshold.

    A count image is thresholded on its counts: a count k is dark iff
    k * scale <= threshold in float, so the selection and every output equal
    those of its float view, and only the winner's pixels become floats.

    Only a band of rows is labelled.  A row is inner when it holds more dark
    pixels than its dark runs from the left and to the right edge; those
    runs reach the border along the row, so every interior region lies in
    the inner rows.  The band adds one row above and below them, and a band
    region touching its first or last row joins the exterior.  The row
    structure comes from the dark mask: per-row counts from one sum over its
    bytes (into uint16 while a row is narrower than 2**16 pixels), the left
    run from argmin, and the right run from argmin over the reversed rows
    that hold dark pixels past their left run.  A right run is no longer
    than those pixels, so only that many columns from the right are read.

    Region sizes come from one bincount over the labels of the band's dark
    pixels between each row's edge runs, held in a band-sized label array;
    the dark-pixel indices are taken over the band rows only.  An edge-run
    pixel belongs to a region that the border rule drops anyway, so no
    interior size, winner or candidate changes.  The average runs over the
    winner's pixels only, through the 1-D sensor axes.
    """
    from scipy import ndimage  # loaded by the first labelling call only

    stored, scale = img.stored, img.scale
    limit = threshold
    if stored.dtype == np.uint16:
        # the largest count k with k * scale <= threshold in float
        limit = int(threshold / scale)
        limit += (limit + 1) * scale <= threshold
        limit -= limit * scale > threshold
    dark = stored <= limit
    height, width = dark.shape
    per_row = np.add.reduce(dark.view(np.uint8), axis=1,
                            dtype=np.uint16 if width < 2 ** 16 else np.intp)
    if not per_row.any():
        raise NoVortexError("no pixels below threshold")
    # dark run from the left edge: argmin reads 0 on an all-dark row
    left = np.where(per_row == width, width, dark.argmin(axis=1))
    rest = per_row - left
    # dark run from the right edge, 0 where no dark pixel lies past the left
    # run.  It holds at most the rest dark pixels, so argmin reads only the
    # last rest.max() columns, reversed; where it stops on a dark pixel, the
    # window is dark to its end and the run is all rest pixels
    beyond = np.flatnonzero(rest)
    right = np.zeros_like(left)
    if beyond.size:
        span = rest[beyond]
        tail = dark[beyond, :-span.max() - 1:-1]
        run = tail.argmin(axis=1)
        right[beyond] = np.where(tail[np.arange(beyond.size), run], span, run)
    inner = beyond[rest[beyond] > right[beyond]]
    if inner.size == 0:
        raise NoVortexError("no interior low-intensity component found")
    top, stop = max(inner[0] - 1, 0), min(inner[-1] + 2, height)
    dark = dark[top:stop]
    band = np.empty(dark.shape, np.int32)
    count = ndimage.label(dark, output=band)
    # the band's dark pixels off the edge runs, in ascending order: row r
    # holds flat[lo[r]:lo[r] + lengths[r]]; lit label 0 has size 0
    per_row, left, right = per_row[top:stop], left[top:stop], right[top:stop]
    lo = np.cumsum(per_row, dtype=np.intp) - per_row + left
    lengths = per_row - left - right
    ends = np.cumsum(lengths)
    flat = np.flatnonzero(dark)
    flat = flat[np.arange(ends[-1]) + np.repeat(lo - ends + lengths, lengths)]
    flat_labels = band.ravel()[flat]
    sizes = np.bincount(flat_labels, minlength=count + 1)
    for edge in (band[0], band[-1], band[:, 0], band[:, -1]):
        sizes[edge] = 0
    best_size = sizes.max()
    if best_size == 0:
        raise NoVortexError("no interior low-intensity component found")
    ties = np.flatnonzero(sizes == best_size)[::-1]
    members = [np.divmod(flat[flat_labels == k] + top * width, width)
               for k in ties]
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

# estimate_state refuses larger |w|: near the pole small image errors explode
MAX_WEAK_VALUE = 50.0


def estimate_state(w: complex, postselection: BlochVector = SOUTH_POLE) -> QubitState:
    """Invert the projection at the weak value w (`Calibration.unapply` of
    a ZIP).  Weak values beyond MAX_WEAK_VALUE, NaN too, are refused."""
    if not abs(w) <= MAX_WEAK_VALUE:  # NaN included
        raise NearPoleError(
            f"|w| = {abs(w):.3g} exceeds the cap {MAX_WEAK_VALUE}; "
            "the estimate is ill-conditioned this close to the pole")
    return stereographic_invert(w, postselection).to_state()


def calibrate(references) -> tuple:
    """Least-squares fit of (origin, scale, orientation) from references.

    Each reference is a (ZipEstimate, w) pair: the ZIP at the caller's
    threshold and w = stereographic_project(state, f) under its analyser f.
    One lstsq solves z = origin + c * w over complex unknowns (origin, c);
    its singular values refuse weak values too close together to fix a
    scale (sigma_2 <= 1e-12 sigma_1).  Returns the calibration together
    with the RMS position residual, 0 for two references, which fit exactly.
    """
    if len(references) < 2:
        raise CalibrationError("need at least two reference images")
    pairs = np.array([(complex(*zip_estimate.position), w)
                      for zip_estimate, w in references])
    if not np.isfinite(pairs).all():
        raise CalibrationError("reference ZIPs and weak values must be finite")
    zs, ws = pairs.T
    (origin, c), sum_sq, _, sigma = np.linalg.lstsq(
        np.column_stack([np.ones_like(ws), ws]), zs, rcond=None)
    if sigma[1] <= 1e-12 * sigma[0]:
        raise CalibrationError("reference weak values are all identical")
    if abs(c) < 1e-15:
        raise CalibrationError("degenerate fit: zero scale")
    fit = Calibration(origin=(origin.real, origin.imag),
                      scale=float(abs(c)), orientation=float(np.angle(c)))
    return fit, float(np.sqrt(sum_sq.sum() / len(references)))


# ---------------------------------------------------------------------------
# Mixed-state reconstruction
# ---------------------------------------------------------------------------

# reconstruct_mixed refuses lines whose stacked projectors A have
# (sigma_1 / sigma_3)**2 above this, the condition number of the normal
# matrix A^T A, or sigma_3 = 0
CONDITION_LIMIT = 1e8


def reconstruct_mixed(observations) -> ReconstructionResult:
    """Least-squares crossing point of the projection lines of several
    post-selections.

    Each observation is (ZipEstimate, Calibration, postselection).  The
    Bloch vector of the measured state lies on every line through the pole
    -f and that plane's projection point, so the closest point to all lines
    recovers it; their RMS distance from it, unitless, is the residual.
    One lstsq over the stacked projectors I - d d^T gives the point, the
    residual and the singular values that decide the refusal.  A line whose
    length overflows (|w| past about 1e154) is refused first, naming its
    plane.  A point more than 1e-6 outside the ball is flagged `clipped`.
    """
    if len(observations) < 2:
        raise ValueError("need at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        poles, plane_points = np.swapaxes([projection_line(
            calibration.unapply(zip_estimate.position), postselection)
            for zip_estimate, calibration, postselection in observations], 0, 1)
        dirs = plane_points - poles
        lengths = np.linalg.norm(dirs, axis=1, keepdims=True)
    far = np.flatnonzero(~np.isfinite(lengths))
    if far.size:
        raise NearPoleError(f"the projection line of plane {far[0]} leaves "
                            "the float range; check its calibration")
    dirs /= lengths
    projectors = np.eye(3) - dirs[:, :, None] * dirs[:, None, :]
    point, sum_sq, _, sigma = np.linalg.lstsq(
        projectors.reshape(-1, 3), (projectors @ poles[:, :, None]).ravel(),
        rcond=None)
    if sigma[2] == 0 or (sigma[0] / sigma[2]) ** 2 > CONDITION_LIMIT:
        # the last of the largest overlaps in (i, j) order names the pair
        overlaps = np.triu(np.abs(dirs @ dirs.T), 1).ravel()
        i, j = divmod(overlaps.size - 1 - int(np.argmax(overlaps[::-1])),
                      len(dirs))
        raise DegenerateGeometryError(
            f"reconstruction lines {i} and {j} are (near-)parallel; "
            "add a post-selection on another axis")
    residual = float(np.sqrt(sum_sq[0] / len(observations)))
    norm = np.linalg.norm(point)
    clipped = bool(norm > 1.0 + 1e-6)
    if norm > 1.0:
        point = point / norm
    return ReconstructionResult(bloch=BlochVector.from_array(point),
                                residual=residual,
                                images_used=len(observations),
                                clipped=clipped)
