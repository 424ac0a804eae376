"""Finite-pixel rendering of analytic fields, photon shot noise, image file
I/O (16-bit binary portable graymap with a JSON provenance comment), and the
in-place rewrite through which every output file is written.

Pixel values are point samples of the intensity at pixel centers; at CCD
pitches far below the beam width the in-pixel variation is negligible, and
the resolution-consistency test guards the choice.
"""

from __future__ import annotations

import fcntl
import functools
import json
import numbers
import operator
import os
import stat
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .probefield import BLOCK_ROWS, TruncationWarning, map_row_bands


class ImageFormatError(ValueError):
    """Malformed image file or metadata inconsistent with the payload."""


@dataclass(frozen=True)
class SensorConfig:
    """Pixel grid geometry; lengths in millimeters.

    pixel (i, j) sits at x = offset_x + (j - (width-1)/2) * pitch,
    y = offset_y + (i - (height-1)/2) * pitch.
    """

    pixel_pitch: float
    width: int
    height: int
    center_offset: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not 0 < self.pixel_pitch < np.inf:
            raise ValueError("pixel pitch must be positive and finite")
        if self.width < 16 or self.height < 16:
            raise ValueError("sensor must be at least 16x16 pixels")
        if self.width * self.height > np.iinfo(np.intp).max // 8:
            raise ValueError(f"a {self.width}x{self.height} frame is too large "
                             "to allocate")
        offset = np.asarray(self.center_offset, dtype=float)
        if offset.shape != (2,) or not np.isfinite(offset).all():
            raise ValueError("center offset must be two finite numbers")
        object.__setattr__(self, "center_offset", (float(offset[0]), float(offset[1])))

    def axes(self):
        """Physical pixel-center coordinates (xs, ys) along each axis."""
        ox, oy = self.center_offset
        xs = ox + (np.arange(self.width) - (self.width - 1) / 2) * self.pixel_pitch
        ys = oy + (np.arange(self.height) - (self.height - 1) / 2) * self.pixel_pitch
        return xs, ys

    def extent(self) -> float:
        return min(self.width, self.height) * self.pixel_pitch


def experiment_ccd() -> SensorConfig:
    """Laboratory CCD geometry: 6.45 um pitch, 1024x1024 pixels."""
    return SensorConfig(pixel_pitch=6.45e-3, width=1024, height=1024)


def fast_sensor(w0: float, pixels: int = 512) -> SensorConfig:
    """Fast test preset covering 8 w0 with a square grid."""
    return SensorConfig(pixel_pitch=8.0 * w0 / pixels,
                        width=pixels, height=pixels)


_INF_BITS = np.float64(np.inf).view(np.uint64)


@dataclass(frozen=True, eq=False)
class IntensityImage:
    """Nonnegative pixel grid with sensor geometry and provenance record.

    `stored` holds float intensities, or native uint16 counts worth `scale`
    each, as a graymap and a shot-noise draw keep them; float intensities
    take scale 1.  Counts are never NaN or negative, so only float
    intensities are scanned: one unsigned argmax over their bit patterns,
    in the calling thread like every reduction over a frame, both
    validates the frame and finds its peak.  `peak_pixel`, (row, column),
    is the first brightest pixel in row-major order.  It is found once, at
    construction, so `stored` and `pixels` are read-only views.
    """

    stored: np.ndarray
    sensor: SensorConfig
    provenance: dict = field(default_factory=dict)
    scale: float = 1.0
    peak_pixel: tuple = field(init=False, repr=False)

    def __post_init__(self):
        stored = np.asarray(self.stored)
        if stored.shape != (self.sensor.height, self.sensor.width):
            raise ImageFormatError(
                f"pixel array {stored.shape} does not match sensor "
                f"{self.sensor.height}x{self.sensor.width}")
        if stored.dtype == np.uint16:
            if not 0 < self.scale * _PGM_MAXVAL < np.inf:
                raise ImageFormatError(f"count scale must be positive and "
                                       f"finite at full scale, got {self.scale}")
            peak = divmod(int(stored.argmax()), self.sensor.width)
        else:
            stored = stored.astype(float, copy=False)
            if self.scale != 1.0:
                raise ImageFormatError("float intensities take scale 1")
            # Finite nonnegative doubles order like their bit patterns, all
            # below +inf's; NaN, inf and every negative value, -0.0 too, lie
            # at or above it.  Below it, the largest pattern is the peak.
            bits = stored.view(np.uint64)
            width = self.sensor.width
            peak = divmod(int(bits.argmax()), width)
            if bits[peak] >= _INF_BITS:
                # refuse, or accept -0.0: two reductions, no temporaries;
                # argmax stops at the first NaN, and min() is NaN if any is
                peak = divmod(int(stored.argmax()), width)
                if not (stored.min() >= 0 and stored[peak] < np.inf):
                    raise ImageFormatError(
                        "pixel intensities must be finite and nonnegative: "
                        "found NaN/inf or a negative value")
        stored = stored.view()
        stored.flags.writeable = False
        object.__setattr__(self, "stored", stored)
        object.__setattr__(self, "peak_pixel", peak)

    @functools.cached_property
    def pixels(self) -> np.ndarray:
        """Float intensities: the stored array, or counts * scale made on
        first use and kept."""
        if self.stored.dtype != np.uint16:
            return self.stored
        view = self.stored * self.scale
        view.flags.writeable = False
        return view

    def max_intensity(self) -> float:
        return float(self.stored[self.peak_pixel]) * self.scale


def render(field, sensor: SensorConfig) -> IntensityImage:
    """Sample |field|^2 at pixel centers.

    The field is evaluated in one call on the open grid (xs[None, :],
    ys[:, None]), which broadcasts to the full pixel array.  Each pixel is
    the same product of the same 1-D factors whatever rows a call spans, so
    any row slice of the frame equals the same call on those rows alone.
    """
    xs, ys = sensor.axes()
    # A term displaced beyond the float range squares its offset to inf, so
    # its Gaussian gives the 0 it would underflow to anyway; a complex shift
    # can instead give inf or NaN, which IntensityImage refuses.  The
    # refusal, not a numpy warning, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        pixels = np.asarray(field.intensity(xs[None, :], ys[:, None]),
                            dtype=float)

    provenance = {
        "mode": getattr(field, "description", "unknown"),
        "probe": {"w0": field.probe.w0, "g": field.probe.g, "l": field.probe.l},
        "state": "unknown",
        "noise": None,
        "warnings": [],
    }
    if getattr(field, "weak_value", None) is not None:
        w = complex(field.weak_value)
        provenance["weak_value"] = [w.real, w.imag]
    needed = field.min_extent() if hasattr(field, "min_extent") else 0.0
    if sensor.extent() < needed:
        msg = (f"field of view {sensor.extent():.3g} below recommended "
               f"{needed:.3g}; tails are truncated")
        provenance["warnings"].append(msg)
        warnings.warn(msg, TruncationWarning, stacklevel=2)
    return IntensityImage(pixels, sensor, provenance)


# ---------------------------------------------------------------------------
# Outside input: scenario, grid, calibration and image-header fields
# ---------------------------------------------------------------------------

def _entry(section: dict, key: str, default):
    if key in section:
        return section[key]
    if default is None:
        raise ValueError(f"'{key}' is required")
    return default


def _is_real(value) -> bool:
    """True for an int or float within the finite floats; False for a bool,
    a string, NaN, inf or an int too large to be a float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def real(section: dict, key: str, default=None) -> float:
    """section[key], or default if it is absent and given, as a finite float."""
    value = _entry(section, key, default)
    if not _is_real(value):
        raise ValueError(f"'{key}' must be a finite number (got {value!r})")
    return float(value)


def integer(section: dict, key: str, default=None) -> int:
    """section[key], or default, as an int: a fraction, a string, a bool or
    a whole float such as 2.0 is an error."""
    value = _entry(section, key, default)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"'{key}' must be an integer (got {value!r})")
    return int(value)


def reals(section: dict, key: str, default=None) -> list:
    """section[key], or default, as a non-empty list of finite floats."""
    value = _entry(section, key, default)
    if not (isinstance(value, list) and value and all(map(_is_real, value))):
        raise ValueError(f"'{key}' must be a non-empty list of finite "
                         f"numbers (got {value!r})")
    return [float(v) for v in value]


def mapping(section: dict, key: str, default=None) -> dict:
    """section[key], or default, if it is a JSON object."""
    value = _entry(section, key, default)
    if not isinstance(value, dict):
        raise ValueError(f"'{key}' must be an object (got {value!r})")
    return value


def text(section: dict, key: str, default=None) -> str:
    """section[key], or default, if it is a string."""
    value = _entry(section, key, default)
    if not isinstance(value, str):
        raise ValueError(f"'{key}' must be a string (got {value!r})")
    return value


# No pixel's Poisson mean exceeds the budget, and numpy rejects means above
# about 9.2e18.  The frame sets the working range, far lower: add_shot_noise
# refuses a draw of more than 65535 photons (one uint16 count) in a pixel.
MAX_PHOTON_BUDGET = 1e18


def checked_photon_budget(value) -> float:
    """value as a float if it is a usable photon budget, else ValueError."""
    if not (_is_real(value) and 0 < value <= MAX_PHOTON_BUDGET):
        raise ValueError(f"photon budget must be a positive number at most "
                         f"{MAX_PHOTON_BUDGET:g}, got {value!r}")
    return float(value)


def checked_seed(value) -> int:
    """value if it is an integer with 0 <= value < 2**64, else ValueError."""
    seed = integer({"seed": value}, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be at least 0 and below 2**64, got {seed}")
    return seed


def add_shot_noise(img: IntensityImage, photon_budget: float, seed: int,
                   frame: int = 0) -> IntensityImage:
    """Replace pixels by Poisson counts with expected total = photon_budget,
    as uint16 counts at scale 1; a count above 65535 is a ValueError.

    Block b of BLOCK_ROWS rows of frame `frame` in run `seed` draws from
    Generator(SFC64(SeedSequence(seed, spawn_key=(frame, b)))), built in the
    run that draws the block.  The blocks are drawn in parallel on the
    shared row-band pool, whose runs are whole blocks (numpy's sampler
    releases the GIL), and the counts depend only on (seed, frame, block),
    never on the number of workers.  Geometry and
    upstream provenance are untouched.
    """
    photon_budget = checked_photon_budget(photon_budget)
    seed = checked_seed(seed)
    frame = operator.index(frame)
    total = img.pixels.sum()
    if total <= 0:
        raise ValueError("cannot scale a zero image to a photon budget")
    scale = photon_budget / total
    counts = np.empty(img.pixels.shape, np.uint16)

    def draw(start, stop):
        # one reused float block of means per run; each draw is cast to uint16
        block = np.empty((BLOCK_ROWS, img.sensor.width))
        for i in range(start, stop, BLOCK_ROWS):
            rows = img.pixels[i:i + BLOCK_ROWS]
            mean = np.multiply(rows, scale, out=block[:len(rows)])
            stream = np.random.SeedSequence(
                seed, spawn_key=(frame, i // BLOCK_ROWS))
            drawn = np.random.Generator(np.random.SFC64(stream)).poisson(mean)
            if drawn.max() > _PGM_MAXVAL:
                raise ValueError(f"photon budget {photon_budget:g} draws a "
                                 f"count above {_PGM_MAXVAL}, past 16 bits")
            counts[i:i + len(rows)] = drawn
            del drawn  # free this draw before the next block's is made

    map_row_bands(draw, img.sensor.height)
    provenance = dict(img.provenance)
    provenance["noise"] = {"photon_budget": photon_budget, "seed": seed,
                           "frame": frame}
    return IntensityImage(counts, img.sensor, provenance)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_PGM_MAXVAL = 65535


def _parse_header(header: dict, path):
    """(sensor, intensity scale, provenance) of an image header; a missing or
    malformed field raises ImageFormatError naming the file and the field."""
    try:
        sensor = SensorConfig(real(header, "pixel_pitch_mm"),
                              integer(header, "width"),
                              integer(header, "height"),
                              center_offset=reals(header, "origin_offset_mm"))
        scale = real(header, "intensity_scale", 1.0)
        if not 0 < scale * _PGM_MAXVAL < np.inf:
            raise ValueError(f"'intensity_scale' must be positive and finite "
                             f"at full scale (got {scale!r})")
        return sensor, scale, mapping(header, "provenance", {})
    except ValueError as bad:
        raise ImageFormatError(f"{path}: header: {bad}") from None


def _graymap_path(path) -> Path:
    path = Path(path)
    if path.suffix.lower() not in (".pgm", ".pnm"):
        raise ValueError(f"{path}: image files are .pgm or .pnm graymaps")
    return path


def rewrite_file(path, placeholder: bytes, *chunks) -> None:
    """Write the chunks (bytes or arrays) to path, one after another.

    An existing file is overwritten in place and cut at the end of the last
    chunk; it is not truncated first, since freeing and reallocating its
    blocks costs several times the write itself.  Until then the file's
    head, the first len(placeholder) bytes of the first chunk, reads as the
    placeholder, so an interrupted rewrite never passes for a complete
    file; the real head is written last.  The rewrite holds an exclusive
    flock, so a reader that takes a shared one never sees it half done.  A
    target that is not a regular file, such as a pipe, cannot be cut or
    rewound and is written straight through.
    """
    head = chunks[0][:len(placeholder)]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as fh:
        if not stat.S_ISREG(os.stat(fd).st_mode):
            for chunk in chunks:
                fh.write(chunk)
            return
        fcntl.flock(fd, fcntl.LOCK_EX)  # released on close
        for chunk in (placeholder, chunks[0][len(placeholder):], *chunks[1:]):
            fh.write(chunk)
        fh.truncate()
        fh.seek(0)
        fh.write(head)


def write_image(img: IntensityImage, path) -> None:
    """Write a 16-bit binary graymap with the sensor geometry, intensity
    scale and provenance in a JSON comment.

    A uint16 count frame is written as its stored counts at its own scale,
    so it reads back as the frame that was written; no float view is made.
    A float frame is scaled to its peak, and an all-zero one written at
    scale 1.

    The file goes through rewrite_file with placeholder magic P0, which
    read_image rejects, so an interrupted rewrite never passes for an image.

    The quantiser divides, rounds and stores in row bands on the shared
    pool.  Each band's float block holds its share of BLOCK_ROWS rows, in
    proportion to the band's rows, so together they hold at most one
    block.
    """
    path = _graymap_path(path)
    stored, sensor = img.stored, img.sensor
    if stored.dtype == np.uint16:
        scale = img.scale
        quantized = stored.astype(">u2", order="C")
    else:
        scale = img.max_intensity() / _PGM_MAXVAL or 1.0  # 1 if all zero
        quantized = np.empty(stored.shape, dtype=">u2")

        def quantize(start, stop):
            # each run's float block is its share of one BLOCK_ROWS block
            step = max(1, BLOCK_ROWS * (stop - start) // sensor.height)
            block = np.empty((step, sensor.width))
            for i in range(start, stop, step):
                rows = stored[i:min(i + step, stop)]
                part = block[:len(rows)]
                np.divide(rows, scale, out=part)
                np.rint(part, out=part)
                quantized[i:i + len(rows)] = part

        map_row_bands(quantize, sensor.height)
    header = {"pixel_pitch_mm": sensor.pixel_pitch, "width": sensor.width,
              "height": sensor.height, "origin_offset_mm": sensor.center_offset,
              "intensity_scale": scale, "provenance": img.provenance}
    rewrite_file(path, b"P0",
                 f"P5\n# {json.dumps(header)}\n{sensor.width} "
                 f"{sensor.height}\n{_PGM_MAXVAL}\n".encode(), quantized)


def read_image(path) -> IntensityImage:
    """Read a graymap written by write_image; its counts stay uint16."""
    path = _graymap_path(path)
    with open(path, "rb") as fh:
        # a shared flock keeps write_image out until the payload is read
        fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
        tokens = []
        header_json = None
        while len(tokens) < 4:
            line = fh.readline()
            if not line:
                raise ImageFormatError(
                    f"{path}: truncated header at byte {fh.tell()}")
            if line.startswith(b"#"):
                text = line[1:].strip()
                if text.startswith(b"{"):
                    try:
                        header_json = json.loads(text.decode())
                    except (ValueError, RecursionError):  # or nested too deep
                        raise ImageFormatError(
                            f"{path}: provenance comment is not valid JSON") from None
                continue
            tokens.extend(line.split())
        magic = tokens[0]
        if magic != b"P5":
            raise ImageFormatError(
                f"{path}: expected binary graymap magic P5, got {magic!r}")
        try:
            width, height, maxval = (int(token) for token in tokens[1:4])
        except ValueError:
            raise ImageFormatError(f"{path}: header width/height/maxval "
                                   "must be integers") from None
        if maxval != _PGM_MAXVAL:
            raise ImageFormatError(
                f"{path}: expected 16-bit maxval {_PGM_MAXVAL}, got {maxval}")
        if header_json is None:
            raise ImageFormatError(f"{path}: missing provenance comment")
        sensor, scale, provenance = _parse_header(header_json, path)
        if (sensor.width, sensor.height) != (width, height):
            raise ImageFormatError(
                f"{path}: header geometry {sensor.width}x{sensor.height} "
                f"does not match payload {width}x{height}")
        expected = width * height * 2
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise ImageFormatError(
                f"{path}: payload is {available} bytes, expected {expected}")
        # Read the payload straight into the array: it starts after a header
        # of any length, so a view into the file's bytes could be unaligned.
        counts = np.empty(width * height, np.uint16)
        got = fh.readinto(counts)
        if got != expected:  # the file shrank after fstat
            raise ImageFormatError(
                f"{path}: payload read {got} bytes, expected {expected}")
    # big-endian to native order in place: numpy copies a 1-D array onto
    # itself without a temporary
    np.copyto(counts, counts.view(">u2"))
    return IntensityImage(counts.reshape(height, width), sensor, provenance,
                          scale)
