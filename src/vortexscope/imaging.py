"""Finite-pixel rendering of analytic fields, photon shot noise, and image
file I/O (16-bit binary portable graymap with a JSON provenance comment, or
exact CSV with a JSON sidecar).

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
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .probefield import TruncationWarning


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

    def coordinates(self):
        """Physical pixel-center coordinate grids (X, Y), row-major."""
        return np.meshgrid(*self.axes(), indexing="xy")

    def extent(self) -> float:
        return min(self.width, self.height) * self.pixel_pitch


def experiment_ccd() -> SensorConfig:
    """Laboratory CCD geometry: 6.45 um pitch, 1024x1024 pixels."""
    return SensorConfig(pixel_pitch=6.45e-3, width=1024, height=1024)


def fast_sensor(w0: float, pixels: int = 512, extent_factor: float = 8.0) -> SensorConfig:
    """Fast test preset covering extent_factor * w0 with a square grid."""
    return SensorConfig(pixel_pitch=extent_factor * w0 / pixels,
                        width=pixels, height=pixels)


_INF_BITS = np.float64(np.inf).view(np.uint64)


@dataclass(frozen=True, eq=False)
class IntensityImage:
    """Nonnegative pixel grid with sensor geometry and provenance record.

    `stored` holds float intensities, or native uint16 counts worth `scale`
    each, as a graymap keeps them; float intensities take scale 1.  Counts
    are never NaN or negative, so only float intensities are scanned: one
    unsigned max over their bit patterns both validates the frame and gives
    its peak.  The peak is taken once, at construction, so `stored` and
    `pixels` are read-only views.
    """

    stored: np.ndarray
    sensor: SensorConfig
    provenance: dict = field(default_factory=dict)
    scale: float = 1.0
    _peak: float = field(init=False, repr=False)

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
            peak = float(stored.max()) * self.scale
        else:
            stored = stored.astype(float, copy=False)
            if self.scale != 1.0:
                raise ImageFormatError("float intensities take scale 1")
            # Finite nonnegative doubles order like their bit patterns, all
            # below +inf's; NaN, inf and every negative value, -0.0 too, lie
            # at or above it.  Below it, the largest pattern is the peak.
            top = stored.view(np.uint64).max()
            if top < _INF_BITS:
                peak = float(top.view(np.float64))
            else:
                # refuse, or accept -0.0: two reductions, no temporaries;
                # min() is NaN if any pixel is NaN
                peak = float(stored.max())
                if not (stored.min() >= 0 and peak < np.inf):
                    raise ImageFormatError(
                        "pixel intensities must be finite and nonnegative: "
                        "found NaN/inf or a negative value")
        stored = stored.view()
        stored.flags.writeable = False
        object.__setattr__(self, "stored", stored)
        object.__setattr__(self, "_peak", peak)

    @functools.cached_property
    def pixels(self) -> np.ndarray:
        """Float intensities: the stored array, or counts * scale made on
        first use and kept."""
        if self.stored.dtype != np.uint16:
            return self.stored
        view = self.stored * self.scale
        view.flags.writeable = False
        return view

    def coordinates(self):
        return self.sensor.coordinates()

    def max_intensity(self) -> float:
        return self._peak


def render(field, sensor: SensorConfig,
           rows_per_chunk: Optional[int] = None) -> IntensityImage:
    """Sample |field|^2 at pixel centers.

    The field is evaluated on the open grid (xs[None, :], ys[:, None]), which
    broadcasts to the full pixel array.  `rows_per_chunk` partitions the
    evaluation by scanlines; results are bit-identical for any partitioning
    because each pixel is the same product of the same 1-D factors.
    """
    xs, ys = sensor.axes()
    x = xs[None, :]
    # A term displaced beyond the float range squares its offset to inf, so
    # its Gaussian gives the 0 it would underflow to anyway; a complex shift
    # can instead give inf or NaN, which IntensityImage refuses.  The
    # refusal, not a numpy warning, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        if rows_per_chunk is None:
            pixels = np.asarray(field.intensity(x, ys[:, None]), dtype=float)
        else:
            chunks = [np.asarray(field.intensity(
                          x, ys[i:i + rows_per_chunk, None]), dtype=float)
                      for i in range(0, sensor.height, rows_per_chunk)]
            pixels = np.concatenate(chunks, axis=0)

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


# No pixel's Poisson mean exceeds the budget; numpy's sampler rejects means
# above about 9.2e18.
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


# Rows per shot-noise band.  Band b of frame f in run s draws from
# Generator(SFC64(SeedSequence(s, spawn_key=(f, b)))), so the band height is
# part of the output: changing it changes every noisy byte.
_NOISE_ROWS = 64
_noise_threads = None


def _noise_pool() -> ThreadPoolExecutor:
    """The module's band-drawing pool, built on first use with one worker
    per CPU this process may run on."""
    global _noise_threads
    if _noise_threads is None:
        _noise_threads = ThreadPoolExecutor(
            max_workers=len(os.sched_getaffinity(0)),
            thread_name_prefix="shot-noise")
    return _noise_threads


def _forget_noise_pool():
    # a forked child inherits the pool object but none of its threads
    global _noise_threads
    _noise_threads = None


os.register_at_fork(after_in_child=_forget_noise_pool)


def add_shot_noise(img: IntensityImage, photon_budget: float, seed: int,
                   frame: int = 0) -> IntensityImage:
    """Replace pixels by Poisson counts with expected total = photon_budget.

    Frame `frame` of run `seed` draws on SeedSequence(seed,
    spawn_key=(frame,)); that sequence is split into one SFC64 stream per
    band of _NOISE_ROWS rows.  The bands are drawn in parallel (numpy's
    sampler releases the GIL), and the counts depend only on (seed, frame,
    band), never on the number of workers.  Geometry and upstream
    provenance are untouched.
    """
    photon_budget = checked_photon_budget(photon_budget)
    seed = checked_seed(seed)
    frame = operator.index(frame)
    total = img.pixels.sum()
    if total <= 0:
        raise ValueError("cannot scale a zero image to a photon budget")
    scale = photon_budget / total
    counts = np.empty(img.pixels.shape)
    bands = range(0, img.sensor.height, _NOISE_ROWS)
    streams = np.random.SeedSequence(seed, spawn_key=(frame,)).spawn(len(bands))

    def draw(start, stream):
        # each worker scales its own band into the output, then draws on it
        rows = counts[start:start + _NOISE_ROWS]
        np.multiply(img.pixels[start:start + _NOISE_ROWS], scale, out=rows)
        rows[...] = np.random.Generator(np.random.SFC64(stream)).poisson(rows)

    list(_noise_pool().map(draw, bands, streams))
    provenance = dict(img.provenance)
    provenance["noise"] = {"photon_budget": photon_budget, "seed": seed,
                           "frame": frame}
    return IntensityImage(counts, img.sensor, provenance)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_PGM_MAXVAL = 65535
# Rows per float block of the PGM quantiser: 64 rows of a 1024-pixel frame
# are 512 KiB, which stays in a core's L2 cache from divide to round to store.
_QUANTIZE_ROWS = 64


def _header_dict(img: IntensityImage, scale: float = 1.0) -> dict:
    ox, oy = img.sensor.center_offset
    return {
        "pixel_pitch_mm": img.sensor.pixel_pitch,
        "width": img.sensor.width,
        "height": img.sensor.height,
        "origin_offset_mm": [ox, oy],
        "intensity_scale": scale,
        "provenance": img.provenance,
    }


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


def _resolve_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".pgm", ".pnm"):
        return "pgm"
    if suffix == ".csv":
        return "csv"
    raise ValueError(f"cannot infer image format from {path}")


def write_image(img: IntensityImage, path) -> None:
    """Write a 16-bit binary graymap (scaled to peak) or an exact CSV, as
    the suffix says.

    A graymap overwrites an existing file in place and cuts it at the end of
    the payload; until the payload is written its magic reads P0, which
    read_image rejects, so an interrupted write never passes for an image.
    The write holds an exclusive flock, so a reader never sees it half done.
    """
    path = Path(path)
    if _resolve_format(path) == "pgm":
        peak = img.max_intensity()
        scale = peak / _PGM_MAXVAL if peak > 0 else 1.0
        header = _header_dict(img, scale=scale)
        quantized = np.empty(img.pixels.shape, dtype=">u2")
        block = np.empty((_QUANTIZE_ROWS, img.sensor.width))
        for start in range(0, img.sensor.height, _QUANTIZE_ROWS):
            rows = img.pixels[start:start + _QUANTIZE_ROWS]
            part = block[:len(rows)]
            np.divide(rows, scale, out=part)
            np.rint(part, out=part)
            quantized[start:start + len(rows)] = part
        # no O_TRUNC: freeing and reallocating an existing frame's blocks
        # costs several times the write itself
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        fcntl.flock(fd, fcntl.LOCK_EX)  # released on close
        with os.fdopen(fd, "r+b") as fh:
            fh.write(b"P0\n")
            fh.write(b"# " + json.dumps(header).encode() + b"\n")
            fh.write(f"{img.sensor.width} {img.sensor.height}\n".encode())
            fh.write(f"{_PGM_MAXVAL}\n".encode())
            fh.write(quantized)
            fh.truncate()
            fh.seek(0)
            fh.write(b"P5")
    else:
        header = _header_dict(img)
        with open(path, "w") as fh:
            for row in img.pixels:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(header, fh, indent=2)


def _read_pgm(path) -> IntensityImage:
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
                    except ValueError:
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


def _read_csv(path) -> IntensityImage:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as bad:
                raise ImageFormatError(f"{path}:{lineno}: {bad}") from None
    if not rows:
        raise ImageFormatError(f"{path}: empty image")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ImageFormatError(f"{path}: ragged rows with widths {sorted(widths)}")
    pixels = np.array(rows, dtype=float)
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise ImageFormatError(f"{path}: missing JSON sidecar {sidecar}")
    with open(sidecar) as fh:
        try:
            header = json.load(fh)
        except ValueError:
            header = None
    if not isinstance(header, dict):
        raise ImageFormatError(f"{sidecar}: not a JSON object")
    sensor, _, provenance = _parse_header(header, sidecar)
    if (sensor.height, sensor.width) != pixels.shape:
        raise ImageFormatError(
            f"{path}: header geometry {sensor.height}x{sensor.width} "
            f"does not match payload {pixels.shape}")
    try:
        return IntensityImage(pixels, sensor, provenance)
    except ValueError as bad:
        raise ImageFormatError(f"{path}: {bad}") from None


def read_image(path) -> IntensityImage:
    """Read a graymap or a CSV image, as the suffix says."""
    path = Path(path)
    if _resolve_format(path) == "pgm":
        return _read_pgm(path)
    return _read_csv(path)
