"""Finite-pixel rendering of analytic fields, photon shot noise, and image
file I/O (16-bit binary portable graymap with a JSON provenance comment, or
exact CSV with a JSON sidecar).

Pixel values are point samples of the intensity at pixel centers; at CCD
pitches far below the beam width the in-pixel variation is negligible, and
the resolution-consistency test guards the choice.
"""

from __future__ import annotations

import json
import operator
import warnings
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


@dataclass(frozen=True, eq=False)
class IntensityImage:
    """Nonnegative pixel grid with sensor geometry and provenance record."""

    pixels: np.ndarray
    sensor: SensorConfig
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.shape != (self.sensor.height, self.sensor.width):
            raise ImageFormatError(
                f"pixel array {px.shape} does not match sensor "
                f"{self.sensor.height}x{self.sensor.width}")
        # two reductions, no temporaries; min() is NaN if any pixel is NaN
        if not (px.min() >= 0 and px.max() < np.inf):
            raise ImageFormatError(
                "pixel intensities must be finite and nonnegative: "
                "found NaN/inf or a negative value")
        object.__setattr__(self, "pixels", px)

    def coordinates(self):
        return self.sensor.coordinates()

    def max_intensity(self) -> float:
        return float(self.pixels.max())


def render(field, sensor: SensorConfig, mode: Optional[str] = None,
           rows_per_chunk: Optional[int] = None) -> IntensityImage:
    """Sample |field|^2 at pixel centers.

    The field is evaluated on the open grid (xs[None, :], ys[:, None]), which
    broadcasts to the full pixel array.  `rows_per_chunk` partitions the
    evaluation by scanlines; results are bit-identical for any partitioning
    because each pixel is the same product of the same 1-D factors.
    """
    xs, ys = sensor.axes()
    x = xs[None, :]
    if rows_per_chunk is None:
        pixels = np.asarray(field.intensity(x, ys[:, None]), dtype=float)
    else:
        chunks = [np.asarray(field.intensity(x, ys[i:i + rows_per_chunk, None]),
                             dtype=float)
                  for i in range(0, sensor.height, rows_per_chunk)]
        pixels = np.concatenate(chunks, axis=0)

    provenance = {
        "mode": mode if mode is not None else getattr(field, "description", "unknown"),
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


# No pixel's Poisson mean exceeds the budget; numpy's sampler rejects means
# above about 9.2e18.
MAX_PHOTON_BUDGET = 1e18


def checked_photon_budget(value) -> float:
    """float(value) if it is a usable photon budget, else ValueError."""
    budget = float(value)
    if not 0 < budget <= MAX_PHOTON_BUDGET:  # also rejects NaN
        raise ValueError(f"photon budget must be positive and at most "
                         f"{MAX_PHOTON_BUDGET:g}, got {budget!r}")
    return budget


def checked_seed(value, limit: int = 2 ** 128) -> int:
    """value if it is an integer with 0 <= value < limit, else ValueError;
    the default limit is the Philox key range."""
    try:
        seed = operator.index(value)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < limit:
        raise ValueError(f"seed must be at least 0 and below "
                         f"2**{limit.bit_length() - 1}, got {seed}")
    return seed


def add_shot_noise(img: IntensityImage, photon_budget: float, seed: int) -> IntensityImage:
    """Replace pixels by Poisson counts with expected total = photon_budget.

    Counter-based Philox stream keyed by the seed makes the draw
    deterministic; geometry and upstream provenance are untouched.
    """
    photon_budget = checked_photon_budget(photon_budget)
    seed = checked_seed(seed)
    total = img.pixels.sum()
    if total <= 0:
        raise ValueError("cannot scale a zero image to a photon budget")
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.poisson(img.pixels * (photon_budget / total)).astype(float)
    provenance = dict(img.provenance)
    provenance["noise"] = {"photon_budget": photon_budget, "seed": seed}
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


def _finite(value) -> float:
    number = float(value)
    if not np.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _offset(value) -> tuple:
    x, y = value
    return _finite(x), _finite(y)


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("not an object")
    return value


def _header_field(header: dict, key: str, convert, path, default=None):
    """convert(header[key]); a missing or malformed value raises
    ImageFormatError naming the file and the field."""
    if key not in header:
        if default is not None:
            return default
        raise ImageFormatError(f"{path}: header lacks field '{key}'")
    try:
        return convert(header[key])
    except (TypeError, ValueError, OverflowError):
        raise ImageFormatError(f"{path}: header field '{key}' is malformed") from None


def _sensor_from_header(header: dict, path) -> SensorConfig:
    pitch = _header_field(header, "pixel_pitch_mm", _finite, path)
    width = _header_field(header, "width", int, path)
    height = _header_field(header, "height", int, path)
    offset = _header_field(header, "origin_offset_mm", _offset, path)
    try:
        return SensorConfig(pitch, width, height, center_offset=offset)
    except ValueError as bad:
        raise ImageFormatError(f"{path}: header geometry: {bad}") from None


def _resolve_format(path, fmt: Optional[str]) -> str:
    if fmt is not None:
        if fmt not in ("pgm", "csv"):
            raise ValueError(f"unsupported format {fmt!r}")
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix in (".pgm", ".pnm"):
        return "pgm"
    if suffix == ".csv":
        return "csv"
    raise ValueError(f"cannot infer image format from {path}")


def write_image(img: IntensityImage, path, fmt: Optional[str] = None) -> None:
    """Write a 16-bit binary graymap (scaled to peak) or an exact CSV."""
    path = Path(path)
    if _resolve_format(path, fmt) == "pgm":
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
        with open(path, "wb") as fh:
            fh.write(b"P5\n")
            fh.write(b"# " + json.dumps(header).encode() + b"\n")
            fh.write(f"{img.sensor.width} {img.sensor.height}\n".encode())
            fh.write(f"{_PGM_MAXVAL}\n".encode())
            fh.write(quantized)
    else:
        header = _header_dict(img)
        with open(path, "w") as fh:
            for row in img.pixels:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(header, fh, indent=2)


def _read_pgm(path) -> IntensityImage:
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    tokens = []
    header_json = None
    while len(tokens) < 4:
        if pos >= len(data):
            raise ImageFormatError(f"{path}: truncated header at byte {pos}")
        end = data.find(b"\n", pos)
        end = len(data) if end == -1 else end
        line = data[pos:end]
        pos = end + 1
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
        raise ImageFormatError(f"{path}: expected binary graymap magic P5, got {magic!r}")
    try:
        width, height, maxval = (int(token) for token in tokens[1:4])
    except ValueError:
        raise ImageFormatError(f"{path}: header width/height/maxval "
                               "must be integers") from None
    if maxval != _PGM_MAXVAL:
        raise ImageFormatError(f"{path}: expected 16-bit maxval {_PGM_MAXVAL}, got {maxval}")
    if header_json is None:
        raise ImageFormatError(f"{path}: missing provenance comment")
    expected = width * height * 2
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise ImageFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}")
    raw = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    sensor = _sensor_from_header(header_json, path)
    if (sensor.width, sensor.height) != (width, height):
        raise ImageFormatError(
            f"{path}: header geometry {sensor.width}x{sensor.height} "
            f"does not match payload {width}x{height}")
    scale = _header_field(header_json, "intensity_scale", _finite, path, 1.0)
    provenance = _header_field(header_json, "provenance", _mapping, path, {})
    return IntensityImage(raw.astype(float) * scale, sensor, provenance)


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
            header = _mapping(json.load(fh))
        except (TypeError, ValueError):
            raise ImageFormatError(f"{sidecar}: not a JSON object") from None
    sensor = _sensor_from_header(header, sidecar)
    if (sensor.height, sensor.width) != pixels.shape:
        raise ImageFormatError(
            f"{path}: header geometry {sensor.height}x{sensor.width} "
            f"does not match payload {pixels.shape}")
    provenance = _header_field(header, "provenance", _mapping, sidecar, {})
    return IntensityImage(pixels, sensor, provenance)


def read_image(path, fmt: Optional[str] = None) -> IntensityImage:
    path = Path(path)
    if _resolve_format(path, fmt) == "pgm":
        return _read_pgm(path)
    return _read_csv(path)
