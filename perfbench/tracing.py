"""Span recording for the traced benchmark run.

Spans are recorded from outside the program.  For the traced window the
public functions that `vortexscope.cli` calls through module attributes
(`imaging.render`, `estimation.extract_zip`, ...) are replaced by timing
wrappers, and restored afterwards.  The field objects that the probefield
constructors return are wrapped in a proxy whose `intensity` call is timed.

Spans live in memory: name, start, end, parent span and readout id.  A
span's self time is its duration minus the durations of its children.
Work the benchmark adds while tracing (such as counting dark components)
runs in `bench` spans, so it is charged to no layer of the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time

import numpy as np
from scipy import ndimage

BENCH = "bench"
CONSTRUCT = "probefield.construct"
FIELD_EVAL = "probefield.field_eval"

# Every span name the program's layers produce, in report order.
LAYERS = (CONSTRUCT, FIELD_EVAL, "imaging.render", "imaging.add_shot_noise",
          "imaging.write_image", "imaging.read_image",
          "estimation.extract_zip", "estimation.estimate_state",
          "estimation.reconstruct_mixed", "weakvalue", "polarization",
          "cli.simulate", "cli.estimate", "cli.tomo")


class Tracer:
    """In-memory span recorder for a single-threaded run."""

    def __init__(self):
        self.spans = []
        self.readout = None  # id stamped on new spans; None during set-up
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "readout": self.readout}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i]["name"] == name for i in self._open)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class TimedField:
    """Delegating proxy around a field object; times `intensity`."""

    def __init__(self, field, tracer: Tracer):
        self._field = field
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._field, name)

    def intensity(self, x, y):
        with self._tracer.span(FIELD_EVAL) as record:
            record["points"] = int(np.size(x))
            return self._field.intensity(x, y)


# ---------------------------------------------------------------------------
# Wrapping the program's module attributes
# ---------------------------------------------------------------------------

def _arguments(function, args, kwargs) -> dict:
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _probe_render(record, arguments, result):
    record["pixels"] = int(result.pixels.size)


def _probe_file_size(record, arguments, result):
    record["bytes"] = os.path.getsize(arguments["path"])


def _probe_extract_zip(record, arguments, result):
    pixels = arguments["img"].pixels
    threshold = arguments["threshold_fraction"] * pixels.max()
    record["components"] = int(ndimage.label(pixels <= threshold)[1])
    record["pixels_used"] = int(result.pixel_count_used)


def _probe_reconstruct(record, arguments, result):
    record["residual_mm"] = float(result.residual)
    record["clipped"] = bool(result.clipped)


def _timed(tracer, name, function, probe=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = function(*args, **kwargs)
        if probe is not None:
            with tracer.span(BENCH):
                probe(record, _arguments(function, args, kwargs), result)
        return result
    return wrapper


def _constructor(tracer, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        # mixed_exact_field builds its components through exact_field;
        # only the outermost field is proxied, so each render has one
        # field_eval span per intensity call.
        outermost = not tracer.inside(CONSTRUCT)
        with tracer.span(CONSTRUCT):
            field = function(*args, **kwargs)
        return TimedField(field, tracer) if outermost else field
    return wrapper


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__]


def install(tracer: Tracer, package):
    """Replace the traced module attributes; returns a function that
    restores the originals."""
    imaging, estimation = package.imaging, package.estimation
    probefield = package.probefield
    replacements = [
        (imaging, "render", "imaging.render", _probe_render),
        (imaging, "add_shot_noise", "imaging.add_shot_noise", None),
        (imaging, "write_image", "imaging.write_image", _probe_file_size),
        (imaging, "read_image", "imaging.read_image", _probe_file_size),
        (estimation, "extract_zip", "estimation.extract_zip",
         _probe_extract_zip),
        (estimation, "estimate_state", "estimation.estimate_state", None),
        (estimation, "reconstruct_mixed", "estimation.reconstruct_mixed",
         _probe_reconstruct),
    ]
    for module in (package.weakvalue, package.polarization):
        layer = module.__name__.rsplit(".", 1)[-1]
        replacements += [(module, name, layer, None)
                         for name in _public_functions(module)]

    originals = []
    for module, attr, name, probe in replacements:
        function = getattr(module, attr)
        originals.append((module, attr, function))
        setattr(module, attr, _timed(tracer, name, function, probe))
    for attr in ("exact_field", "approx_field", "mixed_exact_field"):
        function = getattr(probefield, attr)
        originals.append((probefield, attr, function))
        setattr(probefield, attr, _constructor(tracer, function))

    def restore():
        for module, attr, function in reversed(originals):
            setattr(module, attr, function)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    covered = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end"] - record["start"]
    return [record["end"] - record["start"] - c
            for record, c in zip(spans, covered)]


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, readouts: int) -> dict:
    """Per-layer metrics as {name: (value, unit, samples)}.

    Counts and times named `/readout` are totals over the traced readouts
    divided by their number.  Per-call figures (percentiles, means,
    ns_per_point) use every traced call of the layer, set-up included.
    """
    self_s = self_times(tracer.spans)
    window, every = {}, {}
    for record, own in zip(tracer.spans, self_s):
        entry = dict(record, self_s=own, seconds=record["end"] - record["start"])
        every.setdefault(record["name"], []).append(entry)
        if record["readout"] is not None:
            window.setdefault(record["name"], []).append(entry)

    def per_readout(name, key=None, test=None):
        spans = window.get(name, [])
        if test is not None:
            total = sum(1 for s in spans if test(s))
        elif key is None:
            total = len(spans)
        else:
            total = sum(s.get(key, 0) for s in spans)
        return total / readouts

    def calls(name):
        return [s for s in every.get(name, []) if "error" not in s]

    n = readouts
    out = {}
    for name in ("probefield.field_eval", "imaging.render",
                 "imaging.add_shot_noise", "imaging.write_image",
                 "imaging.read_image", "estimation.extract_zip",
                 "estimation.estimate_state", "estimation.reconstruct_mixed",
                 "weakvalue", "polarization"):
        out[f"{name}.calls"] = (per_readout(name), "count/readout", n)
        out[f"{name}.self_s"] = (per_readout(name, "self_s"), "s/readout", n)

    evals = every.get(FIELD_EVAL, [])
    points = sum(s["points"] for s in evals)
    out[f"{FIELD_EVAL}.points"] = (per_readout(FIELD_EVAL, "points"),
                                   "points/readout", n)
    out[f"{FIELD_EVAL}.ns_per_point"] = (
        sum(s["self_s"] for s in evals) * 1e9 / points if points else 0.0,
        "ns", len(evals))

    pixels = per_readout("imaging.render", "pixels")
    out["imaging.render.pixels"] = (pixels, "pixels/readout", n)
    # float64 output image per render, computed from the pixel count
    out["imaging.render.mib_out_computed"] = (pixels * 8 / 2 ** 20,
                                              "MiB/readout", n)

    noise_ms = [1e3 * s["seconds"] for s in calls("imaging.add_shot_noise")]
    out["imaging.add_shot_noise.ms_p50"] = (_percentile(noise_ms, 50), "ms",
                                            len(noise_ms))
    for name in ("imaging.write_image", "imaging.read_image"):
        out[f"{name}.bytes"] = (per_readout(name, "bytes"), "B/readout", n)

    zips = calls("estimation.extract_zip")
    zip_ms = [1e3 * s["seconds"] for s in zips]
    out["estimation.extract_zip.ms_p50"] = (_percentile(zip_ms, 50), "ms",
                                            len(zips))
    out["estimation.extract_zip.ms_p90"] = (_percentile(zip_ms, 90), "ms",
                                            len(zips))
    out["estimation.extract_zip.components_mean"] = (
        _mean([s["components"] for s in zips]), "count", len(zips))
    out["estimation.extract_zip.pixels_used_mean"] = (
        _mean([s["pixels_used"] for s in zips]), "pixels", len(zips))
    out["estimation.extract_zip.failed"] = (
        per_readout("estimation.extract_zip", test=lambda s: "error" in s),
        "count/readout", n)
    out["estimation.estimate_state.near_pole_refused"] = (
        per_readout("estimation.estimate_state",
                    test=lambda s: s.get("error") == "NearPoleError"),
        "count/readout", n)

    fits = calls("estimation.reconstruct_mixed")
    out["estimation.reconstruct_mixed.residual_mm_mean"] = (
        _mean([s["residual_mm"] for s in fits]), "mm", len(fits))
    out["estimation.reconstruct_mixed.clipped"] = (
        per_readout("estimation.reconstruct_mixed",
                    test=lambda s: s.get("clipped", False)),
        "count/readout", n)

    for name in ("cli.simulate", "cli.estimate", "cli.tomo"):
        out[f"{name}.self_s"] = (per_readout(name, "self_s"), "s/readout", n)

    for name, share in self_time_shares(tracer, readout=True).items():
        out[f"{name}.share_pct"] = (share, "%", n)
    return out


def self_time_shares(tracer: Tracer, readout: bool) -> dict:
    """Each layer's percentage of the program's self time, over the traced
    readouts (readout=True) or over set-up (readout=False)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        if (record["readout"] is not None) == readout \
                and record["name"] in totals:
            totals[record["name"]] += own
    whole = sum(totals.values())
    return {name: (100.0 * t / whole if whole else 0.0)
            for name, t in totals.items()}
