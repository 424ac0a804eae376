"""The benchmark's tracer wraps module attributes of the package by name
(`perfbench/tracing.py`); a renamed or removed attribute must fail here, not
only in the benchmark's own smoke run."""

import importlib.util
from pathlib import Path

import numpy as np

import vortexscope
from vortexscope import (BlochVector, ProbeConfig, estimation, fast_sensor,
                         imaging, polarization, probefield, weakvalue)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (imaging, estimation, probefield, weakvalue, polarization)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def functions():
    return [{name: value for name, value in vars(module).items()
             if callable(value)} for module in MODULES]


def test_tracer_installs_times_a_mixture_and_restores():
    tracing = load_tracing()
    before = functions()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, vortexscope)
    try:
        field = probefield.mixed_exact_field(ProbeConfig(w0=1.0, g=0.1),
                                             BlochVector(0.3, -0.2, 0.4))
        image = imaging.render(field, fast_sensor(1.0, pixels=64))
        assert np.isfinite(image.pixels).all()
    finally:
        restore()
    names = [span["name"] for span in tracer.spans]
    assert {tracing.CONSTRUCT, tracing.FIELD_EVAL, "imaging.render"} \
        <= set(names)
    assert functions() == before
