"""Property tests over generated inputs (profile registered in conftest)."""

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vortexscope.estimation import Calibration, ZipEstimate, reconstruct_mixed
from vortexscope.imaging import (ImageFormatError, IntensityImage,
                                 SensorConfig, read_image, write_image)
from vortexscope.polarization import BlochVector, QubitState
from vortexscope.weakvalue import (rotate_to_south, stereographic_invert,
                                   stereographic_project, weak_value_mixed,
                                   weak_value_pure)

angles = st.floats(0.0, 2 * np.pi)
# the four axis-aligned post-selections are drawn as often as the rest
frame_angles = st.sampled_from([0.0, np.pi / 2, np.pi, 1.5 * np.pi]) | angles
thetas = st.floats(0.0, np.pi / 2)


def postselection_at(angle):
    """Post-selection orthogonal to x; angle 0 is the south pole."""
    return BlochVector(0.0, np.sin(angle), -np.cos(angle))


@given(frame_angles, thetas, angles)
def test_stereographic_round_trip(angle, theta, phi):
    postselection = postselection_at(angle)
    state = QubitState(theta, phi)
    r = state.bloch().as_array()
    assume(np.linalg.norm(r + postselection.as_array()) > 1e-3)
    back = stereographic_invert(stereographic_project(state, postselection),
                                postselection)
    assert np.max(np.abs(back.as_array() - r)) < 1e-9


@given(frame_angles, thetas, angles)
def test_mixed_weak_value_matches_rotated_pure(angle, theta, phi):
    postselection = postselection_at(angle)
    state = QubitState(theta, phi)
    assume(np.linalg.norm(state.bloch().as_array()
                          + postselection.as_array()) > 1e-2)
    mixed = weak_value_mixed(state.bloch(), postselection).value
    pure = weak_value_pure(rotate_to_south(state, postselection)).value
    # to_state reads theta through arccos, which loses half the digits
    # next to the poles; a wrong rotation is off by order one
    assert mixed == pytest.approx(pure, rel=1e-9, abs=1e-7)


def test_rotation_keeps_south_pole_states():
    state = QubitState(0.7, 2.0)
    assert rotate_to_south(state, postselection_at(0.0)) is state


@given(st.tuples(*[st.floats(-0.9, 0.9)] * 3), angles,
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       st.floats(0.01, 1.0), st.floats(-np.pi, np.pi))
def test_reconstruct_mixed_recovers_exactly(r, offset, origin, scale,
                                            orientation):
    assume(np.linalg.norm(r) <= 0.9)
    rho = BlochVector(*r)
    calibration = Calibration(origin=origin, scale=scale,
                              orientation=orientation)
    observations = []
    for k in range(4):
        postselection = postselection_at(offset + k * np.pi / 2)
        w = weak_value_mixed(rho, postselection).value
        observations.append((ZipEstimate(calibration.apply(w), 1, 0.0),
                             calibration, postselection))
    result = reconstruct_mixed(observations)
    assert np.max(np.abs(result.bloch.as_array() - rho.as_array())) < 1e-9
    assert result.residual < 1e-9 and not result.clipped


@pytest.fixture(scope="module")
def pgm_parts(tmp_path_factory):
    """Header dict and payload bytes of a valid 16x16 graymap."""
    path = tmp_path_factory.mktemp("pgm") / "valid.pgm"
    pixels = np.arange(256, dtype=float).reshape(16, 16)
    write_image(IntensityImage(pixels, SensorConfig(0.1, 16, 16),
                               {"note": "fuzz"}), path)
    _, comment, _, _, payload = path.read_bytes().split(b"\n", 4)
    return path.parent, json.loads(comment[1:]), payload


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
header_edits = st.dictionaries(
    st.sampled_from(["pixel_pitch_mm", "width", "height", "origin_offset_mm",
                     "intensity_scale", "provenance"]),
    st.none() | json_values, max_size=3)  # None deletes the field
lines = st.sampled_from([b"", b"P2", b"16 17", b"16", b"255", b"#",
                         b"# {", b"16 16 65535"]) | st.binary(max_size=12)


@given(header_edits, st.sampled_from([None, None, 0, 2, 3]), lines,
       st.sampled_from([None, None, None, 0, 1, 2]),
       st.just(512) | st.integers(0, 511))
def test_fuzzed_pgm_header_raises_only_image_format_error(
        pgm_parts, edits, slot, line, join, keep):
    """Each example edits header fields, may replace one header line, may
    join two lines, and may cut the 512-byte payload short."""
    directory, header, payload = pgm_parts
    header = dict(header)
    for key, value in edits.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    parts = [b"P5", b"# " + json.dumps(header).encode(), b"16 16", b"65535"]
    if slot is not None:
        parts[slot] = line
    if join is not None:
        parts[join:join + 2] = [parts[join] + b" " + parts[join + 1]]
    head = b"\n".join(parts) + b"\n"
    path = directory / "fuzzed.pgm"
    path.write_bytes(head + payload[:keep])
    try:
        image = read_image(path)
    except ImageFormatError:
        return
    assert image.pixels.shape == (image.sensor.height, image.sensor.width)
