"""Property tests over generated inputs (profile registered in conftest)."""

import json
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from vortexscope.estimation import (AmbiguousVortexError, Calibration,
                                    EstimationError, NoVortexError,
                                    ZipEstimate, extract_zip,
                                    reconstruct_mixed)
from vortexscope.imaging import (ImageFormatError, IntensityImage,
                                 SensorConfig, integer, read_image, real,
                                 reals, write_image)
from vortexscope.polarization import BlochVector, QubitState
from vortexscope.probefield import ProbeConfig, exact_field, mixed_exact_field
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


MIXED_PROBE = ProbeConfig(w0=1.0, g=0.3)
MIXED_AXIS = np.linspace(-4.0, 4.0, 41)
vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)


def mixed_intensity(r, postselection):
    field = mixed_exact_field(MIXED_PROBE, BlochVector(*r), postselection)
    return field.intensity(MIXED_AXIS[None, :], MIXED_AXIS[:, None])


@given(vectors, vectors, frame_angles)
def test_mixed_intensity_is_affine_in_the_bloch_vector(r1, r2, angle):
    assume(max(np.linalg.norm(r1), np.linalg.norm(r2)) <= 1.0)
    postselection = postselection_at(angle)
    f = postselection.as_array()
    # post-selection succeeds: r is not the pole p = -f
    assume(min(1.0 + r1 @ f, 1.0 + r2 @ f) > 1e-6)
    a, b = mixed_intensity(r1, postselection), mixed_intensity(r2, postselection)
    middle = mixed_intensity((r1 + r2) / 2, postselection)
    assert np.max(np.abs(middle - (a + b) / 2)) \
        <= 1e-14 * max(a.max(), b.max())


@given(vectors, frame_angles)
def test_mixed_field_of_a_pure_state_is_its_exact_field(r, angle):
    assume(np.linalg.norm(r) > 0.1)
    r = r / np.linalg.norm(r)
    postselection = postselection_at(angle)
    assume(np.linalg.norm(r + postselection.as_array()) > 1e-3)
    pure = exact_field(MIXED_PROBE, BlochVector(*r).to_state(), postselection)
    expected = pure.intensity(MIXED_AXIS[None, :], MIXED_AXIS[:, None])
    # to_state reads theta through arccos, which loses half the digits
    # next to the z poles
    assert np.max(np.abs(mixed_intensity(r, postselection) - expected)) \
        <= 1e-8 * expected.max()


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


# ---------------------------------------------------------------------------
# extract_zip against a reference that labels every row
# ---------------------------------------------------------------------------

def whole_frame_extract_zip(img, threshold_fraction=0.01):
    """extract_zip with one label pass over the whole frame: the same
    bincount sizes, border rule, tie order and raster-order sums."""
    pixels = img.pixels
    peak = pixels.max()
    if peak <= 0:
        raise NoVortexError("image has no positive intensity")
    threshold = threshold_fraction * peak
    dark = pixels <= threshold
    labels, count = ndimage.label(dark)
    if count == 0:
        raise NoVortexError("no pixels below threshold")
    flat = np.flatnonzero(dark)
    flat_labels = labels.ravel()[flat]
    sizes = np.bincount(flat_labels, minlength=count + 1)
    for edge in (labels[0], labels[-1], labels[:, 0], labels[:, -1]):
        sizes[edge] = 0
    best_size = sizes.max()
    if best_size == 0:
        raise NoVortexError("no interior low-intensity component found")
    ties = np.flatnonzero(sizes == best_size)[::-1]
    members = [np.divmod(flat[flat_labels == k], pixels.shape[1]) for k in ties]
    xs, ys = img.sensor.axes()
    if len(ties) > 1:
        raise AmbiguousVortexError(
            f"{len(ties)} equal-size dark components",
            [(float(xs[cols].mean()), float(ys[rows].mean()))
             for rows, cols in members])
    rows, cols = members[0]
    weights = threshold - pixels[rows, cols]
    total = weights.sum()
    if total <= 0:
        weights, total = np.ones(rows.size), rows.size
    return ZipEstimate(position=(float((xs[cols] * weights).sum() / total),
                                 float((ys[rows] * weights).sum() / total)),
                       pixel_count_used=int(rows.size),
                       threshold_used=float(threshold))


def zip_outcome(extract, img):
    """Everything a caller can see of one extraction, exactly."""
    try:
        found = extract(img)
    except EstimationError as bad:
        return (type(bad), str(bad), getattr(bad, "candidates", None))
    return (found.position, found.pixel_count_used, found.threshold_used)


def masked_frame(dark, seed=0):
    """Frame with peak 1 whose pixels at or below the 0.01 threshold are
    `dark`; dark intensities vary, some sit exactly at the threshold."""
    rng = np.random.default_rng(seed)
    levels = rng.choice([0.0, 0.002, 0.007, 0.01], size=dark.shape)
    pixels = np.where(dark, levels, 1.0)
    height, width = dark.shape
    return IntensityImage(pixels, SensorConfig(0.1, width, height))


def assert_matches_whole_frame(img):
    outcome = zip_outcome(extract_zip, img)
    assert outcome == zip_outcome(whole_frame_extract_zip, img)
    return outcome


shapes = st.tuples(st.integers(16, 40), st.integers(16, 40))


@st.composite
def dark_masks(draw):
    """Sparse features on a uniform mask, or a random mask of any density,
    with some rows forced all dark or all lit."""
    height, width = draw(shapes)
    if draw(st.booleans()):
        mask = draw(arrays(np.bool_, (height, width), elements=st.booleans(),
                           fill=st.booleans()))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        mask = rng.random((height, width)) < draw(st.floats(0.05, 0.8))
    for row in draw(st.lists(st.integers(0, height - 1), max_size=3)):
        mask[row] = draw(st.booleans())
    return mask


@given(dark_masks(), st.integers(0, 2 ** 32 - 1))
def test_extract_zip_matches_whole_frame_labelling(mask, seed):
    assert_matches_whole_frame(masked_frame(mask, seed))


def u_notch():
    """A U hanging from a left edge run: exterior, but it reaches the band
    only through the row above its arms.  The interior hole is smaller."""
    dark = np.zeros((24, 32), bool)
    dark[5, :26] = True
    dark[6:15, 8] = dark[6:15, 18] = dark[14, 8:19] = True
    dark[18:21, 24:27] = True
    return dark


def edge_rows():
    """All-dark and all-lit rows; a blob under an all-dark row is exterior."""
    dark = np.zeros((24, 32), bool)
    dark[[0, 7, 23]] = True
    dark[8:10, 12:16] = True
    dark[12:14, 20:23] = True
    return dark


def hole_on_row(row):
    """The largest hole lies on one row, between that row's edge runs."""
    dark = np.zeros((24, 32), bool)
    dark[row, :3] = dark[row, -4:] = True
    dark[row, 10:16] = True
    dark[11:13, 20:22] = True
    return dark


def equal_holes():
    dark = np.zeros((24, 32), bool)
    dark[4:6, 5:7] = dark[4:6, 20:22] = dark[15:17, 12:14] = True
    return dark


@pytest.mark.parametrize("dark, expected", [
    (u_notch(), 9),
    (u_notch()[::-1, ::-1], 9),
    (hole_on_row(1), 6),
    (hole_on_row(22), 6),
    (hole_on_row(11), 6),
    (edge_rows(), 6),
    (equal_holes(), AmbiguousVortexError),
    (equal_holes()[:, :20], AmbiguousVortexError),
    (edge_rows() & (np.arange(24)[:, None] < 12), NoVortexError),
], ids=["u-notch-top", "u-notch-bottom", "hole-on-first-inner-row",
        "hole-on-last-inner-row", "hole-between-edge-runs", "full-and-empty-rows",
        "three-way-tie", "two-way-tie", "exterior-only"])
def test_extract_zip_band_edge_cases(dark, expected):
    outcome = assert_matches_whole_frame(masked_frame(dark))
    if isinstance(expected, int):
        assert outcome[1] == expected
    else:
        assert outcome[0] is expected


# ---------------------------------------------------------------------------
# Count images against their float view
# ---------------------------------------------------------------------------

def float_view(img):
    return IntensityImage(img.pixels, img.sensor)


def count_image(counts, scale):
    height, width = counts.shape
    return IntensityImage(counts.astype(np.uint16),
                          SensorConfig(0.1, width, height), {}, scale)


def tie_cases(ulps, wanted=4):
    """(scale, k) pairs where k * scale lands `ulps` ulps from the threshold
    0.01 * (60000 * scale) in float.  On and above the threshold, only
    pairs where threshold / scale floors to the wrong side of the answer."""
    rng = np.random.default_rng(17 + ulps)
    cases = []
    while len(cases) < wanted:
        scale = float(rng.uniform(1e-7, 1e-2))
        threshold = 0.01 * (60000 * scale)
        target = threshold
        for _ in range(abs(ulps)):
            target = float(np.nextafter(target, ulps * np.inf))
        k = round(threshold / scale)
        for candidate in (k - 1, k, k + 1):
            largest_dark = candidate - (ulps > 0)
            if candidate * scale == target and (
                    ulps < 0 or int(threshold / scale) != largest_dark):
                cases.append((scale, candidate))
    return cases


TIE_CASES = [(ulps, scale, k) for ulps in (-1, 0, 1)
             for scale, k in tie_cases(ulps)]


@pytest.mark.parametrize("ulps, scale, k", TIE_CASES,
                         ids=[f"{ulps:+d}ulp-{i}" for i, (ulps, _, _)
                              in enumerate(TIE_CASES)])
def test_count_threshold_ties_match_float_view(ulps, scale, k):
    """Counts whose float value sits on the threshold or one ulp off it:
    one hole of such counts alone, and one mixed with its neighbours."""
    counts = np.full((24, 32), 60000)
    counts[:, :2] = 0  # dark exterior on the border
    alone = counts.copy()
    alone[8:12, 10:15] = k
    mixed = counts.copy()
    mixed[8:14, 10:18] = np.random.default_rng(k).choice([k - 1, k, k + 1],
                                                          size=(6, 8))
    outcomes = []
    for frame in (alone, mixed):
        img = count_image(frame, scale)
        outcomes.append(zip_outcome(extract_zip, img))
        assert outcomes[-1] == zip_outcome(extract_zip, float_view(img))
    # the lone hole is dark exactly when k * scale does not pass the threshold
    if ulps <= 0:
        assert outcomes[0][1] == 20
    else:
        assert outcomes[0][0] is NoVortexError


@st.composite
def count_frames(draw):
    """uint16 counts with a drawn peak and threshold fraction; a drawn
    share of the pixels sits within two counts of fraction * peak."""
    height, width = draw(shapes)
    peak = draw(st.integers(1, 65535))
    fraction = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    near = int(fraction * peak)
    counts = np.where(rng.random((height, width)) < draw(st.floats(0.05, 0.9)),
                      rng.integers(max(near - 2, 0), near + 3, (height, width)),
                      rng.integers(0, peak + 1, (height, width)))
    counts[rng.integers(height), rng.integers(width)] = peak
    return counts, fraction


# any positive scale that keeps a full-scale count finite
count_scales = st.floats(5e-324, sys.float_info.max / 65536)


@given(count_frames(), count_scales)
def test_count_image_extracts_like_its_float_view(frame, scale):
    counts, fraction = frame
    img = count_image(counts, scale)

    def extract(image):
        return extract_zip(image, threshold_fraction=fraction)

    assert zip_outcome(extract, img) == zip_outcome(extract, float_view(img))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=4)


@given(json_values)
def test_converters_accept_only_their_numbers(value):
    section = {"field": value}
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:
        assert type(real(section, "field")) is float
        assert real(section, "field") == float(value)
        assert reals({"field": [value]}, "field") == [float(value)]
    else:
        with pytest.raises(ValueError, match="'field'"):
            real(section, "field")
        with pytest.raises(ValueError, match="'field'"):
            reals({"field": [value]}, "field")
    if number and isinstance(value, int):
        assert type(integer(section, "field")) is int
        assert integer(section, "field") == value
    else:
        with pytest.raises(ValueError, match="'field'"):
            integer(section, "field")


# ---------------------------------------------------------------------------
# Float frame check against the two-reduction check it replaced
# ---------------------------------------------------------------------------

def two_reduction_check(pixels):
    """(peak, None) or (None, message): one max() and one min() over the
    frame, as IntensityImage checked float frames before."""
    peak = float(pixels.max())
    if not (pixels.min() >= 0 and peak < np.inf):
        return None, ("pixel intensities must be finite and nonnegative: "
                      "found NaN/inf or a negative value")
    return peak, None


def bits(value):
    return np.float64(value).view(np.uint64)


# NaN of both signs, quiet and signalling, beside zeros, subnormals and
# the ends of the float range
SPECIAL_PIXELS = (
    [0.0, -0.0, 5e-324, 2.2250738585072009e-308, sys.float_info.max,
     np.inf, np.inf, -np.inf, -5e-324, -1.0]
    + [np.uint64(b).view(np.float64) for b in
       (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
        0xFFF0000000000001)])


@st.composite
def float_frames(draw):
    """A nonnegative finite frame with up to three special pixels, laid out
    C-ordered, Fortran-ordered or as a reversed strided view whose skipped
    elements are NaN."""
    height, width = draw(shapes)
    frame = draw(arrays(np.float64, (height, width),
                        elements=st.floats(0.0, sys.float_info.max),
                        fill=st.sampled_from([0.0, 5e-324, 1.0])))
    for _ in range(draw(st.integers(0, 3))):
        frame[draw(st.integers(0, height - 1)),
              draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(SPECIAL_PIXELS))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(frame)
    if layout == "strided":
        padded = np.full((2 * height, 2 * width), np.nan)
        padded[::2, ::2] = frame[::-1]
        return padded[::2, ::2][::-1]
    return frame


def frame_with(value):
    frame = np.ones((16, 16))
    frame[5, 7] = value
    return frame


# the pattern of +inf itself, and -0.0, the one pattern above it accepted
@example(frame_with(np.inf))
@example(frame_with(-0.0))
@given(float_frames())
def test_float_frame_check_matches_two_reductions(frame):
    expected_peak, expected_refusal = two_reduction_check(frame)
    height, width = frame.shape
    try:
        image = IntensityImage(frame, SensorConfig(0.1, width, height))
    except ImageFormatError as refusal:
        assert str(refusal) == expected_refusal
        return
    assert expected_refusal is None
    assert bits(image.max_intensity()) == bits(expected_peak)
    assert np.array_equal(image.pixels, frame)
