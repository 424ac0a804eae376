"""Property tests over generated inputs (profile registered in conftest)."""

import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from vortexscope import cli
from vortexscope.estimation import (SPIKE_MARGIN, AmbiguousVortexError,
                                    Calibration, EstimationError,
                                    NoVortexError, ZipEstimate,
                                    _reference_peak, extract_zip,
                                    reconstruct_mixed)
from vortexscope.imaging import (ImageFormatError, IntensityImage,
                                 SensorConfig, integer, read_image, real,
                                 reals, write_image)
from vortexscope.polarization import BlochVector, QubitState
from vortexscope.probefield import (ProbeConfig, TruncationWarning,
                                    ZeroFieldError, approx_field, exact_field,
                                    mixed_exact_field)
from vortexscope.weakvalue import (PoleStateError, pointer_amplitudes,
                                   projection_frame, stereographic_invert,
                                   stereographic_project)

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
def test_mixed_weak_value_matches_pointer_amplitudes(angle, theta, phi):
    postselection = postselection_at(angle)
    state = QubitState(theta, phi)
    assume(np.linalg.norm(state.bloch().as_array()
                          + postselection.as_array()) > 1e-2)
    mixed = stereographic_project(state.bloch(), postselection)
    _, _, w = pointer_amplitudes(state, postselection)
    # 1 - r.p in the Bloch form cancels next to the pole; a wrong frame
    # is off by order one
    assert abs(w - mixed) <= 1e-11 * max(1.0, abs(w))


@given(thetas, angles)
def test_pointer_amplitudes_at_south_pole_are_the_unrotated_terms(theta, phi):
    state = QubitState(theta, phi)
    c0, c1 = state.amplitudes()
    (a_minus, a_plus), overlap, w = pointer_amplitudes(state,
                                                      postselection_at(0.0))
    assert (a_minus, a_plus, overlap) == (-(c0 - c1) / 2.0, (c0 + c1) / 2.0, c1)
    if theta >= 1e-12:
        assert w == stereographic_project(state)
    else:
        assert w is None


@given(frame_angles, thetas, angles)
@example(0.0, 0.0, 0.0)
@example(np.pi / 2, np.pi / 4, 1.5 * np.pi)  # the pole of f = (0, 1, 0)
def test_stereographic_project_is_the_pointer_weak_value(angle, theta, phi):
    postselection = postselection_at(angle)
    state = QubitState(theta, phi)
    w = pointer_amplitudes(state, postselection)[2]
    if w is None:
        with pytest.raises(PoleStateError):
            stereographic_project(state, postselection)
    else:
        projected = stereographic_project(state, postselection)
        assert np.complex128(projected).tobytes() == np.complex128(w).tobytes()


@pytest.mark.parametrize("angle", [0.0, np.pi / 2, np.pi, 1.5 * np.pi, 0.4])
def test_projection_frame_axis_is_the_cross_product(angle):
    postselection = postselection_at(angle)
    _, e_hat = projection_frame(postselection)
    # array_equal holds 0.0 == -0.0: the sign of zero may differ
    assert np.array_equal(e_hat, np.cross(-postselection.as_array(),
                                          [1.0, 0.0, 0.0]))


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
        w = stereographic_project(rho, postselection)
        z = complex(*origin) + scale * np.exp(1j * orientation) * w
        observations.append((ZipEstimate((z.real, z.imag), 1, 0.0),
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


@given(angles, st.floats(-5.0, -3.0), angles, st.sampled_from([-1.0, 1.0]))
def test_mixed_field_of_a_pure_state_is_its_exact_field(angle, log_distance,
                                                         direction, side):
    # a pure state 1e-5 to 1e-3 rad from +f or -f, where reading theta
    # through arccos would lose half the digits
    postselection = postselection_at(angle)
    f = postselection.as_array()
    e_hat = np.array([0.0, np.cos(angle), np.sin(angle)])
    d = 10.0 ** log_distance
    r = (side * np.cos(d) * f
         + np.sin(d) * (np.cos(direction) * np.array([1.0, 0.0, 0.0])
                        + np.sin(direction) * e_hat))
    state = BlochVector(*r).to_state()
    pure = exact_field(MIXED_PROBE, state, postselection)
    expected = pure.intensity(MIXED_AXIS[None, :], MIXED_AXIS[:, None])
    got = mixed_intensity(state.bloch().as_array(), postselection)
    assert np.max(np.abs(got - expected)) <= 1e-13 * expected.max()


def test_state_at_the_tilted_pole_has_no_weak_value():
    postselection = postselection_at(0.4)
    p = -postselection.as_array()
    state = BlochVector(*p).to_state()
    assert pointer_amplitudes(state, postselection)[2] is None
    assert exact_field(MIXED_PROBE, state, postselection).weak_value is None
    with pytest.raises(ZeroFieldError):
        exact_field(ProbeConfig(w0=1.0, g=0.0), state, postselection)
    with pytest.raises(PoleStateError):
        approx_field(MIXED_PROBE, state, postselection)


@pytest.fixture(scope="module")
def pgm_parts(tmp_path_factory):
    """Header dict and payload bytes of a valid 16x16 graymap."""
    path = tmp_path_factory.mktemp("pgm") / "valid.pgm"
    pixels = np.arange(256, dtype=float).reshape(16, 16)
    write_image(IntensityImage(pixels, SensorConfig(0.1, 16, 16),
                               {"note": "fuzz"}), path)
    _, comment, _, _, payload = path.read_bytes().split(b"\n", 4)
    return path.parent, json.loads(comment[1:]), payload


header_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
header_edits = st.dictionaries(
    st.sampled_from(["pixel_pitch_mm", "width", "height", "origin_offset_mm",
                     "intensity_scale", "provenance"]),
    st.none() | header_values, max_size=3)  # None deletes the field
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


def holes_at_run_ends(left_size, right_size):
    """On one row, a hole one column after the left run (columns 0-2) and
    another ending one column before the right run (columns 28-31)."""
    dark = np.zeros((24, 32), bool)
    dark[11, :3] = dark[11, -4:] = True
    dark[11, 4:4 + left_size] = True
    dark[11, 27 - right_size:27] = True
    return dark


def band_with_row(row):
    """Holes above and below a row inside the band; the lower one wins."""
    dark = np.zeros((24, 32), bool)
    dark[4:6, 5:8] = dark[14:16, 20:24] = True
    dark[10] = row
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
    (holes_at_run_ends(7, 6), 7),
    (holes_at_run_ends(6, 7), 7),
    (holes_at_run_ends(6, 6), AmbiguousVortexError),
    (band_with_row(True), 8),
    (band_with_row(np.arange(32) >= 27), 8),
], ids=["u-notch-top", "u-notch-bottom", "hole-on-first-inner-row",
        "hole-on-last-inner-row", "hole-between-edge-runs", "full-and-empty-rows",
        "three-way-tie", "two-way-tie", "exterior-only",
        "hole-after-left-run", "hole-before-right-run", "holes-at-both-run-ends",
        "all-dark-row-in-band", "right-run-only-row-in-band"])
def test_extract_zip_band_edge_cases(dark, expected):
    outcome = assert_matches_whole_frame(masked_frame(dark))
    if isinstance(expected, int):
        assert outcome[1] == expected
    else:
        assert outcome[0] is expected


@pytest.mark.parametrize("width", [2 ** 16 - 1, 2 ** 16])
def test_extract_zip_counts_rows_of_any_width(width):
    """Row counts of 2**16 and more need a wider accumulator than uint16:
    an all-dark row inside the band, a row with only a right run, a hole
    beside each and the winning hole below them."""
    dark = np.zeros((16, width), bool)
    dark[3, 100:103] = True
    dark[4, 50:52] = True  # joins the all-dark row below
    dark[5] = True
    dark[6, -500:] = True
    dark[7, width // 2:width // 2 + 4] = True
    dark[9:11, 2000:2005] = True
    dark[12, :7] = dark[12, -9:] = dark[12, 300:302] = True
    outcome = assert_matches_whole_frame(masked_frame(dark))
    assert outcome[1] == 10


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


converter_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=4)


@given(converter_values)
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
# centroid-check on hostile grids
# ---------------------------------------------------------------------------

def run_centroid_check(directory, **grid):
    """Exit code of centroid-check on a 64-pixel grid with `grid` entries."""
    path = directory / "grid.json"
    path.write_text(json.dumps({"thetas": [np.pi / 4], "phis": [0.9],
                                "g_over_w0": [0.05], "resolution": 64}
                               | grid))
    return cli.main(["centroid-check", "--grid", str(path)])


# mostly lists of angles, so that many grids reach the quadrature; angles
# near 0 put a state next to the pole, where 64 pixels cannot resolve it
grid_entries = (st.lists(st.floats(0.0, 2.0) | st.floats(0.0, 1e-2)
                         | st.floats(), min_size=1, max_size=3)
                | converter_values)


@example([0.0], [0.9])  # the pole
@example([2.0], [0.9])  # past pi/2
@given(grid_entries, grid_entries)
def test_centroid_check_exits_with_a_documented_code(tmp_path_factory,
                                                     thetas, phis):
    directory = tmp_path_factory.mktemp("grid")
    assert run_centroid_check(directory, thetas=thetas, phis=phis) \
        in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CHECK)


@pytest.mark.parametrize("grid, code, warns", [
    ({"g_over_w0": [1e6]}, cli.EXIT_CHECK, True),  # no light in the window
    ({"w0_mm": 1e-150}, cli.EXIT_CHECK, False),  # the quadrature overflows
    ({"g_over_w0": [1e300]}, cli.EXIT_CONFIG, False),  # closed form overflows
], ids=["far-displaced", "tiny-w0", "overflowing-closed-form"])
def test_centroid_check_fails_a_grid_past_the_float_range(tmp_path, capsys,
                                                          grid, code, warns):
    with warnings.catch_warnings(record=True) as caught:
        assert run_centroid_check(tmp_path, **grid) == code
    assert [w.category for w in caught] == [TruncationWarning] * warns
    out, err = capsys.readouterr()
    if code == cli.EXIT_CHECK:
        assert "max deviation nan" in out
        assert "centroid check FAILED" in err
    else:
        assert "'g_over_w0' entry 1e+300" in err


# ---------------------------------------------------------------------------
# Float frame check against the two-reduction check it replaced
# ---------------------------------------------------------------------------

def two_reduction_check(pixels):
    """(peak, None) or (None, message): the first brightest pixel in
    row-major order, as the README defines the peak (so an all-zero peak
    has the sign of the first zero), and one min() over the frame."""
    peak = float(pixels.flat[pixels.argmax()])
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


def zeros_with(value, *places, dtype=float):
    frame = np.zeros((16, 16), dtype)
    for place in places:
        frame[place] = value
    return frame


# the pattern of +inf itself, and -0.0, the one pattern above it accepted
@example(frame_with(np.inf))
@example(frame_with(-0.0))
@example(zeros_with(-0.0, (0, 0)))  # a zero peak keeps the first zero's sign
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


# ---------------------------------------------------------------------------
# The peak pixel, and the reference peak that leaves hot pixels out
# ---------------------------------------------------------------------------

@st.composite
def tied_frames(draw):
    """(frame, scale): uint16 counts at any scale, or float intensities at
    scale 1, over so few values that peaks tie; zeros may be -0.0."""
    height, width = draw(shapes)
    if draw(st.booleans()):
        frame = draw(arrays(np.uint16, (height, width),
                            elements=st.integers(0, 3), fill=st.just(0)))
        return frame, draw(st.floats(1e-3, 1e3))
    frame = draw(arrays(np.float64, (height, width),
                        elements=st.sampled_from([0.0, -0.0, 0.5, 2.0]),
                        fill=st.sampled_from([0.0, -0.0])))
    return frame, 1.0


@example((zeros_with(0), 1.0))  # all zero
@example((zeros_with(0, dtype=np.uint16), 0.5))
@example((zeros_with(-0.0, (0, 0), (3, 4)), 1.0))
@example((zeros_with(2.0, (5, 7), (2, 9), (2, 3)), 1.0))  # a tie
@example((zeros_with(3, (9, 1), (4, 15), dtype=np.uint16), 0.25))
@given(tied_frames())
def test_peak_pixel_is_the_first_brightest_in_row_major_order(case):
    frame, scale = case
    height, width = frame.shape
    image = IntensityImage(frame, SensorConfig(0.1, width, height),
                           scale=scale)
    values = frame.ravel().astype(float)
    first = int(np.flatnonzero(values == values.max())[0])
    assert image.peak_pixel == divmod(first, width)
    assert bits(image.max_intensity()) == bits(
        float(frame[image.peak_pixel]) * scale)
    assert image.max_intensity() == values.max() * scale


def ring_rule_reference(pixels):
    """(peak, dropped) by brute force: the largest pixel no brighter than
    2 n + 3 sqrt(n) + SPIKE_MARGIN, n its brightest pixel at Chebyshev
    distance 3 with off-frame pixels 0, and how many lie above it."""
    height, width = pixels.shape
    padded = np.pad(pixels, 3)
    n = np.zeros(pixels.shape)
    for dr in range(-3, 4):
        for dc in range(-3, 4):
            if max(abs(dr), abs(dc)) == 3:
                n = np.maximum(n, padded[3 + dr:3 + dr + height,
                                         3 + dc:3 + dc + width])
    hot = pixels > 2 * n + 3 * np.sqrt(n) + SPIKE_MARGIN
    peak = float(np.max(pixels[~hot], initial=0.0))
    return peak, int(np.count_nonzero(pixels[hot] > peak))


CLUSTER_SHAPES = ([(0, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)],
                  [(0, 0), (1, 0), (2, 0)])


@st.composite
def clustered_frames(draw):
    """(frame, scale): a noisy spot with up to three planted hot clusters
    of one to three pixels, as counts at a random scale or as floats."""
    height, width = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = np.ogrid[:height, :width]
    mean = draw(st.floats(0.0, 200.0)) * np.exp(
        -((rows - height / 2) ** 2 + (cols - width / 2) ** 2) / 50.0)
    frame = rng.poisson(mean).astype(np.uint16)
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, height - 3))
        col = draw(st.integers(0, width - 3))
        value = draw(st.integers(0, 20000))
        for dr, dc in draw(st.sampled_from(CLUSTER_SHAPES)):
            frame[row + dr, col + dc] = value
    scale = draw(st.sampled_from([1.0, 0.37, 2.5]))
    return (frame * scale, 1.0) if draw(st.booleans()) else (frame, scale)


@given(clustered_frames())
def test_reference_peak_matches_the_ring_rule_by_brute_force(case):
    frame, scale = case
    height, width = frame.shape
    image = IntensityImage(frame, SensorConfig(0.1, width, height),
                           scale=scale)
    assert _reference_peak(image) == ring_rule_reference(image.pixels)
