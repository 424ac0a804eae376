"""Acceptance suite: one test per release criterion, each printing a visible
PASS/FAIL line.  Heavy rendered sweeps are shared through module fixtures.
"""

import time

import numpy as np
import pytest

from vortexscope.estimation import (Calibration, DegenerateGeometryError,
                                    extract_zip, reconstruct_mixed)
from vortexscope.imaging import (SensorConfig, add_shot_noise, fast_sensor,
                                 experiment_ccd, render)
from vortexscope.polarization import (BlochVector, QubitState, equator_path,
                                      fidelity, infinity_path, wave_plate)
from vortexscope.probefield import (CENTROID_IM_SIGN, ProbeConfig,
                                    analytic_centroid, approx_field,
                                    centroid_by_quadrature, exact_field,
                                    mixed_exact_field)
from vortexscope.weakvalue import (SOUTH_POLE, stereographic_invert,
                                   stereographic_project)

_MODULE_T0 = time.time()

W0 = 1.0
G_MARGIN20 = 0.05
PROBE = ProbeConfig(w0=W0, g=G_MARGIN20)
IDENTITY_CAL = Calibration(origin=(0.0, 0.0), scale=G_MARGIN20)
FOUR_PLANES = [SOUTH_POLE, BlochVector(0, 0, 1),
               BlochVector(0, 1, 0), BlochVector(0, -1, 0)]


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def estimated_state(position, g):
    return stereographic_invert(complex(position[0], position[1]) / g).to_state()


def sweep_winding(points):
    """Total azimuthal advance of a closed endpoint-exclusive sweep."""
    azimuth = np.unwrap(np.arctan2(points[:, 1], points[:, 0]))
    n = len(points)
    return (azimuth[-1] - azimuth[0]) * n / (n - 1)


def crossing_clusters(points, cluster_radius):
    """Transversal self-intersections of a closed polyline, merged within
    cluster_radius so a crossing near shared vertices counts once."""
    n = len(points)
    hits = []
    for i in range(n):
        a1, a2 = points[i], points[(i + 1) % n]
        d1 = a2 - a1
        for j in range(i + 2, n):
            if (j + 1) % n == i:
                continue
            b1, b2 = points[j], points[(j + 1) % n]
            d2 = b2 - b1
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(den) < 1e-30:
                continue
            t = ((b1[0] - a1[0]) * d2[1] - (b1[1] - a1[1]) * d2[0]) / den
            u = ((b1[0] - a1[0]) * d1[1] - (b1[1] - a1[1]) * d1[0]) / den
            if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
                hits.append(a1 + t * d1)
    clusters = []
    for hit in hits:
        for cluster in clusters:
            if np.linalg.norm(hit - cluster) < cluster_radius:
                break
        else:
            clusters.append(hit)
    return clusters


@pytest.fixture(scope="module")
def sweep_sensor():
    return fast_sensor(W0, pixels=512)


@pytest.fixture(scope="module")
def equator_bundle(sweep_sensor):
    states = equator_path(36)
    t0 = time.time()
    images = [render(exact_field(PROBE, s), sweep_sensor) for s in states]
    return {"states": states, "images": images,
            "render_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def infinity_bundle(sweep_sensor):
    states = infinity_path(72)
    t0 = time.time()
    images = [render(exact_field(PROBE, s), sweep_sensor) for s in states]
    return {"states": states, "images": images,
            "render_seconds": time.time() - t0}


def test_criterion_1_closed_form_centroids_match_quadrature():
    """Closed-form centroids against quadrature of the exact field over the
    full (theta, phi, coupling) grid, with one global sign constant; the y
    attenuation factor applies to the y coordinate only."""
    t0 = time.time()
    thetas = [np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
    phis = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    tolerance = 1e-5 * W0
    worst = 0.0
    signs = set()
    for g_ratio in (0.05, 0.5, 1.0):
        probe = ProbeConfig(w0=W0, g=g_ratio * W0)
        for theta in thetas:
            for phi in phis:
                state = QubitState(theta, phi)
                xa, ya = analytic_centroid(probe, state)
                xq, yq = centroid_by_quadrature(exact_field(probe, state), 512)
                worst = max(worst, abs(xa - xq), abs(abs(ya) - abs(yq)))
                w = stereographic_project(state)
                if abs(w.imag) > 1e-9 and abs(yq) > 10 * tolerance:
                    signs.add(int(np.sign(yq) * np.sign(w.imag)))
    elapsed = time.time() - t0
    ok = (worst < tolerance and signs == {int(CENTROID_IM_SIGN)}
          and elapsed < 60.0)
    report(1, ok, f"96-cell grid: max deviation {worst:.2e} (tol {tolerance:.0e}), "
                  f"sign votes {signs}, {elapsed:.1f}s (< 60s)")


def test_criterion_2_weak_limit_zip_contract():
    """Rendered exact-field dark point converges to the weak-value
    displacement faster than the coupling, and sits within half a pixel of
    it at margin 20 on the laboratory CCD geometry."""
    states = {
        "w=2": QubitState(np.arctan(0.5), 0.0),
        "w=0.5i": QubitState(np.arctan(2.0), 3 * np.pi / 2),
        "generic": QubitState(np.pi / 4 + 0.2, 1.0),
        "w=-1+i": QubitState(np.arctan(1 / np.sqrt(2)), 5 * np.pi / 4),
    }
    ratios_ok = True
    detail = []
    for name, state in states.items():
        w = stereographic_project(state)
        errors = []
        for g in (0.1, 0.05, 0.025):
            probe = ProbeConfig(w0=W0, g=g)
            sensor = SensorConfig(pixel_pitch=5 * W0 / 2560,
                                  width=2560, height=2560)
            img = render(exact_field(probe, state), sensor)
            # tight threshold keeps the averaging window small so the
            # physical convergence is not masked by window bias; the fine
            # grid keeps pixel quantization below the smallest-G error
            zip_est = extract_zip(img, threshold_fraction=0.0025)
            errors.append(np.hypot(zip_est.position[0] - g * w.real,
                                   zip_est.position[1] - g * w.imag))
        r1, r2 = errors[1] / errors[0], errors[2] / errors[1]
        ratios_ok = ratios_ok and r1 < 0.6 and r2 < 0.6
        detail.append(f"{name}: {r1:.2f},{r2:.2f}")

    ccd = experiment_ccd()
    worst_px = 0.0
    for state in states.values():
        w = stereographic_project(state)
        g = W0 / (20.0 * max(1.0, abs(w)))  # weak-condition margin 20
        probe = ProbeConfig(w0=W0, g=g)
        zip_est = extract_zip(render(exact_field(probe, state), ccd))
        err = np.hypot(zip_est.position[0] - g * w.real,
                       zip_est.position[1] - g * w.imag)
        worst_px = max(worst_px, err / ccd.pixel_pitch)
    ok = ratios_ok and worst_px < 0.5
    report(2, ok, f"error ratios [{'; '.join(detail)}] all < 0.6; "
                  f"margin-20 CCD worst offset {worst_px:.3f} px (< 0.5)")


def test_criterion_3_equator_circle(equator_bundle, sweep_sensor):
    """Equator sweep: dark points lie on the circle of radius G and wind
    around it exactly once."""
    t0 = time.time()
    zips = np.array([extract_zip(img).position
                     for img in equator_bundle["images"]])
    elapsed = equator_bundle["render_seconds"] + time.time() - t0
    radii = np.hypot(zips[:, 0], zips[:, 1])
    rms = float(np.sqrt(np.mean((radii - G_MARGIN20) ** 2)))
    winding = sweep_winding(zips)
    ok = (rms < sweep_sensor.pixel_pitch
          and abs(abs(winding) - 2 * np.pi) < 0.2
          and elapsed < 120.0)
    report(3, ok, f"36 ZIPs: RMS radial deviation {rms:.2e} mm "
                  f"(pixel {sweep_sensor.pixel_pitch:.2e}), winding "
                  f"{winding / (2 * np.pi):+.3f} turns, {elapsed:.1f}s (< 120s)")


def test_criterion_4_infinity_trace(infinity_bundle, sweep_sensor):
    """Figure-eight sweep: the ZIP trace stays inside the southern
    hemisphere's projection (unit disk in weak-value units) and crosses
    itself exactly once."""
    zips = np.array([extract_zip(img).position
                     for img in infinity_bundle["images"]])
    w_mags = np.hypot(zips[:, 0], zips[:, 1]) / G_MARGIN20
    confined = bool(np.all(w_mags <= 1.0 + 0.02))
    clusters = crossing_clusters(zips, cluster_radius=2 * sweep_sensor.pixel_pitch)
    ok = confined and len(clusters) == 1
    report(4, ok, f"72 ZIPs: max |w| {w_mags.max():.3f} (<= 1.02), "
                  f"{len(clusters)} crossing cluster(s) at "
                  f"{[tuple(np.round(c, 4)) for c in clusters]}")


def test_criterion_5_fidelity_headroom(equator_bundle, infinity_bundle,
                                       sweep_sensor):
    """Hardware realizations of this scheme are limited by interferometer
    and mode-conversion imperfections to average fidelities around 0.994;
    the idealized simulation must show clear headroom above that figure:
    noiseless pipeline fidelity >= 0.999 on both sweeps and >= 0.99 with
    shot noise at 10^6 photons over 20 seeds."""
    noiseless_means = {}
    for name, bundle in (("equator", equator_bundle),
                         ("infinity", infinity_bundle)):
        fids = []
        for state, img in zip(bundle["states"], bundle["images"]):
            est = estimated_state(extract_zip(img).position, G_MARGIN20)
            fids.append(fidelity(state, est))
        noiseless_means[name] = float(np.mean(fids))
    noiseless_ok = all(m >= 0.999 for m in noiseless_means.values())

    # Shot-noise run: stronger coupling (margin 10, still weak) and a wider
    # averaging window; at 10^6 photons the 1%-of-max threshold falls below
    # one photocount, so the window parameter is what makes sparse-count
    # images usable.
    g_noisy = 0.1
    probe = ProbeConfig(w0=W0, g=g_noisy)
    noisy_fids = []
    for bundle in (equator_bundle, infinity_bundle):
        images = [render(exact_field(probe, s), sweep_sensor)
                  for s in bundle["states"]]
        for seed in range(20):
            for state, img in zip(bundle["states"], images):
                noisy = add_shot_noise(img, 1e6, seed=seed)
                zip_est = extract_zip(noisy, threshold_fraction=0.1)
                est = estimated_state(zip_est.position, g_noisy)
                noisy_fids.append(fidelity(state, est))
    noisy_mean = float(np.mean(noisy_fids))
    ok = noiseless_ok and noisy_mean >= 0.99
    report(5, ok, f"noiseless means {noiseless_means} (>= 0.999); "
                  f"shot-noise mean over 20 seeds x both sweeps "
                  f"{noisy_mean:.4f} (>= 0.99)")


def test_criterion_6_mixed_state_reconstruction(rng):
    """Mixed-state recovery: exact weak values invert to machine precision
    over random interior states; the full image pipeline recovers the
    worked mixture; the two-plane degenerate case is refused."""
    worst = 0.0
    for _ in range(100):
        direction = rng.normal(size=3)
        r = rng.uniform(0, 0.9) * direction / np.linalg.norm(direction)
        result = reconstruct_mixed(
            [(stereographic_project(BlochVector(*r), plane), plane)
             for plane in FOUR_PLANES])
        worst = max(worst, float(np.linalg.norm(result.bloch.as_array() - r)))
    analytic_ok = worst < 1e-9

    rho = BlochVector(0.3, -0.2, 0.4)
    sensor = fast_sensor(W0, pixels=512)
    observations = []
    for plane in FOUR_PLANES:
        img = render(mixed_exact_field(PROBE, rho, plane), sensor)
        observations.append((IDENTITY_CAL.unapply(extract_zip(img).position),
                             plane))
    pipeline_error = float(np.linalg.norm(
        reconstruct_mixed(observations).bloch.as_array() - rho.as_array()))
    pipeline_ok = pipeline_error < 5e-3

    degenerate = [(0j, plane) for plane in (SOUTH_POLE, BlochVector(0, 0, 1))]
    try:
        reconstruct_mixed(degenerate)
        degenerate_ok = False
    except DegenerateGeometryError:
        degenerate_ok = True

    ok = analytic_ok and pipeline_ok and degenerate_ok
    report(6, ok, f"100 analytic recoveries worst {worst:.1e} (< 1e-9); "
                  f"image pipeline error {pipeline_error:.2e} (< 5e-3); "
                  f"degenerate 2-plane case raised: {degenerate_ok}")


def test_criterion_7_property_suites(rng):
    """Cross-cutting property battery at the stated tolerances."""
    failures = []

    # stereographic round trip, 1e-10
    worst = 0.0
    for theta in np.linspace(0.05, np.pi / 2, 10):
        for phi in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            state = QubitState(theta, phi)
            back = stereographic_invert(stereographic_project(state))
            worst = max(worst, float(np.linalg.norm(
                back.as_array() - state.bloch().as_array())))
    if worst > 1e-10:
        failures.append(f"roundtrip {worst:.1e}")

    # wave-plate unitarity, 1e-12
    for _ in range(30):
        plate = wave_plate(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
        if np.max(np.abs(plate @ plate.conj().T - np.eye(2))) > 1e-12:
            failures.append("unitarity")
            break

    # latitude circles project to constant radius, 1e-12
    for theta in (np.pi / 8, np.pi / 3):
        radii = [abs(stereographic_project(QubitState(theta, phi)))
                 for phi in np.linspace(0, 2 * np.pi, 24, endpoint=False)]
        if max(radii) - min(radii) > 1e-12:
            failures.append("latitude constancy")

    # mirror symmetry of intensities under phi -> -phi, 1e-12
    xs = np.linspace(-1.5, 1.5, 21)
    xg, yg = np.meshgrid(xs, xs)
    for theta, phi in ((0.6, 1.1), (np.pi / 4, 2.7)):
        state, mirror = QubitState(theta, phi), QubitState(theta, -phi)
        for maker in (exact_field, approx_field):
            a = np.abs(maker(PROBE, state).amplitude(xg, yg)) ** 2
            b = np.abs(maker(PROBE, mirror).amplitude(xg, -yg)) ** 2
            if np.max(np.abs(a - b)) > 1e-12:
                failures.append("mirror symmetry")

    # render partition independence, bit exact
    field = exact_field(PROBE, QubitState(0.8, 0.5))
    sensor = fast_sensor(W0, pixels=128)
    whole = render(field, sensor).pixels
    xs, ys = sensor.axes()
    for k in (1, 17, 64):
        rows = [field.intensity(xs[None, :], ys[i:i + k, None])
                for i in range(0, sensor.height, k)]
        if not all(np.array_equal(whole[i * k:(i + 1) * k], part)
                   for i, part in enumerate(rows)):
            failures.append("partition independence")

    # noise determinism, bit exact
    base = render(field, sensor)
    a = add_shot_noise(base, 1e5, seed=123).pixels
    b = add_shot_noise(base, 1e5, seed=123).pixels
    if not np.array_equal(a, b):
        failures.append("noise determinism")

    report(7, not failures, "properties: " + (", ".join(failures) if failures
                                              else "all at stated tolerances"))


def test_zz_acceptance_runtime_budget():
    """The whole acceptance module must stay well inside the five-minute
    full-suite budget."""
    elapsed = time.time() - _MODULE_T0
    report("runtime", elapsed < 270.0,
           f"acceptance module wall time {elapsed:.0f}s (< 270s)")
