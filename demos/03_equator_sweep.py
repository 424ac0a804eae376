"""Rotating a half-wave plate sweeps linear polarizations around the
equator of the Poincare sphere; their dark spots trace a circle of radius G
on the camera.  This is the first of the two classic demonstration sweeps.

Writes demo_out/equator_zips.csv with the prepared angles, extracted dark
spots, and per-state fidelity; prints the circle statistics.
"""

from pathlib import Path

import numpy as np

from vortexscope import (Calibration, ProbeConfig, equator_path,
                         estimate_state, exact_field, extract_zip,
                         fast_sensor, fidelity, render)

probe = ProbeConfig(w0=1.0, g=0.05)
sensor = fast_sensor(probe.w0, pixels=512)
calibration = Calibration(origin=(0.0, 0.0), scale=probe.g)
states = equator_path(36)

rows = []
fids = []
for state in states:
    image = render(exact_field(probe, state), sensor)
    zip_est = extract_zip(image)
    estimate = estimate_state(calibration.unapply(zip_est.position))
    fids.append(fidelity(state, estimate))
    rows.append((state.theta, state.phi, *zip_est.position, fids[-1]))

out = Path("demo_out")
out.mkdir(exist_ok=True)
with open(out / "equator_zips.csv", "w") as fh:
    fh.write("theta,phi,zip_x_mm,zip_y_mm,fidelity\n")
    for row in rows:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")

zips = np.array([r[2:4] for r in rows])
radii = np.hypot(zips[:, 0], zips[:, 1])
azimuth = np.unwrap(np.arctan2(zips[:, 1], zips[:, 0]))
turns = (azimuth[-1] - azimuth[0]) * len(zips) / (len(zips) - 1) / (2 * np.pi)

print(f"36 linear polarizations, coupling G = {probe.g} mm")
print(f"dark-spot radius: mean {radii.mean():.6f} mm "
      f"(target {probe.g}), rms deviation {np.sqrt(np.mean((radii - probe.g) ** 2)):.2e} mm")
print(f"trace winds {turns:+.3f} times around the origin")
print(f"mean readout fidelity: {np.mean(fids):.6f}")
print(f"wrote {out / 'equator_zips.csv'}")
