"""One state, one image, one dark spot: the whole readout in miniature.

A vortex probe beam interacts weakly with a polarization qubit; after
post-selecting right-circular light, the beam's dark core has moved to
G * (Re w, Im w).  Rendering the post-selected intensity on a camera grid
and locating the dark core therefore measures the state.  This script
renders one image, sketches it in ASCII, and inverts the dark spot back to
the Poincare sphere.
"""

import numpy as np

from vortexscope import (Calibration, ProbeConfig, QubitState, estimate_state,
                         exact_field, extract_zip, fast_sensor, fidelity,
                         render, stereographic_project,
                         weak_condition_margin)

probe = ProbeConfig(w0=1.0, g=0.05)           # millimeters
truth = QubitState(theta=1.1, phi=5.4)
w = stereographic_project(truth)
print(f"prepared state:     theta={truth.theta:.4f}  phi={truth.phi:.4f}")
print(f"weak value:         {w:.4f}")
print(f"weak-margin:        {weak_condition_margin(w, probe):.1f} "
      "(>> 1, displaced-vortex picture valid)")
print(f"expected dark spot: ({probe.g * w.real:+.5f}, "
      f"{probe.g * w.imag:+.5f}) mm")

sensor = fast_sensor(probe.w0, pixels=512)
image = render(exact_field(probe, truth), sensor)

# coarse ASCII sketch of the annulus and its displaced core
coarse = image.pixels.reshape(32, 16, 32, 16).mean(axis=(1, 3))
levels = " .:-=+*#%@"
peak = coarse.max()
print("\npost-selected intensity (32x32 downsample):")
for row in coarse[4:28]:
    print("   " + "".join(levels[int(v / peak * (len(levels) - 1))]
                          for v in row[4:28]))

zip_est = extract_zip(image)
print(f"\nextracted dark spot: ({zip_est.position[0]:+.5f}, "
      f"{zip_est.position[1]:+.5f}) mm "
      f"using {zip_est.pixel_count_used} pixels")

calibration = Calibration(origin=(0.0, 0.0), scale=probe.g)
estimate = estimate_state(zip_est, calibration)
print(f"estimated state:    theta={estimate.theta:.4f}  phi={estimate.phi:.4f}")
print(f"fidelity with preparation: {fidelity(truth, estimate):.6f}")
