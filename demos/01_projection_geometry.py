"""Where does a polarization state land on the readout plane?

The weak value of sigma_x between a prepared state and the right-circular
post-selection is a complex number, and that number IS the stereographic
image of the state: project the Poincare sphere from the pole opposite the
post-selection onto the plane through the origin.  This script walks the
correspondence: poles, latitude circles, the stretch of the far hemisphere,
and the round trip back to the sphere.
"""

import numpy as np

from vortexscope import QubitState, stereographic_invert, stereographic_project

print("=== landmark states ===")
landmarks = [
    ("right circular |1> (south pole)", QubitState(np.pi / 2, 0)),
    ("horizontal |H>", QubitState(np.pi / 4, 0)),
    ("vertical |V>", QubitState(np.pi / 4, np.pi)),
    ("theta=pi/4, phi=pi/2", QubitState(np.pi / 4, np.pi / 2)),
    ("theta=pi/8 (northern hemisphere)", QubitState(np.pi / 8, 0)),
]
for label, state in landmarks:
    w = stereographic_project(state)
    print(f"  {label:36s} ->  w = {w.real:+.4f} {w.imag:+.4f}i   |w| = {abs(w):.4f}")

print()
print("The south pole sits at the origin; the equator maps to the unit")
print("circle; northern-hemisphere states land far from the origin, which")
print("is why the readout prefers post-selections whose antipode is far")
print("from the states of interest.")

print()
print("=== latitude circles stay circles ===")
for theta in (np.pi / 3, np.pi / 4, np.pi / 6):
    radii = [abs(stereographic_project(QubitState(theta, phi)))
             for phi in np.linspace(0, 2 * np.pi, 12, endpoint=False)]
    print(f"  theta = {theta:.3f}: radius = {np.mean(radii):.6f} "
          f"(spread {max(radii) - min(radii):.1e})")

print()
print("=== round trip: plane -> sphere -> plane ===")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(1000):
    w = complex(rng.normal(scale=2), rng.normal(scale=2))
    back = stereographic_project(stereographic_invert(w).to_state())
    worst = max(worst, abs(back - w))
print(f"  1000 random points, worst round-trip error: {worst:.2e}")

print()
print("=== the weak value is the projection point ===")
state = QubitState(0.9, 2.4)
psi = np.array(state.amplitudes())          # (c0, c1) in the circular basis
post = np.array([0.0, 1.0])                 # right circular |1>
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
weak = (post.conj() @ sigma_x @ psi) / (post.conj() @ psi)
print(f"  <1|sigma_x|psi>/<1|psi> : {complex(weak)}")
print(f"  projection point        : {stereographic_project(state)}")
