"""Desk-scale simulation and estimation toolkit for reading a polarization
qubit off the dark core of an optical-vortex probe: weak-measurement probe
images, stereographic inversion to the Poincare sphere, and mixed-state
reconstruction from several post-selections.
"""

from .polarization import (BlochVector, QubitState, apply_jones,
                           equator_path, fidelity, half_wave_plate,
                           infinity_path, quarter_wave_plate, wave_plate)
from .weakvalue import (SOUTH_POLE, PoleStateError, stereographic_invert,
                        stereographic_project, weak_condition_margin)
from .probefield import (CENTROID_IM_SIGN, ComplexField, ProbeConfig,
                         TruncationWarning, ZeroFieldError, analytic_centroid,
                         approx_field, centroid_by_quadrature, exact_field,
                         exact_field_norm, lg_field, mixed_exact_field,
                         overlap_factor, quadrature_norm)
from .imaging import (ImageFormatError, IntensityImage, SensorConfig,
                      add_shot_noise, fast_sensor, experiment_ccd, read_image,
                      render, write_image)
from .estimation import (AmbiguousVortexError, Calibration, CalibrationError,
                         DegenerateGeometryError, EstimationError, NearPoleError,
                         NoVortexError, ReconstructionResult, ZipEstimate,
                         calibrate, estimate_state, extract_zip,
                         reconstruct_mixed)

__version__ = "0.1.0"
