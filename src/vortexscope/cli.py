"""Command-line front end: scenario simulation, state estimation from image
files, mixed-state tomography, the centroid cross-check, and preparation-path
listings.

All configuration is JSON with lengths in millimeters and angles in radians;
flags override config fields.  Outputs are deterministic for a fixed config
and seed, and every file carries the producing configuration as provenance.

Exit codes: 0 success, 2 configuration/usage error, 3 estimation failure,
4 consistency-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import estimation, imaging, polarization, probefield, weakvalue
from .polarization import BlochVector, QubitState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_CHECK = 4

MARGIN_WARN_THRESHOLD = 10.0
# Noise seeds are below 2**64, so a seed plus a frame offset stays a valid
# Philox key (below 2**128).
MAX_SEED = 2 ** 64


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the field."""


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

def _require(cfg: dict, field: str, kind=None):
    if field not in cfg:
        raise ConfigError(f"config field '{field}' is required")
    value = cfg[field]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field '{field}' has the wrong type")
    return value


def parse_probe(cfg: dict) -> probefield.ProbeConfig:
    probe = _require(cfg, "probe", dict)
    try:
        return probefield.ProbeConfig(w0=float(_require(probe, "w0_mm")),
                                      g=float(_require(probe, "g_mm")),
                                      l=int(probe.get("l", 1)))
    except ValueError as bad:
        raise ConfigError(f"config field 'probe': {bad}") from None


def parse_sensor(cfg: dict, probe: probefield.ProbeConfig) -> imaging.SensorConfig:
    # default scenario reproduces the laboratory geometry
    sensor = cfg.get("sensor", "experiment-ccd")
    if sensor == "fast":
        return imaging.fast_sensor(probe.w0)
    if sensor == "experiment-ccd":
        return imaging.experiment_ccd()
    if isinstance(sensor, dict):
        try:
            return imaging.SensorConfig(
                pixel_pitch=float(_require(sensor, "pixel_pitch_mm")),
                width=int(_require(sensor, "width")),
                height=int(_require(sensor, "height")),
                center_offset=tuple(sensor.get("center_offset_mm", (0.0, 0.0))))
        except (TypeError, ValueError) as bad:
            raise ConfigError(f"config field 'sensor': {bad}") from None
    raise ConfigError(f"config field 'sensor': unknown preset {sensor!r}")


def parse_postselection(value) -> BlochVector:
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"post-selection {value!r} is not a 3-vector") from None
    if vec.shape != (3,):
        raise ConfigError(f"post-selection {value!r} is not a 3-vector")
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ConfigError("post-selection vector must be nonzero")
    vec = vec / norm
    if abs(vec[0]) > 1e-9:
        raise ConfigError(
            "post-selection must be orthogonal to the x axis (x component 0)")
    return BlochVector.from_array(vec)


def parse_states(cfg: dict):
    """State list from the 'states' config entry.

    Returns (label, [QubitState, ...]) for pure sources or
    (label, BlochVector) for a mixed Bloch source.
    """
    source = _require(cfg, "states", dict)
    kind = _require(source, "kind", str)
    if kind == "explicit":
        theta = float(_require(source, "theta"))
        phi = float(_require(source, "phi"))
        try:
            return "explicit", [QubitState(theta, phi)]
        except ValueError as bad:
            raise ConfigError(f"config field 'states': {bad}") from None
    if kind == "bloch":
        try:
            vec = BlochVector(float(_require(source, "x")),
                              float(_require(source, "y")),
                              float(_require(source, "z")))
        except ValueError as bad:
            raise ConfigError(f"config field 'states': {bad}") from None
        return "bloch", vec
    if kind in ("equator", "infinity"):
        steps = int(_require(source, "steps"))
        try:
            path = (polarization.equator_path(steps) if kind == "equator"
                    else polarization.infinity_path(steps))
        except ValueError as bad:
            raise ConfigError(f"config field 'states': {bad}") from None
        return kind, path
    raise ConfigError(f"config field 'states.kind': unknown kind {kind!r}")


def parse_noise(cfg: dict):
    noise = cfg.get("noise")
    if noise in (None, "noiseless"):
        return None
    if not isinstance(noise, dict):
        raise ConfigError("config field 'noise' must be null or an object")
    try:
        return {"photon_budget": imaging.checked_photon_budget(
                    _require(noise, "photon_budget")),
                "seed": imaging.checked_seed(noise.get("seed", 0), MAX_SEED)}
    except (TypeError, ValueError) as bad:
        raise ConfigError(f"config field 'noise': {bad}") from None


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as bad:
        raise ConfigError(f"config file {path} is not valid JSON: {bad}") from None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path, header, rows, provenance=None):
    with open(path, "w", newline="") as fh:
        if provenance is not None:
            fh.write("# provenance: " + json.dumps(provenance) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row]
                         for row in rows)


def _simulate_image(probe, sensor, state, postselection, mode, noise, seed_offset=0):
    if mode == "exact":
        field = probefield.exact_field(probe, state, postselection)
    elif mode == "approx":
        field = probefield.approx_field(probe, state, postselection)
    else:
        raise ConfigError(f"mode must be 'exact' or 'approx', got {mode!r}")
    image = imaging.render(field, sensor, mode=mode)
    image.provenance["state"] = {"theta": state.theta, "phi": state.phi}
    image.provenance["postselection"] = [postselection.x, postselection.y,
                                         postselection.z]
    if noise is not None:
        image = imaging.add_shot_noise(image, noise["photon_budget"],
                                       noise["seed"] + seed_offset)
    return image, field


def _margin_of(state, probe, postselection) -> float:
    try:
        rotated = state.bloch().rotated_about_x(
            -weakvalue.postselection_rotation_angle(postselection))
        w = weakvalue.weak_value_pure(rotated.to_state())
        return weakvalue.weak_condition_margin(w, probe)
    except weakvalue.PoleStateError:
        return 0.0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    probe = parse_probe(cfg)
    sensor = parse_sensor(cfg, probe)
    kind, states = parse_states(cfg)
    if kind == "bloch":
        raise ConfigError("'simulate' expects pure states; use 'tomo' "
                          "for mixed-state scenarios")
    postselections = [parse_postselection(v)
                      for v in cfg.get("postselections", [[0, 0, -1]])]
    noise = parse_noise(cfg)
    if args.seed is not None:
        try:
            seed = imaging.checked_seed(args.seed, MAX_SEED)
        except ValueError as bad:
            raise ConfigError(f"--seed: {bad}") from None
        noise = dict(noise or {"photon_budget": None}) | {"seed": seed}
        if noise["photon_budget"] is None:
            raise ConfigError("--seed given but config has no noise budget")
    mode = args.mode or cfg.get("mode", "exact")
    out_dir = Path(args.out or cfg.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    margin_threshold = args.margin_threshold
    rows = []
    for index, state in enumerate(states):
        for p_index, postselection in enumerate(postselections):
            margin = _margin_of(state, probe, postselection)
            if 0 < margin < margin_threshold:
                print(f"WARNING: weak-condition margin {margin:.2f} < "
                      f"{margin_threshold} for state {index}; the "
                      "displaced-vortex reading is unreliable",
                      file=sys.stderr)
            image, _ = _simulate_image(probe, sensor, state, postselection,
                                       mode, noise,
                                       seed_offset=index * len(postselections) + p_index)
            image.provenance["config"] = cfg
            name = f"img_{index:04d}_{p_index}.pgm"
            imaging.write_image(image, out_dir / name)
            b = state.bloch()
            rows.append((name, index, state.theta, state.phi, b.x, b.y, b.z,
                         postselection.x, postselection.y, postselection.z,
                         probe.w0, probe.g, probe.l, mode, margin))
    _write_csv(out_dir / "manifest.csv",
               ["file", "index", "theta", "phi", "x", "y", "z",
                "postselect_x", "postselect_y", "postselect_z",
                "w0_mm", "g_mm", "l", "mode", "margin"],
               rows,
               provenance={"command": "simulate", "config": cfg,
                           "mode": mode, "noise": noise})
    print(f"wrote {len(rows)} images and manifest.csv to {out_dir}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    try:
        with open(args.cal) as fh:
            calibration = estimation.Calibration.from_json(json.load(fh))
    except (json.JSONDecodeError, KeyError, TypeError) as bad:
        raise ConfigError(f"calibration file {args.cal}: {bad}") from None
    try:
        components = [float(t) for t in args.postselect.split(",")]
    except ValueError:
        raise ConfigError(
            f"--postselect must be 'x,y,z', got {args.postselect!r}") from None
    postselection = parse_postselection(components)
    rows = []
    fidelities = []
    failures = 0
    for path in args.images:
        try:
            image = imaging.read_image(path)
            zip_est = estimation.extract_zip(
                image, threshold_fraction=args.threshold_fraction)
            w = calibration.unapply(zip_est.position)
            state = estimation.estimate_state(zip_est, calibration, postselection)
            b = state.bloch()
            fid = ""
            reference = image.provenance.get("state")
            if reference and "theta" in reference:
                truth = QubitState(reference["theta"], reference["phi"])
                fid = polarization.fidelity(truth, state)
                fidelities.append(fid)
            rows.append((path, zip_est.position[0], zip_est.position[1],
                         w.real, w.imag, state.theta, state.phi,
                         b.x, b.y, b.z, fid, ""))
        except (ValueError, OSError) as bad:
            failures += 1
            rows.append((path, "", "", "", "", "", "", "", "", "", "",
                         f"error: {bad}"))
    header = ["file", "zip_x_mm", "zip_y_mm", "w_re", "w_im", "theta_est",
              "phi_est", "x", "y", "z", "fidelity", "error"]
    out = args.out or "estimates.csv"
    _write_csv(out, header, rows,
               provenance={"command": "estimate",
                           "calibration": calibration.to_json(),
                           "postselection": [postselection.x, postselection.y,
                                             postselection.z],
                           "threshold_fraction": args.threshold_fraction})
    if fidelities:
        print(f"mean fidelity over {len(fidelities)} references: "
              f"{np.mean(fidelities):.6f}")
    print(f"wrote {len(rows)} rows to {out} ({failures} failures)")
    if failures == len(rows):
        return EXIT_ESTIMATION
    return EXIT_OK


def cmd_tomo(args) -> int:
    cfg = load_config(args.config)
    probe = parse_probe(cfg)
    sensor = parse_sensor(cfg, probe)
    kind, source = parse_states(cfg)
    if kind != "bloch":
        raise ConfigError("'tomo' expects a Bloch-vector state source")
    postselections = [parse_postselection(v)
                      for v in _require(cfg, "postselections", list)]
    if len(postselections) < 2:
        raise ConfigError("'tomo' needs at least two post-selections")
    noise = parse_noise(cfg)

    calibration = estimation.Calibration(origin=(0.0, 0.0), scale=probe.g)
    observations = []
    for p_index, postselection in enumerate(postselections):
        field = probefield.mixed_exact_field(probe, source, postselection)
        image = imaging.render(field, sensor, mode="mixture")
        if noise is not None:
            image = imaging.add_shot_noise(image, noise["photon_budget"],
                                           noise["seed"] + p_index)
        zip_est = estimation.extract_zip(
            image, threshold_fraction=args.threshold_fraction)
        observations.append((zip_est, calibration, postselection))
    try:
        result = estimation.reconstruct_mixed(observations)
    except estimation.DegenerateGeometryError as bad:
        print(f"estimation failed: {bad}", file=sys.stderr)
        return EXIT_ESTIMATION
    report = {
        "bloch": [result.bloch.x, result.bloch.y, result.bloch.z],
        "residual_mm": result.residual,
        "images_used": result.images_used,
        "clipped": result.clipped,
    }
    truth = source.as_array()
    recovered = result.bloch.as_array()
    report["recovery_error"] = float(np.linalg.norm(recovered - truth))
    report["trace_distance"] = float(np.linalg.norm(recovered - truth) / 2)
    report["uhlmann_fidelity"] = polarization.fidelity(source, result.bloch)
    print(json.dumps(report, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"config": cfg, "report": report}, fh, indent=2)
    return EXIT_OK


def cmd_centroid_check(args) -> int:
    if args.grid:
        grid = load_config(args.grid)
    else:
        grid = {}
    w0 = float(grid.get("w0_mm", 1.0))
    thetas = grid.get("thetas", [np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2])
    phis = grid.get("phis", list(np.linspace(0, 2 * np.pi, 8, endpoint=False)))
    ratios = grid.get("g_over_w0", [0.05, 0.5, 1.0])
    resolution = int(grid.get("resolution", 512))
    tolerance = 1e-5 * w0

    worst = 0.0
    sign_votes = []
    print("theta,phi,g_over_w0,x_analytic,x_quadrature,y_analytic,y_quadrature,deviation")
    for g_ratio in ratios:
        probe = probefield.ProbeConfig(w0=w0, g=g_ratio * w0)
        for theta in thetas:
            for phi in phis:
                state = QubitState(float(theta), float(phi))
                xa, ya = probefield.analytic_centroid(probe, state)
                field = probefield.exact_field(probe, state)
                xq, yq = probefield.centroid_by_quadrature(field, resolution)
                deviation = max(abs(xa - xq), abs(abs(ya) - abs(yq)))
                worst = max(worst, deviation)
                w = weakvalue.weak_value_pure(state).value
                if abs(w.imag) > 1e-6 and abs(yq) > 10 * tolerance:
                    sign_votes.append(np.sign(yq) * np.sign(w.imag))
                print(f"{theta},{phi},{g_ratio},{_fmt(xa)},{_fmt(xq)},"
                      f"{_fmt(ya)},{_fmt(yq)},{deviation:.3e}")
    consistent = len(set(sign_votes)) <= 1
    sign = int(sign_votes[0]) if sign_votes else 0
    print(f"# resolved centroid sign s = {sign:+d} "
          f"({'consistent' if consistent else 'INCONSISTENT'}), "
          f"max deviation {worst:.3e} (tolerance {tolerance:.1e})")
    if worst > tolerance or not consistent \
            or sign != int(probefield.CENTROID_IM_SIGN):
        print("centroid check FAILED", file=sys.stderr)
        return EXIT_CHECK
    print("# centroid check passed")
    return EXIT_OK


def cmd_path(args) -> int:
    try:
        states = (polarization.equator_path(args.steps) if args.kind == "equator"
                  else polarization.infinity_path(args.steps))
    except ValueError as bad:
        raise ConfigError(str(bad)) from None
    lines = ["theta,phi,x,y,z"]
    for state in states:
        lines.append(",".join(_fmt(v) for v in polarization.state_csv_row(state)))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexscope",
        description="Simulate and invert vortex-probe weak measurements "
                    "of polarization states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render probe images for a scenario")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--mode", choices=("exact", "approx"), default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--margin-threshold", type=float,
                       default=MARGIN_WARN_THRESHOLD, dest="margin_threshold")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate states from image files")
    p_est.add_argument("--cal", required=True, help="calibration JSON file")
    p_est.add_argument("--postselect", required=True,
                       help="post-selection Bloch vector 'x,y,z'")
    p_est.add_argument("--threshold-fraction", type=float, default=0.01,
                       dest="threshold_fraction")
    p_est.add_argument("--out", default=None)
    p_est.add_argument("images", nargs="+")
    p_est.set_defaults(func=cmd_estimate)

    p_tomo = sub.add_parser("tomo", help="mixed-state reconstruction")
    p_tomo.add_argument("--config", required=True)
    p_tomo.add_argument("--threshold-fraction", type=float, default=0.01,
                        dest="threshold_fraction")
    p_tomo.add_argument("--out", default=None)
    p_tomo.set_defaults(func=cmd_tomo)

    p_check = sub.add_parser("centroid-check",
                             help="closed-form centroids vs quadrature")
    p_check.add_argument("--grid", default=None)
    p_check.set_defaults(func=cmd_centroid_check)

    p_path = sub.add_parser("path", help="list preparation-path states as CSV")
    p_path.add_argument("kind", choices=("equator", "infinity"))
    p_path.add_argument("--steps", type=int, required=True)
    p_path.add_argument("--out", default=None)
    p_path.set_defaults(func=cmd_path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as bad:
        print(f"config error: {bad}", file=sys.stderr)
        return EXIT_CONFIG
    except (estimation.NoVortexError, estimation.AmbiguousVortexError,
            estimation.NearPoleError, estimation.DegenerateGeometryError,
            estimation.CalibrationError) as bad:
        print(f"estimation failed: {bad}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (imaging.ImageFormatError, OSError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
