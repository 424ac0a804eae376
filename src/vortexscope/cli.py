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
import contextlib
import csv
import functools
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import estimation, imaging, polarization, probefield, weakvalue
from .imaging import integer, mapping, real, reals, text
from .polarization import BlochVector, QubitState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_CHECK = 4

MARGIN_WARN_THRESHOLD = 10.0


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the field."""


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _config_errors(subject: str):
    """Re-raise a TypeError, ValueError or OverflowError from the block as
    a ConfigError that names `subject`; a ConfigError passes through."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as bad:
        raise ConfigError(f"{subject}: {bad}") from None
    except OverflowError:
        raise ConfigError(f"{subject}: overflows the float range") from None


def threshold_fraction(text: str) -> float:
    """argparse type of --threshold-fraction: a number in (0, 0.5)."""
    value = float(text)
    if not 0.0 < value < 0.5:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.5), got {text}")
    return value


def parse_probe(cfg: dict) -> probefield.ProbeConfig:
    with _config_errors("config field 'probe'"):
        probe = mapping(cfg, "probe")
        parsed = probefield.ProbeConfig(w0=real(probe, "w0_mm"),
                                        g=real(probe, "g_mm"),
                                        l=integer(probe, "l", default=1))
        # the weak-value reading and its margin need a displaced vortex
        if not parsed.g > 0:
            raise ValueError("coupling displacement g_mm must be positive")
    return parsed


def parse_sensor(cfg: dict, probe: probefield.ProbeConfig) -> imaging.SensorConfig:
    # default scenario reproduces the laboratory geometry
    sensor = cfg.get("sensor", "experiment-ccd")
    if sensor == "fast":
        return imaging.fast_sensor(probe.w0)
    if sensor == "experiment-ccd":
        return imaging.experiment_ccd()
    if isinstance(sensor, dict):
        with _config_errors("config field 'sensor'"):
            return imaging.SensorConfig(
                pixel_pitch=real(sensor, "pixel_pitch_mm"),
                width=integer(sensor, "width"),
                height=integer(sensor, "height"),
                center_offset=reals(sensor, "center_offset_mm", [0.0, 0.0]))
    raise ConfigError(f"config field 'sensor': unknown preset {sensor!r}")


def parse_postselection(value) -> BlochVector:
    """Normalised post-selection from a 3-vector of outside input.  Raises
    ValueError; `weakvalue` decides whether the frame exists."""
    vec = np.array(reals({"post-selection": value}, "post-selection"))
    if vec.shape != (3,):
        raise ValueError(f"post-selection {value!r} is not a 3-vector")
    norm = np.linalg.norm(vec)
    if not norm >= 1e-12:
        raise ValueError("post-selection vector must be nonzero")
    postselection = BlochVector.from_array(vec / norm)
    weakvalue.projection_frame(postselection)
    return postselection


def parse_states(cfg: dict):
    """The 'states' config entry: a list of QubitStates for a pure source,
    or a BlochVector for a mixed one."""
    with _config_errors("config field 'states'"):
        source = mapping(cfg, "states")
        kind = source.get("kind")
        if kind == "explicit":
            return [QubitState(real(source, "theta"), real(source, "phi"))]
        if kind == "bloch":
            return BlochVector(real(source, "x"), real(source, "y"),
                               real(source, "z"))
        # a tuple compares by ==, so an unhashable kind reaches the error
        if kind in polarization.PATHS:
            return _path(kind, integer(source, "steps"))
    raise ConfigError(f"config field 'states.kind': unknown kind {kind!r}")


def parse_noise(cfg: dict):
    if cfg.get("noise") is None:
        return None
    with _config_errors("config field 'noise'"):
        noise = mapping(cfg, "noise")
        return {"photon_budget": imaging.checked_photon_budget(
                    real(noise, "photon_budget")),
                "seed": imaging.checked_seed(noise.get("seed", 0))}


def parse_scenario(cfg: dict):
    """(probe, sensor, source, postselections, noise) of a scenario config,
    parsed in that order; a non-empty post-selection list, [|1>] by default."""
    probe = parse_probe(cfg)
    sensor = parse_sensor(cfg, probe)
    source = parse_states(cfg)
    with _config_errors("config field 'postselections'"):
        values = cfg.get("postselections", [[0, 0, -1]])
        if not (isinstance(values, list) and values):
            raise ValueError(f"'postselections' must be a non-empty list "
                             f"(got {values!r})")
        postselections = [parse_postselection(v) for v in values]
    return probe, sensor, source, postselections, parse_noise(cfg)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as bad:
        raise ConfigError(f"config file {path} is not valid JSON: {bad}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _path(kind: str, steps: int):
    """The states of a preparation path.  `polarization.<kind>_path` is
    looked up at call time, so a replaced module attribute is the one run."""
    return getattr(polarization, f"{kind}_path")(steps)


def _frames(build, probe, sources, postselections, sensor, noise, subject):
    """Yield (index, p_index, field, image) for each source and, under it,
    each post-selection.  The field is build(probe, source, postselection),
    made under the subject `subject.format(index=, p_index=)`; the image is
    its rendered frame, with noise drawn on frame
    index * len(postselections) + p_index.  An unlit or non-finite frame is
    a ConfigError naming the subject and g_mm (a vortex displaced off the
    sensor, or the weak-limit Gaussian of a large complex shift), and so is
    a noise draw with a count above 16 bits, naming the subject.  Callers
    keep no frame past their loop body, so this loop alone holds the last
    frame: a clean one until the next render starts, a noisy one until the
    next render ends, before its draw.  malloc then reuses the frame's
    pages; freed any earlier, a noisy frame's pages go back to the OS."""
    for index, source in enumerate(sources):
        for p_index, postselection in enumerate(postselections):
            named = subject.format(index=index, p_index=p_index)
            with _config_errors(named):
                field = build(probe, source, postselection)
            if noise is None:
                image = None  # a noisy frame goes once the render returns
            try:
                image = imaging.render(field, sensor)
                fault = None if image.max_intensity() > 0 else "no light"
            except imaging.ImageFormatError:
                fault = "non-finite intensities"
            if fault:
                raise ConfigError(f"{named}: the frame renders {fault} on "
                                  f"the sensor (g_mm = {probe.g!r})")
            if noise is not None:
                with _config_errors(named):
                    image = imaging.add_shot_noise(
                        image, noise["photon_budget"], noise["seed"],
                        frame=index * len(postselections) + p_index)
            yield index, p_index, field, image


def _write_text(path, content: str) -> None:
    """Rewrite a text output in place as UTF-8; until it is complete its
    first character reads '!'."""
    imaging.rewrite_file(path, b"!", content.encode())


def _write_csv(path, header, rows, provenance):
    fh = io.StringIO()
    fh.write("# provenance: " + json.dumps(provenance) + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([c if isinstance(c, (str, int)) else _fmt(c)
                      for c in row] for row in rows)
    _write_text(path, fh.getvalue())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    probe, sensor, states, postselections, noise = parse_scenario(cfg)
    if isinstance(states, BlochVector):
        raise ConfigError("'simulate' expects pure states; use 'tomo' "
                          "for mixed-state scenarios")
    if args.seed is not None:
        with _config_errors("--seed"):
            seed = imaging.checked_seed(args.seed)
        noise = dict(noise or {"photon_budget": None}) | {"seed": seed}
        if noise["photon_budget"] is None:
            raise ConfigError("--seed given but config has no noise budget")
    mode = args.mode or cfg.get("mode", "exact")
    if mode not in ("exact", "approx"):
        raise ConfigError(f"mode must be 'exact' or 'approx', got {mode!r}")
    build = probefield.exact_field if mode == "exact" else probefield.approx_field
    with _config_errors("config field 'output_dir'"):
        output_dir = text(cfg, "output_dir", ".")
    out_dir = Path(args.out or output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for index, p_index, field, image in _frames(
            build, probe, states, postselections, sensor, noise,
            "state {index}, post-selection {p_index}"):
        state, postselection = states[index], postselections[p_index]
        if field.weak_value is None:  # the pole: no margin to report
            margin, why = 0.0, "the weak value diverges at the projection pole"
        else:
            margin = weakvalue.weak_condition_margin(field.weak_value, probe)
            why = f"weak-condition margin {margin:.2f} < {MARGIN_WARN_THRESHOLD}"
        # |w| = 1 can round a few ulps high; that alone does not warn
        slack = 4 * np.spacing(MARGIN_WARN_THRESHOLD)
        if margin < MARGIN_WARN_THRESHOLD - slack:
            print(f"WARNING: {why} for state {index}, post-selection "
                  f"{p_index}; the displaced-vortex reading is unreliable",
                  file=sys.stderr)
        image.provenance["state"] = {"theta": state.theta, "phi": state.phi}
        image.provenance["postselection"] = [postselection.x, postselection.y,
                                             postselection.z]
        image.provenance["config"] = cfg
        name = f"img_{index:04d}_{p_index}.pgm"
        imaging.write_image(image, out_dir / name)
        del image  # _frames alone holds it until its release point
        rows.append((name, index, *polarization.state_csv_row(state),
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
    cal = load_config(args.cal)
    with _config_errors(f"calibration file {args.cal}"):
        calibration = estimation.Calibration.from_json(cal)
    with _config_errors("--postselect"):
        postselection = parse_postselection(
            [float(t) for t in args.postselect.split(",")])
    flag = [postselection.x, postselection.y, postselection.z]
    rows = []
    fidelities = []
    failures = 0
    for path in args.images:
        try:
            image = imaging.read_image(path)
            recorded = image.provenance.get("postselection", flag)
            with _config_errors(f"{path}: provenance 'postselection'"):
                gap = parse_postselection(recorded).as_array() - flag
                if np.abs(gap).max() > 1e-9:
                    raise ValueError(f"{recorded} is not --postselect {flag}")
            zip_est = estimation.extract_zip(
                image, threshold_fraction=args.threshold_fraction)
            w = calibration.unapply(zip_est.position)
            state = estimation.estimate_state(w, postselection)
            fid = ""
            reference = image.provenance.get("state")
            if isinstance(reference, dict):
                with _config_errors(f"{path}: provenance 'state'"):
                    truth = QubitState(real(reference, "theta"),
                                       real(reference, "phi"))
                fid = polarization.fidelity(truth, state)
                fidelities.append(fid)
            rows.append((path, zip_est.position[0], zip_est.position[1],
                         w.real, w.imag, *polarization.state_csv_row(state),
                         fid, ""))
        except (ValueError, OSError) as bad:
            failures += 1
            rows.append((path, *[""] * 10, f"error: {bad}"))
    header = ["file", "zip_x_mm", "zip_y_mm", "w_re", "w_im", "theta_est",
              "phi_est", "x", "y", "z", "fidelity", "error"]
    out = args.out or "estimates.csv"
    _write_csv(out, header, rows,
               provenance={"command": "estimate",
                           "calibration": calibration.to_json(),
                           "postselection": flag,
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
    probe, sensor, source, postselections, noise = parse_scenario(cfg)
    if not isinstance(source, BlochVector):
        raise ConfigError("'tomo' expects a Bloch-vector state source")
    if len(postselections) < 2:
        raise ConfigError("'tomo' needs at least two post-selections")
    calibration = estimation.Calibration(origin=(0.0, 0.0), scale=probe.g)
    lines = []
    for _, p_index, _, image in _frames(
            probefield.mixed_exact_field, probe, [source], postselections,
            sensor, noise, "Bloch state at post-selection {p_index}"):
        try:
            zip_est = estimation.extract_zip(
                image, threshold_fraction=args.threshold_fraction)
        except estimation.EstimationError as error:
            error.args = (f"plane {p_index}: {error.args[0]}", *error.args[1:])
            raise
        del image  # keep only the estimate; _frames holds the plane
        lines.append((calibration.unapply(zip_est.position),
                      postselections[p_index]))
    result = estimation.reconstruct_mixed(lines)
    report = {
        "bloch": [result.bloch.x, result.bloch.y, result.bloch.z],
        "residual": result.residual,
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
        _write_text(args.out, json.dumps({"config": cfg, "report": report},
                                         indent=2))
    return EXIT_OK


def cmd_centroid_check(args) -> int:
    grid = load_config(args.grid) if args.grid else {}
    with _config_errors(f"grid file {args.grid}"):
        w0 = real(grid, "w0_mm", 1.0)
        thetas = reals(grid, "thetas",
                       [np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2])
        phis = reals(grid, "phis",
                     list(np.linspace(0, 2 * np.pi, 8, endpoint=False)))
        ratios = reals(grid, "g_over_w0", [0.05, 0.5, 1.0])
        resolution = integer(grid, "resolution", default=512)
        probes = [probefield.ProbeConfig(w0=w0, g=g_ratio * w0)
                  for g_ratio in ratios]
        if resolution < 64:
            raise ValueError(
                f"'resolution' must be at least 64, got {resolution}")
    subject = f"grid file {args.grid}, "
    points, closed = [], []  # (theta, phi, state, w); closed forms per probe
    for theta in thetas:  # a theta outside (0, pi/2] or at the pole fails
        with _config_errors(subject + f"'thetas' entry {theta!r}"):
            for phi in phis:
                state = QubitState(theta, phi)
                points.append((theta, phi, state,
                               weakvalue.stereographic_project(state)))
    for g_ratio, probe in zip(ratios, probes):
        with _config_errors(subject + f"'g_over_w0' entry {g_ratio!r}"):
            closed.append([probefield.analytic_centroid(probe, state)
                           for _, _, state, _ in points])
    tolerance = 1e-5 * w0

    worst = 0.0
    sign_votes = []
    print("theta,phi,g_over_w0,x_analytic,x_quadrature,y_analytic,y_quadrature,deviation")
    # a sum that overflows or vanishes leaves a NaN row, not a numpy warning
    with np.errstate(all="ignore"):
        for g_ratio, probe, centroids in zip(ratios, probes, closed):
            for (theta, phi, state, w), (xa, ya) in zip(points, centroids):
                xq, yq = probefield.centroid_by_quadrature(
                    probefield.exact_field(probe, state), resolution)
                # np.maximum keeps a NaN, which the builtin max may drop
                deviation = np.maximum(abs(xa - xq), abs(abs(ya) - abs(yq)))
                worst = np.maximum(worst, deviation)
                if abs(w.imag) > 1e-6 and abs(yq) > 10 * tolerance:
                    sign_votes.append(np.sign(yq) * np.sign(w.imag))
                print(f"{theta},{phi},{g_ratio},{_fmt(xa)},{_fmt(xq)},"
                      f"{_fmt(ya)},{_fmt(yq)},{deviation:.3e}")
    consistent = len(set(sign_votes)) == 1
    sign_text = (f"resolved centroid sign s = {int(sign_votes[0]):+d} "
                 f"({'consistent' if consistent else 'INCONSISTENT'})"
                 if sign_votes else
                 "centroid sign untested (no row resolves Im w and y)")
    print(f"# {sign_text}, max deviation {worst:.3e} "
          f"(tolerance {tolerance:.1e})")
    # every vote must be s; no vote leaves the deviation to decide
    if not (worst <= tolerance
            and set(sign_votes) <= {probefield.CENTROID_IM_SIGN}):
        print("centroid check FAILED", file=sys.stderr)
        return EXIT_CHECK
    print("# centroid check passed")
    return EXIT_OK


def cmd_path(args) -> int:
    try:
        states = _path(args.kind, args.steps)
    except ValueError as bad:
        raise ConfigError(str(bad)) from None
    lines = ["theta,phi,x,y,z"]
    for state in states:
        lines.append(",".join(_fmt(v) for v in polarization.state_csv_row(state)))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
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
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate states from image files")
    p_est.add_argument("--cal", required=True, help="calibration JSON file")
    p_est.add_argument("--postselect", required=True,
                       help="post-selection Bloch vector 'x,y,z'")
    p_est.add_argument("--threshold-fraction", type=threshold_fraction,
                       default=0.01, dest="threshold_fraction")
    p_est.add_argument("--out", default=None)
    p_est.add_argument("images", nargs="+")
    p_est.set_defaults(func=cmd_estimate)

    p_tomo = sub.add_parser("tomo", help="mixed-state reconstruction")
    p_tomo.add_argument("--config", required=True)
    p_tomo.add_argument("--threshold-fraction", type=threshold_fraction,
                        default=0.01, dest="threshold_fraction")
    p_tomo.add_argument("--out", default=None)
    p_tomo.set_defaults(func=cmd_tomo)

    p_check = sub.add_parser("centroid-check",
                             help="closed-form centroids vs quadrature")
    p_check.add_argument("--grid", default=None)
    p_check.set_defaults(func=cmd_centroid_check)

    p_path = sub.add_parser("path", help="list preparation-path states as CSV")
    p_path.add_argument("kind", choices=polarization.PATHS)
    p_path.add_argument("--steps", type=int, required=True)
    p_path.add_argument("--out", default=None)
    p_path.set_defaults(func=cmd_path)
    return parser


def _truncation_shown(filters) -> list:
    """The warning filters with truncation shown wherever one would raise
    it, as under -W error, so every exit code stays a documented one; an
    ignore filter still silences it."""
    truncation = probefield.TruncationWarning
    shown = []
    for action, message, category, module, lineno in filters:
        if action == "error" and issubclass(truncation, category):
            shown.append(("default", message, truncation, module, lineno))
        shown.append((action, message, category, module, lineno))
    return shown


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.filters[:] = _truncation_shown(warnings.filters)
        try:
            return args.func(args)
        except ConfigError as bad:
            print(f"config error: {bad}", file=sys.stderr)
            return EXIT_CONFIG
        except estimation.EstimationError as bad:
            print(f"estimation failed: {bad}", file=sys.stderr)
            return EXIT_ESTIMATION
        except (imaging.ImageFormatError, OSError) as bad:
            print(f"error: {bad}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
