#!/usr/bin/env python3
"""vortexscope benchmark: drives the `vortexscope.cli.main` entry point
in-process, one readout at a time (closed loop, one client, one thread).

    python3 perfbench/run.py --workload sweep-ccd --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The seed makes the inputs (configs, angles, noise seeds);
the program only sees the generated files.  With `--trace 0` the last line
of standard output is a JSON object with the end-to-end metrics, with
`--trace 1` one with the per-layer metrics of a separate traced window.
`--smoke` shrinks every size for the self-test.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from hostspeed import NOMINAL_MS, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
SETUPS = 3  # set-ups per run; setup_s is their median

W0 = 1.0
TOMO_PLANES = [[0, 0, -1], [0, 0, 1], [0, 1, 0], [0, -1, 0]]


def import_program():
    """Import the package from this checkout's src/, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import vortexscope
        import vortexscope.cli
    except ImportError as missing:
        sys.exit(f"perfbench: cannot import vortexscope from {SRC}: {missing}")
    if Path(vortexscope.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: vortexscope was imported from "
                 f"{vortexscope.__file__}, not from {SRC}")
    return vortexscope


# ---------------------------------------------------------------------------
# One readout
# ---------------------------------------------------------------------------

@dataclass
class Readout:
    attempted: int            # states this readout should report
    failed: int               # error rows plus states lost to nonzero exits
    seconds: float            # wall time of its CLI calls
    sim_frames: int = 0
    sim_s: float = 0.0
    est_frames: int = 0
    est_s: float = 0.0
    fidelities: dict = field(default_factory=dict)  # input -> fidelity
    digest: tuple = None      # (input, digest of the outputs it produced)
    start: float = 0.0        # perf_counter bounds, set by the caller
    end: float = 0.0


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def flush_to_disk(paths) -> None:
    """fsync the files, so that their writeback lands in no timed call."""
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def read_estimates(path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


class Workload:
    """Inputs made from the seed, plus the CLI calls of one readout."""

    name = ""
    cycle = 1               # readouts before the inputs repeat
    fidelity_floor = None   # check on fidelity_mean, if any

    def __init__(self, cli, seed: int, smoke: bool, work: Path, tracer):
        self.cli = cli
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.work = work
        self.tracer = tracer
        self.host = None  # HostSpeed of the current phase

    def sample_host(self):
        """Time the host-speed kernel if it is due.  While tracing it runs
        in a bench span, so no layer is charged for it."""
        if self.host is None:
            return
        with (self.tracer.span(tracing.BENCH) if self.tracer
              else contextlib.nullcontext()):
            self.host.sample()

    def call(self, argv):
        """Run one CLI command in-process; returns (code, stdout, seconds).
        Kernel runs made inside the call are not counted in its seconds.
        Any exception is a failed call with code -1."""
        out = io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        self.sample_host()
        spent = self.host.spent if self.host else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), span:
                code = self.cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 2
        except Exception as bad:  # a crash is a failed readout, not a stop
            print(f"# readout error: {argv[0]}: {type(bad).__name__}: {bad}")
            code = -1
        seconds = time.perf_counter() - start
        if self.host is not None:
            seconds -= self.host.spent - spent
        self.sample_host()
        return code, out.getvalue(), seconds

    def sensor(self, pixels: int):
        return {"pixel_pitch_mm": 8.0 * W0 / pixels, "width": pixels,
                "height": pixels}

    def setup(self, index: int) -> Readout:
        raise NotImplementedError

    def readout(self, k: int) -> Readout:
        raise NotImplementedError

    def write_calibration(self) -> str:
        return write_json(self.work / "cal.json", {
            "origin_mm": [0.0, 0.0], "scale_mm": self.g,
            "orientation_rad": 0.0})

    def simulate(self, configs, out: Path):
        """simulate each (kind, config) into out/kind.  Returns the frames,
        every output file, the seconds taken and the number of failed
        calls."""
        frames, outputs, seconds, failed = [], [], 0.0, 0
        for kind, config in configs:
            code, _, took = self.call(["simulate", "--config", config,
                                       "--out", str(out / kind)])
            seconds += took
            failed += code != 0
            made = sorted((out / kind).glob("*.pgm"))
            frames += made
            outputs += made + [out / kind / "manifest.csv"]
        return frames, outputs, seconds, failed

    def estimate(self, cal, postselect, frames, out, threshold=None):
        argv = ["estimate", "--cal", cal, "--postselect", postselect,
                "--out", str(out)]
        if threshold is not None:
            argv += ["--threshold-fraction", repr(threshold)]
        code, _, seconds = self.call(argv + [str(f) for f in frames])
        rows = read_estimates(out) if code == 0 else []
        return code, seconds, rows


class SweepCCD(Workload):
    """simulate the equator and figure-eight sweeps on the 1024^2 CCD,
    noiseless, then one estimate over every frame."""

    name = "sweep-ccd"
    fidelity_floor = 0.999

    def __init__(self, *args):
        super().__init__(*args)
        self.g = 0.05
        angle = float(self.rng.uniform(-0.26, 0.26))
        self.postselect = [0.0, math.sin(angle), -math.cos(angle)]
        steps = (4, 6) if self.smoke else (36, 72)
        sensor = self.sensor(256) if self.smoke else "experiment-ccd"
        probe = {"w0_mm": W0, "g_mm": self.g, "l": 1}
        self.configs = []
        for kind, n in zip(("equator", "infinity"), steps):
            cfg = {"probe": probe, "sensor": sensor, "mode": "exact",
                   "states": {"kind": kind, "steps": n},
                   "postselections": [self.postselect], "noise": None}
            self.configs.append((kind, write_json(
                self.work / f"{kind}.json", cfg)))
        self.warm = write_json(self.work / "warm.json", {
            "probe": probe, "sensor": sensor, "mode": "exact",
            "states": {"kind": "explicit", "theta": 1.1, "phi": 5.4},
            "postselections": [self.postselect], "noise": None})
        self.cal = self.write_calibration()
        self.postselect_arg = ",".join(repr(c) for c in self.postselect)
        self.frames_per_readout = sum(steps)
        self.frame_size = 256 if self.smoke else 1024

    def setup(self, index):
        out = self.work / f"warm{index}"
        code, _, sim_s = self.call(["simulate", "--config", self.warm,
                                    "--out", str(out)])
        code2, est_s, rows = self.estimate(self.cal, self.postselect_arg,
                                           sorted(out.glob("*.pgm")),
                                           out / "estimates.csv")
        return Readout(attempted=1, failed=int(code != 0 or code2 != 0),
                       seconds=sim_s + est_s)

    def readout(self, k):
        out = self.work / "sweep"
        n = self.frames_per_readout
        frames, outputs, sim_s, failed_calls = self.simulate(self.configs, out)
        if failed_calls:
            return Readout(attempted=n, failed=n, seconds=sim_s)
        flush_to_disk(outputs)
        code, est_s, rows = self.estimate(self.cal, self.postselect_arg,
                                          frames, out / "estimates.csv")
        ok = [r for r in rows if not r["error"]]
        return Readout(
            attempted=n, failed=n - len(ok), seconds=sim_s + est_s,
            sim_frames=len(frames), sim_s=sim_s,
            est_frames=len(rows), est_s=est_s,
            fidelities={r["file"]: float(r["fidelity"]) for r in ok},
            digest=("sweep", sha256_files(outputs + [out / "estimates.csv"])))


class LiveNoisy(Workload):
    """One estimate call per 10^6-photon 512^2 frame, frames made by
    simulate during set-up."""

    name = "live-noisy"
    fidelity_floor = 0.99
    threshold = 0.1

    def __init__(self, *args):
        super().__init__(*args)
        self.g = 0.1
        steps = (4, 6) if self.smoke else (12, 24)
        sensor = self.sensor(128) if self.smoke else "fast"
        probe = {"w0_mm": W0, "g_mm": self.g, "l": 1}
        self.configs = []
        for kind, n in zip(("equator", "infinity"), steps):
            seed = int(self.rng.integers(0, 2 ** 31))
            cfg = {"probe": probe, "sensor": sensor, "mode": "exact",
                   "states": {"kind": kind, "steps": n},
                   "postselections": [[0, 0, -1]],
                   "noise": {"photon_budget": 1e6, "seed": seed}}
            self.configs.append((kind, write_json(
                self.work / f"{kind}.json", cfg)))
        self.cal = self.write_calibration()
        self.cycle = sum(steps)
        self.frame_size = 128 if self.smoke else 512
        self.frames = []

    def setup(self, index):
        frames, outputs, sim_s, failed = self.simulate(
            self.configs, self.work / f"frames{index}")
        if failed:
            return Readout(attempted=1, failed=1, seconds=sim_s)
        self.frames = frames
        warm = self.readout(0)
        return Readout(attempted=1, failed=warm.failed, seconds=sim_s,
                       sim_frames=len(frames), sim_s=sim_s,
                       digest=("frames", sha256_files(outputs)))

    def readout(self, k):
        frame = self.frames[k % len(self.frames)]
        out = self.work / "estimates.csv"
        code, seconds, rows = self.estimate(self.cal, "0,0,-1", [frame], out,
                                            threshold=self.threshold)
        ok = [r for r in rows if not r["error"]]
        key = f"{frame.parent.name}/{frame.name}"
        return Readout(
            attempted=1, failed=1 - len(ok), seconds=seconds,
            est_frames=1, est_s=seconds,
            fidelities={key: float(r["fidelity"]) for r in ok},
            digest=(key, sha256_files([out]) if code == 0 else None))


class TomoNoisy(Workload):
    """One four-plane tomo call per random interior Bloch vector."""

    name = "tomo-noisy"
    threshold = 0.1

    def __init__(self, *args):
        super().__init__(*args)
        self.g = 0.1
        self.cycle = 4 if self.smoke else 16
        sensor = self.sensor(128) if self.smoke else "fast"
        probe = {"w0_mm": W0, "g_mm": self.g, "l": 1}
        self.configs = []
        for k in range(self.cycle):
            direction = self.rng.normal(size=3)
            r = 0.9 * self.rng.uniform() ** (1 / 3) \
                * direction / np.linalg.norm(direction)
            cfg = {"probe": probe, "sensor": sensor,
                   "states": {"kind": "bloch", "x": r[0], "y": r[1],
                              "z": r[2]},
                   "postselections": TOMO_PLANES,
                   "noise": {"photon_budget": 1e6,
                             "seed": int(self.rng.integers(0, 2 ** 31))}}
            self.configs.append(write_json(self.work / f"tomo{k}.json", cfg))
        self.frame_size = 128 if self.smoke else 512

    def setup(self, index):
        warm = self.readout(index)
        return Readout(attempted=1, failed=warm.failed, seconds=warm.seconds)

    def readout(self, k):
        config = self.configs[k % self.cycle]
        code, stdout, seconds = self.call(
            ["tomo", "--config", config,
             "--threshold-fraction", repr(self.threshold)])
        frames = len(TOMO_PLANES)
        if code != 0:
            return Readout(attempted=1, failed=1, seconds=seconds)
        report = json.loads(stdout)
        return Readout(
            attempted=1, failed=0, seconds=seconds,
            sim_frames=frames, sim_s=seconds, est_frames=frames,
            est_s=seconds,
            fidelities={config: float(report["uhlmann_fidelity"])},
            digest=(config, hashlib.sha256(stdout.encode()).hexdigest()))


WORKLOADS = {w.name: w for w in (SweepCCD, LiveNoisy, TomoNoisy)}


def install_probes(workload, package):
    """Let the host-speed kernel run between the frames of a long CLI call:
    the imaging functions the CLI calls once per frame sample it first.
    Returns a function that restores them."""
    imaging = package.imaging
    originals = [(name, getattr(imaging, name))
                 for name in ("render", "write_image", "read_image")]

    def probed(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            workload.sample_host()
            return function(*args, **kwargs)
        return wrapper

    for name, function in originals:
        setattr(imaging, name, probed(function))

    def restore():
        for name, function in originals:
            setattr(imaging, name, function)
    return restore


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """Readouts (or set-ups) of one part of a run, with the host speed
    sampled between their CLI calls."""
    records: list
    host: HostSpeed

    def normalised(self, record: Readout, seconds: float) -> float:
        if self.host is None:
            return seconds
        return seconds * self.host.factor(record.start, record.end)

    def total(self, attr: str) -> float:
        return sum(self.normalised(r, getattr(r, attr)) for r in self.records)


def measure(workload, seconds: float, minimum: int, first: int = 0) -> Phase:
    """Readouts until the next one would end past the window, but at least
    `minimum` of them."""
    phase = Phase([], HostSpeed())
    workload.host = phase.host
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if workload.tracer:
            workload.tracer.readout = first + len(phase.records)
        record = workload.readout(first + len(phase.records))
        now = record.end = time.perf_counter()
        record.start = start
        phase.records.append(record)
        if len(phase.records) >= minimum and now + (now - start) > deadline:
            return phase


def set_up(workload) -> Phase:
    """SETUPS set-ups; each record's `seconds` is its whole wall time."""
    phase = Phase([], HostSpeed())
    workload.host = phase.host
    for index in range(SETUPS):
        start = time.perf_counter()
        record = workload.setup(index)
        record.start, record.end = start, time.perf_counter()
        record.seconds = record.end - start
        phase.records.append(record)
    return phase


def run_phases(workload, package, seconds):
    """Set-ups, then the measured window; with a tracer, half the time
    untraced and half traced.  Returns the set-up, untraced and traced
    phases."""
    tracer = workload.tracer
    unprobe = install_probes(workload, package)
    try:
        untrace = tracing.install(tracer, package) if tracer else None
        try:
            setup = set_up(workload)
        finally:
            if untrace:
                untrace()
        workload.tracer = None
        run = measure(workload, seconds / 2 if tracer else seconds,
                      minimum=workload.cycle + 1)
        traced = Phase([], None)
        if tracer:
            workload.tracer = tracer
            untrace = tracing.install(tracer, package)
            try:
                traced = measure(workload, seconds / 2, minimum=1,
                                 first=len(run.records))
            finally:
                untrace()
    finally:
        unprobe()
    return setup, run, traced


class Checks:
    """Named pass/fail results, printed with the report."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail):
        self.results.append((name, bool(ok), detail))

    def all_ok(self):
        return all(ok for _, ok, _ in self.results)


def fidelities(records) -> list:
    """One fidelity per distinct input."""
    first = {}
    for record in records:
        for key, value in record.fidelities.items():
            first.setdefault(key, value)
    return list(first.values())


def check(workload, setup: Phase, records) -> Checks:
    """The in-run correctness checks, over every readout of the run."""
    checks = Checks()
    failed_setups = sum(r.failed for r in setup.records)
    checks.add("setups_ok", failed_setups == 0,
               f"{failed_setups}/{SETUPS} set-ups failed")

    seen, repeats, mismatched = {}, 0, []
    for record in setup.records + records:
        if record.digest is None:
            continue
        key, digest = record.digest
        if key not in seen:
            seen[key] = digest
            continue
        repeats += 1
        if digest is None or digest != seen[key]:
            mismatched.append(str(key))
    checks.add("byte_identical_repeats", repeats > 0 and not mismatched,
               f"{repeats} same-seed repeats compared, {len(mismatched)} "
               f"differ {sorted(set(mismatched))[:3]}")

    if workload.fidelity_floor is not None:
        fids = fidelities(records)
        mean = float(np.mean(fids)) if fids else 0.0
        checks.add("fidelity_mean_floor", mean >= workload.fidelity_floor,
                   f"fidelity_mean {mean:.6f} >= {workload.fidelity_floor}")
    if isinstance(workload, TomoNoisy):
        failed = sum(r.failed for r in records)
        checks.add("tomo_exit_0", failed == 0,
                   f"{len(records) - failed}/{len(records)} tomo calls exited 0")
    return checks


def percentile(values, q, block=100) -> float:
    """Median, over consecutive blocks of at least `block` readouts, of each
    block's q-th percentile: one burst of the shared host moves one block,
    not the result.  Fewer than 2 * block readouts make a single block."""
    blocks = np.array_split(np.asarray(values), max(1, len(values) // block))
    return float(np.median([np.percentile(b, q) for b in blocks]))


def end_to_end(setup: Phase, run: Phase) -> dict:
    """End-to-end metrics as {name: (value, unit, samples)}; every time is
    normalised by the host speed of its phase."""
    records = run.records
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    seconds = run.total("seconds")
    sim = run if any(r.sim_frames for r in records) else setup
    sim_frames = sum(r.sim_frames for r in sim.records)
    sim_s = sim.total("sim_s")
    est_frames = sum(r.est_frames for r in records)
    est_s = run.total("est_s")
    latency = [1e3 * run.normalised(r, r.seconds) for r in records]
    setup_s = [setup.normalised(r, r.seconds) for r in setup.records]
    fids = fidelities(records)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "readouts_per_s": ((attempted - failed) / seconds, "1/s", attempted),
        "simulate_frames_per_s": (sim_frames / sim_s if sim_s else 0.0,
                                  "1/s", sim_frames),
        "estimate_frames_per_s": (est_frames / est_s if est_s else 0.0,
                                  "1/s", est_frames),
        "readout_ms_p50": (percentile(latency, 50), "ms", len(latency)),
        "readout_ms_p90": (percentile(latency, 90), "ms", len(latency)),
        "fidelity_mean": (float(np.mean(fids)) if fids else 0.0, "1",
                          len(fids)),
        "fidelity_min": (float(np.min(fids)) if fids else 0.0, "1",
                         len(fids)),
        "success_frac": ((attempted - failed) / attempted, "1", attempted),
        "peak_rss_mib": (rss, "MiB", 1),
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def environment(package) -> dict:
    import scipy
    llc = os.sysconf("SC_LEVEL3_CACHE_SIZE") \
        if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "llc_bytes": llc or None, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "vortexscope": getattr(package, "__version__", "unknown"),
            "src_lines": src_lines()}


def print_metrics(title, metrics, prefix="metric"):
    print(f"# {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{prefix} {name} = {value:.6g} {unit} (n={samples})")


def print_shares(title, shares):
    print(f"# {title}")
    for name, share in shares.items():
        if share > 0:
            print(f"share {name} {share:.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    package = import_program()
    env = environment(package)
    print("# env " + json.dumps(env))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](package.cli, args.seed,
                                            args.smoke, work, tracer)
        print(f"# workload {workload.name} seed={args.seed} "
              f"frame={workload.frame_size}x{workload.frame_size} "
              f"readout_inputs={workload.cycle} seconds={args.seconds:g} "
              f"trace={args.trace}")
        setup, run, traced = run_phases(workload, package, args.seconds)
        every = run.records + traced.records
        checks = check(workload, setup, every)
        attempted = sum(r.attempted for r in every)
        failed = sum(r.failed for r in every)
        metrics = end_to_end(setup, run)
        print(f"# host kernel median: set-up {setup.host.median_ms():.2f} ms, "
              f"window {run.host.median_ms():.2f} ms "
              f"(nominal {NOMINAL_MS:g} ms)")
        print_metrics("raw wall-clock values, not host-normalised",
                      end_to_end(Phase(setup.records, None),
                                 Phase(run.records, None)), prefix="raw")

        if tracer:
            untraced_rate = metrics["readouts_per_s"][0]
            traced_rate = end_to_end(setup, traced)["readouts_per_s"][0]
            output = tracing.layer_metrics(tracer, len(traced.records))
            n = len(traced.records)
            output["host.kernel_ms"] = (traced.host.median_ms(), "ms",
                                        len(traced.host.samples))
            output["trace.readouts"] = (n, "count", n)
            output["trace.readouts_per_s"] = (traced_rate, "1/s", n)
            output["trace.untraced_readouts_per_s"] = (
                untraced_rate, "1/s", len(run.records))
            output["trace.overhead_pct"] = (
                100.0 * (1.0 - traced_rate / untraced_rate), "%", n)
            print_shares("self-time share of a readout",
                         tracing.self_time_shares(tracer, readout=True))
            print_shares("self-time share of set-up",
                         tracing.self_time_shares(tracer, readout=False))
            TRACES.mkdir(exist_ok=True)
            spans_file = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            print(f"# spans written to {spans_file.relative_to(ROOT)}")
        else:
            output = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, ok, detail in checks.results:
        print(f"check {name} {'PASS' if ok else 'FAIL'}: {detail}")
    print(f"# failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} readouts)")
    print_metrics("per-layer metrics (traced window)" if tracer
                  else "end-to-end metrics", output)
    print(json.dumps({
        "correct": checks.all_ok(), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in output.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
