"""Output-digest corpus: the command line runs in-process on a fixed set of
scenarios, and the SHA-256 of every file it leaves, and of each call's exit
code, stdout and stderr, must match the table in `output_digests.json`.

Outputs are byte-identical for the same config and seed on any number of
cores, so the corpus runs once on the default band pool and once on a
one-worker pool.  Noisy bytes depend on numpy's Poisson sampler, so the
table records the numpy version it was taken with.  A change that moves
output bytes on purpose prints a fresh table with

    PYTHONPATH=src python tests/test_output_digests.py > tests/output_digests.json

and names the moved files in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from vortexscope import cli, probefield

TABLE = Path(__file__).with_name("output_digests.json")
TOKEN = "<workdir>"
REGENERATE = ("PYTHONPATH=src python tests/test_output_digests.py "
              "> tests/output_digests.json")

PROBE = {"w0_mm": 1.0, "g_mm": 0.1, "l": 1}
TILTED = [0.0, 0.3, -0.954]
NOISE = {"photon_budget": 1e6, "seed": 5}
INPUTS = {
    "equator.json": {"probe": PROBE, "sensor": "fast",
                     "states": {"kind": "equator", "steps": 6},
                     "postselections": [TILTED]},
    # one post-selection twice: frame p of state i draws noise frame 2i + p
    "infinity.json": {"probe": PROBE, "sensor": "fast",
                      "states": {"kind": "infinity", "steps": 4},
                      "postselections": [[0, 0, -1], [0, 0, -1]],
                      "noise": NOISE},
    "approx.json": {"probe": PROBE, "sensor": "fast",
                    "states": {"kind": "equator", "steps": 3},
                    "mode": "approx"},
    "mixed.json": {"probe": PROBE, "sensor": "fast",
                   "states": {"kind": "bloch", "x": 0.3, "y": -0.2, "z": 0.4},
                   "postselections": [[0, 0, -1], [0, 0, 1], [0, 1, 0],
                                      [0, -1, 0]],
                   "noise": NOISE},
    "cal.json": {"origin_mm": [0.0, 0.0], "scale_mm": PROBE["g_mm"]},
}


def frames(directory, states, postselections=1):
    return [f"{directory}/img_{index:04d}_{p_index}.pgm"
            for index in range(states) for p_index in range(postselections)]


CALLS = {
    "simulate equator": ["simulate", "--config", "equator.json",
                         "--out", "equator"],
    "simulate infinity": ["simulate", "--config", "infinity.json",
                          "--out", "infinity"],
    "simulate approx": ["simulate", "--config", "approx.json",
                        "--out", "approx"],
    "estimate equator": ["estimate", "--cal", "cal.json", "--postselect",
                         ",".join(map(str, TILTED)), "--out", "equator.csv",
                         *frames("equator", 6)],
    "estimate infinity": ["estimate", "--cal", "cal.json", "--postselect",
                          "0,0,-1", "--threshold-fraction", "0.1",
                          "--out", "infinity.csv", *frames("infinity", 4, 2)],
    "estimate approx": ["estimate", "--cal", "cal.json", "--postselect",
                        "0,0,-1", "--out", "approx.csv", *frames("approx", 3)],
    "tomo": ["tomo", "--config", "mixed.json", "--out", "tomo.json"],
    "path": ["path", "infinity", "--steps", "8", "--out", "path.csv"],
    "path equator": ["path", "equator", "--steps", "8",
                     "--out", "path-equator.csv"],
    "centroid-check": ["centroid-check"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(workdir: Path) -> dict:
    """{name: digest} of every call's exit code, stdout and stderr and of
    every file under workdir after the calls, run from inside workdir; the
    workdir's own path reads as TOKEN."""
    for name, content in INPUTS.items():
        (workdir / name).write_text(json.dumps(content))
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in CALLS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            record = f"exit {code}\n-- stdout\n{out.getvalue()}" \
                     f"-- stderr\n{err.getvalue()}"
            digests[f"$ {name}"] = sha256(
                record.replace(str(workdir), TOKEN).encode())
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = sha256(
                path.read_bytes().replace(str(workdir).encode(),
                                          TOKEN.encode()))
    return digests


@pytest.mark.parametrize("workers", [None, 1],
                         ids=["default-pool", "one-worker"])
def test_outputs_match_the_digest_table(tmp_path, monkeypatch, workers):
    expected = json.loads(TABLE.read_text())
    with contextlib.ExitStack() as stack:
        if workers:
            pool = stack.enter_context(ThreadPoolExecutor(workers))
            monkeypatch.setattr(probefield, "_band_pool", lambda: pool)
        digests = run_corpus(tmp_path)
    moved = sorted(name for name in expected["digests"].keys() | digests.keys()
                   if expected["digests"].get(name) != digests.get(name))
    assert not moved, (
        f"output digests moved for {moved} (table taken with numpy "
        f"{expected['numpy']}, running numpy {np.__version__}); if they "
        f"moved on purpose, regenerate the table with\n    {REGENERATE}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump({"numpy": np.__version__,
                   "digests": run_corpus(Path(workdir))}, sys.stdout, indent=2)
    sys.stdout.write("\n")
