"""Byte identity of every CLI artifact against committed sha256 digests.

One seeded chain runs every command that writes a file, from a temporary
directory with relative paths so that manifests embed no temp paths. The
sha256 of each file it leaves behind, manifests included, must equal the
digest in ``golden.json``. So must the sha256 of the raw bytes of every
array that ``parse_sensor_log`` reads from the chain's logs, and of the A1
vector of each audio window and the F1 vector of each motion window, so
that a change to the parser or a feature layer shows in its own layer. A change that moves output bits
regenerates the file with ``python tests/test_golden.py`` and says which
digests moved and why.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from adlsense import datasets
from adlsense.audio import audio_feature_vector
from adlsense.cli import main
from adlsense.datasets import parse_sensor_log
from adlsense.motion import motion_feature_vector

GOLDEN_PATH = Path(__file__).with_name("golden.json")

INPUTS = {
    "env.ini": """\
[corpus]
kind = ENVIRONMENT
windows_per_label = 3
labels = bedroom, watching TV, cave

[label:cave]
tilt = -1.5
amplitude = 0.3
bands = 200:80:2.5, 1800:300:1.2
""",
    "adl.ini": """\
[corpus]
kind = ADL
windows_per_label = 3
labels = running, walking, standing, crawling

[label:crawling]
frequency_hz = 0.7
amplitude = 0.9
noise_std = 0.3
environment = kitchen
""",
    "standing.ini": """\
[corpus]
kind = ADL
windows_per_label = 3
labels = sleeping, watching TV
with_audio = true
""",
    "grid.ini": """\
[grid]
presets = mlp
variants = A2, F3
normalizations = minmax, zscore
iterations = 300
test_fraction = 0.5
env = oracle
""",
    "pipeline.ini": """\
[pipeline]
env_variant = A1
motion_variant = F2
env_iterations = 3000
adl_iterations = 3000
standing_iterations = 2000
learning_rate = 0.02
min_train_accuracy = 0
refine_label = standing
low_pass_alpha = 0.3
""",
}

COMMANDS = [
    ["synth", "--config", "env.ini", "--out", "env", "--seed", "5"],
    ["synth", "--config", "adl.ini", "--out", "adl", "--seed", "6"],
    ["synth", "--config", "standing.ini", "--out", "standing", "--seed", "7"],
    ["extract", "env", "--variant", "A1", "--out", "env-a1.csv"],
    ["extract", "adl", "--variant", "F1", "--oracle-env", "--out", "adl-f1.csv"],
    ["extract", "adl", "--variant", "F2", "--no-env", "--sensors", "ACC,MAG",
     "--out", "adl-f2.csv"],
    ["train", "env-a1.csv", "--preset", "feedforward", "--iterations", "2000",
     "--test-fraction", "0.3", "--out", "env.model.json", "--seed", "3"],
    ["eval", "env-a1.csv", "--model", "env.model.json", "--out", "env-eval.json"],
    ["sweep", "standing", "--config", "grid.ini", "--out", "sweep.csv"],
    ["pipeline", "train", "--env-logs", "env", "--adl-logs", "adl",
     "--standing-logs", "standing", "--config", "pipeline.ini",
     "--out", "pipeline.json", "--seed", "11"],
    ["pipeline", "run", "standing", "adl", "--pipeline", "pipeline.json",
     "--out", "results.jsonl"],
]


def run_chain(root: Path) -> dict:
    """Run the chain in ``root`` and return {relative path: sha256}."""
    for name, text in INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in COMMANDS:
            code = main(argv)
            assert code == 0, f"{' '.join(argv)} exited {code}"
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in INPUTS
    }


def parse_logs(root: Path) -> dict:
    """{log path relative to ``root``: its parsed bundles} for every log."""
    return {path.relative_to(root).as_posix(): parse_sensor_log(path)
            for path in sorted(root.rglob("*.log"))}


def parsed_digests(logs: dict) -> dict:
    """{"<log> <window id> <array>": sha256 of its raw bytes} for every
    array parsed from ``logs``."""
    digests = {}
    for log, bundles in logs.items():
        for bundle in bundles:
            arrays = {"audio": bundle.audio.values} if bundle.audio is not None else {}
            for sensor, tri in (bundle.motion or {}).items():
                arrays.update({f"{sensor}.{axis}": getattr(tri, axis).values for axis in "xyz"})
            for name, values in arrays.items():
                digests[f"{log} {bundle.id} {name}"] = hashlib.sha256(values.tobytes()).hexdigest()
    return digests


def feature_digests(logs: dict) -> dict:
    """{"<log> <window id> A1|F1": sha256 of the vector's raw bytes}: A1 of
    each audio window, F1 over all sensors of each motion window."""
    digests = {}
    for log, bundles in logs.items():
        for bundle in bundles:
            if bundle.audio is not None:
                vector, variant = audio_feature_vector(bundle.audio, "A1"), "A1"
            else:
                vector, variant = motion_feature_vector(bundle.motion, "F1"), "F1"
            digests[f"{log} {bundle.id} {variant}"] = hashlib.sha256(vector.tobytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """(root, parsed logs, artifact digests) of one run of the chain."""
    root = tmp_path_factory.mktemp("chain")
    digests = run_chain(root)
    return root, parse_logs(root), digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def assert_digests_match(digests, expected, numpy_version):
    versions = f"golden.json was written with numpy {numpy_version}; this is numpy {np.__version__}"
    assert sorted(digests) == sorted(expected), versions
    moved = [name for name in digests if digests[name] != expected[name]]
    assert not moved, f"digests moved for {moved}; {versions}"


def test_every_artifact_matches_its_golden_digest(chain, golden):
    assert_digests_match(chain[2], golden["sha256"], golden["numpy"])


def test_every_parsed_array_matches_its_golden_digest(chain, golden):
    assert_digests_match(parsed_digests(chain[1]), golden["parsed_sha256"], golden["numpy"])


def test_parsed_arrays_keep_their_digests_across_block_edges(chain, golden, monkeypatch):
    # An odd block size puts block edges at other places in every log.
    monkeypatch.setattr(datasets, "BLOCK_CHARS", 4093)
    logs = parse_logs(chain[0])
    assert_digests_match(parsed_digests(logs), golden["parsed_sha256"], golden["numpy"])


def test_every_feature_vector_matches_its_golden_digest(chain, golden):
    assert_digests_match(feature_digests(chain[1]), golden["feature_sha256"], golden["numpy"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = run_chain(Path(scratch))
        logs = parse_logs(Path(scratch))
    parsed, features = parsed_digests(logs), feature_digests(logs)
    doc = {"numpy": np.__version__, "sha256": digests, "parsed_sha256": parsed,
           "feature_sha256": features}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} artifact, {len(parsed)} parsed-array and {len(features)} "
          f"feature-vector digests to {GOLDEN_PATH}", file=sys.stderr)
