"""Output checks computed apart from the program.

Nothing here calls adlsense: the reference A1 vector is built on
``np.fft.rfft``, the expected recognition method restates the sensor rule,
and accuracies are scored against the synthetic ground truth the benchmark
wrote into the logs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

A1_TOLERANCE = 1e-6  # acceptance criterion 03's MFCC tolerance
SCORE_SUM_TOLERANCE = 1e-9
FLOORS = {"environment": 0.85, "activity": 0.85, "refinement": 1.0}
STANDING_LABELS = ("sleeping", "watching TV")
REFINED_LABEL = "standing"

# MFCC settings of the A1 recipe at 8 kHz: 25 ms frames every 10 ms,
# 256-point FFT, 26 mel filters, 26 coefficients.
FRAME, HOP, NFFT, FILTERS, COEFFS, LOG_FLOOR = 200, 80, 256, 26, 26, 1e-10


@dataclass(frozen=True)
class Truth:
    """What the benchmark wrote for one window."""

    label: str
    environment: str
    sensors: tuple  # motion sensors written, canonical order
    audio: bool


def reference_a1(samples: np.ndarray, rate_hz: float) -> np.ndarray:
    """26 window-mean mel-cepstral coefficients + six raw statistics."""
    x = np.asarray(samples, dtype=np.float64)
    starts = range(0, x.size - FRAME + 1, HOP)
    frames = np.stack([x[s:s + FRAME] for s in starts]) * np.hamming(FRAME)
    power = np.abs(np.fft.rfft(frames, n=NFFT, axis=1)) ** 2 / NFFT

    def mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    mels = np.linspace(0.0, mel(rate_hz / 2.0), FILTERS + 2)
    edges = np.floor((NFFT + 1) * 700.0 * (10.0 ** (mels / 2595.0) - 1.0) / rate_hz)
    k = np.arange(NFFT // 2 + 1, dtype=np.float64)
    bank = np.zeros((FILTERS, k.size))
    for m in range(FILTERS):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (k - lo) / (mid - lo) if mid > lo else np.zeros_like(k)
        down = (hi - k) / (hi - mid) if hi > mid else np.zeros_like(k)
        bank[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
        bank[m, int(mid)] = 1.0
    log_e = np.log(np.maximum(power @ bank.T, LOG_FLOOR))

    j = np.arange(COEFFS)[:, None]
    n = np.arange(FILTERS)[None, :]
    dct = np.cos(np.pi * j * (2 * n + 1) / (2 * FILTERS)) * math.sqrt(2.0 / FILTERS)
    dct[0] /= math.sqrt(2.0)
    cepstra = (log_e @ dct.T).mean(axis=0)
    var = float(np.var(x))
    stats = [math.sqrt(var), float(np.mean(x)), float(np.max(x)), float(np.min(x)), var,
             float(np.median(x))]
    return np.concatenate([cepstra, stats])


def a1_agrees(program: np.ndarray, reference: np.ndarray) -> bool:
    program = np.asarray(program, dtype=np.float64)
    return program.shape == reference.shape and \
        float(np.max(np.abs(program - reference))) < A1_TOLERANCE


def expected_method(truth: Truth) -> str:
    """The route the written sensors imply: ACC anchors motion, MAG rides on
    ACC, GYRO on ACC+MAG, and audio turns motion_* into fusion_*."""
    if not truth.sensors:
        return "audio_env"
    prefix = "fusion_" if truth.audio else "motion_"
    return prefix + "_".join(s.lower() for s in truth.sensors)


def _argmax(scores: dict):
    return max(scores, key=scores.get)


def window_problems(result: dict, truth: Truth) -> list:
    """Every way one result line disagrees with what the benchmark wrote."""
    problems = []
    if result.get("method") != expected_method(truth):
        problems.append(f"method {result.get('method')!r} != {expected_method(truth)!r}")
    scores = result.get("scores")
    if not isinstance(scores, dict):
        return problems + ["no score maps"]
    for stage, table in scores.items():
        if not table or abs(math.fsum(table.values()) - 1.0) > SCORE_SUM_TOLERANCE:
            problems.append(f"{stage} scores do not sum to 1")
    if truth.audio != ("environment" in scores):
        problems.append("environment scores present without audio or missing")
    elif truth.audio and result.get("environment") != _argmax(scores["environment"]):
        problems.append("environment is not the argmax of its scores")
    if bool(truth.sensors) != ("adl" in scores):
        problems.append("adl scores present without motion or missing")
        return problems
    if not truth.sensors:
        if result.get("adl") is not None:
            problems.append("adl label without motion")
        return problems
    stage1 = _argmax(scores["adl"])
    refine = stage1 == REFINED_LABEL and truth.audio
    if refine != ("standing" in scores):
        problems.append(f"standing scores {'missing' if refine else 'present'} "
                        f"after stage-1 {stage1!r} with audio={truth.audio}")
    final = _argmax(scores["standing"]) if "standing" in scores else stage1
    if result.get("adl") != final:
        problems.append(f"adl {result.get('adl')!r} is not the argmax {final!r}")
    return problems


def accuracies(results: dict, truths: dict) -> dict:
    """Shares of windows right per stage, over the windows each stage scores."""
    hits = {name: [0, 0] for name in FLOORS}

    def tally(name, ok):
        hits[name][0] += bool(ok)
        hits[name][1] += 1

    for wid, truth in truths.items():
        result = results.get(wid)
        if result is None:
            continue
        scores = result.get("scores", {})
        if truth.audio:
            tally("environment", result.get("environment") == truth.environment)
        if truth.sensors and "adl" in scores:
            stage1_truth = REFINED_LABEL if truth.label in STANDING_LABELS else truth.label
            tally("activity", _argmax(scores["adl"]) == stage1_truth)
            if truth.label in STANDING_LABELS and "standing" in scores:
                tally("refinement", result.get("adl") == truth.label)
    return {name: {"share": right / total, "windows": total}
            for name, (right, total) in hits.items() if total}


def floors_met(acc: dict, expect_refinement: bool) -> bool:
    if expect_refinement and "refinement" not in acc:
        return False
    return all(entry["share"] >= FLOORS[name] for name, entry in acc.items())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_matches(output_bytes: bytes, manifest: dict, output_name: str) -> bool:
    """The manifest names the output and records its sha256."""
    return manifest.get("outputs", {}).get(output_name) == sha256(output_bytes)


def corruptions_caught(results: dict, truths: dict, a1_pairs: list, artifact: tuple) -> dict:
    """Corrupt real outputs and confirm each check then fails.

    ``a1_pairs`` holds (program A1, reference A1) for the sampled windows;
    ``artifact`` is (file bytes, manifest, output name) of a written file.
    Returns check name -> True when the corruption was caught.
    """
    caught = {}
    wid = next(w for w in sorted(results) if not window_problems(results[w], truths[w]))
    flipped = dict(results[wid])
    field = "adl" if flipped.get("adl") is not None else "environment"
    stage = "adl" if field == "adl" else "environment"
    others = [label for label in results[wid]["scores"][stage] if label != flipped[field]]
    flipped[field] = others[0]
    caught["label_flipped"] = bool(window_problems(flipped, truths[wid]))

    swapped = dict(results[wid])
    method = swapped["method"]
    swapped["method"] = method.replace("fusion_", "motion_") if method.startswith("fusion_") \
        else "fusion_" + method.split("_", 1)[-1]
    caught["method_swapped"] = bool(window_problems(swapped, truths[wid]))

    if a1_pairs:
        program, reference = a1_pairs[0]
        moved = np.array(program, dtype=np.float64)
        moved[1] += 1e-3
        caught["a1_moved"] = not a1_agrees(moved, reference)

    data, manifest, name = artifact
    corrupted = bytearray(data)
    corrupted[len(corrupted) // 2] ^= 0x01
    caught["byte_changed"] = not manifest_matches(bytes(corrupted), manifest, name)
    return caught
