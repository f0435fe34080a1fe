"""Motion feature extraction for activity recognition.

Each inertial sensor contributes one block of features computed from the
Euclidean magnitude of its low-pass-filtered axes: the five largest gaps
between consecutive peaks, four statistics of the peak amplitudes, and six
statistics of the magnitude signal itself. Five recipes (F1 to F5) keep
progressively less of that block. Multi-sensor vectors concatenate the
per-sensor blocks in the fixed order ACC, MAG, GYRO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .signals import (
    DEFAULT_LOW_PASS_ALPHA,
    RAW_STAT_NAMES,
    SampleSeries,
    TriaxialSeries,
    low_pass,
    magnitude,
    raw_stats,
    stats_values,
)

MOTION_SENSOR_ORDER = ("ACC", "MAG", "GYRO")
NUM_PEAK_DISTANCES = 5

_GAP_NAMES = tuple(f"gap_{i}" for i in range(1, NUM_PEAK_DISTANCES + 1))
_PEAK_NAMES = ("peak_avg", "peak_std", "peak_variance", "peak_median")

# Recipe -> the column suffixes of each sensor's block, in order.
MOTION_RECIPES = {
    "F1": _GAP_NAMES + _PEAK_NAMES + RAW_STAT_NAMES,
    "F2": _PEAK_NAMES + RAW_STAT_NAMES,
    "F3": RAW_STAT_NAMES,
    "F4": ("std", "mean", "variance", "median"),
    "F5": ("std", "mean"),
}
MOTION_VARIANTS = tuple(MOTION_RECIPES)


@dataclass(frozen=True)
class PeakSet:
    """Strict local maxima of one series: sample indices and their values."""

    indices: np.ndarray
    amplitudes: np.ndarray

    def __len__(self):
        return self.indices.size


def detect_peaks(series: SampleSeries) -> PeakSet:
    """Interior samples strictly greater than both neighbours.

    Endpoints never qualify, and the flat samples of a plateau never qualify,
    so a constant series has no peaks at all.
    """
    x = series.values
    if x.size < 3:
        return PeakSet(np.array([], dtype=np.intp), np.array([]))
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    idx = np.nonzero(interior)[0] + 1
    return PeakSet(idx, x[idx])


def top_peak_distances(peaks: PeakSet, count: int = NUM_PEAK_DISTANCES) -> np.ndarray:
    """The ``count`` largest gaps (in samples) between consecutive peaks,
    sorted descending and zero-padded when there are fewer gaps than that."""
    gaps = np.diff(peaks.indices).astype(np.float64)
    gaps = np.sort(gaps)[::-1][:count]
    out = np.zeros(count)
    out[: gaps.size] = gaps
    return out


def peak_stats(peaks: PeakSet) -> np.ndarray:
    """Average, std, variance and median of peak amplitudes (zeros if none)."""
    if len(peaks) == 0:
        return np.zeros(4)
    a = peaks.amplitudes
    variance = float(np.var(a))
    return np.array([float(np.mean(a)), float(np.sqrt(variance)), variance, float(np.median(a))])


def smooth_triaxial(tri: TriaxialSeries, alpha: float = DEFAULT_LOW_PASS_ALPHA) -> TriaxialSeries:
    """Low-pass each axis with the same smoothing factor."""
    return TriaxialSeries(low_pass(tri.x, alpha), low_pass(tri.y, alpha), low_pass(tri.z, alpha))


def sensor_feature_vector(tri: TriaxialSeries, variant: str = "F1",
                          alpha: float = DEFAULT_LOW_PASS_ALPHA) -> np.ndarray:
    """One sensor's feature block for one window.

    The axes are low-pass filtered and collapsed to the per-sample Euclidean
    magnitude. The block holds the columns ``MOTION_RECIPES`` names: the
    largest gaps between peaks (``gap_*``), peak-amplitude statistics
    (``peak_*``) and statistics of the magnitude signal itself.
    """
    suffixes = _recipe(variant)
    mag = magnitude(smooth_triaxial(tri, alpha))
    values = dict(zip(RAW_STAT_NAMES, stats_values(raw_stats(mag))))
    if _PEAK_NAMES[0] in suffixes:  # F1 and F2 only
        peaks = detect_peaks(mag)
        values.update(zip(_GAP_NAMES, top_peak_distances(peaks)))
        values.update(zip(_PEAK_NAMES, peak_stats(peaks)))
    return np.asarray([values[name] for name in suffixes])


def motion_feature_vector(sensors: Mapping[str, TriaxialSeries], variant: str = "F1",
                          env_one_hot=None,
                          alpha: float = DEFAULT_LOW_PASS_ALPHA) -> np.ndarray:
    """Concatenated per-sensor blocks in canonical sensor order.

    When ``env_one_hot`` is given (a 0/1 indicator over the environment
    labels), it is appended after the sensor blocks.
    """
    _check_sensor_names(sensors)
    blocks = [
        sensor_feature_vector(sensors[name], variant, alpha)
        for name in MOTION_SENSOR_ORDER
        if name in sensors
    ]
    if env_one_hot is not None:
        blocks.append(np.asarray(env_one_hot, dtype=np.float64))
    return np.concatenate(blocks)


def sensor_block_length(variant: str) -> int:
    """Number of features contributed by each sensor under a recipe."""
    return len(_recipe(variant))


def motion_feature_names(sensor_names, variant: str = "F1", env_labels=None) -> list[str]:
    """Column names matching ``motion_feature_vector`` element for element."""
    _check_sensor_names(sensor_names)
    suffixes = _recipe(variant)
    names = []
    for sensor in MOTION_SENSOR_ORDER:
        if sensor in sensor_names:
            names.extend(f"{sensor.lower()}_{suffix}" for suffix in suffixes)
    if env_labels is not None:
        names.extend(f"env_{_slug(label)}" for label in env_labels)
    return names


def _recipe(variant):
    if variant not in MOTION_RECIPES:
        raise ValueError(f"unknown motion variant {variant!r}, expected one of {MOTION_VARIANTS}")
    return MOTION_RECIPES[variant]


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label)


def _check_sensor_names(sensor_names):
    unknown = set(sensor_names) - set(MOTION_SENSOR_ORDER)
    if unknown:
        raise ValueError(f"unknown sensors {sorted(unknown)}, expected among {MOTION_SENSOR_ORDER}")
    if not set(sensor_names):
        raise ValueError("at least one sensor is required")
