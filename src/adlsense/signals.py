"""Windowed raw-signal primitives.

Everything here operates on one 5-second sensor window at a time: a batched
radix-2 FFT, a single-pole low-pass smoother, the Euclidean magnitude of a
3-axis series, and the six summary statistics that every feature recipe
reuses. The FFT keeps its bit-reversal permutation and twiddles per size in
read-only arrays and allocates its working buffers per call, so all
functions are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_LOW_PASS_ALPHA = 0.1


def _as_float_array(values, name="values"):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


@dataclass
class SampleSeries:
    """One window of one channel: ordered samples at a fixed rate."""

    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.values = _as_float_array(self.values)
        self.sample_rate_hz = float(self.sample_rate_hz)
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    def __len__(self):
        return self.values.size

    @property
    def duration_s(self) -> float:
        return self.values.size / self.sample_rate_hz


@dataclass
class TriaxialSeries:
    """Three equal-length axis series sharing one sample rate."""

    x: SampleSeries
    y: SampleSeries
    z: SampleSeries

    def __post_init__(self):
        lengths = {len(self.x), len(self.y), len(self.z)}
        if len(lengths) != 1:
            raise ValueError(f"axis lengths differ: {len(self.x)}, {len(self.y)}, {len(self.z)}")
        rates = {self.x.sample_rate_hz, self.y.sample_rate_hz, self.z.sample_rate_hz}
        if len(rates) != 1:
            raise ValueError(f"axis sample rates differ: {sorted(rates)}")

    def __len__(self):
        return len(self.x)

    @property
    def sample_rate_hz(self) -> float:
        return self.x.sample_rate_hz

    @classmethod
    def from_arrays(cls, x, y, z, sample_rate_hz) -> "TriaxialSeries":
        return cls(
            SampleSeries(x, sample_rate_hz),
            SampleSeries(y, sample_rate_hz),
            SampleSeries(z, sample_rate_hz),
        )


@dataclass(frozen=True)
class RawStats:
    """The six raw-signal statistics (variance is population variance)."""

    mean: float
    std_dev: float
    variance: float
    median: float
    maximum: float
    minimum: float


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bit_reversal_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@functools.lru_cache(maxsize=None)
def _fft_plan(n: int) -> tuple:
    """The bit-reversal permutation of an ``n``-point FFT and the twiddle
    column of each of its stages, built once per size and read-only."""
    permutation = _bit_reversal_permutation(n)
    twiddles = []
    m = 2
    while m <= n:
        twiddles.append(np.exp(-2j * np.pi * np.arange(m // 2) / m)[:, None])
        m *= 2
    for table in (permutation, *twiddles):
        table.flags.writeable = False
    return permutation, tuple(twiddles)


def fft_radix2(frames: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT along the last axis.

    ``frames`` may be any real or complex array whose last dimension is a
    power of two; the transform is applied independently to each row, so a
    whole window of MFCC frames goes through in one call. The stages run on
    an ``(n, rows)`` layout, the FFT index outer and the rows contiguous
    inside, between two preallocated buffers: each butterfly is one
    multiply by its twiddle, then an add and a subtract, for every row at
    once. The permutation and twiddles are cached per size.
    """
    a = np.asarray(frames)
    if a.ndim == 0:
        raise ValueError("FFT input must have at least one dimension, got a scalar")
    n = a.shape[-1]
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"FFT size must be a power of two >= 2, got {n}")
    permutation, twiddles = _fft_plan(n)
    rows = a.reshape(-1, n)
    count = rows.shape[0]
    src = np.empty((n, count), dtype=np.complex128)
    src[...] = rows.T[permutation]
    dst = np.empty_like(src)
    product = np.empty((n // 2, count), dtype=np.complex128)
    for twiddle in twiddles:
        half = twiddle.shape[0]
        blocks = src.reshape(n // (2 * half), 2 * half, count)
        out = dst.reshape(blocks.shape)
        top = blocks[:, :half]
        bottom = product.reshape(n // (2 * half), half, count)
        np.multiply(blocks[:, half:], twiddle, out=bottom)
        np.add(top, bottom, out=out[:, :half])
        np.subtract(top, bottom, out=out[:, half:])
        src, dst = dst, src
    return np.ascontiguousarray(src.T).reshape(a.shape)


def low_pass(series: SampleSeries, alpha: float = DEFAULT_LOW_PASS_ALPHA) -> SampleSeries:
    """Single-pole exponential smoother: y[n] = alpha*x[n] + (1-alpha)*y[n-1].

    y[0] = x[0]. alpha must lie in (0, 1]; alpha = 1 is the identity. The
    recurrence runs over Python floats, which round each step as float64
    does.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    x = series.values
    if alpha == 1.0:
        return SampleSeries(x.copy(), series.sample_rate_hz)
    decay = 1.0 - alpha
    y = itertools.accumulate(x.tolist(), lambda acc, v: alpha * v + decay * acc)
    return SampleSeries(np.fromiter(y, np.float64, count=x.size), series.sample_rate_hz)


def magnitude(tri: TriaxialSeries) -> SampleSeries:
    """Per-sample Euclidean magnitude sqrt(x^2 + y^2 + z^2)."""
    m = np.sqrt(tri.x.values**2 + tri.y.values**2 + tri.z.values**2)
    return SampleSeries(m, tri.sample_rate_hz)


def raw_stats(series: SampleSeries) -> RawStats:
    """Mean, population std/variance, median, max and min of one window."""
    x = series.values
    minimum, maximum = float(np.min(x)), float(np.max(x))
    # Rounding can carry the mean of equal samples just past them.
    mean = min(max(float(np.mean(x)), minimum), maximum)
    variance = float(np.var(x))
    return RawStats(
        mean=mean,
        std_dev=float(np.sqrt(variance)),
        variance=variance,
        median=float(np.median(x)),
        maximum=maximum,
        minimum=minimum,
    )


def stats_values(stats: RawStats) -> list[float]:
    """The six statistics in recipe order: std, mean, max, min, variance, median."""
    return [stats.std_dev, stats.mean, stats.maximum, stats.minimum, stats.variance, stats.median]


RAW_STAT_NAMES = ("std", "mean", "max", "min", "variance", "median")
