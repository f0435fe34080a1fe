"""Windowed raw-signal primitives.

Everything here operates on one 5-second sensor window at a time: a radix-2
FFT, the power spectrum, a single-pole low-pass smoother, the Euclidean
magnitude of a 3-axis series, and the six summary statistics that every
feature recipe reuses. All functions are pure and safe to call from any
number of threads.
"""

from __future__ import annotations

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


@dataclass
class Spectrum:
    """Complex DFT bins of one window; length is always a power of two."""

    bins: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim != 1 or not _is_power_of_two(self.bins.size):
            raise ValueError(f"spectrum length must be a power of two, got {self.bins.shape}")
        self.sample_rate_hz = float(self.sample_rate_hz)
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def size(self) -> int:
        return self.bins.size


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


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (and >= 2)."""
    size = 2
    while size < n:
        size *= 2
    return size


def _bit_reversal_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def fft_radix2(frames: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT along the last axis.

    ``frames`` may be any real or complex array whose last dimension is a
    power of two; the transform is applied independently to each row, so a
    whole window of MFCC frames goes through in one call.
    """
    a = np.asarray(frames, dtype=np.complex128)
    n = a.shape[-1]
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"FFT size must be a power of two >= 2, got {n}")
    a = a[..., _bit_reversal_permutation(n)]
    m = 2
    while m <= n:
        half = m // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / m)
        blocks = a.reshape(a.shape[:-1] + (n // m, m))
        top = blocks[..., :half]
        bottom = blocks[..., half:] * twiddle
        a = np.concatenate([top + bottom, top - bottom], axis=-1).reshape(a.shape)
        m *= 2
    return a


def fft(series: SampleSeries, size: int | None = None) -> Spectrum:
    """DFT of one window, zero-padded or truncated to ``size`` samples.

    ``size`` defaults to the next power of two at or above the series
    length. bins[k] = sum_n x[n] * exp(-2*pi*i*k*n/size).
    """
    if size is None:
        size = next_power_of_two(len(series))
    if not _is_power_of_two(size) or size < 2:
        raise ValueError(f"FFT size must be a power of two >= 2, got {size}")
    x = series.values
    if x.size >= size:
        padded = x[:size]
    else:
        padded = np.zeros(size, dtype=np.float64)
        padded[: x.size] = x
    return Spectrum(fft_radix2(padded), series.sample_rate_hz)


def magnitude_spectrum(spec: Spectrum) -> np.ndarray:
    """Power per non-negative frequency bin: |bins[k]|^2 / size,
    for k = 0 .. size/2 (length size/2 + 1)."""
    half = spec.size // 2 + 1
    b = spec.bins[:half]
    return (b.real * b.real + b.imag * b.imag) / spec.size


def low_pass(series: SampleSeries, alpha: float = DEFAULT_LOW_PASS_ALPHA) -> SampleSeries:
    """Single-pole exponential smoother: y[n] = alpha*x[n] + (1-alpha)*y[n-1].

    y[0] = x[0]. alpha must lie in (0, 1]; alpha = 1 is the identity.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    x = series.values
    y = np.empty_like(x)
    y[0] = x[0]
    if alpha == 1.0:
        y[:] = x
    else:
        decay = 1.0 - alpha
        acc = x[0]
        for n in range(1, x.size):
            acc = alpha * x[n] + decay * acc
            y[n] = acc
    return SampleSeries(y, series.sample_rate_hz)


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
