"""Audio feature extraction for environment recognition.

One 5-second microphone window becomes a fixed-length feature vector. The
heavy lifting is a mel-frequency cepstral-coefficient pipeline: short
overlapping frames, Hamming window, power spectrum, triangular mel
filterbank, log energies, orthonormal DCT-II, then a mean over frames so the
whole window collapses to one coefficient vector. Four feature recipes (A1 to
A4) trade that spectral detail against plain amplitude statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import RAW_STAT_NAMES, SampleSeries, fft_radix2, raw_stats, stats_values

# Recipe -> the raw-sample statistics it keeps, in column order. A1 also puts
# the window-mean cepstral coefficients in front of them.
AUDIO_RECIPES = {
    "A1": RAW_STAT_NAMES,
    "A2": RAW_STAT_NAMES,
    "A3": ("std", "mean", "variance", "median"),
    "A4": ("std", "mean"),
}
AUDIO_VARIANTS = tuple(AUDIO_RECIPES)


@dataclass(frozen=True)
class MfccConfig:
    """Frame, filterbank and DCT settings for the cepstral pipeline.

    Defaults describe 8 kHz audio cut into 25 ms frames every 10 ms.
    """

    sample_rate_hz: float = 8000.0
    frame_length: int = 200
    hop: int = 80
    fft_size: int = 256
    filter_count: int = 26
    coefficient_count: int = 26
    log_floor: float = 1e-10
    mel_low_hz: float = 0.0
    mel_high_hz: float | None = None

    def __post_init__(self):
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 1 <= self.coefficient_count <= self.filter_count:
            raise ValueError(
                f"coefficient_count must be in [1, {self.filter_count}], got {self.coefficient_count}"
            )
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        if not 2 <= self.frame_length <= self.fft_size:
            raise ValueError(
                f"frame_length must be in [2, fft_size={self.fft_size}], got {self.frame_length}"
            )
        if self.log_floor <= 0:
            raise ValueError(f"log_floor must be positive, got {self.log_floor}")

    @property
    def mel_high_resolved_hz(self) -> float:
        return self.sample_rate_hz / 2.0 if self.mel_high_hz is None else self.mel_high_hz


def hz_to_mel(hz):
    """Perceptual mel scale: mel = 2595 * log10(1 + hz/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def frame_signal(values: np.ndarray, frame_length: int, hop: int) -> np.ndarray:
    """Slice a window into overlapping frames, rows of shape (n, frame_length).

    Frames start at 0, hop, 2*hop, ...; trailing samples that do not fill a
    whole frame are dropped. A window shorter than one frame is an error.
    """
    x = np.asarray(values, dtype=np.float64)
    if frame_length < 1 or hop < 1:
        raise ValueError("frame_length and hop must be positive")
    if x.size < frame_length:
        raise ValueError(f"window of {x.size} samples is shorter than one {frame_length}-sample frame")
    num_frames = 1 + (x.size - frame_length) // hop
    starts = np.arange(num_frames) * hop
    return x[starts[:, None] + np.arange(frame_length)]


def hamming_window(length: int) -> np.ndarray:
    """w[n] = 0.54 - 0.46*cos(2*pi*n/(length-1))."""
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def mel_filterbank(config: MfccConfig) -> np.ndarray:
    """Triangular filters on the mel scale, shape (filter_count, fft_size//2 + 1).

    Filter centers sit at equal mel spacing between the low and high edges;
    each triangle rises from the previous center bin to 1.0 at its own center
    bin and falls to zero at the next. Center frequencies snap to FFT bins via
    floor((fft_size + 1) * hz / sample_rate).
    """
    high = config.mel_high_resolved_hz
    if not config.mel_low_hz < high <= config.sample_rate_hz / 2.0:
        raise ValueError(
            f"need mel_low < mel_high <= rate/2, got low={config.mel_low_hz}, high={high}"
        )
    mel_points = np.linspace(hz_to_mel(config.mel_low_hz), hz_to_mel(high), config.filter_count + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((config.fft_size + 1) * hz_points / config.sample_rate_hz).astype(int)
    if np.any(np.diff(bins[1:-1]) == 0):
        raise ValueError(
            f"{config.filter_count} filters collide on {config.fft_size}-point FFT bins; "
            "use fewer filters or a larger fft_size"
        )
    num_bins = config.fft_size // 2 + 1
    fbank = np.zeros((config.filter_count, num_bins))
    for m in range(config.filter_count):
        left, center, right = bins[m], bins[m + 1], bins[m + 2]
        for k in range(left, center):
            fbank[m, k] = (k - left) / (center - left)
        for k in range(center, right):
            fbank[m, k] = (right - k) / (right - center)
        if center < num_bins:
            fbank[m, center] = 1.0
    return fbank


def _dct_matrix(coefficient_count: int, input_count: int) -> np.ndarray:
    """Orthonormal DCT-II rows: C[j,k] = s_j * cos(pi*j*(2k+1)/(2N))."""
    j = np.arange(coefficient_count)[:, None]
    k = np.arange(input_count)[None, :]
    mat = np.cos(np.pi * j * (2 * k + 1) / (2 * input_count))
    mat[0] *= np.sqrt(1.0 / input_count)
    mat[1:] *= np.sqrt(2.0 / input_count)
    return mat


def mfcc_frames(series: SampleSeries, config: MfccConfig | None = None) -> np.ndarray:
    """Cepstral coefficients per frame, shape (num_frames, coefficient_count)."""
    if config is None:
        config = MfccConfig(sample_rate_hz=series.sample_rate_hz)
    if series.sample_rate_hz != config.sample_rate_hz:
        raise ValueError(
            f"series rate {series.sample_rate_hz} != config rate {config.sample_rate_hz}"
        )
    frames = frame_signal(series.values, config.frame_length, config.hop)
    frames = frames * hamming_window(config.frame_length)
    padded = np.zeros((frames.shape[0], config.fft_size))
    padded[:, : frames.shape[1]] = frames
    spectra = fft_radix2(padded)[:, : config.fft_size // 2 + 1]
    power = (spectra.real**2 + spectra.imag**2) / config.fft_size
    energies = power @ mel_filterbank(config).T
    log_e = np.log(np.maximum(energies, config.log_floor))
    dct = _dct_matrix(config.coefficient_count, config.filter_count)
    coeffs = np.empty((log_e.shape[0], config.coefficient_count))
    # The zeroth coefficient is the scaled total; the rest are computed on the
    # mean-removed energies so a perfectly flat log-energy row lands on 0.0
    # exactly instead of accumulating rounding noise.
    coeffs[:, 0] = log_e.sum(axis=1) * dct[0, 0]
    centered = log_e - log_e.mean(axis=1, keepdims=True)
    coeffs[:, 1:] = centered @ dct[1:].T
    return coeffs


def mfcc(series: SampleSeries, config: MfccConfig | None = None) -> np.ndarray:
    """Window-level coefficients: the mean of ``mfcc_frames`` over frames."""
    return mfcc_frames(series, config).mean(axis=0)


def audio_feature_vector(series: SampleSeries, variant: str = "A1",
                         config: MfccConfig | None = None) -> np.ndarray:
    """Feature vector for one microphone window under one recipe: the
    raw-sample statistics ``AUDIO_RECIPES`` names, after the window-mean
    cepstral coefficients for A1 (26 + 6 = 32 values by default)."""
    stats = dict(zip(RAW_STAT_NAMES, stats_values(raw_stats(series))))
    values = [stats[name] for name in _recipe(variant)]
    if variant == "A1":
        return np.concatenate([mfcc(series, config), values])
    return np.asarray(values)


def audio_feature_names(variant: str = "A1", config: MfccConfig | None = None) -> list[str]:
    """Column names matching ``audio_feature_vector`` element for element."""
    names = list(_recipe(variant))
    if variant == "A1":
        count = (config or MfccConfig()).coefficient_count
        names = [f"mfcc_{i:02d}" for i in range(count)] + names
    return names


def _recipe(variant):
    if variant not in AUDIO_RECIPES:
        raise ValueError(f"unknown audio variant {variant!r}, expected one of {AUDIO_VARIANTS}")
    return AUDIO_RECIPES[variant]
