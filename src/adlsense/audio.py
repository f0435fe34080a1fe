"""Audio feature extraction for environment recognition.

One 5-second microphone window becomes a fixed-length feature vector. The
heavy lifting is a mel-frequency cepstral-coefficient pipeline: short
overlapping frames, Hamming window, power spectrum, triangular mel
filterbank, log energies, orthonormal DCT-II, then a mean over frames so the
whole window collapses to one coefficient vector. Four feature recipes (A1 to
A4) trade that spectral detail against plain amplitude statistics.
"""

from __future__ import annotations

import functools

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

# A1's cepstral settings: 25 ms frames every 10 ms at 8 kHz, a 256-point FFT,
# 26 mel filters over [0, rate/2] and all 26 DCT coefficients.
FRAME_LENGTH = 200
HOP = 80
FFT_SIZE = 256
FILTER_COUNT = 26
COEFFICIENT_COUNT = 26
LOG_FLOOR = 1e-10


def hz_to_mel(hz):
    """Perceptual mel scale: mel = 2595 * log10(1 + hz/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def frame_signal(values: np.ndarray, frame_length: int, hop: int) -> np.ndarray:
    """Slice a window into overlapping frames, rows of shape (n, frame_length).

    Frames start at 0, hop, 2*hop, ...; trailing samples that do not fill a
    whole frame are dropped. A window shorter than one frame is an error.
    The frames are a read-only strided view of ``values``, not a copy.
    """
    x = np.asarray(values, dtype=np.float64)
    if frame_length < 1 or hop < 1:
        raise ValueError("frame_length and hop must be positive")
    if x.size < frame_length:
        raise ValueError(f"window of {x.size} samples is shorter than one {frame_length}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop]


def hamming_window(length: int) -> np.ndarray:
    """w[n] = 0.54 - 0.46*cos(2*pi*n/(length-1))."""
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def mel_filterbank(sample_rate_hz: float) -> np.ndarray:
    """Triangular filters on the mel scale, shape (FILTER_COUNT, FFT_SIZE//2 + 1).

    Filter centers sit at equal mel spacing between 0 Hz and rate/2; each
    triangle rises from the previous center bin to 1.0 at its own center bin
    and falls to zero at the next. Center frequencies snap to FFT bins via
    floor((FFT_SIZE + 1) * hz / sample_rate).
    """
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate_hz / 2.0), FILTER_COUNT + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((FFT_SIZE + 1) * hz_points / sample_rate_hz).astype(int)
    if np.any(np.diff(bins[1:-1]) == 0):
        raise ValueError(
            f"{FILTER_COUNT} mel filters collide on {FFT_SIZE}-point FFT bins "
            f"at {sample_rate_hz:g} Hz; A1 needs a lower sample rate"
        )
    num_bins = FFT_SIZE // 2 + 1
    fbank = np.zeros((FILTER_COUNT, num_bins))
    for m in range(FILTER_COUNT):
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


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# A1's fixed tables, built once: the filterbank per sample rate, on first use.
_HAMMING = _read_only(hamming_window(FRAME_LENGTH))
_DCT = _read_only(_dct_matrix(COEFFICIENT_COUNT, FILTER_COUNT))


@functools.lru_cache(maxsize=8)
def _cached_filterbank(sample_rate_hz: float) -> np.ndarray:
    return _read_only(mel_filterbank(sample_rate_hz))


def mfcc_frames(series: SampleSeries) -> np.ndarray:
    """Cepstral coefficients per frame, shape (num_frames, COEFFICIENT_COUNT)."""
    frames = frame_signal(series.values, FRAME_LENGTH, HOP)
    padded = np.zeros((frames.shape[0], FFT_SIZE))
    np.multiply(frames, _HAMMING, out=padded[:, :FRAME_LENGTH])
    spectra = fft_radix2(padded)[:, : FFT_SIZE // 2 + 1]
    power = (spectra.real**2 + spectra.imag**2) / FFT_SIZE
    energies = power @ _cached_filterbank(series.sample_rate_hz).T
    log_e = np.log(np.maximum(energies, LOG_FLOOR))
    coeffs = np.empty((log_e.shape[0], COEFFICIENT_COUNT))
    # The zeroth coefficient is the scaled total; the rest are computed on the
    # mean-removed energies so a perfectly flat log-energy row lands on 0.0
    # exactly instead of accumulating rounding noise.
    coeffs[:, 0] = log_e.sum(axis=1) * _DCT[0, 0]
    centered = log_e - log_e.mean(axis=1, keepdims=True)
    coeffs[:, 1:] = centered @ _DCT[1:].T
    return coeffs


def mfcc(series: SampleSeries) -> np.ndarray:
    """Window-level coefficients: the mean of ``mfcc_frames`` over frames."""
    return mfcc_frames(series).mean(axis=0)


def audio_feature_vector(series: SampleSeries, variant: str = "A1") -> np.ndarray:
    """Feature vector for one microphone window under one recipe: the
    raw-sample statistics ``AUDIO_RECIPES`` names, after the window-mean
    cepstral coefficients for A1 (26 + 6 = 32 values)."""
    stats = dict(zip(RAW_STAT_NAMES, stats_values(raw_stats(series))))
    values = [stats[name] for name in _recipe(variant)]
    if variant == "A1":
        return np.concatenate([mfcc(series), values])
    return np.asarray(values)


def audio_feature_names(variant: str = "A1") -> list[str]:
    """Column names matching ``audio_feature_vector`` element for element."""
    names = list(_recipe(variant))
    if variant == "A1":
        names = [f"mfcc_{i:02d}" for i in range(COEFFICIENT_COUNT)] + names
    return names


def _recipe(variant):
    if variant not in AUDIO_RECIPES:
        raise ValueError(f"unknown audio variant {variant!r}, expected one of {AUDIO_VARIANTS}")
    return AUDIO_RECIPES[variant]
