"""Tests for the audio feature pipeline, checked against an independent
rfft/scipy-DCT reference implementation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import adlsense
from adlsense import audio
from adlsense.audio import (
    AUDIO_VARIANTS,
    audio_feature_names,
    audio_feature_vector,
    frame_signal,
    hamming_window,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    mfcc_frames,
)
from adlsense.signals import SampleSeries


# A1's settings, stated here apart from the implementation: 25 ms frames
# every 10 ms at 8 kHz, a 256-point FFT, 26 filters, 26 coefficients.
FRAME, HOP, NFFT, FILTERS, COEFFS, LOG_FLOOR = 200, 80, 256, 26, 26, 1e-10


def reference_log_mel_energies(values, rate_hz):
    """Independent framing/FFT/filterbank path used purely as a test oracle."""
    x = np.asarray(values, dtype=np.float64)
    frames = [x[s : s + FRAME] for s in range(0, x.size - FRAME + 1, HOP)]
    frames = np.array(frames) * np.hamming(FRAME)

    spectra = np.fft.rfft(frames, n=NFFT, axis=1)
    power = np.abs(spectra) ** 2 / NFFT

    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(rate_hz / 2.0), FILTERS + 2)
    bins = np.floor((NFFT + 1) * mel_to_hz(mel_pts) / rate_hz)
    k = np.arange(NFFT // 2 + 1, dtype=float)
    fbank = np.zeros((FILTERS, k.size))
    for m in range(FILTERS):
        left, center, right = bins[m], bins[m + 1], bins[m + 2]
        rising = (k - left) / (center - left) if center > left else np.zeros_like(k)
        falling = (right - k) / (right - center) if right > center else np.zeros_like(k)
        fbank[m] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
        fbank[m, int(center)] = 1.0

    return np.log(np.maximum(power @ fbank.T, LOG_FLOOR))


def reference_mfcc(values, rate_hz):
    """Second, independent cepstral pipeline used purely as a test oracle."""
    log_e = reference_log_mel_energies(values, rate_hz)
    coeffs = scipy.fft.dct(log_e, type=2, norm="ortho", axis=1)[:, :COEFFS]
    return coeffs.mean(axis=0)


class TestMelScale:
    def test_known_point(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))

    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0
        assert mel_to_hz(0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=24000.0))
    def test_round_trip(self, hz):
        assert mel_to_hz(hz_to_mel(hz)) == pytest.approx(hz, rel=1e-9, abs=1e-9)

    def test_monotonic(self):
        f = np.linspace(0, 4000, 200)
        assert np.all(np.diff(hz_to_mel(f)) > 0)


class TestFraming:
    def test_counts_for_standard_window(self):
        frames = frame_signal(np.zeros(40000), 200, 80)
        assert frames.shape == (498, 200)

    def test_contents_are_strided_slices(self):
        x = np.arange(20, dtype=float)
        frames = frame_signal(x, 8, 4)
        assert frames.shape == (4, 8)
        np.testing.assert_array_equal(frames[0], x[0:8])
        np.testing.assert_array_equal(frames[1], x[4:12])
        np.testing.assert_array_equal(frames[3], x[12:20])

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            frame_signal(np.array([1.0, 2.0]), 5, 2)

    def test_exact_fit_leaves_no_partial_frame(self):
        frames = frame_signal(np.zeros(200), 200, 80)
        assert frames.shape == (1, 200)
        frames = frame_signal(np.zeros(279), 200, 80)
        assert frames.shape == (1, 200)
        frames = frame_signal(np.zeros(280), 200, 80)
        assert frames.shape == (2, 200)


class TestHammingWindow:
    def test_endpoints(self):
        w = hamming_window(200)
        assert w[0] == pytest.approx(0.08)
        assert w[-1] == pytest.approx(0.08)

    def test_symmetry_and_peak(self):
        w = hamming_window(201)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)
        assert w[100] == pytest.approx(1.0)

    def test_matches_numpy(self):
        np.testing.assert_allclose(hamming_window(200), np.hamming(200), atol=1e-15)


class TestMelFilterbank:
    def test_shape_and_range(self):
        for rate in (1000.0, 4000.0, 8000.0, 16000.0, 22050.0):
            fbank = mel_filterbank(rate)
            assert fbank.shape == (26, 129)
            assert np.all(fbank >= 0.0)
            assert np.all(fbank <= 1.0)

    def test_every_filter_peaks_at_exactly_one(self):
        fbank = mel_filterbank(8000.0)
        assert np.all(fbank.max(axis=1) == 1.0)

    def test_dc_bin_carries_no_weight(self):
        fbank = mel_filterbank(8000.0)
        assert np.all(fbank[:, 0] == 0.0)

    def test_colliding_filters_name_the_rate(self):
        for rate in (44100.0, 48000.0):
            with pytest.raises(ValueError, match=f"{rate:g} Hz"):
                mel_filterbank(rate)


class TestMfcc:
    def test_zero_window_floor_coefficients(self):
        series = SampleSeries(np.zeros(40000), 8000.0)
        coeffs = mfcc(series)
        expected_c0 = 26.0 * np.log(1e-10) * np.sqrt(1.0 / 26.0)
        assert coeffs[0] == pytest.approx(expected_c0, rel=1e-12)
        assert np.all(coeffs[1:] == 0.0)

    def test_frame_grid_shape(self):
        series = SampleSeries(np.random.default_rng(0).normal(size=40000), 8000.0)
        assert mfcc_frames(series).shape == (498, 26)

    def test_matches_reference_on_noise(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=8000)
        ours = mfcc(SampleSeries(x, 8000.0))
        theirs = reference_mfcc(x, 8000.0)
        np.testing.assert_allclose(ours, theirs, rtol=1e-8, atol=1e-8)

    def test_matches_reference_on_tone_mixture(self):
        t = np.arange(16000) / 8000.0
        x = 0.5 * np.sin(2 * np.pi * 440 * t) + 0.2 * np.sin(2 * np.pi * 1800 * t + 0.3)
        ours = mfcc(SampleSeries(x, 8000.0))
        theirs = reference_mfcc(x, 8000.0)
        np.testing.assert_allclose(ours, theirs, rtol=1e-8, atol=1e-8)

    def test_amplitude_shifts_only_c0(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=8000)
        base = mfcc(SampleSeries(x, 8000.0))
        loud = mfcc(SampleSeries(10.0 * x, 8000.0))
        # scaling multiplies every filter energy by 100, adding a constant in
        # log space, which lands entirely on the zeroth coefficient
        assert loud[0] > base[0]
        np.testing.assert_allclose(loud[1:], base[1:], atol=1e-8)


class TestAudioFeatureVector:
    def test_variant_lengths(self):
        series = SampleSeries(np.random.default_rng(1).normal(size=4000), 8000.0)
        for variant, length in [("A1", 32), ("A2", 6), ("A3", 4), ("A4", 2)]:
            vec = audio_feature_vector(series, variant)
            assert vec.shape == (length,)
            assert len(audio_feature_names(variant)) == length

    def test_a4_example(self):
        series = SampleSeries([1.0, 2.0, 3.0, 4.0], 8000.0)
        np.testing.assert_allclose(audio_feature_vector(series, "A4"), [1.118034, 2.5], atol=1e-6)

    def test_a3_appends_variance_and_median(self):
        series = SampleSeries([1.0, 2.0, 3.0, 4.0], 8000.0)
        np.testing.assert_allclose(
            audio_feature_vector(series, "A3"), [1.118034, 2.5, 1.25, 2.5], atol=1e-6
        )

    def test_a2_stat_order(self):
        series = SampleSeries([1.0, 2.0, 3.0, 4.0], 8000.0)
        np.testing.assert_allclose(
            audio_feature_vector(series, "A2"), [1.118034, 2.5, 4.0, 1.0, 1.25, 2.5], atol=1e-6
        )

    def test_a1_prefix_is_window_mfcc(self):
        series = SampleSeries(np.random.default_rng(2).normal(size=8000), 8000.0)
        vec = audio_feature_vector(series, "A1")
        np.testing.assert_allclose(vec[:26], mfcc(series), atol=1e-12)

    def test_unknown_variant_raises(self):
        series = SampleSeries([1.0, 2.0], 8000.0)
        with pytest.raises(ValueError):
            audio_feature_vector(series, "A9")
        with pytest.raises(ValueError):
            audio_feature_names("A9")

    def test_variant_registry(self):
        assert AUDIO_VARIANTS == ("A1", "A2", "A3", "A4")

    def test_a1_name_boundaries(self):
        names = audio_feature_names("A1")
        assert names[0] == "mfcc_00"
        assert names[25] == "mfcc_25"
        assert names[-1] == "median"

    def test_nested_variants_share_values(self):
        series = SampleSeries(np.random.default_rng(3).normal(size=4000), 8000.0)
        a1 = dict(zip(audio_feature_names("A1"), audio_feature_vector(series, "A1")))
        for variant in ("A2", "A3", "A4"):
            sub = dict(zip(audio_feature_names(variant), audio_feature_vector(series, variant)))
            for name, value in sub.items():
                assert a1[name] == value


class TestDctRoundTrip:
    def test_coefficients_invert_to_log_energies(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=4000)
        coeffs = mfcc_frames(SampleSeries(x, 8000.0))
        recovered = scipy.fft.idct(coeffs, type=2, norm="ortho", axis=1)
        log_e = reference_log_mel_energies(x, 8000.0)
        np.testing.assert_allclose(recovered, log_e, atol=1e-9)


# A1 of one fixed window at the rate given in argv, as the hex of its bytes.
A1_SCRIPT = """
import sys
import numpy as np
from adlsense.audio import audio_feature_vector
from adlsense.signals import SampleSeries
x = np.random.default_rng(5).normal(size=4000)
print(audio_feature_vector(SampleSeries(x, float(sys.argv[1])), "A1").tobytes().hex())
"""


class TestCachedTables:
    def test_tables_are_read_only_and_the_builder_returns_a_fresh_array(self):
        cached = audio._cached_filterbank(8000.0)
        for table in (audio._HAMMING, audio._DCT, cached):
            assert not table.flags.writeable
        fbank = mel_filterbank(8000.0)
        assert fbank.flags.writeable and not np.shares_memory(fbank, cached)
        np.testing.assert_array_equal(fbank, cached)

    def test_a1_at_an_unsupported_rate_fails_on_every_call(self):
        series = SampleSeries(np.zeros(4000), 48000.0)
        for _ in range(3):
            with pytest.raises(ValueError, match="48000 Hz"):
                audio_feature_vector(series, "A1")

    def test_switching_rates_gives_the_bits_of_a_fresh_process(self):
        x = np.random.default_rng(5).normal(size=4000)
        ours = [audio_feature_vector(SampleSeries(x, rate), "A1").tobytes().hex()
                for rate in (8000.0, 16000.0, 8000.0)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(adlsense.__file__).parents[1]), env.get("PYTHONPATH", "")])
        fresh = {
            rate: subprocess.run([sys.executable, "-c", A1_SCRIPT, str(rate)], env=env,
                                 capture_output=True, text=True, check=True).stdout.strip()
            for rate in (8000.0, 16000.0)
        }
        assert ours == [fresh[8000.0], fresh[16000.0], fresh[8000.0]]
