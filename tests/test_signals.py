"""Tests for windowed raw-signal primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_fft_radix2, reference_low_pass

from adlsense.signals import (
    RawStats,
    SampleSeries,
    TriaxialSeries,
    _fft_plan,
    fft_radix2,
    low_pass,
    magnitude,
    raw_stats,
    stats_values,
)


def naive_dft(x, size):
    """O(N^2) reference DFT: the definition, evaluated term by term."""
    padded = np.zeros(size, dtype=np.complex128)
    n = min(len(x), size)
    padded[:n] = x[:n]
    k = np.arange(size)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / size)
    return basis @ padded


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestSampleSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSeries([], 100.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SampleSeries([1.0, np.nan], 100.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SampleSeries([1.0], 0.0)

    def test_duration(self):
        s = SampleSeries(np.zeros(500), 100.0)
        assert s.duration_s == pytest.approx(5.0)


class TestTriaxialSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TriaxialSeries.from_arrays([1.0, 2.0], [1.0], [1.0, 2.0], 100.0)

    def test_rejects_rate_mismatch(self):
        with pytest.raises(ValueError):
            TriaxialSeries(
                SampleSeries([1.0], 100.0),
                SampleSeries([1.0], 100.0),
                SampleSeries([1.0], 50.0),
            )


class TestFft:
    def test_impulse_is_flat(self):
        bins = fft_radix2(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(bins, np.ones(4), atol=1e-12)

    def test_constant_concentrates_in_dc(self):
        bins = fft_radix2(np.full(8, 3.0))
        expected = np.zeros(8, dtype=np.complex128)
        expected[0] = 24.0
        np.testing.assert_allclose(bins, expected, atol=1e-12)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=64)
        np.testing.assert_allclose(fft_radix2(x), naive_dft(x, 64), atol=1e-9)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft_radix2(np.ones(6))

    def test_rejects_a_scalar(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            fft_radix2(np.float64(1))

    def test_batched_rows_transform_independently(self):
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(5, 32))
        batched = fft_radix2(frames)
        for i in range(5):
            np.testing.assert_allclose(batched[i], naive_dft(frames[i], 32), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=128))
    def test_matches_naive_dft_property(self, xs):
        size = 1 << (len(xs) - 1).bit_length()
        padded = np.zeros(size)
        padded[: len(xs)] = xs
        scale = max(1.0, float(np.max(np.abs(xs))))
        np.testing.assert_allclose(
            fft_radix2(padded), naive_dft(np.asarray(xs), size), atol=1e-7 * scale * size
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(finite_floats, min_size=16, max_size=16))
    def test_parseval(self, xs):
        x = np.asarray(xs)
        bins = fft_radix2(x)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(bins) ** 2)) / 16
        assert freq_energy == pytest.approx(time_energy, rel=1e-9, abs=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=32), rng.normal(size=32)
        fab = fft_radix2(2.0 * a - 3.0 * b)
        np.testing.assert_allclose(fab, 2.0 * fft_radix2(a) - 3.0 * fft_radix2(b), atol=1e-9)


class TestLowPass:
    def test_recurrence_example(self):
        out = low_pass(SampleSeries([0.0, 1.0, 1.0], 100.0), alpha=0.5)
        np.testing.assert_allclose(out.values, [0.0, 0.5, 0.75])

    def test_alpha_one_is_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        out = low_pass(SampleSeries(x, 100.0), alpha=1.0)
        np.testing.assert_allclose(out.values, x)

    def test_constant_is_fixed_point(self):
        out = low_pass(SampleSeries(np.full(20, 4.2), 100.0), alpha=0.1)
        np.testing.assert_allclose(out.values, np.full(20, 4.2))

    def test_rejects_alpha_outside_unit_interval(self):
        s = SampleSeries([1.0, 2.0], 100.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                low_pass(s, alpha=bad)

    def test_default_alpha_is_point_one(self):
        s = SampleSeries([0.0, 1.0], 100.0)
        assert low_pass(s).values[1] == pytest.approx(0.1)

    def test_attenuates_high_frequency_more_than_low(self):
        t = np.arange(500) / 100.0
        slow = np.sin(2 * np.pi * 0.5 * t)
        fast = np.sin(2 * np.pi * 20.0 * t)
        slow_out = low_pass(SampleSeries(slow, 100.0)).values
        fast_out = low_pass(SampleSeries(fast, 100.0)).values
        assert np.std(fast_out) < 0.25 * np.std(fast)
        assert np.std(slow_out) > 0.8 * np.std(slow)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(finite_floats, min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_output_stays_within_input_range(self, xs, alpha):
        out = low_pass(SampleSeries(xs, 100.0), alpha=alpha)
        pad = 1e-9 * (1.0 + float(np.max(np.abs(xs))))
        assert np.all(out.values >= min(xs) - pad)
        assert np.all(out.values <= max(xs) + pad)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_matches_scalar_recurrence(self, xs):
        alpha = 0.3
        out = low_pass(SampleSeries(xs, 100.0), alpha=alpha)
        acc = xs[0]
        expected = [acc]
        for v in xs[1:]:
            acc = alpha * v + (1 - alpha) * acc
            expected.append(acc)
        np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-12)


def signed_values(rng, shape, zero_rate):
    """Normal samples over many magnitudes, a ``zero_rate`` share of them
    replaced by +0.0 or -0.0."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-60, 60, size=shape)
    zeros = rng.random(size=shape) < zero_rate
    values[zeros] = np.copysign(0.0, rng.normal(size=shape))[zeros]
    return values


def bits(array):
    """The raw bits of a float64 or complex128 array, with its shape."""
    return np.ascontiguousarray(array).view(np.uint64)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        log2_n=st.integers(1, 10),
        leading=st.lists(st.integers(0, 3), max_size=2),
        complex_input=st.booleans(),
        zero_rate=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fft_gives_the_reference_bits(self, log2_n, leading, complex_input, zero_rate, seed):
        rng = np.random.default_rng(seed)
        shape = (*leading, 1 << log2_n)
        frames = signed_values(rng, shape, zero_rate)
        if complex_input:
            frames = frames + 1j * signed_values(rng, shape, zero_rate)
        ours, expected = fft_radix2(frames), reference_fft_radix2(frames)
        assert (ours.dtype, ours.shape) == (expected.dtype, expected.shape)
        assert np.array_equal(bits(ours), bits(expected))

    def test_fft_tables_are_read_only(self):
        fft_radix2(np.ones(256))
        permutation, twiddles = _fft_plan(256)
        assert len(twiddles) == 8
        for table in (permutation, *twiddles):
            assert not table.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 2000),
        alpha=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
        zero_rate=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_low_pass_gives_the_reference_bits(self, size, alpha, zero_rate, seed):
        series = SampleSeries(signed_values(np.random.default_rng(seed), size, zero_rate), 100.0)
        ours, expected = low_pass(series, alpha), reference_low_pass(series, alpha)
        assert ours.sample_rate_hz == expected.sample_rate_hz
        assert np.array_equal(bits(ours.values), bits(expected.values))


class TestMagnitude:
    def test_pythagorean_sample(self):
        tri = TriaxialSeries.from_arrays([3.0], [4.0], [0.0], 100.0)
        assert magnitude(tri).values[0] == pytest.approx(5.0)

    def test_gravity_only(self):
        tri = TriaxialSeries.from_arrays(np.zeros(4), np.zeros(4), np.full(4, 9.8), 100.0)
        np.testing.assert_allclose(magnitude(tri).values, np.full(4, 9.8))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(finite_floats, finite_floats, finite_floats), min_size=1, max_size=30))
    def test_invariant_under_axis_permutation_and_sign(self, samples):
        x, y, z = (np.array(c) for c in zip(*samples))
        base = magnitude(TriaxialSeries.from_arrays(x, y, z, 100.0)).values
        swapped = magnitude(TriaxialSeries.from_arrays(-z, x, -y, 100.0)).values
        np.testing.assert_allclose(swapped, base, rtol=1e-12, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_invariant_under_rotation(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 25))
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = rot @ pts
        base = magnitude(TriaxialSeries.from_arrays(*pts, 100.0)).values
        turned = magnitude(TriaxialSeries.from_arrays(*rotated, 100.0)).values
        np.testing.assert_allclose(turned, base, rtol=1e-9, atol=1e-12)


class TestRawStats:
    def test_known_window(self):
        stats = raw_stats(SampleSeries([1.0, 2.0, 3.0, 4.0], 100.0))
        assert stats.mean == pytest.approx(2.5)
        assert stats.variance == pytest.approx(1.25)
        assert stats.std_dev == pytest.approx(1.118033988749895)
        assert stats.median == pytest.approx(2.5)
        assert stats.maximum == 4.0
        assert stats.minimum == 1.0

    def test_constant_window(self):
        stats = raw_stats(SampleSeries(np.full(10, 7.0), 100.0))
        assert stats.variance == 0.0
        assert stats.std_dev == 0.0
        assert stats.mean == 7.0
        assert stats.median == 7.0

    def test_even_length_median_averages(self):
        stats = raw_stats(SampleSeries([1.0, 2.0, 10.0, 20.0], 100.0))
        assert stats.median == pytest.approx(6.0)

    def test_stats_values_order(self):
        vals = stats_values(RawStats(mean=1.0, std_dev=2.0, variance=4.0, median=3.0, maximum=9.0, minimum=-5.0))
        assert vals == [2.0, 1.0, 9.0, -5.0, 4.0, 3.0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=50), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        a = raw_stats(SampleSeries(xs, 100.0))
        b = raw_stats(SampleSeries(shuffled, 100.0))
        assert a.mean == pytest.approx(b.mean, abs=1e-9)
        assert a.median == pytest.approx(b.median, abs=1e-9)
        assert a.variance == pytest.approx(b.variance, rel=1e-9, abs=1e-9)
        assert a.maximum == b.maximum and a.minimum == b.minimum

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_ordering_invariants(self, xs):
        s = raw_stats(SampleSeries(xs, 100.0))
        assert s.minimum <= s.median <= s.maximum
        assert s.minimum <= s.mean <= s.maximum
        assert s.variance >= 0.0
        assert s.std_dev == pytest.approx(np.sqrt(s.variance))
