"""Synthetic corpus generator: determinism, signal shape, separability."""

import numpy as np
import pytest

from adlsense.datasets import DatasetConfig, build_dataset, parse_sensor_log, write_sensor_log
from adlsense.motion import motion_feature_vector
from adlsense.signals import low_pass, magnitude
from adlsense.synth import (
    DEFAULT_ADL_PARAMS,
    DEFAULT_ENV_PARAMS,
    AdlParams,
    EnvParams,
    SynthSpec,
    default_adl_spec,
    default_environment_spec,
    default_standing_spec,
    environment_window,
    motion_window,
    separation_ratio,
    synth_corpus,
    synth_windows,
)


def small_env_spec(n=3, seed=7, labels=("bar", "street", "bedroom")):
    return SynthSpec("ENVIRONMENT", labels, n,
                     {l: DEFAULT_ENV_PARAMS[l] for l in labels}, seed)


def small_adl_spec(n=3, seed=7, labels=("running", "walking", "standing"), with_audio=False):
    return SynthSpec("ADL", labels, n,
                     {l: DEFAULT_ADL_PARAMS[l] for l in labels}, seed, with_audio)


class TestSpecValidation:
    def test_default_specs_cover_their_labels(self):
        env = default_environment_spec(windows_per_label=2)
        assert len(env.labels) == 9 and env.kind == "ENVIRONMENT"
        adl = default_adl_spec(windows_per_label=2)
        assert len(adl.labels) == 5 and adl.kind == "ADL"
        standing = default_standing_spec(windows_per_label=2)
        assert standing.labels == ("sleeping", "watching TV")
        assert standing.with_audio

    def test_zero_windows_rejected(self):
        with pytest.raises(ValueError, match="windows_per_label"):
            default_environment_spec(windows_per_label=0)

    def test_duplicate_parameters_rejected(self):
        params = {"a": AdlParams(1.0, 2.0, 0.1, "gym"), "b": AdlParams(1.0, 2.0, 0.1, "gym")}
        with pytest.raises(ValueError, match="distinct"):
            SynthSpec("ADL", ("a", "b"), 2, params)

    def test_labels_sharing_a_slug_rejected(self):
        params = {"a b": AdlParams(1.0, 2.0, 0.1, "gym"), "a-b": AdlParams(1.5, 2.0, 0.1, "gym")}
        with pytest.raises(ValueError, match="'a b' and 'a-b'"):
            SynthSpec("ADL", ("a b", "a-b"), 2, params)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            SynthSpec("ENVIRONMENT", ("bar", "gym"), 2,
                      {"bar": DEFAULT_ENV_PARAMS["bar"]})

    def test_wrong_parameter_type_rejected(self):
        with pytest.raises(ValueError, match="EnvParams"):
            SynthSpec("ENVIRONMENT", ("bar",), 2, {"bar": AdlParams(1.0, 1.0, 0.1, "gym")})

    def test_audio_flag_only_for_adl(self):
        with pytest.raises(ValueError, match="with_audio"):
            SynthSpec("ENVIRONMENT", ("bar",), 2,
                      {"bar": DEFAULT_ENV_PARAMS["bar"]}, with_audio=True)

    def test_unknown_audio_environment_rejected(self):
        with pytest.raises(ValueError, match="'odd': no audio recipe for environment 'cave'"):
            SynthSpec("ADL", ("odd",), 1, {"odd": AdlParams(1.0, 1.0, 0.1, "cave")},
                      with_audio=True)
        # Without audio the environment is only an annotation.
        SynthSpec("ADL", ("odd",), 1, {"odd": AdlParams(1.0, 1.0, 0.1, "cave")})


class TestCorpusShape:
    def test_count_and_ids(self):
        corpus = synth_corpus(small_env_spec(n=3))
        assert len(corpus) == 9
        assert len({b.id for b in corpus}) == 9
        assert corpus[0].label == "bar" and corpus[0].label_kind == "ENVIRONMENT"
        assert corpus[0].audio is not None and corpus[0].motion is None

    def test_env_window_geometry(self):
        window = synth_corpus(small_env_spec(n=1))[0].audio
        assert len(window) == 40000
        assert window.sample_rate_hz == 8000.0

    def test_adl_bundles_carry_motion_and_scene(self):
        corpus = synth_corpus(small_adl_spec(n=2))
        assert len(corpus) == 6
        bundle = corpus[0]
        assert bundle.label == "running" and bundle.label_kind == "ADL"
        assert set(bundle.motion) == {"ACC", "MAG", "GYRO"}
        assert bundle.environment == "gym"
        assert bundle.audio is None
        assert len(bundle.motion["ACC"]) == 500
        assert bundle.motion["ACC"].sample_rate_hz == 100.0

    def test_standing_bundles_carry_audio(self):
        corpus = synth_corpus(default_standing_spec(windows_per_label=1))
        assert all(b.audio is not None for b in corpus)
        assert corpus[0].environment == "bedroom"
        assert len(corpus[0].audio) == 40000

    def test_streaming_matches_list(self):
        spec = small_adl_spec(n=2)
        streamed = list(synth_windows(spec))
        listed = synth_corpus(spec)
        assert [b.id for b in streamed] == [b.id for b in listed]
        np.testing.assert_array_equal(
            streamed[3].motion["ACC"].x.values, listed[3].motion["ACC"].x.values
        )


class TestDeterminism:
    def test_same_seed_same_samples(self):
        a = synth_corpus(small_env_spec(n=2, seed=11))
        b = synth_corpus(small_env_spec(n=2, seed=11))
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.audio.values, wb.audio.values)

    def test_different_seed_differs(self):
        a = synth_corpus(small_env_spec(n=1, seed=11))
        b = synth_corpus(small_env_spec(n=1, seed=12))
        assert not np.array_equal(a[0].audio.values, b[0].audio.values)

    def test_windows_within_a_label_differ(self):
        a, b = synth_corpus(small_env_spec(n=2, labels=("bar",)))
        assert not np.array_equal(a.audio.values, b.audio.values)

    def test_motion_determinism(self):
        a = synth_corpus(small_adl_spec(n=2, seed=5))
        b = synth_corpus(small_adl_spec(n=2, seed=5))
        for wa, wb in zip(a, b):
            for sensor in ("ACC", "MAG", "GYRO"):
                np.testing.assert_array_equal(
                    wa.motion[sensor].y.values, wb.motion[sensor].y.values
                )


class TestSignalShape:
    def test_env_rms_tracks_amplitude_ladder(self):
        rng = np.random.default_rng(0)
        for label, params in DEFAULT_ENV_PARAMS.items():
            window = environment_window(rng, params)
            rms = np.sqrt(np.mean(window.values ** 2))
            assert abs(rms / params.amplitude - 1.0) < 0.25, label

    def test_env_window_has_no_dc(self):
        rng = np.random.default_rng(1)
        window = environment_window(rng, DEFAULT_ENV_PARAMS["street"])
        assert abs(np.mean(window.values)) < 1e-12

    def test_tilt_shifts_spectral_balance(self):
        rng = np.random.default_rng(2)
        dark = environment_window(rng, EnvParams(tilt=-2.6, amplitude=0.5))
        bright = environment_window(rng, EnvParams(tilt=1.5, amplitude=0.5))

        def band_ratio(series):
            spectrum = np.abs(np.fft.rfft(series.values)) ** 2
            freqs = np.fft.rfftfreq(len(series), 1.0 / series.sample_rate_hz)
            return spectrum[freqs < 400].sum() / spectrum[freqs > 1500].sum()

        assert band_ratio(dark) > 10.0 * band_ratio(bright)

    def test_acc_rests_near_gravity(self):
        rng = np.random.default_rng(3)
        channels = motion_window(rng, DEFAULT_ADL_PARAMS["standing"])
        assert abs(np.mean(channels["ACC"].z.values) - 9.7) < 0.2
        assert abs(np.mean(channels["MAG"].x.values) - 18.0) < 0.5

    def test_activity_intensity_ladder(self):
        order = ["running", "walking", "going upstairs", "going downstairs", "standing"]
        stds = []
        for label in order:
            values = []
            for i in range(6):
                rng = np.random.default_rng([9, i])
                channels = motion_window(rng, DEFAULT_ADL_PARAMS[label])
                smoothed = low_pass(magnitude(channels["ACC"]))
                values.append(np.std(smoothed.values))
            stds.append(np.mean(values))
        assert stds == sorted(stds, reverse=True)
        for louder, softer in zip(stds, stds[1:]):
            assert louder > 1.3 * softer


class TestPeakPeriods:
    def test_top_gap_matches_sinusoid_period(self):
        # The dominant peak spacing of the smoothed magnitude should sit at
        # one sinusoid period: rate / frequency samples.
        for label in ("running", "walking"):
            params = DEFAULT_ADL_PARAMS[label]
            expected = 100.0 / params.frequency_hz
            gaps = []
            for i in range(20):
                rng = np.random.default_rng([13, i])
                channels = motion_window(rng, params)
                features = motion_feature_vector({"ACC": channels["ACC"]}, "F1")
                gaps.append(features[0])  # largest peak-to-peak distance
            mean_gap = np.mean(gaps)
            assert abs(mean_gap - expected) < 0.2 * expected, label

    def test_gap_ratio_tracks_period_ratio(self):
        means = {}
        for label in ("running", "walking"):
            params = DEFAULT_ADL_PARAMS[label]
            gaps = []
            for i in range(20):
                rng = np.random.default_rng([17, i])
                channels = motion_window(rng, params)
                gaps.append(motion_feature_vector({"ACC": channels["ACC"]}, "F1")[0])
            means[label] = np.mean(gaps)
        expected_ratio = (100.0 / 1.8) / (100.0 / 2.8)
        assert abs(means["walking"] / means["running"] - expected_ratio) < 0.2 * expected_ratio


class TestSeparability:
    def test_environment_corpus_is_separable(self):
        ds = build_dataset(synth_windows(default_environment_spec(12, seed=21)), "A4")
        assert separation_ratio(ds) >= 3.0

    def test_adl_corpus_is_separable(self):
        ds = build_dataset(
            synth_windows(default_adl_spec(12, seed=22)), "F5",
            cfg=DatasetConfig(sensors=("ACC",)),
        )
        assert separation_ratio(ds) >= 3.0

    def test_standing_corpus_is_separable(self):
        ds = build_dataset(
            synth_windows(default_standing_spec(12, seed=23)), "F5",
            cfg=DatasetConfig(sensors=("ACC",)),
        )
        assert separation_ratio(ds) >= 3.0

    def test_ratio_requires_two_rows_per_label(self):
        ds = build_dataset(synth_windows(small_env_spec(n=1)), "A4")
        with pytest.raises(ValueError, match="at least 2"):
            separation_ratio(ds)


class TestLogIntegration:
    def test_synth_windows_round_trip_through_logs(self, tmp_path):
        corpus = synth_corpus(small_adl_spec(n=2, labels=("walking",), with_audio=True))
        motion_path = tmp_path / "walking-motion.log"
        audio_path = tmp_path / "walking-audio.log"
        write_sensor_log(motion_path, [b.channel_view("motion") for b in corpus])
        write_sensor_log(audio_path, [b.channel_view("audio") for b in corpus])
        motion_back = parse_sensor_log(motion_path)
        audio_back = parse_sensor_log(audio_path)
        assert [b.id for b in motion_back] == [b.id for b in corpus]
        assert motion_back[0].environment == "street"
        np.testing.assert_array_equal(
            motion_back[1].motion["GYRO"].x.values, corpus[1].motion["GYRO"].x.values
        )
        np.testing.assert_array_equal(audio_back[0].audio.values, corpus[0].audio.values)
