"""Window bundles, log parsing, dataset assembly, splitting, CSV round-trips."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import reference_parse_sensor_log

from adlsense import datasets
from adlsense.audio import audio_feature_names, audio_feature_vector
from adlsense.datasets import (
    DatasetConfig,
    LabeledDataset,
    WindowBundle,
    build_dataset,
    index_sensor_log,
    infer_variant,
    load_dataset,
    parse_sensor_log,
    save_dataset,
    stratified_split,
    write_sensor_log,
)
from adlsense.errors import FormatError, ParseError
from adlsense.motion import MOTION_SENSOR_ORDER, motion_feature_names, motion_feature_vector
from adlsense.network import NetworkConfig, init_network
from adlsense.signals import SampleSeries, TriaxialSeries


def audio_series(seed=0, count=400, rate=8000.0):
    rng = np.random.default_rng(seed)
    return SampleSeries(rng.normal(size=count), rate)


def motion_tri(seed=0, count=500, rate=100.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return TriaxialSeries.from_arrays(
        offset + rng.normal(size=count),
        offset + rng.normal(size=count),
        offset + rng.normal(size=count),
        rate,
    )


def motion_channels(seed=0, sensors=("ACC", "MAG", "GYRO")):
    return {s: motion_tri(seed + i) for i, s in enumerate(sensors)}


def write_text(path, text, newline="\n"):
    """Write ``text`` with its line ends replaced by ``newline``."""
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))


def audio_bundle(label="bar", seed=0, wid=None):
    return WindowBundle(
        id=wid or f"{label}-{seed}", label=label, label_kind="ENVIRONMENT",
        audio=audio_series(seed),
    )


def motion_bundle(label="walking", seed=0, sensors=("ACC", "MAG", "GYRO"),
                  environment=None, audio_seed=None):
    return WindowBundle(
        id=f"{label}-{seed}", label=label, label_kind="ADL",
        motion=motion_channels(seed, sensors),
        audio=None if audio_seed is None else audio_series(audio_seed),
        environment=environment,
    )


class TestWindowBundle:
    def test_requires_a_channel(self):
        with pytest.raises(ValueError, match="no channels"):
            WindowBundle(id="w", label="bar", label_kind="ENVIRONMENT")

    def test_rejects_unknown_sensor(self):
        with pytest.raises(ValueError, match="unknown sensors"):
            WindowBundle(id="w", label="walking", label_kind="ADL",
                         motion={"BARO": motion_tri()})

    def test_rejects_bad_label_kind(self):
        with pytest.raises(ValueError, match="label_kind"):
            WindowBundle(id="w", label="bar", label_kind="SCENE", audio=audio_series())

    def test_motion_duration_tolerance(self):
        WindowBundle(id="w", label="walking", label_kind="ADL",
                     motion={"ACC": motion_tri(count=460)})
        with pytest.raises(ValueError, match="duration"):
            WindowBundle(id="w", label="walking", label_kind="ADL",
                         motion={"ACC": motion_tri(count=300)})

    def test_audio_duration_unconstrained(self):
        WindowBundle(id="w", label="bar", label_kind="ENVIRONMENT",
                     audio=audio_series(count=10))

    def test_sensors_property_is_canonically_ordered(self):
        bundle = WindowBundle(
            id="w", label="walking", label_kind="ADL",
            motion={"GYRO": motion_tri(1), "ACC": motion_tri(2)},
            audio=audio_series(),
        )
        assert bundle.sensors == ("ACC", "GYRO", "MIC")


class TestBuildAudioDataset:
    def test_one_row_per_bundle_with_matching_values(self):
        bundles = [audio_bundle("bar", i) for i in range(3)]
        bundles += [audio_bundle("gym", 10 + i) for i in range(2)]
        ds = build_dataset(bundles, "A1")
        assert len(ds) == 5
        assert ds.feature_names == list(audio_feature_names("A1"))
        assert ds.labels == ["bar"] * 3 + ["gym"] * 2
        assert ds.label_names == ["bar", "gym"]
        expected = audio_feature_vector(bundles[0].audio, "A1")
        np.testing.assert_array_equal(ds.rows[0], expected)

    def test_accepts_a_generator(self):
        ds = build_dataset((audio_bundle("bar", i) for i in range(4)), "A2")
        assert ds.rows.shape == (4, 6)

    def test_missing_audio_channel_is_an_error(self):
        with pytest.raises(ValueError, match="no audio channel"):
            build_dataset([motion_bundle()], "A1")

    def test_audio_variant_rejects_env_block(self):
        cfg = DatasetConfig(env_mode="oracle", env_labels=("bar",))
        with pytest.raises(ValueError, match="environment block"):
            build_dataset([audio_bundle()], "A1", cfg=cfg)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            build_dataset([audio_bundle()], "B1")


class TestBuildMotionDataset:
    def test_full_sensor_f1_shape_and_values(self):
        bundles = [motion_bundle("walking", i) for i in range(3)]
        ds = build_dataset(bundles, "F1")
        assert ds.rows.shape == (3, 45)
        assert ds.feature_names == list(motion_feature_names(("ACC", "MAG", "GYRO"), "F1"))
        expected = motion_feature_vector(bundles[1].motion, "F1")
        np.testing.assert_array_equal(ds.rows[1], expected)

    def test_sensor_subset_config(self):
        bundles = [motion_bundle("walking", i) for i in range(2)]
        ds = build_dataset(bundles, "F1", cfg=DatasetConfig(sensors=("ACC",)))
        assert ds.rows.shape == (2, 15)
        assert ds.feature_names[0] == "acc_gap_1"

    def test_missing_requested_sensor(self):
        bundles = [motion_bundle("walking", 0, sensors=("ACC",))]
        with pytest.raises(ValueError, match="missing sensor MAG"):
            build_dataset(bundles, "F1", cfg=DatasetConfig(sensors=("ACC", "MAG")))

    def test_sensors_default_to_first_bundle(self):
        bundles = [motion_bundle("walking", 0, sensors=("ACC", "MAG")),
                   motion_bundle("walking", 1)]
        ds = build_dataset(bundles, "F2")
        assert ds.rows.shape == (2, 20)

    def test_oracle_env_appends_one_hot(self):
        envs = ("classroom", "street")
        bundles = [motion_bundle("walking", 0, environment="street"),
                   motion_bundle("standing", 1, environment="classroom")]
        ds = build_dataset(bundles, "F1", cfg=DatasetConfig(env_mode="oracle", env_labels=envs))
        assert ds.rows.shape == (2, 47)
        assert ds.feature_names[-2:] == ["env_classroom", "env_street"]
        np.testing.assert_array_equal(ds.rows[0, -2:], [0.0, 1.0])
        np.testing.assert_array_equal(ds.rows[1, -2:], [1.0, 0.0])

    def test_oracle_env_requires_annotation(self):
        with pytest.raises(ValueError, match="no environment annotation"):
            build_dataset([motion_bundle("walking", 0)], "F1",
                          cfg=DatasetConfig(env_mode="oracle", env_labels=("street",)))

    def test_oracle_env_rejects_unknown_environment(self):
        with pytest.raises(ValueError, match="not in"):
            build_dataset([motion_bundle("walking", 0, environment="cave")], "F1",
                          cfg=DatasetConfig(env_mode="oracle", env_labels=("street",)))

    def test_oracle_env_requires_label_order(self):
        with pytest.raises(ValueError, match="env_labels"):
            build_dataset([motion_bundle("walking", 0, environment="street")], "F1",
                          cfg=DatasetConfig(env_mode="oracle"))

    def test_predicted_env_uses_model_output(self):
        # Rig a model that always predicts its second label.
        config = NetworkConfig.from_preset("MLP", hidden_layers=(2,), normalization="NONE")
        model = init_network(config, input_size=6, labels=["loud", "quiet"])
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][:] = [-5.0, 5.0]
        bundles = [motion_bundle("walking", 0, audio_seed=7)]
        cfg = DatasetConfig(env_mode="predicted", env_audio_variant="A2")
        ds = build_dataset(bundles, "F1", env_source=model, cfg=cfg)
        assert ds.feature_names[-2:] == ["env_loud", "env_quiet"]
        np.testing.assert_array_equal(ds.rows[0, -2:], [0.0, 1.0])

    def test_predicted_env_requires_model(self):
        with pytest.raises(ValueError, match="environment model"):
            build_dataset([motion_bundle("walking", 0, audio_seed=1)], "F1",
                          cfg=DatasetConfig(env_mode="predicted"))

    def test_predicted_env_requires_audio(self):
        config = NetworkConfig.from_preset("MLP", hidden_layers=(2,), normalization="NONE")
        model = init_network(config, input_size=6, labels=["a", "b"])
        cfg = DatasetConfig(env_mode="predicted", env_audio_variant="A2")
        with pytest.raises(ValueError, match="no audio"):
            build_dataset([motion_bundle("walking", 0)], "F1", env_source=model, cfg=cfg)

    def test_missing_motion_channels(self):
        with pytest.raises(ValueError, match="no motion channels"):
            build_dataset([audio_bundle()], "F1")


class TestStratifiedSplit:
    def make(self, counts):
        rows, labels = [], []
        for label, n in counts.items():
            for i in range(n):
                rows.append([float(i), float(len(label))])
                labels.append(label)
        return LabeledDataset("A4", ["std", "mean"], np.asarray(rows), labels,
                              sorted(counts))

    def test_seventy_thirty_counts(self):
        ds = self.make({"a": 20, "b": 30})
        train, test = stratified_split(ds, 0.3, seed=1)
        assert len(train) == 35 and len(test) == 15
        assert test.labels.count("a") == 6 and test.labels.count("b") == 9

    def test_disjoint_and_exhaustive(self):
        ds = self.make({"a": 11, "b": 13})
        # Tag every row uniquely through the feature value.
        ds.rows[:, 0] = np.arange(len(ds))
        train, test = stratified_split(ds, 0.25, seed=3)
        ids = sorted(train.rows[:, 0].tolist() + test.rows[:, 0].tolist())
        assert ids == list(range(24))

    def test_proportions_within_one_row(self):
        ds = self.make({"a": 7, "b": 10, "c": 23})
        train, test = stratified_split(ds, 0.4, seed=5)
        for label, n in (("a", 7), ("b", 10), ("c", 23)):
            assert abs(test.labels.count(label) - 0.4 * n) <= 0.5 + 1e-9

    def test_deterministic_per_seed(self):
        ds = self.make({"a": 9, "b": 9})
        first = stratified_split(ds, 0.3, seed=11)
        second = stratified_split(ds, 0.3, seed=11)
        np.testing.assert_array_equal(first[1].rows, second[1].rows)
        other = stratified_split(ds, 0.3, seed=12)
        assert not np.array_equal(first[1].rows, other[1].rows)

    def test_tiny_label_rejected(self):
        ds = self.make({"a": 1, "b": 5})
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split(ds, 0.3, seed=1)

    def test_bad_fraction_rejected(self):
        ds = self.make({"a": 5, "b": 5})
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="test_fraction"):
                stratified_split(ds, bad, seed=1)


class TestDatasetCsv:
    def test_round_trip_is_exact(self, tmp_path):
        bundles = [audio_bundle("bar", i) for i in range(2)]
        bundles += [audio_bundle("watching TV", 5 + i) for i in range(2)]
        ds = build_dataset(bundles, "A1")
        path = tmp_path / "env.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.variant == "A1"
        assert back.feature_names == ds.feature_names
        assert back.labels == ds.labels
        np.testing.assert_array_equal(back.rows, ds.rows)

    def test_motion_round_trip_with_env_block(self, tmp_path):
        bundles = [motion_bundle("walking", i, environment="street") for i in range(2)]
        ds = build_dataset(bundles, "F3",
                           cfg=DatasetConfig(env_mode="oracle", env_labels=("street",)))
        path = tmp_path / "motion.csv"
        save_dataset(ds, path)
        back = load_dataset(path, variant="F3")
        np.testing.assert_array_equal(back.rows, ds.rows)

    def test_labels_with_commas_and_quotes_round_trip(self, tmp_path):
        labels = ["a,b", 'say "hi"', "watching TV"]
        ds = LabeledDataset("A4", audio_feature_names("A4"), np.arange(6.0).reshape(3, 2),
                            labels, sorted(labels))
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        assert path.read_text().splitlines()[1:] == [
            '0.0,1.0,"a,b"', '2.0,3.0,"say ""hi"""', "4.0,5.0,watching TV"]
        back = load_dataset(path)
        assert back.labels == labels
        np.testing.assert_array_equal(back.rows, ds.rows)

    def test_variant_mismatch_rejected(self, tmp_path):
        ds = build_dataset([audio_bundle("bar", i) for i in range(2)], "A2")
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        with pytest.raises(FormatError, match="expected A1"):
            load_dataset(path, variant="A1")

    def test_tampered_header_rejected(self, tmp_path):
        ds = build_dataset([audio_bundle("bar", i) for i in range(2)], "A2")
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("median", "p50")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="feature recipe"):
            load_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        ds = build_dataset([audio_bundle("bar", i) for i in range(2)], "A4")
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        with open(path, "a") as fh:
            fh.write("1.0,bar\n")
        with pytest.raises(FormatError, match="expected 3 fields"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        ds = build_dataset([audio_bundle("bar", i) for i in range(3)], "A4")
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = cell
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"d\.csv:3: non-finite"):
            load_dataset(path)

    def test_infer_variant(self):
        for variant in ("A1", "A2", "A3", "A4"):
            assert infer_variant(audio_feature_names(variant)) == variant
        subsets = [("ACC",), ("MAG",), ("GYRO",), ("ACC", "MAG"), ("ACC", "GYRO"),
                   ("MAG", "GYRO"), ("ACC", "MAG", "GYRO")]
        for variant in ("F1", "F2", "F3", "F4", "F5"):
            for sensors in subsets:
                for env_labels in (None, ["street", "gym"]):
                    names = motion_feature_names(sensors, variant, env_labels)
                    assert infer_variant(names) == variant, (variant, sensors, env_labels)
        assert infer_variant(["bogus", "label"]) is None


NEWLINES = ("\n", "\r\n")


class TestSensorLogs:
    def test_audio_round_trip_preserves_samples_and_label(self, tmp_path):
        bundles = [
            WindowBundle(id=f"tv-{i}", label="watching TV", label_kind="ENVIRONMENT",
                         audio=audio_series(i, count=64))
            for i in range(3)
        ]
        path = tmp_path / "tv.log"
        write_sensor_log(path, bundles)
        text = path.read_text()
        for newline in NEWLINES:
            write_text(path, text, newline)
            back = parse_sensor_log(path)
            assert [b.id for b in back] == ["tv-0", "tv-1", "tv-2"]
            assert back[0].label == "watching TV"
            assert back[0].label_kind == "ENVIRONMENT"
            assert back[0].audio.sample_rate_hz == 8000.0
            for orig, parsed in zip(bundles, back):
                np.testing.assert_array_equal(parsed.audio.values, orig.audio.values)

    def test_motion_round_trip_with_environment(self, tmp_path):
        bundles = [motion_bundle("going upstairs", i, environment="hall") for i in range(2)]
        path = tmp_path / "up.log"
        write_sensor_log(path, bundles)
        text = path.read_text()
        for newline in NEWLINES:
            write_text(path, text, newline)
            back = parse_sensor_log(path)
            assert len(back) == 2
            assert back[0].environment == "hall"
            assert back[0].sensors == ("ACC", "MAG", "GYRO")
            for sensor in ("ACC", "MAG", "GYRO"):
                orig, parsed = bundles[1].motion[sensor], back[1].motion[sensor]
                np.testing.assert_array_equal(parsed.x.values, orig.x.values)
                np.testing.assert_array_equal(parsed.z.values, orig.z.values)
                assert parsed.sample_rate_hz == 100.0

    def test_empty_file_parses_to_no_windows(self, tmp_path):
        path = tmp_path / "empty.log"
        for text in ("", "\n", "  \n\t\n\n", "\r\n \r\n"):
            write_text(path, text)
            assert parse_sensor_log(path) == []

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.log"
        header = "#adl-sense v1 kind=audio label=bar label_kind=ENVIRONMENT rate_hz=8000\n"
        # A blank first line is a missing header even when one follows.
        for text in ("#window w0\n0.5\n", f"\n{header}#window w0\n0.5\n",
                     f"  \n\n{header}#window w0\n0.5\n"):
            write_text(path, text)
            with pytest.raises(ParseError, match="header") as err:
                parse_sensor_log(path)
            assert err.value.line == 1

    def test_sample_before_window(self, tmp_path):
        path = tmp_path / "bad.log"
        for newline in NEWLINES:
            write_text(path, "#adl-sense v1 kind=audio label=bar label_kind=ENVIRONMENT "
                             "rate_hz=8000\n0.5\n", newline)
            with pytest.raises(ParseError, match="before any #window") as err:
                parse_sensor_log(path)
            assert err.value.line == 2

    def test_non_monotonic_timestamps(self, tmp_path):
        path = tmp_path / "bad.log"
        for newline in NEWLINES:
            write_text(
                path,
                "#adl-sense v1 kind=motion label=walking label_kind=ADL rate_hz=100 sensors=ACC\n"
                "#window w0\n"
                "0,0.1,0.2,9.7\n"
                "0,0.1,0.2,9.7\n",
                newline,
            )
            with pytest.raises(ParseError, match="non-monotonic") as err:
                parse_sensor_log(path)
            assert err.value.line == 4

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            "#adl-sense v1 kind=motion label=walking label_kind=ADL rate_hz=100 sensors=ACC+MAG\n"
            "#window w0\n"
            "0,0.1,0.2,9.7\n"
        )
        with pytest.raises(ParseError, match="expected 7"):
            parse_sensor_log(path)

    def test_unknown_directive(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            "#adl-sense v1 kind=audio label=bar label_kind=ENVIRONMENT rate_hz=8000\n"
            "#weirdness\n"
        )
        with pytest.raises(ParseError, match="unknown directive"):
            parse_sensor_log(path)

    def test_bad_rate_and_kind(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("#adl-sense v1 kind=video label=x label_kind=ADL rate_hz=100\n")
        with pytest.raises(ParseError, match="kind"):
            parse_sensor_log(path)
        path.write_text("#adl-sense v1 kind=audio label=x label_kind=ENVIRONMENT rate_hz=zero\n")
        with pytest.raises(ParseError, match="rate_hz"):
            parse_sensor_log(path)

    def test_empty_window_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            "#adl-sense v1 kind=audio label=bar label_kind=ENVIRONMENT rate_hz=8000\n"
            "#window w0\n"
            "#window w1\n"
            "0.5\n"
        )
        with pytest.raises(ParseError, match="no samples") as err:
            parse_sensor_log(path)
        assert err.value.line == 2

    def test_non_finite_sample_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            "#adl-sense v1 kind=audio label=bar label_kind=ENVIRONMENT rate_hz=8000\n"
            "#window w0\nnan\n"
        )
        with pytest.raises(ParseError, match="non-finite"):
            parse_sensor_log(path)

    def test_non_finite_final_timestamp_rejected(self, tmp_path):
        # Rising by np.diff, but no axis series holds the timestamp column.
        path = tmp_path / "bad.log"
        path.write_text(
            "#adl-sense v1 kind=motion label=walking label_kind=ADL rate_hz=0.4 sensors=ACC\n"
            "#window w0\n"
            "0,0.1,0.2,9.7\n"
            "inf,0.1,0.2,9.7\n"
        )
        with pytest.raises(ParseError, match="non-finite motion sample") as err:
            parse_sensor_log(path)
        assert err.value.line == 4

    def test_parse_peak_memory_tracks_the_parsed_arrays(self, tmp_path):
        # Audio windows span ten conversion chunks; the motion windows'
        # ACC+MAG+GYRO rows at 1 kHz span two.
        audio = [
            WindowBundle(id=f"w{i}", label="bar", label_kind="ENVIRONMENT",
                         audio=audio_series(i, count=40_000))
            for i in range(8)
        ]
        motion = [
            WindowBundle(id=f"w{i}", label="walking", label_kind="ADL",
                         motion={s: motion_tri(3 * i + j, count=5_000, rate=1000.0)
                                 for j, s in enumerate(MOTION_SENSOR_ORDER)})
            for i in range(8)
        ]
        path = tmp_path / "long.log"
        for bundles in (audio, motion):
            write_sensor_log(path, bundles)
            tracemalloc.start()
            try:
                back = parse_sensor_log(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            for orig, parsed in zip(bundles, back):
                for want, got in zip(bundle_arrays(orig), bundle_arrays(parsed)):
                    np.testing.assert_array_equal(got, want)
            parsed_bytes = sum(array.nbytes for b in back for array in bundle_arrays(b))
            assert peak < 3 * parsed_bytes, f"peak {peak / parsed_bytes:.1f}x the parsed arrays"

    def test_mixed_labels_refused_on_write(self, tmp_path):
        bundles = [audio_bundle("bar", 0), audio_bundle("gym", 1)]
        path = tmp_path / "x.log"
        with pytest.raises(ValueError, match="header fields"):
            write_sensor_log(path, bundles)
        assert not path.exists()

    def test_rates_and_lengths_that_would_not_read_back_are_refused(self, tmp_path):
        path = tmp_path / "x.log"
        slow_audio = WindowBundle(id="w1", label="bar", label_kind="ENVIRONMENT",
                                  audio=audio_series(1, rate=16000.0))
        mixed_rates = WindowBundle(id="w0", label="walking", label_kind="ADL",
                                   motion={"ACC": motion_tri(0, count=250, rate=50.0),
                                           "MAG": motion_tri(1)})
        mixed_lengths = WindowBundle(id="w0", label="walking", label_kind="ADL",
                                     motion={"ACC": motion_tri(0, count=480),
                                             "MAG": motion_tri(1)})
        for bundles, problem in (([audio_bundle("bar", 0), slow_audio], "sample rate"),
                                 ([mixed_rates], "sample rate"),
                                 ([mixed_lengths], "different lengths")):
            with pytest.raises(ValueError, match=problem):
                write_sensor_log(path, bundles)
            assert not path.exists()

    @pytest.mark.parametrize("window_id, problem", [
        ("w\n0", "line break"), ("w\r0", "line break"), (" w0 ", "whitespace"),
        ("w0\t", "whitespace"), ("  ", "blank"),
    ])
    def test_ids_that_would_not_read_back_are_refused(self, tmp_path, window_id, problem):
        path = tmp_path / "x.log"
        bundles = [audio_bundle("bar", 0), audio_bundle("bar", 1, wid=window_id)]
        with pytest.raises(ValueError, match=problem):
            write_sensor_log(path, bundles)
        assert not path.exists()

    @pytest.mark.parametrize("label, environment", [("a\nb", None), ("bar", "kit\rchen")])
    def test_header_fields_with_line_breaks_are_refused(self, tmp_path, label, environment):
        path = tmp_path / "x.log"
        bundle = WindowBundle(id="w0", label=label, label_kind="ENVIRONMENT",
                              audio=audio_series(), environment=environment)
        with pytest.raises(ValueError, match="contains a line break"):
            write_sensor_log(path, [bundle])
        assert not path.exists()


def bundle_arrays(bundle):
    """Every sample array of a bundle: its audio, then each sensor's axes."""
    arrays = [bundle.audio.values] if bundle.audio is not None else []
    for tri in (bundle.motion or {}).values():
        arrays += [tri.x.values, tri.y.values, tri.z.values]
    return arrays


def assert_same_bundles(ours, theirs):
    """Equal windows, with arrays equal bit for bit in dtype, shape and strides."""
    def fields(b):
        audio_rate = b.audio.sample_rate_hz if b.audio is not None else None
        motion_rates = {name: tri.sample_rate_hz for name, tri in (b.motion or {}).items()}
        return b.id, b.label, b.label_kind, b.environment, b.sensors, audio_rate, motion_rates

    assert [fields(b) for b in ours] == [fields(b) for b in theirs]
    for mine, reference in zip(ours, theirs):
        for a, b in zip(bundle_arrays(mine), bundle_arrays(reference), strict=True):
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
            assert a.tobytes() == b.tobytes()


def parse_outcome(parse, path):
    """(bundles, None) from a clean parse, else (None, (message, line))."""
    try:
        return parse(path), None
    except ParseError as exc:
        return None, (str(exc), exc.line)


# Window sizes around the parser's 4096-line conversion chunk.
CHUNK_EDGE_SIZES = (1, 4095, 4096, 4097)


def draw_log(data):
    """A random valid log as (header, kind, width, windows): each window an
    (id, sample lines) pair, motion timestamps strictly increasing."""
    sizes = st.sampled_from(CHUNK_EDGE_SIZES) | st.integers(1, 30)
    kind = data.draw(st.sampled_from(["audio", "motion"]), label="kind")
    count = data.draw(st.integers(1, 2), label="windows")
    style = data.draw(st.sampled_from(["repr", "short", "padded"]), label="style")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    label = data.draw(st.sampled_from(["bar", "watching TV"]), label="label")
    environment = data.draw(st.sampled_from(["", " environment=kitchen"]), label="env")

    def token(v):
        text = repr(float(v)) if style == "repr" else f"{v:.3g}"
        return f" {text}\t" if style == "padded" else text

    if kind == "audio":
        width = 1
        header = f"#adl-sense v1 kind=audio label='{label}' label_kind=ENVIRONMENT rate_hz=8000"
    else:
        sensors = MOTION_SENSOR_ORDER[:data.draw(st.integers(1, 3), label="sensors")]
        size = data.draw(sizes, label="motion size")
        width = 1 + 3 * len(sensors)
        header = (f"#adl-sense v1 kind=motion label='{label}' label_kind=ADL "
                  f"sensors={'+'.join(sensors)} rate_hz={size / 5.0!r}")
    windows = []
    for w in range(count):
        # Motion windows must last 5 s at the header rate; audio ones may vary.
        n = size if kind == "motion" else data.draw(sizes, label="audio size")
        values = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-4, 5, size=(n, width))
        if kind == "motion":
            values[:, 0] = np.cumsum(rng.uniform(0.5, 20.0, size=n))
            lines = [",".join([repr(float(row[0]))] + [token(v) for v in row[1:]])
                     for row in values]
        else:
            lines = [token(v) for v in values[:, 0]]
        windows.append((f"w {w}", lines))
    return header + environment, kind, width, windows


def render_log(data, header, windows):
    """Log text with LF, CRLF or CR line ends, blank lines scattered through
    it and ``#window`` lines that may be indented."""
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
    blanks = data.draw(st.sampled_from([0.0, 0.01, 0.2]), label="blank rate")
    indent = data.draw(st.sampled_from(["", "", " ", "\t "]), label="indent")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="blank seed"))
    lines = [header]
    for window_id, samples in windows:
        if window_id is not None:  # None: samples ahead of any #window line
            lines.append(f"{indent}#window {window_id}")
        lines.extend(samples)
    out = []
    for line in lines:
        out.append(line)
        if rng.random() < blanks:
            out.append(rng.choice(["", "  ", "\t"]))
    end = newline if data.draw(st.booleans(), label="final newline") else ""
    return newline.join(out) + end


MUTATIONS = ("bad token", "non-finite", "equal timestamps", "missing id", "unknown directive",
             "empty window", "too short", "sample before window", "field count")


def mutate(data, kind, width, windows):
    """``windows`` with one defect that the parser must report."""
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    w = data.draw(st.integers(0, len(windows) - 1), label="window")
    window_id, lines = windows[w]
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    fields = lines[i].split(",")
    f = data.draw(st.integers(0, len(fields) - 1), label="field")
    if mutation in ("equal timestamps", "too short"):
        assume(kind == "motion" and len(lines) > 1)
    if mutation == "bad token":
        fields[f] = data.draw(st.sampled_from(["abc", "1.2.3", "--1", "1e", "0x10", "1 2"]))
        lines[i] = ",".join(fields)
    elif mutation == "non-finite":
        fields[f] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN", "Infinity"]))
        lines[i] = ",".join(fields)
    elif mutation == "equal timestamps":
        i = max(i, 1)
        lines[i] = ",".join([lines[i - 1].split(",")[0]] + lines[i].split(",")[1:])
    elif mutation == "missing id":
        window_id = ""
    elif mutation == "unknown directive":
        lines.insert(i, data.draw(st.sampled_from(["#comment here", "#", "#win dow"])))
    elif mutation == "empty window":
        windows = windows[:w] + [("empty", [])] + windows[w:]
        w += 1
    elif mutation == "too short":
        del lines[max(1, int(0.9 * len(lines)) - 1):]
    elif mutation == "sample before window":
        windows = [(None, [lines[i]])] + windows
        w += 1
    else:
        lines[i] = ",".join(fields[:-1]) if width > 1 else lines[i] + ",0"
    windows = list(windows)
    windows[w] = (window_id, lines)
    return windows


class TestWindowIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ids_are_those_the_parser_returns(self, tmp_path_factory, data):
        header, kind, width, windows = draw_log(data)
        form = data.draw(st.sampled_from(["w {}", "w#{}", "#w{}", "  w {}\t"]), label="id form")
        windows = [(form.format(w), lines) for w, (_, lines) in enumerate(windows)]
        path = tmp_path_factory.getbasetemp() / "indexed.log"
        path.write_bytes(render_log(data, header, windows).encode("utf-8"))
        ids = [b.id for b in reference_parse_sensor_log(path)]
        chars = data.draw(st.sampled_from((1, 2, 5, 13, 64, datasets.BLOCK_CHARS)), label="block")
        with mock.patch.object(datasets, "BLOCK_CHARS", chars):
            assert [b.id for b in parse_sensor_log(path)] == ids
            assert index_sensor_log(path) == (datasets._parse_header(path, header), ids)

    def test_no_sample_is_converted(self, tmp_path, monkeypatch):
        path = tmp_path / "x.log"
        write_text(path, BLOCK_MOTION_LOG)

        def refuse(*args):
            raise AssertionError("the index converted a sample")

        for name in ("_convert", "_parse_sample", "_read_blocks", "_read_log"):
            monkeypatch.setattr(datasets, name, refuse)
        header, ids = index_sensor_log(path)
        assert (header["kind"], header["sensors"], ids) == ("motion", ("ACC", "MAG"),
                                                            ["first", "second"])

    def test_an_all_blank_file_has_no_header(self, tmp_path):
        path = tmp_path / "x.log"
        for text in ("", "\n", "  \n\t\n\n"):
            write_text(path, text)
            assert index_sensor_log(path) == (None, [])

    def test_a_bad_header_raises_the_parser_error(self, tmp_path):
        path = tmp_path / "x.log"
        write_text(path, "#adl-sense v1 kind=video label=x label_kind=ADL rate_hz=100\n#window a\n")
        expected = parse_outcome(parse_sensor_log, path)
        assert parse_outcome(index_sensor_log, path) == expected

    def test_lines_that_the_parser_refuses_are_passed_over(self, tmp_path):
        path = tmp_path / "x.log"
        text = with_line(with_line(BLOCK_AUDIO_LOG, 3, "#comment"), 3, "0.5 #window x")
        write_text(path, with_line(text, 3, "#window"))
        assert index_sensor_log(path)[1] == ["w0", "w 1"]

    def test_a_file_that_is_not_utf8_is_left_to_the_parser(self, tmp_path):
        path = tmp_path / "x.log"
        write_text(path, BLOCK_AUDIO_LOG)
        path.write_bytes(path.read_bytes().replace(b"#window w 1", b"#window w 1\xff"))
        ids = index_sensor_log(path)[1]  # stops where decoding failed
        assert ids in ([], ["w0"])
        with pytest.raises(UnicodeDecodeError):
            parse_sensor_log(path)


class TestParserAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_valid_logs_parse_bit_for_bit(self, tmp_path_factory, data):
        header, kind, width, windows = draw_log(data)
        path = tmp_path_factory.getbasetemp() / "valid.log"
        path.write_bytes(render_log(data, header, windows).encode("utf-8"))
        ours, error = parse_outcome(parse_sensor_log, path)
        assert error is None, error
        assert_same_bundles(ours, reference_parse_sensor_log(path))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_malformed_logs_raise_the_reference_error(self, tmp_path_factory, data):
        header, kind, width, windows = draw_log(data)
        windows = mutate(data, kind, width, windows)
        path = tmp_path_factory.getbasetemp() / "malformed.log"
        path.write_bytes(render_log(data, header, windows).encode("utf-8"))
        expected = parse_outcome(reference_parse_sensor_log, path)
        assert expected[1] is not None, "the mutation left a valid log"
        assert parse_outcome(parse_sensor_log, path) == expected

    def test_mixed_field_counts_do_not_reshape_into_rows(self, tmp_path):
        # 3 + 5 fields make two 4-field rows whose timestamps 0 and 1 rise:
        # only a per-line field count tells this window from a valid one.
        path = tmp_path / "mixed.log"
        path.write_text(
            "#adl-sense v1 kind=motion label=walking label_kind=ADL rate_hz=0.4 sensors=ACC\n"
            "#window w0\n"
            "0,0.1,0.2\n"
            "2500,0.1,0.2,9.7,1\n"
        )
        with pytest.raises(ParseError, match="expected 4 comma-separated fields, got 3") as err:
            parse_sensor_log(path)
        assert err.value.line == 3



BLOCK_AUDIO_LOG = """\
#adl-sense v1 kind=audio label=bar label_kind=ENVIRONMENT rate_hz=8000
#window w0
0.125
-3.5e-05
1
-0.0
12345.678901234567
2.5
#window w 1
-1e+16
0.1
7
"""

# ACC+MAG rows at 0.8 Hz: four rows make a 5-second window.
BLOCK_MOTION_LOG = """\
#adl-sense v1 kind=motion label=walking label_kind=ADL sensors=ACC+MAG rate_hz=0.8
#window first
0,0.1,0.2,9.7,-1.5,20.25,3
1250,0.3,-0.2,9.8,-1.4,20.5,3.125
2500,0.5,0.0,9.6,-1.25,20,2.75
3750,0.25,0.125,9.75,-1,19.5,2.5
#window second
10,1,2,3,4,5,6
1260,1,2,3,4,5,6
2510,1,2,3,4,5,6
3760,1,2,3,4,5,6
"""

BLOCK_SIZES = (1, 2, 5, 13, 64)


@pytest.fixture
def reruns(monkeypatch):
    """Patches the parser's block size (``reruns.block(n)``) and counts its
    reruns through the per-line path (``reruns.count``)."""
    class Reruns:
        count = 0

        def block(self, chars):
            monkeypatch.setattr(datasets, "BLOCK_CHARS", chars)

    spy = Reruns()
    per_line = datasets._read_log

    def counted(path):
        spy.count += 1
        return per_line(path)

    monkeypatch.setattr(datasets, "_read_log", counted)
    return spy


def assert_same_outcome(path):
    """The parser's bundles or error equal the per-line reference's."""
    ours = parse_outcome(parse_sensor_log, path)
    expected = parse_outcome(reference_parse_sensor_log, path)
    assert ours[1] == expected[1]
    if expected[1] is None:
        assert_same_bundles(ours[0], expected[0])


def with_line(text, index, line):
    """``text`` with ``line`` inserted before its line ``index`` (0-based)."""
    lines = text.split("\n")
    return "\n".join(lines[:index] + [line] + lines[index:])


class TestBlockReader:
    @pytest.mark.parametrize("log, ids", [(BLOCK_AUDIO_LOG, ["w0", "w 1"]),
                                          (BLOCK_MOTION_LOG, ["first", "second"])],
                             ids=["audio", "motion"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_lines_straddling_block_edges_parse_in_bulk(self, tmp_path, reruns, log, ids,
                                                        newline, final_newline):
        path = tmp_path / "x.log"
        write_text(path, log if final_newline else log.rstrip("\n"), newline)
        for chars in BLOCK_SIZES:
            reruns.block(chars)
            assert_same_outcome(path)
            assert [b.id for b in parse_sensor_log(path)] == ids
        assert reruns.count == 0

    @pytest.mark.parametrize("text", [
        BLOCK_AUDIO_LOG.split("\n")[0], BLOCK_AUDIO_LOG.split("\n")[0] + "\n",
        BLOCK_MOTION_LOG.split("\n")[0] + "\r\n",
    ])
    def test_a_header_only_file_has_no_windows(self, tmp_path, reruns, text):
        path = tmp_path / "x.log"
        path.write_bytes(text.encode("utf-8"))
        for chars in BLOCK_SIZES:
            reruns.block(chars)
            assert parse_sensor_log(path) == []
        assert reruns.count == 0

    @pytest.mark.parametrize("log", [BLOCK_AUDIO_LOG, BLOCK_MOTION_LOG], ids=["audio", "motion"])
    @pytest.mark.parametrize("index, line", [
        (3, ""),                   # blank line: skipped in bulk, no rerun
        (4, " \t "),               # whitespace-only line: the same
        (6, "  #window inner"),    # a '#' that does not start a line
        (3, "0.5 # note"),
        (3, "0.5 #window inner"),
        (3, "#comment"),           # unknown directive
        (1, "#"),
        (6, "#window"),            # empty id
        (6, "#window  \t"),
        (1, "0.5"),                # a sample before #window
    ])
    def test_unusual_lines_are_read_again_per_line(self, tmp_path, reruns, log, index, line):
        path = tmp_path / "x.log"
        write_text(path, with_line(log, index, line))
        for chars in BLOCK_SIZES:
            reruns.block(chars)
            assert_same_outcome(path)
        assert reruns.count == (len(BLOCK_SIZES) if line.strip() else 0)

    @pytest.mark.parametrize("log", [BLOCK_AUDIO_LOG, BLOCK_MOTION_LOG], ids=["audio", "motion"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_anywhere_parse_in_bulk(self, tmp_path, reruns, log, newline):
        # Blank runs after the header, between samples, around #window lines
        # and at the end, so that block edges fall inside and around them.
        lines = log.rstrip("\n").split("\n")
        text = "\n".join(line + "\n \t\n" if i % 2 else line + "\n\n\n"
                         for i, line in enumerate(lines)) + "  \n"
        path = tmp_path / "x.log"
        write_text(path, text, newline)
        for chars in BLOCK_SIZES + (datasets.BLOCK_CHARS,):
            reruns.block(chars)
            assert_same_outcome(path)
        assert reruns.count == 0

    def test_a_trailing_blank_line_costs_no_rerun(self, tmp_path, reruns):
        path = tmp_path / "x.log"
        write_sensor_log(path, [audio_bundle(seed=i, wid=f"w{i}") for i in range(3)])
        path.write_bytes(path.read_bytes() + b"\n")
        assert_same_outcome(path)
        assert reruns.count == 0

    def test_a_window_of_blank_lines_is_still_empty(self, tmp_path, reruns):
        path = tmp_path / "x.log"
        write_text(path, BLOCK_AUDIO_LOG.split("\n")[0] + "\n#window w0\n\n  \n#window w1\n0.5\n")
        assert_same_outcome(path)
        with pytest.raises(ParseError, match="window 'w0' has no samples") as err:
            parse_sensor_log(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("log", [BLOCK_AUDIO_LOG, BLOCK_MOTION_LOG], ids=["audio", "motion"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, reruns, log):
        # The frozen reference parser refuses such a file, so it is compared
        # with the same log written without the mark.
        plain, marked = tmp_path / "plain.log", tmp_path / "marked.log"
        write_text(plain, log)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert_same_bundles(parse_sensor_log(marked), parse_sensor_log(plain))
        assert index_sensor_log(marked) == index_sensor_log(plain)
        assert reruns.count == 0
        assert_same_bundles(datasets._read_log(marked), datasets._read_log(plain))
