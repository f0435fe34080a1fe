"""Window bundles, log parsing, dataset assembly, splitting, CSV round-trips."""

import tracemalloc

import numpy as np
import pytest

from adlsense.audio import audio_feature_names, audio_feature_vector
from adlsense.datasets import (
    DatasetConfig,
    LabeledDataset,
    WindowBundle,
    build_dataset,
    infer_variant,
    load_dataset,
    parse_sensor_log,
    save_dataset,
    stratified_split,
    write_sensor_log,
)
from adlsense.errors import FormatError, ParseError
from adlsense.motion import motion_feature_names, motion_feature_vector
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

    def test_parse_peak_memory_tracks_the_parsed_arrays(self, tmp_path):
        bundles = [
            WindowBundle(id=f"w{i}", label="bar", label_kind="ENVIRONMENT",
                         audio=audio_series(i, count=40_000))
            for i in range(8)
        ]
        path = tmp_path / "long.log"
        write_sensor_log(path, bundles)
        tracemalloc.start()
        try:
            back = parse_sensor_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for orig, parsed in zip(bundles, back):
            np.testing.assert_array_equal(parsed.audio.values, orig.audio.values)
        parsed_bytes = sum(b.audio.values.nbytes for b in back)
        assert peak < 3 * parsed_bytes, f"peak {peak / parsed_bytes:.1f}x the parsed arrays"

    def test_mixed_labels_refused_on_write(self, tmp_path):
        bundles = [audio_bundle("bar", 0), audio_bundle("gym", 1)]
        with pytest.raises(ValueError, match="header fields"):
            write_sensor_log(tmp_path / "x.log", bundles)
