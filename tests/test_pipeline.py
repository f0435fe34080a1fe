"""Routing, staged training, window classification, pipeline serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

import adlsense.datasets
import adlsense.motion
import adlsense.pipeline
from adlsense.datasets import DatasetConfig, WindowBundle, build_dataset
from adlsense.errors import FormatError, TrainingFailureError, UnsupportedSensorsError
from adlsense.pipeline import (
    STANDING_SENSOR_SETS,
    PipelineConfig,
    classify_window,
    load_pipeline,
    pipeline_from_dict,
    pipeline_to_dict,
    pipeline_to_json,
    route_method,
    routing_table,
    save_pipeline,
    train_pipeline,
)
from adlsense.synth import (
    DEFAULT_STANDING,
    default_adl_spec,
    default_environment_spec,
    default_standing_spec,
    synth_corpus,
    synth_windows,
)
from adlsense.network import fit_normalizer

ALL_SENSORS = ("ACC", "MAG", "GYRO", "MIC")

EXPECTED_ROUTES = {
    (): None,
    ("ACC",): "motion_acc",
    ("MAG",): None,
    ("GYRO",): None,
    ("MIC",): "audio_env",
    ("ACC", "MAG"): "motion_acc_mag",
    ("ACC", "GYRO"): "motion_acc",
    ("ACC", "MIC"): "fusion_acc",
    ("MAG", "GYRO"): None,
    ("MAG", "MIC"): "audio_env",
    ("GYRO", "MIC"): "audio_env",
    ("ACC", "MAG", "GYRO"): "motion_acc_mag_gyro",
    ("ACC", "MAG", "MIC"): "fusion_acc_mag",
    ("ACC", "GYRO", "MIC"): "fusion_acc",
    ("MAG", "GYRO", "MIC"): "audio_env",
    ("ACC", "MAG", "GYRO", "MIC"): "fusion_acc_mag_gyro",
}


class TestRouting:
    def test_every_subset_routes_as_expected(self):
        for subset, expected in EXPECTED_ROUTES.items():
            if expected is None:
                with pytest.raises(UnsupportedSensorsError):
                    route_method(subset)
            else:
                assert route_method(subset).id == expected, subset

    def test_exactly_four_subsets_are_unsupported(self):
        unsupported = [s for s, m in routing_table().items() if m is None]
        assert sorted(unsupported) == [(), ("GYRO",), ("MAG",), ("MAG", "GYRO")]

    def test_adding_a_sensor_never_removes_capability(self):
        for subset, expected in EXPECTED_ROUTES.items():
            if expected is None:
                continue
            before = route_method(subset)
            for extra in ALL_SENSORS:
                if extra in subset:
                    continue
                after = route_method(subset + (extra,))
                assert set(before.motion_sensors) <= set(after.motion_sensors)
                assert before.uses_audio <= after.uses_audio

    def test_method_channels(self):
        method = route_method(("ACC", "GYRO", "MIC"))
        assert method.motion_sensors == ("ACC",)
        assert method.uses_audio

    def test_unknown_sensor_name(self):
        with pytest.raises(ValueError, match="unknown sensor"):
            route_method(("ACC", "BARO"))


@pytest.fixture(scope="module")
def trained():
    config = PipelineConfig(
        seed=7,
        env_iterations=60_000,
        adl_iterations=30_000,
        standing_iterations=20_000,
    )
    return train_pipeline(
        synth_windows(default_environment_spec(12, seed=101)),
        synth_windows(default_adl_spec(10, seed=102)),
        synth_corpus(default_standing_spec(10, seed=103)),
        config,
    )


# Budgets small enough to train in about a second; no accuracy floor.
QUICK = PipelineConfig(seed=7, env_iterations=3_000, adl_iterations=0, standing_iterations=0,
                       min_train_accuracy=0.0)


def quick_corpora():
    # Ten standing rows, so a column sum takes numpy's pairwise path.
    return (synth_corpus(default_environment_spec(2, seed=41)),
            synth_corpus(default_adl_spec(2, seed=42)),
            synth_corpus(default_standing_spec(5, seed=43)))


def count_calls(monkeypatch, name, *modules):
    """A list that gains one entry per call of ``name`` through any of ``modules``."""
    calls = []
    for module in modules:
        def spy(*args, real=getattr(module, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def fresh_env_windows(n=1, seed=201):
    return synth_corpus(default_environment_spec(n, seed=seed))


def fresh_adl_windows(n=1, seed=202):
    return synth_corpus(default_adl_spec(n, seed=seed, with_audio=True))


def fresh_standing_windows(n=1, seed=203):
    return synth_corpus(default_standing_spec(n, seed=seed))


def restrict(bundle, sensors):
    return WindowBundle(
        id=bundle.id,
        label=bundle.label,
        label_kind=bundle.label_kind,
        audio=bundle.audio if "MIC" in sensors else None,
        motion={s: bundle.motion[s] for s in sensors if s != "MIC"} or None,
        environment=bundle.environment,
    )


class TestTrainPipeline:
    def test_stage_models_exist_with_expected_labels(self, trained):
        assert len(trained.env_model.labels) == 9
        assert trained.adl_model.labels == sorted(
            ["running", "walking", "going upstairs", "going downstairs", "standing"]
        )
        assert set(trained.standing_models) == {"ACC", "ACC+MAG", "ACC+MAG+GYRO"}
        for model in trained.standing_models.values():
            assert model.labels == ["sleeping", "watching TV"]

    def test_stage_inputs_have_expected_widths(self, trained):
        assert trained.env_model.layer_sizes[0] == 32
        assert trained.adl_model.layer_sizes[0] == 15
        widths = {k: m.layer_sizes[0] for k, m in trained.standing_models.items()}
        assert widths == {"ACC": 24, "ACC+MAG": 39, "ACC+MAG+GYRO": 54}

    def test_environment_stage_generalizes(self, trained):
        windows = fresh_env_windows(4)
        correct = sum(
            classify_window(trained, b).environment == b.label for b in windows
        )
        assert correct / len(windows) >= 0.8

    def test_audio_features_computed_once_per_window(self, monkeypatch):
        calls = count_calls(monkeypatch, "audio_feature_vector",
                            adlsense.pipeline, adlsense.datasets)
        env, adl, standing = quick_corpora()
        train_pipeline(env, adl, standing, QUICK)
        assert len(calls) == len(env) + len(standing)

    def test_standing_datasets_match_per_set_builds(self, monkeypatch):
        fitted, grouped = [], []
        real_fit, real_group_fit = adlsense.pipeline.fit_model, adlsense.pipeline.fit_models

        def spy(config, rows, labels, **kwargs):
            fitted.append(rows)
            return real_fit(config, rows, labels, **kwargs)

        def group_spy(config, row_sets, labels, **kwargs):
            grouped.append(row_sets)
            return real_group_fit(config, row_sets, labels, **kwargs)

        monkeypatch.setattr(adlsense.pipeline, "fit_model", spy)
        monkeypatch.setattr(adlsense.pipeline, "fit_models", group_spy)
        env, adl, standing = quick_corpora()
        pipeline = train_pipeline(env, adl, standing, QUICK)
        assert len(fitted) == 2
        assert len(grouped) == 1 and len(grouped[0]) == len(STANDING_SENSOR_SETS)
        for sensors, rows in zip(STANDING_SENSOR_SETS, grouped[0]):
            alone = build_dataset(standing, QUICK.motion_variant, env_source=pipeline.env_model,
                                  cfg=DatasetConfig(env_mode="predicted", sensors=sensors))
            assert rows.shape == alone.rows.shape
            assert rows.tobytes() == alone.rows.tobytes()
            ours, theirs = fit_normalizer("ZSCORE", rows), fit_normalizer("ZSCORE", alone.rows)
            for key in ("mean", "std"):
                assert ours.params[key].tobytes() == theirs.params[key].tobytes(), (sensors, key)

    def test_standing_failure_names_the_first_failing_sensor_set(self, monkeypatch):
        real_evaluate = adlsense.pipeline.evaluate
        widths = []

        def rigged(model, rows, labels):
            # Every stage passes except the refiners after the first one.
            report = real_evaluate(model, rows, labels)
            if model.labels == sorted(DEFAULT_STANDING):
                widths.append(model.layer_sizes[0])
            report.accuracy = 0.0 if len(widths) > 1 else 1.0
            return report

        monkeypatch.setattr(adlsense.pipeline, "evaluate", rigged)
        with pytest.raises(TrainingFailureError) as err:
            train_pipeline(*quick_corpora(), replace(QUICK, min_train_accuracy=0.5))
        assert err.value.stage == "standing[ACC+MAG]"
        assert len(widths) == 2 and widths[0] < widths[1]

    def test_low_budget_environment_stage_fails_loudly(self):
        config = PipelineConfig(seed=7, env_iterations=0)
        with pytest.raises(TrainingFailureError) as err:
            train_pipeline(
                synth_windows(default_environment_spec(4, seed=31)),
                synth_windows(default_adl_spec(4, seed=32)),
                synth_corpus(default_standing_spec(4, seed=33)),
                config,
            )
        assert err.value.stage == "environment"

    def test_low_budget_adl_stage_fails_loudly(self):
        config = PipelineConfig(seed=7, env_iterations=30_000, adl_iterations=0)
        with pytest.raises(TrainingFailureError) as err:
            train_pipeline(
                synth_windows(default_environment_spec(4, seed=31)),
                synth_windows(default_adl_spec(4, seed=32)),
                synth_corpus(default_standing_spec(4, seed=33)),
                config,
            )
        assert err.value.stage == "adl"


class TestClassifyWindow:
    def test_motion_only_walking(self, trained):
        bundle = next(b for b in fresh_adl_windows(2) if b.label == "walking")
        result = classify_window(trained, restrict(bundle, ("ACC", "MAG", "GYRO")))
        assert result.method == "motion_acc_mag_gyro"
        assert result.environment is None
        assert result.adl == "walking"
        assert set(result.scores) == {"adl"}

    def test_acc_only_running(self, trained):
        bundle = next(b for b in fresh_adl_windows(2) if b.label == "running")
        result = classify_window(trained, restrict(bundle, ("ACC",)))
        assert result.method == "motion_acc"
        assert result.adl == "running"

    def test_audio_only_window(self, trained):
        bundle = fresh_env_windows(1)[0]
        result = classify_window(trained, bundle)
        assert result.method == "audio_env"
        assert result.adl is None
        assert result.environment in trained.env_model.labels
        assert set(result.scores) == {"environment"}

    def test_standing_refinement_full_chain(self, trained):
        windows = fresh_standing_windows(3)
        refined = [classify_window(trained, b) for b in windows]
        assert all(r.method == "fusion_acc_mag_gyro" for r in refined)
        hits = sum(r.adl == b.label for r, b in zip(refined, windows))
        assert hits / len(windows) >= 0.8
        assert any("standing" in r.scores for r in refined)

    def test_refined_window_computes_each_sensor_block_once(self, trained, monkeypatch):
        bundle = fresh_standing_windows(1)[0]
        adl_scores = classify_window(trained, bundle).scores["adl"]
        # Refine whatever the activity stage says, so this window is refined.
        pipeline = replace(trained, config=replace(
            trained.config, refine_label=max(adl_scores, key=adl_scores.get)))
        calls = count_calls(monkeypatch, "low_pass", adlsense.motion)
        result = classify_window(pipeline, bundle)
        assert result.method == "fusion_acc_mag_gyro"
        assert "standing" in result.scores
        assert len(calls) == 9  # three axes of ACC, MAG and GYRO

    def test_refinement_uses_the_matching_sensor_set(self, trained):
        bundle = fresh_standing_windows(1)[0]
        result = classify_window(trained, restrict(bundle, ("ACC", "MIC")))
        assert result.method == "fusion_acc"
        if "standing" in result.scores:
            assert set(result.scores["standing"]) == {"sleeping", "watching TV"}

    def test_non_standing_fusion_window_skips_refinement(self, trained):
        bundle = next(b for b in fresh_adl_windows(2) if b.label == "running")
        result = classify_window(trained, bundle)
        assert result.method == "fusion_acc_mag_gyro"
        assert result.adl == "running"
        assert "standing" not in result.scores

    def test_unsupported_sensors_raise(self, trained):
        bundle = fresh_adl_windows(1)[0]
        with pytest.raises(UnsupportedSensorsError):
            classify_window(trained, restrict(bundle, ("GYRO",)))

    def test_result_serializes_to_json(self, trained):
        result = classify_window(trained, fresh_adl_windows(1)[0])
        text = json.dumps(result.to_dict(), sort_keys=True)
        assert result.window_id in text


class TestPipelineSerialization:
    def test_round_trip_is_byte_identical(self, trained, tmp_path):
        path = tmp_path / "pipeline.json"
        save_pipeline(trained, path)
        loaded = load_pipeline(path)
        assert pipeline_to_json(loaded) == pipeline_to_json(trained)

    def test_round_trip_preserves_predictions(self, trained, tmp_path):
        path = tmp_path / "pipeline.json"
        save_pipeline(trained, path)
        loaded = load_pipeline(path)
        for bundle in fresh_standing_windows(2) + fresh_adl_windows(1):
            a = classify_window(trained, bundle)
            b = classify_window(loaded, bundle)
            assert a.to_dict() == b.to_dict()

    def test_config_survives_round_trip(self, trained, tmp_path):
        path = tmp_path / "pipeline.json"
        save_pipeline(trained, path)
        assert load_pipeline(path).config == trained.config

    def test_bad_version_rejected(self, trained):
        doc = pipeline_to_dict(trained)
        doc["format_version"] = 99
        with pytest.raises(FormatError, match="format_version"):
            pipeline_from_dict(doc)

    def test_bad_kind_rejected(self, trained):
        doc = pipeline_to_dict(trained)
        doc["kind"] = "model"
        with pytest.raises(FormatError, match="kind"):
            pipeline_from_dict(doc)

    def test_missing_stage_rejected(self, trained):
        doc = pipeline_to_dict(trained)
        del doc["adl_model"]
        with pytest.raises(FormatError, match="adl_model"):
            pipeline_from_dict(doc)

    def test_missing_standing_key_rejected(self, trained):
        doc = pipeline_to_dict(trained)
        del doc["standing_models"]["ACC"]
        with pytest.raises(FormatError, match="standing_models"):
            pipeline_from_dict(doc)

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "pipeline.json"
        path.write_text("{broken")
        with pytest.raises(FormatError, match="JSON"):
            load_pipeline(path)

    def test_standing_sensor_sets_are_nested(self):
        for shorter, longer in zip(STANDING_SENSOR_SETS, STANDING_SENSOR_SETS[1:]):
            assert set(shorter) < set(longer)
