"""Hierarchical recognizer: environment stage, activity stage, refinement.

Training produces one audio environment model, one accelerometer-only
activity model, and a family of standing-refinement models (one per usable
motion sensor set, each taking the environment prediction as a one-hot
block). At inference :func:`route_method` picks the recognition method a
window's available sensors support, and :func:`classify_window` runs the
stages that method allows: the environment stage whenever audio is present,
the activity stage whenever the accelerometer is present, and the standing
refinement only when the activity stage says "standing" and audio is there
to disambiguate where the user is standing still.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .audio import AUDIO_VARIANTS, audio_feature_vector
from .datasets import DatasetConfig, WindowBundle, build_dataset
from .errors import FormatError, TrainingFailureError, UnsupportedSensorsError
from .motion import MOTION_VARIANTS, motion_feature_names, motion_feature_vector
from .network import (
    NetworkConfig,
    NetworkModel,
    apply_normalizer,
    classify,
    evaluate,
    fit_model,
    model_from_dict,
    model_to_dict,
)
from .signals import DEFAULT_LOW_PASS_ALPHA

PIPELINE_FORMAT_VERSION = 1
SENSOR_UNIVERSE = ("ACC", "MAG", "GYRO", "MIC")

# The motion sensor combinations a standing-refinement model exists for.
STANDING_SENSOR_SETS = (("ACC",), ("ACC", "MAG"), ("ACC", "MAG", "GYRO"))


@dataclass(frozen=True)
class Method:
    """One recognition route: which channels it consumes."""

    id: str
    motion_sensors: tuple
    uses_audio: bool


def route_method(available) -> Method:
    """The recognition method supported by a set of available sensors.

    The accelerometer anchors all motion methods; the magnetometer only
    contributes alongside it, and the gyroscope only alongside both. A window
    with neither accelerometer nor microphone supports no method at all.
    """
    sensors = set()
    for name in available:
        if name not in SENSOR_UNIVERSE:
            raise ValueError(f"unknown sensor {name!r}, expected one of {SENSOR_UNIVERSE}")
        sensors.add(name)
    has_audio = "MIC" in sensors
    if "ACC" not in sensors:
        if not has_audio:
            raise UnsupportedSensorsError(
                f"sensors {sorted(sensors)} support no recognition method"
            )
        return Method("audio_env", (), True)
    motion = ["ACC"]
    if "MAG" in sensors:
        motion.append("MAG")
        if "GYRO" in sensors:
            motion.append("GYRO")
    suffix = "_".join(s.lower() for s in motion)
    if has_audio:
        return Method(f"fusion_{suffix}", tuple(motion), True)
    return Method(f"motion_{suffix}", tuple(motion), False)


def routing_table() -> dict:
    """Method id (or None) for every subset of the sensor universe."""
    table = {}
    for mask in range(2 ** len(SENSOR_UNIVERSE)):
        subset = tuple(s for i, s in enumerate(SENSOR_UNIVERSE) if mask >> i & 1)
        try:
            table[subset] = route_method(subset).id
        except UnsupportedSensorsError:
            table[subset] = None
    return table


@dataclass(frozen=True)
class PipelineConfig:
    """Seeds, feature recipes, and budgets for the three training stages."""

    seed: int = 42
    env_variant: str = "A1"
    motion_variant: str = "F1"
    env_iterations: int = 2_000_000
    adl_iterations: int = 1_000_000
    standing_iterations: int = 1_000_000
    learning_rate: float = 0.01
    min_train_accuracy: float = 0.5
    refine_label: str = "standing"
    low_pass_alpha: float = DEFAULT_LOW_PASS_ALPHA

    def __post_init__(self):
        if self.env_variant not in AUDIO_VARIANTS:
            raise ValueError(f"env_variant must be one of {AUDIO_VARIANTS}")
        if self.motion_variant not in MOTION_VARIANTS:
            raise ValueError(f"motion_variant must be one of {MOTION_VARIANTS}")
        for name in ("env_iterations", "adl_iterations", "standing_iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.min_train_accuracy <= 1.0:
            raise ValueError("min_train_accuracy must be in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class PipelineModel:
    """The trained three-stage recognizer."""

    config: PipelineConfig
    env_model: NetworkModel
    adl_model: NetworkModel
    standing_models: dict  # "ACC" / "ACC+MAG" / "ACC+MAG+GYRO" -> NetworkModel


@dataclass
class RecognitionResult:
    """What one window was recognized as, and through which method."""

    window_id: str
    method: str
    adl: str | None
    environment: str | None
    scores: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "window_id": self.window_id,
            "method": self.method,
            "adl": self.adl,
            "environment": self.environment,
            "scores": self.scores,
        }


def _fit_stage(stage, preset, dataset, config, iterations, **overrides):
    net_config = NetworkConfig.from_preset(
        preset,
        seed=config.seed,
        learning_rate=config.learning_rate,
        iteration_budget=iterations,
        **overrides,
    )
    model, _ = fit_model(net_config, dataset.rows, dataset.labels,
                         label_names=dataset.label_names)
    normalized = apply_normalizer(model.normalizer, dataset.rows)
    report = evaluate(model, normalized, dataset.labels)
    if report.accuracy < config.min_train_accuracy:
        raise TrainingFailureError(
            stage,
            f"training accuracy {report.accuracy:.3f} is below the "
            f"required {config.min_train_accuracy:.3f}",
        )
    return model


def train_pipeline(env_bundles, adl_bundles, standing_bundles,
                   config: PipelineConfig | None = None) -> PipelineModel:
    """Train all three stages from their corpora.

    ``env_bundles`` must carry audio, ``adl_bundles`` accelerometer data, and
    ``standing_bundles`` all three motion sensors plus audio (the refinement
    models consume the environment stage's prediction, so the environment
    model is trained first and then run over the standing corpus). A stage
    whose training accuracy ends below ``config.min_train_accuracy`` raises
    :class:`TrainingFailureError` naming the stage.
    """
    if config is None:
        config = PipelineConfig()

    env_dataset = build_dataset(env_bundles, config.env_variant)
    env_model = _fit_stage("environment", "FEEDFORWARD", env_dataset, config,
                           config.env_iterations, normalization="NONE")

    adl_dataset = build_dataset(
        adl_bundles, config.motion_variant,
        cfg=DatasetConfig(sensors=("ACC",), low_pass_alpha=config.low_pass_alpha),
    )
    adl_model = _fit_stage("adl", "DEEP", adl_dataset, config, config.adl_iterations)

    # Each window's features are computed once, for the widest sensor set; the
    # narrower sets' datasets are column selections of it.
    standing = build_dataset(
        standing_bundles, config.motion_variant, env_source=env_model,
        cfg=DatasetConfig(
            env_mode="predicted", sensors=STANDING_SENSOR_SETS[-1],
            low_pass_alpha=config.low_pass_alpha,
            env_audio_variant=config.env_variant,
        ),
    )
    standing_models = {}
    for sensors in STANDING_SENSOR_SETS:
        key = "+".join(sensors)
        wanted = set(motion_feature_names(sensors, config.motion_variant, env_model.labels))
        cols = [i for i, name in enumerate(standing.feature_names) if name in wanted]
        # A C-ordered copy keeps the normalizer's column sums bit-equal to a
        # dataset built for this sensor set alone.
        dataset = replace(standing, feature_names=[standing.feature_names[i] for i in cols],
                          rows=np.ascontiguousarray(standing.rows[:, cols]))
        standing_models[key] = _fit_stage(f"standing[{key}]", "DEEP", dataset,
                                          config, config.standing_iterations)
    return PipelineModel(config=config, env_model=env_model, adl_model=adl_model,
                         standing_models=standing_models)


def classify_window(pipeline: PipelineModel, bundle: WindowBundle) -> RecognitionResult:
    """Recognize one window through whatever method its sensors support."""
    config = pipeline.config
    method = route_method(bundle.sensors)
    scores: dict = {}

    environment = None
    if method.uses_audio:
        features = audio_feature_vector(bundle.audio, config.env_variant)
        environment, env_scores = classify(pipeline.env_model, features)
        scores["environment"] = _score_map(pipeline.env_model.labels, env_scores)

    adl = None
    if method.motion_sensors:
        acc_features = motion_feature_vector(
            {"ACC": bundle.motion["ACC"]}, config.motion_variant,
            alpha=config.low_pass_alpha,
        )
        adl, adl_scores = classify(pipeline.adl_model, acc_features)
        scores["adl"] = _score_map(pipeline.adl_model.labels, adl_scores)

        if adl == config.refine_label and method.uses_audio:
            key = "+".join(method.motion_sensors)
            refiner = pipeline.standing_models[key]
            env_labels = pipeline.env_model.labels
            one_hot = np.zeros(len(env_labels))
            one_hot[env_labels.index(environment)] = 1.0
            # ACC leads every route, so only the other sensors' blocks are new.
            blocks = [acc_features]
            others = {s: bundle.motion[s] for s in method.motion_sensors[1:]}
            if others:
                blocks.append(motion_feature_vector(others, config.motion_variant,
                                                    alpha=config.low_pass_alpha))
            features = np.concatenate(blocks + [one_hot])
            adl, standing_scores = classify(refiner, features)
            scores["standing"] = _score_map(refiner.labels, standing_scores)

    return RecognitionResult(
        window_id=bundle.id, method=method.id, adl=adl,
        environment=environment, scores=scores,
    )


def _score_map(labels, scores):
    return {label: float(value) for label, value in zip(labels, scores)}


# ---------------------------------------------------------------------------
# Serialization


def pipeline_to_dict(pipeline: PipelineModel) -> dict:
    return {
        "format_version": PIPELINE_FORMAT_VERSION,
        "kind": "adl-pipeline",
        "config": asdict(pipeline.config),
        "env_model": model_to_dict(pipeline.env_model),
        "adl_model": model_to_dict(pipeline.adl_model),
        "standing_models": {
            key: model_to_dict(model)
            for key, model in pipeline.standing_models.items()
        },
    }


def pipeline_from_dict(doc: dict) -> PipelineModel:
    if not isinstance(doc, dict):
        raise FormatError("pipeline document must be a JSON object")
    if doc.get("format_version") != PIPELINE_FORMAT_VERSION:
        raise FormatError(
            f"unsupported pipeline format_version {doc.get('format_version')!r}"
        )
    if doc.get("kind") != "adl-pipeline":
        raise FormatError(f"unexpected document kind {doc.get('kind')!r}")
    for key in ("config", "env_model", "adl_model", "standing_models"):
        if key not in doc:
            raise FormatError(f"pipeline document is missing {key!r}")
    try:
        raw = dict(doc["config"])
        config = PipelineConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad pipeline config: {exc}") from exc
    expected_keys = {"+".join(s) for s in STANDING_SENSOR_SETS}
    if set(doc["standing_models"]) != expected_keys:
        raise FormatError(
            f"standing_models must have keys {sorted(expected_keys)}, "
            f"got {sorted(doc['standing_models'])}"
        )
    return PipelineModel(
        config=config,
        env_model=model_from_dict(doc["env_model"]),
        adl_model=model_from_dict(doc["adl_model"]),
        standing_models={
            key: model_from_dict(sub) for key, sub in doc["standing_models"].items()
        },
    )


def pipeline_to_json(pipeline: PipelineModel) -> str:
    return json.dumps(pipeline_to_dict(pipeline), sort_keys=True, indent=None)


def save_pipeline(pipeline: PipelineModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pipeline_to_json(pipeline) + "\n")


def load_pipeline(path) -> PipelineModel:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return pipeline_from_dict(doc)
