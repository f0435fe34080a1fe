"""adlsense: activity and environment recognition from smartphone sensor windows.

The package splits into five layers:

- :mod:`adlsense.signals` / :mod:`adlsense.audio` / :mod:`adlsense.motion` —
  window-level signal processing and the audio (A1-A4) and motion (F1-F5)
  feature recipes.
- :mod:`adlsense.network` — a small from-scratch feedforward network with
  three presets, trained by online SGD, with versioned JSON serialization.
- :mod:`adlsense.datasets` — labeled window bundles, the sensor-log text
  format, CSV feature datasets, and stratified splitting.
- :mod:`adlsense.synth` — deterministic synthetic corpora of acoustic scenes
  and motion activities for experiments and tests.
- :mod:`adlsense.pipeline` — the hierarchical recognizer (environment stage,
  activity stage, standing refinement) with sensor-availability routing.

The ``adlsense`` console script (see :mod:`adlsense.cli`) wraps all of it.
"""

from .audio import AUDIO_VARIANTS, audio_feature_names, audio_feature_vector
from .datasets import (
    DatasetConfig,
    LabeledDataset,
    WindowBundle,
    build_dataset,
    load_dataset,
    parse_sensor_log,
    save_dataset,
    stratified_split,
    write_sensor_log,
)
from .errors import (
    FormatError,
    ParseError,
    TrainingDivergenceError,
    TrainingFailureError,
    UnsupportedSensorsError,
)
from .motion import MOTION_VARIANTS, motion_feature_names, motion_feature_vector
from .network import (
    NetworkConfig,
    NetworkModel,
    apply_normalizer,
    classify,
    evaluate,
    fit_model,
    load_model,
    save_model,
)
from .pipeline import (
    PipelineConfig,
    PipelineModel,
    classify_window,
    load_pipeline,
    route_method,
    routing_table,
    save_pipeline,
    train_pipeline,
)
from .signals import SampleSeries, TriaxialSeries, low_pass, magnitude
from .synth import (
    SynthSpec,
    default_adl_spec,
    default_environment_spec,
    default_standing_spec,
    synth_corpus,
    synth_windows,
)

__version__ = "0.1.0"

__all__ = [
    "AUDIO_VARIANTS",
    "MOTION_VARIANTS",
    "DatasetConfig",
    "FormatError",
    "LabeledDataset",
    "NetworkConfig",
    "NetworkModel",
    "ParseError",
    "PipelineConfig",
    "PipelineModel",
    "SampleSeries",
    "SynthSpec",
    "TrainingDivergenceError",
    "TrainingFailureError",
    "TriaxialSeries",
    "UnsupportedSensorsError",
    "WindowBundle",
    "apply_normalizer",
    "audio_feature_names",
    "audio_feature_vector",
    "build_dataset",
    "classify",
    "classify_window",
    "default_adl_spec",
    "default_environment_spec",
    "default_standing_spec",
    "evaluate",
    "fit_model",
    "load_dataset",
    "load_model",
    "load_pipeline",
    "low_pass",
    "magnitude",
    "motion_feature_names",
    "motion_feature_vector",
    "parse_sensor_log",
    "route_method",
    "routing_table",
    "save_dataset",
    "save_model",
    "save_pipeline",
    "stratified_split",
    "synth_corpus",
    "synth_windows",
    "train_pipeline",
    "write_sensor_log",
]
