"""Command-line entry point for reproducible corpus/model/pipeline runs.

Every command that writes an artifact also writes a manifest JSON next to it
recording the command, the fully resolved configuration, the seed, input and
output paths, and a sha256 per output file. Manifests contain no timestamps,
so re-running a command with identical inputs and flags produces
byte-identical artifacts and manifests.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 training
failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .audio import AUDIO_VARIANTS, audio_feature_names
from .datasets import (
    DatasetConfig,
    build_dataset,
    load_dataset,
    merge_bundles,
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
from .motion import MOTION_SENSOR_ORDER, MOTION_VARIANTS
from .network import (
    NetworkConfig,
    apply_normalizer,
    evaluate,
    fit_model,
    load_model,
    save_model,
)
from .pipeline import (
    PipelineConfig,
    classify_window,
    load_pipeline,
    save_pipeline,
    train_pipeline,
)
from .synth import (
    DEFAULT_ADL_PARAMS,
    DEFAULT_ADLS,
    DEFAULT_ENV_PARAMS,
    DEFAULT_ENVIRONMENTS,
    DEFAULT_STANDING_PARAMS,
    AdlParams,
    EnvParams,
    SynthSpec,
    synth_windows,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

PRESET_CHOICES = ("mlp", "feedforward", "deep")
NORMALIZE_CHOICES = ("none", "minmax", "zscore")
ALL_VARIANTS = AUDIO_VARIANTS + MOTION_VARIANTS


class UsageError(Exception):
    """Bad flags or a bad config file: the caller must fix the invocation."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingFailureError, TrainingDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ValueError as exc:
        # Library-level validation failures are data errors by the time the
        # flags themselves have parsed.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adlsense",
        description="Recognize activities and environments from sensor windows.",
    )
    parser.add_argument("--version", action="version", version=f"adlsense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a corpus of raw log files")
    p.add_argument("--config", required=True, help="corpus spec file (INI)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("extract", help="turn raw logs into a feature CSV")
    p.add_argument("logs", nargs="+", help="raw log files or directories of them")
    p.add_argument("--variant", required=True, choices=ALL_VARIANTS)
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--sensors", help="motion sensors to use, e.g. ACC,MAG")
    p.add_argument("--env-model", help="trained environment model for the env block")
    p.add_argument("--oracle-env", action="store_true",
                   help="build the env block from ground-truth annotations")
    p.add_argument("--no-env", action="store_true", help="omit the env block")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("train", help="train one network on a dataset CSV")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--preset", required=True, choices=PRESET_CHOICES)
    p.add_argument("--normalize", choices=NORMALIZE_CHOICES,
                   help="override the preset's normalizer")
    p.add_argument("--iterations", type=int, help="training iteration budget")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="hold out this fraction for the reported accuracy")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset CSV")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--report", choices=("table", "json"), default="table")
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="train a grid of models over a corpus")
    p.add_argument("corpus", help="directory of raw log files")
    p.add_argument("--config", required=True, help="grid file (INI)")
    p.add_argument("--out", required=True, help="output results CSV")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("pipeline", help="train or run the hierarchical recognizer")
    pipe = p.add_subparsers(dest="pipeline_command", required=True)

    q = pipe.add_parser("train", help="train all pipeline stages")
    q.add_argument("--env-logs", required=True, help="environment corpus (dir or file)")
    q.add_argument("--adl-logs", required=True, help="activity corpus (dir or file)")
    q.add_argument("--standing-logs", required=True, help="standing corpus (dir or file)")
    q.add_argument("--config", help="pipeline settings file (INI)")
    q.add_argument("--out", required=True, help="output pipeline JSON")
    q.add_argument("--seed", type=int, default=42)
    q.set_defaults(handler=cmd_pipeline_train)

    q = pipe.add_parser("run", help="classify raw log windows")
    q.add_argument("logs", nargs="+", help="raw log files or directories of them")
    q.add_argument("--pipeline", required=True, help="pipeline JSON")
    q.add_argument("--out", help="results file (JSON lines); default stdout")
    q.add_argument("--seed", type=int, default=42)
    q.set_defaults(handler=cmd_pipeline_run)

    return parser


# ---------------------------------------------------------------------------
# Helpers


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}") from exc
    return parser


def _split_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_bundles(paths):
    bundles = []
    for path in paths:
        bundles.extend(parse_sensor_log(path))
    return merge_bundles(bundles)


def _log_paths(root) -> list:
    root = Path(root)
    if root.is_dir():
        paths = sorted(root.glob("*.log"))
        if not paths:
            raise UsageError(f"no .log files in {root}")
        return paths
    if root.exists():
        return [root]
    raise UsageError(f"no such file or directory: {root}")


def _expand_logs(inputs) -> list:
    paths = []
    for item in inputs:
        paths.extend(_log_paths(item))
    return paths


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(manifest_path, command, config, inputs, outputs, seed):
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in label)


# ---------------------------------------------------------------------------
# synth


def _load_synth_spec(path, seed) -> SynthSpec:
    ini = _read_ini(path)
    if not ini.has_section("corpus"):
        raise UsageError(f"{path}: spec needs a [corpus] section")
    section = ini["corpus"]
    kind = section.get("kind", "").strip()
    if kind not in ("ENVIRONMENT", "ADL"):
        raise UsageError(f"{path}: kind must be ENVIRONMENT or ADL, got {kind!r}")
    try:
        windows = section.getint("windows_per_label")
    except ValueError as exc:
        raise UsageError(f"{path}: bad windows_per_label: {exc}") from exc
    if windows is None:
        raise UsageError(f"{path}: windows_per_label is required")
    try:
        with_audio = section.getboolean("with_audio", fallback=False)
    except ValueError as exc:
        raise UsageError(f"{path}: bad with_audio: {exc}") from exc

    if kind == "ENVIRONMENT":
        defaults = dict(DEFAULT_ENV_PARAMS)
        default_labels = DEFAULT_ENVIRONMENTS
    else:
        defaults = {**DEFAULT_ADL_PARAMS, **DEFAULT_STANDING_PARAMS}
        default_labels = DEFAULT_ADLS
    labels = _split_list(section.get("labels", "")) or list(default_labels)

    params = {}
    for label in labels:
        section_name = f"label:{label}"
        if ini.has_section(section_name):
            params[label] = _label_params(path, kind, ini[section_name])
        elif label in defaults:
            params[label] = defaults[label]
        else:
            raise UsageError(
                f"{path}: label {label!r} has no [label:{label}] section and no default"
            )
    try:
        return SynthSpec(kind, tuple(labels), windows, params, seed, with_audio)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _label_params(path, kind, section):
    try:
        if kind == "ENVIRONMENT":
            bands = []
            for token in _split_list(section.get("bands", "")):
                center, width, gain = token.split(":")
                bands.append((float(center), float(width), float(gain)))
            return EnvParams(
                tilt=section.getfloat("tilt"),
                amplitude=section.getfloat("amplitude"),
                bands=tuple(bands),
            )
        return AdlParams(
            frequency_hz=section.getfloat("frequency_hz"),
            amplitude=section.getfloat("amplitude"),
            noise_std=section.getfloat("noise_std"),
            environment=section.get("environment", ""),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad [{section.name}] section: {exc}") from exc


def _spec_to_config(spec: SynthSpec) -> dict:
    return {
        "kind": spec.kind,
        "labels": list(spec.labels),
        "windows_per_label": spec.windows_per_label,
        "with_audio": spec.with_audio,
        "params": {label: asdict(spec.params[label]) for label in spec.labels},
    }


def cmd_synth(args) -> int:
    spec = _load_synth_spec(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    buffered_label = None
    buffer = []

    def flush():
        nonlocal buffer
        if not buffer:
            return
        slug = _slug(buffered_label)
        if buffer[0].motion is not None:
            motion_path = out_dir / f"{slug}-motion.log"
            write_sensor_log(motion_path, [b.channel_view("motion") for b in buffer])
            outputs.append(motion_path)
            if buffer[0].audio is not None:
                audio_path = out_dir / f"{slug}-audio.log"
                write_sensor_log(audio_path, [b.channel_view("audio") for b in buffer])
                outputs.append(audio_path)
        else:
            path = out_dir / f"{slug}.log"
            write_sensor_log(path, buffer)
            outputs.append(path)
        buffer = []

    for bundle in synth_windows(spec):
        if bundle.label != buffered_label:
            flush()
            buffered_label = bundle.label
        buffer.append(bundle)
    flush()

    _write_manifest(out_dir / "manifest.json", "synth", _spec_to_config(spec),
                    [args.config], outputs, args.seed)
    print(f"wrote {len(outputs)} log file(s) to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args) -> int:
    variant = args.variant
    env_flags = [args.env_model is not None, args.oracle_env, args.no_env]
    if variant in AUDIO_VARIANTS:
        if any(env_flags) or args.sensors:
            raise UsageError(f"audio variant {variant} takes neither --sensors nor env flags")
        cfg = DatasetConfig()
        env_source = None
    else:
        if sum(env_flags) != 1:
            raise UsageError(
                f"fusion variant {variant} needs exactly one environment source: "
                "--env-model PATH, --oracle-env, or --no-env"
            )
        sensors = _parse_sensors(args.sensors) if args.sensors else None
        env_source = None
        if args.env_model is not None:
            env_source = load_model(args.env_model)
            cfg = DatasetConfig(
                env_mode="predicted", sensors=sensors,
                env_audio_variant=_audio_variant_for_model(env_source),
            )
        elif args.oracle_env:
            cfg = DatasetConfig(env_mode="oracle", sensors=sensors, env_labels=())
        else:
            cfg = DatasetConfig(env_mode="none", sensors=sensors)

    log_paths = _expand_logs(args.logs)
    bundles = _load_bundles(log_paths)
    if not bundles:
        raise UsageError("the input logs contain no windows")
    if cfg.env_mode == "oracle":
        env_labels = sorted({b.known_environment for b in bundles} - {None})
        if not env_labels:
            raise UsageError("--oracle-env needs environment annotations in the logs")
        cfg = DatasetConfig(env_mode="oracle", sensors=cfg.sensors, env_labels=env_labels)

    dataset = build_dataset(bundles, variant, env_source=env_source, cfg=cfg)
    save_dataset(dataset, args.out)
    config = {
        "variant": variant,
        "env_mode": cfg.env_mode,
        "sensors": list(cfg.sensors) if cfg.sensors else None,
        "env_labels": list(cfg.env_labels),
        "env_model": args.env_model,
        "rows": len(dataset),
        "features": len(dataset.feature_names),
    }
    _write_manifest(f"{args.out}.manifest.json", "extract", config,
                    log_paths + ([args.env_model] if args.env_model else []),
                    [Path(args.out)], args.seed)
    print(f"wrote {len(dataset)} rows x {len(dataset.feature_names)} features to {args.out}")
    return EXIT_OK


def _parse_sensors(text):
    requested = {part.strip().upper() for part in text.replace("+", ",").split(",") if part.strip()}
    unknown = requested - set(MOTION_SENSOR_ORDER)
    if unknown:
        raise UsageError(f"unknown sensors: {sorted(unknown)}")
    return tuple(s for s in MOTION_SENSOR_ORDER if s in requested)


def _audio_variant_for_model(model):
    widths = {len(audio_feature_names(v)): v for v in AUDIO_VARIANTS}
    width = model.layer_sizes[0]
    if width not in widths:
        raise UsageError(
            f"--env-model expects an audio-variant model; input width {width} matches none"
        )
    return widths[width]


# ---------------------------------------------------------------------------
# train / eval


def cmd_train(args) -> int:
    if not 0.0 <= args.test_fraction < 1.0:
        raise UsageError(f"--test-fraction must be in [0, 1), got {args.test_fraction}")
    dataset = load_dataset(args.dataset)
    overrides = {"seed": args.seed}
    if args.normalize is not None:
        overrides["normalization"] = args.normalize.upper()
    if args.iterations is not None:
        overrides["iteration_budget"] = args.iterations
    if args.learning_rate is not None:
        overrides["learning_rate"] = args.learning_rate
    config = NetworkConfig.from_preset(args.preset, **overrides)

    if args.test_fraction > 0.0:
        train_set, test_set = stratified_split(dataset, args.test_fraction, args.seed)
    else:
        train_set = test_set = dataset
    model, _ = fit_model(config, train_set.rows, train_set.labels,
                         label_names=dataset.label_names)
    normalized = apply_normalizer(model.normalizer, test_set.rows)
    report = evaluate(model, normalized, test_set.labels)
    save_model(model, args.out)

    run_config = {
        "dataset": args.dataset,
        "preset": config.preset,
        "normalization": config.normalization,
        "iterations": config.iteration_budget,
        "learning_rate": config.learning_rate,
        "l2_lambda": config.l2_lambda,
        "test_fraction": args.test_fraction,
        "labels": dataset.label_names,
    }
    _write_manifest(f"{args.out}.manifest.json", "train", run_config,
                    [args.dataset], [Path(args.out)], args.seed)
    which = "test" if args.test_fraction > 0.0 else "training"
    print(f"{which} accuracy: {report.accuracy * 100:.2f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    if len(dataset.feature_names) != model.layer_sizes[0]:
        raise FormatError(
            f"dataset has {len(dataset.feature_names)} features but the model "
            f"expects {model.layer_sizes[0]}"
        )
    normalized = apply_normalizer(model.normalizer, dataset.rows)
    report = evaluate(model, normalized, dataset.labels)

    if args.report == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        _print_report_table(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        _write_manifest(f"{args.out}.manifest.json", "eval",
                        {"model": args.model, "dataset": args.dataset,
                         "report": args.report},
                        [args.model, args.dataset], [Path(args.out)], args.seed)
    return EXIT_OK


def _print_report_table(report):
    print(f"accuracy: {report.accuracy * 100:.2f}")
    width = max(len(label) for label in report.labels)
    print(f"{'label'.ljust(width)}  precision  recall")
    for i, label in enumerate(report.labels):
        print(f"{label.ljust(width)}  {report.precision[i] * 100:9.2f}  {report.recall[i] * 100:6.2f}")
    print("confusion (rows = true, columns = predicted):")
    for row in report.confusion:
        print("  " + " ".join(f"{int(v):4d}" for v in row))


# ---------------------------------------------------------------------------
# sweep


def _load_grid(path):
    ini = _read_ini(path)
    if not ini.has_section("grid"):
        raise UsageError(f"{path}: grid file needs a [grid] section")
    section = ini["grid"]
    try:
        presets = [p.lower() for p in _split_list(section.get("presets", ""))]
        variants = _split_list(section.get("variants", ""))
        normalizations = [n.lower() for n in _split_list(section.get("normalizations", ""))]
        iterations = [int(i) for i in _split_list(section.get("iterations", ""))]
        test_fraction = section.getfloat("test_fraction", fallback=0.3)
        env_mode = section.get("env", "none").strip()
    except ValueError as exc:
        raise UsageError(f"{path}: bad grid value: {exc}") from exc
    if not presets or not variants or not normalizations or not iterations:
        raise UsageError(f"{path}: grid needs presets, variants, normalizations, iterations")
    for p in presets:
        if p not in PRESET_CHOICES:
            raise UsageError(f"{path}: unknown preset {p!r}")
    for v in variants:
        if v not in ALL_VARIANTS:
            raise UsageError(f"{path}: unknown variant {v!r}")
    for n in normalizations:
        if n not in NORMALIZE_CHOICES:
            raise UsageError(f"{path}: unknown normalization {n!r}")
    if env_mode not in ("none", "oracle"):
        raise UsageError(f"{path}: env must be none or oracle, got {env_mode!r}")
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"{path}: test_fraction must be in (0, 1)")
    return presets, variants, normalizations, iterations, test_fraction, env_mode


def cmd_sweep(args) -> int:
    presets, variants, normalizations, iterations, test_fraction, env_mode = \
        _load_grid(args.config)
    paths = _log_paths(args.corpus)
    bundles = _load_bundles(paths)
    if not bundles:
        raise UsageError("the corpus contains no windows")

    results = []
    for variant in variants:
        cfg = DatasetConfig()
        if variant in MOTION_VARIANTS and env_mode == "oracle":
            env_labels = sorted({b.known_environment for b in bundles} - {None})
            cfg = DatasetConfig(env_mode="oracle", env_labels=env_labels)
        dataset = build_dataset(bundles, variant, cfg=cfg)
        train_set, test_set = stratified_split(dataset, test_fraction, args.seed)
        for preset in presets:
            for normalization in normalizations:
                for budget in iterations:
                    config = NetworkConfig.from_preset(
                        preset, normalization=normalization.upper(),
                        iteration_budget=budget, seed=args.seed,
                    )
                    model, _ = fit_model(config, train_set.rows, train_set.labels,
                                         label_names=dataset.label_names)
                    normalized = apply_normalizer(model.normalizer, test_set.rows)
                    report = evaluate(model, normalized, test_set.labels)
                    results.append((preset, variant, normalization, budget,
                                    report.accuracy))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("preset,variant,normalization,iterations,accuracy\n")
        for preset, variant, normalization, budget, accuracy in results:
            fh.write(f"{preset},{variant},{normalization},{budget},{repr(accuracy)}\n")

    for variant in variants:
        rows = [r for r in results if r[1] == variant]
        best = max(rows, key=lambda r: r[4])
        print(f"best {variant}: preset={best[0]} normalization={best[2]} "
              f"iterations={best[3]} accuracy={best[4] * 100:.2f}")

    grid_config = {
        "presets": presets, "variants": variants,
        "normalizations": normalizations, "iterations": iterations,
        "test_fraction": test_fraction, "env": env_mode,
        "cells": len(results),
    }
    _write_manifest(f"{args.out}.manifest.json", "sweep", grid_config,
                    [args.config] + [str(p) for p in paths], [Path(args.out)],
                    args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline


def _load_pipeline_config(path, seed) -> PipelineConfig:
    values = {"seed": seed}
    if path is not None:
        ini = _read_ini(path)
        if not ini.has_section("pipeline"):
            raise UsageError(f"{path}: pipeline config needs a [pipeline] section")
        section = ini["pipeline"]
        ints = ("env_iterations", "adl_iterations", "standing_iterations")
        floats = ("learning_rate", "min_train_accuracy", "low_pass_alpha")
        strings = ("env_variant", "motion_variant", "refine_label")
        for key in section:
            try:
                if key in ints:
                    values[key] = section.getint(key)
                elif key in floats:
                    values[key] = section.getfloat(key)
                elif key in strings:
                    values[key] = section.get(key)
                elif key == "seed":
                    raise UsageError(f"{path}: set the seed with --seed, not in the file")
                else:
                    raise UsageError(f"{path}: unknown pipeline setting {key!r}")
            except ValueError as exc:
                raise UsageError(f"{path}: bad value for {key}: {exc}") from exc
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise UsageError(f"bad pipeline configuration: {exc}") from exc


def cmd_pipeline_train(args) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    env_paths = _log_paths(args.env_logs)
    adl_paths = _log_paths(args.adl_logs)
    standing_paths = _log_paths(args.standing_logs)

    pipeline = train_pipeline(
        _load_bundles(env_paths),
        _load_bundles(adl_paths),
        _load_bundles(standing_paths),
        config,
    )
    save_pipeline(pipeline, args.out)
    _write_manifest(f"{args.out}.manifest.json", "pipeline train", asdict(config),
                    [str(p) for p in env_paths + adl_paths + standing_paths],
                    [Path(args.out)], args.seed)
    print(
        f"trained stages: environment({len(pipeline.env_model.labels)} labels), "
        f"adl({len(pipeline.adl_model.labels)}), "
        f"standing({', '.join(sorted(pipeline.standing_models))})"
    )
    return EXIT_OK


def cmd_pipeline_run(args) -> int:
    pipeline = load_pipeline(args.pipeline)
    log_paths = _expand_logs(args.logs)
    bundles = _load_bundles(log_paths)
    if not bundles:
        raise UsageError("the input logs contain no windows")
    try:
        lines = [
            json.dumps(classify_window(pipeline, bundle).to_dict(), sort_keys=True)
            for bundle in bundles
        ]
    except UnsupportedSensorsError as exc:
        raise FormatError(str(exc)) from exc
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(f"{args.out}.manifest.json", "pipeline run",
                        {"pipeline": args.pipeline, "windows": len(bundles)},
                        log_paths + [args.pipeline], [Path(args.out)],
                        args.seed)
        print(f"classified {len(bundles)} window(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
