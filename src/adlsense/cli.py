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
import itertools
import json
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .audio import AUDIO_VARIANTS, audio_feature_names
from .datasets import (
    DatasetConfig,
    WindowBundle,
    build_dataset,
    index_sensor_log,
    load_dataset,
    parse_sensor_log,
    save_dataset,
    stratified_split,
    write_sensor_log,
)
from .errors import FormatError, TrainingDivergenceError, TrainingFailureError
from .motion import MOTION_SENSOR_ORDER, MOTION_VARIANTS
from .network import (
    NetworkConfig,
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
    label_slug,
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
    except (TrainingFailureError, TrainingDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, OSError) as exc:
        # ParseError, FormatError and library-level validation failures are
        # all ValueErrors: data errors once the flags themselves have parsed.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def non_negative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adlsense",
        description="Recognize activities and environments from sensor windows.",
    )
    parser.add_argument("--version", action="version", version=f"adlsense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=non_negative_int, default=42)

    p = sub.add_parser("synth", parents=[seeded], help="synthesize a corpus of raw log files")
    p.add_argument("--config", required=True, help="corpus spec file (INI)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("extract", parents=[seeded], help="turn raw logs into a feature CSV")
    p.add_argument("logs", nargs="+", help="raw log files or directories of them")
    p.add_argument("--variant", required=True, choices=ALL_VARIANTS)
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--sensors", help="motion sensors to use, e.g. ACC,MAG")
    p.add_argument("--env-model", help="trained environment model for the env block")
    p.add_argument("--oracle-env", action="store_true",
                   help="build the env block from ground-truth annotations")
    p.add_argument("--no-env", action="store_true", help="omit the env block")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("train", parents=[seeded], help="train one network on a dataset CSV")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--preset", required=True, choices=PRESET_CHOICES)
    p.add_argument("--normalize", choices=NORMALIZE_CHOICES,
                   help="override the preset's normalizer")
    p.add_argument("--iterations", type=non_negative_int, help="training iteration budget")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="hold out this fraction for the reported accuracy")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", parents=[seeded], help="evaluate a model on a dataset CSV")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--report", choices=("table", "json"), default="table")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", parents=[seeded], help="train a grid of models over a corpus")
    p.add_argument("corpus", help="directory of raw log files")
    p.add_argument("--config", required=True, help="grid file (INI)")
    p.add_argument("--out", required=True, help="output results CSV")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("pipeline", help="train or run the hierarchical recognizer")
    pipe = p.add_subparsers(dest="pipeline_command", required=True)

    q = pipe.add_parser("train", parents=[seeded], help="train all pipeline stages")
    q.add_argument("--env-logs", required=True, help="environment corpus (dir or file)")
    q.add_argument("--adl-logs", required=True, help="activity corpus (dir or file)")
    q.add_argument("--standing-logs", required=True, help="standing corpus (dir or file)")
    q.add_argument("--config", help="pipeline settings file (INI)")
    q.add_argument("--out", required=True, help="output pipeline JSON")
    q.set_defaults(handler=cmd_pipeline_train)

    q = pipe.add_parser("run", parents=[seeded], help="classify raw log windows")
    q.add_argument("logs", nargs="+", help="raw log files or directories of them")
    q.add_argument("--pipeline", required=True, help="pipeline JSON")
    q.add_argument("--out", help="results file (JSON lines); default stdout")
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


# How an INI value is read for each dataclass field annotation.
INI_READERS = {
    int: lambda section, key: section.getint(key),
    float: lambda section, key: section.getfloat(key),
    bool: lambda section, key: section.getboolean(key),
    str: lambda section, key: section[key],
    tuple: lambda section, key: tuple(_split_list(section[key])),
}


def ini_field_types(cls, skip=()) -> dict:
    """Field name -> annotation for the fields of dataclass ``cls`` an INI sets."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


def _check_keys(path, section, known):
    for key in section:
        if key not in known:
            raise UsageError(f"{path}: [{section.name}] has no key {key!r}; "
                             f"it takes {', '.join(known)}")


def _section_values(path, section, cls, skip=()) -> dict:
    """Keyword arguments for dataclass ``cls`` from one INI section.

    Every key must name a field outside ``skip``, and is read as that field's
    annotation (see :data:`INI_READERS`); absent keys keep their defaults.
    """
    types = ini_field_types(cls, skip)
    _check_keys(path, section, types)
    values = {}
    for key in section:
        try:
            values[key] = INI_READERS[types[key]](section, key)
        except ValueError as exc:
            raise UsageError(f"{path}: bad value for {key} in [{section.name}]: {exc}") from exc
    return values


def _iter_windows(paths):
    """The windows of the logs at ``paths``, each joined across the files
    that hold its channels, in order of first appearance.

    Every file is indexed first, so a window that appears with conflicting
    labels or environments, or with one channel twice, raises before any
    sample is converted. The files are then parsed one at a time, and a
    window is yielded once its last file has been read and every window
    before it has been yielded: only windows waiting for a partner channel
    are held, beside the file being parsed.
    """
    indexes = [index_sensor_log(path) for path in paths]
    holders = {}  # window id -> headers of the files holding its channels
    for header, ids in indexes:
        for window_id in ids:
            held = holders.setdefault(window_id, [])
            if held:
                _check_partner(window_id, held, header)
            held.append(header)
    files_left = {window_id: len(held) for window_id, held in holders.items()}
    waiting = {}

    def read(path, ids):
        # Its own frame, so that a yielded window is held by the consumer only.
        bundles = parse_sensor_log(path)
        if [bundle.id for bundle in bundles] != ids:
            raise ValueError(f"{path} changed while it was read: its windows differ "
                             "from its index")
        for bundle in bundles:
            other = waiting.get(bundle.id)
            waiting[bundle.id] = bundle if other is None else _join_channels(other, bundle)
            files_left[bundle.id] -= 1

    order = iter(files_left)
    next_id = next(order, None)
    for path, (_, ids) in zip(paths, indexes):
        read(path, ids)
        while next_id is not None and files_left[next_id] == 0:
            yield waiting.pop(next_id)
            next_id = next(order, None)


def _check_partner(window_id, held, header):
    """Raise unless a window held by files with headers ``held`` can take a
    channel from a file with ``header``: the same label, a new channel kind
    and no other environment."""
    first = held[0]
    if (header["label"], header["label_kind"]) != (first["label"], first["label_kind"]):
        raise ValueError(f"window {window_id!r} appears with conflicting labels")
    if any(other["kind"] == header["kind"] for other in held):
        raise ValueError(f"window {window_id!r} has duplicate channels across files")
    environments = {other.get("environment") for other in held + [header]} - {None}
    if len(environments) > 1:
        raise ValueError(f"window {window_id!r} has conflicting environment annotations")


def _join_channels(first, second) -> WindowBundle:
    """One window from two single-kind bundles of it; the first one's
    environment wins when both have one."""
    return WindowBundle(
        id=first.id, label=first.label, label_kind=first.label_kind,
        audio=first.audio if first.audio is not None else second.audio,
        motion=first.motion or second.motion,
        environment=first.environment if first.environment is not None
        else second.environment,
    )


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
    return [path for item in inputs for path in _log_paths(item)]


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


# ---------------------------------------------------------------------------
# synth


def _load_synth_spec(path, seed) -> SynthSpec:
    ini = _read_ini(path)
    if not ini.has_section("corpus"):
        raise UsageError(f"{path}: spec needs a [corpus] section")
    values = _section_values(path, ini["corpus"], SynthSpec, skip=("params", "seed"))
    kind = values.get("kind", "")
    if kind == "ENVIRONMENT":
        params_cls, default_labels, defaults = EnvParams, DEFAULT_ENVIRONMENTS, DEFAULT_ENV_PARAMS
    elif kind == "ADL":
        params_cls, default_labels = AdlParams, DEFAULT_ADLS
        defaults = {**DEFAULT_ADL_PARAMS, **DEFAULT_STANDING_PARAMS}
    else:
        raise UsageError(f"{path}: kind must be ENVIRONMENT or ADL, got {kind!r}")
    values["labels"] = values.get("labels") or default_labels

    params = {}
    for label in values["labels"]:
        section_name = f"label:{label}"
        if ini.has_section(section_name):
            params[label] = _label_params(path, ini[section_name], params_cls)
        elif label in defaults:
            params[label] = defaults[label]
        else:
            raise UsageError(
                f"{path}: label {label!r} has no [label:{label}] section and no default"
            )
    try:
        return SynthSpec(params=params, seed=seed, **values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _label_params(path, section, cls):
    values = _section_values(path, section, cls)
    try:
        if "bands" in values:
            bands = [token.split(":") for token in values["bands"]]
            values["bands"] = tuple((float(c), float(w), float(g)) for c, w, g in bands)
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad [{section.name}] section: {exc}") from exc


def cmd_synth(args) -> int:
    spec = _load_synth_spec(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    for label, group in itertools.groupby(synth_windows(spec), key=lambda b: b.label):
        bundles = list(group)
        slug = label_slug(label)
        if bundles[0].motion is None:
            outputs.append(out_dir / f"{slug}.log")
            write_sensor_log(outputs[-1], bundles)
            continue
        for channel in ("motion", "audio"):
            if getattr(bundles[0], channel) is not None:
                outputs.append(out_dir / f"{slug}-{channel}.log")
                write_sensor_log(outputs[-1], [b.channel_view(channel) for b in bundles])

    config = asdict(spec)
    del config["seed"]
    _write_manifest(out_dir / "manifest.json", "synth", config,
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
    elif sum(env_flags) != 1:
        raise UsageError(
            f"fusion variant {variant} needs exactly one environment source: "
            "--env-model PATH, --oracle-env, or --no-env"
        )
    options = {"sensors": _parse_sensors(args.sensors) if args.sensors else None}
    env_source = None
    if args.env_model is not None:
        env_source = load_model(args.env_model)
        options.update(env_mode="predicted",
                       env_audio_variant=_audio_variant_for_model(env_source))

    log_paths = _expand_logs(args.logs)
    bundles = list(_iter_windows(log_paths))
    if not bundles:
        raise UsageError("the input logs contain no windows")
    if args.oracle_env:
        env_labels = sorted({b.known_environment for b in bundles} - {None})
        if not env_labels:
            raise UsageError("--oracle-env needs environment annotations in the logs")
        options.update(env_mode="oracle", env_labels=env_labels)
    cfg = DatasetConfig(**options)

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
    report = evaluate(model, test_set.rows, test_set.labels)
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
    report = evaluate(model, dataset.rows, dataset.labels)

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
    _check_keys(path, section,
                ("presets", "variants", "normalizations", "iterations", "test_fraction", "env"))
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
    for kind, chosen, allowed in (("preset", presets, PRESET_CHOICES),
                                  ("variant", variants, ALL_VARIANTS),
                                  ("normalization", normalizations, NORMALIZE_CHOICES)):
        for value in chosen:
            if value not in allowed:
                raise UsageError(f"{path}: unknown {kind} {value!r}")
    if env_mode not in ("none", "oracle"):
        raise UsageError(f"{path}: env must be none or oracle, got {env_mode!r}")
    if not 0.0 < test_fraction < 1.0:
        raise UsageError(f"{path}: test_fraction must be in (0, 1)")
    return presets, variants, normalizations, iterations, test_fraction, env_mode


def cmd_sweep(args) -> int:
    presets, variants, normalizations, iterations, test_fraction, env_mode = \
        _load_grid(args.config)
    paths = _log_paths(args.corpus)
    bundles = list(_iter_windows(paths))
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
                    report = evaluate(model, test_set.rows, test_set.labels)
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
    values = {}
    if path is not None:
        ini = _read_ini(path)
        if not ini.has_section("pipeline"):
            raise UsageError(f"{path}: pipeline config needs a [pipeline] section")
        values = _section_values(path, ini["pipeline"], PipelineConfig, skip=("seed",))
    try:
        return PipelineConfig(seed=seed, **values)
    except ValueError as exc:
        raise UsageError(f"bad pipeline configuration: {exc}") from exc


def cmd_pipeline_train(args) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    corpora = [_log_paths(root) for root in (args.env_logs, args.adl_logs, args.standing_logs)]
    pipeline = train_pipeline(*[list(_iter_windows(paths)) for paths in corpora], config)
    save_pipeline(pipeline, args.out)
    _write_manifest(f"{args.out}.manifest.json", "pipeline train", asdict(config),
                    [str(p) for paths in corpora for p in paths], [Path(args.out)], args.seed)
    print(
        f"trained stages: environment({len(pipeline.env_model.labels)} labels), "
        f"adl({len(pipeline.adl_model.labels)}), "
        f"standing({', '.join(sorted(pipeline.standing_models))})"
    )
    return EXIT_OK


def cmd_pipeline_run(args) -> int:
    pipeline = load_pipeline(args.pipeline)
    log_paths = _expand_logs(args.logs)
    # Windows are classified as their files are read; only the result lines
    # are kept, and nothing is written until every window is classified.
    lines = [
        json.dumps(classify_window(pipeline, bundle).to_dict(), sort_keys=True)
        for bundle in _iter_windows(log_paths)
    ]
    if not lines:
        raise UsageError("the input logs contain no windows")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(f"{args.out}.manifest.json", "pipeline run",
                        {"pipeline": args.pipeline, "windows": len(lines)},
                        log_paths + [args.pipeline], [Path(args.out)],
                        args.seed)
        print(f"classified {len(lines)} window(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
