"""Window bundles, raw-log files, and labeled feature datasets.

A recording session lives in a plain-text log: one header line describing the
channel layout, then 5-second windows introduced by ``#window <id>`` lines.
Audio logs carry one sample per line; motion logs carry
``t_ms,ax,ay,az[,mx,my,mz[,gx,gy,gz]]`` rows for the sensors declared in the
header. Parsed windows become :class:`WindowBundle` values, feature recipes
turn bundles into :class:`LabeledDataset` matrices, and datasets round-trip
through CSV files whose header row is the feature names plus ``label``.
"""

from __future__ import annotations

import csv
import itertools
import shlex
from dataclasses import dataclass, field, replace

import numpy as np

from .audio import AUDIO_VARIANTS, MfccConfig, audio_feature_names, audio_feature_vector
from .errors import FormatError, ParseError
from .motion import (
    MOTION_SENSOR_ORDER,
    MOTION_VARIANTS,
    motion_feature_names,
    motion_feature_vector,
)
from .network import NetworkModel, classify
from .signals import DEFAULT_LOW_PASS_ALPHA, SampleSeries, TriaxialSeries

LABEL_KINDS = ("ENVIRONMENT", "ADL")
ENV_MODES = ("none", "oracle", "predicted")
LOG_HEADER_PREFIX = "#adl-sense v1"
WINDOW_SECONDS = 5.0
WINDOW_TOLERANCE = 0.1  # motion windows may deviate from 5 s by this fraction


@dataclass
class WindowBundle:
    """One 5-second recording slot: any subset of {audio, motion channels}.

    ``environment`` optionally annotates the scene an ADL window was recorded
    in; it feeds the oracle-env dataset mode.
    """

    id: str
    label: str
    label_kind: str
    audio: SampleSeries | None = None
    motion: dict | None = None
    environment: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("bundle id must be non-empty")
        if not self.label:
            raise ValueError("bundle label must be non-empty")
        if self.label_kind not in LABEL_KINDS:
            raise ValueError(f"label_kind must be one of {LABEL_KINDS}, got {self.label_kind!r}")
        if self.audio is None and not self.motion:
            raise ValueError(f"window {self.id!r} has no channels")
        if self.motion:
            unknown = set(self.motion) - set(MOTION_SENSOR_ORDER)
            if unknown:
                raise ValueError(f"window {self.id!r} has unknown sensors {sorted(unknown)}")
            low = WINDOW_SECONDS * (1 - WINDOW_TOLERANCE)
            high = WINDOW_SECONDS * (1 + WINDOW_TOLERANCE)
            for name, tri in self.motion.items():
                duration = len(tri) / tri.sample_rate_hz
                if not low <= duration <= high:
                    raise ValueError(
                        f"window {self.id!r} sensor {name}: duration {duration:.3f}s "
                        f"outside [{low}, {high}]s"
                    )

    @property
    def sensors(self) -> tuple:
        """Channel names present, motion in canonical order, then MIC."""
        names = [s for s in MOTION_SENSOR_ORDER if self.motion and s in self.motion]
        if self.audio is not None:
            names.append("MIC")
        return tuple(names)

    @property
    def known_environment(self) -> str | None:
        """The annotated environment, else the label of an ENVIRONMENT window."""
        if self.environment is not None:
            return self.environment
        return self.label if self.label_kind == "ENVIRONMENT" else None

    def channel_view(self, kind: str) -> "WindowBundle":
        """A copy of this bundle holding only its audio or only its motion."""
        if kind == "audio":
            if self.audio is None:
                raise ValueError(f"window {self.id!r} has no audio channel")
            return WindowBundle(id=self.id, label=self.label, label_kind=self.label_kind,
                                audio=self.audio, environment=self.environment)
        if kind == "motion":
            if not self.motion:
                raise ValueError(f"window {self.id!r} has no motion channels")
            return WindowBundle(id=self.id, label=self.label, label_kind=self.label_kind,
                                motion=self.motion, environment=self.environment)
        raise ValueError(f"kind must be audio or motion, got {kind!r}")


@dataclass
class LabeledDataset:
    """A rectangular feature matrix with aligned labels."""

    variant: str
    feature_names: list
    rows: np.ndarray
    labels: list
    label_names: list
    provenance: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be a matrix, got shape {self.rows.shape}")
        if self.rows.shape[0] == 0:
            raise ValueError("dataset must have at least one row")
        if self.rows.shape[1] != len(self.feature_names):
            raise ValueError(
                f"{self.rows.shape[1]} columns but {len(self.feature_names)} feature names"
            )
        if len(self.labels) != self.rows.shape[0]:
            raise ValueError(f"{self.rows.shape[0]} rows but {len(self.labels)} labels")
        missing = sorted(set(self.labels) - set(self.label_names))
        if missing:
            raise ValueError(f"labels {missing} not in dictionary {self.label_names}")

    def __len__(self):
        return self.rows.shape[0]


@dataclass(frozen=True)
class DatasetConfig:
    """How to assemble feature rows from bundles.

    ``env_mode`` controls the trailing environment one-hot block of fusion
    variants: ``none`` omits it, ``oracle`` takes each bundle's ground-truth
    environment annotation, ``predicted`` runs the supplied environment model
    on the bundle's audio. ``sensors`` restricts which motion channels are
    used (default: all channels of the first bundle).
    """

    env_mode: str = "none"
    env_labels: tuple = ()
    sensors: tuple | None = None
    low_pass_alpha: float = DEFAULT_LOW_PASS_ALPHA
    env_audio_variant: str = "A1"
    mfcc: MfccConfig | None = None

    def __post_init__(self):
        if self.env_mode not in ENV_MODES:
            raise ValueError(f"env_mode must be one of {ENV_MODES}, got {self.env_mode!r}")
        object.__setattr__(self, "env_labels", tuple(self.env_labels))
        if self.sensors is not None:
            object.__setattr__(self, "sensors", tuple(self.sensors))


def build_dataset(bundles, variant: str, env_source: NetworkModel | None = None,
                  cfg: DatasetConfig | None = None) -> LabeledDataset:
    """Feature matrix for an iterable of bundles under one recipe.

    Audio variants read each bundle's audio channel; fusion variants read the
    configured motion channels and, per ``cfg.env_mode``, append an
    environment one-hot from the bundle annotation (oracle) or from
    ``env_source``'s prediction on the bundle's audio (predicted). Bundles are
    consumed streamingly, so a generator of large windows is fine.
    """
    if cfg is None:
        cfg = DatasetConfig()
    if variant in AUDIO_VARIANTS:
        return _build_audio_dataset(bundles, variant, cfg)
    if variant in MOTION_VARIANTS:
        return _build_motion_dataset(bundles, variant, env_source, cfg)
    raise ValueError(
        f"unknown variant {variant!r}, expected one of {AUDIO_VARIANTS + MOTION_VARIANTS}"
    )


def _build_audio_dataset(bundles, variant, cfg):
    if cfg.env_mode != "none":
        raise ValueError(f"audio variant {variant} does not take an environment block")
    names = audio_feature_names(variant, cfg.mfcc)
    rows, labels = [], []
    for bundle in bundles:
        if bundle.audio is None:
            raise ValueError(f"window {bundle.id!r} has no audio channel")
        rows.append(audio_feature_vector(bundle.audio, variant, cfg.mfcc))
        labels.append(bundle.label)
    return _finish_dataset(variant, names, rows, labels, f"audio variant {variant}")


def _build_motion_dataset(bundles, variant, env_source, cfg):
    env_labels: tuple = ()
    if cfg.env_mode == "predicted":
        if env_source is None:
            raise ValueError("env_mode 'predicted' requires a trained environment model")
        env_labels = tuple(env_source.labels)
    elif cfg.env_mode == "oracle":
        if not cfg.env_labels:
            raise ValueError("env_mode 'oracle' requires cfg.env_labels to fix the one-hot order")
        env_labels = cfg.env_labels
    env_index = {name: i for i, name in enumerate(env_labels)}

    sensors = cfg.sensors
    names = None
    rows, labels = [], []
    for bundle in bundles:
        if not bundle.motion:
            raise ValueError(f"window {bundle.id!r} has no motion channels")
        if sensors is None:
            sensors = tuple(s for s in MOTION_SENSOR_ORDER if s in bundle.motion)
        missing = [s for s in sensors if s not in bundle.motion]
        if missing:
            raise ValueError(f"window {bundle.id!r} is missing sensor {missing[0]}")
        if names is None:
            names = motion_feature_names(sensors, variant, env_labels or None)
        channels = {s: bundle.motion[s] for s in sensors}
        one_hot = None
        if cfg.env_mode == "oracle":
            env = bundle.known_environment
            if env is None:
                raise ValueError(f"window {bundle.id!r} has no environment annotation")
            if env not in env_index:
                raise ValueError(f"window {bundle.id!r}: environment {env!r} not in {env_labels}")
            one_hot = np.zeros(len(env_labels))
            one_hot[env_index[env]] = 1.0
        elif cfg.env_mode == "predicted":
            if bundle.audio is None:
                raise ValueError(f"window {bundle.id!r} has no audio to predict environment from")
            features = audio_feature_vector(bundle.audio, cfg.env_audio_variant, cfg.mfcc)
            predicted, _ = classify(env_source, features)
            one_hot = np.zeros(len(env_labels))
            one_hot[env_index[predicted]] = 1.0
        rows.append(motion_feature_vector(channels, variant, one_hot, cfg.low_pass_alpha))
        labels.append(bundle.label)
    note = f"motion variant {variant} sensors {'+'.join(sensors or ())} env {cfg.env_mode}"
    return _finish_dataset(variant, names, rows, labels, note)


def _finish_dataset(variant, names, rows, labels, note):
    if not rows:
        raise ValueError("no bundles supplied")
    return LabeledDataset(
        variant=variant,
        feature_names=list(names),
        rows=np.vstack(rows),
        labels=labels,
        label_names=sorted(set(labels)),
        provenance=note,
    )


def stratified_split(dataset: LabeledDataset, test_fraction: float, seed: int) -> tuple:
    """Disjoint, exhaustive (train, test) split preserving per-label shares.

    Each label contributes round(count * test_fraction) test rows, chosen by
    a generator keyed on the seed; row order within each part follows the
    original dataset.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    labels = np.asarray(dataset.labels)
    rng = np.random.default_rng([seed, 2])
    test_mask = np.zeros(len(dataset), dtype=bool)
    for label in dataset.label_names:
        idx = np.nonzero(labels == label)[0]
        if idx.size < 2:
            raise ValueError(f"label {label!r} has {idx.size} row(s); need at least 2 to split")
        n_test = round(idx.size * test_fraction)
        chosen = rng.permutation(idx.size)[:n_test]
        test_mask[idx[chosen]] = True

    def subset(mask):
        return replace(
            dataset,
            rows=dataset.rows[mask],
            labels=[l for l, m in zip(dataset.labels, mask) if m],
        )

    return subset(~test_mask), subset(test_mask)


def save_dataset(dataset: LabeledDataset, path) -> None:
    """CSV with header = feature names + 'label'; full-precision reals.

    A label holding a comma, quote or line break is quoted, so it reads back.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*dataset.feature_names, "label"])
        for row, label in zip(dataset.rows, dataset.labels):
            writer.writerow([*(repr(v) for v in row.tolist()), label])


def load_dataset(path, variant: str | None = None) -> LabeledDataset:
    """Read a dataset CSV back; the header must match a known feature recipe.

    When ``variant`` is given the header must belong to that recipe,
    otherwise the recipe is inferred from the feature names.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            records = [(reader.line_num, parts) for parts in reader
                       if len(parts) > 1 or "".join(parts).strip()]
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not records:
        raise FormatError(f"{path}: empty dataset file")
    header = records[0][1]
    if len(header) < 2 or header[-1] != "label":
        raise FormatError(f"{path}: header must end with a 'label' column")
    names = header[:-1]
    inferred = infer_variant(names)
    if inferred is None:
        raise FormatError(f"{path}: header does not match any feature recipe")
    if variant is not None and inferred != variant:
        raise FormatError(f"{path}: header is variant {inferred}, expected {variant}")
    rows, labels = [], []
    for lineno, parts in records[1:]:
        if len(parts) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts[:-1]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        labels.append(parts[-1])
    if not rows:
        raise FormatError(f"{path}: dataset has a header but no rows")
    return LabeledDataset(
        variant=inferred,
        feature_names=names,
        rows=np.asarray(rows),
        labels=labels,
        label_names=sorted(set(labels)),
        provenance=f"loaded from {path}",
    )


def infer_variant(names) -> str | None:
    """Which feature recipe produced these column names, if any."""
    names = list(names)
    for variant in AUDIO_VARIANTS:
        if names == audio_feature_names(variant):
            return variant
    block_end = len(names)
    while block_end and names[block_end - 1].startswith("env_"):
        block_end -= 1
    env_labels = [n[len("env_"):] for n in names[block_end:]] or None
    for variant in MOTION_VARIANTS:
        for size in range(1, len(MOTION_SENSOR_ORDER) + 1):
            for subset in itertools.combinations(MOTION_SENSOR_ORDER, size):
                if names == motion_feature_names(subset, variant, env_labels):
                    return variant
    return None


def merge_bundles(bundles) -> list:
    """Join bundles sharing a window id into multi-channel bundles.

    Log files carry one channel kind each, so a corpus whose audio and motion
    live in sibling files comes back as two single-channel bundles per
    window; this re-joins them by id. Order follows first appearance.
    """
    merged = {}
    order = []
    for bundle in bundles:
        other = merged.get(bundle.id)
        if other is None:
            merged[bundle.id] = bundle
            order.append(bundle.id)
            continue
        if other.label != bundle.label or other.label_kind != bundle.label_kind:
            raise ValueError(f"window {bundle.id!r} appears with conflicting labels")
        if (other.audio is not None and bundle.audio is not None) or \
                (other.motion and bundle.motion):
            raise ValueError(f"window {bundle.id!r} has duplicate channels across files")
        if other.environment is not None and bundle.environment is not None \
                and other.environment != bundle.environment:
            raise ValueError(f"window {bundle.id!r} has conflicting environment annotations")
        merged[bundle.id] = WindowBundle(
            id=other.id, label=other.label, label_kind=other.label_kind,
            audio=other.audio if other.audio is not None else bundle.audio,
            motion=other.motion if other.motion else bundle.motion,
            environment=other.environment if other.environment is not None
            else bundle.environment,
        )
    return [merged[i] for i in order]


# ---------------------------------------------------------------------------
# Raw log files


def parse_sensor_log(path) -> list:
    """All window bundles in one raw log file.

    Malformed content raises :class:`ParseError` naming the offending line.
    An empty file parses to an empty list.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or all(not line.strip() for line in lines):
        return []

    header = _parse_header(path, lines[0])
    bundles = []
    window_id = None
    window_line = 0
    samples: list = []

    def finish_window():
        if window_id is None:
            return
        try:
            bundles.append(_bundle_from_samples(header, window_id, samples))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=window_line) from exc

    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#window"):
            finish_window()
            window_id = text[len("#window"):].strip()
            window_line = lineno
            samples = []
            if not window_id:
                raise ParseError("missing window id", path=path, line=lineno)
            continue
        if text.startswith("#"):
            raise ParseError(f"unknown directive {text.split()[0]!r}", path=path, line=lineno)
        if window_id is None:
            raise ParseError("sample line before any #window", path=path, line=lineno)
        samples.append(_parse_sample(path, lineno, text, header, samples))
    finish_window()
    return bundles


def _parse_header(path, line):
    if not line.startswith(LOG_HEADER_PREFIX):
        raise ParseError(f"missing {LOG_HEADER_PREFIX!r} header", path=path, line=1)
    fields = {}
    try:
        tokens = shlex.split(line[len(LOG_HEADER_PREFIX):])
    except ValueError as exc:
        raise ParseError(f"unparseable header: {exc}", path=path, line=1) from exc
    for token in tokens:
        if "=" not in token:
            raise ParseError(f"header token {token!r} is not key=value", path=path, line=1)
        key, value = token.split("=", 1)
        if key in fields:
            raise ParseError(f"duplicate header key {key!r}", path=path, line=1)
        fields[key] = value

    allowed = {"kind", "label", "label_kind", "rate_hz", "sensors", "environment"}
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise ParseError(f"unknown header key {unknown[0]!r}", path=path, line=1)
    for required in ("kind", "label", "label_kind", "rate_hz"):
        if required not in fields:
            raise ParseError(f"header is missing {required}=", path=path, line=1)
    if fields["kind"] not in ("audio", "motion"):
        raise ParseError(f"kind must be audio or motion, got {fields['kind']!r}", path=path, line=1)
    if fields["label_kind"] not in LABEL_KINDS:
        raise ParseError(
            f"label_kind must be one of {LABEL_KINDS}, got {fields['label_kind']!r}",
            path=path, line=1,
        )
    try:
        fields["rate_hz"] = float(fields["rate_hz"])
    except ValueError:
        raise ParseError(f"rate_hz {fields['rate_hz']!r} is not a number", path=path, line=1)
    if fields["rate_hz"] <= 0:
        raise ParseError("rate_hz must be positive", path=path, line=1)

    if fields["kind"] == "motion":
        sensor_spec = fields.get("sensors", "")
        sensors = tuple(sensor_spec.split("+")) if sensor_spec else ()
        valid = [tuple(MOTION_SENSOR_ORDER[:i]) for i in range(1, len(MOTION_SENSOR_ORDER) + 1)]
        if sensors not in valid:
            raise ParseError(
                f"sensors= must be one of {['+'.join(v) for v in valid]}, got {sensor_spec!r}",
                path=path, line=1,
            )
        fields["sensors"] = sensors
    elif "sensors" in fields:
        raise ParseError("audio logs do not take sensors=", path=path, line=1)
    return fields


def _parse_sample(path, lineno, text, header, prior):
    if header["kind"] == "audio":
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"bad audio sample {text!r}", path=path, line=lineno)
        if not np.isfinite(value):
            raise ParseError(f"non-finite audio sample {text!r}", path=path, line=lineno)
        return value
    parts = text.split(",")
    expected = 1 + 3 * len(header["sensors"])
    if len(parts) != expected:
        raise ParseError(
            f"expected {expected} comma-separated fields, got {len(parts)}",
            path=path, line=lineno,
        )
    try:
        values = [float(v) for v in parts]
    except ValueError as exc:
        raise ParseError(f"bad motion sample: {exc}", path=path, line=lineno) from exc
    if not all(np.isfinite(v) for v in values):
        raise ParseError("non-finite motion sample", path=path, line=lineno)
    if prior and values[0] <= prior[-1][0]:
        raise ParseError(
            f"non-monotonic timestamp {values[0]} after {prior[-1][0]}",
            path=path, line=lineno,
        )
    return values


def _bundle_from_samples(header, window_id, samples):
    if not samples:
        raise ValueError(f"window {window_id!r} has no samples")
    rate = header["rate_hz"]
    environment = header.get("environment")
    if header["kind"] == "audio":
        return WindowBundle(
            id=window_id,
            label=header["label"],
            label_kind=header["label_kind"],
            audio=SampleSeries(np.asarray(samples), rate),
            environment=environment,
        )
    matrix = np.asarray(samples)
    motion = {}
    for i, sensor in enumerate(header["sensors"]):
        cols = matrix[:, 1 + 3 * i : 4 + 3 * i]
        motion[sensor] = TriaxialSeries.from_arrays(cols[:, 0], cols[:, 1], cols[:, 2], rate)
    return WindowBundle(
        id=window_id,
        label=header["label"],
        label_kind=header["label_kind"],
        motion=motion,
        environment=environment,
    )


def write_sensor_log(path, bundles) -> None:
    """Write bundles sharing one label/kind/rate as a raw log file."""
    bundles = list(bundles)
    if not bundles:
        raise ValueError("cannot write an empty log")
    first = bundles[0]
    kind = "audio" if first.audio is not None else "motion"
    parts = [LOG_HEADER_PREFIX, f"kind={kind}", f"label={shlex.quote(first.label)}",
             f"label_kind={first.label_kind}"]
    if kind == "audio":
        rate = first.audio.sample_rate_hz
        sensors = ()
    else:
        sensors = tuple(s for s in MOTION_SENSOR_ORDER if s in first.motion)
        rate = first.motion[sensors[0]].sample_rate_hz
        parts.append("sensors=" + "+".join(sensors))
    parts.append(f"rate_hz={_fmt(rate)}")
    if first.environment is not None:
        parts.append(f"environment={shlex.quote(first.environment)}")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(parts) + "\n")
        for bundle in bundles:
            _check_bundle_matches(first, bundle, kind, sensors)
            fh.write(f"#window {bundle.id}\n")
            if kind == "audio":
                for v in bundle.audio.values.tolist():
                    fh.write(_fmt(v) + "\n")
            else:
                axes = [bundle.motion[s] for s in sensors]
                count = len(axes[0])
                step_ms = 1000.0 / rate
                for n in range(count):
                    fields = [_fmt(round(n * step_ms, 6))]
                    for tri in axes:
                        fields.extend(
                            _fmt(v) for v in (tri.x.values[n], tri.y.values[n], tri.z.values[n])
                        )
                    fh.write(",".join(fields) + "\n")


def _check_bundle_matches(first, bundle, kind, sensors):
    have = "audio" if bundle.audio is not None else "motion"
    if have != kind or bundle.label != first.label or bundle.label_kind != first.label_kind \
            or bundle.environment != first.environment:
        raise ValueError(f"window {bundle.id!r} does not match the file's header fields")
    if kind == "motion" and tuple(s for s in MOTION_SENSOR_ORDER if s in bundle.motion) != sensors:
        raise ValueError(f"window {bundle.id!r} has different sensors than the file header")


def _fmt(value: float) -> str:
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text
