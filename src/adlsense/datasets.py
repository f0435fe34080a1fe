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
import math
import shlex
from dataclasses import dataclass, replace

import numpy as np

from .audio import AUDIO_VARIANTS, audio_feature_names, audio_feature_vector
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
BLOCK_CHARS = 1 << 15  # log text read and converted at once by the bulk parser


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
    names = audio_feature_names(variant)
    rows, labels = [], []
    for bundle in bundles:
        if bundle.audio is None:
            raise ValueError(f"window {bundle.id!r} has no audio channel")
        rows.append(audio_feature_vector(bundle.audio, variant))
        labels.append(bundle.label)
    return _finish_dataset(variant, names, rows, labels)


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
            features = audio_feature_vector(bundle.audio, cfg.env_audio_variant)
            predicted, _ = classify(env_source, features)
            one_hot = np.zeros(len(env_labels))
            one_hot[env_index[predicted]] = 1.0
        rows.append(motion_feature_vector(channels, variant, one_hot, cfg.low_pass_alpha))
        labels.append(bundle.label)
    return _finish_dataset(variant, names, rows, labels)


def _finish_dataset(variant, names, rows, labels):
    if not rows:
        raise ValueError("no bundles supplied")
    return LabeledDataset(
        variant=variant,
        feature_names=list(names),
        rows=np.vstack(rows),
        labels=labels,
        label_names=sorted(set(labels)),
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
            row = [float(v) for v in parts[:-1]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in row):
            raise FormatError(f"{path}:{lineno}: non-finite feature value")
        rows.append(row)
        labels.append(parts[-1])
    if not rows:
        raise FormatError(f"{path}: dataset has a header but no rows")
    return LabeledDataset(
        variant=inferred,
        feature_names=names,
        rows=np.asarray(rows),
        labels=labels,
        label_names=sorted(set(labels)),
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


# ---------------------------------------------------------------------------
# Raw log files


def parse_sensor_log(path) -> list:
    """All window bundles in one raw log file.

    Malformed content raises :class:`ParseError` naming the offending line.
    An empty or all-blank file parses to an empty list, and a UTF-8
    byte-order mark ahead of the header is skipped. The body is read
    ``BLOCK_CHARS`` characters at a time, a partial last line carried over
    to the next block, and ``#window`` lines are found by searching for
    ``#``. Each stretch of sample lines between them is converted in one
    run of Python's ``float()`` (a motion stretch once every line is shown
    to hold the header's field count); finiteness and strictly increasing
    timestamps are checked once per window array. Blank and whitespace-only
    lines are skipped: a stretch holding nothing else is passed over, and a
    stretch that fails to convert is converted once more without them.
    Anything else, a ``#`` inside a line, an unknown directive, an empty
    window id, a sample ahead of any ``#window`` or a stretch that still
    fails, raises ``ValueError`` on that pass and reruns the whole file
    through the per-line path, which converts and checks each sample as it
    reads it, so a malformed file raises the same error, at the same line,
    as a per-line parse would; only such files are read twice. The text
    held at once is one block and one window's stretch of it, whatever the
    size of the file or its windows.
    """
    try:
        return _read_blocks(path)
    except ValueError:
        return _read_log(path)


def index_sensor_log(path) -> tuple:
    """A log's parsed header and the ids of its windows in file order,
    found without converting a sample; ``(None, [])`` for an all-blank file.

    The body is read in ``BLOCK_CHARS`` blocks like the parser's, and a
    ``#`` that only whitespace precedes on its line is a directive, as it is
    to the per-line parser. A directive other than ``#window``, an empty id
    and a ``#`` inside a line are passed over: the parser refuses those
    files, with the error and line it always gave. So for every log
    :func:`parse_sensor_log` accepts, the ids are those of its bundles. A
    file that is not UTF-8 gives what was read before the decoder met the
    bad bytes, perhaps no header, and parsing it raises the decoding error.
    """
    header, ids = None, []
    try:
        with _open_log(path) as fh:
            header = _read_header(path, fh)
            if header is None:
                return header, ids
            for text in _line_blocks(fh):
                mark = text.find("#")
                while mark >= 0:
                    line_end = text.index("\n", mark)
                    line_start = text.rfind("\n", 0, mark) + 1
                    if not text[line_start:mark].strip():
                        window_id = _window_id(text[mark:line_end])
                        if window_id:
                            ids.append(window_id)
                    mark = text.find("#", line_end)
    except UnicodeDecodeError:
        pass
    return header, ids


def _open_log(path):
    return open(path, encoding="utf-8-sig")


def _read_header(path, fh):
    """The parsed header of an open log, or None when the file is all blank."""
    first = fh.readline()
    if not first.strip() and not any(line.strip() for line in fh):
        return None
    return _parse_header(path, first.rstrip("\n"))


def _line_blocks(fh):
    """The rest of an open log as blocks of whole lines, each ending in a
    line break: ``BLOCK_CHARS`` characters read at a time, a partial last
    line carried over to the next block."""
    carry = ""
    while True:
        text = fh.read(BLOCK_CHARS)
        if not text:
            if carry:
                yield carry + "\n"  # ends a last line that had no line break
            return
        text = carry + text
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            yield text[:cut]


def _window_id(directive):
    """The id a directive names, or None when it is no ``#window`` line.
    ``directive`` runs from the line's ``#`` to its end; the id is the rest
    of the line after ``#window``, stripped, and may be empty."""
    if not directive.startswith("#window"):
        return None
    return directive[len("#window"):].strip()


def _read_blocks(path) -> list:
    """The bundles of one well-formed log, converted a block at a time. Its
    errors name no line; the per-line rerun finds them again."""
    bundles = []
    window_id = None
    chunks: list = []

    def finish_window():
        if window_id is not None:
            bundles.append(_bundle_from_samples(header, window_id, _join_chunks(chunks, width)))

    with _open_log(path) as fh:
        header = _read_header(path, fh)
        if header is None:
            return []
        width = 1 if header["kind"] == "audio" else 1 + 3 * len(header["sensors"])
        for text in _line_blocks(fh):
            pos = 0  # always the start of a line
            while pos < len(text):
                mark = text.find("#", pos)
                if mark > pos and text[mark - 1] != "\n":
                    raise ValueError("'#' inside a line")
                end = len(text) if mark < 0 else mark
                if end > pos:
                    stretch = text[pos:end - 1]
                    if stretch.strip():  # a stretch of blank lines is passed over
                        if window_id is None:
                            raise ValueError("sample line before any #window")
                        chunks.append(_convert_lines(stretch, width))
                if mark < 0:
                    break
                line_end = text.index("\n", mark)
                next_id = _window_id(text[mark:line_end])
                if next_id is None:
                    raise ValueError("unknown directive")
                finish_window()
                window_id = next_id
                chunks = []
                if not window_id:
                    raise ValueError("missing window id")
                pos = line_end + 1
    finish_window()
    return bundles


def _convert_lines(text, width) -> np.ndarray:
    """The ``(lines, width)`` samples of newline-separated sample lines, one
    ``float()`` per field. A stretch that fails is converted once more
    without its blank and whitespace-only lines, which a file may hold
    anywhere; only if that fails too is the error raised."""
    lines = text.split("\n")
    try:
        return _convert(lines, width)
    except ValueError:
        kept = [line for line in lines if line.strip()]
        if len(kept) == len(lines):
            raise
        return _convert(kept, width)


def _convert(lines, width) -> np.ndarray:
    """A motion stretch's fields are converted as one flat run and reshaped,
    so every line must first be shown to hold exactly ``width - 1`` commas:
    a 3-field line next to a 5-field one would otherwise reshape into two
    valid-looking rows. Lines are split as the run consumes them: a list of
    all the stretch's fields would raise peak memory and save no time."""
    if width == 1:
        return np.fromiter(map(float, lines), np.float64, count=len(lines))
    if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
        raise ValueError("a motion line has the wrong number of fields")
    fields = itertools.chain.from_iterable(map(str.split, lines, itertools.repeat(",")))
    return np.fromiter(map(float, fields), np.float64, count=len(lines) * width).reshape(-1, width)


def _join_chunks(chunks, width) -> np.ndarray:
    """One window's converted chunks as one array, checked as a whole."""
    if not chunks:
        raise ValueError("window has no samples")
    values = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    if not np.isfinite(values).all():
        raise ValueError("non-finite sample")
    if width > 1 and not (np.diff(values[:, 0]) > 0).all():
        raise ValueError("non-monotonic timestamp")
    return values


def _read_log(path) -> list:
    """The bundles of one log, each sample converted and checked as its
    line is read, so that an error names its line."""
    bundles = []
    window_id = None
    window_line = 0
    samples: list = []

    def finish_window():
        if window_id is None:
            return
        try:
            bundles.append(_bundle_from_samples(header, window_id, np.asarray(samples)))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=window_line) from exc

    with _open_log(path) as fh:
        header = _read_header(path, fh)
        if header is None:
            return []
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            if text[0] == "#":
                next_id = _window_id(text)
                if next_id is None:
                    raise ParseError(f"unknown directive {text.split()[0]!r}",
                                     path=path, line=lineno)
                finish_window()
                window_id = next_id
                window_line = lineno
                samples = []
                if not window_id:
                    raise ParseError("missing window id", path=path, line=lineno)
                continue
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
    if not len(samples):
        raise ValueError(f"window {window_id!r} has no samples")
    rate = header["rate_hz"]
    environment = header.get("environment")
    if header["kind"] == "audio":
        return WindowBundle(
            id=window_id,
            label=header["label"],
            label_kind=header["label_kind"],
            audio=SampleSeries(samples, rate),
            environment=environment,
        )
    motion = {}
    for i, sensor in enumerate(header["sensors"]):
        cols = samples[:, 1 + 3 * i : 4 + 3 * i]
        motion[sensor] = TriaxialSeries.from_arrays(cols[:, 0], cols[:, 1], cols[:, 2], rate)
    return WindowBundle(
        id=window_id,
        label=header["label"],
        label_kind=header["label_kind"],
        motion=motion,
        environment=environment,
    )


def write_sensor_log(path, bundles) -> None:
    """Write bundles sharing one label/kind/rate as a raw log file.

    Every bundle is checked before the file is opened, so a bundle that
    would not read back as written (a mismatched header field or sample
    rate, sensors of different lengths, a window id with surrounding
    whitespace or a line break, a label or environment with a line break)
    raises ``ValueError`` and leaves no file behind.
    """
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
    parts.append(f"rate_hz={_fmt_floats([rate])[0]}")
    if first.environment is not None:
        parts.append(f"environment={shlex.quote(first.environment)}")
    for name, text in (("label", first.label), ("environment", first.environment or "")):
        if _has_line_break(text):
            raise ValueError(f"{name} {text!r} contains a line break")
    for bundle in bundles:
        _check_bundle_matches(first, bundle, kind, sensors, rate)
        _check_window_id(bundle.id)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(parts) + "\n")
        for bundle in bundles:
            if kind == "audio":
                lines = _fmt_floats(bundle.audio.values.tolist())
            else:
                axes = [getattr(bundle.motion[s], axis) for s in sensors for axis in "xyz"]
                step_ms = 1000.0 / rate
                columns = [_fmt_floats([round(n * step_ms, 6) for n in range(len(axes[0]))])]
                columns += [_fmt_floats(axis.values.tolist()) for axis in axes]
                lines = map(",".join, zip(*columns))
            fh.write(f"#window {bundle.id}\n" + "\n".join(lines) + "\n")


def _check_bundle_matches(first, bundle, kind, sensors, rate):
    have = "audio" if bundle.audio is not None else "motion"
    if have != kind or bundle.label != first.label or bundle.label_kind != first.label_kind \
            or bundle.environment != first.environment:
        raise ValueError(f"window {bundle.id!r} does not match the file's header fields")
    if kind == "motion" and tuple(s for s in MOTION_SENSOR_ORDER if s in bundle.motion) != sensors:
        raise ValueError(f"window {bundle.id!r} has different sensors than the file header")
    channels = [bundle.audio] if kind == "audio" else [bundle.motion[s] for s in sensors]
    if any(channel.sample_rate_hz != rate for channel in channels):
        raise ValueError(f"window {bundle.id!r} has a sample rate other than the file's {rate} Hz")
    if len({len(channel) for channel in channels}) != 1:
        raise ValueError(f"window {bundle.id!r} has sensors of different lengths")


def _check_window_id(window_id):
    """A ``#window`` line ends at a line break and reads back its id stripped."""
    if not window_id.strip():
        raise ValueError(f"window id {window_id!r} is blank")
    if window_id != window_id.strip():
        raise ValueError(f"window id {window_id!r} has leading or trailing whitespace")
    if _has_line_break(window_id):
        raise ValueError(f"window id {window_id!r} contains a line break")


def _has_line_break(text):
    return "\n" in text or "\r" in text


def _fmt_floats(values: list) -> list:
    """Shortest round-trip text of each Python float, without a trailing ".0"."""
    return [text[:-2] if text.endswith(".0") else text for text in map(repr, values)]
