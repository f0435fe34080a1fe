"""Seeded synthetic corpora for end-to-end exercise of the recognizers.

Environment audio is spectrally shaped noise: a white window is pushed
through a per-label gain curve (a power-law tilt plus Gaussian band
emphases), then rescaled so its RMS sits on a per-label amplitude ladder
with 5% per-window jitter. Activities are triaxial sinusoids-plus-noise
around fixed sensor rest offsets, with per-label frequency, amplitude, and
noise level; each activity label is associated with one environment so that
fusion corpora can pair motion windows with a plausible audio channel.

Every window draws from ``default_rng([seed, label_index, window_index,
channel])``, so corpora are bit-reproducible and any window can be
regenerated in isolation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .datasets import LabeledDataset, WindowBundle
from .motion import MOTION_SENSOR_ORDER
from .signals import SampleSeries, TriaxialSeries

AUDIO_RATE_HZ = 8000.0
MOTION_RATE_HZ = 100.0
WINDOW_SECONDS = 5.0
AMPLITUDE_JITTER = 0.05

# Sensor rest offsets (gravity for ACC, a fixed field for MAG) and per-sensor
# gains applied to both the oscillation and its noise.
SENSOR_OFFSETS = {
    "ACC": (0.3, 0.6, 9.7),
    "MAG": (18.0, -6.0, 42.0),
    "GYRO": (0.0, 0.0, 0.0),
}
SENSOR_GAINS = {"ACC": 1.0, "MAG": 0.35, "GYRO": 0.7}
AXIS_PHASES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)

_MOTION_CHANNEL = 0
_AUDIO_CHANNEL = 1


@dataclass(frozen=True)
class EnvParams:
    """Colored-noise recipe: spectral tilt, band emphases, RMS amplitude.

    ``bands`` is a tuple of (center_hz, width_hz, gain) Gaussian bumps
    multiplied into the tilt curve.
    """

    tilt: float
    amplitude: float
    bands: tuple = ()

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        object.__setattr__(self, "bands", tuple(tuple(b) for b in self.bands))
        for band in self.bands:
            if len(band) != 3 or band[0] < 0 or band[1] <= 0:
                raise ValueError(f"band must be (center_hz, width_hz>0, gain), got {band}")


@dataclass(frozen=True)
class AdlParams:
    """Sinusoid-plus-noise recipe for one activity, tied to a scene."""

    frequency_hz: float
    amplitude: float
    noise_std: float
    environment: str = ""

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency_hz must be positive, got {self.frequency_hz}")
        if self.amplitude <= 0 or self.noise_std < 0:
            raise ValueError("amplitude must be positive and noise_std non-negative")


# One entry per scene the audio recognizer distinguishes. Amplitudes follow a
# geometric ladder (factor 1.38) so that adjacent scenes stay separable under
# the 5% per-window jitter; tilts and band bumps give each scene its own
# spectral shape.
DEFAULT_ENVIRONMENTS = (
    "bar", "classroom", "gym", "kitchen", "library", "street", "hall",
    "watching TV", "bedroom",
)
DEFAULT_ENV_PARAMS = {
    "bar": EnvParams(tilt=-1.1, amplitude=0.06, bands=((400.0, 180.0, 2.2), (2600.0, 500.0, 1.1))),
    "classroom": EnvParams(tilt=0.4, amplitude=0.0828, bands=((900.0, 250.0, 1.6),)),
    "gym": EnvParams(tilt=-0.6, amplitude=0.114264, bands=((180.0, 90.0, 2.8), (1400.0, 350.0, 1.2))),
    "kitchen": EnvParams(tilt=0.9, amplitude=0.15768, bands=((2300.0, 400.0, 2.0),)),
    "library": EnvParams(tilt=-2.2, amplitude=0.21760, bands=((120.0, 60.0, 1.4),)),
    "street": EnvParams(tilt=-1.6, amplitude=0.30029, bands=((80.0, 50.0, 3.0), (1100.0, 400.0, 0.8))),
    "hall": EnvParams(tilt=0.1, amplitude=0.41440, bands=((600.0, 220.0, 1.9),)),
    "watching TV": EnvParams(tilt=-0.3, amplitude=0.57187, bands=((320.0, 120.0, 2.4), (3200.0, 600.0, 1.5))),
    "bedroom": EnvParams(tilt=-2.6, amplitude=0.78918, bands=((60.0, 40.0, 1.2),)),
}

# Stage-1 activities. Frequencies and amplitudes are spaced so the smoothed
# magnitude's standard deviation forms its own well-separated ladder.
DEFAULT_ADLS = ("running", "walking", "going upstairs", "going downstairs", "standing")
DEFAULT_ADL_PARAMS = {
    "running": AdlParams(2.8, 6.0, 0.8, "gym"),
    "walking": AdlParams(1.8, 3.0, 0.5, "street"),
    "going upstairs": AdlParams(1.1, 1.6, 0.45, "hall"),
    "going downstairs": AdlParams(1.4, 1.2, 0.4, "library"),
    "standing": AdlParams(0.25, 0.18, 0.1, "classroom"),
}

# Near-still activities the standing refinement stage separates, mostly by
# where (which scene) they happen.
DEFAULT_STANDING = ("sleeping", "watching TV")
DEFAULT_STANDING_PARAMS = {
    "sleeping": AdlParams(0.05, 0.03, 0.02, "bedroom"),
    "watching TV": AdlParams(0.12, 0.08, 0.05, "watching TV"),
}


@dataclass(frozen=True)
class SynthSpec:
    """A corpus recipe: which labels, how many windows each, from which seed."""

    kind: str
    labels: tuple
    windows_per_label: int
    params: dict
    seed: int = 42
    with_audio: bool = False

    def __post_init__(self):
        if self.kind not in ("ENVIRONMENT", "ADL"):
            raise ValueError(f"kind must be ENVIRONMENT or ADL, got {self.kind!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        seen = {}
        for label in self.labels:
            slug = label_slug(label)
            if slug in seen:
                raise ValueError(
                    f"labels {seen[slug]!r} and {label!r} both become {slug!r} "
                    "in log file names and window ids"
                )
            seen[slug] = label
        if self.windows_per_label < 1:
            raise ValueError(f"windows_per_label must be >= 1, got {self.windows_per_label}")
        missing = [l for l in self.labels if l not in self.params]
        if missing:
            raise ValueError(f"no parameters for label {missing[0]!r}")
        expected = EnvParams if self.kind == "ENVIRONMENT" else AdlParams
        for label in self.labels:
            if not isinstance(self.params[label], expected):
                raise ValueError(f"label {label!r} needs {expected.__name__} parameters")
        tuples = [astuple(self.params[l]) for l in self.labels]
        if len(set(tuples)) != len(tuples):
            raise ValueError("distinct labels must have distinct parameter tuples")
        if self.kind == "ENVIRONMENT" and self.with_audio:
            raise ValueError("with_audio applies only to ADL corpora")
        if self.with_audio:
            for label in self.labels:
                environment = self.params[label].environment
                if environment not in DEFAULT_ENV_PARAMS:
                    raise ValueError(
                        f"label {label!r}: no audio recipe for environment {environment!r}"
                    )


def default_environment_spec(windows_per_label: int = 200, seed: int = 42) -> SynthSpec:
    return SynthSpec("ENVIRONMENT", DEFAULT_ENVIRONMENTS, windows_per_label,
                     dict(DEFAULT_ENV_PARAMS), seed)


def default_adl_spec(windows_per_label: int = 200, seed: int = 42,
                     with_audio: bool = False) -> SynthSpec:
    return SynthSpec("ADL", DEFAULT_ADLS, windows_per_label, dict(DEFAULT_ADL_PARAMS),
                     seed, with_audio)


def default_standing_spec(windows_per_label: int = 200, seed: int = 42) -> SynthSpec:
    return SynthSpec("ADL", DEFAULT_STANDING, windows_per_label,
                     dict(DEFAULT_STANDING_PARAMS), seed, with_audio=True)


def label_slug(label: str) -> str:
    """A label as it appears in log file names and window ids: every
    character that is not alphanumeric becomes '-'."""
    return "".join(c if c.isalnum() else "-" for c in label)


def _window_rng(seed, label_index, window_index, channel):
    return np.random.default_rng([seed, label_index, window_index, channel])


def environment_window(rng, params: EnvParams,
                       rate_hz: float = AUDIO_RATE_HZ,
                       seconds: float = WINDOW_SECONDS) -> SampleSeries:
    """One colored-noise audio window at the recipe's jittered RMS."""
    count = round(rate_hz * seconds)
    white = rng.standard_normal(count)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(count, 1.0 / rate_hz)
    gain = (np.maximum(freqs, 50.0) / 1000.0) ** (params.tilt / 2.0)
    for center, width, bump in params.bands:
        gain *= 1.0 + bump * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    gain[0] = 0.0
    shaped = np.fft.irfft(spectrum * gain, n=count)
    target_rms = params.amplitude * max(0.5, 1.0 + AMPLITUDE_JITTER * rng.standard_normal())
    rms = math.sqrt(float(np.mean(shaped * shaped)))
    return SampleSeries(shaped * (target_rms / rms), rate_hz)


def motion_window(rng, params: AdlParams,
                  rate_hz: float = MOTION_RATE_HZ,
                  seconds: float = WINDOW_SECONDS) -> dict:
    """All three motion channels for one activity window."""
    count = round(rate_hz * seconds)
    t = np.arange(count) / rate_hz
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amplitude = params.amplitude * max(0.5, 1.0 + AMPLITUDE_JITTER * rng.standard_normal())
    channels = {}
    for sensor in MOTION_SENSOR_ORDER:
        gain = SENSOR_GAINS[sensor]
        axes = []
        for offset, axis_phase in zip(SENSOR_OFFSETS[sensor], AXIS_PHASES):
            wave = amplitude * gain * np.sin(
                2.0 * math.pi * params.frequency_hz * t + phase + axis_phase
            )
            noise = params.noise_std * gain * rng.standard_normal(count)
            axes.append(offset + wave + noise)
        channels[sensor] = TriaxialSeries.from_arrays(axes[0], axes[1], axes[2], rate_hz)
    return channels


def synth_windows(spec: SynthSpec):
    """Yield the corpus one :class:`WindowBundle` at a time."""
    for label_index, label in enumerate(spec.labels):
        params = spec.params[label]
        slug = label_slug(label)
        for window_index in range(spec.windows_per_label):
            wid = f"{slug}-{window_index:04d}"
            if spec.kind == "ENVIRONMENT":
                rng = _window_rng(spec.seed, label_index, window_index, _AUDIO_CHANNEL)
                yield WindowBundle(
                    id=wid, label=label, label_kind="ENVIRONMENT",
                    audio=environment_window(rng, params),
                )
            else:
                rng = _window_rng(spec.seed, label_index, window_index, _MOTION_CHANNEL)
                audio = None
                if spec.with_audio:
                    audio_rng = _window_rng(spec.seed, label_index, window_index, _AUDIO_CHANNEL)
                    audio = environment_window(audio_rng, DEFAULT_ENV_PARAMS[params.environment])
                yield WindowBundle(
                    id=wid, label=label, label_kind="ADL",
                    motion=motion_window(rng, params),
                    audio=audio,
                    environment=params.environment,
                )


def synth_corpus(spec: SynthSpec) -> list:
    """The whole corpus as a list (use :func:`synth_windows` to stream)."""
    return list(synth_windows(spec))


def separation_ratio(dataset: LabeledDataset) -> float:
    """How far apart the label clusters sit, in within-label standard deviations.

    For every pair of labels, take the best feature's mean gap divided by the
    larger of the two within-label standard deviations; return the worst pair.
    A corpus is comfortably learnable when this is >= 3.
    """
    labels = np.asarray(dataset.labels)
    stats = {}
    for label in dataset.label_names:
        rows = dataset.rows[labels == label]
        if rows.shape[0] < 2:
            raise ValueError(f"label {label!r} needs at least 2 rows to measure spread")
        stats[label] = (rows.mean(axis=0), rows.std(axis=0))
    worst = math.inf
    names = dataset.label_names
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            gap = np.abs(stats[a][0] - stats[b][0])
            spread = np.maximum(np.maximum(stats[a][1], stats[b][1]), 1e-12)
            worst = min(worst, float(np.max(gap / spread)))
    return worst
