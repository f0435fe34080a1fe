"""Timing spans around the layers' public functions, from outside the program.

The program has no tracing of its own, so the benchmark replaces each layer
function with a wrapper at the name through which its caller looks it up
(``cli.py`` and the layer modules import functions by name). A span records
its name, start, end, parent span and a few attributes; spans stay in memory
and are written out when the traced command ends.

launch.py runs the traced form of the ``adlsense`` command through
:func:`traced_main`.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import dataclass


class Recorder:
    """Spans of one traced command: [id, parent, name, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1

    def wrap(self, name, fn, describe=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            attrs = describe(args, kwargs, result) if describe else {}
            self.spans.append([span_id, parent, name, start, end, attrs])
            return result
        return traced


def _parsed(args, kwargs, bundles):
    kind = "audio" if bundles and bundles[0].audio is not None else "motion"
    return {"kind": kind, "windows": len(bundles)}


def _trained(args, kwargs, history):
    model = args[0]
    budget = args[3] if len(args) > 3 else kwargs.get("iteration_budget")
    if budget is None:
        budget = model.config.iteration_budget
    return {"preset": model.config.preset, "steps": budget}


def _classified(args, kwargs, result):
    return {"refined": "standing" in result.scores}


# (module, attribute, span name, attribute function). Each function is
# replaced where its caller looks it up.
PATCHES = (
    ("adlsense.cli", "parse_sensor_log", "datasets.parse_sensor_log", _parsed),
    ("adlsense.cli", "train_pipeline", "pipeline.train_pipeline", None),
    ("adlsense.cli", "classify_window", "pipeline.classify_window", _classified),
    ("adlsense.pipeline", "build_dataset", "datasets.build_dataset", None),
    ("adlsense.pipeline", "audio_feature_vector", "audio.audio_feature_vector", None),
    ("adlsense.datasets", "audio_feature_vector", "audio.audio_feature_vector", None),
    ("adlsense.audio", "fft_radix2", "signals.fft_radix2", None),
    ("adlsense.motion", "low_pass", "signals.low_pass", None),
    ("adlsense.pipeline", "motion_feature_vector", "motion.motion_feature_vector", None),
    ("adlsense.datasets", "motion_feature_vector", "motion.motion_feature_vector", None),
    ("adlsense.network", "train", "network.train", _trained),
    ("adlsense.pipeline", "classify", "network.classify", None),
    ("adlsense.datasets", "classify", "network.classify", None),
)


def traced_main(trace_path, argv) -> int:
    recorder = Recorder()
    for module_name, attr, name, describe in PATCHES:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), describe))
    cli = importlib.import_module("adlsense.cli")
    code = recorder.wrap("cli.main", cli.main)(argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of traced commands


@dataclass
class Invocation:
    """The spans of one traced command plus the windows it consumed."""

    spans: list
    windows: int
    audio_windows: int

    def named(self, name):
        return [s for s in self.spans if s[2] == name]


def _durations(invocations, name):
    return [s[4] - s[3] for inv in invocations for s in inv.named(name)]


def _ratio(num, den):
    return num / den if den else 0.0


def _parse_ms(kind):
    def metric(invs):
        spans = [s for inv in invs for s in inv.named("datasets.parse_sensor_log")
                 if s[5]["kind"] == kind]
        return 1000.0 * _ratio(sum(s[4] - s[3] for s in spans),
                               sum(s[5]["windows"] for s in spans))
    return metric


def _per_call(name, scale):
    def metric(invs):
        durations = _durations(invs, name)
        return scale * _ratio(sum(durations), len(durations))
    return metric


def _per_invocation_s(name):
    return lambda invs: sum(_durations(invs, name)) / len(invs)


def _sgd_us(preset):
    def metric(invs):
        spans = [s for inv in invs for s in inv.named("network.train")
                 if s[5]["preset"] == preset]
        return 1e6 * _ratio(sum(s[4] - s[3] for s in spans),
                            sum(s[5]["steps"] for s in spans))
    return metric


def _calls_per(name, window_attr):
    return lambda invs: _ratio(sum(len(inv.named(name)) for inv in invs),
                               sum(getattr(inv, window_attr) for inv in invs))


def _refined_share(invs):
    spans = [s for inv in invs for s in inv.named("pipeline.classify_window")]
    return _ratio(sum(1 for s in spans if s[5]["refined"]), len(spans))


def _classify_window_p50(invs):
    return 1000.0 * statistics.median(_durations(invs, "pipeline.classify_window"))


def _cli_self_ms(invs):
    total = 0.0
    for inv in invs:
        (main,) = inv.named("cli.main")
        children = sum(s[4] - s[3] for s in inv.spans if s[1] == main[0])
        total += (main[4] - main[3]) - children
    return 1000.0 * total / len(invs)


# metric name -> (span that must occur for the metric to apply, function).
LAYER_METRICS = {
    "datasets.parse_audio_ms_per_window": (
        ("datasets.parse_sensor_log", "audio"), _parse_ms("audio")),
    "datasets.parse_motion_ms_per_window": (
        ("datasets.parse_sensor_log", "motion"), _parse_ms("motion")),
    "datasets.build_dataset_s": (
        ("datasets.build_dataset", None), _per_invocation_s("datasets.build_dataset")),
    "audio.feature_ms_per_call": (
        ("audio.audio_feature_vector", None), _per_call("audio.audio_feature_vector", 1e3)),
    "audio.feature_calls_per_window": (
        ("audio.audio_feature_vector", None),
        _calls_per("audio.audio_feature_vector", "audio_windows")),
    "signals.fft_ms_per_call": (
        ("signals.fft_radix2", None), _per_call("signals.fft_radix2", 1e3)),
    "signals.low_pass_us_per_call": (
        ("signals.low_pass", None), _per_call("signals.low_pass", 1e6)),
    "signals.low_pass_calls_per_window": (
        ("signals.low_pass", None), _calls_per("signals.low_pass", "windows")),
    "motion.feature_ms_per_call": (
        ("motion.motion_feature_vector", None),
        _per_call("motion.motion_feature_vector", 1e3)),
    "network.sgd_us_per_step.feedforward": (
        ("network.train", "FEEDFORWARD"), _sgd_us("FEEDFORWARD")),
    "network.sgd_us_per_step.deep": (("network.train", "DEEP"), _sgd_us("DEEP")),
    "network.classify_us_per_call": (
        ("network.classify", None), _per_call("network.classify", 1e6)),
    "pipeline.classify_window_ms_p50": (
        ("pipeline.classify_window", None), _classify_window_p50),
    "pipeline.refined_per_window": (("pipeline.classify_window", None), _refined_share),
    "pipeline.train_pipeline_s": (
        ("pipeline.train_pipeline", None), _per_invocation_s("pipeline.train_pipeline")),
    "cli.self_ms": (("cli.main", None), _cli_self_ms),
}

# Counts that must repeat exactly from one traced pass to the next.
COUNTED_SPANS = (
    "datasets.parse_sensor_log", "datasets.build_dataset", "audio.audio_feature_vector",
    "signals.fft_radix2", "signals.low_pass", "motion.motion_feature_vector",
    "network.train", "network.classify", "pipeline.classify_window",
)


def _applies(invs, needed):
    name, qualifier = needed
    for inv in invs:
        for s in inv.named(name):
            if qualifier is None or qualifier in (s[5].get("kind"), s[5].get("preset")):
                return True
    return False


def layer_metrics(passes, fallback):
    """Each per-layer metric from the traced passes where the pass calls the
    layer, otherwise from the workload's other traced command.

    Returns (values, sources); a source is "pass", "fallback" or "none".
    """
    values, sources = {}, {}
    for name, (needed, metric) in LAYER_METRICS.items():
        for source, invs in (("pass", passes), ("fallback", fallback)):
            if invs and _applies(invs, needed):
                values[name] = metric(invs)
                sources[name] = source
                break
        else:
            values[name] = 0.0
            sources[name] = "none"
    return values, sources


def span_counts(inv) -> dict:
    counts = {name: len(inv.named(name)) for name in COUNTED_SPANS}
    counts["refined"] = sum(1 for s in inv.named("pipeline.classify_window")
                            if s[5]["refined"])
    counts["sgd_steps"] = sum(s[5]["steps"] for s in inv.named("network.train"))
    return counts

