"""Frozen slow paths that the fast ones are tested against, bit for bit.

``backprop_step`` and ``reference_train`` are online SGD as the network
engine computed it before its fused lockstep step: per step, the gradients
of :func:`adlsense.network.loss_and_gradients` in fresh arrays, then a plain
update of every layer.

``reference_parse_sensor_log`` is the log parser as it read files before
bulk conversion: one ``_parse_sample`` call and one Python list per sample
line, checked as it is read.

``reference_fft_radix2`` and ``reference_low_pass`` are the signal
primitives as they computed before their buffered forms: an FFT that builds
its twiddles and allocates a fresh array with ``np.concatenate`` at every
stage, and a smoother that steps through numpy scalars one sample at a time.
"""

import math

import numpy as np

from adlsense.datasets import WindowBundle, _parse_header
from adlsense.errors import ParseError, TrainingDivergenceError
from adlsense.network import _label_indices, forward, loss_and_gradients
from adlsense.signals import SampleSeries, TriaxialSeries, _bit_reversal_permutation


def backprop_step(model, features, label_index, learning_rate=None, l2_lambda=None):
    """One stochastic gradient step in place; returns the pre-update loss."""
    if learning_rate is None:
        learning_rate = model.config.learning_rate
    loss, weight_grads, bias_grads = loss_and_gradients(model, features, label_index, l2_lambda)
    if not math.isfinite(loss):
        raise TrainingDivergenceError(f"non-finite loss {loss!r} during training step")
    for w, b, gw, gb in zip(model.weights, model.biases, weight_grads, bias_grads):
        w -= learning_rate * gw
        b -= learning_rate * gb
    return loss


def reference_train(model, features, labels, iteration_budget):
    """``backprop_step`` over the sample order :func:`adlsense.network.train`
    draws from the config seed, shuffled passes of the rows; returns the
    history as ``train`` defines it: per hundredth of the budget, the mean
    cross-entropy of its steps plus the L2 penalty of the weights at its end."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = _label_indices(model, labels)
    l2 = model.config.l2_lambda
    order_rng = np.random.default_rng([model.config.seed, 1])
    stride = max(1, iteration_budget // 100)
    history, chunk = [], []
    done = 0
    while done < iteration_budget:
        for i in order_rng.permutation(x.shape[0]):
            scores = forward(model, x[i])[1]
            chunk.append(-math.log(max(float(scores[y[i]]), 5e-324)))
            backprop_step(model, x[i], y[i])
            done += 1
            if len(chunk) == stride or done == iteration_budget:
                total = 0.0
                for loss in chunk:
                    total += loss
                penalty = 0.5 * l2 * sum(float(np.sum(w * w)) for w in model.weights)
                history.append(total / len(chunk) + (penalty if l2 else 0.0))
                chunk = []
            if done == iteration_budget:
                break
    model.iterations_trained += iteration_budget
    return history


def reference_parse_sensor_log(path) -> list:
    """All window bundles in one raw log file.

    Malformed content raises :class:`ParseError` naming the offending line.
    An empty or all-blank file parses to an empty list. The file is read a
    line at a time, so only the current window's samples are held as Python
    values.
    """
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

    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip() and not any(line.strip() for line in fh):
            return []
        header = _parse_header(path, first.rstrip("\n"))
        for lineno, line in enumerate(fh, start=2):
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


def reference_fft_radix2(frames):
    """Radix-2 decimation-in-time FFT along the last axis, a stage at a time."""
    a = np.asarray(frames, dtype=np.complex128)
    n = a.shape[-1]
    a = a[..., _bit_reversal_permutation(n)]
    m = 2
    while m <= n:
        half = m // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / m)
        blocks = a.reshape(a.shape[:-1] + (n // m, m))
        top = blocks[..., :half]
        bottom = blocks[..., half:] * twiddle
        a = np.concatenate([top + bottom, top - bottom], axis=-1).reshape(a.shape)
        m *= 2
    return a


def reference_low_pass(series, alpha):
    """y[0] = x[0], then y[n] = alpha*x[n] + (1-alpha)*y[n-1] per sample."""
    x = series.values
    y = np.empty_like(x)
    y[0] = x[0]
    if alpha == 1.0:
        y[:] = x
    else:
        decay = 1.0 - alpha
        acc = x[0]
        for n in range(1, x.size):
            acc = alpha * x[n] + decay * acc
            y[n] = acc
    return SampleSeries(y, series.sample_rate_hz)
