"""From-scratch fully-connected network engine.

One engine serves three presets that differ in depth and training protocol:

* ``MLP`` — one 16-unit hidden layer, min/max input scaling.
* ``FEEDFORWARD`` — one 32-unit hidden layer, min/max input scaling.
* ``DEEP`` — 64/32/16 hidden layers, z-score scaling and L2 weight decay.

Hidden units are sigmoids; the output layer is a softmax trained with
cross-entropy. Training is plain online stochastic gradient descent: one
iteration presents one sample, samples are drawn in seeded shuffled passes,
and everything is deterministic given the seed.

Each step applies the gradients :func:`loss_and_gradients` defines, fused
over preallocated buffers. Models that share a config, labels and rows, and
differ at most in input width, train in lockstep through
:func:`train_group` (the pipeline's three standing refiners do); each ends
bit-identical to training it alone. A training history holds, per
hundredth of the budget, the mean cross-entropy of its steps plus the L2
penalty of the weights at its end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, TrainingDivergenceError

# Normalizer kind -> the per-feature parameters it stores.
NORMALIZER_PARAMS = {"NONE": (), "MINMAX": ("min", "max"), "ZSCORE": ("mean", "std")}
NORMALIZATIONS = tuple(NORMALIZER_PARAMS)
PRESETS = {
    "MLP": dict(hidden_layers=(16,), normalization="MINMAX", l2_lambda=0.0),
    "FEEDFORWARD": dict(hidden_layers=(32,), normalization="MINMAX", l2_lambda=0.0),
    "DEEP": dict(hidden_layers=(64, 32, 16), normalization="ZSCORE", l2_lambda=1e-4),
}
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    preset: str = "MLP"
    hidden_layers: tuple = (16,)
    learning_rate: float = 0.01
    l2_lambda: float = 0.0
    iteration_budget: int = 1_000_000
    seed: int = 42
    normalization: str = "MINMAX"

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}, expected one of {sorted(PRESETS)}")
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError(f"hidden_layers must be positive counts, got {self.hidden_layers}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be non-negative, got {self.l2_lambda}")
        if self.iteration_budget < 0:
            raise ValueError(f"iteration_budget must be non-negative, got {self.iteration_budget}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}, expected one of {NORMALIZATIONS}"
            )

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "NetworkConfig":
        """The named preset's protocol, with any field overridable."""
        key = name.upper()
        if key not in PRESETS:
            raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
        fields = dict(PRESETS[key], preset=key)
        fields.update(overrides)
        return cls(**fields)


@dataclass(frozen=True)
class Normalizer:
    """Per-feature input scaling fitted on training rows only.

    MINMAX maps the training minimum/maximum to 0/1; ZSCORE subtracts the
    mean and divides by the population standard deviation; NONE is the
    identity. A constant training column always maps to 0, and values outside
    the training range are never clamped.
    """

    kind: str = "NONE"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NORMALIZATIONS:
            raise ValueError(f"unknown normalizer kind {self.kind!r}")

    @property
    def feature_count(self) -> int | None:
        for arr in self.params.values():
            return len(arr)
        return None


def fit_normalizer(kind: str, rows) -> Normalizer:
    """Learn per-feature scaling parameters from a (rows, features) matrix."""
    if kind not in NORMALIZATIONS:
        raise ValueError(f"unknown normalizer kind {kind!r}")
    if kind == "NONE":
        return Normalizer("NONE", {})
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"need a non-empty (rows, features) matrix, got shape {x.shape}")
    if kind == "MINMAX":
        return Normalizer("MINMAX", {"min": x.min(axis=0), "max": x.max(axis=0)})
    return Normalizer("ZSCORE", {"mean": x.mean(axis=0), "std": x.std(axis=0)})


def apply_normalizer(norm: Normalizer, features):
    """Transform a feature vector or matrix; shape is preserved."""
    x = np.asarray(features, dtype=np.float64)
    if norm.kind == "NONE":
        return x.copy()
    expected = norm.feature_count
    if x.shape[-1] != expected:
        raise ValueError(f"feature count {x.shape[-1]} != normalizer's {expected}")
    if norm.kind == "MINMAX":
        low = norm.params["min"]
        span = norm.params["max"] - low
        safe = np.where(span == 0.0, 1.0, span)
        out = (x - low) / safe
    else:
        std = norm.params["std"]
        safe = np.where(std == 0.0, 1.0, std)
        out = (x - norm.params["mean"]) / safe
        span = std
    return np.where(span == 0.0, 0.0, out)


@dataclass
class NetworkModel:
    config: NetworkConfig
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    labels: list
    normalizer: Normalizer = field(default_factory=Normalizer)
    iterations_trained: int = 0

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def clone(self) -> "NetworkModel":
        return NetworkModel(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            labels=list(self.labels),
            normalizer=self.normalizer,
            iterations_trained=self.iterations_trained,
        )


def init_network(config: NetworkConfig, input_size: int, labels) -> NetworkModel:
    """Fresh model: weights ~ U(-r, r) with r = sqrt(6/(fan_in+fan_out)),
    biases zero, drawn from a generator derived from the config seed."""
    labels = list(labels)
    if input_size < 1 or len(labels) < 2:
        raise ValueError(f"need input_size >= 1 and >= 2 labels, got {input_size}, {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    rng = np.random.default_rng([config.seed, 0])
    sizes = [input_size, *config.hidden_layers, len(labels)]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        r = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkModel(config=config, weights=weights, biases=biases, labels=labels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) <= 1 cannot overflow; pick the form that matches z's sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(model: NetworkModel, features) -> tuple:
    """Activations per layer (input first, output scores last) and the scores.

    Accepts one already-normalized feature vector, or a matrix of them.
    """
    a = np.asarray(features, dtype=np.float64)
    if a.shape[-1] != model.weights[0].shape[0]:
        raise ValueError(
            f"feature count {a.shape[-1]} != network input size {model.weights[0].shape[0]}"
        )
    activations = [a]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = _sigmoid(a @ w + b)
        activations.append(a)
    scores = np.exp(_log_softmax(a @ model.weights[-1] + model.biases[-1]))
    activations.append(scores)
    return activations, scores


def sample_loss(model: NetworkModel, features, label_index: int, l2_lambda=None) -> float:
    """Training loss on one sample under current parameters (no update).

    Cross-entropy of the softmax output, plus (l2_lambda/2) * sum of squared
    weights (biases excluded).
    """
    if l2_lambda is None:
        l2_lambda = model.config.l2_lambda
    a = np.asarray(features, dtype=np.float64)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = _sigmoid(a @ w + b)
    z = a @ model.weights[-1] + model.biases[-1]
    loss = -float(_log_softmax(z)[label_index])
    if l2_lambda:
        loss += 0.5 * l2_lambda * sum(float(np.sum(w * w)) for w in model.weights)
    return loss


def loss_and_gradients(model: NetworkModel, features, label_index: int,
                       l2_lambda=None) -> tuple:
    """Loss plus per-layer weight and bias gradients, without updating.

    Returns (loss, weight_grads, bias_grads) with arrays shaped like the
    model's parameters.
    """
    if l2_lambda is None:
        l2_lambda = model.config.l2_lambda
    activations, scores = forward(model, features)
    label_index = int(label_index)

    loss = -math.log(max(float(scores[label_index]), 5e-324))
    delta = scores.copy()
    delta[label_index] -= 1.0
    if l2_lambda:
        loss += 0.5 * l2_lambda * sum(float(np.sum(w * w)) for w in model.weights)

    count = len(model.weights)
    weight_grads = [None] * count
    bias_grads = [None] * count
    for layer in range(count - 1, -1, -1):
        a_prev = activations[layer]
        bias_grads[layer] = delta
        grad_w = np.outer(a_prev, delta)
        if l2_lambda:
            grad_w += l2_lambda * model.weights[layer]
        weight_grads[layer] = grad_w
        if layer > 0:
            delta = (model.weights[layer] @ delta) * a_prev * (1.0 - a_prev)
    return loss, weight_grads, bias_grads


def _sigmoid_into(z, e, d, out) -> None:
    """:func:`_sigmoid` of ``z`` into ``out`` with the same bits; ``e`` and
    ``d`` are work arrays. Both branches divide by 1 + exp(-|z|), and the
    numerator exp(min(z, 0)) is 1 where z >= 0 and exp(-|z|) elsewhere."""
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=d)
    np.minimum(z, 0.0, out=e)
    np.exp(e, out=e)
    np.divide(e, d, out=out)


def _check_loss(loss: float) -> None:
    if not math.isfinite(loss):
        raise TrainingDivergenceError(f"non-finite loss {loss!r} during training step")


def train(model: NetworkModel, features, labels, iteration_budget=None) -> list:
    """Online SGD for ``iteration_budget`` sample presentations, in place.

    ``features`` must already be normalized with the model's normalizer.
    Samples are visited in shuffled passes drawn from a generator keyed by the
    config seed, so identical inputs give identical trained parameters. The
    returned history holds, per hundredth of the budget, the mean
    cross-entropy of its steps plus the L2 penalty of the weights at its end.
    This is :func:`train_group` with a group of one.
    """
    return train_group([model], [features], labels, iteration_budget)[0]


def train_group(models, feature_sets, labels, iteration_budget=None) -> list:
    """Online SGD of K models in lockstep, in place; one history per model.

    The models share their config, their labels and the shapes of every
    layer after the first, so only the input width may differ. Model k
    trains on ``feature_sets[k]``, normalized rows that all share
    ``labels``. Every model visits the rows in the order its config seed
    draws and ends with the bits it would have trained to alone; histories
    are as :func:`train` defines them.

    A step is :func:`loss_and_gradients` and a plain update fused over
    preallocated buffers. From the output layer down, every layer's gradient
    and next delta come from the pre-update weights; then one elementwise
    pass applies ``W -= lr * (outer(a, delta) + l2 * W)`` and
    ``b -= lr * delta`` to every layer of every model. Layer 0 runs per model
    at its own width. Later layers are stacked as ``(K, fan_in, fan_out)``
    arrays and stepped with batched ``np.matmul``, which computes each
    model's product as it would for that model alone. A divergence raises
    before any model is written back, so the models keep their starting
    parameters.
    """
    models = list(models)
    if not models or len(feature_sets) != len(models):
        raise ValueError(f"need one feature matrix per model, got {len(feature_sets)} "
                         f"for {len(models)} models")
    head = models[0]
    config = head.config
    shapes = [w.shape for w in head.weights[1:]]
    for model in models[1:]:
        if (model.config != config or model.labels != head.labels
                or [w.shape for w in model.weights[1:]] != shapes):
            raise ValueError("models trained in lockstep must share their config, "
                             "labels and layers after the first")
    if iteration_budget is None:
        iteration_budget = config.iteration_budget
    y = _label_indices(head, labels)
    xs = []
    for model, features in zip(models, feature_sets):
        x = np.ascontiguousarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"need a non-empty (rows, features) matrix, got shape {x.shape}")
        if x.shape[0] != y.size:
            raise ValueError(f"{x.shape[0]} rows but {y.size} labels")
        if x.shape[1] != model.weights[0].shape[0]:
            raise ValueError(f"feature count {x.shape[1]} != network input size "
                             f"{model.weights[0].shape[0]}")
        xs.append(x)
    histories = [[] for _ in models]
    if iteration_budget == 0:
        return histories

    group, layers = len(models), len(head.weights)
    lr, l2 = config.learning_rate, config.l2_lambda
    # All weights live in one flat buffer: layer 0 as each model's own
    # (fan_in, fan_out) block, every later layer as one (K, fan_in, fan_out)
    # block. Biases and deltas share a second layout of (K, 1, width) blocks.
    # The gradients are stored in the weights' layout, so the decay and the
    # update of every layer of every model run as four elementwise calls.
    weight_shapes = [m.weights[0].shape for m in models]
    weight_shapes += [(group, *w.shape) for w in head.weights[1:]]
    row_shapes = [(group, 1, b.size) for b in head.biases]
    flat_w, views_w = _carve(weight_shapes)
    flat_g, views_g = _carve(weight_shapes)
    flat_b, biases = _carve(row_shapes)
    flat_z, z = _carve(row_shapes)
    flat_decay, flat_step = np.empty_like(flat_w), np.empty_like(flat_z)
    first, weights = views_w[:group], [None] + views_w[group:]
    first_grads, grads = views_g[:group], [None] + views_g[group:]
    for k, model in enumerate(models):
        first[k][...] = model.weights[0]
        for i in range(1, layers):
            weights[i][k] = model.weights[i]
        for i in range(layers):
            biases[i][k, 0] = model.biases[i]
    # z[i] holds layer i's pre-activation in the forward pass and its delta
    # in the backward pass; acts[i] is the input of layer i; temp and spare
    # are work arrays of z's shapes.
    acts = [None] + [np.empty_like(r) for r in z[:-1]]
    temp = [np.empty_like(r) for r in z]
    spare = [np.empty_like(r) for r in z]
    z_cols = [r.reshape(group, -1, 1) for r in z]
    act_cols = [None] + [a.reshape(group, -1, 1) for a in acts[1:]]
    first_rows = [z[0][k, 0] for k in range(group)]
    first_deltas = [z[0][k] for k in range(group)]
    x_cols = [x[:, :, None] for x in xs]
    scores, peak = z[-1], np.empty((group, 1, 1))
    labels_list = y.tolist()

    order_rng = np.random.default_rng([config.seed, 1])
    stride = max(1, iteration_budget // 100)
    totals = [0.0] * group
    chunk_count = 0
    done = 0
    while done < iteration_budget:
        for i in order_rng.permutation(y.size).tolist():
            for k in range(group):
                np.matmul(xs[k][i], first[k], out=first_rows[k])
            for layer in range(1, layers):
                below = z[layer - 1]
                np.add(below, biases[layer - 1], out=below)
                _sigmoid_into(below, temp[layer - 1], spare[layer - 1], acts[layer])
                np.matmul(acts[layer], weights[layer], out=z[layer])
            np.add(scores, biases[-1], out=scores)
            np.maximum.reduce(scores, axis=-1, keepdims=True, out=peak)
            np.subtract(scores, peak, out=scores)
            np.exp(scores, out=temp[-1])
            np.add.reduce(temp[-1], axis=-1, keepdims=True, out=peak)
            np.log(peak, out=peak)
            np.subtract(scores, peak, out=scores)
            np.exp(scores, out=scores)

            label = labels_list[i]
            for k, p in enumerate(scores[:, 0, label].tolist()):
                loss = -math.log(max(p, 5e-324))
                _check_loss(loss)
                totals[k] += loss

            # Every gradient from the pre-update weights, then one update.
            scores[:, 0, label] -= 1.0
            for layer in range(layers - 1, 0, -1):
                a_prev, below = acts[layer], z[layer - 1]
                np.multiply(act_cols[layer], z[layer], out=grads[layer])
                np.matmul(weights[layer], z_cols[layer], out=z_cols[layer - 1])
                np.multiply(below, a_prev, out=below)
                np.subtract(1.0, a_prev, out=temp[layer - 1])
                np.multiply(below, temp[layer - 1], out=below)
            for k in range(group):
                np.multiply(x_cols[k][i], first_deltas[k], out=first_grads[k])
            if l2:
                np.multiply(l2, flat_w, out=flat_decay)
                np.add(flat_g, flat_decay, out=flat_g)
            np.multiply(lr, flat_g, out=flat_g)
            np.subtract(flat_w, flat_g, out=flat_w)
            np.multiply(lr, flat_z, out=flat_step)
            np.subtract(flat_b, flat_step, out=flat_b)

            chunk_count += 1
            done += 1
            if chunk_count == stride or done == iteration_budget:
                for k in range(group):
                    loss = totals[k] / chunk_count
                    if l2:
                        own = [first[k]] + [w[k] for w in weights[1:]]
                        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in own)
                    _check_loss(loss)
                    histories[k].append(loss)
                totals = [0.0] * group
                chunk_count = 0
            if done == iteration_budget:
                break

    if not np.all(np.isfinite(flat_w)):
        raise TrainingDivergenceError("non-finite weights after training")
    for k, model in enumerate(models):
        model.weights[0][...] = first[k]
        for i in range(1, layers):
            model.weights[i][...] = weights[i][k]
        for i in range(layers):
            model.biases[i][...] = biases[i][k, 0]
        model.iterations_trained += iteration_budget
    return histories


def _carve(shapes) -> tuple:
    """One flat float64 buffer and a view of it for each shape, in order."""
    flat = np.empty(sum(math.prod(shape) for shape in shapes))
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return flat, views


@dataclass
class EvalReport:
    """Accuracy, confusion counts (rows = true, columns = predicted), and
    per-label precision/recall."""

    labels: list
    accuracy: float
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "total": self.total,
        }


def evaluate(model: NetworkModel, raw_features, labels) -> EvalReport:
    """Score every raw row and tally argmax predictions; like :func:`classify`,
    this applies the model's normalizer itself."""
    x = np.asarray(raw_features, dtype=np.float64)
    y = _label_indices(model, labels)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"need a non-empty (rows, features) matrix, got shape {x.shape}")
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} rows but {y.size} labels")
    _, scores = forward(model, apply_normalizer(model.normalizer, x))
    predicted = scores.argmax(axis=1)
    count = len(model.labels)
    confusion = np.zeros((count, count), dtype=np.int64)
    np.add.at(confusion, (y, predicted), 1)
    diag = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros(count), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(count), where=row > 0)
    return EvalReport(
        labels=list(model.labels),
        accuracy=float(diag.sum() / y.size),
        confusion=confusion,
        precision=precision,
        recall=recall,
    )


def classify(model: NetworkModel, raw_features) -> tuple:
    """(label, scores) for one raw feature vector; normalization applied here."""
    scores = forward(model, apply_normalizer(model.normalizer, raw_features))[1]
    return model.labels[int(scores.argmax())], scores


def fit_model(config: NetworkConfig, features, labels, label_names=None,
              iteration_budget=None) -> tuple:
    """Fit the normalizer, initialize, and train in one call.

    ``features`` are raw rows; the normalizer named by the config is fitted
    on them and attached to the returned model. ``label_names`` fixes the
    label order (defaults to sorted unique labels). Returns (model, history),
    with the history as :func:`train` defines it.
    """
    labels = list(labels)
    if label_names is None:
        label_names = sorted(set(labels))
    model, x = _fitted_init(config, features, label_names)
    return model, train(model, x, labels, iteration_budget)


def fit_models(config: NetworkConfig, feature_sets, labels, label_names=None,
               iteration_budget=None) -> list:
    """:func:`fit_model` for several raw feature matrices of the same rows,
    trained in lockstep by :func:`train_group`.

    The matrices may differ in width, never in row count. Returns one
    (model, history) per matrix, each bit-identical to what
    :func:`fit_model` gives for that matrix alone.
    """
    labels = list(labels)
    if label_names is None:
        label_names = sorted(set(labels))
    models, rows = [], []
    for features in feature_sets:
        model, x = _fitted_init(config, features, label_names)
        models.append(model)
        rows.append(x)
    return list(zip(models, train_group(models, rows, labels, iteration_budget)))


def _fitted_init(config: NetworkConfig, features, label_names) -> tuple:
    """A fresh model carrying the config's normalizer fitted on the raw
    ``features``, and those rows normalized."""
    x = np.asarray(features, dtype=np.float64)
    norm = fit_normalizer(config.normalization, x)
    model = init_network(config, x.shape[1], label_names)
    model.normalizer = norm
    return model, apply_normalizer(norm, x)


def _label_indices(model: NetworkModel, labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind in "iu":
        idx = arr.astype(np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= len(model.labels)):
            raise ValueError(f"label index out of range for {len(model.labels)} labels")
        return idx
    lookup = {name: i for i, name in enumerate(model.labels)}
    unknown = sorted(set(arr.tolist()) - set(lookup))
    if unknown:
        raise ValueError(f"labels {unknown} not in model dictionary {model.labels}")
    return np.asarray([lookup[name] for name in arr.tolist()], dtype=np.intp)


def model_to_dict(model: NetworkModel) -> dict:
    cfg = model.config
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "preset": cfg.preset,
        "layer_sizes": model.layer_sizes,
        "activation": "sigmoid",
        "output_activation": "softmax",
        "learning_rate": cfg.learning_rate,
        "l2_lambda": cfg.l2_lambda,
        "iteration_budget": cfg.iteration_budget,
        "normalization": cfg.normalization,
        "seed": cfg.seed,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "normalizer": {
            "kind": model.normalizer.kind,
            "params": {k: np.asarray(v).tolist() for k, v in model.normalizer.params.items()},
        },
        "labels": list(model.labels),
        "iterations_trained": model.iterations_trained,
    }


def model_from_dict(doc: dict) -> NetworkModel:
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(f"unsupported model format_version {version!r}")
        activations = (doc["activation"], doc["output_activation"])
        if activations != ("sigmoid", "softmax"):
            raise FormatError(
                f"unsupported hidden/output activations {activations}; "
                "expected sigmoid hidden units and a softmax output"
            )
        sizes = [int(s) for s in doc["layer_sizes"]]
        config = NetworkConfig(
            preset=doc["preset"],
            hidden_layers=tuple(sizes[1:-1]),
            learning_rate=doc["learning_rate"],
            l2_lambda=doc["l2_lambda"],
            iteration_budget=doc["iteration_budget"],
            seed=doc["seed"],
            normalization=doc["normalization"],
        )
        weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        norm_doc = doc["normalizer"]
        normalizer = Normalizer(
            norm_doc["kind"],
            {k: np.asarray(v, dtype=np.float64) for k, v in norm_doc["params"].items()},
        )
        labels = [str(s) for s in doc["labels"]]
        iterations = int(doc["iterations_trained"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"malformed model document: {exc}") from exc
    expected = [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]
    actual = [w.shape for w in weights]
    if actual != expected or [b.shape for b in biases] != [(s,) for s in sizes[1:]]:
        raise FormatError(f"parameter shapes {actual} do not chain through sizes {sizes}")
    if sizes[-1] != len(labels):
        raise FormatError(f"{len(labels)} labels but output size {sizes[-1]}")
    for arr in (*weights, *biases):
        if not np.all(np.isfinite(arr)):
            raise FormatError("model parameters contain non-finite values")
    _check_normalizer(normalizer, sizes[0])
    return NetworkModel(
        config=config,
        weights=weights,
        biases=biases,
        labels=labels,
        normalizer=normalizer,
        iterations_trained=iterations,
    )


def _check_normalizer(norm: Normalizer, width: int) -> None:
    """A loaded normalizer must hold its kind's parameters, one finite value
    per network input."""
    expected = NORMALIZER_PARAMS[norm.kind]
    if sorted(norm.params) != sorted(expected):
        raise FormatError(
            f"{norm.kind} normalizer needs parameters {list(expected)}, got {sorted(norm.params)}"
        )
    for name, values in norm.params.items():
        if values.shape != (width,):
            raise FormatError(
                f"normalizer parameter {name!r} has shape {values.shape}, expected ({width},)"
            )
        if not np.all(np.isfinite(values)):
            raise FormatError(f"normalizer parameter {name!r} contains non-finite values")


def model_to_json(model: NetworkModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def save_model(model: NetworkModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path) -> NetworkModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_dict(doc)
