"""Frozen slow paths that the fast ones are tested against, bit for bit.

``backprop_step`` and ``reference_train`` are online SGD as the network
engine computed it before its fused lockstep step: per step, the gradients
of :func:`adlsense.network.loss_and_gradients` in fresh arrays, then a plain
update of every layer.
"""

import math

import numpy as np

from adlsense.errors import TrainingDivergenceError
from adlsense.network import _label_indices, forward, loss_and_gradients


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
