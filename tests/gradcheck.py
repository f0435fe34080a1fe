"""Finite-difference gradient oracle shared by the network and acceptance tests."""

import numpy as np

from adlsense.network import NetworkConfig, init_network, loss_and_gradients, sample_loss


def finite_difference_gradients(model, features, label_index, l2_lambda, h=1e-5):
    """Central-difference gradient of sample_loss for every parameter."""
    grads_w, grads_b = [], []
    for arrays, out in ((model.weights, grads_w), (model.biases, grads_b)):
        for arr in arrays:
            grad = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                hi = sample_loss(model, features, label_index, l2_lambda)
                arr[idx] = orig - h
                lo = sample_loss(model, features, label_index, l2_lambda)
                arr[idx] = orig
                grad[idx] = (hi - lo) / (2.0 * h)
            out.append(grad)
    return grads_w, grads_b


def max_relative_gradient_error(model, features, label_index, l2_lambda, h=1e-5, floor=1e-6):
    """Worst per-parameter relative disagreement between backprop and the
    finite-difference oracle; the floor keeps sub-resolution gradients from
    dividing by ~0."""
    _, analytic_w, analytic_b = loss_and_gradients(model, features, label_index, l2_lambda)
    numeric_w, numeric_b = finite_difference_gradients(model, features, label_index, l2_lambda, h)
    worst = 0.0
    for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def random_net(seed, sizes, l2_lambda=0.0):
    """A freshly initialized net with the given [input, *hidden, output] sizes."""
    config = NetworkConfig.from_preset(
        "MLP",
        hidden_layers=tuple(sizes[1:-1]),
        l2_lambda=l2_lambda,
        seed=seed,
    )
    labels = [f"label_{i}" for i in range(sizes[-1])]
    return init_network(config, sizes[0], labels)
