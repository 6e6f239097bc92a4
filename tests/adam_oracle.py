"""Reference training loop for the adaptation network.

Keeps the per-array Adam loop and the allocating forward and backward pass
that ``mlp.train`` ran before the parameters, gradient and moments moved into
flat vectors.  The arithmetic is kept verbatim; plain lists of arrays stand
in for ``MlpParams``.  Tests demand that ``mlp.train`` gives the same bits.
"""

import math

import numpy as np

from adaptive_force_control.mlp import LAYER_SHAPES, fit_scaler


def oracle_init(seed):
    rng = np.random.default_rng(seed)
    weights = [
        rng.normal(0.0, math.sqrt(2.0 / shape[1]), shape) for shape in LAYER_SHAPES
    ]
    biases = [np.zeros(6), np.zeros(3), np.full(1, 0.1)]
    return weights, biases


def oracle_forward(weights, biases, x_std):
    w1, w2, w3 = weights
    b1, b2, b3 = biases
    z1 = x_std @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2.T + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w3.T + b3
    a3 = np.maximum(z3, 0.0)
    return z1, a1, z2, a2, z3, a3


def oracle_loss_and_gradient(weights, biases, x, labels):
    """(mse, weight grads, bias grads) for a standardized batch."""
    y = np.asarray(labels, dtype=float)
    w1, w2, w3 = weights
    z1, a1, z2, a2, z3, a3 = oracle_forward(weights, biases, x)
    n = x.shape[0]
    resid = a3[:, 0] - y
    mse = float(resid @ resid) / n
    d3 = (2.0 / n) * resid[:, None] * (z3 > 0.0)
    d2 = (d3 @ w3) * (z2 > 0.0)
    d1 = (d2 @ w2) * (z1 > 0.0)
    return (
        mse,
        [d1.T @ x, d2.T @ a1, d3.T @ a2],
        [d1.sum(axis=0), d2.sum(axis=0), d3.sum(axis=0)],
    )


def oracle_train(features, labels, config):
    """(weights, biases, loss_history, validation_mse) for a TrainConfig."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    rng = np.random.default_rng(config.seed)
    n_total = features.shape[0]
    n_val = int(round(config.validation_fraction * n_total))
    split = rng.permutation(n_total)
    val_idx, train_idx = split[:n_val], split[n_val:]

    scaler = fit_scaler(features[train_idx])
    x_train = scaler.transform(features[train_idx])
    y_train = labels[train_idx]

    weights, biases = oracle_init(config.seed)
    state = {"weights": weights, "biases": biases}
    m_state = {
        "weights": [np.zeros_like(w) for w in weights],
        "biases": [np.zeros_like(b) for b in biases],
    }
    v_state = {group: [a.copy() for a in arrays] for group, arrays in m_state.items()}
    step = 0
    mini = config.batch_size // config.mini_batches_per_batch
    loss_history = []
    for _ in range(config.epochs):
        perm = rng.permutation(train_idx.size)
        epoch_losses = []
        for start in range(0, train_idx.size - config.batch_size + 1, config.batch_size):
            batch = perm[start : start + config.batch_size]
            for k in range(config.mini_batches_per_batch):
                sub = batch[k * mini : (k + 1) * mini]
                mse, gw, gb = oracle_loss_and_gradient(
                    state["weights"], state["biases"], x_train[sub], y_train[sub]
                )
                grads = {"weights": gw, "biases": gb}
                epoch_losses.append(mse)
                step += 1
                bc1 = 1.0 - config.beta1**step
                bc2 = 1.0 - config.beta2**step
                for group in ("weights", "biases"):
                    for p, g, m, v in zip(
                        state[group], grads[group], m_state[group], v_state[group]
                    ):
                        m *= config.beta1
                        m += (1.0 - config.beta1) * g
                        v *= config.beta2
                        v += (1.0 - config.beta2) * g * g
                        p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        loss_history.append(float(np.mean(epoch_losses)))

    if n_val > 0:
        x_val = scaler.transform(features[val_idx])
        pred = oracle_forward(weights, biases, x_val)[5][:, 0]
        val_mse = float(np.mean((pred - labels[val_idx]) ** 2))
    else:
        val_mse = math.nan
    return weights, biases, loss_history, val_mse
