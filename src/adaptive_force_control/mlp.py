"""The adaptation network: (reference, force, stiffness) -> proportional gain.

A small fully connected net, 3 inputs -> 6 -> 3 -> 1, rectifier on every
node including the output.  Supervision comes from solved gain policies
rewritten as feature/label pairs.  Everything here is plain numpy.  The
weights and biases, the gradient and the Adam moments each live in one flat
vector of ``N_PARAMS`` float64 entries, so an optimizer step is a handful of
in-place ufunc calls.  Training is bit-reproducible: a fixed config gives the
same weights and loss history on every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import ContactModel
from .policy import PolicyTable

LAYER_SHAPES = ((6, 3), (3, 6), (1, 3))


def _layout() -> tuple[list[slice], list[slice], int]:
    """Slices of each layer's weights and biases in the flat vector."""
    w_slices, b_slices, offset = [], [], 0
    for rows, cols in LAYER_SHAPES:
        w_slices.append(slice(offset, offset + rows * cols))
        offset += rows * cols
        b_slices.append(slice(offset, offset + rows))
        offset += rows
    return w_slices, b_slices, offset


# Flat order: w1, b1, w2, b2, w3, b3 (49 entries).
_W_SLICES, _B_SLICES, N_PARAMS = _layout()

# Gains handed to the controller stay inside the solver's input range.
KP_MIN = 0.0
KP_MAX = 1.0


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature standardization fitted on the training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != (3,) or self.std.shape != (3,):
            raise ValueError("scaler mean/std must be 3-vectors")
        if not np.all(self.std > 0.0):
            raise ValueError("scaler std components must be positive")

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def fit_scaler(features: np.ndarray) -> FeatureScaler:
    """Fit mean/std per column; constant columns get unit scale."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return FeatureScaler(mean=mean, std=std)


class MlpParams:
    """Weights and biases of the three affine layers.

    ``weights`` and ``biases`` are C-contiguous views into ``flat``, one
    float64 vector of ``N_PARAMS`` entries.  The constructor copies and
    validates its arrays; :meth:`view` wraps a buffer without checks.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        if len(weights) != 3 or len(biases) != 3:
            raise ValueError("expected exactly 3 layers")
        flat = np.empty(N_PARAMS)
        for k, (w, b, shape) in enumerate(zip(weights, biases, LAYER_SHAPES), 1):
            if w.shape != shape:
                raise ValueError(f"layer {k} weight shape {w.shape}, expected {shape}")
            if b.shape != (shape[0],):
                raise ValueError(f"layer {k} bias shape {b.shape}, expected ({shape[0]},)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k} contains non-finite entries")
            flat[_W_SLICES[k - 1]] = w.ravel()
            flat[_B_SLICES[k - 1]] = b
        self._bind(flat)

    @classmethod
    def view(cls, flat: np.ndarray) -> "MlpParams":
        """Layer views into a float64 vector of ``N_PARAMS`` entries, unchecked."""
        params = cls.__new__(cls)
        params._bind(flat)
        return params

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.weights = [flat[s].reshape(shape) for s, shape in zip(_W_SLICES, LAYER_SHAPES)]
        self.biases = [flat[s] for s in _B_SLICES]


def init_params(seed: int = 0) -> MlpParams:
    """He-style random init; output bias starts positive so the final
    rectifier is not born dead (labels are nonnegative)."""
    rng = np.random.default_rng(seed)
    weights = [
        rng.normal(0.0, math.sqrt(2.0 / shape[1]), shape) for shape in LAYER_SHAPES
    ]
    biases = [np.zeros(6), np.zeros(3), np.full(1, 0.1)]
    return MlpParams(weights=weights, biases=biases)


def forward_trace(params: MlpParams, x_std: np.ndarray):
    """All intermediate activations for a standardized batch (n, 3).

    Returns (z1, a1, z2, a2, z3, a3); a3[:, 0] is the unclamped output.
    """
    w1, w2, w3 = params.weights
    b1, b2, b3 = params.biases
    z1 = x_std @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2.T + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w3.T + b3
    a3 = np.maximum(z3, 0.0)
    return z1, a1, z2, a2, z3, a3


def forward(params: MlpParams, scaler: FeatureScaler, features) -> float | np.ndarray:
    """Network output for raw features, clamped to the valid gain range.

    ``features`` is one (r, f, s) triple or an (n, 3) batch.
    """
    arr = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite features")
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.shape[1:] != (3,):
        raise ValueError(f"expected 3 features, got shape {arr.shape}")
    out = forward_trace(params, scaler.transform(batch))[5][:, 0]
    out = np.clip(out, KP_MIN, KP_MAX)
    return float(out[0]) if single else out


def loss_and_gradient(
    params: MlpParams,
    x: np.ndarray,
    labels: np.ndarray,
    grad: MlpParams | None = None,
) -> tuple[float, MlpParams]:
    """Batch MSE and its exact gradient by reverse-mode differentiation.

    ``x`` is a standardized (n, 3) batch.  The inference clamp is not part of
    the training path; the output rectifier is.  The gradient is written
    into ``grad`` when given (training reuses one buffer), else into a fresh
    one; either way it is returned.
    """
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty (n, 3) array")
    y = np.asarray(labels, dtype=float)
    if grad is None:
        grad = MlpParams.view(np.empty(N_PARAMS))
    w1, w2, w3 = params.weights
    gw1, gw2, gw3 = grad.weights
    gb1, gb2, gb3 = grad.biases
    z1, a1, z2, a2, z3, a3 = forward_trace(params, x)
    n = x.shape[0]
    resid = a3[:, 0] - y
    mse = float(resid @ resid) / n
    d3 = (2.0 / n) * resid[:, None] * (z3 > 0.0)
    d2 = (d3 @ w3) * (z2 > 0.0)
    d1 = (d2 @ w2) * (z1 > 0.0)
    np.matmul(d1.T, x, out=gw1)
    np.matmul(d2.T, a1, out=gw2)
    np.matmul(d3.T, a2, out=gw3)
    np.add.reduce(d1, axis=0, out=gb1)
    np.add.reduce(d2, axis=0, out=gb2)
    np.add.reduce(d3, axis=0, out=gb3)
    return mse, grad


@dataclass(frozen=True)
class TrainConfig:
    """Supervised training hyperparameters."""

    epochs: int = 200
    learning_rate: float = 1e-4
    batch_size: int = 64
    mini_batches_per_batch: int = 4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.mini_batches_per_batch < 1:
            raise ValueError("batch sizes must be positive")
        if self.batch_size % self.mini_batches_per_batch != 0:
            raise ValueError(
                f"batch_size {self.batch_size} not divisible by "
                f"mini_batches_per_batch {self.mini_batches_per_batch}"
            )
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


@dataclass
class TrainResult:
    """Trained network plus bookkeeping from the run."""

    params: MlpParams
    scaler: FeatureScaler
    loss_history: list[float]
    validation_mse: float


def build_dataset(
    policies: list[PolicyTable], model: ContactModel
) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite solved policies as supervised pairs for one contact zone.

    Every policy node becomes one sample: features (reference, force at the
    node's depth, analytic stiffness there), label the node's gain.  Returns
    (features (n, 3), labels (n,)); concatenate across zones for pooling.
    """
    if not policies:
        raise ValueError("need at least one policy")
    blocks = []
    labels = []
    for table in policies:
        f = model.force_at(table.x_grid)
        s = model.stiffness_at(table.x_grid)
        r = np.full_like(f, table.reference)
        blocks.append(np.column_stack([r, f, s]))
        labels.append(table.kp_values)
    return np.concatenate(blocks), np.concatenate(labels)


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig) -> TrainResult:
    """Adam/MSE training loop over seeded shuffled mini-batches.

    A seeded fraction of the data is held out and scored once at the end
    (reported, not used for any decision).  Batches of ``batch_size`` are
    drawn per epoch and split into ``mini_batches_per_batch`` consecutive
    slices, one optimizer step each; a trailing partial batch is dropped.
    Bit-reproducible for a fixed config.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[1] != 3:
        raise ValueError("features must be (n, 3)")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must be (n,)")
    if features.shape[0] < config.batch_size:
        raise ValueError(
            f"dataset of {features.shape[0]} smaller than one batch ({config.batch_size})"
        )
    rng = np.random.default_rng(config.seed)
    n_total = features.shape[0]
    n_val = int(round(config.validation_fraction * n_total))
    split = rng.permutation(n_total)
    val_idx, train_idx = split[:n_val], split[n_val:]
    if train_idx.size < config.batch_size:
        raise ValueError("training split smaller than one batch; lower validation_fraction")

    scaler = fit_scaler(features[train_idx])
    x_train = scaler.transform(features[train_idx])
    y_train = labels[train_idx]

    params = init_params(config.seed)
    grad = MlpParams.view(np.empty(N_PARAMS))
    # Adam on the flat vectors, in place.  Each element must see the
    # operations in this order, m = m*b1 + (1-b1)*g, v = v*b2 + ((1-b2)*g)*g,
    # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps): any other rounds differently
    # and changes the trained weights (tests/adam_oracle.py is the reference).
    p, g = params.flat, grad.flat
    m, v = np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    tmp, upd = np.empty(N_PARAMS), np.empty(N_PARAMS)
    beta1, beta2 = config.beta1, config.beta2
    lr, eps = config.learning_rate, config.eps
    step = 0
    mini = config.batch_size // config.mini_batches_per_batch
    # Consecutive mini-batch slices of the epoch's shuffle, up to the last full batch.
    used = train_idx.size - train_idx.size % config.batch_size
    loss_history: list[float] = []
    for _ in range(config.epochs):
        perm = rng.permutation(train_idx.size)
        x_epoch, y_epoch = x_train[perm], y_train[perm]
        epoch_losses = []
        for start in range(0, used, mini):
            mse, _ = loss_and_gradient(
                params, x_epoch[start : start + mini], y_epoch[start : start + mini], grad=grad
            )
            epoch_losses.append(mse)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, bc1, out=upd)
            upd *= lr
            upd /= tmp
            p -= upd
        loss_history.append(float(np.mean(epoch_losses)))

    if n_val > 0:
        x_val = scaler.transform(features[val_idx])
        pred = forward_trace(params, x_val)[5][:, 0]
        val_mse = float(np.mean((pred - labels[val_idx]) ** 2))
    else:
        val_mse = math.nan
    return TrainResult(
        params=params, scaler=scaler, loss_history=loss_history, validation_mse=val_mse
    )


def save_model(path: str | Path, params: MlpParams, scaler: FeatureScaler) -> None:
    """Serialize network and scaler as versioned JSON."""
    doc = {
        "version": 1,
        "scaler": {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()},
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path: str | Path) -> tuple[MlpParams, FeatureScaler]:
    """Load a model file, validating version, shapes, and finiteness."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {path}: invalid JSON at line {exc.lineno}") from exc
    if doc.get("version") != 1:
        raise ValueError(f"model file {path}: unsupported version {doc.get('version')!r}")
    try:
        scaler = FeatureScaler(
            mean=np.asarray(doc["scaler"]["mean"], dtype=float),
            std=np.asarray(doc["scaler"]["std"], dtype=float),
        )
        layers = doc["layers"]
        weights = [np.asarray(layer["w"], dtype=float) for layer in layers]
        biases = [np.asarray(layer["b"], dtype=float) for layer in layers]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: malformed field ({exc})") from exc
    params = MlpParams(weights=weights, biases=biases)
    return params, scaler


def save_dataset(path: str | Path, features: np.ndarray, labels: np.ndarray) -> None:
    """Write the supervised dataset as CSV (r_n,f_n,dfdx_n_per_m,kp)."""
    lines = ["r_n,f_n,dfdx_n_per_m,kp"]
    for (r, f, s), kp in zip(features, labels):
        lines.append(f"{float(r)!r},{float(f)!r},{float(s)!r},{float(kp)!r}")
    Path(path).write_text("\n".join(lines) + "\n")

