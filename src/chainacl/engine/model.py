"""Feed-forward scoring model: four per-operation grant scores in (0,1).

Plain numpy multilayer perceptron with rectifier hidden layers and logistic
outputs, trained by minibatch gradient descent on binary cross-entropy.
Internally the loss works on logits (softplus form) so training and the
finite-difference gradient checks stay numerically exact; the public
``forward`` returns probabilities clipped into the open interval. Block
execution decides instead on a fixed-point copy (``quantize_model``), whose
grants are exact on every host; ``forward`` serves training, evaluation and
displayed scores.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from ..blocks import ConfigurationError
from ..transactions import RESOURCE_BITS_WIDTH, USER_BITS_WIDTH
from .policy import LabeledDataset

DEFAULT_LAYER_DIMS = (USER_BITS_WIDTH + RESOURCE_BITS_WIDTH, 64, 64, 4)
GRANT_THRESHOLD = 0.5  # a score at or above it grants the operation

_MAGIC = b"CACLMDL"
_FORMAT_VERSION = 1
_SCORE_EPS = 1e-12


class ShapeError(ValueError):
    """Input or layer dimensions do not chain."""


class ModelFormatError(ValueError):
    """Model file is corrupt, truncated, or has the wrong magic/version."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class DecisionModel:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]  # per layer, shape (out, in)
    biases: list[np.ndarray]  # per layer, shape (out,)

    def copy(self) -> "DecisionModel":
        return DecisionModel(
            layer_dims=self.layer_dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_model(layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS, seed: int = 0) -> DecisionModel:
    """He-style initialization, deterministic under the seed."""
    if len(layer_dims) < 2:
        raise ShapeError("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return DecisionModel(layer_dims=tuple(layer_dims), weights=weights, biases=biases)


def zero_model(layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS) -> DecisionModel:
    """All-zero weights and biases; every output score is exactly 0.5."""
    return DecisionModel(
        layer_dims=tuple(layer_dims),
        weights=[np.zeros((o, i)) for i, o in zip(layer_dims[:-1], layer_dims[1:])],
        biases=[np.zeros(o) for o in layer_dims[1:]],
    )


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _forward_internals(model: DecisionModel, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Returns (pre-activations per layer, activations incl. input)."""
    if x.shape[1] != model.layer_dims[0]:
        raise ShapeError(
            f"input width {x.shape[1]} does not match layer_dims[0]={model.layer_dims[0]}"
        )
    activations = [x]
    pre = []
    a = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if k == last else np.maximum(z, 0.0)
        activations.append(a)
    return pre, activations


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(model: DecisionModel, x: np.ndarray) -> np.ndarray:
    """Per-operation grant scores, each strictly inside (0,1)."""
    batch, single = _as_batch(x)
    pre, _ = _forward_internals(model, batch)
    scores = np.clip(_sigmoid(pre[-1]), _SCORE_EPS, 1.0 - _SCORE_EPS)
    return scores[0] if single else scores


# --- fixed-point decisions ----------------------------------------------------
#
# Block execution decides grants on every replica, so the decision must not
# rest on how a BLAS build orders a float sum. Weights and biases are
# rounded to integers in units of 2**-FIXED_POINT_BITS (np.rint rounds half
# to even, and ldexp is exact, so every host gets the same integers). The
# integers are held as float64 and the matmuls still go through BLAS, but
# every product and partial sum is an integer below 2**53, which float64
# holds exactly, so the result is exact whatever the kernel, summation
# order, FMA or batch size (after Jacob et al., "Quantization and Training
# of Neural Networks for Efficient Integer-Arithmetic-Only Inference",
# CVPR 2018). The fixture model's accumulators stay below 2**44 at 16 bits
# (2**52 at 20), which leaves room for larger operator-supplied weights.
FIXED_POINT_BITS = 16
_EXACT_LIMIT = 1 << 53


@dataclass(frozen=True, eq=False)
class FixedPointModel:
    """Integer copy of a ``DecisionModel``; a pure function of its weights.

    Activations and logits are integers in units of 2**-FIXED_POINT_BITS.
    Inputs are bits. ``bound`` caps the magnitude of every partial sum and
    activation of any input; ``threshold`` is the logit of
    ``GRANT_THRESHOLD`` quantized the same way (0 for 0.5).
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    threshold: float
    bound: int


def quantize_model(model: DecisionModel) -> FixedPointModel:
    """The fixed-point copy of ``model``; refuses, with ``ConfigurationError``,
    a model with a non-finite parameter or one whose accumulators could
    reach 2**53."""
    weights, biases = [], []
    for w, b in zip(model.weights, model.biases):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ConfigurationError("model has a non-finite weight or bias")
        for values, out in ((w, weights), (b, biases)):
            q = np.rint(np.ldexp(np.asarray(values, dtype=np.float64), FIXED_POINT_BITS))
            if q.size and np.abs(q).max() >= _EXACT_LIMIT:
                raise ConfigurationError("model weight too large for exact fixed-point decisions")
            out.append(q)
    bound = _accumulator_bound(weights, biases)
    if bound >= _EXACT_LIMIT:
        raise ConfigurationError(
            f"model weights too large for exact fixed-point decisions: "
            f"accumulators could reach 2^{math.log2(bound):.1f}, limit 2^53"
        )
    threshold = np.rint(np.ldexp(math.log(GRANT_THRESHOLD / (1.0 - GRANT_THRESHOLD)), FIXED_POINT_BITS))
    return FixedPointModel(tuple(weights), tuple(biases), float(threshold), bound)


def _accumulator_bound(weights: list[np.ndarray], biases: list[np.ndarray]) -> int:
    """Largest magnitude any partial sum or activation of ``fixed_point_logits``
    can take over all bit inputs, row by row, in exact integer arithmetic."""
    reach = np.ones(weights[0].shape[1], dtype=object)  # per input unit: a bit
    top = 0
    for k, (w, b) in enumerate(zip(weights, biases)):
        # every partial sum of a row's products, in any order, is at most this
        sums = np.abs(w).astype(np.int64).astype(object) @ reach
        rescaled = sums if k == 0 else (sums >> FIXED_POINT_BITS) + 1
        reach = rescaled + np.abs(b).astype(np.int64).astype(object)
        top = max(top, int(sums.max()), int(reach.max()))
    return top


def fixed_point_logits(fixed: FixedPointModel, bits: np.ndarray) -> np.ndarray:
    """Exact integer logits (as float64) of a batch of bit rows."""
    a = np.asarray(bits, dtype=np.float64)
    last = len(fixed.weights) - 1
    for k, (w, b) in enumerate(zip(fixed.weights, fixed.biases)):
        a = a @ w.T
        if k:
            np.floor(np.ldexp(a, -FIXED_POINT_BITS, out=a), out=a)
        a += b
        if k != last:
            np.maximum(a, 0.0, out=a)
    return a


def fixed_point_grants(fixed: FixedPointModel, bits: np.ndarray) -> np.ndarray:
    """Per row and operation, whether the model grants: its integer logit is
    at least the quantized threshold."""
    return fixed_point_logits(fixed, bits) >= fixed.threshold


def loss_and_gradient(
    model: DecisionModel, inputs: np.ndarray, labels: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean binary cross-entropy over all outputs, with exact gradients.

    Gradients come back as one (dW, db) pair per layer, matching the
    model's weight shapes.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(inputs) == 0:
        raise ValueError("empty batch")
    pre, activations = _forward_internals(model, inputs)
    z = pre[-1]
    n_terms = z.size
    # softplus(z) - y*z is BCE with logits, stable for any magnitude
    loss = float(np.sum(np.logaddexp(0.0, z) - labels * z) / n_terms)

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.weights)  # type: ignore[list-item]
    delta = (_sigmoid(z) - labels) / n_terms
    for k in range(len(model.weights) - 1, -1, -1):
        a_prev = activations[k]
        grads[k] = (delta.T @ a_prev, delta.sum(axis=0))
        if k > 0:
            delta = (delta @ model.weights[k]) * (pre[k - 1] > 0)
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    holdout_fraction: float = 0.2


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    holdout_accuracy: float


@dataclass
class TrainReport:
    model: DecisionModel
    history: list[EpochMetrics]
    final_train_accuracy: float
    final_holdout_accuracy: float


def _accuracy(model: DecisionModel, inputs: np.ndarray, labels: np.ndarray) -> float:
    if len(inputs) == 0:
        return 1.0
    scores = forward(model, inputs)
    return float(np.mean((scores >= GRANT_THRESHOLD) == (labels >= 0.5)))


def train(model: DecisionModel, dataset: LabeledDataset, config: TrainConfig = TrainConfig()) -> TrainReport:
    """Minibatch SGD; deterministic under the config seed.

    The dataset is split into train/holdout up front with the seeded rng,
    then shuffled per epoch. Zero epochs returns the model unchanged.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(dataset))
    n_holdout = int(len(dataset) * config.holdout_fraction)
    holdout_idx = order[:n_holdout]
    train_idx = order[n_holdout:]
    x_train, y_train = dataset.inputs[train_idx], dataset.labels[train_idx]
    x_hold, y_hold = dataset.inputs[holdout_idx], dataset.labels[holdout_idx]

    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, grads = loss_and_gradient(model, x_train[batch], y_train[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss
            n_batches += 1
            for k, (dw, db) in enumerate(grads):
                model.weights[k] -= config.learning_rate * dw
                model.biases[k] -= config.learning_rate * db
        history.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=epoch_loss / max(n_batches, 1),
                train_accuracy=_accuracy(model, x_train, y_train),
                holdout_accuracy=_accuracy(model, x_hold, y_hold),
            )
        )
    return TrainReport(
        model=model,
        history=history,
        final_train_accuracy=_accuracy(model, x_train, y_train),
        final_holdout_accuracy=_accuracy(model, x_hold, y_hold),
    )


# --- model file format --------------------------------------------------------
#
#   magic "CACLMDL" | u8 version | u32 n_dims | u32 dims... |
#   per layer: W row-major f64 little-endian, then bias f64 little-endian


def model_to_bytes(model: DecisionModel) -> bytes:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<B", _FORMAT_VERSION))
    buf.write(struct.pack("<I", len(model.layer_dims)))
    for d in model.layer_dims:
        buf.write(struct.pack("<I", d))
    for w, b in zip(model.weights, model.biases):
        buf.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return buf.getvalue()


def model_from_bytes(data: bytes) -> DecisionModel:
    if len(data) < len(_MAGIC) + 1 + 4 or data[: len(_MAGIC)] != _MAGIC:
        raise ModelFormatError("bad magic")
    pos = len(_MAGIC)
    version = data[pos]
    pos += 1
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    try:
        (n_dims,) = struct.unpack_from("<I", data, pos)
        pos += 4
        dims = struct.unpack_from(f"<{n_dims}I", data, pos)
        pos += 4 * n_dims
    except struct.error as exc:
        raise ModelFormatError("truncated header") from exc
    if n_dims < 2:
        raise ModelFormatError("model needs at least two layer dims")
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        need = 8 * (fan_out * fan_in + fan_out)
        if pos + need > len(data):
            raise ModelFormatError("truncated weight data")
        w = np.frombuffer(data, dtype="<f8", count=fan_out * fan_in, offset=pos)
        pos += 8 * fan_out * fan_in
        b = np.frombuffer(data, dtype="<f8", count=fan_out, offset=pos)
        pos += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    if pos != len(data):
        raise ModelFormatError("trailing bytes after weights")
    return DecisionModel(layer_dims=tuple(int(d) for d in dims), weights=weights, biases=biases)


def save_model(model: DecisionModel, path) -> None:
    from pathlib import Path

    Path(path).write_bytes(model_to_bytes(model))


def load_model(path) -> DecisionModel:
    from pathlib import Path

    return model_from_bytes(Path(path).read_bytes())
