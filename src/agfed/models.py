"""Differentiable hypothesis classes with loss and gradient oracles.

Three small closed-form families:

- ``scalar-regression``: a single learnable constant, squared-error loss
  against the label. Used by the 1-D min-max regression task.
- ``linear-regression``: affine prediction (weights + bias), squared error.
- ``logistic``: multinomial softmax with a per-class bias, cross-entropy
  loss. Logits are stabilized by max-subtraction before log-sum-exp.

The training protocol only ever touches models through the vectorized
``batch_losses`` and ``grad_weighted`` (a single sample is a 1-row
batch), so any gradient-oracle model would slot in here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import InvalidArgument, NumericError

ModelKind = Literal["scalar-regression", "linear-regression", "logistic"]

MODEL_KINDS = ("scalar-regression", "linear-regression", "logistic")


@dataclass(frozen=True)
class ModelSpec:
    """Shape of a hypothesis class; fixes the flat parameter layout.

    Parameter counts: scalar-regression -> 1; linear-regression ->
    input_dim + 1 (bias last); logistic -> num_classes * (input_dim + 1),
    row-major by class with the bias as the last column.
    """

    kind: ModelKind
    input_dim: int = 1
    num_classes: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidArgument(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise InvalidArgument("input_dim must be >= 1")
        if self.kind == "logistic" and self.num_classes < 2:
            raise InvalidArgument("logistic model needs num_classes >= 2")

    @property
    def param_count(self) -> int:
        if self.kind == "scalar-regression":
            return 1
        if self.kind == "linear-regression":
            return self.input_dim + 1
        return self.num_classes * (self.input_dim + 1)


def init_params(spec: ModelSpec) -> np.ndarray:
    """All-zero parameter vector of the right length."""
    w = np.zeros(spec.param_count)
    w.flags.writeable = False
    return w


def _check_params(spec: ModelSpec, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != spec.param_count:
        raise InvalidArgument(
            f"expected {spec.param_count} parameters for {spec.kind}, got shape {w.shape}"
        )
    if not np.all(np.isfinite(w)):
        raise NumericError("model parameters contain NaN or Inf")
    return w


def _check_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise InvalidArgument(
            f"expected feature dimension {spec.input_dim}, got {x.shape[1]}"
        )
    return x


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range; invariant under constant shifts
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def batch_losses(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative per-sample losses of a batch at parameters ``w``."""
    w = _check_params(spec, w)
    x = _check_features(spec, x)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise InvalidArgument("features and labels differ in length")

    if spec.kind == "scalar-regression":
        return (w[0] - y) ** 2
    if spec.kind == "linear-regression":
        pred = _with_bias(x) @ w
        return (pred - y) ** 2
    weights = w.reshape(spec.num_classes, spec.input_dim + 1)
    logits = _with_bias(x) @ weights.T
    logp = _log_softmax(logits)
    classes = y.astype(np.int64)
    if np.any(classes < 0) or np.any(classes >= spec.num_classes):
        raise InvalidArgument("class label out of range")
    return -logp[np.arange(x.shape[0]), classes]


def grad_weighted(
    spec: ModelSpec,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Gradient of the weighted loss sum: grad of sum_j weights_j * loss_j.

    The sum is unnormalized; any averaging is the caller's concern.
    """
    w = _check_params(spec, w)
    x = _check_features(spec, x)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if x.shape[0] == 0:
        raise InvalidArgument("gradient of an empty batch is undefined")
    if not (x.shape[0] == y.shape[0] == weights.shape[0]):
        raise InvalidArgument("features, labels, and weights differ in length")
    if np.any(weights < 0):
        raise InvalidArgument("sample weights must be >= 0")

    if spec.kind == "scalar-regression":
        return np.array([float(np.sum(weights * 2.0 * (w[0] - y)))])
    if spec.kind == "linear-regression":
        xb = _with_bias(x)
        residual = xb @ w - y
        return xb.T @ (weights * 2.0 * residual)
    wmat = w.reshape(spec.num_classes, spec.input_dim + 1)
    xb = _with_bias(x)
    logp = _log_softmax(xb @ wmat.T)
    probs = np.exp(logp)
    classes = y.astype(np.int64)
    probs[np.arange(x.shape[0]), classes] -= 1.0
    return ((probs * weights[:, None]).T @ xb).reshape(-1)


def predict_classes(spec: ModelSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Argmax class predictions of a logistic model."""
    if spec.kind != "logistic":
        raise InvalidArgument("class prediction requires a logistic model")
    w = _check_params(spec, w)
    x = _check_features(spec, x)
    wmat = w.reshape(spec.num_classes, spec.input_dim + 1)
    return np.argmax(_with_bias(x) @ wmat.T, axis=1)


def model_summary_value(spec: ModelSpec, w: np.ndarray) -> float:
    """Scalar summary of the model (the learned constant) for reporting."""
    if spec.kind != "scalar-regression":
        raise InvalidArgument("scalar summary only defined for scalar-regression")
    return float(w[0])
