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
``grad_weighted`` takes a leading axis of stacked minibatches, so the
clients of a cohort can share one call per local step without changing
any client's numbers.

``check_batch`` is the one rule for what a valid model input is. The
round calls it once, on the cohort's gathered rows, before they meet
the model; ``batch_losses``, ``grad_weighted`` and ``predict_classes``
then trust their inputs and do arithmetic only.
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


def check_batch(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Reject a batch the kernels below cannot take as it is.

    ``w`` must be a finite 1-D vector of ``param_count`` entries
    (``NumericError`` when it is not finite), ``x`` an (n, input_dim)
    matrix and ``y`` one label per row; a logistic model's labels must
    be integer classes in ``0..num_classes-1``.
    """
    if w.ndim != 1 or w.shape[0] != spec.param_count:
        raise InvalidArgument(
            f"expected {spec.param_count} parameters for {spec.kind}, got shape {w.shape}"
        )
    if not np.all(np.isfinite(w)):
        raise NumericError("model parameters contain NaN or Inf")
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise InvalidArgument(
            f"expected an (n, {spec.input_dim}) feature matrix, got shape {x.shape}"
        )
    if y.shape != (x.shape[0],):
        raise InvalidArgument("features and labels differ in length")
    if spec.kind == "logistic" and not np.all(
        (y >= 0) & (y < spec.num_classes) & (y == np.floor(y))
    ):
        raise InvalidArgument(
            f"class labels must be integers in 0..{spec.num_classes - 1}"
        )


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range; invariant under constant shifts
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_losses(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative per-sample losses of a batch at parameters ``w``.

    Trusts that ``check_batch`` accepted ``(w, x, y)``.
    """
    if spec.kind == "scalar-regression":
        return (w[0] - y) ** 2
    if spec.kind == "linear-regression":
        # an elementwise row sum, not BLAS: a row's prediction must not
        # depend on how many rows share its batch
        pred = np.sum(_with_bias(x) * w, axis=-1)
        return (pred - y) ** 2
    weights = w.reshape(spec.num_classes, spec.input_dim + 1)
    logits = _with_bias(x) @ weights.T
    logp = _log_softmax(logits)
    return -logp[np.arange(x.shape[0]), y.astype(np.int64)]


def grad_weighted(
    spec: ModelSpec,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Gradient of the weighted loss sum: grad of sum_j weights_j * loss_j.

    Takes any leading batch axes: parameters ``(..., P)``, features
    ``(..., b, d)``, labels and weights ``(..., b)``; returns ``(..., P)``.
    Local SGD passes a leading cohort axis, one minibatch per client;
    a single batch is the case without one. Each batch's gradient is
    computed by the same BLAS call on the same shapes as when it is
    passed alone, so stacking keeps every bit. The sum is unnormalized;
    any averaging is the caller's concern. Trusts that ``check_batch``
    accepted ``(w, x, y)`` and that ``weights`` is non-negative.
    """
    if spec.kind == "scalar-regression":
        return np.sum(weights * 2.0 * (w[..., :1] - y), axis=-1, keepdims=True)
    xb = _with_bias(x)
    if spec.kind == "linear-regression":
        residual = np.matmul(xb, w[..., None])[..., 0] - y
        return np.matmul((weights * 2.0 * residual)[..., None, :], xb)[..., 0, :]
    wmat = w.reshape(w.shape[:-1] + (spec.num_classes, spec.input_dim + 1))
    probs = np.exp(_log_softmax(np.matmul(xb, np.swapaxes(wmat, -1, -2))))
    # d loss / d logits = softmax - one-hot(label)
    probs = probs - (y[..., None] == np.arange(spec.num_classes))
    return np.matmul(np.swapaxes(probs * weights[..., None], -1, -2), xb).reshape(w.shape)


def predict_classes(spec: ModelSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Argmax class predictions of a logistic model.

    Trusts that ``spec`` is logistic and that ``check_batch`` accepted
    ``w`` and ``x``.
    """
    wmat = w.reshape(spec.num_classes, spec.input_dim + 1)
    return np.argmax(_with_bias(x) @ wmat.T, axis=1)
