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

The kernels take augmented rows: an (n, input_dim + 1) matrix ``xb``
whose last column is all ones, so an affine map is one product with the
flat parameters and no call builds a bias column. ``core.Population``
stores its features that way once, and a round's ``core.Cohort`` takes
its rows from there. The scalar model reads no features at all.

``check_batch`` is the one rule for what a valid model input is. The
round calls it once, on the cohort's gathered rows, before they meet
the model; ``batch_losses``, ``grad_weighted`` and ``predict_classes``
then trust their inputs and do arithmetic only. It checks the width of
the augmented rows, not that their last column holds ones: the
population guarantees that when it builds them.

The logistic kernels never reduce along the class axis. numpy runs a
``max`` or ``sum`` over a row of C values as one inner-loop call per
row, which costs more than the arithmetic when C is 2. The kernels scan
the C class columns instead, one whole-column operation per class
(``np.maximum`` for the max, ``+`` left to right for the sum), and get
the same bits: a max is exact in any order, and numpy adds a row of up
to 7 values left to right. Logits are taken as (W · xbᵀ)ᵀ, so each
class's logits are one contiguous row of the product and the scans read
contiguous memory. The product is not written ``xb @
np.ascontiguousarray(W.T)``: that form is as fast, but BLAS takes a
1-row product down another path there, and its last bit moves.
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


def check_batch(spec: ModelSpec, w: np.ndarray, xb: np.ndarray, y: np.ndarray) -> None:
    """Reject a batch the kernels below cannot take as it is.

    ``w`` must be a finite 1-D vector of ``param_count`` entries
    (``NumericError`` when it is not finite), ``xb`` an (n, input_dim +
    1) matrix of augmented rows and ``y`` one label per row; a logistic
    model's labels must be integer classes in ``0..num_classes-1``.
    """
    if w.ndim != 1 or w.shape[0] != spec.param_count:
        raise InvalidArgument(
            f"expected {spec.param_count} parameters for {spec.kind}, got shape {w.shape}"
        )
    if not np.isfinite(w).all():
        raise NumericError("model parameters contain NaN or Inf")
    if xb.ndim != 2 or xb.shape[1] != spec.input_dim + 1:
        raise InvalidArgument(
            f"expected (n, {spec.input_dim + 1}) rows of input_dim={spec.input_dim} "
            f"features and a bias column, got shape {xb.shape}"
        )
    if y.shape != (xb.shape[0],):
        raise InvalidArgument("features and labels differ in length")
    if spec.kind == "logistic" and not (
        (y >= 0) & (y < spec.num_classes) & (y == np.floor(y))
    ).all():
        raise InvalidArgument(
            f"class labels must be integers in 0..{spec.num_classes - 1}"
        )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range; invariant under constant shifts.
    # The exp-sum adds the class columns left to right, c = 0, 1, ..., C-1:
    # for C <= 7 that is the order of numpy's sum(axis=-1), bit for bit
    # (from C = 8 on numpy sums pairwise; this order stays left to right).
    top = logits[..., 0]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c])
    shifted = logits - top[..., None]
    e = np.exp(shifted)
    total = e[..., 0]
    for c in range(1, logits.shape[-1]):
        total = total + e[..., c]
    return shifted - np.log(total)[..., None]


def batch_losses(spec: ModelSpec, w: np.ndarray, xb: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative per-sample losses of a batch at parameters ``w``.

    Trusts that ``check_batch`` accepted ``(w, xb, y)``.
    """
    if spec.kind == "scalar-regression":
        return (w[0] - y) ** 2
    if spec.kind == "linear-regression":
        # an elementwise row sum, not BLAS: a row's prediction must not
        # depend on how many rows share its batch
        pred = (xb * w).sum(axis=-1)
        return (pred - y) ** 2
    weights = w.reshape(spec.num_classes, spec.input_dim + 1)
    logp = _log_softmax((weights @ xb.T).T)
    return -logp[np.arange(xb.shape[0]), y.astype(np.int64)]


def grad_weighted(
    spec: ModelSpec,
    w: np.ndarray,
    xb: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Gradient of the weighted loss sum: grad of sum_j weights_j * loss_j.

    Takes any leading batch axes: parameters ``(..., P)``, augmented rows
    ``(..., b, d + 1)``, labels and weights ``(..., b)``; returns ``(..., P)``.
    Local SGD passes a leading cohort axis, one minibatch per client;
    a single batch is the case without one. Each batch's gradient is
    computed by the same BLAS call on the same shapes as when it is
    passed alone, so stacking keeps every bit. The sum is unnormalized;
    any averaging is the caller's concern. Trusts that ``check_batch``
    accepted ``(w, xb, y)`` and that ``weights`` is non-negative.
    """
    if spec.kind == "scalar-regression":
        return (weights * 2.0 * (w[..., :1] - y)).sum(axis=-1, keepdims=True)
    if spec.kind == "linear-regression":
        residual = np.matmul(xb, w[..., None])[..., 0] - y
        return np.matmul((weights * 2.0 * residual)[..., None, :], xb)[..., 0, :]
    wmat = w.reshape(w.shape[:-1] + (spec.num_classes, spec.input_dim + 1))
    logits = np.swapaxes(np.matmul(wmat, np.swapaxes(xb, -1, -2)), -1, -2)
    probs = np.exp(_log_softmax(logits))
    # d loss / d logits = softmax - one-hot(label)
    probs = probs - (y[..., None] == np.arange(spec.num_classes))
    return np.matmul(np.swapaxes(probs * weights[..., None], -1, -2), xb).reshape(w.shape)


def predict_classes(spec: ModelSpec, w: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Class of the largest logit per row; a tie goes to the lower class.

    A strict ``>`` scan over the class columns: class c wins a row only
    when its logit exceeds every lower class's, so ties keep the lower
    class, as ``argmax`` does, without a generic reduction over a few
    columns. Trusts that ``spec`` is logistic and that ``check_batch``
    accepted ``w`` and ``xb``.
    """
    logits = (w.reshape(spec.num_classes, spec.input_dim + 1) @ xb.T).T
    best = (logits[:, 1] > logits[:, 0]).astype(np.int64)
    top = logits[:, 0]
    for c in range(2, spec.num_classes):
        top = np.maximum(top, logits[:, c - 1])
        best[logits[:, c] > top] = c
    return best
