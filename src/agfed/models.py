"""Differentiable hypothesis classes with loss and gradient oracles.

Two small closed-form families:

- ``scalar-regression``: a single learnable constant, squared-error loss
  against the label. Used by the 1-D min-max regression task.
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

``check_batch`` is the one rule for the shapes and labels of a model
input. The round calls it once, on the cohort's gathered rows, before
they meet the model; ``batch_losses``, ``grad_weighted`` and
``predict_classes`` then trust their inputs and do arithmetic only.
That the rows are finite and end in a ones column is the population's
guarantee, and the round checks the labels (``check_labels``) once per
population and model instead, since a population's labels never change.

The logistic kernels never reduce along the class axis. numpy runs a
``max`` or ``sum`` over a row of C values as one inner-loop call per
row, which costs more than the arithmetic when C is 2. The kernels scan
the C classes instead, one whole-row operation per class
(``np.maximum`` for the max, ``+`` left to right for the sum), and get
the same bits: a max is exact in any order, and numpy adds a row of up
to 7 values left to right. They work on the logits as BLAS returns
them, class-major: W · xbᵀ is (C, b), each class's logits one
contiguous row, so every scan reads contiguous memory, and a stacked
product is (..., C, b). The product is not written ``xb @
np.ascontiguousarray(W.T)``: that form is as fast, but BLAS takes a
1-row product down another path there, and its last bit moves. For the
same reason ``grad_weighted`` writes the (..., C, b) operand of its
second product as the transpose of a row-major (..., b, C) array: BLAS
takes a C-contiguous operand of 16 or more rows a minibatch down
another path, and the last bit moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import InvalidArgument

ModelKind = Literal["scalar-regression", "logistic"]

MODEL_KINDS = ("scalar-regression", "logistic")


@dataclass(frozen=True)
class ModelSpec:
    """Shape of a hypothesis class; fixes the flat parameter layout.

    Parameter counts: scalar-regression -> 1; logistic -> num_classes *
    (input_dim + 1), row-major by class with the bias as the last column.
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
        return self.num_classes * (self.input_dim + 1)


def check_labels(spec: ModelSpec, y: np.ndarray) -> None:
    """Reject a logistic model's labels unless all are integer classes in ``0..num_classes-1``.

    Any real label suits the regression model.
    """
    if spec.kind == "logistic" and not (
        (y >= 0) & (y < spec.num_classes) & (y == np.floor(y))
    ).all():
        raise InvalidArgument(
            f"class labels must be integers in 0..{spec.num_classes - 1}"
        )


def check_batch(spec: ModelSpec, w: np.ndarray, xb: np.ndarray, y: np.ndarray, *,
                labels: bool = True) -> None:
    """Reject a batch the kernels below cannot take as it is.

    ``w`` must be a 1-D vector of ``param_count`` entries (finite, as
    ``core.as_param_vector`` returns it), ``xb`` an (n, input_dim + 1)
    matrix of augmented rows and ``y`` one label per row; unless
    ``labels`` is false, ``check_labels`` then checks the labels' values.
    A caller whose rows come from labels it has already checked passes
    ``labels=False``.
    """
    if w.ndim != 1 or w.shape[0] != spec.param_count:
        raise InvalidArgument(
            f"expected {spec.param_count} parameters for {spec.kind}, got shape {w.shape}"
        )
    if xb.ndim != 2 or xb.shape[1] != spec.input_dim + 1:
        raise InvalidArgument(
            f"expected (n, {spec.input_dim + 1}) rows of input_dim={spec.input_dim} "
            f"features and a bias column, got shape {xb.shape}"
        )
    if y.shape != (xb.shape[0],):
        raise InvalidArgument("features and labels differ in length")
    if labels:
        check_labels(spec, y)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax of class-major logits (..., C, b) over the class axis -2."""
    # max-subtraction keeps exp() in range; invariant under constant shifts.
    # The exp-sum adds the class rows left to right, c = 0, 1, ..., C-1:
    # for C <= 7 that is the order of numpy's sum over the class axis, bit
    # for bit (from C = 8 on numpy sums pairwise; this order stays left to
    # right).
    top = logits[..., 0, :]
    for c in range(1, logits.shape[-2]):
        top = np.maximum(top, logits[..., c, :])
    shifted = logits - top[..., None, :]
    e = np.exp(shifted)
    total = e[..., 0, :]
    for c in range(1, logits.shape[-2]):
        total = total + e[..., c, :]
    return shifted - np.log(total)[..., None, :]


def batch_losses(spec: ModelSpec, w: np.ndarray, xb: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative per-sample losses of a batch at parameters ``w``.

    Trusts that ``check_batch`` accepted ``(w, xb, y)``.
    """
    if spec.kind == "scalar-regression":
        return (w[0] - y) ** 2
    weights = w.reshape(spec.num_classes, spec.input_dim + 1)
    logp = _log_softmax(weights @ xb.T)
    # row j's label y_j sits at y_j * n + j of the flat (C, n) array
    n = xb.shape[0]
    return -logp.take(y.astype(np.int64) * n + np.arange(n))


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
    classes = spec.num_classes
    wmat = w.reshape(w.shape[:-1] + (classes, spec.input_dim + 1))
    probs = _log_softmax(np.matmul(wmat, np.swapaxes(xb, -1, -2)))
    np.exp(probs, out=probs)
    # d loss / d logits = softmax - one-hot(label)
    probs -= (y[..., None, :] == np.arange(classes)[:, None]).astype(np.float64)
    # BLAS takes the weighted rows as the transpose of a row-major
    # (..., b, C) array (see the module docstring)
    scaled = np.empty(y.shape + (classes,))
    np.multiply(probs, weights[..., None, :], out=np.swapaxes(scaled, -1, -2))
    return np.matmul(np.swapaxes(scaled, -1, -2), xb).reshape(w.shape)


def predict_classes(spec: ModelSpec, w: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Class of the largest logit per row; a tie goes to the lower class.

    A strict ``>`` scan over the class rows of the logits: class c wins a
    row only when its logit exceeds every lower class's, so ties keep the
    lower class, as ``argmax`` does, without a generic reduction over a
    few values. The classes come in ``class_dtype(spec)``, so a caller
    that compares them with labels cast to it once reads a byte a row.
    Trusts that ``spec`` is logistic and that ``check_batch`` accepted
    ``w`` and ``xb``.
    """
    logits = w.reshape(spec.num_classes, spec.input_dim + 1) @ xb.T
    best = (logits[1] > logits[0]).astype(class_dtype(spec))
    top = logits[0]
    for c in range(2, spec.num_classes):
        top = np.maximum(top, logits[c - 1])
        best[logits[c] > top] = c
    return best


def class_dtype(spec: ModelSpec) -> np.dtype:
    """The smallest unsigned integer type that holds every class of ``spec``."""
    return np.min_scalar_type(spec.num_classes - 1)
