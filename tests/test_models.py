"""Model losses and gradients, checked against independent oracles.

A single sample is a 1-row batch of ``batch_losses`` / ``grad_weighted``.
Invalid inputs are rejected by ``check_batch``; the kernels trust it.
"""

import math

import numpy as np
import pytest

from agfed.core import InvalidArgument, NumericError, make_rng
from agfed.models import (
    ModelSpec,
    batch_losses,
    check_batch,
    grad_weighted,
    predict_classes,
)

SCALAR = ModelSpec("scalar-regression")
LINEAR = ModelSpec("linear-regression", input_dim=3)
LOGISTIC = ModelSpec("logistic", input_dim=2, num_classes=3)
ALL_SPECS = [SCALAR, LINEAR, LOGISTIC]


def _loss(spec, w, x, y):
    """Loss of the single sample (x, y) at ``w``."""
    return float(batch_losses(spec, w, np.atleast_2d(x), np.array([y]))[0])


def _random_instance(spec, rng):
    """Random parameters and one sample as a 1-row batch (x, y)."""
    w = rng.standard_normal(spec.param_count)
    x = rng.standard_normal(spec.input_dim)
    if spec.kind == "logistic":
        y = float(rng.integers(0, spec.num_classes))
    else:
        y = float(rng.standard_normal())
    return w, x[None, :], np.array([y])


def _random_batch(spec, rng, n, draw_weight):
    """Rows of ``n`` random instances, each followed by its weight draw."""
    rows = []
    for _ in range(n):
        _, x, y = _random_instance(spec, rng)
        rows.append((x, y, draw_weight()))
    xs, ys, weights = zip(*rows)
    return np.vstack(xs), np.concatenate(ys), np.array(weights)


def finite_difference_grad(spec, w, x, y, weights, h=1e-5):
    """Central-difference oracle for the weighted-batch gradient."""
    def objective(params):
        return sum(wt * _loss(spec, params, x[j], y[j]) for j, wt in enumerate(weights))

    g = np.zeros_like(w)
    for i in range(w.size):
        bumped = w.copy()
        bumped[i] += h
        up = objective(bumped)
        bumped[i] -= 2 * h
        down = objective(bumped)
        g[i] = (up - down) / (2 * h)
    return g


class TestLossExamples:
    def test_scalar_regression_square(self):
        assert _loss(SCALAR, np.array([0.0]), [1.0], 1.0) == 1.0

    def test_logistic_uniform_softmax(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        assert _loss(spec, np.zeros(spec.param_count), [0.3, -0.7], 1.0) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_scalar_exact_fit(self):
        c = 2.5
        assert _loss(SCALAR, np.array([c]), [c], c) == 0.0
        # squared error is zero only at the exact fit
        assert _loss(SCALAR, np.array([c + 1e-8]), [c], c) > 0.0

    def test_losses_non_negative(self):
        rng = make_rng(101)
        for spec in ALL_SPECS:
            for _ in range(50):
                w, x, y = _random_instance(spec, rng)
                assert batch_losses(spec, w, x, y)[0] >= 0.0

    def test_dimension_mismatch_rejected(self):
        # wrong parameter count, then wrong feature dimension
        with pytest.raises(InvalidArgument):
            check_batch(SCALAR, np.array([0.0, 0.0]), np.ones((1, 1)), np.zeros(1))
        with pytest.raises(InvalidArgument):
            check_batch(LINEAR, np.zeros(4), np.ones((1, 2)), np.zeros(1))

    def test_non_finite_params_rejected(self):
        with pytest.raises(NumericError):
            check_batch(SCALAR, np.array([np.nan]), np.ones((1, 1)), np.ones(1))


class TestCheckBatch:
    def test_labels_and_features_differ_in_length(self):
        with pytest.raises(InvalidArgument):
            check_batch(LINEAR, np.zeros(4), np.ones((3, 3)), np.zeros(2))

    @pytest.mark.parametrize("label", [-1.0, 2.0, 0.7, np.nan])
    def test_logistic_label_not_a_class_rejected(self, label):
        # at the kernels, -1 indexes the last class and 0.7 truncates to 0
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        y = np.array([0.0, label])
        with pytest.raises(InvalidArgument):
            check_batch(spec, np.zeros(spec.param_count), np.ones((2, 2)), y)


class TestGradExamples:
    def test_scalar_single_sample(self):
        g = grad_weighted(SCALAR, np.array([0.0]), np.array([[1.0]]), np.array([1.0]),
                          np.array([1.0]))
        assert g.tolist() == [-2.0]

    def test_all_zero_weights_give_zero_vector(self):
        rng = make_rng(11)
        for spec in ALL_SPECS:
            x, y, weights = _random_batch(spec, rng, 4, lambda: 0.0)
            w = rng.standard_normal(spec.param_count)
            assert np.all(grad_weighted(spec, w, x, y, weights) == 0.0)

    def test_logistic_matches_finite_differences(self):
        rng = make_rng(23)
        w = rng.standard_normal(LOGISTIC.param_count) * 0.5
        x, y, weights = _random_batch(LOGISTIC, rng, 5, lambda: float(rng.uniform(0, 2)))
        analytic = grad_weighted(LOGISTIC, w, x, y, weights)
        numeric = finite_difference_grad(LOGISTIC, w, x, y, weights)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_gradient_check_100_instances(spec):
    """Analytic gradient vs central differences, 100 random instances."""
    rng = make_rng(37, hash(spec.kind) & 0xFFFF)
    for _ in range(100):
        w, x, y = _random_instance(spec, rng)
        wt = np.array([float(rng.uniform(0.1, 3.0))])
        analytic = grad_weighted(spec, w, x, y, wt)
        numeric = finite_difference_grad(spec, w, x, y, wt)
        scale = max(1e-8, float(np.abs(numeric).max()))
        assert np.abs(analytic - numeric).max() / scale < 1e-5


class TestLogisticNumerics:
    def test_logit_shift_invariance(self):
        rng = make_rng(77)
        w = rng.standard_normal(LOGISTIC.param_count)
        x = rng.standard_normal(2)
        base = _loss(LOGISTIC, w, x, 1.0)
        # add the same constant to every class's bias entry
        shifted = w.copy().reshape(LOGISTIC.num_classes, -1)
        shifted[:, -1] += 123.456
        assert abs(_loss(LOGISTIC, shifted.reshape(-1), x, 1.0) - base) <= 1e-9

    def test_extreme_logits_stay_finite(self):
        w = np.full(LOGISTIC.param_count, 500.0)
        assert np.isfinite(_loss(LOGISTIC, w, [10.0, -10.0], 2.0))

    def test_loss_matches_naive_softmax_oracle(self):
        rng = make_rng(13)
        w = rng.standard_normal(LOGISTIC.param_count) * 0.3
        x = rng.standard_normal(2)
        y = 2
        logits = w.reshape(3, 3) @ np.array([x[0], x[1], 1.0])
        prob = np.exp(logits)[y] / np.exp(logits).sum()
        assert _loss(LOGISTIC, w, x, float(y)) == pytest.approx(-math.log(prob), rel=1e-12)

    def test_predict_classes(self):
        rng = make_rng(19)
        w = rng.standard_normal(LOGISTIC.param_count)
        x = rng.standard_normal((6, 2))
        preds = predict_classes(LOGISTIC, w, x)
        assert preds.shape == (6,)
        assert set(preds.tolist()) <= {0, 1, 2}


class TestGradWeightedShapes:
    def test_param_count_property(self):
        assert SCALAR.param_count == 1
        assert LINEAR.param_count == 4
        assert LOGISTIC.param_count == 9
