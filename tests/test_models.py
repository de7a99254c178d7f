"""Model losses and gradients, checked against independent oracles.

A single sample is a 1-row batch of ``batch_losses`` / ``grad_weighted``.
The kernels take augmented rows (features, then a ones column), as the
population stores them; ``_rows`` builds them from plain features.
Invalid inputs are rejected by ``check_batch``; the kernels trust it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agfed.core import InvalidArgument, make_rng
from agfed.models import (
    MODEL_KINDS,
    ModelSpec,
    _log_softmax,
    batch_losses,
    check_batch,
    check_labels,
    class_dtype,
    grad_weighted,
    predict_classes,
)

SCALAR = ModelSpec("scalar-regression")
LOGISTIC = ModelSpec("logistic", input_dim=2, num_classes=3)
ALL_SPECS = [SCALAR, LOGISTIC]


def _rows(x):
    """Augmented rows of the features ``x``: each row, then a 1."""
    x = np.atleast_2d(x)
    return np.column_stack([x, np.ones(x.shape[0])])


def _same_bits(a, b):
    """Same shape and the same bits, ±0.0 and NaN payloads included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _loss(spec, w, x, y):
    """Loss of the single sample (x, y) at ``w``; ``x`` holds the features only."""
    return float(batch_losses(spec, w, _rows(x), np.array([y]))[0])


def _random_instance(spec, rng):
    """Random parameters and one sample as a 1-row augmented batch (xb, y)."""
    w = rng.standard_normal(spec.param_count)
    x = rng.standard_normal(spec.input_dim)
    if spec.kind == "logistic":
        y = float(rng.integers(0, spec.num_classes))
    else:
        y = float(rng.standard_normal())
    return w, _rows(x), np.array([y])


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
        return sum(wt * _loss(spec, params, x[j, :-1], y[j]) for j, wt in enumerate(weights))

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
            check_batch(SCALAR, np.array([0.0, 0.0]), np.ones((1, 2)), np.zeros(1))
        with pytest.raises(InvalidArgument):
            check_batch(LOGISTIC, np.zeros(9), np.ones((1, 4)), np.zeros(1))

    def test_rows_without_the_bias_column_rejected_naming_input_dim(self):
        with pytest.raises(InvalidArgument, match="input_dim=2"):
            check_batch(LOGISTIC, np.zeros(9), np.ones((1, 2)), np.zeros(1))
        check_batch(LOGISTIC, np.zeros(9), np.ones((1, 3)), np.zeros(1))


class TestCheckBatch:
    def test_labels_and_features_differ_in_length(self):
        with pytest.raises(InvalidArgument):
            check_batch(LOGISTIC, np.zeros(9), np.ones((3, 3)), np.zeros(2))

    @pytest.mark.parametrize("label", [-1.0, 2.0, 0.7, np.nan])
    def test_logistic_label_not_a_class_rejected(self, label):
        # at the kernels, -1 indexes the last class and 0.7 truncates to 0
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        y = np.array([0.0, label])
        with pytest.raises(InvalidArgument):
            check_batch(spec, np.zeros(spec.param_count), np.ones((2, 3)), y)
        with pytest.raises(InvalidArgument):
            check_labels(spec, y)
        # labels=False leaves the labels' values to a check made earlier
        check_batch(spec, np.zeros(spec.param_count), np.ones((2, 3)), y, labels=False)

    def test_labels_false_still_checks_the_shapes(self):
        spec = ModelSpec("logistic", input_dim=2, num_classes=2)
        with pytest.raises(InvalidArgument, match="differ in length"):
            check_batch(spec, np.zeros(spec.param_count), np.ones((3, 3)), np.zeros(2),
                        labels=False)

    def test_regression_labels_take_any_real(self):
        check_labels(SCALAR, np.array([-1.5, 0.7, 1e9]))


class TestGradExamples:
    def test_scalar_single_sample(self):
        g = grad_weighted(SCALAR, np.array([0.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
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
        xb = _rows(rng.standard_normal((6, 2)))
        preds = predict_classes(LOGISTIC, w, xb)
        assert preds.shape == (6,)
        assert set(preds.tolist()) <= {0, 1, 2}

    def test_predict_classes_ties_go_to_the_lower_class(self):
        # logits per row: (0, 0, 0), (0, 1, 1), (0, -1, 0), (0, 0, 1)
        w = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]).ravel()
        xb = _rows([[0.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [0.0, 1.0]])
        assert predict_classes(LOGISTIC, w, xb).tolist() == [0, 1, 0, 2]
        # a bias of 1 on class 0 ties or beats every other class on each row
        w[2] = 1.0
        assert predict_classes(LOGISTIC, w, xb).tolist() == [0, 0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 30),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_predict_classes_equals_argmax(self, classes, dim, n, seed, small_integers):
        # small integer weights and features give exact dot products, so
        # logit ties are common; otherwise one class repeats another's
        # weights, which ties those two classes on every row
        spec = ModelSpec("logistic", input_dim=dim, num_classes=classes)
        rng = make_rng(seed)
        if small_integers:
            w = rng.integers(-2, 3, size=spec.param_count).astype(float)
            xb = _rows(rng.integers(-2, 3, size=(n, dim)).astype(float))
        else:
            wmat = rng.standard_normal((classes, dim + 1))
            wmat[rng.integers(1, classes)] = wmat[rng.integers(0, classes)]
            w = wmat.ravel()
            xb = _rows(rng.standard_normal((n, dim)))
        expected = np.argmax(xb @ w.reshape(classes, dim + 1).T, axis=1)
        assert np.array_equal(predict_classes(spec, w, xb), expected)

    @pytest.mark.parametrize("classes", [2, 256, 257])
    def test_classes_come_in_class_dtype(self, classes):
        # one byte of classes up to 256 classes, two from 257 on
        spec = ModelSpec("logistic", input_dim=2, num_classes=classes)
        rng = make_rng(classes)
        w = rng.standard_normal(spec.param_count)
        xb = _rows(rng.standard_normal((50, 2)))
        predicted = predict_classes(spec, w, xb)
        assert predicted.dtype == class_dtype(spec)
        assert np.array_equal(predicted, np.argmax(xb @ w.reshape(classes, 3).T, axis=1))


class TestGradWeightedShapes:
    def test_param_count_property(self):
        assert SCALAR.param_count == 1
        assert LOGISTIC.param_count == 9

    @pytest.mark.parametrize("args, message", [
        (("svm",), "unknown model kind 'svm'"),
        (("logistic", 0, 2), "input_dim must be >= 1"),
        (("logistic", 2, 1), "logistic model needs num_classes >= 2"),
    ])
    def test_bad_spec_rejected(self, args, message):
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            ModelSpec(*args)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(MODEL_KINDS), st.integers(2, 5), st.integers(1, 4),
           st.integers(1, 8), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_stacking_keeps_every_bit(self, kind, classes, dim, m, b, seed):
        # one stacked call over m minibatches of b rows equals m single calls
        spec = ModelSpec(kind, input_dim=dim, num_classes=classes if kind == "logistic" else 0)
        rng = make_rng(seed)
        w = rng.standard_normal((m, spec.param_count))
        xb = np.concatenate([rng.standard_normal((m, b, dim)), np.ones((m, b, 1))], axis=-1)
        if kind == "logistic":
            y = rng.integers(0, classes, size=(m, b)).astype(float)
        else:
            y = rng.standard_normal((m, b))
        weights = rng.uniform(0.0, 2.0, size=(m, b)) * (rng.random((m, b)) < 0.8)
        stacked = grad_weighted(spec, w, xb, y, weights)
        assert stacked.shape == w.shape
        for i in range(m):
            alone = grad_weighted(spec, w[i], xb[i], y[i], weights[i])
            assert _same_bits(stacked[i], alone)


# The logistic kernels as they were written with class-axis reductions
# and logits taken as xb @ W.T; the kernels must keep their every bit.
def _reduction_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _reduction_batch_losses(spec, w, xb, y):
    weights = w.reshape(spec.num_classes, spec.input_dim + 1)
    logp = _reduction_log_softmax(xb @ weights.T)
    return -logp[np.arange(xb.shape[0]), y.astype(np.int64)]


def _reduction_grad_weighted(spec, w, xb, y, weights):
    wmat = w.reshape(w.shape[:-1] + (spec.num_classes, spec.input_dim + 1))
    probs = np.exp(_reduction_log_softmax(np.matmul(xb, np.swapaxes(wmat, -1, -2))))
    probs = probs - (y[..., None] == np.arange(spec.num_classes))
    return np.matmul(np.swapaxes(probs * weights[..., None], -1, -2), xb).reshape(w.shape)


def _reduction_predict_classes(spec, w, xb):
    return np.argmax(xb @ w.reshape(spec.num_classes, spec.input_dim + 1).T, axis=-1)


SMALL_VALUES = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def _logistic_inputs(draw):
    """A logistic spec with parameters and rows of leading shape ``lead``.

    ``lead`` is () for one batch or (m,) for m stacked minibatches; a
    batch has 1 row about a third of the time. Values are either small
    integers with signed zeros, which give exact logit ties and -0.0
    logits, or normals at a scale from 0.01 to 50; sometimes one class
    repeats another's weights, which ties those two classes on every
    row, and some sample weights are zero.
    """
    classes, dim = draw(st.integers(2, 7)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (1,), (2,), (7,), (100,)]))
    rows = draw(st.one_of(st.just(1), st.integers(1, 50)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ModelSpec("logistic", input_dim=dim, num_classes=classes)
    if draw(st.booleans()):
        wmat = rng.choice(SMALL_VALUES, size=lead + (classes, dim + 1))
        x = rng.choice(SMALL_VALUES, size=lead + (rows, dim))
    else:
        scale = draw(st.sampled_from([0.01, 1.0, 50.0]))
        wmat = rng.standard_normal(lead + (classes, dim + 1)) * scale
        x = rng.standard_normal(lead + (rows, dim)) * scale
    if draw(st.booleans()):
        wmat[..., rng.integers(1, classes), :] = wmat[..., rng.integers(0, classes), :]
    xb = np.concatenate([x, np.ones(lead + (rows, 1))], axis=-1)
    y = rng.integers(0, classes, size=lead + (rows,)).astype(float)
    weights = rng.uniform(0.0, 3.0, size=lead + (rows,)) * (rng.random(lead + (rows,)) < 0.7)
    return spec, wmat.reshape(lead + (-1,)), xb, y, weights


def _stacked_minibatches(m, rows, seed):
    """``_logistic_inputs``'s form for m stacked minibatches of ``rows`` rows.

    Two classes and two features of standard normals, as a cohort of the
    shipped classification task steps them.
    """
    rng = make_rng(seed)
    spec = ModelSpec("logistic", input_dim=2, num_classes=2)
    w = rng.standard_normal((m, spec.param_count))
    xb = np.concatenate([rng.standard_normal((m, rows, 2)), np.ones((m, rows, 1))], axis=-1)
    y = rng.integers(0, 2, size=(m, rows)).astype(float)
    return spec, w, xb, y, rng.uniform(0.0, 3.0, size=(m, rows))


class TestLogisticKernelsKeepTheReductionBits:
    @settings(max_examples=300, deadline=None)
    @given(_logistic_inputs())
    # BLAS takes the gradient's second product down another path, which
    # moves the last bit, when its (C, b) operand is C-contiguous and b
    # is 16 or more; hypothesis draws such a stack only now and then
    @example(_stacked_minibatches(100, 20, 7))
    def test_kernels_match_the_reduction_formulas(self, inputs):
        spec, w, xb, y, weights = inputs
        assert _same_bits(grad_weighted(spec, w, xb, y, weights),
                          _reduction_grad_weighted(spec, w, xb, y, weights))
        if w.ndim == 1:
            assert _same_bits(batch_losses(spec, w, xb, y),
                              _reduction_batch_losses(spec, w, xb, y))
            assert np.array_equal(predict_classes(spec, w, xb),
                                  _reduction_predict_classes(spec, w, xb))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 20), st.data())
    def test_log_softmax_matches_the_reduction(self, classes, n, data):
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]),
            st.floats(-700.0, 700.0),
        )
        logits = np.array(data.draw(
            st.lists(st.lists(values, min_size=classes, max_size=classes),
                     min_size=n, max_size=n)))
        # the kernel takes the classes on axis -2, one row per class
        assert _same_bits(_log_softmax(np.ascontiguousarray(logits.T)),
                          np.ascontiguousarray(_reduction_log_softmax(logits).T))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 10), st.integers(1, 20), st.integers(0, 2**32 - 1),
           st.sampled_from([0.01, 1.0, 50.0]))
    def test_log_softmax_sums_classes_left_to_right_from_8_classes(self, classes, n,
                                                                    seed, scale):
        # numpy's sum over 8 or more values is pairwise; the kernel keeps
        # the left-to-right order of the class rows
        logits = make_rng(seed).standard_normal((n, classes)) * scale
        expected = np.empty_like(logits)
        for i, row in enumerate(logits):
            top = row[0]
            for v in row[1:]:
                top = max(top, v)
            shifted = row - top
            total = 0.0
            for e in np.exp(shifted):
                total += e
            expected[i] = shifted - np.log(total)
        assert _same_bits(_log_softmax(np.ascontiguousarray(logits.T)),
                          np.ascontiguousarray(expected.T))
