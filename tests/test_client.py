"""Client-side round work: stats computation and weighted local SGD."""

import math

import numpy as np
import pytest

from agfed.client import LocalSGDConfig, client_update, compute_client_stats
from agfed.core import ClientDataset, InvalidArgument, make_rng
from agfed.models import ModelSpec, batch_losses

SCALAR = ModelSpec("scalar-regression")


def _client(points_by_domain, client_id=0):
    """1-D client whose samples have label == feature, grouped by domain."""
    xs = [x for points in points_by_domain for x in points]
    domains = [dom for dom, points in enumerate(points_by_domain) for _ in points]
    return ClientDataset(client_id, np.array(xs).reshape(-1, 1), xs, domains)


def _random_client(rng, n=12, p=3):
    return ClientDataset(0, rng.standard_normal((n, 1)), rng.standard_normal(n),
                         rng.integers(0, p, size=n))


class TestComputeClientStats:
    def test_single_domain_client(self):
        ds = _client([[], [1.0, 2.0, 3.0]])
        stats = compute_client_stats(SCALAR, np.array([0.0]), ds, 2)
        assert stats.counts.tolist() == [0, 3]
        assert stats.loss_sums[0] == 0.0
        assert stats.loss_sums[1] == pytest.approx(1 + 4 + 9, rel=1e-12)

    def test_singleton(self):
        ds = _client([[0.5]])  # loss at w=0 is 0.25
        stats = compute_client_stats(SCALAR, np.array([0.0]), ds, 2)
        assert stats.counts.tolist() == [1, 0]
        assert stats.loss_sums.tolist() == pytest.approx([0.25, 0.0], abs=1e-15)

    def test_two_domain_averages(self):
        # domain 0: 2 samples with average loss 0.5; domain 1: 4 samples, average 1.0
        a = np.sqrt(0.5)
        ds = _client([[a, a], [1.0, 1.0, 1.0, 1.0]])
        stats = compute_client_stats(SCALAR, np.array([0.0]), ds, 2)
        assert stats.counts.tolist() == [2, 4]
        assert stats.loss_sums[0] == pytest.approx(1.0, rel=1e-12)
        assert stats.loss_sums[1] == pytest.approx(4.0, rel=1e-12)

    def test_three_samples_same_loss(self):
        # scalar model at w=0; x = sqrt(0.2) gives loss exactly 0.2
        x = math.sqrt(0.2)
        stats = compute_client_stats(SCALAR, np.array([0.0]), _client([[x, x, x]]), 1)
        assert stats.counts.tolist() == [3]
        assert stats.loss_sums[0] == pytest.approx(0.6, abs=1e-12)

    def test_empty_domain(self):
        stats = compute_client_stats(SCALAR, np.array([0.0]), _client([[1.0]]), 2)
        assert stats.counts[1] == 0
        assert stats.loss_sums[1] == 0.0

    def test_domain_sums_cover_total(self):
        ds = _random_client(make_rng(5), n=10)
        w = np.array([0.3])
        stats = compute_client_stats(SCALAR, w, ds, 3)
        total = float(batch_losses(SCALAR, w, ds.feature_matrix, ds.labels).sum())
        assert stats.counts.tolist() == [3, 3, 4]
        assert float(stats.loss_sums.sum()) == pytest.approx(total, rel=1e-12)


class TestClientUpdateExamples:
    def test_hand_computed_single_step(self):
        # one sample x=1 in domain 0, full batch, one epoch:
        # w <- 0 - 0.1 * (2 * (0 - 1) * 1 / 1) = 0.2
        ds = _client([[1.0], []])
        cfg = LocalSGDConfig(epochs=1, batch_size=8, learning_rate=0.1)
        res = client_update(SCALAR, np.array([0.0]), np.array([1.0, 0.0]), ds, cfg, 0)
        assert res.beta == 1.0
        assert res.new_params[0] == pytest.approx(0.2, abs=1e-15)
        assert not res.skipped

    def test_zero_alpha_is_skip_signal(self):
        ds = _client([[1.0], []])
        cfg = LocalSGDConfig(1, 8, 0.1)
        res = client_update(SCALAR, np.array([0.3]), np.array([0.0, 1.0]), ds, cfg, 0)
        assert res.skipped
        assert res.beta == 0.0
        assert np.array_equal(res.new_params, np.array([0.3]))

    def test_two_domains_weighted_gradient(self):
        # x0=1 (domain 0, alpha 2), x1=2 (domain 1, alpha 1), beta = 3
        # full-batch grad = (2*2*(0-1) + 1*2*(0-2)) / 3 = -8/3
        ds = _client([[1.0], [2.0]])
        cfg = LocalSGDConfig(1, 8, 0.1)
        res = client_update(SCALAR, np.array([0.0]), np.array([2.0, 1.0]), ds, cfg, 0)
        assert res.beta == pytest.approx(3.0)
        assert res.new_params[0] == pytest.approx(0.1 * 8.0 / 3.0, rel=1e-15)


class TestClientUpdateProperties:
    def test_alpha_scale_cancellation(self):
        rng = make_rng(3)
        ds = _random_client(rng)
        cfg = LocalSGDConfig(1, 100, 0.05)  # full batch
        alpha = np.array([0.2, 0.5, 0.3])
        base = client_update(SCALAR, np.array([0.1]), alpha, ds, cfg, 9)
        for c in (2.0, 17.5, 1e-3):
            scaled = client_update(SCALAR, np.array([0.1]), c * alpha, ds, cfg, 9)
            assert np.allclose(scaled.new_params, base.new_params, rtol=0, atol=1e-12)
            assert scaled.beta == pytest.approx(c * base.beta, rel=1e-12)

    def test_p1_reduces_to_unweighted_local_training(self):
        rng = make_rng(4)
        ds = _random_client(rng, n=10, p=1)
        cfg = LocalSGDConfig(epochs=3, batch_size=4, learning_rate=0.05)
        n_total = 40  # pretend cohort-wide count
        afa = client_update(SCALAR, np.array([0.2]), np.array([1.0 / n_total]), ds, cfg, 5)
        plain = client_update(SCALAR, np.array([0.2]), np.array([1.0]), ds, cfg, 5)
        assert np.allclose(afa.new_params, plain.new_params, rtol=0, atol=1e-12)

    def test_deterministic_in_all_arguments(self):
        rng = make_rng(9)
        ds = _random_client(rng)
        cfg = LocalSGDConfig(3, 4, 0.1)
        alpha = np.array([1.0, 0.5, 2.0])
        args = (SCALAR, np.array([0.5]), alpha, ds, cfg, 1234)
        a = client_update(*args)
        b = client_update(*args)
        assert np.array_equal(a.new_params, b.new_params)
        assert a.beta == b.beta
        # beta is exactly the alpha-weighted count sum
        assert a.beta == float(alpha @ ds.domain_counts(3))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergent_training_surfaces_numeric_error(self):
        from agfed.core import NumericError
        rng = make_rng(12)
        ds = _random_client(rng)
        cfg = LocalSGDConfig(epochs=2000, batch_size=100, learning_rate=1e150)
        with pytest.raises(NumericError):
            client_update(SCALAR, np.array([1.0]), np.ones(3), ds, cfg, 0)

    def test_seed_changes_minibatch_trajectory(self):
        rng = make_rng(10)
        ds = _random_client(rng, n=16)
        cfg = LocalSGDConfig(2, 3, 0.1)
        a = client_update(SCALAR, np.array([0.5]), np.ones(3), ds, cfg, 1)
        b = client_update(SCALAR, np.array([0.5]), np.ones(3), ds, cfg, 2)
        # different shuffles visit minibatches in different orders
        assert not np.array_equal(a.new_params, b.new_params)
        # but a full-batch pass is shuffle-independent
        full = LocalSGDConfig(1, 100, 0.1)
        fa = client_update(SCALAR, np.array([0.5]), np.ones(3), ds, full, 1)
        fb = client_update(SCALAR, np.array([0.5]), np.ones(3), ds, full, 2)
        assert np.allclose(fa.new_params, fb.new_params, atol=0)


class TestLocalSGDConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(epochs=0, batch_size=1, learning_rate=0.1),
        dict(epochs=1, batch_size=0, learning_rate=0.1),
        dict(epochs=1, batch_size=1, learning_rate=0.0),
        dict(epochs=1, batch_size=1, learning_rate=-0.5),
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            LocalSGDConfig(**kwargs)
