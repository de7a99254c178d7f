"""Dataset generators: oracles, partition invariants, reproducibility."""

import numpy as np
import pytest

from agfed.core import InvalidArgument
from agfed.models import batch_losses, grad_weighted
from agfed.tasks import (
    TaskConfig,
    _split_counts,
    gen_synthetic_classification,
    gen_toy_regression,
    generate_population,
    initial_params_for,
    model_spec_for,
)


def _toy_cfg(**kwargs):
    defaults = dict(kind="toy-regression", p=5, num_clients=50, seed=1,
                    partition="data-partition")
    defaults.update(kwargs)
    return TaskConfig(**defaults)


def _cls_cfg(**kwargs):
    defaults = dict(kind="synthetic-classification", p=2, num_clients=40, seed=1,
                    partition="client-partition", samples_per_client=20,
                    margins=(2.0, 0.5), shares=(0.85, 0.15), noise=0.5)
    defaults.update(kwargs)
    return TaskConfig(**defaults)


class TestToyRegression:
    def test_symmetric_centers_oracle_zero(self):
        _, oracle = gen_toy_regression(_toy_cfg(p=2, centers=(-3.0, 3.0)))
        assert oracle == 0.0

    def test_single_domain_oracle(self):
        _, oracle = gen_toy_regression(_toy_cfg(p=1, centers=(0.0,)))
        assert oracle == 0.0

    def test_default_five_centers_oracle_zero(self):
        population, oracle = gen_toy_regression(_toy_cfg())
        assert oracle == 0.0
        assert len(population) == 50
        assert np.diff(population.offsets).min() > 0

    def test_asymmetric_centers_oracle_midpoint(self):
        _, oracle = gen_toy_regression(_toy_cfg(p=3, centers=(-1.0, 0.0, 5.0)))
        assert oracle == 2.0

    def test_total_points_preserved(self):
        cfg = _toy_cfg(points_per_domain=40)
        population, _ = gen_toy_regression(cfg)
        assert population.offsets[-1] == cfg.p * cfg.points_per_domain
        assert np.bincount(population.domains, minlength=cfg.p).tolist() == [40] * cfg.p

    def test_identical_domain_variance(self):
        cfg = _toy_cfg()
        population, _ = gen_toy_regression(cfg)
        xs, doms = population.y, population.domains
        variances = [np.var(xs[doms == i]) for i in range(cfg.p)]
        assert max(variances) - min(variances) <= 1e-12

    def test_domain_means_are_the_centers(self):
        cfg = _toy_cfg()
        population, _ = gen_toy_regression(cfg)
        xs, doms = population.y, population.domains
        for i, center in enumerate(cfg.centers):
            assert np.mean(xs[doms == i]) == pytest.approx(center, abs=1e-12)

    def test_client_partition_single_domain_clients(self):
        cfg = _toy_cfg(partition="client-partition", num_clients=20)
        population, _ = gen_toy_regression(cfg)
        assert np.all((population.counts > 0).sum(axis=1) == 1)

    def test_model_wiring(self):
        cfg = _toy_cfg(init_value=1.5)
        spec = model_spec_for(cfg)
        assert spec.kind == "scalar-regression"
        w0 = initial_params_for(cfg)
        assert w0[0] == 1.5

    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            _toy_cfg(centers=(0.0,))  # p=5 but one center
        with pytest.raises(InvalidArgument):
            _toy_cfg(points_per_domain=2, num_clients=50)  # fewer points than clients
        with pytest.raises(InvalidArgument):
            TaskConfig(kind="other", p=1, num_clients=1, seed=0,
                       partition="data-partition")


def _centralized_fit(spec, population, iters=400, lr=0.5):
    """Full-batch GD on pooled data: the centralized training oracle."""
    x, y = population.xb, population.y
    w = np.zeros(spec.param_count)
    for _ in range(iters):
        g = grad_weighted(spec, w, x, y, np.ones(len(y)))
        w = w - lr * g / len(y)
    return w


def _per_domain_mean_loss(spec, w, population, p):
    losses = batch_losses(spec, w, population.xb, population.y)
    return [float(losses[population.domains == i].mean()) for i in range(p)]


class TestSyntheticClassification:
    def test_client_partition_shares(self):
        cfg = _cls_cfg()
        population = gen_synthetic_classification(cfg)
        assert len(population) == 40
        assert np.all((population.counts > 0).sum(axis=1) == 1)
        assert np.bincount(population.counts.argmax(axis=1)).tolist() == [34, 6]

    def test_minority_domain_is_harder_for_central_model(self):
        cfg = _cls_cfg(samples_per_client=30)
        population = gen_synthetic_classification(cfg)
        spec = model_spec_for(cfg)
        w = _centralized_fit(spec, population)
        loss0, loss1 = _per_domain_mean_loss(spec, w, population, 2)
        assert loss1 > loss0

    def test_equal_margins_and_shares_balance_losses(self):
        cfg = _cls_cfg(margins=(1.0, 1.0), shares=(0.5, 0.5), num_clients=40,
                       samples_per_client=50, seed=3)
        population = gen_synthetic_classification(cfg)
        spec = model_spec_for(cfg)
        w = _centralized_fit(spec, population)
        loss0, loss1 = _per_domain_mean_loss(spec, w, population, 2)
        # symmetric construction: losses agree within sampling noise
        n_per_domain = len(population.y) / 2
        noise = 3.0 / np.sqrt(n_per_domain)
        assert abs(loss0 - loss1) <= noise

    def test_data_partition_mixing(self):
        cfg = _cls_cfg(partition="data-partition", mixing=(0.5, 0.5),
                       samples_per_client=100, num_clients=30)
        population = gen_synthetic_classification(cfg)
        single_domain = int(((population.counts > 0).sum(axis=1) == 1).sum())
        # P(single domain horizon) = 2 * 0.5**100 ~ 1.6e-30: expect none
        assert 2 * 0.5 ** 100 < 1e-20
        assert single_domain == 0

    def test_samples_per_client_range(self):
        cfg = _cls_cfg(samples_per_client=(5, 15))
        sizes = set(np.diff(gen_synthetic_classification(cfg).offsets).tolist())
        assert all(5 <= s <= 15 for s in sizes)
        assert len(sizes) > 1

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            _cls_cfg(margins=(1.0,))
        with pytest.raises(InvalidArgument):
            _cls_cfg(shares=(1.0,))
        with pytest.raises(InvalidArgument):
            _cls_cfg(partition="data-partition", mixing=(0.7, 0.7))
        with pytest.raises(InvalidArgument):
            _cls_cfg(mixing=(0.5, 0.5))  # mixing is data-partition only


class TestClassificationDistribution:
    """The whole-array draw keeps the generator's distributions.

    Fixed seeds; every tolerance is five standard errors of the
    estimate unless stated otherwise.
    """

    P3 = dict(p=3, margins=(2.0, 1.0, 0.5), shares=(0.5, 0.3, 0.2), noise=0.7, input_dim=3)

    def test_class_balance(self):
        population = gen_synthetic_classification(_cls_cfg(num_clients=500, seed=11))
        n = population.y.shape[0]
        assert set(np.unique(population.y).tolist()) == {0.0, 1.0}
        assert abs(population.y.mean() - 0.5) <= 5 * 0.5 / np.sqrt(n)

    @pytest.mark.parametrize("partition", ["client-partition", "data-partition"])
    def test_domain_means_along_direction_are_half_margins(self, partition):
        cfg = _cls_cfg(partition=partition, num_clients=300, seed=12, **self.P3)
        population = gen_synthetic_classification(cfg)
        x, y, d = population.x, population.y, population.domains
        for i, margin in enumerate(cfg.margins):
            angle = np.pi * i / cfg.p
            along = x[:, :2] @ np.array([np.cos(angle), np.sin(angle)])
            for label, sign in ((0.0, -1.0), (1.0, 1.0)):
                rows = (d == i) & (y == label)
                tolerance = 5 * cfg.noise / np.sqrt(rows.sum())
                assert abs(along[rows].mean() - sign * margin / 2) <= tolerance

    def test_noise_standard_deviation(self):
        cfg = _cls_cfg(num_clients=300, seed=13, **self.P3)
        population = gen_synthetic_classification(cfg)
        x, y, d = population.x, population.y, population.domains
        angles = np.pi * d / cfg.p
        means = ((2 * y - 1) * np.asarray(cfg.margins)[d] / 2)[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles), np.zeros_like(angles)])
        residual = (x - means).ravel()
        # the standard error of a sample standard deviation is sigma / sqrt(2n)
        assert abs(residual.mean()) <= 5 * cfg.noise / np.sqrt(residual.size)
        assert abs(residual.std() - cfg.noise) <= 5 * cfg.noise / np.sqrt(2 * residual.size)

    def test_data_partition_domain_frequencies_follow_mixing(self):
        cfg = _cls_cfg(partition="data-partition", num_clients=400, seed=14, p=3,
                       margins=(2.0, 1.0, 0.5), mixing=(0.6, 0.3, 0.1))
        population = gen_synthetic_classification(cfg)
        n = population.domains.shape[0]
        freq = np.bincount(population.domains, minlength=3) / n
        mixing = np.array(cfg.mixing)
        assert np.all(np.abs(freq - mixing) <= 5 * np.sqrt(mixing * (1 - mixing) / n))

    def test_client_partition_splits_clients_by_shares(self):
        cfg = _cls_cfg(num_clients=100, seed=15, **self.P3)
        population = gen_synthetic_classification(cfg)
        # exact largest-remainder split; each client holds one domain, in order
        assert np.array_equal(population.counts > 0,
                              np.repeat(np.eye(3, dtype=bool), [50, 30, 20], axis=0))
        assert np.array_equal(population.counts.sum(axis=1), np.full(100, 20))

    def test_ragged_sizes_cover_the_range(self):
        cfg = _cls_cfg(num_clients=600, seed=16, samples_per_client=(3, 9))
        sizes = np.diff(gen_synthetic_classification(cfg).offsets)
        assert sizes.min() == 3 and sizes.max() == 9
        # uniform on 7 values: each count within five standard errors of 600 / 7
        expected = 600 / 7
        assert np.all(np.abs(np.bincount(sizes - 3, minlength=7) - expected)
                      <= 5 * np.sqrt(expected * 6 / 7))


def _population_bytes(population):
    return b"".join(arr.tobytes() for arr in (population.xb, population.y, population.domains,
                                              population.offsets, population.client_ids))


class TestReproducibility:
    @pytest.mark.parametrize("make", [
        lambda seed: gen_toy_regression(_toy_cfg(seed=seed))[0],
        lambda seed: gen_synthetic_classification(_cls_cfg(seed=seed)),
    ], ids=["toy", "classification"])
    def test_same_seed_same_bytes(self, make):
        assert _population_bytes(make(123)) == _population_bytes(make(123))

    def test_different_seed_different_data(self):
        a = gen_synthetic_classification(_cls_cfg(seed=1))
        b = gen_synthetic_classification(_cls_cfg(seed=2))
        assert _population_bytes(a) != _population_bytes(b)


class TestRareBranches:
    """Inputs that reach the generators' rarely taken branches."""

    def test_parts_raised_to_one_give_back_the_excess(self):
        # quotas 2.94, 0.03 and 0.03 floor to 2, 0 and 0; raised to at
        # least 1 they make 4 of 3, so the largest part gives one back
        assert _split_counts(3, (0.98, 0.01, 0.01)) == [1, 1, 1]
        cfg = _cls_cfg(p=3, num_clients=3, margins=(2.0, 1.0, 0.5), shares=(0.98, 0.01, 0.01))
        population, _ = generate_population(cfg)
        assert np.array_equal(population.counts > 0, np.eye(3, dtype=bool))

    def test_single_point_domains_sit_on_their_centers(self):
        # linspace(-spread, spread, 1) alone would put each point at center - spread
        cfg = _toy_cfg(points_per_domain=1, num_clients=5)
        population, _ = generate_population(cfg)
        assert sorted(population.y.tolist()) == list(cfg.centers)
        assert np.array_equal(population.y, population.x[:, 0])
