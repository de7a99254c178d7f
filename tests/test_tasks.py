"""Dataset generators: oracles, partition invariants, reproducibility."""

import numpy as np
import pytest

from agfed.core import InvalidArgument
from agfed.models import batch_losses, grad_weighted
from agfed.tasks import (
    TaskConfig,
    gen_synthetic_classification,
    gen_toy_regression,
    initial_params_for,
    model_spec_for,
    read_datasets,
    write_datasets,
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
        clients, oracle = gen_toy_regression(_toy_cfg())
        assert oracle == 0.0
        assert len(clients) == 50
        assert all(len(c) > 0 for c in clients)

    def test_asymmetric_centers_oracle_midpoint(self):
        _, oracle = gen_toy_regression(_toy_cfg(p=3, centers=(-1.0, 0.0, 5.0)))
        assert oracle == 2.0

    def test_total_points_preserved(self):
        cfg = _toy_cfg(points_per_domain=40)
        clients, _ = gen_toy_regression(cfg)
        total = sum(len(c) for c in clients)
        assert total == cfg.p * cfg.points_per_domain
        by_domain = np.bincount(np.concatenate([c.domains for c in clients]), minlength=cfg.p)
        assert by_domain.tolist() == [40] * cfg.p

    def test_identical_domain_variance(self):
        cfg = _toy_cfg()
        clients, _ = gen_toy_regression(cfg)
        xs = np.concatenate([c.labels for c in clients])
        doms = np.concatenate([c.domains for c in clients])
        variances = [np.var(xs[doms == i]) for i in range(cfg.p)]
        assert max(variances) - min(variances) <= 1e-12

    def test_domain_means_are_the_centers(self):
        cfg = _toy_cfg()
        clients, _ = gen_toy_regression(cfg)
        xs = np.concatenate([c.labels for c in clients])
        doms = np.concatenate([c.domains for c in clients])
        for i, center in enumerate(cfg.centers):
            assert np.mean(xs[doms == i]) == pytest.approx(center, abs=1e-12)

    def test_client_partition_single_domain_clients(self):
        cfg = _toy_cfg(partition="client-partition", num_clients=20)
        clients, _ = gen_toy_regression(cfg)
        for c in clients:
            assert len(set(c.domains.tolist())) == 1

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


def _centralized_fit(spec, clients, iters=400, lr=0.5):
    """Full-batch GD on pooled data: the centralized training oracle."""
    x = np.concatenate([c.feature_matrix for c in clients])
    y = np.concatenate([c.labels for c in clients])
    w = np.zeros(spec.param_count)
    for _ in range(iters):
        g = grad_weighted(spec, w, x, y, np.ones(len(y)))
        w = w - lr * g / len(y)
    return w


def _per_domain_mean_loss(spec, w, clients, p):
    x = np.concatenate([c.feature_matrix for c in clients])
    y = np.concatenate([c.labels for c in clients])
    d = np.concatenate([c.domains for c in clients])
    losses = batch_losses(spec, w, x, y)
    return [float(losses[d == i].mean()) for i in range(p)]


class TestSyntheticClassification:
    def test_client_partition_shares(self):
        cfg = _cls_cfg()
        clients = gen_synthetic_classification(cfg)
        assert len(clients) == 40
        domains = [int(c.domains[0]) for c in clients]
        for c in clients:
            assert len(set(c.domains.tolist())) == 1
        assert domains.count(0) == 34 and domains.count(1) == 6

    def test_minority_domain_is_harder_for_central_model(self):
        cfg = _cls_cfg(samples_per_client=30)
        clients = gen_synthetic_classification(cfg)
        spec = model_spec_for(cfg)
        w = _centralized_fit(spec, clients)
        loss0, loss1 = _per_domain_mean_loss(spec, w, clients, 2)
        assert loss1 > loss0

    def test_equal_margins_and_shares_balance_losses(self):
        cfg = _cls_cfg(margins=(1.0, 1.0), shares=(0.5, 0.5), num_clients=40,
                       samples_per_client=50, seed=3)
        clients = gen_synthetic_classification(cfg)
        spec = model_spec_for(cfg)
        w = _centralized_fit(spec, clients)
        loss0, loss1 = _per_domain_mean_loss(spec, w, clients, 2)
        # symmetric construction: losses agree within sampling noise
        n_per_domain = sum(len(c) for c in clients) / 2
        noise = 3.0 / np.sqrt(n_per_domain)
        assert abs(loss0 - loss1) <= noise

    def test_data_partition_mixing(self):
        cfg = _cls_cfg(partition="data-partition", mixing=(0.5, 0.5),
                       samples_per_client=100, num_clients=30)
        clients = gen_synthetic_classification(cfg)
        single_domain = sum(1 for c in clients if len(set(c.domains.tolist())) == 1)
        # P(single domain horizon) = 2 * 0.5**100 ~ 1.6e-30: expect none
        assert 2 * 0.5 ** 100 < 1e-20
        assert single_domain == 0

    def test_samples_per_client_range(self):
        cfg = _cls_cfg(samples_per_client=(5, 15))
        clients = gen_synthetic_classification(cfg)
        sizes = {len(c) for c in clients}
        assert all(5 <= s <= 15 for s in sizes)
        assert len(sizes) > 1

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            _cls_cfg(margins=(1.0,))
        with pytest.raises(InvalidArgument):
            _cls_cfg(shares=(1.0,))
        with pytest.raises(InvalidArgument):
            _cls_cfg(num_classes=3)
        with pytest.raises(InvalidArgument):
            _cls_cfg(partition="data-partition", mixing=(0.7, 0.7))
        with pytest.raises(InvalidArgument):
            _cls_cfg(mixing=(0.5, 0.5))  # mixing is data-partition only


class TestReproducibility:
    @pytest.mark.parametrize("make", [
        lambda seed: gen_toy_regression(_toy_cfg(seed=seed))[0],
        lambda seed: gen_synthetic_classification(_cls_cfg(seed=seed)),
    ], ids=["toy", "classification"])
    def test_same_seed_same_bytes(self, make, tmp_path):
        a, b = make(123), make(123)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_datasets(a, pa)
        write_datasets(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        a = gen_synthetic_classification(_cls_cfg(seed=1))
        b = gen_synthetic_classification(_cls_cfg(seed=2))
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_datasets(a, pa)
        write_datasets(b, pb)
        assert pa.read_bytes() != pb.read_bytes()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        clients = gen_synthetic_classification(_cls_cfg(num_clients=6))
        path = tmp_path / "data.txt"
        write_datasets(clients, path)
        back = read_datasets(path)
        assert len(back) == len(clients)
        for orig, loaded in zip(clients, back):
            assert orig.client_id == loaded.client_id
            assert np.array_equal(orig.feature_matrix, loaded.feature_matrix)
            assert np.array_equal(orig.labels, loaded.labels)
            assert np.array_equal(orig.domains, loaded.domains)

    def test_line_format(self, tmp_path):
        clients, _ = gen_toy_regression(_toy_cfg(p=1, centers=(2.0,), num_clients=2,
                                                 points_per_domain=4))
        path = tmp_path / "data.txt"
        write_datasets(clients, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# client 0"
        fields = lines[1].split()
        assert fields[0] == "0"  # domain index first
        float(fields[1])         # label parses
        float(fields[2])         # feature parses

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0 2.0\n")  # sample before any client header
        with pytest.raises(InvalidArgument):
            read_datasets(path)
