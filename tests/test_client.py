"""Client-side round work: stats computation and weighted local SGD.

Both requests run over a whole cohort at once; most tests here use a
cohort of one client. ``_reference_round_clients`` keeps the per-client
loop they replaced, and the cohort path must agree with it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agfed.client import (
    LocalSGDConfig,
    _betas,
    _segment_sums,
    client_update,
    compute_client_stats,
)
from agfed.core import (
    ClientDataset,
    Cohort,
    InvalidArgument,
    NumericError,
    Population,
    make_rng,
)
from agfed.models import ModelSpec, batch_losses, grad_weighted

SCALAR = ModelSpec("scalar-regression")


def _client(points_by_domain, client_id=0):
    """1-D client whose samples have label == feature, grouped by domain."""
    xs = [x for points in points_by_domain for x in points]
    domains = [dom for dom, points in enumerate(points_by_domain) for _ in points]
    return ClientDataset(client_id, np.array(xs).reshape(-1, 1), xs, domains)


def _random_client(rng, n=12, p=3):
    return ClientDataset(0, rng.standard_normal((n, 1)), rng.standard_normal(n),
                         rng.integers(0, p, size=n))


def _cohort(clients, p):
    """All of the clients, in the given order, as one round's cohort."""
    return Cohort.gather(Population.from_clients(clients, p), np.arange(len(clients)))


def _stats(w, ds, p):
    """Counts and loss sums of a one-client cohort."""
    counts, loss_sums = compute_client_stats(SCALAR, w, _cohort([ds], p))
    return counts[0], loss_sums[0]


def _update(w, alpha, ds, cfg, seed):
    """New parameters and beta of a one-client cohort."""
    params, betas = client_update(SCALAR, w, alpha, _cohort([ds], alpha.shape[0]),
                                  cfg, make_rng(seed))
    return params[0], betas[0]


def _reference_round_clients(spec, w, alpha, clients, p, cfg, seed):
    """Stats and local SGD one client at a time: the loop the cohort calls replaced.

    Returns (m, p) counts and loss sums, (m, P) new parameters and (m,)
    betas, like the two cohort calls together. Each epoch draws one key
    per row of the whole cohort from ``make_rng(seed)``, and each client
    visits its rows in the stable argsort of its own slice of the keys.
    The kernels take each client's rows augmented with a ones column.
    """
    offsets = np.cumsum([0] + [len(c) for c in clients])
    rng = make_rng(seed)
    epoch_keys = [rng.random(offsets[-1]) for _ in range(cfg.epochs)]
    counts, loss_sums, params, betas = [], [], [], []
    for k, data in enumerate(clients):
        x = np.column_stack([data.feature_matrix, np.ones(len(data))])
        y, domains = data.labels, data.domains
        n_k = np.bincount(domains, minlength=p)
        losses = batch_losses(spec, w, x, y)
        counts.append(n_k)
        loss_sums.append([float(losses[domains == i].sum()) if n_k[i] else 0.0
                          for i in range(p)])
        beta = float(np.dot(alpha, n_k))
        w_k = np.array(w, dtype=np.float64)
        if beta != 0.0:
            sample_weights = alpha[domains]
            for keys in epoch_keys:
                order = np.argsort(keys[offsets[k]:offsets[k + 1]], kind="stable")
                for start in range(0, len(data), cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    g = grad_weighted(spec, w_k, x[idx], y[idx], sample_weights[idx])
                    w_k -= cfg.learning_rate * (g / beta)
        params.append(w_k)
        betas.append(beta)
    return np.array(counts), np.array(loss_sums), np.array(params), np.array(betas)


class TestComputeClientStats:
    def test_single_domain_client(self):
        ds = _client([[], [1.0, 2.0, 3.0]])
        counts, loss_sums = _stats(np.array([0.0]), ds, 2)
        assert counts.tolist() == [0, 3]
        assert loss_sums[0] == 0.0
        assert loss_sums[1] == pytest.approx(1 + 4 + 9, rel=1e-12)

    def test_singleton(self):
        ds = _client([[0.5]])  # loss at w=0 is 0.25
        counts, loss_sums = _stats(np.array([0.0]), ds, 2)
        assert counts.tolist() == [1, 0]
        assert loss_sums.tolist() == pytest.approx([0.25, 0.0], abs=1e-15)

    def test_two_domain_averages(self):
        # domain 0: 2 samples with average loss 0.5; domain 1: 4 samples, average 1.0
        a = np.sqrt(0.5)
        ds = _client([[a, a], [1.0, 1.0, 1.0, 1.0]])
        counts, loss_sums = _stats(np.array([0.0]), ds, 2)
        assert counts.tolist() == [2, 4]
        assert loss_sums[0] == pytest.approx(1.0, rel=1e-12)
        assert loss_sums[1] == pytest.approx(4.0, rel=1e-12)

    def test_three_samples_same_loss(self):
        # scalar model at w=0; x = sqrt(0.2) gives loss exactly 0.2
        x = math.sqrt(0.2)
        counts, loss_sums = _stats(np.array([0.0]), _client([[x, x, x]]), 1)
        assert counts.tolist() == [3]
        assert loss_sums[0] == pytest.approx(0.6, abs=1e-12)

    def test_empty_domain(self):
        counts, loss_sums = _stats(np.array([0.0]), _client([[1.0]]), 2)
        assert counts[1] == 0
        assert loss_sums[1] == 0.0

    def test_domain_sums_cover_total(self):
        ds = _random_client(make_rng(5), n=10)
        w = np.array([0.3])
        counts, loss_sums = _stats(w, ds, 3)
        xb = np.column_stack([ds.feature_matrix, np.ones(len(ds))])
        total = float(batch_losses(SCALAR, w, xb, ds.labels).sum())
        assert counts.tolist() == [3, 3, 4]
        assert float(loss_sums.sum()) == pytest.approx(total, rel=1e-12)


class TestClientUpdateExamples:
    def test_hand_computed_single_step(self):
        # one sample x=1 in domain 0, full batch, one epoch:
        # w <- 0 - 0.1 * (2 * (0 - 1) * 1 / 1) = 0.2
        ds = _client([[1.0], []])
        cfg = LocalSGDConfig(epochs=1, batch_size=8, learning_rate=0.1)
        w, beta = _update(np.array([0.0]), np.array([1.0, 0.0]), ds, cfg, 0)
        assert beta == 1.0
        assert w[0] == pytest.approx(0.2, abs=1e-15)

    def test_zero_alpha_is_skip_signal(self):
        ds = _client([[1.0], []])
        cfg = LocalSGDConfig(1, 8, 0.1)
        w, beta = _update(np.array([0.3]), np.array([0.0, 1.0]), ds, cfg, 0)
        assert beta == 0.0
        assert np.array_equal(w, np.array([0.3]))

    def test_two_domains_weighted_gradient(self):
        # x0=1 (domain 0, alpha 2), x1=2 (domain 1, alpha 1), beta = 3
        # full-batch grad = (2*2*(0-1) + 1*2*(0-2)) / 3 = -8/3
        ds = _client([[1.0], [2.0]])
        cfg = LocalSGDConfig(1, 8, 0.1)
        w, beta = _update(np.array([0.0]), np.array([2.0, 1.0]), ds, cfg, 0)
        assert beta == pytest.approx(3.0)
        assert w[0] == pytest.approx(0.1 * 8.0 / 3.0, rel=1e-15)


_SEGMENT_LENGTHS = st.one_of(
    st.lists(st.integers(0, 20), max_size=30),
    st.lists(st.integers(0, 7), min_size=1, max_size=30),
    st.lists(st.integers(8, 20), min_size=1, max_size=30),
    st.lists(st.integers(4, 9), min_size=2, max_size=30),  # around the split
    st.lists(st.sampled_from([0, 0, 0, 0, 0, 1, 3, 9]), max_size=30),
)


@st.composite
def _segments(draw):
    """Segment lengths, and values of one magnitude from 1e-300 to 1e300.

    Values of one magnitude with random mantissas make the bits of a sum
    depend on the order of its additions; a share of them, up to all,
    are replaced by signed zeros and infinities.
    """
    lengths = np.array(draw(_SEGMENT_LENGTHS), dtype=np.int64)
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(lengths.sum())
    values = rng.uniform(-2.0, 2.0, n) * 10.0 ** draw(st.integers(-300, 300))
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    values[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], int(special.sum()))
    return lengths, values


class TestSegmentSums:
    @settings(max_examples=300, deadline=None)
    @given(_segments())
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_bits_equal_each_segment_sum(self, case):
        lengths, values = case
        segments = np.split(values, np.cumsum(lengths)[:-1]) if lengths.size else []
        expected = np.array([seg.sum() for seg in segments], dtype=np.float64)
        got = _segment_sums(values, lengths)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestBetas:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda p: hnp.arrays(
               np.float64, p, elements=st.one_of(st.just(0.0), st.floats(1e-9, 1e3)))),
           st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_one_call_equals_per_client_dot(self, alpha, m, key):
        # np.dot rounds like a fused multiply-add, and the cohort's betas
        # keep its last bit; an unpopulated domain gives a zero alpha
        counts = make_rng(key).integers(0, 1000, size=(m, alpha.shape[0]))
        expected = np.array([float(np.dot(alpha, row)) for row in counts])
        assert _betas(alpha, counts).tobytes() == expected.tobytes()


class TestClientUpdateProperties:
    def test_alpha_scale_cancellation(self):
        rng = make_rng(3)
        ds = _random_client(rng)
        cfg = LocalSGDConfig(1, 100, 0.05)  # full batch
        alpha = np.array([0.2, 0.5, 0.3])
        base_w, base_beta = _update(np.array([0.1]), alpha, ds, cfg, 9)
        for c in (2.0, 17.5, 1e-3):
            w, beta = _update(np.array([0.1]), c * alpha, ds, cfg, 9)
            assert np.allclose(w, base_w, rtol=0, atol=1e-12)
            assert beta == pytest.approx(c * base_beta, rel=1e-12)

    def test_p1_reduces_to_unweighted_local_training(self):
        rng = make_rng(4)
        ds = _random_client(rng, n=10, p=1)
        cfg = LocalSGDConfig(epochs=3, batch_size=4, learning_rate=0.05)
        n_total = 40  # pretend cohort-wide count
        afa, _ = _update(np.array([0.2]), np.array([1.0 / n_total]), ds, cfg, 5)
        plain, _ = _update(np.array([0.2]), np.array([1.0]), ds, cfg, 5)
        assert np.allclose(afa, plain, rtol=0, atol=1e-12)

    def test_deterministic_in_all_arguments(self):
        rng = make_rng(9)
        ds = _random_client(rng)
        cfg = LocalSGDConfig(3, 4, 0.1)
        alpha = np.array([1.0, 0.5, 2.0])
        args = (np.array([0.5]), alpha, ds, cfg, 1234)
        a_w, a_beta = _update(*args)
        b_w, b_beta = _update(*args)
        assert np.array_equal(a_w, b_w)
        assert a_beta == b_beta
        # beta is exactly the alpha-weighted count sum
        assert a_beta == float(alpha @ np.bincount(ds.domains, minlength=3))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergent_training_surfaces_numeric_error(self):
        rng = make_rng(12)
        ds = _random_client(rng)
        cfg = LocalSGDConfig(epochs=2000, batch_size=100, learning_rate=1e150)
        with pytest.raises(NumericError):
            _update(np.array([1.0]), np.ones(3), ds, cfg, 0)

    def test_seed_changes_minibatch_trajectory(self):
        rng = make_rng(10)
        ds = _random_client(rng, n=16)
        cfg = LocalSGDConfig(2, 3, 0.1)
        a, _ = _update(np.array([0.5]), np.ones(3), ds, cfg, 1)
        b, _ = _update(np.array([0.5]), np.ones(3), ds, cfg, 2)
        # different shuffles visit minibatches in different orders
        assert not np.array_equal(a, b)
        # but a full-batch pass is shuffle-independent
        full = LocalSGDConfig(1, 100, 0.1)
        fa, _ = _update(np.array([0.5]), np.ones(3), ds, full, 1)
        fb, _ = _update(np.array([0.5]), np.ones(3), ds, full, 2)
        assert np.allclose(fa, fb, atol=0)


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


_KINDS = ("scalar-regression", "linear-regression", "logistic")


@st.composite
def _rounds(draw):
    """A cohort, its model and one round's inputs, for the reference check."""
    kind = draw(st.sampled_from(_KINDS))
    dim = 1 if kind == "scalar-regression" else draw(st.integers(1, 3))
    spec = ModelSpec(kind, input_dim=dim,
                     num_classes=draw(st.integers(2, 3)) if kind == "logistic" else 0)
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 25), min_size=1, max_size=6))
    # zero-weight domains make clients that hold only those skip (beta = 0)
    zero_domains = draw(st.sets(st.integers(0, p - 1), max_size=p))
    cfg = LocalSGDConfig(epochs=draw(st.integers(1, 3)),
                         batch_size=draw(st.integers(1, 30)), learning_rate=0.05)
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    clients = []
    for cid, n in enumerate(sizes):
        # some clients draw from one domain only, so skips are common
        domains = (np.full(n, rng.integers(0, p)) if rng.random() < 0.4
                   else rng.integers(0, p, size=n))
        labels = (rng.integers(0, spec.num_classes, size=n).astype(float)
                  if kind == "logistic" else rng.standard_normal(n))
        clients.append(ClientDataset(3 * cid + 1, rng.standard_normal((n, dim)),
                                     labels, domains))
    alpha = rng.uniform(0.1, 2.0, size=p)
    alpha[list(zero_domains)] = 0.0
    w = rng.standard_normal(spec.param_count)
    seed = int(rng.integers(0, 2**63))
    return spec, w, alpha, clients, p, cfg, seed


class TestCohortMatchesPerClientLoop:
    @settings(max_examples=200, deadline=None)
    @given(_rounds())
    def test_cohort_calls_match_reference(self, round_inputs):
        spec, w, alpha, clients, p, cfg, seed = round_inputs
        ref_counts, ref_loss_sums, ref_params, ref_betas = _reference_round_clients(
            spec, w, alpha, clients, p, cfg, seed)
        cohort = _cohort(clients, p)
        counts, loss_sums = compute_client_stats(spec, w, cohort)
        params, betas = client_update(spec, w, alpha, cohort, cfg, make_rng(seed))
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(betas == 0.0, ref_betas == 0.0)
        assert np.array_equal(betas, ref_betas)
        np.testing.assert_allclose(loss_sums, ref_loss_sums, rtol=1e-12, atol=0)
        np.testing.assert_allclose(params, ref_params, rtol=1e-12, atol=0)

    def test_ragged_cohort_with_skipped_client(self):
        # sizes 3, 7 and 12 with batch 5: 1, 2 and 3 steps, short last
        # minibatches of 3, 2 and 2 rows; the domain-1-only client skips
        rng = make_rng(21)
        clients = [ClientDataset(k, rng.standard_normal((n, 1)), rng.standard_normal(n), d)
                   for k, (n, d) in enumerate([(3, [0, 0, 0]), (7, [1] * 7),
                                               (12, [0, 1] * 6)])]
        alpha = np.array([0.5, 0.0])
        cfg = LocalSGDConfig(epochs=2, batch_size=5, learning_rate=0.1)
        w = np.array([0.4])
        cohort = _cohort(clients, 2)
        params, betas = client_update(SCALAR, w, alpha, cohort, cfg, make_rng(5))
        _, _, ref_params, ref_betas = _reference_round_clients(
            SCALAR, w, alpha, clients, 2, cfg, 5)
        assert betas.tolist() == [1.5, 0.0, 3.0]
        assert np.array_equal(params[1], w)
        assert np.array_equal(params, ref_params)
        assert np.array_equal(betas, ref_betas)

    def test_unmasked_sums_keep_pairwise_order(self):
        # 40 same-domain rows: a sequential sum differs from numpy's
        # pairwise one in the last bits, and the cohort must use the latter
        rng = make_rng(8)
        clients = [ClientDataset(k, rng.standard_normal((40, 1)),
                                 rng.standard_normal(40) * 10.0, np.zeros(40, dtype=np.int64))
                   for k in range(3)]
        w = np.array([0.1])
        _, loss_sums = compute_client_stats(SCALAR, w, _cohort(clients, 1))
        _, ref_loss_sums, _, _ = _reference_round_clients(
            SCALAR, w, np.ones(1), clients, 1, LocalSGDConfig(1, 1, 0.1), 0)
        assert np.array_equal(loss_sums, ref_loss_sums)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_one_diverging_client_fails_the_cohort(self):
        rng = make_rng(13)
        calm = ClientDataset(0, np.zeros((4, 1)), np.zeros(4), np.zeros(4))
        wild = ClientDataset(1, rng.standard_normal((4, 1)), 1e200 * rng.standard_normal(4),
                             np.zeros(4))
        cfg = LocalSGDConfig(epochs=50, batch_size=4, learning_rate=1e150)
        with pytest.raises(NumericError):
            client_update(SCALAR, np.array([1.0]), np.ones(1), _cohort([calm, wild], 1),
                          cfg, make_rng(0))
