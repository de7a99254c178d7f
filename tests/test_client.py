"""Client-side round work: stats computation and weighted local SGD.

Both requests run over a whole cohort at once; most tests here use a
cohort of one client. ``_reference_round_clients`` keeps the per-client
loop they replaced, and the cohort path must agree with it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import agfed.client
from agfed.client import (
    _LEFT_TO_RIGHT,
    _TAGS,
    LocalSGDConfig,
    _betas,
    _minibatch_order,
    _schedule,
    client_update,
    compute_client_stats,
)
from agfed.core import Cohort, InvalidArgument, _row_layout, make_rng
from agfed.models import ModelSpec, batch_losses, grad_weighted
from pooling import pool

SCALAR = ModelSpec("scalar-regression")


def _client(points_by_domain, client_id=0):
    """1-D client whose samples have label == feature, grouped by domain."""
    xs = [x for points in points_by_domain for x in points]
    domains = [dom for dom, points in enumerate(points_by_domain) for _ in points]
    return client_id, np.array(xs).reshape(-1, 1), xs, domains


def _random_client(rng, n=12, p=3):
    return 0, rng.standard_normal((n, 1)), rng.standard_normal(n), rng.integers(0, p, size=n)


def _cohort(clients, p):
    """All of the clients, in the given order, as one round's cohort."""
    return Cohort.gather(pool(clients, p), np.arange(len(clients)))


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
    offsets = np.cumsum([0] + [len(y) for _, _, y, _ in clients])
    rng = make_rng(seed)
    epoch_keys = [rng.random(offsets[-1]) for _ in range(cfg.epochs)]
    counts, loss_sums, params, betas = [], [], [], []
    for k, (_, features, y, domains) in enumerate(clients):
        x = np.column_stack([features, np.ones(len(y))])
        y, domains = np.asarray(y), np.asarray(domains)
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
                for start in range(0, len(y), cfg.batch_size):
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
        _, x, y, _ = ds
        xb = np.column_stack([x, np.ones(len(y))])
        total = float(batch_losses(SCALAR, w, xb, y).sum())
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


@st.composite
def _losses(draw, n):
    """``n`` values of one magnitude from 1e-300 to 1e300.

    Values of one magnitude with random mantissas make the bits of a sum
    depend on the order of its additions; a share of them, up to all,
    are replaced by signed zeros and infinities.
    """
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-2.0, 2.0, n) * 10.0 ** draw(st.integers(-300, 300))
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    values[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], int(special.sum()))
    return values


@st.composite
def _segmented_cohorts(draw, kind):
    """p, ragged clients of 1 to 40 rows, and a loss per cohort row.

    Each client draws its segment's length in every domain; ``kind`` says
    which segments hold more than ``_LEFT_TO_RIGHT`` rows: none
    ("short"), every populated one ("long"), or some ("mixed"). Those
    clients hold their rows in a random domain order. A "grouped" client
    holds each domain's rows in one run, in domain order, as a
    client-partition client does: every populated segment of the cohort
    is long and of one length. A "grouped-mixed" one holds them so too,
    in segments of at least two lengths, of which some are long.
    """
    p = draw(st.integers(1, 5))
    if kind == "grouped":
        length = draw(st.integers(_LEFT_TO_RIGHT + 1, 40 // p))
        segment = st.sampled_from([0, length])
    else:
        segment = {"short": st.integers(0, _LEFT_TO_RIGHT),
                   "long": st.just(0) | st.integers(_LEFT_TO_RIGHT + 1, 40 // p),
                   "mixed": st.integers(0, 40 // p),
                   "grouped-mixed": st.integers(0, 40 // p)}[kind]
    lengths = np.array(draw(st.lists(st.lists(segment, min_size=p, max_size=p).filter(any),
                                     min_size=1, max_size=6)))
    if kind == "mixed":
        assume((lengths > _LEFT_TO_RIGHT).any()
               and ((lengths > 0) & (lengths <= _LEFT_TO_RIGHT)).any())
    if kind == "grouped-mixed":
        assume((lengths > _LEFT_TO_RIGHT).any() and len(set(lengths.ravel().tolist()) - {0}) > 1)
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    clients = []
    for k, client_lengths in enumerate(lengths):
        domains = np.repeat(np.arange(p), client_lengths)
        if not kind.startswith("grouped"):
            domains = rng.permutation(domains)
        clients.append((k, np.zeros((domains.shape[0], 1)), np.zeros(domains.shape[0]),
                        domains))
    return p, clients, draw(_losses(int(lengths.sum())))


class TestLossSums:
    @pytest.mark.parametrize("kind", ["short", "long", "mixed", "grouped", "grouped-mixed"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_bits_equal_each_segment_sum(self, kind, data):
        p, clients, losses = data.draw(_segmented_cohorts(kind))
        cohort = _cohort(clients, p)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(agfed.client, "batch_losses", lambda spec, w, xb, y: losses)
            _, loss_sums = compute_client_stats(SCALAR, np.zeros(1), cohort)
        expected = []
        for start, stop in zip(cohort.offsets[:-1], cohort.offsets[1:]):
            domains = cohort.domains[start:stop]
            expected.append([losses[start:stop][domains == d].sum() for d in range(p)])
        assert loss_sums.tobytes() == np.array(expected, dtype=np.float64).tobytes()


class TestNumpySumOrder:
    """The numpy behaviour that the cohort's loss sums rest on."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, _LEFT_TO_RIGHT).flatmap(_losses))
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_short_sum_is_a_sequential_sum_from_positive_zero(self, values):
        accumulated = np.zeros(1)
        np.add.at(accumulated, np.zeros(values.shape[0], dtype=np.int64), values)
        assert accumulated[0].tobytes() == values.sum().tobytes()

    def test_eight_values_are_not_summed_in_sequence(self):
        draws = make_rng(3).uniform(-2.0, 2.0, (100, _LEFT_TO_RIGHT + 1))
        accumulated = np.zeros(100)
        np.add.at(accumulated, np.repeat(np.arange(100), draws.shape[1]), draws.ravel())
        assert accumulated.tolist() != [row.sum() for row in draws]


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
        assert a_beta == float(alpha @ np.bincount(ds[3], minlength=3))

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
        dict(epochs=1, batch_size=1, learning_rate=math.inf),
        dict(epochs=1, batch_size=1, learning_rate=math.nan),
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            LocalSGDConfig(**kwargs)


_KINDS = ("scalar-regression", "logistic")


def _round_inputs(kind, dim, classes, p, sizes, zero_domains, cfg, key):
    """A cohort of clients of the given sizes, its model and one round's inputs."""
    spec = ModelSpec(kind, input_dim=dim, num_classes=classes)
    rng = make_rng(key)
    clients = []
    for cid, n in enumerate(sizes):
        # some clients draw from one domain only, so skips are common
        domains = (np.full(n, rng.integers(0, p)) if rng.random() < 0.4
                   else rng.integers(0, p, size=n))
        labels = (rng.integers(0, spec.num_classes, size=n).astype(float)
                  if kind == "logistic" else rng.standard_normal(n))
        clients.append((3 * cid + 1, rng.standard_normal((n, dim)), labels, domains))
    alpha = rng.uniform(0.1, 2.0, size=p)
    alpha[list(zero_domains)] = 0.0
    w = rng.standard_normal(spec.param_count)
    seed = int(rng.integers(0, 2**63))
    return spec, w, alpha, clients, p, cfg, seed


@st.composite
def _rounds(draw):
    """A cohort, its model and one round's inputs, for the reference check."""
    kind = draw(st.sampled_from(_KINDS))
    dim = 1 if kind == "scalar-regression" else draw(st.integers(1, 3))
    classes = draw(st.integers(2, 3)) if kind == "logistic" else 0
    p = draw(st.integers(1, 4))
    # ragged sizes, or clients of one size, as in the shipped configs
    sizes = draw(st.one_of(
        st.lists(st.integers(1, 25), min_size=1, max_size=6),
        st.builds(lambda n, m: [n] * m, st.integers(1, 25), st.integers(1, 6))))
    # zero-weight domains make clients that hold only those skip (beta = 0)
    zero_domains = draw(st.sets(st.integers(0, p - 1), max_size=p))
    # a minibatch size that divides the first client's size, or any size
    divisors = [b for b in range(1, sizes[0] + 1) if sizes[0] % b == 0]
    cfg = LocalSGDConfig(epochs=draw(st.integers(1, 3)),
                         batch_size=draw(st.one_of(st.sampled_from(divisors),
                                                   st.integers(1, 30))),
                         learning_rate=0.05)
    return _round_inputs(kind, dim, classes, p, sizes, zero_domains, cfg,
                         draw(st.integers(0, 2**32 - 1)))


class TestCohortMatchesPerClientLoop:
    @settings(max_examples=200, deadline=None)
    @given(_rounds())
    # the scale configs' cohort shape: 2000 rows, each cohort row its own tag
    @example(_round_inputs("logistic", 2, 2, 2, [20] * 100, set(),
                           LocalSGDConfig(1, 20, 0.05), 31))
    # ragged, with padded slots and clients that skip
    @example(_round_inputs("logistic", 2, 3, 3, make_rng(32).integers(5, 31, 40).tolist(), {2},
                           LocalSGDConfig(2, 7, 0.05), 33))
    # more than _TAGS cohort rows, each client's slots tagged and offset after the sort
    @example(_round_inputs("scalar-regression", 1, 0, 2, [1500, 7, 700], set(),
                           LocalSGDConfig(1, 40, 0.05), 34))
    # a client of more than _TAGS rows: its keys are argsorted
    @example(_round_inputs("scalar-regression", 1, 0, 2, [2100, 30, 7], set(),
                           LocalSGDConfig(1, 50, 0.05), 35))
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
        clients = [(k, rng.standard_normal((n, 1)), rng.standard_normal(n), d)
                   for k, (n, d) in enumerate([(3, [0, 0, 0]), (7, [1] * 7),
                                               (12, [0, 1] * 6)])]
        alpha = np.array([0.5, 0.0])
        cfg = LocalSGDConfig(epochs=2, batch_size=5, learning_rate=0.1)
        # array_equal cannot tell -0.0 from 0.0, so the skipped row's
        # bytes are compared
        w = np.array([-0.0])
        cohort = _cohort(clients, 2)
        params, betas = client_update(SCALAR, w, alpha, cohort, cfg, make_rng(5))
        _, _, ref_params, ref_betas = _reference_round_clients(
            SCALAR, w, alpha, clients, 2, cfg, 5)
        assert betas.tolist() == [1.5, 0.0, 3.0]
        assert params[1].tobytes() == w.tobytes()
        assert np.array_equal(params, ref_params)
        assert np.array_equal(betas, ref_betas)

    def test_unmasked_sums_keep_pairwise_order(self):
        # 40 same-domain rows: a sequential sum differs from numpy's
        # pairwise one in the last bits, and the cohort must use the latter
        rng = make_rng(8)
        clients = [(k, rng.standard_normal((40, 1)), rng.standard_normal(40) * 10.0,
                    np.zeros(40, dtype=np.int64)) for k in range(3)]
        w = np.array([0.1])
        _, loss_sums = compute_client_stats(SCALAR, w, _cohort(clients, 1))
        _, ref_loss_sums, _, _ = _reference_round_clients(
            SCALAR, w, np.ones(1), clients, 1, LocalSGDConfig(1, 1, 0.1), 0)
        assert np.array_equal(loss_sums, ref_loss_sums)


def _layout_clients(sizes, domains, key):
    return [(k, make_rng(key + k).standard_normal((n, 1)),
             make_rng(key - k).standard_normal(n), d)
            for k, (n, d) in enumerate(zip(sizes, domains))]


class TestScheduleCache:
    @settings(max_examples=150, deadline=None)
    @given(_rounds())
    def test_cold_and_warm_caches_give_the_same_bits(self, round_inputs):
        spec, w, alpha, clients, p, cfg, seed = round_inputs
        population = pool(clients, p)
        members = np.arange(len(clients))
        results = []
        for clear in (True, False):
            if clear:
                _schedule.cache_clear()
                _row_layout.cache_clear()
            cohort = Cohort.gather(population, members)
            results.append(client_update(spec, w, alpha, cohort, cfg, make_rng(seed)))
        (cold_params, cold_betas), (warm_params, warm_betas) = results
        assert warm_params.tobytes() == cold_params.tobytes()
        assert warm_betas.tobytes() == cold_betas.tobytes()

    def test_cached_arrays_reject_writes(self):
        # sizes 3, 7 and 12 with batch 5: groups of some clients, and
        # padded slots
        schedule = _schedule(np.array([3, 7, 12], dtype=np.int64).tobytes(), 5)
        assert schedule.width == 5 and schedule.n_steps == 3
        arrays = [clients for _, clients, _ in schedule.groups
                  if isinstance(clients, np.ndarray)]
        assert arrays and schedule.filled is not None
        for arr in (*arrays, schedule.filled, schedule.tags):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_full_groups_and_filled_slots(self):
        # equal sizes that the minibatch divides: every group holds every
        # client and no slot is padded
        schedule = _schedule(np.array([6, 6, 6], dtype=np.int64).tobytes(), 3)
        assert schedule.filled is None
        assert schedule.groups == ((0, slice(None), 3), (1, slice(None), 3))
        # a short last minibatch pads slots, but its group still holds all
        schedule = _schedule(np.array([7, 7], dtype=np.int64).tobytes(), 3)
        assert schedule.filled.tolist() == [[True] * 7 + [False] * 2] * 2
        assert [clients for _, clients, _ in schedule.groups] == [slice(None)] * 3

    # sizes of each cohort's clients; domains of the first cohort's, then
    # of the second's: the schedule is keyed by the sizes, whoever skips
    @pytest.mark.parametrize("sizes, domains", [
        ([4, 4, 4], [[0] * 4, [0, 1] * 2, [1] * 4] * 2),     # equal sizes, one skips
        ([4, 4, 4], [[0] * 4, [0, 1] * 2, [0] * 4] * 2),     # every client trains
        ([3, 7, 12], [[0] * 3, [1] * 7, [0, 1] * 6] * 2),    # ragged, one skips
        # equal sizes, one skips, then none does
        ([4, 4, 4], [[0] * 4, [0, 1] * 2, [1] * 4, [0] * 4, [0, 1] * 2, [0] * 4]),
        # ragged, the middle client skips, then the first does
        ([3, 7, 12], [[0] * 3, [1] * 7, [0, 1] * 6, [1] * 3, [0] * 7, [0, 1] * 6]),
    ])
    def test_same_size_profile_builds_nothing(self, monkeypatch, sizes, domains):
        # only the first cohort may fill the caches
        _schedule.cache_clear()
        _row_layout.cache_clear()
        clients = _layout_clients(sizes + sizes, domains, key=30)
        population = pool(clients, 2)
        alpha = np.array([0.5, 0.0])
        cfg = LocalSGDConfig(epochs=2, batch_size=3, learning_rate=0.1)
        w = np.array([0.4])
        m = len(sizes)
        client_update(SCALAR, w, alpha, Cohort.gather(population, np.arange(m)), cfg,
                      make_rng(1))

        def fail(*args, **kwargs):
            raise AssertionError("schedule or layout rebuilt for a cached size profile")

        for name in ("repeat", "cumsum", "nonzero"):
            monkeypatch.setattr(np, name, fail)
        second = Cohort.gather(population, np.arange(m, 2 * m))
        params, betas = client_update(SCALAR, w, alpha, second, cfg, make_rng(2))
        monkeypatch.undo()
        _, _, ref_params, ref_betas = _reference_round_clients(
            SCALAR, w, alpha, clients[m:], 2, cfg, 2)
        assert np.array_equal(params, ref_params)
        assert np.array_equal(betas, ref_betas)


class TestRandomKeys:
    # client_update draws random_raw words and sorts by their high 53
    # bits, the bits Generator.random keeps; the order it makes is the
    # order of random's keys only while this holds
    @pytest.mark.parametrize("parts", [(0,), (1,), (42, 3), (2**64 - 1, 7, 11), (-5,)])
    def test_random_keeps_the_high_53_bits_of_each_raw_word(self, parts):
        keyed, raw = make_rng(*parts), make_rng(*parts)
        for n in (1, 7, 2000):
            keys = keyed.random(n)
            words = raw.bit_generator.random_raw(n)
            assert keys.tobytes() == ((words >> 11) * 2.0**-53).tobytes()
            assert keyed.bit_generator.state == raw.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(_rounds())
    def test_update_draws_one_word_per_row_per_epoch(self, round_inputs):
        spec, w, alpha, clients, p, cfg, seed = round_inputs
        cohort = _cohort(clients, p)
        rng, expected = make_rng(seed), make_rng(seed)
        _, betas = client_update(spec, w, alpha, cohort, cfg, rng)
        # a round in which every client skips draws nothing
        if (betas != 0.0).any():
            expected.random(cohort.owners.shape[0] * cfg.epochs)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_update_draws_nothing_when_every_client_skips(self):
        rng = make_rng(40)
        clients = [(k, rng.standard_normal((n, 1)), rng.standard_normal(n), [1] * n)
                   for k, n in enumerate([3, 9, 4])]
        state = rng.bit_generator.state
        params, betas = client_update(SCALAR, np.array([0.3]), np.array([1.0, 0.0]),
                                      _cohort(clients, 2), LocalSGDConfig(2, 2, 0.1), rng)
        assert not betas.any() and (params == 0.3).all()
        assert rng.bit_generator.state == state


class TestMinibatchOrder:
    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 30) | st.integers(1, _TAGS + 1), min_size=1, max_size=5),
           batch_size=st.integers(1, 40) | st.integers(1, 3000),
           key=st.integers(0, 2**32 - 1),
           distinct=st.sampled_from([1, 2, 5, 2**53]),
           all_ones=st.sampled_from([0.0, 0.1, 1.0]))
    # a client of _TAGS rows, in 3000 slots, alone and in a cohort of
    # _TAGS + 1 rows; a cohort of _TAGS rows; a client of _TAGS + 1 rows,
    # alone and beside a padded one
    @example(sizes=[_TAGS], batch_size=1000, key=1, distinct=2, all_ones=0.1)
    @example(sizes=[_TAGS, 1], batch_size=_TAGS, key=2, distinct=1, all_ones=0.1)
    @example(sizes=[_TAGS - 1, 1], batch_size=7, key=3, distinct=5, all_ones=0.1)
    @example(sizes=[_TAGS + 1], batch_size=1000, key=4, distinct=2, all_ones=0.1)
    @example(sizes=[3, _TAGS + 1], batch_size=_TAGS + 1, key=5, distinct=1, all_ones=1.0)
    def test_each_client_in_the_stable_order_of_its_keys(self, sizes, batch_size, key,
                                                          distinct, all_ones):
        # words tie in their high 53 bits when drawn from few values, and
        # sit at 2**64 - 1, where a padding word sits too
        rng = make_rng(key)
        n = sum(sizes)
        highs = rng.integers(0, 2**53, size=min(distinct, n), dtype=np.uint64)
        highs[-1] = 2**53 - 1
        raw = highs[rng.integers(0, highs.shape[0], size=n)] << np.uint64(11)
        raw |= rng.integers(0, _TAGS, size=n, dtype=np.uint64)
        raw[rng.random(n) < all_ones] = 2**64 - 1
        schedule = _schedule(np.array(sizes, dtype=np.int64).tobytes(), batch_size)
        starts = (np.cumsum(sizes) - sizes)[:, None]
        order = _minibatch_order(raw.copy(), schedule, starts)
        assert order.shape == (len(sizes), schedule.n_steps * schedule.width)
        start = 0
        for k, size in enumerate(sizes):
            keys = (raw[start:start + size] >> 11) * 2.0**-53
            expected = start + np.argsort(keys, kind="stable")
            assert order[k, :size].tolist() == expected.tolist()
            start += size
