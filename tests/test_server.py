"""Server-side math and round orchestration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agfed.client
import agfed.core
import agfed.server
from agfed.client import LocalSGDConfig, compute_client_stats
from agfed.core import (
    Cohort,
    InvalidArgument,
    NumericError,
    Population,
    make_rng,
    mixture_uniform,
)
from agfed.models import ModelSpec, batch_losses, check_batch, check_labels
from agfed.secagg import PairwiseSeeds, SecureSum
from agfed.server import (
    AggregationSettings,
    AlgorithmConfig,
    DegenerateRound,
    ServerState,
    aggregate_params,
    cohort_sum,
    comm_cost_per_round,
    compute_scaling,
    effective_counts,
    initial_state,
    lambda_update_eg,
    lambda_update_projected_sgd,
    project_simplex,
    run_round,
    run_streams,
)
from agfed.tasks import (
    TaskConfig,
    gen_synthetic_classification,
    gen_toy_regression,
    model_spec_for,
)
from pooling import pool

SCALAR = ModelSpec("scalar-regression")


def _toy(p=5, centers=(-2.0, -1.0, 0.0, 1.0, 2.0), seed=42, num_clients=50):
    cfg = TaskConfig(kind="toy-regression", p=p, num_clients=num_clients, seed=seed,
                     partition="data-partition", centers=centers)
    return gen_toy_regression(cfg)[0]


def _algo(**kwargs):
    defaults = dict(algorithm="afa", lambda_update="eg", scaling_mode="two-phase-exact",
                    clients_per_round=10, rounds=5, lambda_lr=0.01, window_len=10,
                    local=LocalSGDConfig(1, 50, 0.1))
    defaults.update(kwargs)
    return AlgorithmConfig(**defaults)


class TestComputeScaling:
    def test_zero_rule(self):
        alpha = compute_scaling(np.array([0.5, 0.5]), np.array([10.0, 0.0]))
        assert alpha.tolist() == [0.05, 0.0]

    def test_single_ratio(self):
        assert compute_scaling(np.array([1.0]), np.array([4.0])).tolist() == [0.25]

    def test_uniform_symmetry(self):
        alpha = compute_scaling(mixture_uniform(4), np.full(4, 7.0))
        assert len(set(alpha.tolist())) == 1



class TestEffectiveCounts:
    def _state(self, window=()):
        return ServerState(len(window), np.zeros(1), mixture_uniform(2),
                           tuple(window), 0)

    def test_windowed_mean(self):
        state = self._state([np.array([4, 0]), np.array([2, 2])])
        assert effective_counts(state, "windowed").tolist() == [3.0, 1.0]

    def test_two_phase_passthrough(self):
        out = effective_counts(self._state(), "two-phase-exact", np.array([7, 3]))
        assert out.tolist() == [7.0, 3.0]

    def test_empty_window_gives_zeros_hence_zero_alpha(self):
        state = self._state()
        eff = effective_counts(state, "windowed")
        assert eff.tolist() == [0.0, 0.0]
        assert compute_scaling(state.lam, eff).tolist() == [0.0, 0.0]

    def test_mode_argument_mismatch(self):
        with pytest.raises(InvalidArgument):
            effective_counts(self._state(), "two-phase-exact", None)
        with pytest.raises(InvalidArgument):
            effective_counts(self._state(), "windowed", np.array([1, 2]))


def _rows(*clients):
    """The (m x P) params and (m,) betas of (params, beta) pairs."""
    params = np.array([w for w, _ in clients], dtype=np.float64)
    return params, np.array([beta for _, beta in clients], dtype=np.float64)


class TestPlainCohortSum:
    @pytest.mark.parametrize("m, length", [(1, 1), (13, 1), (10, 2), (100, 7)])
    def test_matches_in_order_loop_from_zeros_bit_for_bit(self, m, length):
        rng = make_rng(m, length)
        vectors = rng.standard_normal((m, length)) * 10.0 ** rng.uniform(-3, 3, (m, length))
        vectors[:, -1] = -0.0
        # repeated 0.1s round differently when summed pairwise, as numpy
        # sums a single column (so with L = 1 it replaces the -0.0 column)
        vectors[:, 0] = 0.1
        vectors[m // 2] = -0.0
        expected = np.zeros(length)
        for v in vectors:
            expected = expected + v
        out = cohort_sum(vectors, None, 20)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _per_client_masked_sum(vectors, mask_rng, scale_bits):
    """The masked cohort sum as one 1-row ``submit`` per client, in rank order."""
    seeds = PairwiseSeeds.generate(vectors.shape[0], mask_rng)
    collector = SecureSum(seeds, vectors.shape[1], scale_bits=scale_bits)
    for rank, v in enumerate(vectors):
        collector.submit(np.array([rank]), v[None])
    return collector.aggregate()


class TestMaskedCohortSum:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 8), st.integers(16, 24), st.booleans(),
           st.integers(0, 2**31 - 1))
    def test_matches_per_client_submits_within_fixed_point_bound(
            self, m, length, scale_bits, integer, key):
        rng = make_rng(key)
        if integer:
            vectors = rng.integers(-1000, 1000, size=(m, length)).astype(np.float64)
        else:
            vectors = rng.uniform(-1e3, 1e3, size=(m, length))
        out = cohort_sum(vectors, make_rng(key, 1), scale_bits)
        expected = _per_client_masked_sum(vectors, make_rng(key, 1), scale_bits)
        assert out.tobytes() == expected.tobytes()
        plain = cohort_sum(vectors, None, scale_bits)
        if integer:
            assert np.array_equal(out, plain)
        else:
            assert np.all(np.abs(out - plain) <= m / (2.0 * 2 ** scale_bits))


class TestAggregateParams:
    def test_weighted_mean(self):
        out = aggregate_params(*_rows(([0.0], 1.0), ([4.0], 3.0)))
        assert out.tolist() == [3.0]

    def test_single_client_identity(self):
        out = aggregate_params(*_rows(([1.5, -2.0], 2.0)))
        assert out.tolist() == [1.5, -2.0]

    def test_equal_weights_opposite_params_cancel(self):
        out = aggregate_params(*_rows(([3.0, -1.0], 2.0), ([-3.0, 1.0], 2.0)))
        assert out.tolist() == [0.0, 0.0]

    def test_zero_total_weight_degenerate(self):
        with pytest.raises(DegenerateRound):
            aggregate_params(*_rows(([1.0], 0.0), ([2.0], 0.0)))

    def test_skipped_clients_ignored(self):
        out = aggregate_params(*_rows(([9.0], 0.0), ([4.0], 2.0)))
        assert out.tolist() == [4.0]

    def test_masked_matches_plain_within_quantization(self):
        # betas on the fixed-point grid make the masked total beta exact, so
        # the only error is the n/(2*scale) of the sum of beta*w, over total beta
        rng = make_rng(11)
        betas = rng.integers(0, 9, size=7) / 16
        params = rng.uniform(-5, 5, size=(7, 3))
        plain = aggregate_params(params, betas)
        masked = aggregate_params(params, betas, make_rng(12), 20)
        bound = len(betas) / (2.0 * 2 ** 20) / betas.sum()
        assert np.all(np.abs(masked - plain) <= bound)

    def test_masked_zero_total_weight_degenerate(self):
        with pytest.raises(DegenerateRound):
            aggregate_params(*_rows(([1.0], 0.0), ([2.0], 0.0)), make_rng(3))


class TestExponentiatedGradient:
    def test_zero_losses_leave_lambda_unchanged(self):
        lam = np.array([0.3, 0.7])
        out = lambda_update_eg(lam, np.zeros(2), 0.5)
        assert np.allclose(out, lam, atol=1e-15)

    def test_closed_form_example(self):
        # lam' = (0.5 * 4, 0.5 * 1) -> normalized (0.8, 0.2)
        out = lambda_update_eg(np.array([0.5, 0.5]), np.array([math.log(4), 0.0]), 1.0)
        assert np.allclose(out, [0.8, 0.2], atol=1e-12)

    def test_output_on_simplex(self):
        rng = make_rng(2)
        for _ in range(200):
            p = int(rng.integers(1, 6))
            lam = rng.dirichlet(np.ones(p))
            losses = rng.uniform(-50, 50, p)
            out = lambda_update_eg(lam, losses, float(rng.uniform(0.001, 2.0)))
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0)

    def test_worst_domain_gains_share(self):
        lam = np.array([0.3, 0.3, 0.4])
        out = lambda_update_eg(lam, np.array([1.0, 2.0, 0.5]), 0.7)
        assert out[1] > lam[1]

    def test_shift_invariance_exact(self):
        # dyadic losses and shift: every sum is exactly representable,
        # so the max-subtracted update is bitwise identical
        rng = make_rng(3)
        for _ in range(100):
            p = int(rng.integers(2, 6))
            lam = rng.dirichlet(np.ones(p))
            losses = rng.integers(-(2 ** 20), 2 ** 20, p) / (2.0 ** 10)
            shift = float(rng.integers(-(2 ** 20), 2 ** 20)) / (2.0 ** 10)
            base = lambda_update_eg(lam, losses, 0.37)
            shifted = lambda_update_eg(lam, losses + shift, 0.37)
            assert np.array_equal(base, shifted)


def _project_oracle(v):
    """Exact QP by active-set enumeration (independent of sort-threshold)."""
    n = len(v)
    best, best_dist = None, np.inf
    for mask in range(1, 2 ** n):
        support = [i for i in range(n) if mask >> i & 1]
        theta = (sum(v[i] for i in support) - 1.0) / len(support)
        x = np.zeros(n)
        feasible = True
        for i in support:
            x[i] = v[i] - theta
            if x[i] < -1e-12:
                feasible = False
                break
        if not feasible:
            continue
        x = np.maximum(x, 0.0)
        dist = float(np.sum((x - v) ** 2))
        if dist < best_dist:
            best, best_dist = x, dist
    return best


class TestSimplexProjection:
    def test_symmetric_point(self):
        assert np.allclose(project_simplex(np.array([0.6, 0.6])), [0.5, 0.5], atol=1e-15)

    def test_boundary_threshold(self):
        assert np.allclose(project_simplex(np.array([1.2, -0.2])), [1.0, 0.0], atol=1e-15)

    def test_identity_on_simplex_points(self):
        for v in ([1.0], [0.25, 0.75], [0.5, 0.0, 0.5]):
            arr = np.array(v)
            assert np.array_equal(project_simplex(arr), arr)

    def test_idempotent(self):
        rng = make_rng(4)
        for _ in range(100):
            v = rng.uniform(-2, 2, int(rng.integers(1, 5)))
            once = project_simplex(v)
            assert np.allclose(project_simplex(once), once, atol=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = make_rng(5)
        for _ in range(300):
            p = int(rng.integers(1, 4))
            v = rng.uniform(-2, 2, p)
            assert np.allclose(project_simplex(v), _project_oracle(v), atol=1e-8)

    def test_lost_unit_sum_raises_numeric_error(self):
        # next to entries near 1e16 the 1 in u + (1 - css) / j rounds away,
        # so no index passes the threshold test; entries near 1e15 are
        # spaced 0.125 to 0.5 apart, so some pass, but what is left above
        # theta sums to 1.5 or 1.25
        for v in ([1.2e16, 1.1e16, 0.0], [4e15, 4e15 - 0.5], [1e15 + 0.125, 1e15, 1e15]):
            with pytest.raises(NumericError, match="lost precision"):
                project_simplex(np.array(v))
        assert np.array_equal(project_simplex(np.array([1.2e12, 0.0])), [1.0, 0.0])

    def test_projected_sgd_examples(self):
        out = lambda_update_projected_sgd(np.array([0.5, 0.5]),
                                          np.array([0.2, 0.2]), 0.5)
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)
        out = lambda_update_projected_sgd(np.array([0.9, 0.1]),
                                          np.array([1.0, 0.0]), 0.3)
        assert abs(out.sum() - 1.0) <= 1e-12 and np.all(out >= 0)
        assert out[0] > 0.9  # ascent on the lossier domain

    def test_projected_sgd_on_simplex_fuzz(self):
        rng = make_rng(6)
        for _ in range(200):
            p = int(rng.integers(1, 6))
            lam = rng.dirichlet(np.ones(p))
            out = lambda_update_projected_sgd(lam, rng.uniform(-20, 20, p),
                                              float(rng.uniform(0.001, 1.0)))
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0)


class TestCommCost:
    def test_paper_scale_example(self):
        assert comm_cost_per_round("fedavg", 50, 4_000_000, 2) == 400_000_000
        assert comm_cost_per_round("afa", 50, 4_000_000, 2) == 400_000_400

    def test_fuzzed_formula(self):
        rng = make_rng(7)
        for _ in range(200):
            c = int(rng.integers(1, 1000))
            w = int(rng.integers(1, 10 ** 7))
            p = int(rng.integers(1, 50))
            assert comm_cost_per_round("fedavg", c, w, p) == 2 * c * w
            assert comm_cost_per_round("afa", c, w, p) == 2 * c * w + 4 * c * p


class TestRoundGenerators:
    @pytest.mark.parametrize("seed", [0, 42, 2**40, -3])
    def test_streams_keyed_by_seed_and_tag(self, seed):
        # 2**40 and -3 are seeds of two words
        streams = run_streams(seed)
        for stream, tag in zip(streams, (1, 2, 4)):
            assert np.array_equal(stream.bit_generator.random_raw(8),
                                  make_rng(seed, tag).bit_generator.random_raw(8))

    def test_round_seeds_no_generator_of_its_own(self, monkeypatch):
        # every draw of a round comes from the run's streams
        def refuse(*parts):
            raise AssertionError("a round seeded a generator of its own")

        streams = run_streams(1)
        for owner in (agfed.server, agfed.client):
            monkeypatch.setattr(owner, "make_rng", refuse)
        monkeypatch.setattr(agfed.server, "derive_seed", refuse)
        both = AggregationSettings(mask_stats=True, mask_params=True)
        state = initial_state(np.array([1.5]), 5)
        for _ in range(2):
            state, _ = run_round(state, _algo(), SCALAR, _toy(), streams, settings=both)


class TestRunRound:
    def test_afa_p1_equals_fedavg(self):
        clients = _toy(p=1, centers=(0.0,), num_clients=20)
        cfg_afa = _algo(clients_per_round=5)
        cfg_fed = _algo(algorithm="fedavg", clients_per_round=5)
        sa = initial_state(np.array([1.0]), 1)
        sf = initial_state(np.array([1.0]), 1)
        streams_a, streams_f = run_streams(9), run_streams(9)
        for _ in range(6):
            sa, ra = run_round(sa, cfg_afa, SCALAR, clients, streams_a)
            sf, rf = run_round(sf, cfg_fed, SCALAR, clients, streams_f)
            assert np.all(np.abs(sa.w - sf.w) <= 1e-12)
            assert ra.lam == (1.0,)

    def test_round_one_identity_plain_stats(self):
        # beta-weighted average of client objectives == sum_i lambda_i L_i
        clients = _toy()
        cfg = _algo(clients_per_round=50)  # whole population: cohort is known
        state = initial_state(np.array([1.5]), 5)
        plain = AggregationSettings(mask_stats=False, mask_params=False)
        _, report = run_round(state, cfg, SCALAR, clients, run_streams(3), settings=plain)

        client_counts, client_loss_sums = compute_client_stats(
            SCALAR, state.w, Cohort.gather(clients, np.arange(len(clients))))
        counts = client_counts.sum(axis=0)
        alpha = compute_scaling(state.lam, counts.astype(float))
        lhs_num = lhs_den = 0.0
        for n_k, l_k in zip(client_counts, client_loss_sums):
            beta = float(alpha @ n_k)
            if beta > 0:
                objective = float(alpha @ l_k) / beta
                lhs_num += beta * objective
                lhs_den += beta
        lhs = lhs_num / lhs_den
        rhs = float(np.dot(state.lam, report.per_domain_loss))
        assert abs(lhs - rhs) / abs(rhs) <= 1e-9

    def test_round_one_identity_masked_within_quantization(self):
        clients = _toy()
        cfg = _algo(clients_per_round=50)
        state = initial_state(np.array([1.5]), 5)
        masked = AggregationSettings(mask_stats=True)
        _, report = run_round(state, cfg, SCALAR, clients, run_streams(3), settings=masked)

        client_counts, client_loss_sums = compute_client_stats(
            SCALAR, state.w, Cohort.gather(clients, np.arange(len(clients))))
        counts = client_counts.sum(axis=0)
        alpha = compute_scaling(state.lam, counts.astype(float))
        lhs_num = lhs_den = 0.0
        for n_k, l_k in zip(client_counts, client_loss_sums):
            beta = float(alpha @ n_k)
            if beta > 0:
                lhs_num += float(alpha @ l_k)
                lhs_den += beta
        lhs = lhs_num / lhs_den
        rhs = float(np.dot(state.lam, report.per_domain_loss))
        quant = 50 / (2.0 * 2 ** 20)  # per-coordinate loss-sum error bound
        bound = float(np.dot(state.lam, quant / np.maximum(counts, 1))) + 1e-9
        assert abs(lhs - rhs) <= bound

    def test_overflowing_plain_stats_sum_raises(self):
        # each client's loss sum (1e308) is finite; their plain sum is not,
        # and a caller's errstate does not silence the round's fault
        clients = pool([(k, np.zeros((1, 1)), [1e154], [0]) for k in range(2)], 1)
        plain = AggregationSettings(mask_stats=False)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^round 1: overflow encountered in accumulate$"):
            run_round(initial_state(np.array([0.0]), 1), _algo(algorithm="fedavg",
                      clients_per_round=2), SCALAR, clients, run_streams(1), settings=plain)

    @pytest.mark.parametrize("rows", [2, 8, 9])
    def test_overflowing_client_loss_sum_raises(self, rows):
        # each loss (1.44e308) is finite; the sum of the wild client's one
        # segment is not. Its 2 rows take np.add.at, 8 or 9 the sorted
        # pairwise sum; np.bincount would return inf and fail later
        calm = (0, np.zeros((1, 1)), [0.0], [0])
        wild = (1, np.zeros((rows, 1)), [1.2e154, -1.2e154] * (rows // 2) + [1.2e154] * (rows % 2),
                [0] * rows)
        plain = AggregationSettings(mask_stats=False)
        with pytest.raises(NumericError, match="^round 1: overflow encountered in "):
            run_round(initial_state(np.array([0.0]), 1), _algo(clients_per_round=2), SCALAR,
                      pool([calm, wild], 1), run_streams(1), settings=plain)

    def test_divergent_local_sgd_names_the_round(self):
        # round 1 trains calmly; round 2's step size drives local SGD past
        # float64's range
        clients, streams = _toy(), run_streams(1)
        state, _ = run_round(initial_state(np.array([1.5]), 5), _algo(), SCALAR, clients,
                             streams)
        wild = _algo(local=LocalSGDConfig(epochs=50, batch_size=4, learning_rate=1e150))
        with pytest.raises(NumericError, match="^round 2: overflow encountered in "):
            run_round(state, wild, SCALAR, clients, streams)

    def test_one_diverging_client_fails_the_round(self):
        # the calm client sits at its optimum and never moves; the wild
        # one's finite labels make its steps overflow
        rng = make_rng(13)
        calm = (0, np.zeros((4, 1)), np.ones(4), np.zeros(4))
        wild = (1, rng.standard_normal((4, 1)), 1e5 * rng.standard_normal(4), np.zeros(4))
        population = pool([calm, wild], 1)
        cfg = _algo(algorithm="fedavg", clients_per_round=2,
                    local=LocalSGDConfig(epochs=50, batch_size=4, learning_rate=1e150))
        with pytest.raises(NumericError, match="^round 1: overflow encountered in "):
            run_round(initial_state(np.array([1.0]), 1), cfg, SCALAR, population, run_streams(0))

    def test_failed_round_restores_the_callers_errstate(self):
        clients = _toy()
        wild = _algo(local=LocalSGDConfig(epochs=50, batch_size=4, learning_rate=1e150))
        with np.errstate(over="warn", invalid="ignore", divide="print", under="raise"):
            before = np.geterr()
            with pytest.raises(NumericError):
                run_round(initial_state(np.array([1.5]), 5), wild, SCALAR, clients,
                          run_streams(1))
            assert np.geterr() == before

    def test_comm_counter_increments(self):
        clients, streams = _toy(), run_streams(1)
        state = initial_state(np.array([1.5]), 5)
        state, r1 = run_round(state, _algo(), SCALAR, clients, streams)
        assert r1.comm_params_cumulative == 2 * 10 * 1 + 4 * 10 * 5
        state, r2 = run_round(state, _algo(), SCALAR, clients, streams)
        assert r2.comm_params_cumulative == 2 * (2 * 10 * 1 + 4 * 10 * 5)
        fed_state = initial_state(np.array([1.5]), 5)
        fed_state, rf = run_round(fed_state, _algo(algorithm="fedavg"), SCALAR, clients,
                                  run_streams(1))
        assert rf.comm_params_cumulative == 2 * 10 * 1

    def test_windowed_round_one_is_pure_stats_gathering(self):
        clients = _toy()
        cfg = _algo(scaling_mode="windowed", window_len=3, clients_per_round=50)
        state, streams = initial_state(np.array([1.5]), 5), run_streams(4)
        state1, r1 = run_round(state, cfg, SCALAR, clients, streams)
        assert r1.degenerate
        assert np.array_equal(state1.w, state.w)
        assert np.array_equal(state1.lam, state.lam)
        assert len(state1.window) == 1  # counts seeded for the next round
        state2, r2 = run_round(state1, cfg, SCALAR, clients, streams)
        assert not r2.degenerate
        assert not np.array_equal(state2.w, state1.w)

    def test_window_holds_last_r_rounds(self):
        clients = _toy()
        cfg = _algo(scaling_mode="windowed", window_len=3, clients_per_round=50)
        state, streams = initial_state(np.array([1.5]), 5), run_streams(4)
        for t in range(6):
            state, _ = run_round(state, cfg, SCALAR, clients, streams)
            assert len(state.window) == min(t + 1, 3)
        # whole population selected every round: every entry is the full count
        full = clients.counts.sum(axis=0)
        for entry in state.window:
            assert np.array_equal(entry, full)
            assert not entry.flags.writeable  # the state is an immutable snapshot

    def test_lambda_stays_on_simplex_every_round(self):
        clients = _toy()
        for update in ("eg", "projected-sgd"):
            state, streams = initial_state(np.array([1.5]), 5), run_streams(8)
            cfg = _algo(lambda_update=update, lambda_lr=0.05)
            for _ in range(8):
                state, report = run_round(state, cfg, SCALAR, clients, streams)
                lam = np.array(report.lam)
                assert abs(lam.sum() - 1.0) <= 1e-12
                assert np.all(lam >= 0)

    def test_deterministic_report_sequence(self):
        clients = _toy()

        def trajectory():
            state, streams = initial_state(np.array([1.5]), 5), run_streams(77)
            out = []
            for _ in range(5):
                state, report = run_round(state, _algo(), SCALAR, clients, streams)
                out.append(report)
            return out

        assert trajectory() == trajectory()

    def test_population_too_small_rejected(self):
        clients = _toy(num_clients=5)
        with pytest.raises(InvalidArgument):
            run_round(initial_state(np.array([0.0]), 5), _algo(clients_per_round=10),
                      SCALAR, clients, run_streams(1))

    def test_single_client_full_batch_is_one_exact_gradient_step(self):
        # whole population on one client, E=1, full batch: centralized SGD step
        clients = _toy(p=1, centers=(0.5,), num_clients=1)
        cfg = _algo(algorithm="fedavg", clients_per_round=1,
                    local=LocalSGDConfig(1, 10_000, 0.2))
        state = initial_state(np.array([2.0]), 1)
        state, _ = run_round(state, cfg, SCALAR, clients, run_streams(5))
        xs = clients.y
        expected = 2.0 - 0.2 * float(np.sum(2.0 * (2.0 - xs))) / len(xs)
        assert state.w[0] == pytest.approx(expected, abs=1e-12)

    def test_worst_domain_loss_is_max_over_populated(self):
        clients = _toy()
        state = initial_state(np.array([1.5]), 5)
        _, report = run_round(state, _algo(clients_per_round=50), SCALAR, clients,
                              run_streams(2))
        assert report.worst_domain_loss == max(report.per_domain_loss)

    def test_losses_evaluated_once_per_client(self, monkeypatch):
        # one batch_losses call on the cohort's gathered rows, once a round
        calls = []

        def counting(*args):
            calls.append(args)
            return batch_losses(*args)

        monkeypatch.setattr(agfed.client, "batch_losses", counting)
        run_round(initial_state(np.array([1.5]), 5), _algo(clients_per_round=10),
                  SCALAR, _toy(), run_streams(1))
        assert len(calls) == 1
        assert calls[0][2].shape[0] == 10 * 10  # ten clients of ten rows each

    def test_lambda_validated_once_per_round(self, monkeypatch):
        # the next ServerState checks lambda; the helpers trust it
        state = initial_state(np.array([1.5]), 5)
        calls = []

        def counting(lam):
            calls.append(lam)
            return agfed.core.validate_mixture(lam)

        monkeypatch.setattr(agfed.server, "validate_mixture", counting)
        run_round(state, _algo(), SCALAR, _toy(), run_streams(1))
        assert len(calls) == 1

    def test_inputs_checked_once_per_client(self, monkeypatch):
        # one check_batch call covers every client's rows, once a round
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return check_batch(*args, **kwargs)

        monkeypatch.setattr(agfed.client, "check_batch", counting)
        run_round(initial_state(np.array([1.5]), 5), _algo(clients_per_round=10),
                  SCALAR, _toy(), run_streams(1))
        assert len(calls) == 1
        assert calls[0][2].shape[0] == 10 * 10

    def test_fractional_label_rejected_before_training(self, monkeypatch):
        task = TaskConfig(kind="synthetic-classification", p=2, num_clients=4, seed=3,
                          partition="client-partition", samples_per_client=5)
        generated = gen_synthetic_classification(task)
        labels = generated.y.copy()
        labels[-1] = 0.7
        population = Population(generated.x, labels, generated.domains, generated.offsets,
                                generated.client_ids, task.p)

        def no_training(*args):
            raise AssertionError("client_update ran on unchecked data")

        monkeypatch.setattr(agfed.server, "client_update", no_training)
        spec = model_spec_for(task)
        with pytest.raises(InvalidArgument):
            run_round(initial_state(np.zeros(spec.param_count), 2),
                      _algo(clients_per_round=4), spec, population, run_streams(1))

    def test_labels_checked_once_per_population_and_model(self, monkeypatch):
        # a population's labels never change: the first round that meets a
        # (population, model) pair checks all of them, later rounds trust them
        calls = []

        def counting(spec, y):
            calls.append((spec, y))
            return check_labels(spec, y)

        monkeypatch.setattr(agfed.server, "check_labels", counting)
        task = TaskConfig(kind="synthetic-classification", p=2, num_clients=6, seed=3,
                          partition="client-partition", samples_per_client=5)
        population = gen_synthetic_classification(task)
        spec = model_spec_for(task)
        state, streams = initial_state(np.zeros(spec.param_count), 2), run_streams(1)
        for _ in range(3):
            state, _ = run_round(state, _algo(clients_per_round=3), spec, population, streams)
        assert len(calls) == 1 and calls[0][1] is population.y
        wider = ModelSpec("logistic", spec.input_dim, spec.num_classes + 1)
        other = gen_synthetic_classification(task)
        for check_spec, check_population in ((wider, population), (spec, other)):
            run_round(initial_state(np.zeros(check_spec.param_count), 2),
                      _algo(clients_per_round=3), check_spec, check_population, run_streams(1))
        assert [(s, y is other.y) for s, y in calls[1:]] == [(wider, False), (spec, True)]

    def test_bad_label_outside_the_cohort_rejected(self):
        # the whole population is checked, not only the sampled clients
        task = TaskConfig(kind="synthetic-classification", p=2, num_clients=6, seed=3,
                          partition="client-partition", samples_per_client=5)
        generated = gen_synthetic_classification(task)
        picked = run_streams(1).sampling.choice(6, size=1, replace=False)[0]
        labels = generated.y.copy()
        labels[generated.offsets[(picked + 1) % 6]] = 2.0
        population = Population(generated.x, labels, generated.domains, generated.offsets,
                                generated.client_ids, task.p)
        spec = model_spec_for(task)
        with pytest.raises(InvalidArgument, match="class labels"):
            run_round(initial_state(np.zeros(spec.param_count), 2),
                      _algo(clients_per_round=1), spec, population, run_streams(1))

    def test_masked_params_close_to_plain(self):
        clients = _toy()
        cfg = _algo(clients_per_round=10)
        s_plain = initial_state(np.array([1.5]), 5)
        s_masked = initial_state(np.array([1.5]), 5)
        plain = AggregationSettings(mask_stats=True, mask_params=False)
        both = AggregationSettings(mask_stats=True, mask_params=True)
        streams_plain, streams_masked = run_streams(6), run_streams(6)
        for _ in range(3):
            s_plain, _ = run_round(s_plain, cfg, SCALAR, clients, streams_plain, settings=plain)
            s_masked, _ = run_round(s_masked, cfg, SCALAR, clients, streams_masked,
                                    settings=both)
        assert np.allclose(s_masked.w, s_plain.w, atol=1e-4)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(algorithm="sgd"),
        dict(lambda_update="adam"),
        dict(scaling_mode="other"),
        dict(clients_per_round=0),
        dict(rounds=-1),
        dict(lambda_lr=0.0),
        dict(window_len=0),
        dict(lambda_lr=math.inf),
        dict(lambda_lr=math.nan),
    ])
    def test_bad_algorithm_config(self, kwargs):
        with pytest.raises(InvalidArgument):
            _algo(**kwargs)

    def test_scale_bits_range(self):
        assert AggregationSettings(scale_bits=0).scale_bits == 0
        assert AggregationSettings(scale_bits=62).scale_bits == 62
        for bits in (-1, 63):
            with pytest.raises(InvalidArgument):
                AggregationSettings(scale_bits=bits)

    def test_run_fedavg_round_keeps_lambda(self):
        clients = _toy()
        state = initial_state(np.array([1.5]), 5)
        state, report = run_round(state, _algo(algorithm="fedavg"), SCALAR, clients,
                                  run_streams(3))
        assert report.lam == tuple(mixture_uniform(5).tolist())
