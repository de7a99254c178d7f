"""Core value types: mixture weights, domain stats, datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agfed.core import (
    ClientDataset,
    DomainStats,
    InvalidArgument,
    derive_seed,
    domain_stats_merge,
    make_rng,
    mixture_uniform,
    validate_mixture,
    validate_scaling,
)


class TestMixtureUniform:
    def test_two_domains(self):
        assert mixture_uniform(2).tolist() == [0.5, 0.5]

    def test_single_domain(self):
        assert mixture_uniform(1).tolist() == [1.0]

    def test_five_domains(self):
        assert mixture_uniform(5).tolist() == [0.2] * 5

    def test_zero_domains_rejected(self):
        with pytest.raises(InvalidArgument):
            mixture_uniform(0)

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 100])
    def test_satisfies_simplex_invariants(self, p):
        validate_mixture(mixture_uniform(p))


class TestMixtureValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidArgument):
            validate_mixture(np.array([1.2, -0.2]))

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidArgument):
            validate_mixture(np.array([0.5, 0.4]))

    def test_good_mixture_accepted(self):
        validate_mixture(np.array([0.25, 0.75]))


class TestDomainStats:
    def test_merge_elementwise(self):
        a = DomainStats(np.array([3, 0]), np.array([0.6, 0.0]))
        b = DomainStats(np.array([1, 2]), np.array([0.2, 1.0]))
        m = domain_stats_merge(a, b)
        assert m.counts.tolist() == [4, 2]
        assert m.loss_sums.tolist() == [0.8, 1.0]

    def test_zero_stats_is_identity(self):
        a = DomainStats(np.array([5, 1]), np.array([2.5, 0.25]))
        m = domain_stats_merge(a, DomainStats.zeros(2))
        assert np.array_equal(m.counts, a.counts)
        assert np.array_equal(m.loss_sums, a.loss_sums)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            domain_stats_merge(DomainStats.zeros(2), DomainStats.zeros(3))

    def test_zero_count_requires_zero_loss(self):
        with pytest.raises(InvalidArgument):
            DomainStats(np.array([0, 1]), np.array([0.5, 0.5]))

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidArgument):
            DomainStats(np.array([-1, 1]), np.array([0.0, 0.5]))


stats_strategy = st.integers(1, 5).flatmap(
    lambda p: st.tuples(
        st.lists(st.integers(0, 50), min_size=p, max_size=p),
        st.lists(st.floats(0.0, 100.0), min_size=p, max_size=p),
    )
)


def _as_stats(counts, sums):
    counts = np.array(counts, dtype=np.int64)
    sums = np.where(counts == 0, 0.0, np.array(sums))
    return DomainStats(counts, sums)


@settings(max_examples=200, deadline=None)
@given(stats_strategy, stats_strategy.map(lambda t: t))
def test_merge_commutative(a_raw, b_raw):
    p = min(len(a_raw[0]), len(b_raw[0]))
    a = _as_stats(a_raw[0][:p], a_raw[1][:p])
    b = _as_stats(b_raw[0][:p], b_raw[1][:p])
    ab, ba = domain_stats_merge(a, b), domain_stats_merge(b, a)
    assert np.array_equal(ab.counts, ba.counts)
    assert np.allclose(ab.loss_sums, ba.loss_sums, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(stats_strategy, stats_strategy, stats_strategy)
def test_merge_associative(a_raw, b_raw, c_raw):
    p = min(len(a_raw[0]), len(b_raw[0]), len(c_raw[0]))
    a = _as_stats(a_raw[0][:p], a_raw[1][:p])
    b = _as_stats(b_raw[0][:p], b_raw[1][:p])
    c = _as_stats(c_raw[0][:p], c_raw[1][:p])
    left = domain_stats_merge(domain_stats_merge(a, b), c)
    right = domain_stats_merge(a, domain_stats_merge(b, c))
    assert np.array_equal(left.counts, right.counts)
    assert np.allclose(left.loss_sums, right.loss_sums, rtol=0, atol=1e-12)


class TestDatasets:
    def test_empty_client_rejected(self):
        with pytest.raises(InvalidArgument):
            ClientDataset(0, np.empty((0, 1)), [], [])

    def test_features_not_2d_rejected(self):
        with pytest.raises(InvalidArgument):
            ClientDataset(0, np.array([1.0, 2.0]), [1.0, 1.0], [0, 0])

    def test_arrays_differ_in_length_rejected(self):
        x = np.ones((3, 1))
        with pytest.raises(InvalidArgument):
            ClientDataset(0, x, [1.0, 1.0], [0, 0, 0])
        with pytest.raises(InvalidArgument):
            ClientDataset(0, x, [1.0, 1.0, 1.0], [0, 0])

    def test_negative_domain_rejected(self):
        with pytest.raises(InvalidArgument):
            ClientDataset(0, np.array([[1.0]]), [1.0], [-1])

    def test_domain_tags_partition_dataset(self):
        rng = make_rng(7)
        values = np.arange(30, dtype=np.float64)
        ds = ClientDataset(3, values[:, None], values, rng.integers(0, 4, size=30))
        assert int(ds.domain_counts(4).sum()) == len(ds)

    def test_domain_tag_above_p_rejected(self):
        ds = ClientDataset(0, np.array([[0.0]]), [0.0], [5])
        with pytest.raises(InvalidArgument):
            ds.domain_counts(3)

    def test_arrays_are_read_only(self):
        ds = ClientDataset(0, np.array([[1.0]]), [2.0], [0])
        with pytest.raises(ValueError):
            ds.feature_matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 9.0
        with pytest.raises(ValueError):
            ds.domains[0] = 1


class TestScalingValidation:
    def test_zero_rule_checked_against_counts(self):
        validate_scaling(np.array([0.5, 0.0]), np.array([2.0, 0.0]))
        with pytest.raises(InvalidArgument):
            validate_scaling(np.array([0.5, 0.0]), np.array([2.0, 3.0]))
        with pytest.raises(InvalidArgument):
            validate_scaling(np.array([0.5, 0.1]), np.array([2.0, 0.0]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            validate_scaling(np.array([-0.1, 0.5]))


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_derive_seed_distinguishes_parts(self):
        seeds = {derive_seed(42, r, c) for r in range(10) for c in range(10)}
        assert len(seeds) == 100

    def test_make_rng_streams_independent_of_call_order(self):
        a = make_rng(5, 1).standard_normal(4)
        b = make_rng(5, 2).standard_normal(4)
        a2 = make_rng(5, 1).standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)
