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
    make_rng,
    mixture_uniform,
    validate_mixture,
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
    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            DomainStats(np.zeros(2, dtype=np.int64), np.zeros(3))

    def test_zero_count_requires_zero_loss(self):
        with pytest.raises(InvalidArgument):
            DomainStats(np.array([0, 1]), np.array([0.5, 0.5]))

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidArgument):
            DomainStats(np.array([-1, 1]), np.array([0.0, 0.5]))


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40), st.integers(0, 3))
    def test_domain_counts_equal_bincount(self, tags, extra):
        p = max(tags) + 1 + extra
        ds = ClientDataset(0, np.zeros((len(tags), 1)), np.zeros(len(tags)), tags)
        counts = ds.domain_counts(p)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(tags, minlength=p))

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
