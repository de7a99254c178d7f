"""Core value types: mixture weights, populations, seeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agfed.core import (
    ClientDataset,
    Cohort,
    InvalidArgument,
    Population,
    StoredSeed,
    derive_seed,
    make_rng,
    mixture_uniform,
    seed_states,
    seed_words,
    stored_rng,
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


class TestDatasets:
    """A client's rows are checked when pooled into a population."""

    def test_empty_client_rejected(self):
        with pytest.raises(InvalidArgument, match="client 0 has no samples"):
            Population.from_clients([ClientDataset(0, np.empty((0, 1)), [], [])], 1)

    def test_features_not_2d_rejected(self):
        with pytest.raises(InvalidArgument):
            Population.from_clients([ClientDataset(0, np.array([1.0, 2.0]), [1.0, 1.0],
                                                   [0, 0])], 1)

    def test_arrays_differ_in_length_rejected(self):
        x = np.ones((3, 1))
        with pytest.raises(InvalidArgument):
            Population.from_clients([ClientDataset(0, x, [1.0, 1.0], [0, 0, 0])], 1)
        with pytest.raises(InvalidArgument):
            Population.from_clients([ClientDataset(0, x, [1.0, 1.0, 1.0], [0, 0])], 1)
        # totals that agree across clients do not hide misaligned clients
        with pytest.raises(InvalidArgument, match="client 0"):
            Population.from_clients([ClientDataset(0, x, [1.0] * 4, [0] * 4),
                                     ClientDataset(1, x, [1.0] * 2, [0] * 2)], 1)

    def test_negative_domain_rejected(self):
        with pytest.raises(InvalidArgument):
            Population.from_clients([ClientDataset(0, np.array([[1.0]]), [1.0], [-1])], 1)

    def test_equality_is_identity_and_hashable(self):
        # comparing field tuples of arrays would raise "truth value ambiguous"
        x = np.array([[1.0], [2.0]])
        a = ClientDataset(0, x, [1.0, 2.0], [0, 1])
        b = ClientDataset(0, x, [1.0, 2.0], [0, 1])
        assert a == a
        assert (a == b) is False
        assert len({a, b, a}) == 2

    def test_domain_tags_partition_dataset(self):
        rng = make_rng(7)
        values = np.arange(30, dtype=np.float64)
        ds = ClientDataset(3, values[:, None], values, rng.integers(0, 4, size=30))
        assert int(Population.from_clients([ds], 4).counts.sum()) == len(ds)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40), st.integers(0, 3))
    def test_domain_counts_equal_bincount(self, tags, extra):
        p = max(tags) + 1 + extra
        ds = ClientDataset(0, np.zeros((len(tags), 1)), np.zeros(len(tags)), tags)
        counts = Population.from_clients([ds], p).counts[0]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(tags, minlength=p))

    def test_domain_tag_above_p_rejected(self):
        ds = ClientDataset(0, np.array([[0.0]]), [0.0], [5])
        with pytest.raises(InvalidArgument):
            Population.from_clients([ds], 3)

    def test_arrays_are_read_only(self):
        ds = Population.from_clients([ClientDataset(0, np.array([[1.0]]), [2.0], [0])], 1)[0]
        with pytest.raises(ValueError):
            ds.feature_matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 9.0
        with pytest.raises(ValueError):
            ds.domains[0] = 1


class TestCohort:
    def test_gather_concatenates_rows_in_client_order(self):
        a = ClientDataset(4, np.array([[1.0], [2.0]]), [1.0, 2.0], [1, 1])
        b = ClientDataset(9, np.array([[3.0], [4.0], [5.0]]), [3.0, 4.0, 5.0], [0, 2, 0])
        c = ClientDataset(2, np.array([[6.0]]), [6.0], [1])
        cohort = Cohort.gather(Population.from_clients([c, a, b], 3), [1, 2])
        assert len(cohort) == 2
        assert cohort.client_ids.tolist() == [4, 9]
        assert cohort.xb.tolist() == [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 1.0],
                                      [5.0, 1.0]]
        assert cohort.y.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert cohort.domains.tolist() == [1, 1, 0, 2, 0]
        assert cohort.offsets.tolist() == [0, 2, 5]
        assert cohort.sizes.tolist() == [2, 3]
        assert cohort.owners.tolist() == [0, 0, 1, 1, 1]
        assert cohort.counts.dtype == np.int64
        assert cohort.counts.tolist() == [[0, 2, 0], [2, 0, 1]]

    def test_domain_tag_above_p_names_the_client(self):
        ok = ClientDataset(1, np.zeros((2, 1)), [0.0, 0.0], [0, 1])
        bad = ClientDataset(7, np.zeros((2, 1)), [0.0, 0.0], [0, 3])
        with pytest.raises(InvalidArgument, match="client 7"):
            Population.from_clients([ok, bad], 2)

    def test_mixed_feature_dimensions_rejected(self):
        one = ClientDataset(0, np.zeros((1, 1)), [0.0], [0])
        two = ClientDataset(1, np.zeros((1, 2)), [0.0], [0])
        with pytest.raises(InvalidArgument):
            Population.from_clients([one, two], 1)


@st.composite
def _populations(draw):
    """Ragged clients with unsorted, non-contiguous ids, plus a cohort of them."""
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=len(sizes), max_size=len(sizes),
                        unique=True))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    clients = [ClientDataset(cid, rng.standard_normal((n, dim)), rng.standard_normal(n),
                             rng.integers(0, p, size=n)) for cid, n in zip(ids, sizes)]
    members = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=len(sizes),
                            unique=True))
    return clients, p, members


class TestPopulation:
    @settings(max_examples=150, deadline=None)
    @given(_populations())
    def test_cohort_index_equals_concatenated_clients(self, case):
        clients, p, members = case
        population = Population.from_clients(clients, p)
        cohort = Cohort.gather(population, np.array(members))
        chosen = [clients[k] for k in members]
        assert np.array_equal(cohort.xb[:, :-1],
                              np.concatenate([c.feature_matrix for c in chosen]))
        assert np.all(cohort.xb[:, -1] == 1.0)
        assert np.array_equal(cohort.y, np.concatenate([c.labels for c in chosen]))
        assert np.array_equal(cohort.domains, np.concatenate([c.domains for c in chosen]))
        assert cohort.sizes.tolist() == [len(c) for c in chosen]
        assert cohort.owners.tolist() == [k for k, c in enumerate(chosen) for _ in range(len(c))]
        assert cohort.client_ids.tolist() == [c.client_id for c in chosen]
        assert np.array_equal(cohort.counts,
                              [np.bincount(c.domains, minlength=p) for c in chosen])

    @settings(max_examples=50, deadline=None)
    @given(_populations())
    def test_indexing_yields_each_client_as_a_view(self, case):
        clients, p, _ = case
        population = Population.from_clients(clients, p)
        assert len(population) == len(clients)
        for ours, theirs in zip(population, clients):
            assert ours.client_id == theirs.client_id and len(ours) == len(theirs)
            assert np.array_equal(ours.feature_matrix, theirs.feature_matrix)
            assert np.shares_memory(ours.feature_matrix, population.x)
        assert population[-1].client_id == clients[-1].client_id

    def test_domain_tag_at_or_above_p_names_the_client(self):
        with pytest.raises(InvalidArgument, match="client 12 has a domain tag outside 0..1"):
            Population(np.zeros((3, 1)), np.zeros(3), [0, 1, 2], [0, 1, 3], [5, 12], 2)

    def test_empty_client_names_the_client(self):
        with pytest.raises(InvalidArgument, match="client 8 has no samples"):
            Population(np.zeros((2, 1)), np.zeros(2), [0, 0], [0, 2, 2], [7, 8], 1)

    @pytest.mark.parametrize("offsets, ids", [([0, 2], [0, 1]), ([0, 1], [0]), ([1, 2], [0]),
                                              ([0], [])])
    def test_offsets_must_cover_the_rows_once(self, offsets, ids):
        with pytest.raises(InvalidArgument):
            Population(np.zeros((2, 1)), np.zeros(2), [0, 0], offsets, ids, 1)

    @pytest.mark.parametrize("name, domains, offsets, ids", [
        ("domains", [0.9, 1.7], [0, 2], [0]),
        ("domains", [np.nan, 0.0], [0, 2], [0]),
        ("offsets", [0, 0], [0.0, 1.5, 2.0], [0, 1]),
        ("client_ids", [0, 0], [0, 2], [0.5]),
    ], ids=["fractional-domains", "nan-domains", "fractional-offsets", "fractional-ids"])
    def test_fractional_index_arrays_rejected(self, name, domains, offsets, ids):
        # an int64 cast would truncate them and accept the population
        with pytest.raises(InvalidArgument, match=f"{name} must hold whole numbers"):
            Population(np.zeros((2, 1)), [0.0, 0.0], domains, offsets, ids, 2)

    def test_whole_float_index_arrays_accepted(self):
        population = Population(np.zeros((2, 1)), [0.0, 0.0], [0.0, 1.0], [0.0, 2.0],
                                [3.0], 2)
        assert population.domains.tolist() == [0, 1]
        assert population.domains.dtype == np.int64
        assert population.counts.tolist() == [[1, 1]]

    def test_arrays_are_read_only(self):
        population = Population(np.zeros((2, 1)), np.zeros(2), [0, 0], [0, 2], [0], 1)
        for arr in (population.x, population.y, population.domains, population.counts,
                    population.offsets, population.client_ids):
            with pytest.raises(ValueError):
                arr[0] = 1


# seed parts at the word boundaries of numpy's uint32 coercion, plus any
# value that wraps mod 2**64
_SEED_PART = (st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -2**32])
              | st.integers(-2**64, 2**64))


def _numpy_entropy(parts):
    return [part % 2**64 for part in parts]


def _numpy_rng(parts):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_numpy_entropy(parts))))


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

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_SEED_PART, min_size=1, max_size=5))
    def test_scalar_parts_match_numpy(self, parts):
        # five parts of two words each pass numpy's 4-word pool, so its
        # second mixing loop runs too
        ss = np.random.SeedSequence(_numpy_entropy(parts))
        assert derive_seed(*parts) == int(ss.generate_state(1, np.uint64)[0])
        assert np.array_equal(make_rng(*parts).bit_generator.random_raw(4),
                              _numpy_rng(parts).bit_generator.random_raw(4))


_WORD = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@st.composite
def _entropy_rows(draw):
    """Rows of 1 to 6 uint32 words, of mixed counts, in one padded matrix.

    The padding past each row's count is 2**32 - 1, which the state
    function must ignore.
    """
    rows = draw(st.lists(st.lists(_WORD, min_size=1, max_size=6), min_size=1, max_size=8))
    words = np.full((len(rows), max(map(len, rows))), 2**32 - 1, dtype=np.uint32)
    for r, row in enumerate(rows):
        words[r, :len(row)] = row
    return rows, words, np.array([len(row) for row in rows])


@st.composite
def _part_columns(draw):
    """Seed parts for ``seed_words``: integers and 1-D arrays of k entries each."""
    k = draw(st.integers(1, 6))
    entry = (st.sampled_from([0, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
             | st.integers(0, 2**64 - 1))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            parts.append(np.array(draw(st.lists(entry, min_size=k, max_size=k)),
                                  dtype=np.uint64))
        else:
            parts.append(draw(_SEED_PART))
    if not any(isinstance(part, np.ndarray) for part in parts):
        parts.append(np.arange(k, dtype=np.uint64) * 2**31)
    return k, parts


class TestSeedStates:
    @settings(max_examples=200, deadline=None)
    @given(_entropy_rows())
    def test_rows_match_numpy(self, entropy):
        rows, words, lengths = entropy
        states = seed_states(words, lengths)
        assert states.shape == (len(rows), 4) and states.dtype == np.uint64
        for row, state in zip(rows, states):
            expected = np.random.SeedSequence(np.array(row, dtype=np.uint32))
            assert np.array_equal(state, expected.generate_state(4, np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(_part_columns())
    def test_words_of_parts_match_make_rng(self, columns):
        # parts of two words (>= 2**32, or negative) shift the later
        # parts of their row, and up to 10 words pass the 4-word pool
        k, parts = columns
        states = seed_states(*seed_words(*parts))
        for r in range(k):
            row = [int(part[r]) if isinstance(part, np.ndarray) else part for part in parts]
            assert int(states[r, 0]) == derive_seed(*row)
            assert np.array_equal(stored_rng(states[r]).bit_generator.random_raw(4),
                                  _numpy_rng(row).bit_generator.random_raw(4))

    def test_negative_array_part_wraps(self):
        states = seed_states(*seed_words(3, np.array([-1, -2**32, 5])))
        for r, part in enumerate([-1, -2**32, 5]):
            assert int(states[r, 0]) == derive_seed(3, part)

    def test_stored_rng_draws_like_make_rng(self):
        state = seed_states(*seed_words(42, np.array([9]), 1))[0]
        a, b = stored_rng(state), make_rng(42, 9, 1)
        assert np.array_equal(a.choice(100, size=10, replace=False),
                              b.choice(100, size=10, replace=False))
        assert np.array_equal(a.random(5), b.random(5))

    def test_stored_seed_serves_only_its_words(self):
        seed = StoredSeed(seed_states(*seed_words(np.array([1])))[0])
        with pytest.raises(InvalidArgument):
            seed.generate_state(624, np.uint32)
