"""Core value types: mixture weights, populations, seeds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agfed.core import (
    Cohort,
    InvalidArgument,
    Population,
    _row_layout,
    derive_seed,
    make_rng,
    mixture_uniform,
    validate_mixture,
)
from pooling import pool


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
            pool([(0, np.empty((0, 1)), [], [])], 1)

    def test_features_not_2d_rejected(self):
        with pytest.raises(InvalidArgument):
            pool([(0, np.array([1.0, 2.0]), [1.0, 1.0], [0, 0])], 1)

    def test_arrays_differ_in_length_rejected(self):
        x = np.ones((3, 1))
        with pytest.raises(InvalidArgument):
            pool([(0, x, [1.0, 1.0], [0, 0, 0])], 1)
        with pytest.raises(InvalidArgument):
            pool([(0, x, [1.0, 1.0, 1.0], [0, 0])], 1)

    def test_negative_domain_rejected(self):
        with pytest.raises(InvalidArgument):
            pool([(0, np.array([[1.0]]), [1.0], [-1])], 1)

    def test_equality_is_identity_and_hashable(self):
        # comparing field tuples of arrays would raise "truth value ambiguous"
        a = pool([(0, np.array([[1.0], [2.0]]), [1.0, 2.0], [0, 1])], 2)
        b = pool([(0, np.array([[1.0], [2.0]]), [1.0, 2.0], [0, 1])], 2)
        assert a == a
        assert (a == b) is False
        assert len({a, b, a}) == 2

    def test_domain_tags_partition_dataset(self):
        rng = make_rng(7)
        values = np.arange(30, dtype=np.float64)
        population = pool([(3, values[:, None], values, rng.integers(0, 4, size=30))], 4)
        assert int(population.counts.sum()) == 30

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40), st.integers(0, 3))
    def test_domain_counts_equal_bincount(self, tags, extra):
        p = max(tags) + 1 + extra
        counts = pool([(0, np.zeros((len(tags), 1)), np.zeros(len(tags)), tags)], p).counts[0]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(tags, minlength=p))

    def test_domain_tag_above_p_rejected(self):
        with pytest.raises(InvalidArgument):
            pool([(0, np.array([[0.0]]), [0.0], [5])], 3)


class TestCohort:
    def test_gather_concatenates_rows_in_client_order(self):
        a = (4, np.array([[1.0], [2.0]]), [1.0, 2.0], [1, 1])
        b = (9, np.array([[3.0], [4.0], [5.0]]), [3.0, 4.0, 5.0], [0, 2, 0])
        c = (2, np.array([[6.0]]), [6.0], [1])
        population = pool([c, a, b], 3)
        cohort = Cohort.gather(population, [1, 2])
        assert len(cohort) == 2
        assert cohort.xb.tolist() == [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 1.0],
                                      [5.0, 1.0]]
        assert cohort.y.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert cohort.domains.tolist() == [1, 1, 0, 2, 0]
        assert cohort.offsets.tolist() == [0, 2, 5]
        assert cohort.sizes.tolist() == [2, 3]
        assert cohort.owners.tolist() == [0, 0, 1, 1, 1]
        assert cohort.counts.dtype == np.int64
        assert cohort.counts.tolist() == [[0, 2, 0], [2, 0, 1]]
        # client k's rows and counts are those of population member k
        for k, member in enumerate([1, 2]):
            rows = slice(cohort.offsets[k], cohort.offsets[k + 1])
            member_rows = slice(population.offsets[member], population.offsets[member + 1])
            assert cohort.y[rows].tolist() == population.y[member_rows].tolist()
            assert cohort.counts[k].tolist() == population.counts[member].tolist()

    def test_gathered_arrays_reject_writes(self):
        clients = [(k, np.ones((n, 2)), np.ones(n), np.zeros(n)) for k, n in enumerate([2, 5, 3])]
        cohort = Cohort.gather(pool(clients, 1), [2, 0])
        for f in dataclasses.fields(cohort):
            arr = getattr(cohort, f.name)
            with pytest.raises(ValueError):
                arr[0] = 7

    def test_layout_arrays_reject_writes(self):
        clients = [(k, np.zeros((n, 1)), np.zeros(n), np.zeros(n)) for k, n in enumerate([2, 5, 3])]
        cohort = Cohort.gather(pool(clients, 1), [2, 0, 1])
        layout = _row_layout(np.array([3, 2, 5], dtype=np.int64).tobytes())
        for arr in (cohort.sizes, cohort.offsets, cohort.owners, *layout):
            with pytest.raises(ValueError):
                arr[0] = 1
        # the cohort holds the cached arrays themselves
        assert cohort.offsets is layout[1] and cohort.owners is layout[2]

    def test_same_size_profile_builds_no_layout(self, monkeypatch):
        rng = make_rng(4)
        sizes = [4, 1, 6, 4, 1, 6]
        clients = [(k, rng.standard_normal((n, 2)), rng.standard_normal(n),
                    rng.integers(0, 2, size=n)) for k, n in enumerate(sizes)]
        population = pool(clients, 2)
        first = Cohort.gather(population, [0, 1, 2])

        def fail(*args, **kwargs):
            raise AssertionError("layout rebuilt for a cached size profile")

        for name in ("repeat", "cumsum", "nonzero"):
            monkeypatch.setattr(np, name, fail)
        second = Cohort.gather(population, [3, 4, 5])
        monkeypatch.undo()
        assert second.offsets is first.offsets and second.owners is first.owners
        _row_layout.cache_clear()
        cold = Cohort.gather(population, [3, 4, 5])
        for name in ("xb", "y", "domains", "offsets", "sizes", "owners", "counts"):
            assert np.array_equal(getattr(second, name), getattr(cold, name))
        assert second.xb[:, :-1].tolist() == np.concatenate(
            [x for _, x, _, _ in clients[3:]]).tolist()

    def test_domain_tag_above_p_names_the_client(self):
        ok = (1, np.zeros((2, 1)), [0.0, 0.0], [0, 1])
        bad = (7, np.zeros((2, 1)), [0.0, 0.0], [0, 3])
        with pytest.raises(InvalidArgument, match="client 7"):
            pool([ok, bad], 2)


@st.composite
def _populations(draw):
    """Ragged clients with unsorted, non-contiguous ids, plus a cohort of them."""
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=len(sizes), max_size=len(sizes),
                        unique=True))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    clients = [(cid, rng.standard_normal((n, dim)), rng.standard_normal(n),
                rng.integers(0, p, size=n)) for cid, n in zip(ids, sizes)]
    members = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=len(sizes),
                            unique=True))
    return clients, p, members


class TestPopulation:
    @settings(max_examples=150, deadline=None)
    @given(_populations())
    def test_cohort_index_equals_concatenated_clients(self, case):
        clients, p, members = case
        population = pool(clients, p)
        cohort = Cohort.gather(population, np.array(members))
        _, xs, ys, domains = zip(*[clients[k] for k in members])
        assert np.array_equal(cohort.xb[:, :-1], np.concatenate(xs))
        assert np.all(cohort.xb[:, -1] == 1.0)
        assert np.array_equal(cohort.y, np.concatenate(ys))
        assert np.array_equal(cohort.domains, np.concatenate(domains))
        assert cohort.sizes.tolist() == [len(y) for y in ys]
        assert cohort.owners.tolist() == [k for k, y in enumerate(ys) for _ in range(len(y))]
        for k, y in enumerate(ys):
            rows = slice(cohort.offsets[k], cohort.offsets[k + 1])
            assert np.array_equal(cohort.y[rows], y)
            assert np.array_equal(cohort.counts[k], population.counts[members[k]])
        assert np.array_equal(cohort.counts, [np.bincount(d, minlength=p) for d in domains])

    @settings(max_examples=50, deadline=None)
    @given(_populations())
    def test_iteration_yields_each_client_row_range(self, case):
        clients, p, _ = case
        population = pool(clients, p)
        ranges = list(population)
        assert len(ranges) == len(population) == len(clients)
        assert [len(r) for r in ranges] == np.diff(population.offsets).tolist()
        for rows, (_, x, y, _) in zip(ranges, clients):
            assert np.array_equal(population.x[rows], x)
            assert np.array_equal(population.y[rows], y)

    def test_domain_tag_at_or_above_p_names_the_client(self):
        with pytest.raises(InvalidArgument, match="client 12 has a domain tag outside 0..1"):
            Population(np.zeros((3, 1)), np.zeros(3), [0, 1, 2], [0, 1, 3], [5, 12], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["feature", "label"])
    def test_non_finite_row_names_the_client(self, column, bad):
        # a NaN sets no floating-point flag, so it is caught here or not at all
        x, y = np.zeros((4, 2)), np.zeros(4)
        if column == "feature":
            x[2, 1] = bad
        else:
            y[2] = bad
        with pytest.raises(InvalidArgument, match="client 12 has a NaN or infinite feature"):
            Population(x, y, [0, 0, 1, 1], [0, 2, 4], [5, 12], 2)

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
_SEED_PART = (st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5, -1, -3,
                               -2**32])
              | st.integers(-2**64, 2**64))


def _numpy_entropy(parts):
    return [part % 2**64 for part in parts]


def _numpy_rng(parts):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_numpy_entropy(parts))))


def _uint32_words(parts):
    """Each part mod 2**64 as numpy stores an int's entropy: its low uint32
    word, then its high word unless that is 0."""
    words = []
    for part in parts:
        value = part % 2**64
        words += [value & 0xFFFFFFFF] + ([value >> 32] if value >> 32 else [])
    return np.array(words, dtype=np.uint32)


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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_SEED_PART, min_size=1, max_size=5))
    def test_int_parts_seed_as_their_uint32_words(self, parts):
        # the digests were pinned when the parts reached SeedSequence as a
        # uint32 array of their words; a list of ints must give that state
        ss = np.random.SeedSequence(_uint32_words(parts))
        assert derive_seed(*parts) == int(ss.generate_state(1, np.uint64)[0])
        assert make_rng(*parts).bit_generator.state == np.random.PCG64(ss).state
