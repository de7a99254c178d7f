"""Masking simulation: cancellation, fixed-point bounds, protocol checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agfed.core import InvalidArgument, make_rng
from agfed.secagg import (
    DEFAULT_SCALE_BITS,
    MaskRangeError,
    MaskedVector,
    PairwiseSeeds,
    ProtocolError,
    SecureSum,
    _encode,
    _pair_layout,
    _pair_masks,
    _signed_mask_rows,
    mask_set,
)

_UINT64_MAX = (1 << 64) - 1
# splitmix64 outputs 1-3 for seed 0, as published with the generator
_SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def _seeds(n, key=0):
    return PairwiseSeeds.generate(n, make_rng(key))


def _reference_pair_mask(seed, length):
    # splitmix64 for one seed, counters 1..length
    z = np.uint64(seed) + np.arange(1, length + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _secure_sum(seeds, plains):
    acc = SecureSum(seeds, len(plains[0]))
    for i, plain in enumerate(plains):
        acc.submit(i, plain)
    return acc.aggregate()


def _pair_seed(seeds, i, j):
    """The seed clients i and j share, looked up in ``np.triu_indices`` order."""
    lower, higher = np.triu_indices(seeds.n_clients, k=1)
    pair = np.flatnonzero((lower == min(i, j)) & (higher == max(i, j)))[0]
    return int(seeds.upper[pair])


def _reference_mask_set(seeds, client, plain, scale_bits=DEFAULT_SCALE_BITS):
    # one mask per peer, added by the lower index of the pair and
    # subtracted by the higher
    residues = _encode(plain, 1 << scale_bits, seeds.n_clients)
    for j in range(seeds.n_clients):
        if j == client:
            continue
        mask = _reference_pair_mask(_pair_seed(seeds, client, j), residues.shape[0])
        if client < j:
            residues = residues + mask
        else:
            residues = residues - mask
    return residues


def _reference_rows(seeds, length):
    """Every client's signed mask row, scattering each pair's stream once."""
    lower, higher = np.triu_indices(seeds.n_clients, k=1)
    streams = _reference_pair_mask(seeds.upper[:, None], length)
    rows = np.zeros((seeds.n_clients, length), dtype=np.uint64)
    np.add.at(rows, lower, streams)
    np.subtract.at(rows, higher, streams)
    return rows


@st.composite
def _pair_seeds(draw):
    """Cohort pair seeds, random or with every seed near 2**64 - 1."""
    n = draw(st.integers(1, 40))
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        pairs = n * (n - 1) // 2
        return PairwiseSeeds(n, _UINT64_MAX - rng.integers(0, 16, size=pairs, dtype=np.uint64))
    return PairwiseSeeds.generate(n, rng)


class TestMasking:
    def test_single_client_is_plain_encoding(self):
        seeds = _seeds(1)
        plain = np.array([1.5, -2.25, 0.0])
        mv = mask_set(seeds, 0, plain)
        scale = 1 << DEFAULT_SCALE_BITS
        expected = np.rint(plain * scale).astype(np.int64).astype(np.uint64)
        assert np.array_equal(mv.values, expected)
        assert np.array_equal(_secure_sum(seeds, [plain]), plain)

    def test_two_client_masks_are_complementary(self):
        seeds = _seeds(2)
        zero = np.zeros(4)
        a = mask_set(seeds, 0, zero)
        b = mask_set(seeds, 1, zero)
        total = a.values + b.values  # uint64 wraps mod 2**64
        assert np.all(total == 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_zero_plains_cancel_exactly(self, n):
        seeds = _seeds(n, key=n)
        masked = [mask_set(seeds, i, np.zeros(5)) for i in range(n)]
        total = np.zeros(5, dtype=np.uint64)
        for mv in masked:
            total = total + mv.values
        assert np.all(total == 0)  # mask cancellation is exact mod 2**64
        assert np.array_equal(_secure_sum(seeds, [np.zeros(5)] * n), np.zeros(5))

    def test_integer_counts_bit_exact(self):
        rng = make_rng(3)
        n = 6
        seeds = _seeds(n, key=9)
        plains = [rng.integers(0, 1000, size=8).astype(np.float64) for _ in range(n)]
        assert np.array_equal(_secure_sum(seeds, plains), sum(plains))

    def test_real_vector_sum_within_fixed_point_bound(self):
        rng = make_rng(4)
        n = 50
        seeds = _seeds(n, key=11)
        plains = [rng.uniform(-100, 100, size=16) for _ in range(n)]
        decoded = _secure_sum(seeds, plains)
        oracle = np.sum(np.stack(plains), axis=0)
        bound = n / (2.0 * (1 << DEFAULT_SCALE_BITS))
        assert np.all(np.abs(decoded - oracle) <= bound)

    def test_masked_value_differs_from_plain_encoding(self):
        seeds = _seeds(3, key=21)
        plain = np.array([1.0, 2.0, 3.0])
        masked = mask_set(seeds, 0, plain)
        unmasked = mask_set(_seeds(1), 0, plain)
        assert not np.array_equal(masked.values, unmasked.values)

    def test_encoding_overflow_rejected(self):
        seeds = _seeds(2)
        too_big = np.array([2.0 ** 45])  # 2**45 * 2**20 > 2**62
        with pytest.raises(MaskRangeError):
            mask_set(seeds, 0, too_big)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(MaskRangeError):
            mask_set(_seeds(2), 0, np.array([0.5, bad]))

    def test_client_index_out_of_cohort_rejected(self):
        # checked before the cached mask rows are indexed, where -1 would
        # silently pick the last client's row
        seeds = _seeds(2)
        for client in (-1, 2, 5):
            with pytest.raises(InvalidArgument, match="outside cohort of 2"):
                mask_set(seeds, client, np.zeros(2))
            with pytest.raises(InvalidArgument, match="outside cohort of 2"):
                SecureSum(seeds, 2).submit(client, np.zeros(2))
        # inside an index array, the error names every bad index once
        for clients, named in (([0, -1], r"\[-1\]"), ([2, 1], r"\[2\]"),
                               ([2, -1, 2], r"\[-1, 2\]")):
            plains = np.zeros((len(clients), 2))
            with pytest.raises(InvalidArgument, match=named + " outside cohort of 2"):
                mask_set(seeds, np.array(clients), plains)
            acc = SecureSum(seeds, 2)
            with pytest.raises(InvalidArgument, match=named + " outside cohort of 2"):
                acc.submit(np.array(clients), plains)
            acc.submit(np.arange(2), np.ones((2, 2)))  # nothing was counted
            assert acc.aggregate().tolist() == [2.0, 2.0]


class TestPairMasks:
    def test_splitmix64_known_answer(self):
        seed0 = np.array([0], dtype=np.uint64)
        assert _pair_masks(seed0, 3).tolist() == [_SPLITMIX64_SEED0]
        assert _reference_pair_mask(0, 3).tolist() == _SPLITMIX64_SEED0

    def test_rows_equal_single_seed_streams(self):
        seeds = np.array([0, 1, 2**63, _UINT64_MAX - 1, _UINT64_MAX], dtype=np.uint64)
        masks = _pair_masks(seeds, 6)
        assert masks.shape == (5, 6) and masks.dtype == np.uint64
        for k in range(seeds.shape[0]):
            assert np.array_equal(masks[k], _pair_masks(seeds[k:k + 1], 6)[0])

    @settings(max_examples=60, deadline=None)
    @given(_pair_seeds(), st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_mask_set_matches_per_peer_reference(self, seeds, length, key):
        rng = make_rng(key)
        plain = rng.uniform(-1e3, 1e3, size=length)
        for client in range(seeds.n_clients):
            masked = mask_set(seeds, client, plain)
            assert np.array_equal(masked.values, _reference_mask_set(seeds, client, plain))
        # an index array, in cohort order or any other, gives the stacked rows
        plains = rng.uniform(-1e3, 1e3, size=(seeds.n_clients, length))
        for clients in (np.arange(seeds.n_clients), rng.permutation(seeds.n_clients)):
            stacked = np.stack([_reference_mask_set(seeds, c, v)
                                for c, v in zip(clients, plains)])
            assert np.array_equal(mask_set(seeds, clients, plains).values, stacked)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_cohorts_match_reference(self, n):
        seeds = _seeds(n, key=17)
        plain = np.array([0.25, -7.5, 3.0])
        for client in range(n):
            assert np.array_equal(mask_set(seeds, client, plain).values,
                                  _reference_mask_set(seeds, client, plain))

    def test_seeds_reused_across_vector_lengths(self):
        # the cached mask rows are per length; a second length must not
        # read the first one's rows
        seeds = _seeds(5, key=18)
        for length in (3, 8, 3):
            plain = np.arange(length, dtype=np.float64) - 1.5
            for client in range(5):
                assert np.array_equal(mask_set(seeds, client, plain).values,
                                      _reference_mask_set(seeds, client, plain))


class TestBlockedMaskRows:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 300])
    def test_blocks_match_one_unblocked_pass(self, n):
        # block 8: n = 7, 8 and 9 end inside, on and just past a block edge
        seeds = _seeds(n, key=n)
        unblocked = _signed_mask_rows(seeds.upper, n, 5, max(n, 1))
        for block in (1, 8, 64):
            assert np.array_equal(_signed_mask_rows(seeds.upper, n, 5, block), unblocked)

    def test_rows_are_the_signed_pair_sums(self):
        n = 9
        seeds = _seeds(n, key=23)
        rows = _signed_mask_rows(seeds.upper, n, 4, 2)
        for i in range(n):
            expected = np.zeros(4, dtype=np.uint64)
            for j in range(n):
                if j != i:
                    stream = _reference_pair_mask(_pair_seed(seeds, i, j), 4)
                    expected = expected + stream if i < j else expected - stream
            assert np.array_equal(rows[i], expected)


class TestPairLayoutCache:
    # (n, length, block): block None takes mask_set's own block size
    SHAPES = [(7, 5, None), (9, 5, None), (7, 3, None), (9, 5, 4), (7, 5, 4),
              (300, 5, 8), (300, 5, None), (300, 5, 64), (7, 5, None)]

    def test_interleaved_shapes_match_reference(self):
        for key, (n, length, block) in enumerate(self.SHAPES):
            seeds = _seeds(n, key=key)
            if block is not None:
                rows = _signed_mask_rows(seeds.upper, n, length, block)
                assert np.array_equal(rows, _reference_rows(seeds, length))
                assert [(b.lowers.start, b.lowers.stop) for b in _pair_layout(n, block)] == [
                    (a, min(a + block, n - 1)) for a in range(0, n - 1, block)]
                continue
            plains = make_rng(key).uniform(-1e3, 1e3, size=(n, length))
            masked = mask_set(seeds, np.arange(n), plains).values
            if n > 9:  # the per-peer reference is O(n**3) for a whole cohort
                assert np.array_equal(masked, _encode(plains, 1 << DEFAULT_SCALE_BITS, n)
                                      + _reference_rows(seeds, length))
                continue
            for client in range(n):
                assert np.array_equal(masked[client],
                                      _reference_mask_set(seeds, client, plains[client]))

    def test_layout_arrays_are_read_only(self):
        for b in _pair_layout(300, 8):
            for arr in (b.lower_starts, b.by_higher, b.higher_starts):
                with pytest.raises(ValueError):
                    arr[0] = 1

    def test_cached_layout_builds_no_index(self, monkeypatch):
        # after the first sum for an (n, block), a sum only hashes,
        # gathers and reduces
        n, length = 40, 3
        _signed_mask_rows(_seeds(n, key=1).upper, n, length, 6)

        def fail(*args, **kwargs):
            raise AssertionError("index rebuilt for a cached layout")

        seeds = _seeds(n, key=2)
        for name in ("argsort", "searchsorted", "repeat"):
            monkeypatch.setattr(np, name, fail)
        rows = _signed_mask_rows(seeds.upper, n, length, 6)
        monkeypatch.undo()
        assert np.array_equal(rows, _reference_rows(seeds, length))


class TestProtocol:
    def test_missing_participant_is_protocol_error(self):
        acc = SecureSum(_seeds(3, key=5), 2)
        acc.submit(0, np.ones(2))
        acc.submit(2, np.ones(2))
        with pytest.raises(ProtocolError, match=r"missing participants \[1\]"):
            acc.aggregate()
        # a partial batch names every client it left out
        acc = SecureSum(_seeds(5, key=5), 2)
        acc.submit(np.array([3, 0]), np.ones((2, 2)))
        with pytest.raises(ProtocolError, match=r"missing participants \[1, 2, 4\]"):
            acc.aggregate()

    def test_duplicate_participant_is_protocol_error(self):
        # the rejected resubmission leaves the total untouched
        acc = SecureSum(_seeds(2, key=6), 2)
        acc.submit(0, np.ones(2))
        with pytest.raises(ProtocolError):
            acc.submit(0, np.full(2, 5.0))
        acc.submit(1, np.ones(2))
        assert acc.aggregate().tolist() == [2.0, 2.0]
        # across batches: a batch that repeats one earlier client is
        # rejected whole, fresh clients in it included
        acc = SecureSum(_seeds(4, key=6), 2)
        acc.submit(np.array([0, 1]), np.ones((2, 2)))
        with pytest.raises(ProtocolError, match=r"clients \[1\]"):
            acc.submit(np.array([2, 1]), np.full((2, 2), 5.0))
        with pytest.raises(ProtocolError, match="missing participants"):
            acc.aggregate()
        acc.submit(np.array([3, 2]), np.ones((2, 2)))
        assert acc.aggregate().tolist() == [4.0, 4.0]

    def test_empty_cohort_rejected(self):
        with pytest.raises(InvalidArgument):
            PairwiseSeeds(0, np.zeros(0, dtype=np.uint64))
        with pytest.raises(InvalidArgument):
            PairwiseSeeds.generate(0, make_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_generate_draws_the_words_of_integers(self, n):
        # the raw draw returns integers(0, 2**64)'s words and leaves the
        # generator where that call would
        rng, ref = make_rng(n), make_rng(n)
        seeds = PairwiseSeeds.generate(n, rng)
        words = ref.integers(0, 2**64, size=n * (n - 1) // 2, dtype=np.uint64)
        assert seeds.upper.tobytes() == words.tobytes()
        assert rng.random() == ref.random()

    def test_equality_is_identity_and_hashable(self):
        # comparing field tuples of arrays would raise "truth value ambiguous"
        a, b = _seeds(3), _seeds(3)
        assert a == a
        assert (a == b) is False
        assert len({a, b, a}) == 2

    def test_seed_vector_must_hold_one_seed_per_pair(self):
        for n, shape in ((3, 2), (3, 4), (2, (1, 1)), (1, 1)):
            with pytest.raises(InvalidArgument, match="pair seeds"):
                PairwiseSeeds(n, np.zeros(shape, dtype=np.uint64))


class TestSecureSum:
    def test_collects_only_the_sum(self):
        seeds = _seeds(3, key=8)
        acc = SecureSum(seeds, 2)
        vectors = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([-1.0, 0.5])]
        for i, v in enumerate(vectors):
            acc.submit(i, v)
        assert np.allclose(acc.aggregate(), [3.0, 6.5], atol=1e-5)

    def test_aggregate_before_complete_raises(self):
        acc = SecureSum(_seeds(2, key=9), 2)
        acc.submit(0, np.ones(2))
        with pytest.raises(ProtocolError):
            acc.aggregate()

    def test_duplicate_submission_raises(self):
        acc = SecureSum(_seeds(2, key=10), 2)
        acc.submit(0, np.ones(2))
        with pytest.raises(ProtocolError):
            acc.submit(0, np.ones(2))
        # the same index twice inside one batch
        acc = SecureSum(_seeds(3, key=10), 2)
        with pytest.raises(ProtocolError, match=r"clients \[2\]"):
            acc.submit(np.array([2, 0, 2]), np.ones((3, 2)))
        acc.submit(np.arange(3), np.ones((3, 2)))  # nothing was counted
        assert acc.aggregate().tolist() == [3.0, 3.0]

    def test_rows_must_match_the_indices(self):
        seeds = _seeds(3, key=14)
        for clients, plains in (
            (np.arange(2), np.ones(2)),           # 1-D vector for an index array
            (np.arange(2), np.ones((3, 2))),      # one row too many
            (0, np.ones((1, 2))),                 # a stack for one index
            (np.arange(2).reshape(1, 2), np.ones((1, 2, 2))),  # 2-D indices
            (np.array([0.0, 1.0]), np.ones((2, 2))),           # float indices
        ):
            with pytest.raises(InvalidArgument, match="do not match"):
                mask_set(seeds, clients, plains)
            with pytest.raises(InvalidArgument, match="do not match"):
                SecureSum(seeds, 2).submit(clients, plains)
        for plains in (np.ones((3, 3)), np.ones(1), np.float64(1.0)):
            with pytest.raises(InvalidArgument, match="of length 2"):
                SecureSum(seeds, 2).submit(np.arange(3), plains)

    def test_cohort_total_past_decode_range_raises_not_wraps(self):
        # each encoding (2**61.5) passes the per-vector 2**62 limit, but four
        # of them sum past 2**63 and would unmask to about -5.15e12
        acc = SecureSum(_seeds(4, key=13), 1)
        with pytest.raises(MaskRangeError):
            acc.submit(0, np.array([2.0 ** 61.5 / 2 ** DEFAULT_SCALE_BITS]))

    def test_cohort_total_inside_decode_range_is_exact(self):
        acc = SecureSum(_seeds(4, key=13), 1)
        v = 2.0 ** 60 / 2 ** DEFAULT_SCALE_BITS  # 4 * 2**60 = 2**62 < 2**63
        for i in range(4):
            acc.submit(i, np.array([v]))
        assert acc.aggregate().tolist() == [4 * v]

    def test_public_surface_exposes_no_per_client_data(self):
        # API-level hiding check: the only readable thing is the aggregate
        public = {name for name in dir(SecureSum) if not name.startswith("_")}
        assert public == {"submit", "aggregate", "n_clients"}

    def test_internal_total_is_masked_until_complete(self):
        seeds = _seeds(2, key=12)
        acc = SecureSum(seeds, 2)
        plain = np.array([5.0, -3.0])
        acc.submit(0, plain)
        scale = 1 << DEFAULT_SCALE_BITS
        encoding = np.rint(plain * scale).astype(np.int64).astype(np.uint64)
        assert not np.array_equal(acc._total, encoding)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_fuzzed_sums_within_bound(n, length, key):
    rng = make_rng(key)
    seeds = PairwiseSeeds.generate(n, rng)
    plains = [rng.uniform(-50, 50, size=length) for _ in range(n)]
    decoded = _secure_sum(seeds, plains)
    oracle = np.sum(np.stack(plains), axis=0)
    bound = n / (2.0 * (1 << DEFAULT_SCALE_BITS))
    assert np.all(np.abs(decoded - oracle) <= bound)


def test_masked_vector_is_immutable():
    mv = MaskedVector(np.array([1, 2], dtype=np.uint64), 1 << 20, 0, 1)
    with pytest.raises(ValueError):
        mv.values[0] = 7
