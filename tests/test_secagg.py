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
    _pair_masks,
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


def _reference_mask_set(seeds, client, plain, scale_bits=DEFAULT_SCALE_BITS):
    # one mask per peer, added by the lower index of the pair and
    # subtracted by the higher
    residues = _encode(plain, 1 << scale_bits, seeds.n_clients)
    for j in range(seeds.n_clients):
        if j == client:
            continue
        mask = _reference_pair_mask(int(seeds.matrix[client, j]), residues.shape[0])
        if client < j:
            residues = residues + mask
        else:
            residues = residues - mask
    return residues


@st.composite
def _seed_matrices(draw):
    """Symmetric seed matrices, random or with every entry near 2**64 - 1."""
    n = draw(st.integers(1, 40))
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        upper = np.triu(_UINT64_MAX - rng.integers(0, 16, size=(n, n), dtype=np.uint64), 1)
        return PairwiseSeeds(upper + upper.T)
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
    @given(_seed_matrices(), st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_mask_set_matches_per_peer_reference(self, seeds, length, key):
        plain = make_rng(key).uniform(-1e3, 1e3, size=length)
        for client in range(seeds.n_clients):
            masked = mask_set(seeds, client, plain)
            assert np.array_equal(masked.values, _reference_mask_set(seeds, client, plain))

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


class TestProtocol:
    def test_missing_participant_is_protocol_error(self):
        acc = SecureSum(_seeds(3, key=5), 2)
        acc.submit(0, np.ones(2))
        acc.submit(2, np.ones(2))
        with pytest.raises(ProtocolError, match=r"missing participants \[1\]"):
            acc.aggregate()

    def test_duplicate_participant_is_protocol_error(self):
        # the rejected resubmission leaves the total untouched
        acc = SecureSum(_seeds(2, key=6), 2)
        acc.submit(0, np.ones(2))
        with pytest.raises(ProtocolError):
            acc.submit(0, np.full(2, 5.0))
        acc.submit(1, np.ones(2))
        assert acc.aggregate().tolist() == [2.0, 2.0]

    def test_empty_cohort_rejected(self):
        with pytest.raises(InvalidArgument):
            PairwiseSeeds(np.zeros((0, 0), dtype=np.uint64))
        with pytest.raises(InvalidArgument):
            PairwiseSeeds.generate(0, make_rng(0))

    def test_seed_matrix_must_be_symmetric(self):
        with pytest.raises(Exception):
            PairwiseSeeds(np.array([[0, 1], [2, 0]], dtype=np.uint64))


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
