"""Masking simulation: cancellation, fixed-point bounds, protocol checks."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agfed.secagg
from agfed.core import InvalidArgument, make_rng
from agfed.secagg import (
    DEFAULT_SCALE_BITS,
    MaskRangeError,
    PairMasks,
    ProtocolError,
    SecureSum,
    _SCATTER_WORDS,
    _decode,
    _encode,
    _mask_rows,
    _scatter_index,
    mask_set,
)

_UINT64_MAX = (1 << 64) - 1


def _masks(n, length, key=0):
    return PairMasks.generate(n, length, make_rng(key))


def _secure_sum(masks, plains):
    """One 1-row submission per client, so the total accumulates across calls."""
    acc = SecureSum(masks)
    for i, plain in enumerate(plains):
        acc.submit(np.array([i]), plain[None])
    return acc.aggregate()


def _masked_row(masks, client, plain, **kwargs):
    """One client's message: the row of a 1-row ``mask_set`` batch."""
    return mask_set(masks, np.array([client]), np.asarray(plain)[None], **kwargs).values[0]


def _pair_mask(masks, i, j):
    """What client i adds for peer j, in Python ints, from the circulant definition.

    Client i adds word [d-1, i] where j = (i + d) mod n, and subtracts
    word [d-1, j] where i = (j + d) mod n, for offsets 1 <= d <= n // 2.
    """
    n, mask = masks.n_clients, [0] * masks.length
    ahead, behind = (j - i) % n, (i - j) % n
    if ahead <= n // 2:
        mask = [m + w for m, w in zip(mask, masks.words[ahead - 1, i].tolist())]
    if behind <= n // 2:
        mask = [m - w for m, w in zip(mask, masks.words[behind - 1, j].tolist())]
    return mask


def _reference_mask_set(masks, client, plain, scale_bits=DEFAULT_SCALE_BITS):
    # one mask per peer, in Python ints mod 2**64
    residues = _encode(plain, 1 << scale_bits, masks.n_clients).tolist()
    for peer in range(masks.n_clients):
        if peer != client:
            residues = [r + m for r, m in zip(residues, _pair_mask(masks, client, peer))]
    return np.array([r % (1 << 64) for r in residues], dtype=np.uint64)


def _reference_rows(masks):
    """Every client's signed mask row, each word added and subtracted once, in numpy."""
    n = masks.n_clients
    rows = np.zeros((n, masks.length), dtype=np.uint64)
    for d in range(1, n // 2 + 1):
        rows += masks.words[d - 1]
        rows -= np.roll(masks.words[d - 1], d, axis=0)
    return rows


def _rows_on_path(masks, path, monkeypatch, block=None):
    """``_mask_rows`` forced onto one path, the skewed one ``block`` offsets a copy."""
    n, length = masks.n_clients, masks.length
    monkeypatch.setattr(agfed.secagg, "_SCATTER_WORDS", -1 if path == "skewed" else 1 << 62)
    if block is not None:
        monkeypatch.setattr(agfed.secagg, "_BLOCK_WORDS", block * n * length)
    rows = _mask_rows(masks.words)
    monkeypatch.undo()
    return rows


@st.composite
def _cohort_masks(draw, most=40):
    """Cohort pair words: random, or every word near 2**64 - 1, in any memory order."""
    n, length = draw(st.integers(1, most)), draw(st.integers(1, 12))
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        shape = (n // 2, n, length)
        words = _UINT64_MAX - rng.integers(0, 16, size=shape, dtype=np.uint64)
        # a Fortran-ordered array is taken by value, as a C-ordered copy
        return PairMasks(n, np.asfortranarray(words) if draw(st.booleans()) else words)
    return PairMasks.generate(n, length, rng)


class TestMasking:
    def test_single_client_is_plain_encoding(self):
        masks = _masks(1, 3)
        plain = np.array([1.5, -2.25, 0.0])
        mv = mask_set(masks, np.array([0]), plain[None])
        scale = 1 << DEFAULT_SCALE_BITS
        expected = np.rint(plain * scale).astype(np.int64).astype(np.uint64)
        assert np.array_equal(mv.values, expected[None])
        assert np.array_equal(_secure_sum(masks, [plain]), plain)

    def test_two_client_masks_are_complementary(self):
        masks = _masks(2, 4)
        zero = np.zeros(4)
        a = _masked_row(masks, 0, zero)
        b = _masked_row(masks, 1, zero)
        total = a + b  # uint64 wraps mod 2**64
        assert np.all(total == 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_zero_plains_cancel_exactly(self, n):
        masks = _masks(n, 5, key=n)
        masked = [_masked_row(masks, i, np.zeros(5)) for i in range(n)]
        total = np.zeros(5, dtype=np.uint64)
        for row in masked:
            total = total + row
        assert np.all(total == 0)  # mask cancellation is exact mod 2**64
        assert np.array_equal(_secure_sum(masks, [np.zeros(5)] * n), np.zeros(5))

    def test_integer_counts_bit_exact(self):
        rng = make_rng(3)
        n = 6
        masks = _masks(n, 8, key=9)
        plains = [rng.integers(0, 1000, size=8).astype(np.float64) for _ in range(n)]
        assert np.array_equal(_secure_sum(masks, plains), sum(plains))

    def test_real_vector_sum_within_fixed_point_bound(self):
        rng = make_rng(4)
        n = 50
        masks = _masks(n, 16, key=11)
        plains = [rng.uniform(-100, 100, size=16) for _ in range(n)]
        decoded = _secure_sum(masks, plains)
        oracle = np.sum(np.stack(plains), axis=0)
        bound = n / (2.0 * (1 << DEFAULT_SCALE_BITS))
        assert np.all(np.abs(decoded - oracle) <= bound)

    def test_masked_value_differs_from_plain_encoding(self):
        masks = _masks(3, 3, key=21)
        plain = np.array([1.0, 2.0, 3.0])
        masked = _masked_row(masks, 0, plain)
        unmasked = _masked_row(_masks(1, 3), 0, plain)
        assert not np.array_equal(masked, unmasked)

    def test_encoding_overflow_rejected(self):
        too_big = np.array([2.0 ** 45])  # 2**45 * 2**20 > 2**62
        with pytest.raises(MaskRangeError):
            mask_set(_masks(2, 1), np.array([0]), too_big[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(MaskRangeError):
            mask_set(_masks(2, 2), np.array([0]), np.array([[0.5, bad]]))

    def test_client_index_out_of_cohort_rejected(self):
        # checked before the mask rows are indexed, where -1 would
        # silently pick the last client's row
        masks = _masks(2, 2)
        for client in (-1, 2, 5):
            with pytest.raises(InvalidArgument, match="outside cohort of 2"):
                mask_set(masks, np.array([client]), np.zeros((1, 2)))
            with pytest.raises(InvalidArgument, match="outside cohort of 2"):
                SecureSum(masks).submit(np.array([client]), np.zeros((1, 2)))
        # inside an index array, the error names every bad index once
        for clients, named in (([0, -1], r"\[-1\]"), ([2, 1], r"\[2\]"),
                               ([2, -1, 2], r"\[-1, 2\]")):
            plains = np.zeros((len(clients), 2))
            with pytest.raises(InvalidArgument, match=named + " outside cohort of 2"):
                mask_set(masks, np.array(clients), plains)
            acc = SecureSum(masks)
            with pytest.raises(InvalidArgument, match=named + " outside cohort of 2"):
                acc.submit(np.array(clients), plains)
            acc.submit(np.arange(2), np.ones((2, 2)))  # nothing was counted
            assert acc.aggregate().tolist() == [2.0, 2.0]


class TestPairMasks:
    @settings(max_examples=60, deadline=None)
    @given(_cohort_masks(), st.integers(0, 2**31 - 1))
    def test_mask_set_matches_per_peer_reference(self, masks, key):
        rng = make_rng(key)
        plain = rng.uniform(-1e3, 1e3, size=masks.length)
        for client in range(masks.n_clients):
            masked = _masked_row(masks, client, plain)
            assert np.array_equal(masked, _reference_mask_set(masks, client, plain))
        # an index array, in cohort order or any other, gives the stacked rows
        plains = rng.uniform(-1e3, 1e3, size=(masks.n_clients, masks.length))
        for clients in (np.arange(masks.n_clients), rng.permutation(masks.n_clients)):
            stacked = np.stack([_reference_mask_set(masks, c, v)
                                for c, v in zip(clients, plains)])
            assert np.array_equal(mask_set(masks, clients, plains).values, stacked)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_cohorts_match_reference(self, n):
        masks = _masks(n, 3, key=17)
        plain = np.array([0.25, -7.5, 3.0])
        for client in range(n):
            assert np.array_equal(_masked_row(masks, client, plain),
                                  _reference_mask_set(masks, client, plain))

    @pytest.mark.parametrize("n, length", [(1, 3), (5, 3), (5, 8), (100, 2)])
    def test_width_other_than_the_words_length_rejected(self, n, length):
        masks = _masks(n, length)
        acc = SecureSum(masks)
        for width in (length - 1, length + 1):
            plains = np.ones((n, width))
            with pytest.raises(InvalidArgument, match=f"of length {length}"):
                mask_set(masks, np.arange(n), plains)
            with pytest.raises(InvalidArgument, match=f"of length {length}"):
                acc.submit(np.arange(n), plains)
        acc.submit(np.arange(n), np.ones((n, length)))  # nothing was counted
        assert acc.aggregate().tolist() == [float(n)] * length


class TestBlockedMaskRows:
    """The skewed sum copies a block of offset rows at a time."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 300])
    def test_blocks_match_one_unblocked_pass(self, n, monkeypatch):
        # blocks of 1, 3 and 64 offsets: a block of 3 ends on n = 7's last
        # offset (3) and one short of n = 8's and 9's (4), and only
        # n = 300 (150 offsets) fills a block of 64
        masks = _masks(n, 5, key=n)
        unblocked = _rows_on_path(masks, "skewed", monkeypatch, block=max(n // 2, 1))
        for block in (1, 3, 64):
            assert np.array_equal(_rows_on_path(masks, "skewed", monkeypatch, block), unblocked)
        assert np.array_equal(unblocked, _reference_rows(masks))

    def test_rows_are_the_signed_pair_sums(self, monkeypatch):
        n = 9
        masks = _masks(n, 4, key=23)
        rows = _rows_on_path(masks, "skewed", monkeypatch, block=2)
        for i in range(n):
            expected = [0] * 4
            for j in range(n):
                if j != i:
                    expected = [e + m for e, m in zip(expected, _pair_mask(masks, i, j))]
            assert rows[i].tolist() == [e % (1 << 64) for e in expected]


@settings(max_examples=60, deadline=None)
@given(_cohort_masks(most=60), st.integers(1, 8))
@example(PairMasks(1, np.full((0, 1, 3), _UINT64_MAX, dtype=np.uint64)), 1)
@example(PairMasks(2, np.full((1, 2, 1), _UINT64_MAX, dtype=np.uint64)), 1)
@example(PairMasks(4, np.full((2, 4, 2), _UINT64_MAX, dtype=np.uint64)), 2)
def test_rows_of_both_paths_equal_the_per_peer_reference_and_cancel(masks, block):
    # a pair shares one word each way it is reached: once for odd n, and
    # twice at offset n / 2 for even n
    n = masks.n_clients
    for i in range(n):
        for j in range(i + 1, n):
            reached = ((j - i) % n <= n // 2) + ((i - j) % n <= n // 2)
            assert reached == (2 if 2 * (j - i) == n else 1)
    # a zero vector encodes to zeros, so its message is the mask row
    expected = np.stack([_reference_mask_set(masks, i, np.zeros(masks.length))
                         for i in range(n)])
    with pytest.MonkeyPatch.context() as monkeypatch:
        scattered = _rows_on_path(masks, "scattered", monkeypatch)
        skewed = _rows_on_path(masks, "skewed", monkeypatch, block)
    for rows in (scattered, skewed):
        assert rows.dtype == np.uint64 and np.array_equal(rows, expected)
        assert not rows.sum(axis=0, dtype=np.uint64).any()  # exact mod 2**64


@st.composite
def _shape_either_side(draw):
    """(n, L) whose floor(n/2) x n x L pair words are at most ``_SCATTER_WORDS``, or above it."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        most = max(1, _SCATTER_WORDS // max(1, n // 2 * n))
        return n, draw(st.integers(1, min(most, 64)))
    n = draw(st.integers(2, 60))
    least = _SCATTER_WORDS // (n // 2 * n) + 1
    return n, draw(st.integers(least, least + 3))


class TestScatteredMaskRows:
    """Small sums scatter the words they subtract; larger ones take the skewed sum."""

    @settings(max_examples=40, deadline=None)
    @given(_shape_either_side(), st.integers(1, 2**31 - 1), st.integers(1, 4))
    @example((1, 7), 5, 1)
    @example((2, 3), 6, 1)
    @example((2, _SCATTER_WORDS // 2 + 1), 7, 1)
    @example((3, _SCATTER_WORDS // 3), 8, 2)
    def test_mask_set_matches_per_peer_reference(self, shape, key, batch):
        n, length = shape
        rng = make_rng(key)
        masks = PairMasks.generate(n, length, rng)
        # a batch of k <= n clients, in any order; the per-peer reference
        # costs O(n) Python-int masks a client, so a batch holds at most 4
        k = min(n, batch)
        clients = rng.permutation(n)[:k]
        plains = rng.uniform(-1e3, 1e3, size=(k, length))
        stacked = np.stack([_reference_mask_set(masks, c, v) for c, v in zip(clients, plains)])
        assert np.array_equal(mask_set(masks, clients, plains).values, stacked)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 30])
    def test_rows_equal_the_blocked_rows_at_every_block_size(self, n, monkeypatch):
        for length in (1, 4):
            masks = _masks(n, length, key=n)
            scattered = _rows_on_path(masks, "scattered", monkeypatch)
            assert scattered.shape == (n, length) and scattered.dtype == np.uint64
            for block in range(1, n // 2 + 1):
                assert np.array_equal(scattered,
                                      _rows_on_path(masks, "skewed", monkeypatch, block))

    @pytest.mark.parametrize("n, length, scattered", [
        (2, _SCATTER_WORDS // 2, True), (2, _SCATTER_WORDS // 2 + 1, False),
        (10, 10, True), (100, 4, False)])
    def test_mask_set_takes_the_path_of_its_size(self, monkeypatch, n, length, scattered):
        # the size check is in _mask_rows: the threshold's own size still
        # scatters through the cached index, a larger one never reads it
        indexed = []

        def spy(*args, _real=_scatter_index):
            indexed.append(args)
            return _real(*args)

        monkeypatch.setattr(agfed.secagg, "_scatter_index", spy)
        masks = _masks(n, length, key=length)
        plains = make_rng(length).uniform(-1e3, 1e3, size=(n, length))
        masked = mask_set(masks, np.arange(n), plains).values
        assert indexed == ([(n, length)] if scattered else [])
        monkeypatch.undo()
        assert np.array_equal(masked, _encode(plains, 1 << DEFAULT_SCALE_BITS, n)
                              + _reference_rows(masks))

    @pytest.mark.parametrize("n, length", [(3, 2), (100, 1), (100, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 45])
    def test_unencodable_values_rejected_on_both_paths(self, n, length, bad):
        # (3, 2) and (100, 1), 5,000 words, scatter; (100, 2) takes the
        # skewed sum
        plains = np.zeros((n, length))
        plains[n // 2, length - 1] = bad
        with pytest.raises(MaskRangeError):
            mask_set(_masks(n, length), np.arange(n), plains)
        with pytest.raises(MaskRangeError):
            SecureSum(_masks(n, length)).submit(np.arange(n), plains)

    def test_layout_is_cached_read_only_and_builds_no_index(self, monkeypatch):
        index = _scatter_index(9, 3)
        assert _scatter_index(9, 3) is index and index.shape == (4 * 9 * 3,)
        with pytest.raises(ValueError):
            index[0] = 1

        def fail(*args, **kwargs):
            raise AssertionError("index rebuilt for a cached layout")

        masks = _masks(9, 3, key=4)
        monkeypatch.setattr(np, "arange", fail)
        rows = _mask_rows(masks.words)
        monkeypatch.undo()
        assert np.array_equal(rows, _reference_rows(masks))


class TestPairLayoutCache:
    """The one cached layout: the scatter index of each (n, L)."""

    # more shapes than the cache holds, some of them twice, on both paths
    SHAPES = [(7, 5), (9, 5), (7, 3), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (8, 2),
              (10, 3), (300, 5), (7, 5), (9, 5), (60, 4)]

    def test_interleaved_shapes_match_reference(self):
        for key, (n, length) in enumerate(self.SHAPES):
            masks = _masks(n, length, key=key)
            plains = make_rng(key).uniform(-1e3, 1e3, size=(n, length))
            masked = mask_set(masks, np.arange(n), plains).values
            if n > 10:  # the per-peer reference is O(n**2) for a whole cohort
                assert np.array_equal(masked, _encode(plains, 1 << DEFAULT_SCALE_BITS, n)
                                      + _reference_rows(masks))
                continue
            for client in range(n):
                assert np.array_equal(masked[client],
                                      _reference_mask_set(masks, client, plains[client]))
        assert _scatter_index.cache_info().maxsize == 8


class TestProtocol:
    def test_missing_participant_is_protocol_error(self):
        acc = SecureSum(_masks(3, 2, key=5))
        acc.submit(np.array([0]), np.ones((1, 2)))
        acc.submit(np.array([2]), np.ones((1, 2)))
        with pytest.raises(ProtocolError, match=r"missing participants \[1\]"):
            acc.aggregate()
        # a partial batch names every client it left out
        acc = SecureSum(_masks(5, 2, key=5))
        acc.submit(np.array([3, 0]), np.ones((2, 2)))
        with pytest.raises(ProtocolError, match=r"missing participants \[1, 2, 4\]"):
            acc.aggregate()

    def test_duplicate_participant_is_protocol_error(self):
        # the rejected resubmission leaves the total untouched
        acc = SecureSum(_masks(2, 2, key=6))
        acc.submit(np.array([0]), np.ones((1, 2)))
        with pytest.raises(ProtocolError):
            acc.submit(np.array([0]), np.full((1, 2), 5.0))
        acc.submit(np.array([1]), np.ones((1, 2)))
        assert acc.aggregate().tolist() == [2.0, 2.0]
        # across batches: a batch that repeats one earlier client is
        # rejected whole, fresh clients in it included
        acc = SecureSum(_masks(4, 2, key=6))
        acc.submit(np.array([0, 1]), np.ones((2, 2)))
        with pytest.raises(ProtocolError, match=r"clients \[1\]"):
            acc.submit(np.array([2, 1]), np.full((2, 2), 5.0))
        with pytest.raises(ProtocolError, match="missing participants"):
            acc.aggregate()
        acc.submit(np.array([3, 2]), np.ones((2, 2)))
        assert acc.aggregate().tolist() == [4.0, 4.0]

    def test_empty_cohort_rejected(self):
        with pytest.raises(InvalidArgument):
            PairMasks(0, np.zeros((1, 0), dtype=np.uint64))
        with pytest.raises(InvalidArgument):
            PairMasks.generate(0, 1, make_rng(0))
        # and a vector needs a word per pair at least
        with pytest.raises(InvalidArgument):
            PairMasks.generate(2, 0, make_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_generate_draws_the_words_of_integers(self, n):
        # the raw draw returns integers(0, 2**64)'s words in (offset,
        # client, coordinate) order
        masks = PairMasks.generate(n, 3, make_rng(n))
        words = make_rng(n).integers(0, 2**64, size=n // 2 * n * 3, dtype=np.uint64)
        assert masks.words.shape == (n // 2, n, 3) and masks.length == 3
        assert masks.words.flags.c_contiguous
        assert masks.words.tobytes() == words.tobytes()
        with pytest.raises(ValueError):
            masks.words.reshape(-1)[:1] = 1

    @pytest.mark.parametrize("n, length", [(1, 4), (2, 1), (3, 5), (10, 1), (10, 3), (100, 7),
                                           (101, 7)])
    def test_generate_leaves_the_generator_where_integers_would(self, n, length):
        rng, ref = make_rng(n, length), make_rng(n, length)
        PairMasks.generate(n, length, rng)
        ref.integers(0, 2**64, size=n // 2 * n * length, dtype=np.uint64)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()

    def test_equality_is_identity_and_hashable(self):
        # comparing field tuples of arrays would raise "truth value ambiguous"
        a, b = _masks(3, 2), _masks(3, 2)
        assert a == a
        assert (a == b) is False
        assert len({a, b, a}) == 2

    def test_seed_vector_must_hold_one_seed_per_pair(self):
        # exactly (n // 2, n, L >= 1): every other 3-D shape near it, and
        # any 1-, 2- or 4-D one, is rejected
        for n in range(1, 7):
            for shape in itertools.product(range(4), range(8), range(3)):
                words = np.zeros(shape, dtype=np.uint64)
                if shape[:2] == (n // 2, n) and shape[2] >= 1:
                    assert PairMasks(n, words).length == shape[2]
                    continue
                with pytest.raises(InvalidArgument, match=rf"\({n // 2}, {n}, L >= 1\) pair words"):
                    PairMasks(n, words)
            for shape in ((n // 2 * n,), (n // 2, n), (n // 2, n, 1, 1), (1, n // 2, n, 1)):
                with pytest.raises(InvalidArgument, match="pair words"):
                    PairMasks(n, np.zeros(shape, dtype=np.uint64))


class TestSecureSum:
    def test_collects_only_the_sum(self):
        acc = SecureSum(_masks(3, 2, key=8))
        vectors = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([-1.0, 0.5])]
        for i, v in enumerate(vectors):
            acc.submit(np.array([i]), v[None])
        assert np.allclose(acc.aggregate(), [3.0, 6.5], atol=1e-5)

    def test_aggregate_before_complete_raises(self):
        acc = SecureSum(_masks(2, 2, key=9))
        acc.submit(np.array([0]), np.ones((1, 2)))
        with pytest.raises(ProtocolError):
            acc.aggregate()

    def test_duplicate_submission_raises(self):
        acc = SecureSum(_masks(2, 2, key=10))
        acc.submit(np.array([0]), np.ones((1, 2)))
        with pytest.raises(ProtocolError):
            acc.submit(np.array([0]), np.ones((1, 2)))
        # the same index twice inside one batch
        acc = SecureSum(_masks(3, 2, key=10))
        with pytest.raises(ProtocolError, match=r"clients \[2\]"):
            acc.submit(np.array([2, 0, 2]), np.ones((3, 2)))
        acc.submit(np.arange(3), np.ones((3, 2)))  # nothing was counted
        assert acc.aggregate().tolist() == [3.0, 3.0]

    def test_rows_must_match_the_indices(self):
        masks = _masks(3, 2, key=14)
        for clients, plains in (
            (np.arange(2), np.ones(2)),           # 1-D vector for an index array
            (np.arange(2), np.ones((3, 2))),      # one row too many
            (0, np.ones(2)),                      # one int index with its vector
            (0, np.ones((1, 2))),                 # an int index with a 1-row stack
            (np.arange(2).reshape(1, 2), np.ones((1, 2, 2))),  # 2-D indices
            (np.array([0.0, 1.0]), np.ones((2, 2))),           # float indices
            (np.arange(3), np.ones(1)),           # one value for three clients
            (np.arange(3), np.float64(1.0)),      # a scalar
        ):
            with pytest.raises(InvalidArgument, match="do not match"):
                mask_set(masks, clients, plains)
            with pytest.raises(InvalidArgument, match="do not match"):
                SecureSum(masks).submit(clients, plains)
        with pytest.raises(InvalidArgument, match="of length 2"):
            SecureSum(masks).submit(np.arange(3), np.ones((3, 3)))

    def test_cohort_total_past_decode_range_raises_not_wraps(self):
        # each encoding (2**61.5) passes the per-vector 2**62 limit, but four
        # of them sum past 2**63 and would unmask to about -5.15e12
        acc = SecureSum(_masks(4, 1, key=13))
        with pytest.raises(MaskRangeError):
            acc.submit(np.array([0]), np.array([[2.0 ** 61.5 / 2 ** DEFAULT_SCALE_BITS]]))

    def test_cohort_total_inside_decode_range_is_exact(self):
        acc = SecureSum(_masks(4, 1, key=13))
        v = 2.0 ** 60 / 2 ** DEFAULT_SCALE_BITS  # 4 * 2**60 = 2**62 < 2**63
        for i in range(4):
            acc.submit(np.array([i]), np.array([[v]]))
        assert acc.aggregate().tolist() == [4 * v]

    def test_public_surface_exposes_no_per_client_data(self):
        # API-level hiding check: the only readable thing is the aggregate
        public = {name for name in dir(SecureSum) if not name.startswith("_")}
        assert public == {"submit", "aggregate", "n_clients"}

    def test_internal_total_is_masked_until_complete(self):
        acc = SecureSum(_masks(2, 2, key=12))
        plain = np.array([5.0, -3.0])
        acc.submit(np.array([0]), plain[None])
        scale = 1 << DEFAULT_SCALE_BITS
        encoding = np.rint(plain * scale).astype(np.int64).astype(np.uint64)
        assert not np.array_equal(acc._total, encoding)


@st.composite
def _batched_cohort(draw):
    """(masks, batches): a cohort in random order, cut into nonempty batches.

    Up to 40 clients and L = 8, so some sums take the skewed sum.
    """
    n, length = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    masks = PairMasks.generate(n, length, make_rng(draw(st.integers(0, 2**31 - 1))))
    order = np.array(draw(st.permutations(range(n))))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                                  np.uint8, np.uint16, np.uint32, np.uint64]))
    return masks, [batch.astype(dtype) for batch in np.split(order, cuts)]


def _bookkeeping(acc):
    """What a rejected batch must leave as it was: the total, the counts, the row count."""
    return (None if acc._total is None else acc._total.tobytes(),
            None if acc._counts is None else acc._counts.tolist(), acc._submitted)


@settings(max_examples=60, deadline=None)
@given(_batched_cohort(), st.integers(0, 2**31 - 1))
def test_batches_in_any_order_give_the_whole_cohort_bytes(cohort, key):
    masks, batches = cohort
    n, length = masks.n_clients, masks.length
    plains = make_rng(key).uniform(-1e3, 1e3, size=(n, length))
    whole = SecureSum(masks)
    whole.submit(np.arange(n), plains)
    acc, sent = SecureSum(masks), []
    for batch in batches:
        # aggregate names exactly the clients not yet submitted
        missing = sorted(set(range(n)) - set(sent))
        with pytest.raises(ProtocolError, match=re.escape(f"participants {missing};")):
            acc.aggregate()
        # a repeated index, an index already sent, a negative index and one
        # >= n (uint64 ones among them) are rejected and change nothing
        bad = [(np.concatenate((batch, batch[:1])), ProtocolError),
               (np.array([-1]), InvalidArgument), (np.array([n]), InvalidArgument),
               (np.array([2**63, 0], dtype=np.uint64), InvalidArgument),
               (np.array([2**64 - 1], dtype=np.uint64), InvalidArgument)]
        if sent:
            bad.append((np.concatenate((batch, [sent[0]])).astype(np.int64), ProtocolError))
        for clients, error in bad:
            before = _bookkeeping(acc)
            with pytest.raises(error):
                acc.submit(clients, np.ones((clients.shape[0], length)))
            assert _bookkeeping(acc) == before
        acc.submit(batch, plains[batch.astype(np.intp)])
        sent += batch.tolist()
    assert acc.aggregate().tobytes() == whole.aggregate().tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_fuzzed_sums_within_bound(n, length, key):
    rng = make_rng(key)
    masks = PairMasks.generate(n, length, rng)
    plains = [rng.uniform(-50, 50, size=length) for _ in range(n)]
    decoded = _secure_sum(masks, plains)
    oracle = np.sum(np.stack(plains), axis=0)
    bound = n / (2.0 * (1 << DEFAULT_SCALE_BITS))
    assert np.all(np.abs(decoded - oracle) <= bound)


def test_masked_vector_is_immutable():
    # mask_set's messages, a 1-row batch or a whole cohort's, are read-only
    masks = _masks(4, 3, key=3)
    for client, plain in ((np.array([2]), np.ones((1, 3))), (np.arange(4), np.ones((4, 3)))):
        mv = mask_set(masks, client, plain, scale_bits=10)
        assert (mv.scale, mv.n_clients) == (1 << 10, 4)
        assert np.array_equal(mv.client_index, client)
        with pytest.raises(ValueError):
            mv.values[0] = 7
        # a NamedTuple: its fields cannot be reassigned
        with pytest.raises(AttributeError):
            mv.values = np.zeros_like(mv.values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, _UINT64_MAX), min_size=1, max_size=20), st.integers(0, 62))
@example([0, 2**63 - 1, 2**63, _UINT64_MAX], 0)
@example([0, 2**63 - 1, 2**63, _UINT64_MAX], DEFAULT_SCALE_BITS)
def test_decode_by_view_equals_the_astype_chain(residues, scale_bits):
    residues = np.array(residues, dtype=np.uint64)
    scale = 1 << scale_bits
    expected = residues.astype(np.int64).astype(np.float64) / scale
    assert _decode(residues, scale).tobytes() == expected.tobytes()
