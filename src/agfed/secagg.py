"""Simulated secure aggregation via pairwise additive masking.

Each client encodes its real-valued vector into fixed-point residues
modulo 2**64 and adds one mask per peer, built so that mask(i, j) =
-mask(j, i) mod 2**64. Summing the full cohort's masked vectors cancels
every mask exactly, so the unmasking side recovers the fixed-point sum
of the plaintexts and nothing else. Integers below the scale's range
survive bit-exactly; reals carry at most n / (2 * scale) absolute error
per coordinate after summing n vectors.

Each pair (i, j), i < j, shares L words drawn for the sum at hand: the
lower index adds them and the higher subtracts them. A cohort sum draws
all n(n-1)/2 x L words at once from the run's mask generator and keeps
them while it is open (28 MB for 1000 clients and L = 7). ``mask_set``
builds the clients' signed mask rows from them in one of two ways that
give the same rows, bit for bit, since sums mod 2**64 are exact in any
order. A sum of at most ``_SCATTER_WORDS`` pair words scatters them with
one ``np.add.at`` and one ``np.subtract.at``: at that size numpy's
per-call overhead, not the words, sets the cost. A larger one reduces
the words with two ``np.add.reduceat`` passes (pairs grouped by lower
index add, by higher index subtract) in blocks of lower indices that
bound the temporaries. Both index layouts depend only on n, L and the
block, so they are built once and cached read-only (at most 8 each,
holding no mask word and no client data).

``mask_set`` and ``SecureSum.submit`` take a 1-D array of client indices
with one row per index, so a whole cohort is masked and submitted in one
call of O(1) numpy operations; one client sends a 1-row batch. Each
client's message is still its own masked row, and the server reads only
the total. Each check happens once, where it is first possible:

- ``PairMasks(n, words)`` checks the words' shape; ``PairMasks.generate``
  trusts the shape of its own draw.
- ``mask_set`` checks that the indices are a 1-D integer array (of any
  integer dtype, uint64 included) matching the (k, L) rows. Then its one
  index pass: ``take`` of the clients' mask rows rejects an index >= n,
  and one ``np.bincount`` of the indices, which so never counts past n,
  rejects a negative one (both ``InvalidArgument``). ``_encode`` rejects
  a value whose encoding could push an n-client total out of the signed
  decode range, n * |r * scale| >= 2**63 (``MaskRangeError``).
- ``SecureSum.submit`` adds the batch's counts to the earlier ones.
  They sum to the rows submitted, so one ``np.count_nonzero`` finds a
  duplicate, within the batch or across batches (``ProtocolError``). A
  rejected batch changes nothing.
- ``SecureSum.aggregate`` compares the rows submitted with n and reads
  the counts only to name the missing clients (``ProtocolError``).

This is a SIMULATION OF THE AGGREGATION SEMANTICS ONLY. There is no key
agreement, no cryptographic PRG, and no dropout recovery: the pair words
come from the run's mask generator (``server.run_streams``). Do not
mistake this module for a security implementation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import InvalidArgument

# Fixed-point scale: reals are stored as round(r * 2**20) residues.
DEFAULT_SCALE_BITS = 20

# Each encoding stays well inside the 2**64 modulus, and a cohort of n keeps
# n * max|encoding| below the signed decode range, so sums cannot wrap.
_ENCODE_LIMIT = float(1 << 62)
_DECODE_LIMIT = float(1 << 63)
# Pair words gathered at once when reducing a cohort's mask rows
_BLOCK_WORDS = 1 << 17
# Pair words, n(n-1)/2 x L, up to which a sum's mask rows are
# scattered rather than reduced in blocks: the two measured level near
# 3,000 words for L = 2 and L = 4 (numpy 2.4.6 on a 2-core AVX-512 Xeon)
_SCATTER_WORDS = 3000


class MaskRangeError(ValueError):
    """Raised when a value is too large for the fixed-point encoding."""


class ProtocolError(RuntimeError):
    """Raised when the aggregation cohort is incomplete or inconsistent."""


def _encode(plain: np.ndarray, scale: int, n_clients: int) -> np.ndarray:
    scaled = np.rint(plain * scale)
    limit = min(_ENCODE_LIMIT, _DECODE_LIMIT / n_clients)
    # one reduction: NaN propagates through the max, and NaN and +-inf
    # fail the comparison
    if not np.abs(scaled).max(initial=0.0) < limit:
        raise MaskRangeError(
            f"value magnitude exceeds fixed-point range for a cohort of {n_clients} "
            f"(|r * {scale}| >= min(2**62, 2**63 / {n_clients}))"
        )
    return scaled.astype(np.int64).view(np.uint64)


def _decode(residues: np.ndarray, scale: int) -> np.ndarray:
    # centered lift: residues >= 2**63 represent negative fixed-point sums
    return residues.view(np.int64) / scale


@dataclass(frozen=True, eq=False)
class PairMasks:
    """The mask words an n-client cohort's pairs share, for vectors of length L.

    ``words`` is a (L, n(n-1)/2) uint64 array: column c holds the L
    words of pair c, pairs in ``np.triu_indices(n, k=1)`` order (grouped
    by lower index), and row k holds word k of every pair. It is taken
    as given and made read-only, not copied. Equality and hashing are by
    identity, as for ``core.Population``: arrays have no single truth
    value to compare fields by.
    """

    n_clients: int
    words: np.ndarray

    def __post_init__(self):
        if self.n_clients < 1:
            raise InvalidArgument("cohort needs at least one client")
        words = np.asarray(self.words, dtype=np.uint64)
        pairs = self.n_clients * (self.n_clients - 1) // 2
        if words.ndim != 2 or words.shape[0] < 1 or words.shape[1] != pairs:
            raise InvalidArgument(f"a cohort of {self.n_clients} needs (L >= 1, {pairs}) "
                                  f"pair words, got shape {words.shape}")
        words.flags.writeable = False
        object.__setattr__(self, "words", words)

    @property
    def length(self) -> int:
        """L, the length of the vectors these words mask."""
        return self.words.shape[0]

    @staticmethod
    def generate(n_clients: int, length: int, rng: np.random.Generator) -> "PairMasks":
        """Fresh words for an n-client cohort: L x n(n-1)/2 drawn from ``rng``.

        The words are the bit generator's raw 64-bit outputs, which are
        the words ``rng.integers(0, 2**64, size=L * pairs, dtype=np.uint64)``
        returns, in that order, and the draw leaves ``rng`` in the same
        state as that call. The constructor's checks are skipped.
        """
        if n_clients < 1 or length < 1:
            raise InvalidArgument(f"need at least one client and vector length >= 1, "
                                  f"got {n_clients} and {length}")
        pairs = n_clients * (n_clients - 1) // 2
        words = rng.bit_generator.random_raw(length * pairs).reshape(length, pairs)
        words.setflags(write=False)
        masks = object.__new__(PairMasks)
        masks.__dict__.update(n_clients=n_clients, words=words)
        return masks


class MaskedVector(NamedTuple):
    """Fixed-point residues of clients' vectors plus all their pair masks.

    ``values`` is the read-only (k, L) stack of messages, one row per
    client. The rest is protocol bookkeeping: the 1-D index array of the
    slots the rows fill, the cohort size, and the index pass's
    ``np.bincount``, the rows each of the n slots holds.
    """

    values: np.ndarray
    scale: int
    client_index: np.ndarray
    n_clients: int
    counts: np.ndarray


class _PairBlock(NamedTuple):
    """Where the pairs of one block of lower-index clients go."""

    lowers: slice               # clients a..b-1, the lower index of each pair
    pairs: slice                # their pairs' columns of the words
    lower_starts: np.ndarray    # reduceat starts of each lower's pairs
    by_higher: np.ndarray       # the pairs, stably grouped by higher index
    higher_starts: np.ndarray   # reduceat starts of higher a+1..n-1 in that order


@functools.lru_cache(maxsize=8)
def _pair_layout(n: int, block: int) -> tuple[_PairBlock, ...]:
    """The blocks of ``block`` lower indices of an n-client cohort's pairs."""
    # first[i]: column of pair (i, i + 1) in the words
    first = np.arange(n) * (2 * n - np.arange(n) - 1) // 2
    blocks = []
    for a in range(0, n - 1, block):
        lowers = np.arange(a, min(a + block, n - 1))  # each has a pair
        starts = first[lowers] - first[a]
        end = first[lowers[-1] + 1]
        partners = n - 1 - lowers
        higher = (np.arange(end - first[a]) - np.repeat(starts, partners)
                  + np.repeat(lowers + 1, partners))
        by_higher = np.argsort(higher, kind="stable")
        # every higher index a+1..n-1 pairs with lower a, so no group is empty
        higher_starts = np.searchsorted(higher[by_higher], np.arange(a + 1, n))
        for arr in (starts, by_higher, higher_starts):
            arr.flags.writeable = False
        blocks.append(_PairBlock(slice(a, lowers[-1] + 1), slice(first[a], end),
                                 starts, by_higher, higher_starts))
    return tuple(blocks)


@functools.lru_cache(maxsize=8)
def _scatter_layout(n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Where word k of each pair goes in the flat (n x length) mask rows.

    Two read-only intp arrays in the (length x pairs) order of the
    words: the position in the lower index's row, which adds the word,
    and in the higher index's row, which subtracts it.
    """
    lower, higher = np.triu_indices(n, k=1)
    words = np.arange(length)[:, None]
    adds, subs = (lower * length + words).ravel(), (higher * length + words).ravel()
    adds.flags.writeable = subs.flags.writeable = False
    return adds, subs


def _scattered_mask_rows(words: np.ndarray, n: int) -> np.ndarray:
    # the rows _signed_mask_rows builds, from one scatter of every pair word
    length = words.shape[0]
    adds, subs = _scatter_layout(n, length)
    words = words.ravel()
    rows = np.zeros(n * length, dtype=np.uint64)
    np.add.at(rows, adds, words)
    np.subtract.at(rows, subs, words)
    return rows.reshape(n, length)


def _signed_mask_rows(words: np.ndarray, n: int, block: int) -> np.ndarray:
    # the words are reduced ``block`` lower indices at a time, which bounds
    # the gathered temporary at block * (n - 1) x length words; they run
    # along the rows of ``cols`` (length x n), so both reductions run over pairs
    cols = np.zeros((words.shape[0], n), dtype=np.uint64)
    for b in _pair_layout(n, block):
        part = words[:, b.pairs]
        cols[:, b.lowers] += np.add.reduceat(part, b.lower_starts, axis=1)
        cols[:, b.lowers.start + 1:] -= np.add.reduceat(
            part.take(b.by_higher, axis=1), b.higher_starts, axis=1)
    return cols.T


def mask_set(masks: PairMasks, clients: np.ndarray, plain: np.ndarray, *,
             scale_bits: int = DEFAULT_SCALE_BITS) -> MaskedVector:
    """Encode and mask a batch of clients' vectors.

    ``clients`` is a 1-D integer array of k indices and ``plain`` a
    (k, L) matrix, row r belonging to client ``clients[r]``, with L the
    masks' length; one client is a 1-row batch. The values are
    ``_encode(plain)`` plus each client's summed pair masks, one row per
    client: the lower index of each pair adds the pair's words and the
    higher one subtracts them, so the masks of a full cohort cancel.
    """
    n, words = masks.n_clients, masks.words
    clients = np.asarray(clients)
    plain = np.asarray(plain, dtype=np.float64)
    if (clients.ndim != 1 or clients.dtype.kind not in "iu"
            or plain.ndim != 2 or plain.shape[0] != clients.shape[0]):
        raise InvalidArgument(f"client indices of shape {clients.shape} ({clients.dtype}) "
                              f"do not match vectors of shape {plain.shape}")
    length = words.shape[0]
    if plain.shape[1] != length:
        raise InvalidArgument(f"expected vectors of length {length}, got shape {plain.shape}")
    if words.size <= _SCATTER_WORDS:
        rows = _scattered_mask_rows(words, n)
    else:
        rows = _signed_mask_rows(words, n, max(1, _BLOCK_WORDS // (n * length)))
    index = clients.astype(np.intp, copy=False)
    try:
        # take raises on an index >= n, so bincount never counts past n, and
        # bincount on a negative one (a uint64 index >= 2**63 is negative here)
        picked = rows.take(index, axis=0)
        counts = np.bincount(index, minlength=n)
    except (IndexError, ValueError):
        bad = clients[(clients < 0) | (clients >= n)]
        raise InvalidArgument(f"client indices {np.unique(bad).tolist()} "
                              f"outside cohort of {n}") from None
    scale = 1 << scale_bits
    values = _encode(plain, scale, n)
    values += picked
    values.setflags(write=False)
    return MaskedVector(values, scale, clients, n, counts)


class SecureSum:
    """Write-only accumulator: clients submit, the server reads one sum.

    The public surface deliberately exposes no per-client data. Submitted
    batches are masked at once; only their modular total is kept, with a
    submission count per client, both made by the first batch.
    """

    def __init__(self, masks: PairMasks, *, scale_bits: int = DEFAULT_SCALE_BITS):
        self._masks = masks
        self._scale_bits = scale_bits
        self._total = self._counts = None
        self._submitted = 0

    @property
    def n_clients(self) -> int:
        return self._masks.n_clients

    def submit(self, clients: np.ndarray, plain: np.ndarray) -> None:
        """Add the (k, L) rows of the clients in the 1-D index array ``clients``.

        ``mask_set`` checks the batch (``InvalidArgument``); a duplicate
        within it or against earlier batches raises ``ProtocolError``. A
        rejected batch leaves the total and the counts untouched.
        """
        mv = mask_set(self._masks, clients, plain, scale_bits=self._scale_bits)
        counts = mv.counts if self._counts is None else self._counts + mv.counts
        submitted = self._submitted + mv.values.shape[0]
        # the counts sum to ``submitted``, so as many are nonzero only
        # when each is 0 or 1
        if np.count_nonzero(counts) != submitted:
            raise ProtocolError(
                f"duplicate submission from clients {np.flatnonzero(counts > 1).tolist()}")
        total = mv.values.sum(axis=0)
        if self._total is not None:
            total += self._total
        self._total, self._counts, self._submitted = total, counts, submitted

    def aggregate(self) -> np.ndarray:
        """Decoded sum over the full cohort; errors if anyone is missing."""
        if self._submitted < self.n_clients:
            missing = (np.arange(self.n_clients) if self._counts is None
                       else np.flatnonzero(self._counts == 0))
            raise ProtocolError(f"missing participants {missing.tolist()}; cannot unmask")
        return _decode(self._total, 1 << self._scale_bits)
