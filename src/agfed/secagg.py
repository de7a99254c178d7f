"""Simulated secure aggregation via pairwise additive masking.

Each client encodes its real-valued vector into fixed-point residues
modulo 2**64 and adds one mask per peer; the masks are built so that
mask(i, j) = -mask(j, i) mod 2**64. Summing the masked vectors of the
full cohort cancels every mask exactly, so the unmasking side recovers
the fixed-point sum of the plaintexts and nothing else. Integers below
the scale's range survive bit-exactly; general reals carry at most
n / (2 * scale) absolute error per coordinate after summing n vectors.
A value whose encoding could push an n-client total out of the signed
decode range (n * |r * scale| >= 2**63) raises ``MaskRangeError``
instead of wrapping.

Both clients of a pair expand their shared seed into the same
splitmix64 stream, so a cohort sum needs each pair's stream once: the
first ``mask_set`` for a vector length L evaluates all n(n-1)/2 x L
stream values, in vectorised blocks of lower-index clients that bound
the memory they take at once, and reduces them into each client's
signed mask row, cached on the cohort's ``PairwiseSeeds``. Where each
pair's stream goes depends only on n and the block size, so that index
layout (each block's slice of the seeds, where each lower index's pairs
start, and the order and starts of the pairs grouped by higher index) is
built once per (n, block) and kept in a small module-level cache as
read-only arrays; a sum then only hashes, gathers and reduces. The
cache holds no seed and no client data, and at most 8 layouts. A layout
takes one index per pair plus a few per client and block: O(n(n-1)/2)
words, the order of the seeds each masked sum draws anyway, so the
blocks still bound the temporary memory of a sum.
``mask_set`` and ``SecureSum.submit`` take one client index or a 1-D
array of them, so a whole cohort is masked and submitted in one call of
O(1) numpy operations: encode the (m x L) matrix, add the clients' mask
rows, add the rows into the total. Each client's message is still its
own masked row, encode(v_i) plus its signed pair masks, and the server
still reads only the total; the cached rows hold nothing the public
pair seeds do not already fix.

This is a SIMULATION OF THE AGGREGATION SEMANTICS ONLY. There is no key
agreement, no cryptographic PRG, and no dropout recovery: pairwise seeds
come from the round's sampling generator (``server.run_round`` draws
them after it picks the cohort), and a missing participant is simply a
protocol error. Do not mistake this module for a security implementation.
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
# Pair-stream words expanded at once when building a cohort's mask rows
_BLOCK_WORDS = 1 << 17


class MaskRangeError(ValueError):
    """Raised when a value is too large for the fixed-point encoding."""


class ProtocolError(RuntimeError):
    """Raised when the aggregation cohort is incomplete or inconsistent."""


def _encode(plain: np.ndarray, scale: int, n_clients: int) -> np.ndarray:
    plain = np.asarray(plain, dtype=np.float64)
    scaled = np.rint(plain * scale)
    limit = min(_ENCODE_LIMIT, _DECODE_LIMIT / n_clients)
    # NaN and +-inf fail the comparison too
    if not (np.abs(scaled) < limit).all():
        raise MaskRangeError(
            f"value magnitude exceeds fixed-point range for a cohort of {n_clients} "
            f"(|r * {scale}| >= min(2**62, 2**63 / {n_clients}))"
        )
    return scaled.astype(np.int64).astype(np.uint64)


def _decode(residues: np.ndarray, scale: int) -> np.ndarray:
    # centered lift: residues >= 2**63 represent negative fixed-point sums
    return residues.astype(np.int64).astype(np.float64) / scale


@dataclass(frozen=True, eq=False)
class PairwiseSeeds:
    """Shared pair seeds of an n-client cohort (n >= 1).

    ``upper`` holds one uint64 seed per pair (i, j), i < j, in
    ``np.triu_indices(n, k=1)`` order: pairs grouped by lower index. It
    is taken as given and made read-only, not copied. Equality and
    hashing are by identity, as for ``core.ClientDataset``.
    """

    n_clients: int
    upper: np.ndarray

    def __post_init__(self):
        if self.n_clients < 1:
            raise InvalidArgument("cohort needs at least one client")
        upper = np.asarray(self.upper, dtype=np.uint64)
        pairs = self.n_clients * (self.n_clients - 1) // 2
        if upper.shape != (pairs,):
            raise InvalidArgument(f"a cohort of {self.n_clients} has {pairs} pair seeds, "
                                  f"got shape {upper.shape}")
        upper.flags.writeable = False
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_mask_rows", {})

    def _masks(self, length: int) -> np.ndarray:
        """Every client's summed pair masks for vectors of ``length``, one row each."""
        rows = self._mask_rows.get(length)
        if rows is None:
            block = max(1, _BLOCK_WORDS // (self.n_clients * length))
            rows = _signed_mask_rows(self.upper, self.n_clients, length, block)
            rows.flags.writeable = False
            self._mask_rows[length] = rows
        return rows

    @staticmethod
    def generate(n_clients: int, rng: np.random.Generator) -> "PairwiseSeeds":
        """Fresh seeds for an n-client cohort: n(n-1)/2 words drawn from ``rng``.

        The words are the bit generator's raw 64-bit outputs, which are
        the words ``rng.integers(0, 2**64, size=pairs, dtype=np.uint64)``
        returns, and the draw leaves ``rng`` in the same state as that
        call.
        """
        if n_clients < 1:
            raise InvalidArgument("cohort needs at least one client")
        pairs = n_clients * (n_clients - 1) // 2
        return PairwiseSeeds(n_clients, rng.bit_generator.random_raw(pairs))


@dataclass(frozen=True)
class MaskedVector:
    """Fixed-point residues of clients' vectors plus all their pair masks.

    ``values`` is one client's (L,) message or a (k, L) stack of them,
    one row per client. ``client_index`` and ``n_clients`` are protocol
    bookkeeping: the slot (an int) or slots (a 1-D index array) the
    residues fill and the size of the cohort they were masked for.
    """

    values: np.ndarray
    scale: int
    client_index: int | np.ndarray
    n_clients: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.uint64)
        if v.ndim not in (1, 2):
            raise InvalidArgument("masked values must be a 1-D residue vector "
                                  "or a 2-D stack of them")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _pair_masks(seeds: np.ndarray, length: int) -> np.ndarray:
    # counter-based splitmix64 stream, one row per seed: fast, deterministic,
    # not cryptographic. Word k of every stream is one contiguous row of a
    # (length, seeds) array, so each step runs over the seeds; in place,
    # since a block of streams is the largest array of a masked round.
    # Returns the (seeds, length) transposed view.
    z = (np.arange(1, length + 1, dtype=np.uint64) * _SM64_GAMMA)[:, None] + seeds
    z ^= z >> np.uint64(30)
    z *= _SM64_MIX1
    z ^= z >> np.uint64(27)
    z *= _SM64_MIX2
    z ^= z >> np.uint64(31)
    return z.T


class _PairBlock(NamedTuple):
    """Where the pairs of one block of lower-index clients go."""

    lowers: slice               # clients a..b-1, the lower index of each pair
    pairs: slice                # their pairs' seeds in ``upper``
    lower_starts: np.ndarray    # reduceat starts of each lower's pairs
    by_higher: np.ndarray       # the pairs, stably grouped by higher index
    higher_starts: np.ndarray   # reduceat starts of higher a+1..n-1 in that order


@functools.lru_cache(maxsize=8)
def _pair_layout(n: int, block: int) -> tuple[_PairBlock, ...]:
    """The blocks of ``block`` lower indices of an n-client cohort's pairs."""
    # first[i]: position of pair (i, i + 1) in ``upper``
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


def _signed_mask_rows(upper: np.ndarray, n: int, length: int, block: int) -> np.ndarray:
    # pair (i, j), i < j, adds its stream to row i and subtracts it from
    # row j; sums mod 2**64 are exact in any order. The streams are
    # expanded for ``block`` lower indices at a time, which bounds the
    # transient at block * (n - 1) x length words. Words run along the
    # rows of ``cols`` (length x n), so both reductions run over pairs.
    cols = np.zeros((length, n), dtype=np.uint64)
    for b in _pair_layout(n, block):
        words = _pair_masks(upper[b.pairs], length).T
        cols[:, b.lowers] += np.add.reduceat(words, b.lower_starts, axis=1)
        cols[:, b.lowers.start + 1:] -= np.add.reduceat(
            words.take(b.by_higher, axis=1), b.higher_starts, axis=1)
    return cols.T


def mask_set(seeds: PairwiseSeeds, client: int | np.ndarray, plain: np.ndarray, *,
             scale_bits: int = DEFAULT_SCALE_BITS) -> MaskedVector:
    """Encode and mask one client's vector, or a batch of clients' vectors.

    ``client`` is one index with ``plain`` of shape (L,), or a 1-D array
    of k indices with ``plain`` of shape (k, L), row r belonging to
    client ``client[r]``. The values are ``_encode(plain)`` plus each
    client's summed pair masks, one row per client: the lower index of
    each pair adds the pair's mask and the higher one subtracts it, so
    the masks of a full cohort cancel.
    """
    n = seeds.n_clients
    clients = np.asarray(client)
    plain = np.asarray(plain, dtype=np.float64)
    if (clients.ndim > 1 or clients.dtype.kind not in "iu"
            or plain.ndim != clients.ndim + 1 or plain.shape[:-1] != clients.shape):
        raise InvalidArgument(f"client indices of shape {clients.shape} ({clients.dtype}) "
                              f"do not match vectors of shape {plain.shape}")
    # checked before the cached mask rows are indexed, where -1 would
    # silently pick the last client's row
    if clients.min(initial=0) < 0 or clients.max(initial=0) >= n:
        bad = clients[(clients < 0) | (clients >= n)]
        raise InvalidArgument(f"client indices {np.unique(bad).tolist()} "
                              f"outside cohort of {n}")
    scale = 1 << scale_bits
    residues = _encode(plain, scale, n)
    return MaskedVector(residues + seeds._masks(plain.shape[-1])[clients], scale, client, n)


class SecureSum:
    """Write-only accumulator: clients submit, the server reads one sum.

    The public surface deliberately exposes no per-client data. Submitted
    vectors, one client's or a batch of clients' rows, are masked
    immediately and only their modular total is kept, with one
    submission count per client.
    """

    def __init__(self, seeds: PairwiseSeeds, length: int, *,
                 scale_bits: int = DEFAULT_SCALE_BITS):
        if length < 1:
            raise InvalidArgument("vector length must be >= 1")
        self._seeds = seeds
        self._length = length
        self._scale_bits = scale_bits
        self._total = np.zeros(length, dtype=np.uint64)
        self._counts = np.zeros(seeds.n_clients, dtype=np.int64)

    @property
    def n_clients(self) -> int:
        return self._seeds.n_clients

    def submit(self, client: int | np.ndarray, plain: np.ndarray) -> None:
        """Add one client's (L,) vector, or the (k, L) rows of a 1-D index array.

        Checks the shape, then the indices (``InvalidArgument`` names
        those outside the cohort), then duplicates within the batch or
        against earlier submissions (``ProtocolError``); a rejected batch
        leaves the total untouched.
        """
        clients = np.asarray(client)
        plain = np.asarray(plain, dtype=np.float64)
        if plain.shape[-1:] != (self._length,):
            raise InvalidArgument(
                f"expected vectors of length {self._length}, got shape {plain.shape}"
            )
        # mask_set checks that the indices match the rows and lie in the cohort
        mv = mask_set(self._seeds, clients, plain, scale_bits=self._scale_bits)
        counts = self._counts + np.bincount(clients.reshape(-1).astype(np.intp),
                                            minlength=self.n_clients)
        if (counts > 1).any():
            raise ProtocolError(
                f"duplicate submission from clients {np.flatnonzero(counts > 1).tolist()}")
        self._total += mv.values.reshape(-1, self._length).sum(axis=0)
        self._counts = counts

    def aggregate(self) -> np.ndarray:
        """Decoded sum over the full cohort; errors if anyone is missing."""
        if not self._counts.all():
            missing = np.flatnonzero(self._counts == 0)
            raise ProtocolError(f"missing participants {missing.tolist()}; cannot unmask")
        return _decode(self._total, 1 << self._scale_bits)
