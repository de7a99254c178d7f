"""Simulated secure aggregation via pairwise additive masking.

Each client encodes its real-valued vector into fixed-point residues
modulo 2**64 and adds one mask per peer, built so that mask(i, j) =
-mask(j, i) mod 2**64. Summing the full cohort's masked vectors cancels
every mask exactly, so the unmasking side recovers the fixed-point sum
of the plaintexts and nothing else. Integers below the scale's range
survive bit-exactly; reals carry at most n / (2 * scale) absolute error
per coordinate after summing n vectors.

A cohort sum of vectors of length L lays its pair words out by circulant
offset (Bell et al., CCS 2020, here on the complete graph): it draws
floor(n/2) x n x L words at once from the run's mask generator and keeps
them while it is open, 8 bytes each (28 MB for 1000 clients and L = 7).
Word [d-1, i] is added by client i and subtracted by client (i + d) mod
n, so the offsets 1..floor(n/2) reach every pair. For odd n each pair
shares exactly one word; for even n the pairs at offset n/2 share two,
so an even cohort draws n/2 x L words more than the n(n-1)/2 x L its
pairs need. Only the mask stream reads them, and the masks cancel, so
no output byte depends on the layout.

Each client adds exactly its own column of the words, so the adding
half of every mask row is one sum over offsets. ``_mask_rows`` builds
the subtracting half in one of two ways that give the same rows, bit
for bit, since sums mod 2**64 are exact in any order. A sum of at most
``_SCATTER_WORDS`` words subtracts them with one ``np.subtract.at``
through an index that depends only on n and L, so it is built once and
cached read-only (at most 8, holding no mask word and no client data):
at that size numpy's per-call overhead, not the words, sets the cost. A
larger sum needs no index. It copies each block of offset rows with
their last words in front and reads the copy back one client short of
its width, which rolls row d by d clients, then sums the block over
offsets; the blocks bound the copy.

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
# Pair words copied at once when a cohort's mask rows take the skewed
# sum: 1 << 16 beat 1 << 15 and 1 << 17 at 1000 x 7 and 300 x 4
_BLOCK_WORDS = 1 << 16
# Pair words, floor(n/2) x n x L, up to which a sum's mask rows are
# scattered rather than summed skewed. The two level near 6,000 words
# (40 x 7: 11.8 against 12.5 us; 56 x 4: 13.2 against 13.0 us); below
# that the scatter leads (10 x 10: 4.0 against 7.2 us), above it the
# skewed sum (100 x 4: 37 against 26 us), on numpy 2.4.6 on a 2-core
# AVX-512 Xeon
_SCATTER_WORDS = 6000


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

    ``words`` is a (floor(n/2), n, L) uint64 array laid out by circulant
    offset: word [d-1, i, k] masks coordinate k, added by client i and
    subtracted by client (i + d) mod n. It is taken as given and made
    read-only, copied only when it is not a C-contiguous uint64 array.
    Equality and hashing are by identity, as for ``core.Population``:
    arrays have no single truth value to compare fields by.
    """

    n_clients: int
    words: np.ndarray

    def __post_init__(self):
        if self.n_clients < 1:
            raise InvalidArgument("cohort needs at least one client")
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        offsets = self.n_clients // 2
        if words.ndim != 3 or words.shape[:2] != (offsets, self.n_clients) or words.shape[2] < 1:
            raise InvalidArgument(f"a cohort of {self.n_clients} needs ({offsets}, "
                                  f"{self.n_clients}, L >= 1) pair words, got shape {words.shape}")
        words.flags.writeable = False
        object.__setattr__(self, "words", words)

    @property
    def length(self) -> int:
        """L, the length of the vectors these words mask."""
        return self.words.shape[2]

    @staticmethod
    def generate(n_clients: int, length: int, rng: np.random.Generator) -> "PairMasks":
        """Fresh words for an n-client cohort: floor(n/2) x n x L drawn from ``rng``.

        The words are the bit generator's raw 64-bit outputs, which are
        the words ``rng.integers(0, 2**64, size=floor(n/2) * n * L,
        dtype=np.uint64)`` returns, in that order, and the draw leaves
        ``rng`` in the same state as that call. The constructor's checks
        are skipped.
        """
        if n_clients < 1 or length < 1:
            raise InvalidArgument(f"need at least one client and vector length >= 1, "
                                  f"got {n_clients} and {length}")
        offsets = n_clients // 2
        words = rng.bit_generator.random_raw(offsets * n_clients * length)
        words = words.reshape(offsets, n_clients, length)
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


@functools.lru_cache(maxsize=8)
def _scatter_index(n: int, length: int) -> np.ndarray:
    """Where each pair word is subtracted in the flat (n x length) mask rows.

    A read-only intp array in the words' order: word [d-1, i, k] goes
    to coordinate k of client (i + d) mod n.
    """
    offsets = np.arange(1, n // 2 + 1)[:, None, None]
    clients = (np.arange(n)[:, None] + offsets) % n
    index = (clients * length + np.arange(length)).ravel()
    index.flags.writeable = False
    return index


def _mask_rows(words: np.ndarray) -> np.ndarray:
    """Every client's signed mask row, (n x L), from circulant pair words."""
    offsets, n, length = words.shape
    # each client adds its own column of every offset; PairMasks keeps the
    # words C-contiguous, so the sum is too and its flat view takes the scatter
    rows = words.sum(axis=0)
    if words.size <= _SCATTER_WORDS:
        np.subtract.at(rows.reshape(-1), _scatter_index(n, length), words.reshape(-1))
        return rows
    block = max(1, _BLOCK_WORDS // (n * length))
    for a in range(0, offsets, block):
        b = min(a + block, offsets)
        m = b - a
        # row r of the copy holds offset a + r + 1's words rolled by b
        # clients; read back one client short of its width, row r starts
        # r clients earlier, so it is rolled by a + r + 1
        skew = np.empty((m, n + m, length), dtype=np.uint64)
        skew[:, :b] = words[a:b, n - b:]
        skew[:, b:] = words[a:b, :n - a]
        flat = skew.reshape(-1)[(m - 1) * length:][:m * (n + m - 1) * length]
        rows -= flat.reshape(m, n + m - 1, length)[:, :n].sum(axis=0)
    return rows


def mask_set(masks: PairMasks, clients: np.ndarray, plain: np.ndarray, *,
             scale_bits: int = DEFAULT_SCALE_BITS) -> MaskedVector:
    """Encode and mask a batch of clients' vectors.

    ``clients`` is a 1-D integer array of k indices and ``plain`` a
    (k, L) matrix, row r belonging to client ``clients[r]``, with L the
    masks' length; one client is a 1-row batch. The values are
    ``_encode(plain)`` plus each client's signed pair masks, one row per
    client: each word is added by one client and subtracted by its
    partner (see ``PairMasks``), so the masks of a full cohort cancel.
    """
    n = masks.n_clients
    clients = np.asarray(clients)
    plain = np.asarray(plain, dtype=np.float64)
    if (clients.ndim != 1 or clients.dtype.kind not in "iu"
            or plain.ndim != 2 or plain.shape[0] != clients.shape[0]):
        raise InvalidArgument(f"client indices of shape {clients.shape} ({clients.dtype}) "
                              f"do not match vectors of shape {plain.shape}")
    if plain.shape[1] != masks.length:
        raise InvalidArgument(f"expected vectors of length {masks.length}, "
                              f"got shape {plain.shape}")
    rows = _mask_rows(masks.words)
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
