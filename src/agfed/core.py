"""Shared value types for the federated min-max simulator.

The pooled client population and a round's cohort of it, mixture
weights over domains, scaling vectors, and deterministic seeds, derived
one generator at a time (``make_rng``) or for many rows of seed parts in
one vectorised pass (``seed_words``, ``seed_states``, ``stored_rng``),
bit for bit alike. The population stores its features once, as the
augmented rows (features, then a ones column) that the model kernels
take, and a cohort gathers its rows from there, so no round copies
features to add a bias.
Everything here is an immutable value: dataclasses are frozen and numpy
arrays are made read-only, so instances can be shared freely across
threads.

Conventions used throughout the package:

- vectors are 1-D float64 (or int64 for counts) numpy arrays,
- domains are dense integer indices ``0..p-1``,
- mixture weights live on the probability simplex (entries >= 0,
  sum within ``SIMPLEX_ATOL`` of 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Absolute tolerance for the simplex sum-to-one invariant.
SIMPLEX_ATOL = 1e-12


class InvalidArgument(ValueError):
    """Raised when an operation receives structurally invalid input."""


class NumericError(ArithmeticError):
    """Raised when a numeric invariant is violated (NaN/Inf, underflow)."""


def as_vector(values, dtype=np.float64, *, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only 1-D array of the given dtype."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise InvalidArgument(f"{name} must be 1-D, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def as_param_vector(values) -> np.ndarray:
    """Coerce to a parameter vector, rejecting non-finite entries."""
    arr = as_vector(values, name="parameter vector")
    if not np.isfinite(arr).all():
        raise NumericError("parameter vector contains NaN or Inf")
    return arr


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """One client's rows: (n, d) features, (n,) labels, (n,) domain tags.

    What indexing a ``Population`` returns, over read-only views of its
    pooled arrays, and the input of ``Population.from_clients``, which
    checks it. Equality and hashing are by identity, since arrays have
    no single truth value to compare fields by.
    """

    client_id: int
    feature_matrix: np.ndarray
    labels: np.ndarray
    domains: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class Population:
    """Every client's rows pooled into shared, read-only arrays.

    Client k owns rows ``offsets[k]:offsets[k+1]`` of ``x`` ((N, d)
    float64), ``y`` ((N,) float64 labels: real targets or class indices)
    and ``domains`` ((N,) int64 tags into ``0..p-1``), in its own row
    order; ``client_ids[k]`` is its id and ``counts[k]`` its sample count
    per domain. The features are stored once, as the augmented rows the
    model kernels take: ``xb`` is the (N, d + 1) C-contiguous matrix of
    the features followed by a column of ones, and ``x`` is its first d
    columns. Everything is checked and counted once here, so a round
    indexes the arrays without checks; tags, offsets and ids that are
    not whole numbers are rejected, not truncated. ``len`` is the client
    count; indexing or iterating yields each client as a
    ``ClientDataset``. The features given are copied into ``xb``; the
    other arrays given are made read-only and copied only when they have
    another dtype.
    """

    x: np.ndarray
    y: np.ndarray
    domains: np.ndarray
    offsets: np.ndarray
    client_ids: np.ndarray
    p: int
    xb: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        for name, dtype in (("y", np.float64), ("domains", np.int64),
                            ("offsets", np.int64), ("client_ids", np.int64)):
            arr = np.asarray(getattr(self, name))
            # a cast to int64 would truncate a fraction, so reject it first
            if (dtype is np.int64 and arr.dtype.kind not in "biu"
                    and not np.all(np.isfinite(arr) & (np.floor(arr) == arr))):
                raise InvalidArgument(f"{name} must hold whole numbers")
            arr = np.asarray(arr, dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        x = np.asarray(self.x, dtype=np.float64)
        d, offsets, ids = self.domains, self.offsets, self.client_ids
        n_rows = x.shape[0] if x.ndim == 2 else -1
        if self.p < 1 or self.y.shape != (n_rows,) or d.shape != (n_rows,):
            raise InvalidArgument(f"need p >= 1, (N, d) features and (N,) labels and domains, "
                                  f"got p={self.p}, shapes {x.shape}, {self.y.shape}, {d.shape}")
        if not (ids.ndim == 1 and ids.shape[0] >= 1 and offsets.shape == (ids.shape[0] + 1,)
                and offsets[0] == 0 and offsets[-1] == n_rows):
            raise InvalidArgument(f"need one id per client and offsets from 0 to {n_rows}, "
                                  f"got shapes {ids.shape} and {offsets.shape}")
        sizes = np.diff(offsets)
        if np.any(sizes < 1):
            raise InvalidArgument(f"client {ids[np.argmax(sizes < 1)]} has no samples")
        owners = np.repeat(np.arange(ids.shape[0]), sizes)
        bad = (d < 0) | (d >= self.p)
        if bad.any():
            raise InvalidArgument(f"client {ids[owners[np.argmax(bad)]]} has a domain tag "
                                  f"outside 0..{self.p - 1}")
        counts = np.bincount(owners * self.p + d, minlength=ids.shape[0] * self.p)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts.reshape(ids.shape[0], self.p))
        # one strided copy per column: cheaper than a concatenate with ones
        xb = np.empty((n_rows, x.shape[1] + 1))
        for j in range(x.shape[1]):
            xb[:, j] = x[:, j]
        xb[:, -1] = 1.0
        xb.flags.writeable = False
        object.__setattr__(self, "xb", xb)
        object.__setattr__(self, "x", xb[:, :-1])

    @staticmethod
    def from_clients(clients: Sequence[ClientDataset], p: int) -> "Population":
        """Pool the clients' rows in the given order."""
        if not clients:
            raise InvalidArgument("population needs at least one client")
        xs = [np.asarray(c.feature_matrix, dtype=np.float64) for c in clients]
        for c, x in zip(clients, xs):
            if (x.ndim != 2 or x.shape[1] != xs[0].shape[1]
                    or not x.shape[0] == len(c.labels) == len(c.domains)):
                raise InvalidArgument(
                    f"client {c.client_id} needs {xs[0].shape[1:]} feature rows, one label "
                    f"and one domain tag per row, got shapes {x.shape}, {len(c.labels)}, "
                    f"{len(c.domains)}")
        return Population(
            np.concatenate(xs),
            np.concatenate([c.labels for c in clients]),
            np.concatenate([c.domains for c in clients]),
            np.concatenate([[0], np.cumsum([len(c) for c in clients])]),
            [c.client_id for c in clients],
            p,
        )

    def __len__(self) -> int:
        return self.client_ids.shape[0]

    def __getitem__(self, k: int) -> ClientDataset:
        k = range(len(self))[k]
        rows = slice(self.offsets[k], self.offsets[k + 1])
        return ClientDataset(int(self.client_ids[k]), self.x[rows], self.y[rows],
                             self.domains[rows])

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True, eq=False)
class Cohort:
    """One round's clients: their rows taken from a ``Population`` by one index.

    Client k (in the order of ``members``) owns rows
    ``offsets[k]:offsets[k+1]`` of ``xb`` (augmented rows of the
    population's ``xb``), ``y`` and ``domains``, in its own row order;
    ``sizes[k]`` is its row count, ``owners`` gives each row's client,
    and ``counts[k]`` and ``client_ids[k]`` are its rows of the
    population's table and ids. The population was checked when built,
    so nothing is checked again here.
    """

    xb: np.ndarray
    y: np.ndarray
    domains: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    owners: np.ndarray
    counts: np.ndarray
    client_ids: np.ndarray

    @staticmethod
    def gather(population: Population, members: np.ndarray) -> "Cohort":
        """The rows of the clients at positions ``members``, in that order."""
        members = np.asarray(members, dtype=np.int64)
        if members.shape[0] == 0:
            raise InvalidArgument("cohort needs at least one client")
        starts = population.offsets[members]
        sizes = population.offsets[members + 1] - starts
        offsets = np.zeros(members.shape[0] + 1, dtype=np.int64)
        sizes.cumsum(out=offsets[1:])
        owners = np.arange(members.shape[0]).repeat(sizes)
        rows = (starts - offsets[:-1])[owners] + np.arange(offsets[-1])
        # take gives the rows fancy indexing gives, in a fraction of the
        # time for 2-D arrays
        return Cohort(population.xb.take(rows, axis=0), population.y[rows],
                      population.domains[rows], offsets, sizes, owners,
                      population.counts.take(members, axis=0),
                      population.client_ids[members])

    def __len__(self) -> int:
        return self.counts.shape[0]


def mixture_uniform(p: int) -> np.ndarray:
    """Uniform mixture weights 1/p over ``p`` domains."""
    if p < 1:
        raise InvalidArgument(f"need at least one domain, got p={p}")
    lam = np.full(p, 1.0 / p)
    lam.flags.writeable = False
    return lam


def validate_mixture(lam: np.ndarray) -> np.ndarray:
    """Check the simplex invariants; returns the validated vector."""
    lam = as_vector(lam, name="mixture weights")
    if lam.size == 0:
        raise InvalidArgument("mixture weights must be non-empty")
    if not np.isfinite(lam).all():
        raise NumericError("mixture weights contain NaN or Inf")
    if (lam < 0).any():
        raise InvalidArgument(f"mixture weights must be >= 0, got min {lam.min()}")
    total = float(lam.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise InvalidArgument(f"mixture weights must sum to 1, got {total!r}")
    return lam


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _words(part: int) -> list[int]:
    """The uint32 words numpy makes of ``part & (2**64 - 1)``, low word first."""
    value = int(part) & _MASK64
    return [value & _MASK32] + ([value >> 32] if value >> 32 else [])


def _seed_sequence(parts: tuple) -> np.random.SeedSequence:
    # a uint32 array skips numpy's per-int coercion of the entropy
    return np.random.SeedSequence(
        np.array([word for part in parts for word in _words(part)], dtype=np.uint32))


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer parts, e.g. (seed, round, stream tag).

    Keying each stream off (global seed, round, tag) makes it independent
    of every other stream and of the order streams are drawn in. The
    result equals ``int(np.random.SeedSequence(parts).generate_state(1,
    np.uint64)[0])`` with every part taken mod 2**64.
    """
    return int(_seed_sequence(parts).generate_state(1, np.uint64)[0])


def make_rng(*parts) -> np.random.Generator:
    """Deterministic generator keyed by integer parts.

    The generator equals ``Generator(PCG64(SeedSequence(parts)))`` draw
    for draw, with every part taken mod 2**64.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(parts)))


# numpy's SeedSequence hash constants, for its pool of 4 uint32 words.
# They stay Python ints or uint32 arrays: numpy warns when a uint32
# scalar overflows, but not when an array does.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# PCG64 seeds from 4 uint64 words, that is 8 uint32 words of output
_STATE_WORDS = 8
_POOL_OF_WORD = np.arange(_STATE_WORDS) % _POOL


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k = 0..count-1, as read-only uint32."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False
    return consts


_HASH_B = _hash_consts(_INIT_B, _MULT_B, _STATE_WORDS + 1)


def _fold(value: np.ndarray) -> np.ndarray:
    value ^= value >> 16
    return value


def seed_words(*parts) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 entropy ``make_rng`` hashes, one row per entry of the array parts.

    Each part is an integer or a 1-D integer array, the arrays all of one
    length k; an integer stands for the same value in every row. Row r
    holds the words ``make_rng`` takes from the r-th entries, every part
    taken mod 2**64 and split as ``_words`` splits it (one word below
    2**32, two from there), so rows differ in length. Returns the (k, E)
    uint32 words, E the longest row's count and zeros past each row's
    end, and the (k,) word count of each row: the input of
    ``seed_states``.
    """
    columns = np.broadcast_arrays(*(
        np.atleast_1d(part.astype(np.uint64)) if isinstance(part, np.ndarray)
        else np.array([int(part) & _MASK64], dtype=np.uint64) for part in parts))
    k = columns[0].shape[0]
    words = np.zeros((k, 2 * len(parts)), dtype=np.uint32)
    lengths = np.zeros(k, dtype=np.int64)
    rows = np.arange(k)
    for values in columns:
        high = (values >> 32).astype(np.uint32)
        words[rows, lengths] = values.astype(np.uint32)
        lengths += 1
        two = (high != 0).nonzero()[0]
        words[two, lengths[two]] = high[two]
        lengths[two] += 1
    return words[:, :lengths.max()], lengths


def seed_states(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(words[r, :lengths[r]]).generate_state(4, np.uint64)`` of every row r.

    Returns a (k, 4) uint64 array, bit for bit numpy's state words, from
    a (k, E) uint32 matrix and the (k,) word count of each row (1..E);
    words past a row's count are ignored. It runs numpy's ``mix_entropy``
    for a pool of 4 words and its ``generate_state`` on all rows at once,
    each hash step over every row: fill the pool with the first 4 words
    (zeros past a row's end), mix every pool word into the other three,
    then mix each further word into all four, and hash the pool out.
    numpy advances one hash constant per hash call, and the calls come in
    the same order for every row, so step j uses the same constants in
    each row. A row that ends before a further word keeps its pool.
    """
    k, width = words.shape
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * max(_POOL, width) + 1)
    head = np.zeros((k, _POOL), dtype=np.uint32)
    head[:, :width] = words[:, :_POOL]
    head[np.arange(_POOL) >= lengths[:, None]] = 0
    pool = _fold((head ^ consts[:_POOL]) * consts[1:_POOL + 1])
    j = _POOL
    for src in range(_POOL):
        # no target of this step is read by another target of it
        dst = [i for i in range(_POOL) if i != src]
        hashed = _fold((pool[:, src, None] ^ consts[j:j + 3]) * consts[j + 1:j + 4])
        pool[:, dst] = _fold(_MIX_L * pool[:, dst] - _MIX_R * hashed)
        j += 3
    for src in range(_POOL, width):
        hashed = _fold((words[:, src, None] ^ consts[j:j + _POOL])
                       * consts[j + 1:j + _POOL + 1])
        np.copyto(pool, _fold(_MIX_L * pool - _MIX_R * hashed),
                  where=(src < lengths)[:, None])
        j += _POOL
    # take keeps C order, so ``view`` pairs each uint64's two words
    state = _fold((pool.take(_POOL_OF_WORD, axis=1) ^ _HASH_B[:-1]) * _HASH_B[1:])
    # the low word first, as numpy assembles uint64 output
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class StoredSeed:
    """A seed sequence that hands PCG64 four stored state words.

    ``PCG64`` asks its seed sequence for ``generate_state(4,
    np.uint64)``; this one returns the row of ``seed_states`` it holds,
    so the generator skips numpy's per-call hashing and coercion.
    ``stored_rng`` registers the class as numpy's ``ISeedSequence``,
    which ``PCG64`` checks for, on first use.
    """

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != self._state.shape[0] or np.dtype(dtype) != np.uint64:
            raise InvalidArgument(
                f"a stored seed holds {self._state.shape[0]} uint64 state words")
        return self._state


def stored_rng(state: np.ndarray) -> np.random.Generator:
    """The generator seeded by one row of ``seed_states``.

    ``stored_rng(seed_states(*seed_words(*parts))[r])`` equals
    ``make_rng`` of the r-th entries of ``parts`` draw for draw.
    """
    _register_stored_seed()
    return np.random.Generator(np.random.PCG64(StoredSeed(state)))


@functools.cache
def _register_stored_seed() -> None:
    # registered, not subclassed, so that importing agfed does not load
    # numpy.random, which numpy loads on first use: loading it at import
    # raised the peak RSS of a 1000-round toy run by about 1 MiB
    np.random.bit_generator.ISeedSequence.register(StoredSeed)
