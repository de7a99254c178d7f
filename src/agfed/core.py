"""Shared value types for the federated min-max simulator.

Array-backed client datasets, mixture weights over domains, scaling
vectors, and the per-domain count/loss statistics exchanged each round.
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

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    if not np.all(np.isfinite(arr)):
        raise NumericError("parameter vector contains NaN or Inf")
    return arr


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """A client's non-empty local data as three aligned, read-only arrays.

    ``feature_matrix`` is (n, d) float64, ``labels`` (n,) float64 (a real
    target for regression or a class index for classification) and
    ``domains`` (n,) int64 tags into ``0..p-1`` of the enclosing task.
    Row order is fixed at generation time; all deterministic shuffles and
    sums key off this order. Equality and hashing are by identity, since
    arrays have no single truth value to compare fields by.
    """

    client_id: int
    feature_matrix: np.ndarray
    labels: np.ndarray
    domains: np.ndarray

    def __post_init__(self):
        x = np.array(self.feature_matrix, dtype=np.float64)
        if x.ndim != 2:
            raise InvalidArgument(
                f"client {self.client_id} features must be 2-D, got shape {x.shape}"
            )
        if x.shape[0] == 0:
            raise InvalidArgument(f"client {self.client_id} has no samples")
        x.flags.writeable = False
        y = as_vector(self.labels, name="labels")
        d = as_vector(self.domains, dtype=np.int64, name="domains")
        if not x.shape[0] == y.shape[0] == d.shape[0]:
            raise InvalidArgument(
                f"client {self.client_id} has {x.shape[0]} feature rows, "
                f"{y.shape[0]} labels and {d.shape[0]} domain tags"
            )
        if np.any(d < 0):
            raise InvalidArgument(f"client {self.client_id} has a domain tag < 0")
        object.__setattr__(self, "feature_matrix", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "domains", d)

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class Cohort:
    """One round's cohort with its clients' rows gathered into shared arrays.

    Client k (in the order the cohort was gathered) owns rows
    ``offsets[k]:offsets[k+1]`` of ``x``, ``y`` and ``domains``, in its
    own row order; ``counts[k]`` holds its sample count per domain
    ``0..p-1``. The rows are copies, gathered once per round.
    """

    x: np.ndarray
    y: np.ndarray
    domains: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray

    @staticmethod
    def gather(clients: Sequence[ClientDataset], p: int) -> "Cohort":
        """Concatenate the clients' rows in the given order and count domains."""
        if not clients:
            raise InvalidArgument("cohort needs at least one client")
        if len({c.feature_matrix.shape[1] for c in clients}) != 1:
            raise InvalidArgument("cohort clients differ in feature dimension")
        sizes = np.array([len(c) for c in clients])
        domains = np.concatenate([c.domains for c in clients])
        if domains.max() >= p:
            owner = int(np.searchsorted(np.cumsum(sizes), np.argmax(domains >= p), "right"))
            raise InvalidArgument(f"client {clients[owner].client_id} has domain tag >= p={p}")
        owners = np.repeat(np.arange(len(clients)), sizes)
        return Cohort(
            x=np.concatenate([c.feature_matrix for c in clients]),
            y=np.concatenate([c.labels for c in clients]),
            domains=domains,
            offsets=np.concatenate([[0], np.cumsum(sizes)]),
            counts=np.bincount(owners * p + domains, minlength=len(clients) * p)
            .reshape(len(clients), p),
        )

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        """Number of rows per client."""
        return np.diff(self.offsets)


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
    if not np.all(np.isfinite(lam)):
        raise NumericError("mixture weights contain NaN or Inf")
    if np.any(lam < 0):
        raise InvalidArgument(f"mixture weights must be >= 0, got min {lam.min()}")
    total = float(lam.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise InvalidArgument(f"mixture weights must sum to 1, got {total!r}")
    return lam


@dataclass(frozen=True)
class DomainStats:
    """Per-domain sample counts and summed (not averaged) losses.

    ``loss_sums[i]`` holds the sum of per-sample losses over domain ``i``,
    i.e. count * average loss, so aggregation across clients is a plain
    element-wise sum.
    """

    counts: np.ndarray
    loss_sums: np.ndarray

    def __post_init__(self):
        counts = as_vector(self.counts, dtype=np.int64, name="counts")
        loss_sums = as_vector(self.loss_sums, name="loss_sums")
        if counts.shape != loss_sums.shape:
            raise InvalidArgument(
                f"counts ({counts.shape}) and loss_sums ({loss_sums.shape}) differ in length"
            )
        if np.any(counts < 0):
            raise InvalidArgument("counts must be non-negative")
        if not np.all(np.isfinite(loss_sums)):
            raise NumericError("loss sums contain NaN or Inf")
        if np.any((counts == 0) & (loss_sums != 0.0)):
            raise InvalidArgument("a domain with zero samples must have zero summed loss")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "loss_sums", loss_sums)


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence output hash (numpy/random/bit_generator.pyx): word k
# of ``generate_state`` is pool[k % 4] xor-ed with INIT_B * MULT_B**k,
# multiplied by the next power and xor-shifted right by 16, all mod 2**32.
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
# PCG64 seeds from 4 uint64 words, that is 8 uint32 words of output
_PCG64_WORDS = 8
_HASH_POWERS = np.array([_INIT_B * _MULT_B ** k & _MASK32 for k in range(_PCG64_WORDS + 1)],
                        dtype=np.uint32)
_POOL_INDEX = np.arange(_PCG64_WORDS) % 4


def _words(part: int) -> list[int]:
    """The uint32 words numpy makes of ``part & (2**64 - 1)``, low word first."""
    value = int(part) & _MASK64
    return [value & _MASK32] + ([value >> 32] if value >> 32 else [])


def _is_batch(parts: tuple) -> bool:
    return bool(parts) and isinstance(parts[-1], np.ndarray) and parts[-1].ndim > 0


def _seed_sequence(parts: tuple) -> np.random.SeedSequence:
    # a uint32 array skips numpy's per-int coercion of the entropy; for a
    # single row numpy's own generate_state is cheaper than the batch hash
    return np.random.SeedSequence(
        np.array([word for part in parts for word in _words(part)], dtype=np.uint32))


def _batch_states(parts: tuple, n_words: int) -> np.ndarray:
    """``SeedSequence((*head, v)).generate_state(n_words // 2, np.uint64)``
    for each entry v of the 1-D array that ends ``parts``, one row each."""
    *head, last = parts
    if last.ndim != 1 or last.dtype.kind not in "iu":
        raise InvalidArgument(
            f"the last seed part must be a 1-D integer array, got {last.dtype} "
            f"of shape {last.shape}")
    prefix = [word for part in head for word in _words(part)]
    values = last.astype(np.int64 if last.dtype.kind == "i" else np.uint64).view(np.uint64)
    words = np.empty((values.shape[0], len(prefix) + 2), dtype=np.uint32)
    words[:, :len(prefix)] = prefix
    words[:, -2] = (values & _MASK32).astype(np.uint32)
    words[:, -1] = (values >> 32).astype(np.uint32)
    # a value below 2**32 is one word, as numpy coerces a Python int
    lengths = len(prefix) + 1 + (words[:, -1] != 0)
    pools = np.array([np.random.SeedSequence(row[:n]).pool
                      for row, n in zip(words, lengths.tolist())],
                     dtype=np.uint32).reshape(-1, 4)
    # np.take keeps C order, so ``view`` pairs each uint64's two words
    state = ((np.take(pools, _POOL_INDEX[:n_words], axis=1) ^ _HASH_POWERS[:n_words])
             * _HASH_POWERS[1:n_words + 1])
    state ^= state >> 16
    # the low word first, as numpy assembles uint64 output
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _PresetState(ISeedSequence):
    """Hands PCG64 the state words its seed sequence would generate."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self._state.shape[0] or np.dtype(dtype) != np.uint64:
            raise InvalidArgument(f"preset state holds {self._state.shape[0]} uint64 words")
        return self._state


def derive_seed(*parts):
    """Stable 64-bit seed from integer parts, e.g. (seed, round, client_id).

    Keying per-client streams off (global seed, round, client id) makes
    results independent of client execution order. The result equals
    ``int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])``
    with every part taken mod 2**64. When the last part is a 1-D integer
    array, returns a uint64 array with one seed per entry, each equal to
    the scalar call on that entry.
    """
    if _is_batch(parts):
        return _batch_states(parts, 2)[:, 0]
    return int(_seed_sequence(parts).generate_state(1, np.uint64)[0])


def make_rng(*parts):
    """Deterministic generator keyed by integer parts.

    The generator equals ``Generator(PCG64(SeedSequence(parts)))`` draw
    for draw, with every part taken mod 2**64. When the last part is a
    1-D integer array, returns a list with one generator per entry, each
    equal to the scalar call on that entry.
    """
    if _is_batch(parts):
        return [np.random.Generator(np.random.PCG64(_PresetState(state)))
                for state in _batch_states(parts, _PCG64_WORDS)]
    return np.random.Generator(np.random.PCG64(_seed_sequence(parts)))
