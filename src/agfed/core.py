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

from dataclasses import dataclass, field

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
    sums key off this order. The domain tags are counted once, here.
    Equality and hashing are by identity, since arrays have no single
    truth value to compare fields by.
    """

    client_id: int
    feature_matrix: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    _tag_counts: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "_tag_counts", np.bincount(d).astype(np.int64))

    def __len__(self) -> int:
        return self.labels.shape[0]

    def domain_counts(self, p: int) -> np.ndarray:
        """Number of samples per domain, length ``p``."""
        tags = self._tag_counts.shape[0]
        if tags > p:
            raise InvalidArgument(
                f"client {self.client_id} has domain tag >= p={p}"
            )
        counts = np.zeros(p, dtype=np.int64)
        counts[:tags] = self._tag_counts
        counts.flags.writeable = False
        return counts


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


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer parts, e.g. (seed, round, client_id).

    Keying per-client streams off (global seed, round, client id) makes
    results independent of client execution order.
    """
    ss = np.random.SeedSequence([int(part) & 0xFFFFFFFFFFFFFFFF for part in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(*parts: int) -> np.random.Generator:
    """Deterministic generator keyed by integer parts."""
    ss = np.random.SeedSequence([int(part) & 0xFFFFFFFFFFFFFFFF for part in parts])
    return np.random.Generator(np.random.PCG64(ss))
