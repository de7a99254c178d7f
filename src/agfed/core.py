"""Shared value types for the federated min-max simulator.

The pooled client population and a round's cohort of it, mixture
weights over domains, scaling vectors, and deterministic generators
keyed by integer parts (``make_rng``, ``derive_seed``). The population
stores its features once, as the augmented rows (features, then a ones
column) that the model kernels take, and a cohort gathers its rows from
there, so no round copies features to add a bias.
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

import numpy as np

# Absolute tolerance for the simplex sum-to-one invariant.
SIMPLEX_ATOL = 1e-12


class InvalidArgument(ValueError):
    """Raised when an operation receives structurally invalid input."""


class NumericError(ArithmeticError):
    """Raised when a numeric invariant is violated (NaN/Inf, underflow)."""


class numeric_faults:
    """Raise a floating-point fault in the body as one ``NumericError``.

    Overflow, an invalid value and division by zero raise, with ``where``
    before numpy's message; underflow to 0 is a result, not a fault. The
    error state is restored on exit, and any other exception passes
    through. A class, not a generator: every round enters one, and it
    costs less than half as much as a ``contextlib.contextmanager``.
    """

    __slots__ = ("_where", "_errstate")

    def __init__(self, where: str):
        self._where = where
        self._errstate = np.errstate(all="raise", under="ignore")

    def __enter__(self) -> None:
        self._errstate.__enter__()

    def __exit__(self, kind, exc, tb) -> None:
        self._errstate.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise NumericError(f"{self._where}: {exc}") from exc


def as_vector(values, *, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only 1-D float64 array."""
    arr = np.array(values, dtype=np.float64)
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
    not whole numbers are rejected, not truncated, as are non-finite
    features and labels. ``len`` is the client count. The features
    given are copied into ``xb``; the other arrays given are made
    read-only and copied only when they have another dtype.
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
        # whole-array checks pass valid rows; the row-wise one only names a client
        if not (np.isfinite(x).all() and np.isfinite(self.y).all()):
            finite = np.isfinite(self.y) & np.isfinite(x).all(axis=1)
            raise InvalidArgument(f"client {ids[owners[np.argmin(finite)]]} has a NaN or "
                                  f"infinite feature or label")
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

    def __len__(self) -> int:
        return self.client_ids.shape[0]

    def __iter__(self):
        """Each client's row range, ``range(offsets[k], offsets[k+1])``.

        ``perfbench/run.py``'s ``samples_per_round`` and
        ``tracing._after_tasks_generate_population`` call only ``len()``
        on each item; the method goes once perfbench reads
        ``np.diff(population.offsets)``.
        """
        return map(range, self.offsets[:-1].tolist(), self.offsets[1:].tolist())


@dataclass(frozen=True, eq=False)
class Cohort:
    """One round's clients: their rows taken from a ``Population`` by one index.

    Client k (in the order of ``members``) owns rows
    ``offsets[k]:offsets[k+1]`` of ``xb`` (augmented rows of the
    population's ``xb``), ``y`` and ``domains``, in its own row order;
    ``sizes[k]`` is its row count, ``owners`` gives each row's client,
    and ``counts[k]`` is its row of the population's table. The
    population was checked when built, so nothing is checked again here.
    ``gather`` copies the rows and counts and makes the copies read-only.

    ``sizes``, ``offsets`` and ``owners`` depend only on the members'
    sizes: ``gather`` takes them, and the row positions 0..N-1 it adds
    to each client's start, from ``_row_layout``, a module-level
    ``lru_cache`` of 8 entries keyed by the bytes of the int64 sizes in
    cohort order. Cohorts of one size profile share these arrays, which
    are read-only.
    """

    xb: np.ndarray
    y: np.ndarray
    domains: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    owners: np.ndarray
    counts: np.ndarray

    @staticmethod
    def gather(population: Population, members: np.ndarray) -> "Cohort":
        """The rows of the clients at positions ``members``, in that order."""
        members = np.asarray(members, dtype=np.int64)
        if members.shape[0] == 0:
            raise InvalidArgument("cohort needs at least one client")
        starts = population.offsets[members]
        sizes, offsets, owners, positions = _row_layout(
            (population.offsets[members + 1] - starts).tobytes())
        rows = (starts - offsets[:-1])[owners] + positions
        # take gives the rows fancy indexing gives, in a fraction of the
        # time for 2-D arrays
        xb, y, domains = (population.xb.take(rows, axis=0), population.y[rows],
                          population.domains[rows])
        counts = population.counts.take(members, axis=0)
        for arr in (xb, y, domains, counts):
            arr.flags.writeable = False
        return Cohort(xb, y, domains, offsets, sizes, owners, counts)

    def __len__(self) -> int:
        return self.counts.shape[0]


@functools.lru_cache(maxsize=8)
def _row_layout(sizes: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only sizes, offsets, owners and positions 0..N-1 of a cohort's rows.

    ``sizes`` holds the bytes of the clients' int64 sizes, in cohort order.
    """
    sizes = np.frombuffer(sizes, dtype=np.int64)
    offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    owners = np.repeat(np.arange(sizes.shape[0]), sizes)
    positions = np.arange(offsets[-1])
    for arr in (offsets, owners, positions):
        arr.flags.writeable = False
    return sizes, offsets, owners, positions


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
    # a valid vector passes on one min, one max and one sum; the checks below
    # name a failure, and a finite, non-empty, non-negative one fails only its
    # sum. No valid entry exceeds 1 + SIMPLEX_ATOL, and entries of at most 2
    # cannot sum past float64's range, so the first sum never overflows.
    if (lam.size and lam.min() >= 0 and lam.max() <= 2.0
            and abs(float(lam.sum()) - 1.0) <= SIMPLEX_ATOL):
        return lam
    if lam.size == 0:
        raise InvalidArgument("mixture weights must be non-empty")
    if not np.isfinite(lam).all():
        raise NumericError("mixture weights contain NaN or Inf")
    if (lam < 0).any():
        raise InvalidArgument(f"mixture weights must be >= 0, got min {lam.min()}")
    # finite weights may sum to inf, which the message says; numpy's
    # overflow warning would only repeat it
    with np.errstate(over="ignore"):
        total = float(lam.sum())
    raise InvalidArgument(f"mixture weights must sum to 1, got {total!r}")


_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer parts, e.g. (seed, round, stream tag).

    Keying each stream off (global seed, round, tag) makes it independent
    of every other stream and of the order streams are drawn in. The
    result is the first uint64 word of ``SeedSequence(parts)``'s state,
    every part taken mod 2**64.
    """
    seq = np.random.SeedSequence([int(part) & _MASK64 for part in parts])
    return int(seq.generate_state(1, np.uint64)[0])


def make_rng(*parts) -> np.random.Generator:
    """Deterministic generator keyed by integer parts.

    The generator is ``Generator(PCG64(SeedSequence(parts)))``, every part
    taken mod 2**64.
    """
    seq = np.random.SeedSequence([int(part) & _MASK64 for part in parts])
    return np.random.Generator(np.random.PCG64(seq))

