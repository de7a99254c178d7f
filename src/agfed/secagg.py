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

Masking one client's vector of length L in a cohort of n costs one
(n x L) splitmix64 evaluation, one stream per peer seed, and O(1) numpy
calls, so O(n * L) work per client.

This is a SIMULATION OF THE AGGREGATION SEMANTICS ONLY. There is no key
agreement, no cryptographic PRG, and no dropout recovery: pairwise seeds
come from the harness RNG, and a missing participant is simply a
protocol error. Do not mistake this module for a security implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidArgument

# Fixed-point scale: reals are stored as round(r * 2**20) residues.
DEFAULT_SCALE_BITS = 20

_MODULUS = 1 << 64
# Each encoding stays well inside the modulus, and a cohort of n keeps
# n * max|encoding| below the signed decode range, so sums cannot wrap.
_ENCODE_LIMIT = float(1 << 62)
_DECODE_LIMIT = float(1 << 63)


class MaskRangeError(ValueError):
    """Raised when a value is too large for the fixed-point encoding."""


class ProtocolError(RuntimeError):
    """Raised when the aggregation cohort is incomplete or inconsistent."""


def _encode(plain: np.ndarray, scale: int, n_clients: int) -> np.ndarray:
    plain = np.asarray(plain, dtype=np.float64)
    scaled = np.rint(plain * scale)
    limit = min(_ENCODE_LIMIT, _DECODE_LIMIT / n_clients)
    if np.any(~np.isfinite(scaled)) or np.any(np.abs(scaled) >= limit):
        raise MaskRangeError(
            f"value magnitude exceeds fixed-point range for a cohort of {n_clients} "
            f"(|r * {scale}| >= min(2**62, 2**63 / {n_clients}))"
        )
    return scaled.astype(np.int64).astype(np.uint64)


def _decode(residues: np.ndarray, scale: int) -> np.ndarray:
    # centered lift: residues >= 2**63 represent negative fixed-point sums
    return residues.astype(np.int64).astype(np.float64) / scale


@dataclass(frozen=True)
class PairwiseSeeds:
    """Symmetric matrix of shared pair seeds for an n-client cohort."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.uint64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgument(f"seed matrix must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise InvalidArgument("seed matrix must be symmetric")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_clients(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def generate(n_clients: int, rng: np.random.Generator) -> "PairwiseSeeds":
        if n_clients < 1:
            raise InvalidArgument("cohort needs at least one client")
        m = np.zeros((n_clients, n_clients), dtype=np.uint64)
        upper = np.triu_indices(n_clients, k=1)
        pair_seeds = rng.integers(0, _MODULUS, size=upper[0].shape[0], dtype=np.uint64)
        m[upper] = pair_seeds
        m[(upper[1], upper[0])] = pair_seeds
        return PairwiseSeeds(m)


@dataclass(frozen=True)
class MaskedVector:
    """Fixed-point residues of one client's vector plus all pair masks.

    ``client_index`` and ``n_clients`` are protocol bookkeeping so the
    unmasking side can detect an incomplete cohort.
    """

    values: np.ndarray
    scale: int
    client_index: int
    n_clients: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.uint64)
        if v.ndim != 1:
            raise InvalidArgument("masked values must be a 1-D residue vector")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _pair_masks(seeds: np.ndarray, length: int) -> np.ndarray:
    # counter-based splitmix64 stream, one row per seed: fast, deterministic,
    # not cryptographic
    z = seeds[:, None] + np.arange(1, length + 1, dtype=np.uint64) * _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MIX2
    return z ^ (z >> np.uint64(31))


def mask_set(seeds: PairwiseSeeds, client: int, plain: np.ndarray, *,
             scale_bits: int = DEFAULT_SCALE_BITS) -> MaskedVector:
    """Encode and mask one client's vector for the cohort in ``seeds``."""
    n = seeds.n_clients
    if not 0 <= client < n:
        raise InvalidArgument(f"client index {client} outside cohort of {n}")
    scale = 1 << scale_bits
    residues = _encode(plain, scale, n)
    masks = _pair_masks(seeds.matrix[client], residues.shape[0])
    # the lower index of each pair adds the pair's mask and the higher one
    # subtracts it; sums mod 2**64 are exact in any order
    residues = (residues + masks[client + 1:].sum(axis=0, dtype=np.uint64)
                - masks[:client].sum(axis=0, dtype=np.uint64))
    return MaskedVector(residues, scale, client, n)


def unmask_sum(masked: list[MaskedVector]) -> np.ndarray:
    """Sum a full cohort's masked vectors and decode the plaintext sum.

    Only the sum is recoverable; individual contributions stay hidden
    behind the pair masks.
    """
    if not masked:
        raise ProtocolError("no masked vectors to aggregate")
    n = masked[0].n_clients
    scale = masked[0].scale
    length = masked[0].values.shape[0]
    seen = set()
    for mv in masked:
        if mv.n_clients != n or mv.scale != scale or mv.values.shape[0] != length:
            raise ProtocolError("masked vectors disagree on cohort, scale, or length")
        if mv.client_index in seen:
            raise ProtocolError(f"duplicate submission from client {mv.client_index}")
        seen.add(mv.client_index)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        raise ProtocolError(f"missing participants {missing}; cannot unmask")
    total = np.sum([mv.values for mv in masked], axis=0, dtype=np.uint64)
    return _decode(total, scale)


class SecureSum:
    """Write-only accumulator: clients submit, the server reads one sum.

    The public surface deliberately exposes no per-client data. Submitted
    vectors are masked immediately and only the modular total is kept.
    """

    def __init__(self, seeds: PairwiseSeeds, length: int, *,
                 scale_bits: int = DEFAULT_SCALE_BITS):
        if length < 1:
            raise InvalidArgument("vector length must be >= 1")
        self._seeds = seeds
        self._length = length
        self._scale_bits = scale_bits
        self._total = np.zeros(length, dtype=np.uint64)
        self._submitted: set[int] = set()

    @property
    def n_clients(self) -> int:
        return self._seeds.n_clients

    def submit(self, client: int, plain: np.ndarray) -> None:
        plain = np.asarray(plain, dtype=np.float64)
        if plain.shape != (self._length,):
            raise InvalidArgument(
                f"expected vector of length {self._length}, got shape {plain.shape}"
            )
        if client in self._submitted:
            raise ProtocolError(f"duplicate submission from client {client}")
        mv = mask_set(self._seeds, client, plain, scale_bits=self._scale_bits)
        self._total = self._total + mv.values
        self._submitted.add(client)

    def aggregate(self) -> np.ndarray:
        """Decoded sum over the full cohort; errors if anyone is missing."""
        if self._submitted != set(range(self.n_clients)):
            missing = sorted(set(range(self.n_clients)) - self._submitted)
            raise ProtocolError(f"missing participants {missing}; cannot unmask")
        return _decode(self._total, 1 << self._scale_bits)
