"""Round orchestration and server-side math for min-max federated training.

One round of the agnostic algorithm:

1. sample clients uniformly without replacement,
2. take the cohort's rows from the pooled population by one index and
   evaluate every client's per-domain counts (read off the population's
   table) and summed losses at the current parameters (before training)
   in one ``compute_client_stats`` call; the rows of that (m x 2p) stats
   matrix meet in one cohort sum (secure aggregation when masked, each
   row one client's masked message, all submitted in one call),
3. build the scaling vector alpha_i = lambda_i / N_i (zero when N_i = 0),
   where N comes either from this round's exact counts (two-phase-exact)
   or from a sliding-window average of previous rounds (windowed),
4. run the scaled local SGD of every selected client in one
   ``client_update`` call, the clients stepping in lockstep, their
   minibatches shuffled by one generator for the round's cohort,
5. aggregate parameters weighted by each client's beta, through the same
   cohort sum over the rows of the (m x P+1) matrix of beta*w and beta,
6. ascend the domain weights lambda on the observed per-domain average
   losses, by exponentiated gradient or by projected gradient.

The FedAvg baseline is the same machinery with alpha fixed to all-ones
(so beta_k = n_k) and lambda frozen; it pays no per-domain statistics
communication cost.

A round with no positive client weight is degenerate: parameters and
lambda stay put, the report is flagged, and the simulation continues.
In windowed mode round 1 is always degenerate (empty window => alpha = 0);
it exists to seed the window with counts.

Round t draws from two generators. The sampling generator,
``make_rng(seed, t, 1)``, picks the cohort and then gives the pair seeds
of the round's masked sums; no output byte depends on a mask, since the
uint64 sums cancel the masks exactly. The local-SGD generator,
``make_rng(derive_seed(seed, t, 4))``, shuffles the minibatches. Their
seeds are derived 256 rounds at a time, bit for bit as numpy's
``SeedSequence`` derives them one by one (``round_rngs``).

``ServerState`` is an immutable snapshot; ``run_round`` returns a new one.
The cohort is sorted by client id, and every reduction over clients runs
in that order, so floating-point sums stay deterministic.

Each fact of a round is checked once and trusted after: lambda by
``ServerState.__post_init__``, the losses by ``run_round``'s check of the
cohort loss sums, and the counts by construction (cohort sums of
non-negative integers, one per domain).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .client import LocalSGDConfig, client_update, compute_client_stats
from .core import (
    Cohort,
    InvalidArgument,
    NumericError,
    Population,
    as_param_vector,
    # perfbench/tracing.py wraps server.derive_seed and server.make_rng,
    # so the names stay here
    derive_seed,  # noqa: F401
    make_rng,  # noqa: F401
    mixture_uniform,
    seed_states,
    seed_words,
    stored_rng,
    validate_mixture,
)
from .models import ModelSpec
from .secagg import DEFAULT_SCALE_BITS, PairwiseSeeds, SecureSum

Algorithm = Literal["fedavg", "afa"]
LambdaUpdate = Literal["eg", "projected-sgd"]
ScalingMode = Literal["two-phase-exact", "windowed"]

# Stream tags for deriving independent per-round randomness; the masked
# sums draw their pair seeds from the sampling stream.
_TAG_SAMPLING = 1
_TAG_LOCAL_SGD = 4
# Rounds whose generators are seeded together, when the first of them runs
_BLOCK_ROUNDS = 256


class DegenerateRound(RuntimeError):
    """Signal that a round has no positive aggregation weight."""


@dataclass(frozen=True)
class AggregationSettings:
    """Which round messages go through the masking simulation.

    Statistics are masked by default; parameter aggregation is plain
    unless ``mask_params`` is set (masking quantizes to the fixed-point
    grid, which costs up to n/(2*scale) absolute error per coordinate).
    ``scale_bits`` must lie in 0..62: the fixed-point scale is
    2**scale_bits and encoded values stay below 2**62.
    """

    mask_stats: bool = True
    mask_params: bool = False
    scale_bits: int = DEFAULT_SCALE_BITS

    def __post_init__(self):
        if not 0 <= self.scale_bits <= 62:
            raise InvalidArgument(f"scale_bits must be in 0..62, got {self.scale_bits}")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Algorithm selection plus all per-round hyperparameters."""

    algorithm: Algorithm = "afa"
    lambda_update: LambdaUpdate = "eg"
    scaling_mode: ScalingMode = "two-phase-exact"
    clients_per_round: int = 10
    rounds: int = 100
    lambda_lr: float = 0.01
    window_len: int = 10
    local: LocalSGDConfig = field(default_factory=LocalSGDConfig)

    def __post_init__(self):
        if self.algorithm not in ("fedavg", "afa"):
            raise InvalidArgument(f"unknown algorithm {self.algorithm!r}")
        if self.lambda_update not in ("eg", "projected-sgd"):
            raise InvalidArgument(f"unknown lambda update {self.lambda_update!r}")
        if self.scaling_mode not in ("two-phase-exact", "windowed"):
            raise InvalidArgument(f"unknown scaling mode {self.scaling_mode!r}")
        if self.clients_per_round < 1:
            raise InvalidArgument("clients_per_round must be >= 1")
        if self.rounds < 0:
            raise InvalidArgument("rounds must be >= 0")
        if not self.lambda_lr > 0:
            raise InvalidArgument("lambda_lr must be > 0")
        if self.window_len < 1:
            raise InvalidArgument("window_len must be >= 1")


@dataclass(frozen=True)
class ServerState:
    """Server snapshot after ``round`` completed rounds."""

    round: int
    w: np.ndarray
    lam: np.ndarray
    window: tuple[np.ndarray, ...]
    comm_params_total: int

    def __post_init__(self):
        object.__setattr__(self, "w", as_param_vector(self.w))
        object.__setattr__(self, "lam", validate_mixture(self.lam))
        object.__setattr__(self, "window", tuple(self.window))


@dataclass(frozen=True)
class RoundReport:
    """Per-round metrics record emitted by the orchestration loop."""

    round: int
    per_domain_loss: tuple[float, ...]
    lam: tuple[float, ...]
    worst_domain_loss: float
    model_summary: tuple[float, ...]
    comm_params_cumulative: int
    degenerate: bool


def initial_state(w0: np.ndarray, p: int) -> ServerState:
    """Fresh state: given parameters, uniform lambda, empty window."""
    return ServerState(0, w0, mixture_uniform(p), (), 0)


def compute_scaling(lam: np.ndarray, effective_counts: np.ndarray) -> np.ndarray:
    """alpha_i = lambda_i / N_i, with alpha_i = 0 wherever N_i = 0.

    Trusts lambda and the counts (see the module docstring).
    """
    counts = np.asarray(effective_counts, dtype=np.float64)
    alpha = np.zeros(lam.shape[0])
    populated = counts > 0
    alpha[populated] = lam[populated] / counts[populated]
    return alpha


def effective_counts(
    state: ServerState,
    mode: ScalingMode,
    exact_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Domain counts feeding the scaling vector, per scaling mode.

    Two-phase-exact passes this round's gathered counts through; windowed
    averages the window of previous rounds (all zeros when empty, which
    makes round 1 a pure stats-gathering round).
    """
    if mode == "two-phase-exact":
        if exact_counts is None:
            raise InvalidArgument("two-phase-exact mode requires this round's counts")
        return np.asarray(exact_counts, dtype=np.float64)
    if mode == "windowed":
        if exact_counts is not None:
            raise InvalidArgument("windowed mode ignores exact counts; do not pass them")
        if not state.window:
            return np.zeros(state.lam.shape[0])
        return np.stack(state.window).astype(np.float64).mean(axis=0)
    raise InvalidArgument(f"unknown scaling mode {mode!r}")


def cohort_sum(
    vectors: np.ndarray,
    mask_rng: np.random.Generator | None,
    scale_bits: int,
) -> np.ndarray:
    """Sum of the rows of an (m x L) matrix, one row per cohort client.

    The per-client rows never leave here. Without ``mask_rng`` the rows
    are added in order starting from zeros. With it, the whole matrix is
    submitted to a ``SecureSum`` keyed by fresh pairwise seeds in one
    call, row r as client r's masked message, and only the aggregate is
    ever read; integers (such as counts) survive the fixed-point wire
    bit-exactly.
    """
    if mask_rng is None:
        # in order, as a loop from zeros would add them; + 0.0 turns a
        # -0.0 total into the loop's +0.0
        return np.add.accumulate(vectors, axis=0)[-1] + 0.0
    seeds = PairwiseSeeds.generate(vectors.shape[0], mask_rng)
    collector = SecureSum(seeds, vectors.shape[1], scale_bits=scale_bits)
    collector.submit(np.arange(vectors.shape[0]), vectors)
    return collector.aggregate()


def aggregate_params(
    params: np.ndarray,
    betas: np.ndarray,
    mask_rng: np.random.Generator | None = None,
    scale_bits: int = DEFAULT_SCALE_BITS,
) -> np.ndarray:
    """Beta-weighted mean of the (m x P) client parameters, from one ``cohort_sum``.

    Callers pass the rows in ascending client id order, with the (m,)
    betas alongside (a skipped client has beta 0). With ``mask_rng``
    the sums of beta*w and of beta are each quantized to the fixed-point
    grid, at most n/(2*2**scale_bits) per coordinate, and the division by
    the total beta amplifies that error by 1/total beta (exactly so when
    the total beta lies on the grid). Raises ``DegenerateRound`` when no
    client carries positive weight.
    """
    if betas.shape[0] == 0:
        raise DegenerateRound("empty cohort")
    total = cohort_sum(np.concatenate((betas[:, None] * params, betas[:, None]), axis=1),
                       mask_rng, scale_bits)
    if total[-1] <= 0.0:
        raise DegenerateRound("no client carried positive aggregation weight")
    return total[:-1] / total[-1]


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-threshold)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InvalidArgument("projection expects a non-empty 1-D vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u + (1.0 - css) / j > 0)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def lambda_update_eg(lam: np.ndarray, domain_losses: np.ndarray, lr: float) -> np.ndarray:
    """Exponentiated-gradient ascent step on the domain weights.

    Losses are shifted by their max before exponentiation; the shift
    cancels in the normalization, so the update is invariant to adding a
    constant to every loss and cannot overflow for lr > 0. Trusts lambda
    and the losses (see the module docstring).
    """
    losses = np.asarray(domain_losses, dtype=np.float64)
    shifted = losses - losses.max()
    weights = lam * np.exp(lr * shifted)
    total = float(weights.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise NumericError("exponentiated-gradient weights vanished or overflowed")
    return weights / total


def lambda_update_projected_sgd(
    lam: np.ndarray, domain_losses: np.ndarray, lr: float
) -> np.ndarray:
    """Additive ascent step followed by Euclidean projection onto the simplex.

    Trusts lambda and the losses (see the module docstring).
    """
    losses = np.asarray(domain_losses, dtype=np.float64)
    return project_simplex(lam + lr * losses)


def comm_cost_per_round(algorithm: Algorithm, clients_per_round: int,
                        param_count: int, p: int) -> int:
    """Parameters on the wire per round: 2c|W| plus 4cp for the agnostic run."""
    base = 2 * clients_per_round * param_count
    if algorithm == "fedavg":
        return base
    if algorithm == "afa":
        return base + 4 * clients_per_round * p
    raise InvalidArgument(f"unknown algorithm {algorithm!r}")


@functools.lru_cache(maxsize=2)
def _block_states(seed: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 state words of the two generators of each round in a block.

    Row i of the two read-only (256, 4) arrays seeds round
    t = 256 * block + 1 + i: the first ``make_rng(seed, t,
    _TAG_SAMPLING)``, the second ``make_rng(derive_seed(seed, t,
    _TAG_LOCAL_SGD))``. One ``seed_states`` pass hashes both tags of
    every round, and a second hashes the local-SGD seeds, a row of one
    word or of two as each seed splits.
    """
    # mod 2**64, as make_rng takes every part; uint64 arrays wrap silently
    rounds = (np.arange(_BLOCK_ROUNDS, dtype=np.uint64)
              + np.uint64((block * _BLOCK_ROUNDS + 1) % 2**64))
    tags = np.array([_TAG_SAMPLING, _TAG_LOCAL_SGD], dtype=np.uint64).repeat(_BLOCK_ROUNDS)
    states = seed_states(*seed_words(seed, np.concatenate((rounds, rounds)), tags))
    sampling = states[:_BLOCK_ROUNDS]
    local_sgd = seed_states(*seed_words(states[_BLOCK_ROUNDS:, 0]))
    sampling.flags.writeable = local_sgd.flags.writeable = False
    return sampling, local_sgd


def round_rngs(seed: int, t: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Round t's sampling and local-SGD generators.

    They equal ``make_rng(seed, t, _TAG_SAMPLING)`` and
    ``make_rng(derive_seed(seed, t, _TAG_LOCAL_SGD))`` draw for draw.
    Their seeds are derived 256 rounds at a time, on the first round of
    a block that asks, and the last two blocks are kept, so a round
    builds two generators from stored words and a block's hashing lands
    on one round in 256.
    """
    block, row = divmod(t - 1, _BLOCK_ROUNDS)
    sampling, local_sgd = _block_states(seed, block)
    return stored_rng(sampling[row]), stored_rng(local_sgd[row])


def run_round(
    state: ServerState,
    cfg: AlgorithmConfig,
    spec: ModelSpec,
    population: Population,
    seed: int,
    *,
    settings: AggregationSettings = AggregationSettings(),
    summary_fn: Callable[[np.ndarray], tuple[float, ...]] | None = None,
) -> tuple[ServerState, RoundReport]:
    """One round of the configured algorithm; returns the next state.

    FedAvg runs the same round with all-ones scaling (beta_k = n_k) and
    lambda frozen.
    """
    fedavg = cfg.algorithm == "fedavg"
    p = state.lam.shape[0]
    if len(population) < cfg.clients_per_round:
        raise InvalidArgument(
            f"population of {len(population)} cannot supply {cfg.clients_per_round} clients"
        )
    if population.p != p:
        raise InvalidArgument(f"population has p={population.p} domains, lambda has {p}")
    t = state.round + 1

    sample_rng, sgd_rng = round_rngs(seed, t)
    picked = sample_rng.choice(len(population), size=cfg.clients_per_round, replace=False)
    cohort = Cohort.gather(
        population, picked[population.client_ids[picked].argsort(kind="stable")])

    client_counts, client_loss_sums = compute_client_stats(spec, state.w, cohort)
    # the masked sums draw their pair seeds from the sampling generator,
    # after the cohort; no output byte depends on a mask
    total = cohort_sum(
        np.concatenate([client_counts.astype(np.float64), client_loss_sums], axis=1),
        sample_rng if settings.mask_stats else None,
        settings.scale_bits,
    )
    counts = np.rint(total[:p]).astype(np.int64)
    counts.flags.writeable = False
    # a domain with no samples sums to exactly 0 on either path
    loss_sums = total[p:]
    if not np.isfinite(loss_sums).all():  # a plain sum of finite terms can overflow
        raise NumericError("cohort loss sums contain NaN or Inf")

    if fedavg:
        alpha = np.ones(p)
    else:
        exact = counts if cfg.scaling_mode == "two-phase-exact" else None
        alpha = compute_scaling(state.lam, effective_counts(state, cfg.scaling_mode, exact))

    params, betas = client_update(spec, state.w, alpha, cohort, cfg.local, sgd_rng)

    degenerate = False
    try:
        new_w = aggregate_params(
            params, betas, sample_rng if settings.mask_params else None, settings.scale_bits)
    except DegenerateRound:
        degenerate, new_w = True, state.w

    per_domain_loss = np.zeros(p)
    populated = counts > 0
    per_domain_loss[populated] = loss_sums[populated] / counts[populated]

    if fedavg or degenerate:
        new_lam = state.lam
    elif cfg.lambda_update == "eg":
        new_lam = lambda_update_eg(state.lam, per_domain_loss, cfg.lambda_lr)
    else:
        new_lam = lambda_update_projected_sgd(state.lam, per_domain_loss, cfg.lambda_lr)

    window = (state.window + (counts,))[-cfg.window_len:]
    comm = state.comm_params_total + comm_cost_per_round(
        cfg.algorithm, cfg.clients_per_round, spec.param_count, p
    )

    new_state = ServerState(t, new_w, new_lam, window, comm)
    report = RoundReport(
        round=t,
        per_domain_loss=tuple(per_domain_loss.tolist()),
        lam=tuple(new_lam.tolist()),
        worst_domain_loss=float(per_domain_loss[populated].max()) if populated.any() else 0.0,
        model_summary=summary_fn(new_w) if summary_fn is not None else (),
        comm_params_cumulative=comm,
        degenerate=degenerate,
    )
    return new_state, report
