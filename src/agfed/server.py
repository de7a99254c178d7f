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
   minibatches shuffled by the run's local-SGD generator,
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

A run draws from three generators, seeded once when it starts
(``run_streams``), each keyed by (seed, tag) alone: the sampling
generator picks every round's cohort, the mask generator gives the pair
mask words of every masked sum, and the local-SGD generator shuffles the
minibatches. A round continues the streams where the round before left
them, so a run replays from round 1; a ``ServerState`` alone does not
say where the streams stand. The masks have a generator of their own,
so turning ``mask_stats`` or ``mask_params`` on or off moves no cohort
and no shuffle; no output byte depends on a mask either, since the
uint64 sums cancel the masks exactly.

``ServerState`` is an immutable snapshot; ``run_round`` returns a new one.
The cohort is sorted by client id, and every reduction over clients runs
in that order, so floating-point sums stay deterministic.

Inputs are checked once, where they enter, and trusted after: the
population's rows (finite) when it is built, lambda and the parameters
by ``ServerState.__post_init__``, and the counts by construction (cohort
sums of non-negative integers, one per domain). A population's labels
never change, so ``run_round`` checks them once per population and
model, on the first round that meets the pair. From finite inputs only
a floating-point fault makes a NaN or Inf, and ``run_round`` raises any
in its body as one ``NumericError`` naming the round and numpy's
operation, such as ``round 2: overflow encountered in square``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple

import numpy as np

from .client import LocalSGDConfig, client_update, compute_client_stats
from .core import (
    SIMPLEX_ATOL,
    Cohort,
    InvalidArgument,
    NumericError,
    Population,
    as_param_vector,
    # perfbench/tracing.py wraps server.derive_seed and server.make_rng,
    # so the names stay here, and run_streams looks make_rng up here
    derive_seed,  # noqa: F401
    make_rng,
    mixture_uniform,
    numeric_faults,
    validate_mixture,
)
from .models import ModelSpec, check_labels
from .secagg import DEFAULT_SCALE_BITS, PairMasks, SecureSum

Algorithm = Literal["fedavg", "afa"]
LambdaUpdate = Literal["eg", "projected-sgd"]
ScalingMode = Literal["two-phase-exact", "windowed"]

# Stream tags: each of a run's generators is keyed by (seed, tag)
_TAG_SAMPLING = 1
_TAG_MASKS = 2
_TAG_LOCAL_SGD = 4


# The models each population's labels passed ``check_labels`` for. Weak,
# so no population is kept alive here.
_LABELS_CHECKED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
        if not (self.lambda_lr > 0 and np.isfinite(self.lambda_lr)):
            raise InvalidArgument(f"lambda_lr must be finite and > 0, got {self.lambda_lr!r}")
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
    return np.divide(lam, counts, out=np.zeros(lam.shape[0]), where=counts > 0)


def effective_counts(state: ServerState, mode: ScalingMode, counts: np.ndarray) -> np.ndarray:
    """Domain counts feeding the scaling vector, per scaling mode.

    ``counts`` are this round's gathered domain counts. Two-phase-exact
    passes them through; windowed ignores them and averages the window
    of previous rounds (all zeros when empty, which makes round 1 a pure
    stats-gathering round).
    """
    if mode == "two-phase-exact":
        return np.asarray(counts, dtype=np.float64)
    if mode == "windowed":
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
    submitted to a ``SecureSum`` keyed by fresh pair mask words from
    ``mask_rng`` in one call, row r as client r's masked message, and
    only the aggregate is ever read; integers (such as counts) survive
    the fixed-point wire bit-exactly. The words' draw is trusted, not
    re-checked; ``mask_set`` checks the rows and makes the sum's one
    index pass, and ``submit`` and ``aggregate`` read its counts for
    duplicates and completeness (see ``agfed.secagg``).
    """
    if mask_rng is None:
        # in order, as a loop from zeros would add them; + 0.0 turns a
        # -0.0 total into the loop's +0.0
        return np.add.accumulate(vectors, axis=0)[-1] + 0.0
    masks = PairMasks.generate(*vectors.shape, mask_rng)
    collector = SecureSum(masks, scale_bits=scale_bits)
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
    passing = np.nonzero(u + (1.0 - css) / j > 0)[0]
    # in exact arithmetic index 0 always passes and the result sums to 1;
    # for huge entries the 1 is lost to rounding, so none may pass, or
    # the entries left above theta are multiples of a spacing near 1
    if passing.shape[0] > 0:
        rho = int(passing[-1])
        out = np.maximum(v - (css[rho] - 1.0) / (rho + 1), 0.0)
        if abs(float(out.sum()) - 1.0) <= SIMPLEX_ATOL:
            return out
    raise NumericError(f"simplex projection lost precision: entries up to "
                       f"{u[0]:.3g} round its unit sum away")


def lambda_update_eg(lam: np.ndarray, domain_losses: np.ndarray, lr: float) -> np.ndarray:
    """Exponentiated-gradient ascent step on the domain weights.

    Losses are shifted by their max before exponentiation; the shift
    cancels in the normalization, so the update is invariant to adding a
    constant to every loss and cannot overflow for lr > 0. Trusts lambda
    and the losses (see the module docstring); weights that all
    underflow to 0 raise here, as ``run_round`` ignores underflow.
    """
    losses = np.asarray(domain_losses, dtype=np.float64)
    shifted = losses - losses.max()
    weights = lam * np.exp(lr * shifted)
    total = float(weights.sum())
    if total <= 0.0:
        raise NumericError("exponentiated-gradient weights vanished")
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
    return base if algorithm == "fedavg" else base + 4 * clients_per_round * p


class RoundStreams(NamedTuple):
    """A run's three generators, which every round continues."""

    sampling: np.random.Generator
    masks: np.random.Generator
    local_sgd: np.random.Generator


def run_streams(seed: int) -> RoundStreams:
    """The generators of a run with ``seed``: ``make_rng(seed, tag)``, one tag each."""
    return RoundStreams(make_rng(seed, _TAG_SAMPLING), make_rng(seed, _TAG_MASKS),
                        make_rng(seed, _TAG_LOCAL_SGD))


def run_round(
    state: ServerState,
    cfg: AlgorithmConfig,
    spec: ModelSpec,
    population: Population,
    streams: RoundStreams,
    *,
    settings: AggregationSettings = AggregationSettings(),
    summary_fn: Callable[[np.ndarray], tuple[float, ...]] | None = None,
) -> tuple[ServerState, RoundReport]:
    """One round of the configured algorithm; returns the next state.

    The round draws its cohort, pair mask words and shuffles from
    ``streams`` and leaves them advanced for the next round. FedAvg runs
    the same round with all-ones scaling (beta_k = n_k) and lambda
    frozen. A floating-point fault raises ``NumericError`` naming round
    t (see the module docstring).
    """
    fedavg = cfg.algorithm == "fedavg"
    p = state.lam.shape[0]
    if len(population) < cfg.clients_per_round:
        raise InvalidArgument(
            f"population of {len(population)} cannot supply {cfg.clients_per_round} clients"
        )
    if population.p != p:
        raise InvalidArgument(f"population has p={population.p} domains, lambda has {p}")
    checked = _LABELS_CHECKED.setdefault(population, set())
    if spec not in checked:
        check_labels(spec, population.y)
        checked.add(spec)
    t = state.round + 1
    with numeric_faults(f"round {t}"):
        picked = streams.sampling.choice(len(population), size=cfg.clients_per_round,
                                         replace=False)
        cohort = Cohort.gather(
            population, picked[population.client_ids[picked].argsort(kind="stable")])

        client_counts, client_loss_sums = compute_client_stats(spec, state.w, cohort)
        total = cohort_sum(
            np.concatenate((client_counts, client_loss_sums), axis=1, dtype=np.float64),
            streams.masks if settings.mask_stats else None,
            settings.scale_bits,
        )
        counts = np.rint(total[:p]).astype(np.int64)
        counts.flags.writeable = False
        # a domain with no samples sums to exactly 0 on either path
        loss_sums = total[p:]

        if fedavg:
            alpha = np.ones(p)
        else:
            alpha = compute_scaling(state.lam, effective_counts(state, cfg.scaling_mode, counts))

        params, betas = client_update(spec, state.w, alpha, cohort, cfg.local, streams.local_sgd)

        degenerate = False
        try:
            new_w = aggregate_params(params, betas,
                                     streams.masks if settings.mask_params else None,
                                     settings.scale_bits)
        except DegenerateRound:
            degenerate, new_w = True, state.w

        populated = counts > 0
        per_domain_loss = np.divide(loss_sums, counts, out=np.zeros(p), where=populated)

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
