"""Task and dataset generators.

Two desk-scale tasks:

- ``toy-regression``: p clusters of points on the real line around fixed
  centers. The min-max optimum over domains is the midpoint of the
  extreme centers, which doubles as an analytic oracle. Every domain
  uses the *same* deterministic symmetric offsets around its center, so
  all domains have identical sample variance; that keeps the argmin of
  the worst per-sample squared loss equal to the argmin of the worst
  center distance, which is what the oracle describes.

- ``synthetic-classification``: p Gaussian-mixture domains over R^d for
  a binary logistic model. Each domain separates its two classes along
  its own direction with its own margin, so a deliberately harder
  minority domain (smaller margin, fewer clients) genuinely conflicts
  with the majority domain instead of merely being noisier.

Both support the two partition schemes: ``client-partition`` (every
client's samples share one domain) and ``data-partition`` (clients mix
domains). Generation is a pure function of the config seed. Each
generator writes its samples into the pooled arrays of one
``core.Population``, client after client. The classification generator
draws whole arrays, in this order: the client sizes (for a ``lo..hi``
range only), every sample's domain (data partition only), every label,
then the (N x d) feature noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import InvalidArgument, Population, make_rng, numeric_faults
from .models import ModelSpec

TaskKind = Literal["toy-regression", "synthetic-classification"]
Partition = Literal["client-partition", "data-partition"]

_TAG_TOY = 11
_TAG_CLASSIFICATION = 12


@dataclass(frozen=True)
class TaskConfig:
    """Everything needed to regenerate a task's population from a seed."""

    kind: TaskKind
    p: int
    num_clients: int
    seed: int
    partition: Partition
    samples_per_client: int | tuple[int, int] = 20
    # toy-regression knobs
    centers: tuple[float, ...] = (-2.0, -1.0, 0.0, 1.0, 2.0)
    points_per_domain: int = 100
    spread: float = 0.5
    init_value: float = 1.5
    # synthetic-classification knobs
    margins: tuple[float, ...] = (2.0, 0.5)
    shares: tuple[float, ...] = (0.85, 0.15)
    mixing: tuple[float, ...] | None = None
    noise: float = 0.5
    input_dim: int = 2

    def __post_init__(self):
        if self.kind not in ("toy-regression", "synthetic-classification"):
            raise InvalidArgument(f"unknown task kind {self.kind!r}")
        if self.partition not in ("client-partition", "data-partition"):
            raise InvalidArgument(f"unknown partition {self.partition!r}")
        for name in ("spread", "init_value", "noise", "centers", "margins", "shares", "mixing"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise InvalidArgument(f"{name} must be finite, got {value!r}")
        if self.p < 1:
            raise InvalidArgument("p must be >= 1")
        if self.num_clients < 1:
            raise InvalidArgument("num_clients must be >= 1")
        if isinstance(self.samples_per_client, tuple):
            lo, hi = self.samples_per_client
            if lo < 1 or hi < lo:
                raise InvalidArgument("samples_per_client range must satisfy 1 <= lo <= hi")
        elif self.samples_per_client < 1:
            raise InvalidArgument("samples_per_client must be >= 1")

        if self.kind == "toy-regression":
            if len(self.centers) != self.p:
                raise InvalidArgument(
                    f"need {self.p} centers, got {len(self.centers)}"
                )
            if self.points_per_domain < 1:
                raise InvalidArgument("points_per_domain must be >= 1")
            if self.spread < 0:
                raise InvalidArgument("spread must be >= 0")
            if self.p * self.points_per_domain < self.num_clients:
                raise InvalidArgument("fewer points than clients; some client would be empty")
            if self.partition == "client-partition" and self.num_clients < self.p:
                raise InvalidArgument("client partition needs at least one client per domain")
        else:
            if self.input_dim < 2:
                raise InvalidArgument("classification needs input_dim >= 2")
            if len(self.margins) != self.p:
                raise InvalidArgument(f"need {self.p} margins, got {len(self.margins)}")
            if self.partition == "client-partition":
                if len(self.shares) != self.p:
                    raise InvalidArgument(f"need {self.p} shares, got {len(self.shares)}")
                if any(s <= 0 for s in self.shares):
                    raise InvalidArgument("client shares must be > 0")
                if self.num_clients < self.p:
                    raise InvalidArgument("client partition needs at least one client per domain")
            if self.mixing is not None:
                if self.partition != "data-partition":
                    raise InvalidArgument("mixing only applies to the data partition")
                if len(self.mixing) != self.p:
                    raise InvalidArgument(f"need {self.p} mixing weights, got {len(self.mixing)}")
                if any(m < 0 for m in self.mixing) or abs(sum(self.mixing) - 1.0) > 1e-9:
                    raise InvalidArgument("mixing weights must be a distribution")


def model_spec_for(cfg: TaskConfig) -> ModelSpec:
    """Hypothesis class matching the task."""
    if cfg.kind == "toy-regression":
        return ModelSpec("scalar-regression")
    return ModelSpec("logistic", input_dim=cfg.input_dim, num_classes=2)


def initial_params_for(cfg: TaskConfig) -> np.ndarray:
    """Starting parameters: the toy's configured scalar, zeros otherwise."""
    if cfg.kind == "toy-regression":
        return np.array([cfg.init_value])
    return np.zeros(model_spec_for(cfg).param_count)


def _split_counts(total: int, weights: Sequence[float]) -> list[int]:
    """Largest-remainder allocation of ``total`` slots, each part >= 1."""
    weights = np.asarray(weights, dtype=np.float64)
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(int)
    counts = np.maximum(counts, 1)
    while counts.sum() > total:
        counts[int(np.argmax(counts))] -= 1
    remainder = quotas - np.floor(quotas)
    while counts.sum() < total:
        order = np.argsort(-remainder)
        counts[order[0]] += 1
        remainder[order[0]] = -1.0
    return [int(c) for c in counts]


def _dealt(order: np.ndarray, n_clients: int) -> tuple[np.ndarray, np.ndarray]:
    """Deal ``order`` round-robin to ``n_clients``: client k gets
    ``order[k::n_clients]``. Returns the dealt entries client by client
    and each client's count."""
    hands = np.arange(order.shape[0]) % n_clients
    return order[np.argsort(hands, kind="stable")], np.bincount(hands, minlength=n_clients)


def gen_toy_regression(cfg: TaskConfig) -> tuple[Population, float]:
    """Toy 1-D population plus the analytic min-max oracle.

    Domain i holds ``points_per_domain`` points ``centers[i] + offsets``
    with offsets shared by all domains. Points are dealt to clients after
    a seeded shuffle, so every client is non-empty and the assignment is
    random but reproducible.
    """
    if cfg.kind != "toy-regression":
        raise InvalidArgument("config is not a toy-regression task")
    rng = make_rng(cfg.seed, _TAG_TOY)
    offsets = np.linspace(-cfg.spread, cfg.spread, cfg.points_per_domain)
    if cfg.points_per_domain == 1:
        offsets = np.zeros(1)

    values = np.concatenate([center + offsets for center in cfg.centers])
    domains = np.repeat(np.arange(cfg.p), cfg.points_per_domain)

    if cfg.partition == "data-partition":
        picks, sizes = _dealt(rng.permutation(values.shape[0]), cfg.num_clients)
    else:
        dealt = [_dealt(i * cfg.points_per_domain + rng.permutation(cfg.points_per_domain), k)
                 for i, k in enumerate(_split_counts(cfg.num_clients, [1.0] * cfg.p))]
        picks = np.concatenate([hand for hand, _ in dealt])
        sizes = np.concatenate([counts for _, counts in dealt])

    population = Population(values[picks, None], values[picks], domains[picks],
                            np.concatenate([[0], np.cumsum(sizes)]),
                            np.arange(cfg.num_clients), cfg.p)
    oracle = (min(cfg.centers) + max(cfg.centers)) / 2.0
    return population, oracle


def _domain_directions(p: int, input_dim: int) -> np.ndarray:
    """Per-domain unit separation directions, spread over a half-circle."""
    angles = np.pi * np.arange(p) / max(p, 1)
    dirs = np.zeros((p, input_dim))
    dirs[:, 0] = np.cos(angles)
    dirs[:, 1] = np.sin(angles)
    return dirs


def gen_synthetic_classification(cfg: TaskConfig) -> Population:
    """Gaussian-mixture classification population over p domains.

    With ``client-partition`` the client population is split by
    ``shares`` (the minority domain gets fewer clients); with
    ``data-partition`` every sample's domain is drawn from ``mixing``
    (uniform when unset). A sample of domain i with label c in {0, 1}
    is (2c - 1) * margins[i] / 2 along domain i's direction, plus
    Gaussian noise of standard deviation ``noise`` per coordinate.
    """
    if cfg.kind != "synthetic-classification":
        raise InvalidArgument("config is not a synthetic-classification task")
    rng = make_rng(cfg.seed, _TAG_CLASSIFICATION)
    if isinstance(cfg.samples_per_client, tuple):
        lo, hi = cfg.samples_per_client
        sizes = rng.integers(lo, hi + 1, size=cfg.num_clients)
    else:
        sizes = np.full(cfg.num_clients, cfg.samples_per_client)
    total = int(sizes.sum())
    if cfg.partition == "client-partition":
        per_domain = _split_counts(cfg.num_clients, cfg.shares)
        domains = np.repeat(np.repeat(np.arange(cfg.p), per_domain), sizes)
    else:
        mixing = cfg.mixing if cfg.mixing is not None else [1.0 / cfg.p] * cfg.p
        domains = rng.choice(cfg.p, size=total, p=mixing)
    labels = rng.integers(0, 2, size=total)
    half_margins = (2 * labels - 1) * (np.asarray(cfg.margins)[domains] / 2.0)
    x = (half_margins[:, None] * _domain_directions(cfg.p, cfg.input_dim).take(domains, axis=0)
         + cfg.noise * rng.standard_normal((total, cfg.input_dim)))
    return Population(x, labels, domains, np.concatenate([[0], np.cumsum(sizes)]),
                      np.arange(cfg.num_clients), cfg.p)


def generate_population(cfg: TaskConfig) -> tuple[Population, float | None]:
    """Dispatch to the task's generator; oracle is None unless the task has one."""
    with numeric_faults("population generation"):
        if cfg.kind == "toy-regression":
            return gen_toy_regression(cfg)
        return gen_synthetic_classification(cfg), None
