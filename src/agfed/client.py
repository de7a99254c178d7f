"""Per-round client work: domain statistics and weighted local SGD.

A selected client answers two requests with the incoming parameters:

1. ``compute_client_stats``: per-domain sample counts and summed losses
   evaluated at the incoming parameters (before any training), which
   the server gathers once per round, and
2. ``client_update``: E epochs of minibatch SGD on the scaled objective

       sum_i alpha_i * sum_{j in domain i} loss(w, x_j, y_j) / beta

   where beta = sum_i alpha_i * n_i is the client's aggregation weight.
   The denominator is the whole-client beta for every minibatch, so the
   full-batch gradient matches the objective's gradient exactly, and
   rescaling alpha by a constant cancels out of the update.

A client whose populated domains all carry zero scaling weight has
beta = 0; its statistics still count, but its update signals a skip
(no parameter update) rather than failing.

Inputs are checked once per client and round: ``compute_client_stats``
runs ``models.check_batch`` on the incoming parameters and the client's
data before anything else touches them. ``client_update`` trusts that
check and a scaling vector from ``server.compute_scaling`` (or all-ones
for FedAvg); its SGD loop does arithmetic only. A blow-up during local
SGD surfaces as ``NumericError`` when ``ClientUpdateResult`` receives
non-finite parameters.

``client_update`` is a pure function of its arguments; a harness may run
all selected clients of a round concurrently as long as it reduces the
results in ascending client id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClientDataset,
    DomainStats,
    InvalidArgument,
    as_param_vector,
    make_rng,
)
from .models import ModelSpec, batch_losses, check_batch, grad_weighted


@dataclass(frozen=True)
class LocalSGDConfig:
    """Client-side SGD hyperparameters: epochs, minibatch size, step size."""

    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidArgument("learning_rate must be > 0")


@dataclass(frozen=True)
class ClientUpdateResult:
    """What local training returns: new parameters and weight beta.

    The client's statistics are not part of it; the server gathers them
    with ``compute_client_stats`` before training. ``beta == 0`` marks a
    skipped client: its statistics count but it makes no parameter update.
    """

    new_params: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "new_params", as_param_vector(self.new_params))
        if self.beta < 0:
            raise InvalidArgument("beta must be >= 0")

    @property
    def skipped(self) -> bool:
        return self.beta == 0.0


def compute_client_stats(
    spec: ModelSpec,
    w: np.ndarray,
    data: ClientDataset,
    p: int,
) -> DomainStats:
    """Counts and summed losses per domain, evaluated at ``w``.

    The round's check of ``w`` and of the client's data happens here.
    """
    check_batch(spec, w, data.feature_matrix, data.labels)
    counts = data.domain_counts(p)
    losses = batch_losses(spec, w, data.feature_matrix, data.labels)
    loss_sums = np.zeros(p)
    for i in range(p):
        if counts[i]:
            loss_sums[i] = float(losses[data.domains == i].sum())
    return DomainStats(counts, loss_sums)


def client_update(
    spec: ModelSpec,
    w_in: np.ndarray,
    alpha: np.ndarray,
    data: ClientDataset,
    cfg: LocalSGDConfig,
    rng_seed: int,
) -> ClientUpdateResult:
    """E epochs of scaled local SGD starting from ``w_in``.

    The per-epoch shuffle is keyed by ``rng_seed`` only, so the result is
    a deterministic function of the arguments. The last minibatch of an
    epoch may be short; it is kept, not dropped. Trusts that
    ``compute_client_stats`` checked ``w_in`` and ``data`` this round and
    that ``alpha`` is a finite, non-negative vector of length p.
    """
    beta = float(np.dot(alpha, data.domain_counts(alpha.shape[0])))
    if beta == 0.0:
        return ClientUpdateResult(w_in, 0.0)

    x = data.feature_matrix
    y = data.labels
    sample_weights = alpha[data.domains]
    n = len(data)
    rng = make_rng(rng_seed)
    w = np.array(w_in, dtype=np.float64)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            g = grad_weighted(spec, w, x[idx], y[idx], sample_weights[idx])
            w -= cfg.learning_rate * (g / beta)
    return ClientUpdateResult(w, beta)
