"""Per-round client work: domain statistics and weighted local SGD.

The server puts two requests to the whole cohort at once, each over the
cohort's gathered rows (a ``core.Cohort``):

1. ``compute_client_stats``: every client's per-domain sample counts and
   summed losses, evaluated at the incoming parameters (before any
   training), from one ``batch_losses`` call, and
2. ``client_update``: E epochs of minibatch SGD, every client on its own
   scaled objective

       sum_i alpha_i * sum_{j in domain i} loss(w, x_j, y_j) / beta

   where beta = sum_i alpha_i * n_i is the client's aggregation weight.
   The denominator is the whole-client beta for every minibatch, so the
   full-batch gradient matches the objective's gradient exactly, and
   rescaling alpha by a constant cancels out of the update.

What stays per client is what the protocol and the determinism contract
need: each client's counts and loss sums are its own row of the result
and leave only through the server's cohort sum; each client shuffles
with its own ``rng_seed``, so it draws the same minibatches as it would
alone; and beta is each client's own ``np.dot(alpha, counts)``. The
clients step in lockstep: step s of an epoch takes every client's s-th
minibatch in one ``grad_weighted`` call per minibatch size (one call
when the clients are of equal size). A client with fewer rows than
another runs out of minibatches first and sits the later steps out.
Nothing is padded, and ``grad_weighted`` computes each stacked
minibatch as it would alone, so every client's result equals that of
training it alone bit for bit.

A client whose populated domains all carry zero scaling weight has
beta = 0; its statistics still count, but it keeps the incoming
parameters and signals a skip rather than failing.

Inputs are checked once per round: ``compute_client_stats`` runs
``models.check_batch`` on the incoming parameters and the cohort's rows
before anything else touches them. ``client_update`` trusts that check
and a scaling vector from ``server.compute_scaling`` (or all-ones for
FedAvg); its SGD loop does arithmetic only. A blow-up during local SGD
surfaces as ``NumericError`` from one finiteness check on the cohort's
new parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Cohort, InvalidArgument, NumericError, make_rng
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


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of the consecutive segments of ``values`` with the given lengths.

    Segments of one length are summed as the rows of one matrix, so each
    sum runs in numpy's pairwise order for its length, the order that
    ``segment.sum()`` uses. An empty segment sums to 0.
    """
    sums = np.zeros(lengths.shape[0])
    starts = np.cumsum(lengths) - lengths
    for length in set(lengths.tolist()) - {0}:
        segs = np.flatnonzero(lengths == length)
        sums[segs] = values[starts[segs, None] + np.arange(length)].sum(axis=1)
    return sums


def compute_client_stats(
    spec: ModelSpec,
    w: np.ndarray,
    cohort: Cohort,
) -> tuple[np.ndarray, np.ndarray]:
    """Every client's counts and summed losses per domain, evaluated at ``w``.

    Returns two (m, p) arrays. Row k of the loss sums adds client k's
    losses of each domain in its row order, as summing them alone would,
    so the sums equal a per-client evaluation bit for bit (but for a
    logistic client of one row, whose 1-row matrix product takes another
    BLAS path and may differ in the last bit). The round's check of
    ``w`` and of the cohort's rows happens here.
    """
    check_batch(spec, w, cohort.x, cohort.y)
    losses = batch_losses(spec, w, cohort.x, cohort.y)
    m, p = cohort.counts.shape
    owners = np.repeat(np.arange(m), cohort.sizes)
    by_client_domain = np.argsort(owners * p + cohort.domains, kind="stable")
    loss_sums = _segment_sums(losses[by_client_domain], cohort.counts.ravel()).reshape(m, p)
    if not np.all(np.isfinite(loss_sums)):
        raise NumericError("loss sums contain NaN or Inf")
    return cohort.counts, loss_sums


def client_update(
    spec: ModelSpec,
    w_in: np.ndarray,
    alpha: np.ndarray,
    cohort: Cohort,
    cfg: LocalSGDConfig,
    rng_seeds: Sequence[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """E epochs of scaled local SGD for every cohort client, from ``w_in``.

    Returns the (m, P) new parameters and the (m,) betas; a client with
    beta == 0 is skipped and keeps ``w_in``. Client k's per-epoch shuffle
    is keyed by ``rng_seeds[k]`` only (a seed in 0..2**64 - 1, as
    ``derive_seed`` returns), so the result is a deterministic function
    of the arguments. The last minibatch of an epoch may be
    short; it is kept, not dropped. Trusts that ``compute_client_stats``
    checked ``w_in`` and the cohort this round and that ``alpha`` is a
    finite, non-negative vector of length p.
    """
    betas = np.array([float(np.dot(alpha, counts)) for counts in cohort.counts])
    params = np.tile(w_in, (len(cohort), 1))
    live = np.flatnonzero(betas != 0.0)
    if live.size:
        params[live] = _lockstep_sgd(spec, params[live], alpha, cohort, live,
                                     betas[live, None], cfg, rng_seeds)
    if not np.all(np.isfinite(params)):
        raise NumericError("local SGD produced NaN or Inf parameters")
    return params, betas


def _lockstep_sgd(spec, w, alpha, cohort, live, betas, cfg, rng_seeds):
    """Local SGD of the cohort clients ``live``, one minibatch each per step."""
    sizes = cohort.sizes[live]
    starts = cohort.offsets[live]
    width = min(cfg.batch_size, int(sizes.max()))
    n_steps = -(-int(sizes.max()) // width)
    # rows each client draws at each step; one gradient call per step and
    # minibatch size, so no client's minibatch is padded
    drawn = np.clip(sizes[:, None] - width * np.arange(n_steps), 0, width)
    groups = [(s, np.flatnonzero(drawn[:, s] == rows), rows)
              for s in range(n_steps) for rows in set(drawn[:, s].tolist()) - {0}]
    sample_weights = alpha[cohort.domains]
    # client k's epoch order fills the first sizes[k] slots of row k
    slots = np.zeros((live.size, n_steps * width), dtype=np.int64)
    filled = np.arange(n_steps * width) < sizes[:, None]
    rngs = make_rng(np.asarray(rng_seeds, dtype=np.uint64)[live])
    for _ in range(cfg.epochs):
        slots[filled] = np.concatenate(
            [start + rng.permutation(n) for rng, start, n in zip(rngs, starts, sizes)])
        batches = slots.reshape(live.size, n_steps, width)
        for s, clients, rows in groups:
            idx = batches[clients, s, :rows]
            g = grad_weighted(spec, w[clients], cohort.x[idx], cohort.y[idx],
                              sample_weights[idx])
            w[clients] -= cfg.learning_rate * (g / betas[clients])
    return w
