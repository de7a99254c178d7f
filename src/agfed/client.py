"""Per-round client work: domain statistics and weighted local SGD.

The server puts two requests to the whole cohort at once, each over the
cohort's rows, taken from the pooled population by one index (a
``core.Cohort``). The rows are augmented, features followed by a ones
column, as the model kernels take them, so neither phase copies a
feature matrix to add a bias:

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

What stays per client is what the protocol needs: each client's counts
and loss sums are its own row of the result and leave only through the
server's cohort sum, and beta is each client's own dot product of alpha
with its counts, computed for the cohort in one stacked ``np.matmul``
that rounds as a per-client ``np.dot`` does. The minibatch order is
drawn for the whole cohort from one generator per round: each epoch
gives every cohort row a uniform key, and each client visits its own
rows in key order. A client's shuffle therefore depends on the round's
local-SGD generator and on its place in the cohort, not on its id
alone. All orders come from one row-wise stable argsort of a (clients x
slots) key matrix, padded past each client's size with a key above
every draw. The clients step in lockstep: step s of an epoch takes
every client's s-th minibatch in one ``grad_weighted`` call per
minibatch size (one call when the clients are of equal size). A client with fewer rows than
another runs out of minibatches first and sits the later steps out. No
minibatch is padded, and ``grad_weighted`` computes each stacked
minibatch as it would alone, so every client's result equals that of
training it alone, on the same minibatches, bit for bit.

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

import numpy as np

from .core import Cohort, InvalidArgument, NumericError
# perfbench/tracing.py wraps client.make_rng, so the name stays here
from .core import make_rng  # noqa: F401
from .models import ModelSpec, batch_losses, check_batch, grad_weighted


@dataclass(frozen=True)
class LocalSGDConfig:
    """Client-side SGD hyperparameters: epochs, minibatch size, step size."""

    epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidArgument("learning_rate must be > 0")


# numpy adds up to this many values left to right from +0.0; from 8 on
# it sums pairwise, in an order that depends on the count
_LEFT_TO_RIGHT = 7
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of the consecutive segments of ``values`` with the given lengths.

    Each sum has the bits of ``segment.sum()``. numpy sums a row of at
    most 7 values left to right, starting from +0.0, so every segment
    shorter than 8 is one row of a single matrix of width at most 7,
    padded with +0.0 past its end, and one ``sum(axis=1)`` takes them
    all: a left-to-right sum that starts from +0.0 is never -0.0, and
    adding +0.0 to anything else changes no bit. Longer segments are
    summed pairwise in an order that depends on their length, so the
    segments of each length >= 8 are summed as the rows of their own
    matrix. An empty segment sums to +0.0.
    """
    starts = lengths.cumsum() - lengths
    sums = np.empty(lengths.shape[0])
    short = lengths <= _LEFT_TO_RIGHT
    short_lengths = lengths[short]
    slots = np.arange(short_lengths.max(initial=0))
    # pad slots read the +0.0 appended at index values.shape[0]
    rows = np.where(slots < short_lengths[:, None], starts[short, None] + slots, values.shape[0])
    sums[short] = np.concatenate((values, _ZERO))[rows].sum(axis=1)
    for length in set(lengths[~short].tolist()):
        segs = (lengths == length).nonzero()[0]
        sums[segs] = values[starts[segs, None] + np.arange(length)].sum(axis=1)
    return sums


def _betas(alpha: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's ``float(np.dot(alpha, counts[k]))``, bit for bit, in one call.

    A stack of (1 x p) @ (p x 1) products rounds as the per-row dot
    does; ``counts @ alpha``, ``(counts * alpha).sum(1)`` and ``einsum``
    may differ from it in the last bit.
    """
    return np.matmul(counts.astype(np.float64)[:, None, :], alpha[:, None])[:, 0, 0]


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
    check_batch(spec, w, cohort.xb, cohort.y)
    losses = batch_losses(spec, w, cohort.xb, cohort.y)
    m, p = cohort.counts.shape
    by_client_domain = (cohort.owners * p + cohort.domains).argsort(kind="stable")
    loss_sums = _segment_sums(losses[by_client_domain], cohort.counts.ravel()).reshape(m, p)
    if not np.isfinite(loss_sums).all():
        raise NumericError("loss sums contain NaN or Inf")
    return cohort.counts, loss_sums


def client_update(
    spec: ModelSpec,
    w_in: np.ndarray,
    alpha: np.ndarray,
    cohort: Cohort,
    cfg: LocalSGDConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """E epochs of scaled local SGD for every cohort client, from ``w_in``.

    Returns the (m, P) new parameters and the (m,) betas; a client with
    beta == 0 is skipped and keeps ``w_in``. Every epoch draws one
    uniform key per cohort row from ``rng``, skipped clients' rows
    included, and each client visits its rows in the stable order of
    their keys; so the result is a deterministic function of the
    arguments and the generator's state. The last minibatch of an epoch
    may be short; it is kept, not dropped. Trusts that
    ``compute_client_stats`` checked ``w_in`` and the cohort this round
    and that ``alpha`` is a finite, non-negative vector of length p.
    """
    betas = _betas(alpha, cohort.counts)
    params = w_in[None, :].repeat(len(cohort), axis=0)
    live = betas != 0.0
    if live.any():
        params[live] = _lockstep_sgd(spec, params[live], alpha, cohort, live,
                                     betas[live, None], cfg, rng)
    if not np.isfinite(params).all():
        raise NumericError("local SGD produced NaN or Inf parameters")
    return params, betas


def _lockstep_sgd(spec, w, alpha, cohort, live, betas, cfg, rng):
    """Local SGD of the cohort clients where ``live``, one minibatch each per step."""
    sizes = cohort.sizes[live]
    width = min(cfg.batch_size, int(sizes.max()))
    n_steps = -(-int(sizes.max()) // width)
    # rows each client draws at each step; one gradient call per step and
    # minibatch size, so no client's minibatch is padded
    drawn = np.minimum(np.maximum(sizes[:, None] - width * np.arange(n_steps), 0), width)
    groups = [(s, (drawn[:, s] == rows).nonzero()[0], rows)
              for s in range(n_steps) for rows in set(drawn[:, s].tolist()) - {0}]
    sample_weights = alpha[cohort.domains]
    # client k's keys fill the first sizes[k] slots of row k; the padding
    # key 2.0 exceeds every draw in [0, 1), so a stable sort of row k puts
    # the positions of client k's rows, in key order, first
    slot_keys = np.full((sizes.shape[0], n_steps * width), 2.0)
    filled = np.arange(n_steps * width) < sizes[:, None]
    live_rows = live[cohort.owners]
    starts = cohort.offsets[:-1][live, None]
    for _ in range(cfg.epochs):
        keys = rng.random(cohort.owners.shape[0])
        slot_keys[filled] = keys[live_rows]
        slots = starts + slot_keys.argsort(axis=1, kind="stable")
        batches = slots.reshape(sizes.shape[0], n_steps, width)
        for s, clients, rows in groups:
            idx = batches[clients, s, :rows]
            g = grad_weighted(spec, w[clients], cohort.xb[idx], cohort.y[idx],
                              sample_weights[idx])
            w[clients] -= cfg.learning_rate * (g / betas[clients])
    return w
