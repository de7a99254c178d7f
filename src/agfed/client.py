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
drawn for the whole cohort from the one generator passed in (the run's
local-SGD generator, which every round continues): each epoch gives
every cohort row a uniform key, and each client visits its own rows in
the stable order of their keys. A client's shuffle therefore depends
on that generator's state and on the client's place in the cohort, not
on its id alone. The keys are ``Generator.random``'s, but they are
never made: ``random`` makes each key from a 64-bit word as
``(word >> 11) * 2**-53``, and ``bit_generator.random_raw`` draws the
same words and leaves the generator in the same state. The high 53
bits of the words order them as the keys are ordered, so the low 11
bits are free for a tag that breaks ties in row order. The tag is the
row's place in the cohort when the cohort holds at most 2048 rows, and
else its slot in its client's row, to which the client's first row is
added after the sort. All orders come from one row-wise sort of the
(clients x slots) uint64 words, padded past each client's size with
words of all ones, and the sorted words' tags are the orders. They are
those of a stable argsort of ``random``'s keys, ties included. A
client of more than 2048 rows has slots that need more than 11 bits;
its cohort takes a stable argsort of the 53-bit keys instead, with
padding above every key. The clients step in lockstep: step s of an
epoch takes every client's s-th minibatch in one ``grad_weighted`` call
per minibatch size (one call when the clients are of equal size). A client
with fewer rows than another runs out of minibatches first and sits the
later steps out. No minibatch is padded, and ``grad_weighted`` computes
each stacked minibatch as it would alone, so every client's result
equals that of training it alone, on the same minibatches, bit for bit.

The loss sums keep the bits of each client's own per-domain ``sum()``.
numpy adds at most 7 values left to right from +0.0, so one
``np.add.at`` in cohort row order takes every (client, domain) segment
of at most 7 rows, as in the shipped toy config, with no sort. numpy
sums a longer segment pairwise, in an order set by its length, so those
segments are summed as rows, one ``sum(1)`` per length, of the losses
in segment order. A client-partition cohort is in that order already:
each client's rows are one segment. It needs no sort, and when every
segment is of one length, as in the shipped classification config, the
sums are one reshape-sum. Other cohorts are sorted into it first.

Everything that schedule takes from the clients' sizes alone is built
once per size profile: the minibatch width and step count, the groups
of clients that draw the same number of rows at a step, which slots of
the word matrix hold a row, and the slots' tags. ``_schedule`` keeps it
in a module-level ``lru_cache`` of 16 entries, keyed by the bytes of the
cohort's int64 sizes (the key ``core._row_layout`` uses) and the
minibatch size; its arrays are shared by every round that hits the
entry and are read-only.
Cohorts of equal-size clients, as in the shipped configs, hit it every
round; a ragged cohort mostly misses and builds its schedule as before.
Two paths skip work that changes no bit: when every slot holds a row,
the words are reshaped into the slot matrix with no padding; and a step
group of every client indexes with a slice, so its rows and parameters
are views and the update runs in place.

A client whose populated domains all carry zero scaling weight has
beta = 0; its statistics still count, but it is skipped: it steps with
the others on rows that all weigh 0, so it moves by +-0 (divided by 1,
not by its beta), and it gets ``w_in`` back, bit for bit. When the
whole cohort skips, no step is taken.

``compute_client_stats`` checks the shapes of the incoming parameters
and the cohort's rows (``models.check_batch``); their values were
checked where they entered (see ``server``). ``client_update`` trusts
that and a scaling vector from ``server.compute_scaling`` (or all-ones
for FedAvg); its SGD loop does arithmetic only, and a blow-up in it is
a floating-point fault that ``server.run_round`` raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Cohort, InvalidArgument
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
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise InvalidArgument(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}")


# numpy sums at most this many values left to right from +0.0, as
# ``np.add.at`` into zeros adds them in row order, so the bits agree; from
# 8 on it sums pairwise, in an order set by the count (test_client.py pins
# both)
_LEFT_TO_RIGHT = 7

# ``Generator.random`` keeps the high 53 bits of a 64-bit word as a key
# (test_client.py pins it), so the low _TAG_BITS are free to number a
# client's slots, or the cohort's rows, when there are at most _TAGS
_TAG_BITS = 11
_TAGS = 1 << _TAG_BITS
_TAG_MASK = np.uint64(_TAGS - 1)


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

    Returns two (m, p) arrays. Each loss sum has the bits of its
    (client, domain) segment's own ``sum()`` in the client's row order, so
    the sums equal a per-client evaluation bit for bit (but for a logistic
    client of one row, whose 1-row matrix product takes another BLAS path
    and may differ in the last bit). One ``np.add.at`` over the cohort's
    rows takes every segment of at most ``_LEFT_TO_RIGHT`` rows; longer
    ones are summed pairwise, as a sequential sum of their rows could
    overflow where numpy's does not, sorted into place first unless the
    rows are in segment order already. Under ``run_round``'s errstate
    ``add.at`` raises an overflow (``np.bincount`` returns inf). The
    round's check of the shapes of ``w`` and of the cohort's rows happens
    here; the labels' values are trusted, as ``run_round`` checks them
    once per population (``models.check_labels``).
    """
    check_batch(spec, w, cohort.xb, cohort.y, labels=False)
    losses = batch_losses(spec, w, cohort.xb, cohort.y)
    m, p = cohort.counts.shape
    lengths = cohort.counts.ravel()
    cells = cohort.owners * p + cohort.domains
    loss_sums = np.zeros(m * p)
    long = lengths > _LEFT_TO_RIGHT
    if not long.any():
        np.add.at(loss_sums, cells, losses)
        return cohort.counts, loss_sums.reshape(m, p)
    # the losses in segment order, each segment in its row order; a cohort
    # whose clients hold each domain's rows in one run, in domain order (as
    # every client-partition cohort does), is in that order already
    if (cells[1:] >= cells[:-1]).all():
        ordered = losses
    else:
        ordered = losses[cells.argsort(kind="stable")]
    populated = set(lengths.tolist()) - {0}
    if len(populated) == 1:
        # every segment of one length, and long: one row each
        loss_sums[lengths > 0] = ordered.reshape(-1, *populated).sum(1)
    else:
        short = ~long[cells]
        np.add.at(loss_sums, cells[short], losses[short])
        starts = lengths.cumsum() - lengths
        for length in {length for length in populated if length > _LEFT_TO_RIGHT}:
            segs = (lengths == length).nonzero()[0]
            loss_sums[segs] = ordered[starts[segs, None] + np.arange(length)].sum(1)
    return cohort.counts, loss_sums.reshape(m, p)


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
    beta == 0 is skipped and gets ``w_in`` back. Every epoch draws one
    64-bit word per cohort row with ``rng.bit_generator.random_raw``, and
    each client visits its rows in the stable order of the keys
    ``rng.random`` would make of those words (``_minibatch_order``); so
    the result is a deterministic function of the arguments and the
    generator's state, and ``rng`` ends where ``rng.random(rows *
    epochs)`` would leave it, or untouched when every client skips. The
    last minibatch of an epoch may be short; it is kept, not dropped.
    Trusts that ``rng``'s bit generator makes ``random``'s keys from its
    64-bit words, as ``core.make_rng``'s PCG64 does, that
    ``compute_client_stats`` checked ``w_in`` and the cohort this round,
    and that ``alpha`` is a finite, non-negative vector of length p.
    """
    betas = _betas(alpha, cohort.counts)
    params = w_in[None, :].repeat(len(cohort), axis=0)
    skipped = betas == 0.0
    if skipped.all():
        return params, betas
    schedule = _schedule(cohort.sizes.tobytes(), cfg.batch_size)
    # a skipped client's rows weigh 0, so it steps by +-0 and is divided by 1
    divisors = np.where(skipped, 1.0, betas)[:, None]
    sample_weights = alpha[cohort.domains]
    starts = cohort.offsets[:-1, None]
    random_raw = rng.bit_generator.random_raw
    for _ in range(cfg.epochs):
        batches = _minibatch_order(random_raw(cohort.owners.shape[0]), schedule, starts).reshape(
            -1, schedule.n_steps, schedule.width)
        for s, clients, rows in schedule.groups:
            idx = batches[clients, s, :rows]
            # take gives fancy indexing's rows in a fraction of the time
            g = grad_weighted(spec, params[clients], cohort.xb.take(idx, axis=0),
                              cohort.y[idx], sample_weights[idx])
            params[clients] -= cfg.learning_rate * (g / divisors[clients])
    # a skipped client moved by +-0 only; it gets w_in's bits, zero signs too
    params[skipped] = w_in
    return params, betas


class _Schedule(NamedTuple):
    """How the clients of given sizes step through their minibatches."""

    width: int                 # slots per minibatch
    n_steps: int               # minibatches per epoch of the largest client
    # (step, clients, rows): one gradient call on ``rows`` rows of each of
    # ``clients``, a read-only index array, or ``slice(None)`` for all
    groups: tuple[tuple[int, np.ndarray | slice, int], ...]
    # the (m, n_steps * width) slots that hold a row, read-only; None when all do
    filled: np.ndarray | None
    # the (m, n_steps * width) uint64 words that ``_minibatch_order`` ORs
    # into an epoch's words, read-only
    tags: np.ndarray
    wide: bool                 # a client holds more than _TAGS rows
    by_row: bool               # the tags number cohort rows, not slots


@functools.lru_cache(maxsize=16)
def _schedule(sizes: bytes, batch_size: int) -> _Schedule:
    """The schedule of clients with the given int64 sizes, in the bytes of the array."""
    sizes = np.frombuffer(sizes, dtype=np.int64)
    largest = int(sizes.max())
    width = min(batch_size, largest)
    n_steps = -(-largest // width)
    # rows each client draws at each step; one gradient call per step and
    # minibatch size, so no client's minibatch is padded
    drawn = np.minimum(np.maximum(sizes[:, None] - width * np.arange(n_steps), 0), width)
    groups = []
    for s in range(n_steps):
        for rows in set(drawn[:, s].tolist()) - {0}:
            clients = np.nonzero(drawn[:, s] == rows)[0]
            if clients.shape[0] == sizes.shape[0]:
                # a slice takes views of every client's rows and updates them in place
                clients = slice(None)
            else:
                clients.flags.writeable = False
            groups.append((s, clients, rows))
    slots = np.arange(n_steps * width)
    filled = slots < sizes[:, None]
    wide = largest > _TAGS
    by_row = int(sizes.sum()) <= _TAGS
    if wide:
        # a slot does not fit in a tag: tag 0 leaves a row's key as it is,
        # and 2**53 puts padding above every key
        index, pad = 0, 1 << 53
    elif by_row:
        # the sort gives cohort rows, so no client's first row is added after it
        index, pad = (sizes.cumsum() - sizes)[:, None] + slots, 2**64 - 1
    else:
        index, pad = slots, 2**64 - 1
    tags = np.where(filled, np.asarray(index, dtype=np.uint64), np.uint64(pad))
    filled.flags.writeable = False
    tags.flags.writeable = False
    if filled.all():
        filled = None
    return _Schedule(width, n_steps, tuple(groups), filled, tags, wide, by_row)


def _minibatch_order(raw: np.ndarray, schedule: _Schedule, starts: np.ndarray) -> np.ndarray:
    """Every client's cohort rows in the stable order of their keys, from an epoch's words.

    ``raw`` holds one ``random_raw`` word per cohort row, from which
    ``Generator.random`` makes the row's key ``(word >> 11) * 2**-53``;
    ``starts`` holds each client's first cohort row, (m, 1). Row k of the
    (m, n_steps * width) result lists client k's rows in the stable order
    of those keys, followed by its padding slots, which hold no cohort
    row. ``raw`` may be overwritten.
    """
    filled, tags = schedule.filled, schedule.tags
    if filled is None:
        words = raw.reshape(tags.shape)
    else:
        # the tags set the padding words' bits, so their contents do not matter
        words = np.empty(tags.shape, dtype=np.uint64)
        words[filled] = raw
    if schedule.wide:
        keys = words >> _TAG_BITS
        keys |= tags
        return starts + keys.argsort(axis=1, kind="stable")
    # a key's bits in the high 53, its row's (or slot's) tag in the low 11,
    # so equal keys keep row order; padding is all ones and sorts last
    words &= ~_TAG_MASK
    words |= tags
    words.sort(axis=1)
    words &= _TAG_MASK
    order = words.view(np.int64)
    return order if schedule.by_row else starts + order
