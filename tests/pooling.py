"""Populations pooled from per-client arrays, for tests."""

import numpy as np

from agfed.core import Population


def pool(clients, p):
    """The ``Population`` of ``(client_id, features, labels, domains)`` clients, in order."""
    ids, xs, ys, domains = zip(*clients)
    return Population(np.concatenate(xs), np.concatenate(ys), np.concatenate(domains),
                      np.cumsum([0] + [len(y) for y in ys]), ids, p)
