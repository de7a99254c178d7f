"""Outside-in span tracer for the agfed benchmark.

The tracer wraps public callables at the names their callers look up
(``agfed.server.client_update``, not ``agfed.client.client_update``), so
the program itself is untouched. Each call records one span -- name,
start, end, parent -- in memory; per-layer busy time, self time and exact
work counts are derived from the spans after the run.

Self time is a span's duration minus the time its child spans cover.
The benchmark is single-threaded, so children never overlap and the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import agfed.cli
import agfed.client
import agfed.harness
import agfed.secagg
import agfed.server

# (owner, attribute, span name): every callable the traced run wraps.
TARGETS = (
    (agfed.cli, "load_config", "config.load_config"),
    (agfed.cli, "run_experiment_full", "harness.run_experiment"),
    (agfed.harness, "generate_population", "tasks.generate_population"),
    (agfed.harness, "run_round", "server.run_round"),
    (agfed.harness, "emit_plots", "harness.emit_plots"),
    (agfed.server, "compute_client_stats", "client.compute_client_stats"),
    (agfed.server, "client_update", "client.client_update"),
    (agfed.server, "aggregate_params", "server.aggregate_params"),
    (agfed.server, "lambda_update_eg", "server.lambda_update"),
    (agfed.server, "derive_seed", "core.rng"),
    (agfed.server, "make_rng", "core.rng"),
    (agfed.client, "compute_client_stats", "client.compute_client_stats"),
    (agfed.client, "grad_weighted", "models.grad_weighted"),
    (agfed.client, "batch_losses", "models.batch_losses"),
    (agfed.client, "make_rng", "core.rng"),
    (agfed.secagg, "mask_set", "secagg.mask_set"),
    (agfed.secagg.SecureSum, "submit", "secagg.SecureSum.submit"),
    (agfed.secagg.SecureSum, "aggregate", "secagg.SecureSum.aggregate"),
)

# Per-layer metrics of one traced operation: name -> unit.
LAYER_UNITS = {
    "tasks.generate_population.busy_s": "s",
    "tasks.samples_generated": "count",
    "config.load_config.busy_s": "s",
    "client.compute_client_stats.calls": "count",
    "client.compute_client_stats.busy_s": "s",
    "client.stats_evals_per_client_round": "ratio",
    "client.client_update.busy_s": "s",
    "client.client_update.self_s": "s",
    "models.grad_weighted.calls": "count",
    "models.grad_weighted.busy_s": "s",
    "models.grad_weighted.us_per_call": "us",
    "models.batch_losses.calls": "count",
    "models.batch_losses.busy_s": "s",
    "secagg.SecureSum.submit.calls": "count",
    "secagg.SecureSum.submit.busy_s": "s",
    "secagg.mask_set.busy_s": "s",
    "secagg.pair_masks": "count",
    "secagg.SecureSum.aggregate.busy_s": "s",
    "secagg.sum_abs_err_max": "abs",
    "secagg.err_bound_ratio": "ratio",
    "server.run_round.busy_s": "s",
    "server.run_round.self_s": "s",
    "server.aggregate_params.busy_s": "s",
    "server.lambda_update.busy_s": "s",
    "server.degenerate_rounds": "count",
    "core.rng.calls": "count",
    "core.rng.busy_s": "s",
    "harness.summary.busy_s": "s",
    "harness.loop.self_s": "s",
    "harness.emit_plots.busy_s": "s",
}

# Work counts that must repeat exactly from run to run and seed to seed;
# a later change may claim a reduction in these as a count.
EXACT_COUNTS = (
    "client.stats_evals_per_client_round",
    "models.grad_weighted.calls",
    "secagg.pair_masks",
    "tasks.samples_generated",
)


@contextlib.contextmanager
def patched(patches):
    """Replace each ``owner.attr`` by ``wrap(original)`` inside the block.

    ``patches`` holds (owner, attribute, wrap) triples; every original
    is restored on the way out, even when the block raises.
    """
    saved = []
    try:
        for owner, attr, wrap in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Records spans and counts for one operation while its patches are in."""

    def __init__(self):
        self.result = None  # what the CLI's experiment call returned
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.err_max = 0.0
        self.err_ratio_max = 0.0
        self._stack: list[int] = []
        self._plain = weakref.WeakKeyDictionary()
        self._scale_bits: int | None = None

    def _timed(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "server.run_round":
                args, kwargs = self._before_run_round(args, kwargs)
            result = self._timed(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _before_run_round(self, args, kwargs):
        settings = kwargs.get("settings")
        if settings is not None:
            self._scale_bits = settings.scale_bits
        summary_fn = kwargs.get("summary_fn")
        if summary_fn is not None:
            kwargs = dict(kwargs, summary_fn=functools.partial(
                self._timed, "harness.summary", summary_fn))
        return args, kwargs

    def _after_harness_run_experiment(self, args, kwargs, result):
        self.result = result

    def _after_server_run_round(self, args, kwargs, result):
        self.counts["degenerate_rounds"] += int(result[1].degenerate)

    def _after_tasks_generate_population(self, args, kwargs, result):
        self.counts["samples_generated"] += sum(len(c) for c in result[0])

    def _after_secagg_mask_set(self, args, kwargs, result):
        self.counts["pair_masks"] += result.n_clients - 1

    def _after_secagg_SecureSum_submit(self, args, kwargs, result):
        owner, plain = args[0], np.asarray(args[2], dtype=np.float64)
        self._plain[owner] = self._plain.get(owner, 0.0) + plain

    def _after_secagg_SecureSum_aggregate(self, args, kwargs, result):
        owner = args[0]
        err = float(np.max(np.abs(result - self._plain.pop(owner))))
        bound = owner.n_clients / (2.0 * (1 << self._scale_bits))
        self.err_max = max(self.err_max, err)
        self.err_ratio_max = max(self.err_ratio_max, err / bound)

    def patches(self) -> list[tuple]:
        """The (owner, attribute, wrap) triples for ``patched``."""
        return [(owner, attr, functools.partial(self._wrapper, name=name))
                for owner, attr, name in TARGETS]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        durations = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                covered[parent] += dur
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (name, _, _, _), dur, cov in zip(self.spans, durations, covered):
            busy[name] += dur
            own[name] += dur - cov
            calls[name] += 1

        def per_call(total, n):
            return total / n if n else 0.0

        grad_calls = calls["models.grad_weighted"]
        return {
            "tasks.generate_population.busy_s": busy["tasks.generate_population"],
            "tasks.samples_generated": self.counts["samples_generated"],
            "config.load_config.busy_s": busy["config.load_config"],
            "client.compute_client_stats.calls": calls["client.compute_client_stats"],
            "client.compute_client_stats.busy_s": busy["client.compute_client_stats"],
            "client.stats_evals_per_client_round": per_call(
                calls["client.compute_client_stats"], calls["client.client_update"]),
            "client.client_update.busy_s": busy["client.client_update"],
            "client.client_update.self_s": own["client.client_update"],
            "models.grad_weighted.calls": grad_calls,
            "models.grad_weighted.busy_s": busy["models.grad_weighted"],
            "models.grad_weighted.us_per_call": 1e6 * per_call(
                busy["models.grad_weighted"], grad_calls),
            "models.batch_losses.calls": calls["models.batch_losses"],
            "models.batch_losses.busy_s": busy["models.batch_losses"],
            "secagg.SecureSum.submit.calls": calls["secagg.SecureSum.submit"],
            "secagg.SecureSum.submit.busy_s": busy["secagg.SecureSum.submit"],
            "secagg.mask_set.busy_s": busy["secagg.mask_set"],
            "secagg.pair_masks": self.counts["pair_masks"],
            "secagg.SecureSum.aggregate.busy_s": busy["secagg.SecureSum.aggregate"],
            "secagg.sum_abs_err_max": self.err_max,
            "secagg.err_bound_ratio": self.err_ratio_max,
            "server.run_round.busy_s": busy["server.run_round"],
            "server.run_round.self_s": own["server.run_round"],
            "server.aggregate_params.busy_s": busy["server.aggregate_params"],
            "server.lambda_update.busy_s": busy["server.lambda_update"],
            "server.degenerate_rounds": self.counts["degenerate_rounds"],
            "core.rng.calls": calls["core.rng"],
            "core.rng.busy_s": busy["core.rng"],
            "harness.summary.busy_s": busy["harness.summary"],
            "harness.loop.self_s": self._loop_self_time(durations),
            "harness.emit_plots.busy_s": busy["harness.emit_plots"],
        }

    def _loop_self_time(self, durations) -> float:
        """Round-loop time outside ``run_round``: CSV row writes and flushes.

        The loop of one experiment runs from its first ``run_round`` to
        the start of ``emit_plots`` (or the experiment's end without
        plots).
        """
        total = 0.0
        for idx, (name, _, end, _) in enumerate(self.spans):
            if name != "harness.run_experiment":
                continue
            children = [i for i, s in enumerate(self.spans) if s[3] == idx]
            rounds = [i for i in children if self.spans[i][0] == "server.run_round"]
            if not rounds:
                continue
            plots = [i for i in children if self.spans[i][0] == "harness.emit_plots"]
            loop_end = self.spans[plots[0]][1] if plots else end
            total += loop_end - self.spans[rounds[0]][1] - sum(durations[i] for i in rounds)
        return total

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: index, name, start, end, parent."""
        with path.open("w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
