"""Tooling guards: the benchmark still finds what it patches and calls."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import agfed.cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = BENCH / "tracing.py"
RUN = BENCH / "run.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_run(monkeypatch):
    """``perfbench/run.py`` as a module, with the environment it sets undone.

    It pins BLAS threads in ``os.environ`` when imported and imports its
    sibling modules by bare name, so ``perfbench`` stays on the path for
    the test.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(saved)
        for name in ("speed", "tracing"):
            sys.modules.pop(name, None)


def test_every_traced_target_resolves():
    # the traced benchmark wraps each (owner, attr) by name; a src change
    # that renames or deletes one would otherwise surface only there
    targets = _load_tracing().TARGETS
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_benchmark_probe_target_resolves(bench_run):
    # the untraced benchmark times rounds by wrapping these names
    patches = bench_run.Probe(agfed, None).patches()
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in patches
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload, traced", [
    pytest.param(workload, traced, id=workload + ("-traced" if traced else ""))
    for traced in (False, True) for workload in ("toy", "scale-masked")])
def test_benchmark_operation_checks_pass_on_a_short_run(bench_run, tmp_path, workload,
                                                        traced):
    # one operation: the CLI run under the probe's or the tracer's
    # patches, then check_outputs, which evaluates the final model
    # through the harness
    plan = bench_run.make_plan(agfed, bench_run.WORKLOADS[workload], None,
                               tmp_path / "op", 2)
    op = bench_run.run_op(agfed, plan, traced=traced)
    assert op.error is None
    assert op.final_worst_loss > 0.0
    if not traced:
        assert len(op.round_s) == 2
        return
    # the tracer counts pair masks from mask_set's messages and samples
    # by iterating the generated population. Each masked sum (the stats,
    # and on scale-masked the params too) is one submit span holding one
    # mask_set span, and adds n - 1 pair masks: a round that bypassed the
    # traced names would read zeros here
    layers = op.tracer.metrics()
    sums, cohort = {"toy": (2, 10), "scale-masked": (4, 100)}[workload]
    spans = op.tracer.spans
    submits = [i for i, (name, *_) in enumerate(spans) if name == "secagg.SecureSum.submit"]
    assert layers["secagg.SecureSum.submit.calls"] == len(submits) == sums
    assert sorted(parent for name, _, _, parent in spans
                  if name == "secagg.mask_set") == submits
    assert layers["secagg.pair_masks"] == sums * (cohort - 1)
    assert layers["tasks.samples_generated"] == op.tracer.result.population.y.shape[0]
