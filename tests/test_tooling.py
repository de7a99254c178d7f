"""Tooling guards: the benchmark tracer still finds what it patches."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # the traced benchmark wraps each (owner, attr) by name; a src change
    # that renames or deletes one would otherwise surface only there
    targets = _load_tracing().TARGETS
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
