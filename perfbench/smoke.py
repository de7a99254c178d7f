#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a few rounds, untraced and traced, and a second
traced run on another seed. Asserts that every run is correct, that
every metric BENCHMARK.json names is emitted with its unit, that
metrics.csv is byte-identical with tracing on and off, and that the
exact work counts repeat across the two seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ROUNDS = 3
OTHER_SEED = 7

sys.path.insert(0, str(BENCH_DIR))
from run import OUT_ROOT, WORKLOADS, import_agfed  # noqa: E402


def bench(workload: str, trace: int, seed: int | None) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--trace", str(trace), "--seconds", "0", "--rounds", str(ROUNDS)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT_ROOT / workload / f"trace{trace}" / "result.json").read_text())
    return result, detail


def check_names(result: dict, declared: list[dict], label: str) -> None:
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expected = {entry["name"]: entry["unit"] for entry in declared}
    assert emitted == expected, f"{label}: emitted {emitted}, declared {expected}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_agfed()
    from tracing import EXACT_COUNTS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        plain, plain_detail = bench(workload, 0, None)
        traced, traced_detail = bench(workload, 1, None)
        other, _ = bench(workload, 1, OTHER_SEED)
        for label, result in (("untraced", plain), ("traced", traced),
                              (f"seed {OTHER_SEED}", other)):
            assert result["correct"] and result["failed"] == 0, f"{workload} {label}: {result}"
        check_names(plain, spec["end_to_end"], f"{workload} untraced")
        check_names(traced, spec["per_layer"], f"{workload} traced")
        assert plain_detail["metrics_csv_sha256"] == traced_detail["metrics_csv_sha256"], (
            f"{workload}: metrics.csv differs with tracing on and off")
        for name in EXACT_COUNTS:
            ours, theirs = traced["metrics"][name]["value"], other["metrics"][name]["value"]
            assert ours == theirs, f"{workload}: {name} is {ours} and {theirs} on two seeds"
        print(f"ok {workload}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
