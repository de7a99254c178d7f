#!/usr/bin/env python3
"""Benchmark of the agfed simulator, run in-process through its own CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

One operation is one ``agfed run`` invocation made through
``agfed.cli.main``. Operations run closed-loop -- one at a time,
on the main thread, BLAS pinned to one thread -- until the next one would
end past ``--seconds``, and always at least twice, so that repeated runs
can be compared byte for byte. A short warm-up operation runs first and
is not measured.

``--trace 0`` reports the end-to-end metrics. Their timings are given at
a fixed reference speed: a probe kernel runs at the start and end of
each operation and, at most every 10 ms, at calls into the program, and
each interval is rescaled by how fast the probe ran around it (see
``speed.py``). Wall-clock figures are recorded next to them. ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (see ``tracing.py``) plus the tracing overhead.

Every operation's outputs are checked; a failed check counts the
operation as failed. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_PROBE_S, SpeedClock  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench_out"

# The toy task's analytic min-max optimum is the midpoint of its domain
# centers, 0 for the shipped config. Local SGD leaves the final value a
# few hundredths away from it (|w| <= 0.04 over seeds 1-20); a value
# further than this is a wrong answer.
TOY_ORACLE = 0.0
TOY_TOLERANCE = 0.1


@dataclass(frozen=True)
class Workload:
    config: str                 # shipped config, relative to the repository root
    overrides: tuple[str, ...]  # --set arguments of ``agfed run``
    tail_pct: int               # percentile reported as round_ms_tail


# Why each workload exists is recorded in BENCHMARK.json. Each tail
# percentile is the highest one that keeps at least ten rounds beyond it
# in a block of rounds no longer than one operation (toy) or than a
# 50-second run (scale-masked, about 150 rounds at 300 ms).
WORKLOADS = {
    "toy": Workload("configs/toy.ini", (), 99),
    "scale-masked": Workload(
        "configs/classification.ini",
        ("task.num_clients=1000", "algorithm.clients_per_round=100",
         "secure_aggregation.mask_stats=true", "secure_aggregation.mask_params=true",
         "algorithm.rounds=10"), 90),
}

# End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "final_worst_loss": "loss",
    "comm_params_per_round": "params",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or configs)."""


class CheckFailed(RuntimeError):
    """An operation's output failed a correctness check."""


def import_agfed():
    """Import agfed from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "agfed" / "__init__.py").is_file():
        raise BenchError(f"no agfed sources under {src}")
    for wl in WORKLOADS.values():
        if not (ROOT / wl.config).is_file():
            raise BenchError(f"missing config {wl.config}")
    sys.path.insert(0, str(src))
    import agfed.cli

    if Path(agfed.__file__).resolve().parent != (src / "agfed").resolve():
        raise BenchError(f"imported agfed from {agfed.__file__}, not from {src}")
    return agfed


@dataclass(frozen=True)
class Plan:
    """The CLI arguments of one workload and the config they resolve to."""

    workload: Workload
    argv: list[str]
    cfg: object
    out: Path
    full_length: bool


def make_plan(agfed, wl: Workload, seed: int | None, out: Path,
              rounds: int | None) -> Plan:
    overrides = wl.overrides + ((f"algorithm.rounds={rounds}",) if rounds else ())
    argv = ["run", "--config", str(ROOT / wl.config), "--out-dir", str(out)]
    for item in overrides:
        argv += ["--set", item]
    if seed is not None:
        argv += ["--seed", str(seed)]
    cfg = agfed.config.load_config(ROOT / wl.config,
                                   dict(item.split("=", 1) for item in overrides),
                                   seed=seed, out_dir=str(out))
    return Plan(wl, argv, cfg, out, rounds is None)


@dataclass
class Op:
    """Timings and checked outputs of one operation."""

    traced: bool
    wall_s: float = 0.0   # wall time of the command, speed probes left out
    run_s: float = 0.0    # the same at the reference speed (see speed.py)
    setup_s: float = 0.0  # at the reference speed
    round_s: list[float] = field(default_factory=list)      # at the reference speed
    wall_round_s: list[float] = field(default_factory=list)
    probe_s: float = 0.0  # median time of the speed probe
    samples: int = 0
    digest: str = ""
    final_worst_loss: float = 0.0
    comm_params_per_round: float = 0.0
    tracer: object = None
    error: str | None = None


class Probe:
    """Untraced instrumentation: a speed-marked round clock and the result.

    Times every ``agfed.harness.run_round`` call (``setup_s`` ends at the
    first) and marks the speed clock when due at that call and at the
    per-client calls inside a round, so that long rounds are marked
    throughout. Keeps what the CLI's experiment call returns, so the
    final model can be evaluated after the operation.
    """

    def __init__(self, agfed, clock: SpeedClock):
        self.agfed = agfed
        self.clock = clock
        self.rounds: list[tuple[float, float]] = []  # wall (start, end)
        self.result = None

    def patches(self) -> list[tuple]:
        """The (owner, attribute, wrap) triples for ``tracing.patched``."""
        return [(self.agfed.cli, "run_experiment_full", self._keep),
                (self.agfed.harness, "run_round", self._round),
                (self.agfed.server, "client_update", self._marked),
                (self.agfed.secagg.SecureSum, "submit", self._marked)]

    def _round(self, original):
        def run_round(*args, **kwargs):
            self.clock.mark_if_due()
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.rounds.append((start, time.perf_counter()))
            return result
        return run_round

    def _marked(self, original):
        @functools.wraps(original)
        def marked(*args, **kwargs):
            self.clock.mark_if_due()
            return original(*args, **kwargs)
        return marked

    def _keep(self, original):
        def keep(*args, **kwargs):
            self.result = original(*args, **kwargs)
            return self.result
        return keep


def samples_per_round(population, alg) -> int:
    """Local-SGD samples a round: cohort size x client size x epochs.

    Exact when every client holds the same number of samples, as in
    every workload here; other populations are refused.
    """
    sizes = {len(c) for c in population}
    if len(sizes) != 1:
        raise CheckFailed(f"clients differ in size: {sorted(sizes)}")
    return alg.clients_per_round * sizes.pop() * alg.local.epochs


def check_metrics_csv(path: Path, rounds: int) -> dict[str, str]:
    """Row count, finite values, no degenerate round, steady communication.

    The program's cumulative communication count must grow by the same
    amount every round. Returns the last row by column name.
    """
    if not path.is_file():
        raise CheckFailed(f"missing output {path}")
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if len(rows) != rounds:
        raise CheckFailed(f"{path}: {len(rows)} rows, expected {rounds}")
    comm_at, degen_at = header.index("comm_params_cumulative"), header.index("degenerate")
    per_round = int(rows[0][comm_at])
    for t, row in enumerate(rows, start=1):
        if not all(math.isfinite(float(v)) for v in row):
            raise CheckFailed(f"{path}: non-finite value in round {t}")
        if row[degen_at] != "0":
            raise CheckFailed(f"{path}: round {t} is degenerate in two-phase-exact mode")
        if int(row[comm_at]) != t * per_round:
            raise CheckFailed(f"{path}: round {t} communication {row[comm_at]}, "
                              f"not {t} x the first round's {per_round}")
    for plot in ("plot_model.svg", "plot_lambda.svg"):
        if not (path.parent / plot).is_file():
            raise CheckFailed(f"missing output {path.parent / plot}")
    return dict(zip(header, rows[-1]))


def paper_comm_cost(algorithm: str, clients: int, params: int, p: int) -> int:
    """The paper's per-round cost: 2c|W| parameters, plus 4cp for AFA."""
    return 2 * clients * params + (4 * clients * p if algorithm == "afa" else 0)


def check_outputs(agfed, plan: Plan, run, op: Op) -> None:
    """Check one operation's files and fill in its digest and quality."""
    task, alg = plan.cfg.task, plan.cfg.algorithm
    path = plan.out / plan.cfg.csv_name
    last = check_metrics_csv(path, alg.rounds)
    op.digest = hashlib.sha256(path.read_bytes()).hexdigest()
    op.comm_params_per_round = int(last["comm_params_cumulative"]) / alg.rounds

    losses = agfed.harness.evaluate_population(
        run.spec, run.final_state.w, run.population, task.p)["loss"]
    op.final_worst_loss = max(losses)

    if task.kind == "toy-regression" and plan.full_length:
        learned = float(last["learned_w"])
        if not abs(learned - TOY_ORACLE) <= TOY_TOLERANCE:
            raise CheckFailed(f"toy learned value {learned} is further than "
                              f"{TOY_TOLERANCE} from the oracle {TOY_ORACLE}")


def run_op(agfed, plan: Plan, traced: bool) -> Op:
    """One operation: clear its outputs, run the CLI, check the outputs."""
    from tracing import Tracer, patched

    op = Op(traced)
    shutil.rmtree(plan.out, ignore_errors=True)
    clock = SpeedClock()
    instruments = Tracer() if traced else Probe(agfed, clock)
    captured = io.StringIO()
    gc.collect()
    code = None
    try:
        with patched(instruments.patches()), contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            clock.mark()
            code = agfed.cli.main(plan.argv)
            clock.mark()
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # the program raised: the operation failed
        op.error = f"agfed raised {type(exc).__name__}: {exc}"
        return op
    if code != 0:
        op.error = f"agfed exited with {code}: {captured.getvalue().strip()[-300:]}"
        return op
    try:
        run = instruments.result
        check_outputs(agfed, plan, run, op)
        op.wall_s, op.run_s = clock.total()
        if traced:
            op.tracer = instruments
        else:
            first_round = instruments.rounds[0][0]
            op.setup_s = clock.span(clock.marks[0][1], first_round)[1]
            spans = [clock.span(a, b) for a, b in instruments.rounds]
            op.wall_round_s = [wall for wall, _ in spans]
            op.round_s = [scaled for _, scaled in spans]
            op.probe_s = clock.probe_median()
            op.samples = (samples_per_round(run.population, plan.cfg.algorithm)
                          * len(op.round_s))
    except CheckFailed as exc:
        op.error = str(exc)
    return op


def measure(agfed, plan: Plan, seconds: float, trace: bool) -> list[Op]:
    """Warm up once, then run operations closed-loop for ``seconds``.

    With tracing, untraced and traced operations alternate, so both see
    the same machine conditions. At least two operations run (one of
    each kind with tracing) so that repeated outputs can be compared.
    """
    warm = make_plan(agfed, plan.workload, None, plan.out, rounds=2)
    run_op(agfed, warm, traced=False)
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        ops.append(run_op(agfed, plan, traced=trace and len(ops) % 2 == 1))
        now = time.perf_counter()
        if len(ops) >= 2 and now + (now - op_start) - start > seconds:
            return ops


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def block_tail(rounds: list[float], pct: int) -> tuple[float, int]:
    """Median over consecutive blocks of rounds of each block's percentile.

    Each block is just long enough to hold ten rounds beyond ``pct``
    (the last one takes the remainder), so a burst of interference from
    other processes moves one block's tail, not the reported median.
    Returns the tail and the number of blocks.
    """
    size = math.ceil(1000 / (100 - pct))
    starts = range(0, max(1, len(rounds) - size + 1), size)
    blocks = [rounds[i:i + size] for i in starts]
    blocks[-1] = rounds[starts[-1]:]
    return statistics.median(percentile(block, pct) for block in blocks), len(blocks)


def check_repeats(ops: list[Op]) -> None:
    """Fail every operation whose metrics.csv differs from the first one's."""
    good = [op for op in ops if op.error is None]
    for op in good[1:]:
        if op.digest != good[0].digest:
            op.error = "metrics.csv differs in bytes from the first operation's"


def end_to_end(ops: list[Op], wl: Workload) -> tuple[dict, dict, list[str]]:
    """End-to-end metric values, their sample counts, and notes."""
    rounds = [r for op in ops for r in op.round_s]
    tail, blocks = block_tail(rounds, wl.tail_pct)
    wall = {
        "wall_run_s": statistics.median(op.wall_s for op in ops),
        "wall_round_ms_p50": 1e3 * statistics.median(r for op in ops for r in op.wall_round_s),
        "probe_us": 1e6 * statistics.median(op.probe_s for op in ops),
    }
    notes = [f"round_ms_tail: median of p{wl.tail_pct} over {blocks} blocks of rounds",
             f"timings at the reference speed (probe = {1e6 * REFERENCE_PROBE_S:g} us); "
             f"here the probe took {wall['probe_us']:.1f} us, wall run_s "
             f"{wall['wall_run_s']:.4g} s, wall round_ms_p50 {wall['wall_round_ms_p50']:.4g} ms"]
    values = {
        "run_s": statistics.median(op.run_s for op in ops),
        "setup_s": statistics.median(op.setup_s for op in ops),
        "round_ms_p50": 1e3 * statistics.median(rounds),
        "round_ms_tail": 1e3 * tail,
        "samples_per_s": statistics.median(op.samples / sum(op.round_s) for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_worst_loss": statistics.median(op.final_worst_loss for op in ops),
        "comm_params_per_round": statistics.median(op.comm_params_per_round for op in ops),
    }
    counts = dict.fromkeys(values, len(ops))
    counts.update(round_ms_p50=len(rounds), round_ms_tail=len(rounds), peak_rss_mb=1)
    return values, counts, notes, wall


def per_layer(ops: list[Op]) -> tuple[dict, dict]:
    """Per-layer metrics averaged over traced operations, plus overhead."""
    from tracing import EXACT_COUNTS

    traced = [op for op in ops if op.traced]
    layers = [op.tracer.metrics() for op in traced]
    for op, layer in zip(traced, layers):
        for name in EXACT_COUNTS:
            if layer[name] != layers[0][name]:
                op.error = f"{name} is {layer[name]}, first traced run had {layers[0][name]}"
    values = {name: statistics.fmean(layer[name] for layer in layers) for name in layers[0]}
    plain = [op.wall_s for op in ops if not op.traced]
    values["trace.overhead"] = (statistics.median(op.wall_s for op in traced)
                                / statistics.median(plain))
    counts = dict.fromkeys(values, len(traced))
    counts["trace.overhead"] = len(ops)
    return values, counts


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git repository."""
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def bench_one(args) -> int:
    agfed = import_agfed()
    sys.path.insert(0, str(BENCH_DIR))
    wl = WORKLOADS[args.workload]
    run_dir = OUT_ROOT / args.workload / f"trace{args.trace}"
    plan = make_plan(agfed, wl, args.seed, run_dir / "op", args.rounds)
    ops = measure(agfed, plan, args.seconds, bool(args.trace))
    check_repeats(ops)

    good = [op for op in ops if op.error is None]
    values, counts, notes, wall = {}, {}, [], {}
    if any(op.traced for op in good) and any(not op.traced for op in good):
        values, counts = per_layer(good)
        from tracing import LAYER_UNITS

        units = dict(LAYER_UNITS, **{"trace.overhead": "ratio"})
        spans = next(op for op in reversed(good) if op.traced).tracer
        spans.write_spans(run_dir / "spans.jsonl")
    elif good and not args.trace:
        values, counts, notes, wall = end_to_end(good, wl)
        units = END_TO_END_UNITS
    failed = sum(op.error is not None for op in ops)
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }

    env = environment()
    task, alg = plan.cfg.task, plan.cfg.algorithm
    paper_comm = paper_comm_cost(alg.algorithm, alg.clients_per_round,
                                 agfed.tasks.model_spec_for(task).param_count, task.p)
    run_dir.mkdir(parents=True, exist_ok=True)
    with (run_dir / "result.json").open("w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "rounds": args.rounds,
                   "tail_percentile": wl.tail_pct, "env": env,
                   "paper_comm_params_per_round": paper_comm,
                   "reference_probe_s": REFERENCE_PROBE_S, "wall": wall,
                   "metrics_csv_sha256": good[0].digest if good else None,
                   "samples": counts, "errors": [op.error for op in ops if op.error],
                   **result}, fh, indent=2)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed")
    print(f"# env {json.dumps(env)}")
    if good:
        print(f"# metrics.csv sha256 {good[0].digest}")
    for name, value in values.items():
        print(f"#   {name:40s} {value:14.6g} {units[name]:7s} n={counts[name]}")
    for line in notes + [f"error: {op.error}" for op in ops if op.error]:
        print(f"# {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def bench_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import_agfed()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.rounds is not None:
            cmd += ["--rounds", str(args.rounds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode}) {proc.stderr.strip()}")
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{metric}": entry
                                  for metric, entry in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="task seed (default: the config's shipped seed)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the round count (smoke checks); skips "
                             "the checks that need a full-length run")
    args = parser.parse_args(argv)
    try:
        return bench_all(args) if args.workload == "all" else bench_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
