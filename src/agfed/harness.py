"""Experiment runner: wiring, round loop, metrics files, and comparison.

``run_experiment`` generates the task population, runs T rounds of the
configured algorithm, and (when an output directory is set) streams one
CSV row per round and emits the two summary plots: the model summary
over rounds and the domain-weight trajectories over rounds.

Everything is a deterministic function of the experiment seed: the same
config produces byte-identical metrics files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import ClientDataset, InvalidArgument
from .models import ModelSpec, batch_losses, check_batch, predict_classes
from .server import (
    AggregationSettings,
    AlgorithmConfig,
    RoundReport,
    ServerState,
    initial_state,
    run_round,
)
from .svgplot import write_line_plot
from .tasks import TaskConfig, generate_population, initial_params_for, model_spec_for


@dataclass(frozen=True)
class ExperimentConfig:
    """Task + algorithm + aggregation settings + output wiring."""

    task: TaskConfig
    algorithm: AlgorithmConfig
    aggregation: AggregationSettings = AggregationSettings()
    out_dir: str | None = None
    csv_name: str = "metrics.csv"
    plots: bool = True

    def __post_init__(self):
        if self.algorithm.clients_per_round > self.task.num_clients:
            raise InvalidArgument(
                f"clients_per_round={self.algorithm.clients_per_round} exceeds "
                f"num_clients={self.task.num_clients}"
            )

    @property
    def seed(self) -> int:
        return self.task.seed


@dataclass(frozen=True)
class ExperimentRun:
    """Full result of one experiment, for consumers beyond the reports."""

    reports: tuple[RoundReport, ...]
    final_state: ServerState
    population: tuple[ClientDataset, ...]
    spec: ModelSpec
    oracle: float | None


def summary_field_names(task: TaskConfig) -> tuple[str, ...]:
    """CSV column names of the task-defined model summary."""
    if task.kind == "toy-regression":
        return ("learned_w",)
    return tuple(f"acc_{i}" for i in range(task.p))


def _pooled_arrays(population: Sequence[ClientDataset]):
    x = np.concatenate([c.feature_matrix for c in population])
    y = np.concatenate([c.labels for c in population])
    d = np.concatenate([c.domains for c in population])
    return x, y, d


def evaluate_population(
    spec: ModelSpec,
    w: np.ndarray,
    population: Sequence[ClientDataset],
    p: int,
) -> dict[str, tuple[float, ...]]:
    """Population-level per-domain mean loss (and accuracy for classifiers)."""
    x, y, d = _pooled_arrays(population)
    check_batch(spec, w, x, y)
    losses = batch_losses(spec, w, x, y)
    mean_loss = []
    for i in range(p):
        mask = d == i
        mean_loss.append(float(losses[mask].mean()) if mask.any() else 0.0)
    out = {"loss": tuple(mean_loss)}
    if spec.kind == "logistic":
        pred = predict_classes(spec, w, x)
        acc = []
        for i in range(p):
            mask = d == i
            acc.append(float((pred[mask] == y[mask].astype(np.int64)).mean())
                       if mask.any() else 0.0)
        out["accuracy"] = tuple(acc)
    return out


def _summary_fn(task: TaskConfig, spec: ModelSpec, population: Sequence[ClientDataset]):
    if task.kind == "toy-regression":
        return lambda w: (float(w[0]),)
    x, y, d = _pooled_arrays(population)
    y_int = y.astype(np.int64)
    masks = [d == i for i in range(task.p)]

    def per_domain_accuracy(w: np.ndarray) -> tuple[float, ...]:
        pred = predict_classes(spec, w, x)
        return tuple(
            float((pred[m] == y_int[m]).mean()) if m.any() else 0.0 for m in masks
        )

    return per_domain_accuracy


def _csv_header(p: int, summary_names: Sequence[str]) -> list[str]:
    return (
        ["round"]
        + [f"L_{i}" for i in range(p)]
        + [f"lambda_{i}" for i in range(p)]
        + ["worst"]
        + list(summary_names)
        + ["comm_params_cumulative", "degenerate"]
    )


def _csv_row(r: RoundReport) -> list[str]:
    return (
        [str(r.round)]
        + [f"{v:.17g}" for v in r.per_domain_loss]
        + [f"{v:.17g}" for v in r.lam]
        + [f"{r.worst_domain_loss:.17g}"]
        + [f"{v:.17g}" for v in r.model_summary]
        + [str(r.comm_params_cumulative), str(int(r.degenerate))]
    )


def read_metrics_csv(path: str | Path) -> list[RoundReport]:
    """Parse a metrics CSV back into reports (exact float round-trip)."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InvalidArgument(f"{path} is empty; expected at least a header")
    header = rows[0]
    p = sum(1 for name in header if name.startswith("L_"))
    worst_at = header.index("worst")
    comm_at = header.index("comm_params_cumulative")
    reports = []
    for row in rows[1:]:
        reports.append(
            RoundReport(
                round=int(row[0]),
                per_domain_loss=tuple(float(v) for v in row[1:1 + p]),
                lam=tuple(float(v) for v in row[1 + p:1 + 2 * p]),
                worst_domain_loss=float(row[worst_at]),
                model_summary=tuple(float(v) for v in row[worst_at + 1:comm_at]),
                comm_params_cumulative=int(row[comm_at]),
                degenerate=bool(int(row[comm_at + 1])),
            )
        )
    return reports


def emit_plots(
    reports: Sequence[RoundReport],
    path_prefix: str | Path,
    *,
    summary_names: Sequence[str] | None = None,
) -> tuple[Path, Path]:
    """Write the model-summary and domain-weight plots as SVG files."""
    if not reports:
        raise InvalidArgument("cannot plot an empty report list")
    prefix = Path(path_prefix)
    rounds = [r.round for r in reports]
    n_summary = len(reports[0].model_summary)
    names = list(summary_names or [f"summary_{i}" for i in range(n_summary)])
    if len(names) != n_summary:
        raise InvalidArgument("summary name count differs from summary fields")

    model_path = prefix.with_name(prefix.name + "_model.svg")
    series = [(names[i], [r.model_summary[i] for r in reports]) for i in range(n_summary)]
    if not series:
        series = [("worst_domain_loss", [r.worst_domain_loss for r in reports])]
    write_line_plot(model_path, rounds, series,
                    title="Model summary over training rounds", y_label="summary")

    lambda_path = prefix.with_name(prefix.name + "_lambda.svg")
    p = len(reports[0].lam)
    lam_series = [(f"lambda_{i}", [r.lam[i] for r in reports]) for i in range(p)]
    write_line_plot(lambda_path, rounds, lam_series,
                    title="Domain weights over training rounds", y_label="weight")
    return model_path, lambda_path


def run_experiment(cfg: ExperimentConfig) -> list[RoundReport]:
    """Execute T rounds; returns the reports (and writes outputs if set)."""
    return list(run_experiment_full(cfg).reports)


def run_experiment_full(cfg: ExperimentConfig) -> ExperimentRun:
    """Like ``run_experiment`` but keeps the final state and population."""
    task = cfg.task
    population, oracle = generate_population(task)
    spec = model_spec_for(task)
    state = initial_state(initial_params_for(task), task.p)
    summary_fn = _summary_fn(task, spec, population)
    names = summary_field_names(task)

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    csv_path = None
    writer = None
    fh = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / cfg.csv_name
        fh = csv_path.open("w", newline="")
        writer = csv.writer(fh)
        writer.writerow(_csv_header(task.p, names))

    reports: list[RoundReport] = []
    try:
        for _ in range(cfg.algorithm.rounds):
            state, report = run_round(
                state, cfg.algorithm, spec, population, cfg.seed,
                settings=cfg.aggregation, summary_fn=summary_fn,
            )
            reports.append(report)
            if writer is not None:
                writer.writerow(_csv_row(report))
                fh.flush()
    finally:
        if fh is not None:
            fh.close()

    if out_dir is not None and cfg.plots and reports:
        emit_plots(reports, out_dir / "plot", summary_names=names)

    return ExperimentRun(tuple(reports), state, tuple(population), spec, oracle)


@dataclass(frozen=True)
class AlgorithmOutcome:
    """Final-model population metrics for one algorithm of a comparison."""

    algorithm: str
    reports: tuple[RoundReport, ...]
    per_domain_loss: tuple[float, ...]
    per_domain_accuracy: tuple[float, ...] | None
    worst_domain_loss: float
    domain_gap: float


def compare_algorithms(
    cfg: ExperimentConfig,
    algorithms: Sequence[str] = ("fedavg", "afa"),
) -> list[AlgorithmOutcome]:
    """Run each algorithm on identical data and seeds; evaluate final models.

    The gap is the spread (max - min) of per-domain population losses,
    the quantity the comparison table reports as "difference".
    """
    outcomes = []
    for name in algorithms:
        sub_out = None
        if cfg.out_dir is not None:
            sub_out = str(Path(cfg.out_dir) / name)
        run_cfg = replace(
            cfg,
            algorithm=replace(cfg.algorithm, algorithm=name),
            out_dir=sub_out,
        )
        run = run_experiment_full(run_cfg)
        metrics = evaluate_population(run.spec, run.final_state.w, run.population, cfg.task.p)
        losses = metrics["loss"]
        outcomes.append(
            AlgorithmOutcome(
                algorithm=name,
                reports=run.reports,
                per_domain_loss=losses,
                per_domain_accuracy=metrics.get("accuracy"),
                worst_domain_loss=max(losses),
                domain_gap=max(losses) - min(losses),
            )
        )
    return outcomes
