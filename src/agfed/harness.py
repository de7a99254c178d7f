"""Experiment runner: wiring, round loop, metrics files, and comparison.

``run_experiment_full`` generates the task population, runs T rounds of the
configured algorithm, and (when an output directory is set) streams one
CSV row per round to ``<csv>.partial``, renames it onto ``<csv>`` after
the last round, and emits the two summary plots: the model summary over
rounds and the domain-weight trajectories over rounds. A run that fails
leaves no ``<csv>``; its ``.partial`` keeps the rounds it completed.

Everything is a deterministic function of the experiment seed, whose
random streams (``server.run_streams``) are seeded once per run: the
same config produces byte-identical metrics files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import InvalidArgument, Population, as_param_vector, numeric_faults
from .models import ModelSpec, batch_losses, check_batch, class_dtype, predict_classes
from .server import (
    AggregationSettings,
    AlgorithmConfig,
    RoundReport,
    ServerState,
    initial_state,
    run_round,
    run_streams,
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
        # the CSV goes into out_dir itself, next to the plots, which must not
        # overwrite it; "", "." and ".." name a directory
        plots = [path.name for path in _plot_paths(Path("plot"))]
        name = self.csv_name
        if name in ("", ".", "..", *plots) or Path(name).name != name:
            raise InvalidArgument(f"output.csv must be a file name other than {plots}, "
                                  f"got {name!r}")

    @property
    def seed(self) -> int:
        return self.task.seed


@dataclass(frozen=True)
class ExperimentRun:
    """Full result of one experiment, for consumers beyond the reports."""

    reports: tuple[RoundReport, ...]
    final_state: ServerState
    population: Population
    spec: ModelSpec
    oracle: float | None


def summary_field_names(task: TaskConfig) -> tuple[str, ...]:
    """CSV column names of the task-defined model summary."""
    if task.kind == "toy-regression":
        return ("learned_w",)
    return tuple(f"acc_{i}" for i in range(task.p))


def _domain_means(values: np.ndarray, masks: list[np.ndarray]) -> tuple[float, ...]:
    """Mean of ``values`` over each domain's rows; 0.0 for an empty domain."""
    return tuple(float(values[m].mean()) if m.any() else 0.0 for m in masks)


def _domain_accuracy(correct: np.ndarray, masks: list[np.ndarray],
                     sizes: list[int]) -> tuple[float, ...]:
    """Share of ``correct`` rows in each domain's mask; 0.0 for an empty domain.

    ``sizes`` holds each mask's count of rows. Counts are exact, so each
    share equals the domain's boolean-mask mean bit for bit, without
    gathering the domain's rows.
    """
    return tuple(float(np.count_nonzero(correct & m) / size) if size else 0.0
                 for m, size in zip(masks, sizes))


def _domain_masks(population: Population, p: int) -> tuple[list[np.ndarray], list[int]]:
    """Each domain's row mask over the population, and its count of rows."""
    masks = [population.domains == i for i in range(p)]
    return masks, [np.count_nonzero(m) for m in masks]


def evaluate_population(
    spec: ModelSpec,
    w: np.ndarray,
    population: Population,
    p: int,
) -> dict[str, tuple[float, ...]]:
    """Population-level per-domain mean loss (and accuracy for classifiers).

    A floating-point fault raises one ``NumericError`` (``core.numeric_faults``).
    """
    w = as_param_vector(w)
    xb, y = population.xb, population.y
    check_batch(spec, w, xb, y)
    masks, sizes = _domain_masks(population, p)
    with numeric_faults("population evaluation"):
        out = {"loss": _domain_means(batch_losses(spec, w, xb, y), masks)}
        if spec.kind == "logistic":
            out["accuracy"] = _domain_accuracy(
                predict_classes(spec, w, xb) == y, masks, sizes)
    return out


def _summary_fn(task: TaskConfig, spec: ModelSpec, population: Population):
    if task.kind == "toy-regression":
        return lambda w: (float(w[0]),)
    labels = population.y.astype(class_dtype(spec))
    masks, sizes = _domain_masks(population, task.p)
    return lambda w: _domain_accuracy(predict_classes(spec, w, population.xb) == labels,
                                      masks, sizes)


def _csv_header(p: int, summary_names: Sequence[str]) -> list[str]:
    return (
        ["round"]
        + [f"L_{i}" for i in range(p)]
        + [f"lambda_{i}" for i in range(p)]
        + ["worst"]
        + list(summary_names)
        + ["comm_params_cumulative", "degenerate"]
    )


def _csv_row_format(p: int, summary_width: int) -> str:
    """One ``%`` format for a whole CSV row of ``_csv_fields``, line end included."""
    return "%d" + ",%.17g" * (2 * p + 1 + summary_width) + ",%d,%d\r\n"


def _csv_fields(r: RoundReport) -> tuple:
    return (r.round, *r.per_domain_loss, *r.lam, r.worst_domain_loss, *r.model_summary,
            r.comm_params_cumulative, r.degenerate)


def _plot_paths(prefix: Path) -> tuple[Path, Path]:
    """The model-summary and domain-weight plot files of ``emit_plots``."""
    return tuple(prefix.with_name(prefix.name + end) for end in ("_model.svg", "_lambda.svg"))


def emit_plots(
    reports: Sequence[RoundReport],
    path_prefix: str | Path,
    *,
    summary_names: Sequence[str],
) -> tuple[Path, Path]:
    """Write the model-summary and domain-weight plots as SVG files."""
    if not reports:
        raise InvalidArgument("cannot plot an empty report list")
    rounds = [r.round for r in reports]
    if len(summary_names) != len(reports[0].model_summary):
        raise InvalidArgument("summary name count differs from summary fields")

    model_path, lambda_path = _plot_paths(Path(path_prefix))
    series = [(name, [r.model_summary[i] for r in reports])
              for i, name in enumerate(summary_names)]
    write_line_plot(model_path, rounds, series,
                    title="Model summary over training rounds", y_label="summary")

    p = len(reports[0].lam)
    lam_series = [(f"lambda_{i}", [r.lam[i] for r in reports]) for i in range(p)]
    write_line_plot(lambda_path, rounds, lam_series,
                    title="Domain weights over training rounds", y_label="weight")
    return model_path, lambda_path


def run_experiment_full(cfg: ExperimentConfig) -> ExperimentRun:
    """Execute T rounds; returns the reports, the final state and the population.

    Writes the metrics CSV and plots when an output directory is set.
    """
    task = cfg.task
    population, oracle = generate_population(task)
    spec = model_spec_for(task)
    state = initial_state(initial_params_for(task), task.p)
    summary_fn = _summary_fn(task, spec, population)
    names = summary_field_names(task)

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    fh = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / cfg.csv_name
        partial = csv_path.with_name(csv_path.name + ".partial")
        # no file of an earlier run may pass for this run's output
        for stale in (csv_path, *_plot_paths(out_dir / "plot")):
            stale.unlink(missing_ok=True)
        fh = partial.open("w", newline="")
        fh.write(",".join(_csv_header(task.p, names)) + "\r\n")
        row = _csv_row_format(task.p, len(names))

    reports: list[RoundReport] = []
    streams = run_streams(cfg.seed)
    try:
        for _ in range(cfg.algorithm.rounds):
            state, report = run_round(
                state, cfg.algorithm, spec, population, streams,
                settings=cfg.aggregation, summary_fn=summary_fn,
            )
            reports.append(report)
            if fh is not None:
                fh.write(row % _csv_fields(report))
    finally:
        if fh is not None:
            fh.close()
    if fh is not None:
        os.replace(partial, csv_path)

    if out_dir is not None and cfg.plots and reports:
        emit_plots(reports, out_dir / "plot", summary_names=names)

    return ExperimentRun(tuple(reports), state, population, spec, oracle)


@dataclass(frozen=True)
class AlgorithmOutcome:
    """Final-model population metrics for one algorithm of a comparison."""

    algorithm: str
    per_domain_loss: tuple[float, ...]
    per_domain_accuracy: tuple[float, ...] | None
    worst_domain_loss: float
    domain_gap: float


def compare_algorithms(
    cfg: ExperimentConfig,
    algorithms: Sequence[str] = ("fedavg", "afa"),
) -> list[AlgorithmOutcome]:
    """Run each algorithm on identical data and seeds; evaluate final models.

    An unknown or repeated algorithm name is rejected before any
    algorithm runs: each writes to ``<out_dir>/<name>``, so a repeat
    would overwrite the first run. The gap is the spread (max - min) of
    per-domain population losses, the quantity the comparison table
    reports as "difference".
    """
    repeated = sorted({name for name in algorithms if algorithms.count(name) > 1})
    if repeated:
        raise InvalidArgument(f"algorithms named more than once: {repeated}")
    run_cfgs = [
        replace(cfg, algorithm=replace(cfg.algorithm, algorithm=name),
                out_dir=None if cfg.out_dir is None else str(Path(cfg.out_dir) / name))
        for name in algorithms
    ]
    outcomes = []
    for name, run_cfg in zip(algorithms, run_cfgs):
        run = run_experiment_full(run_cfg)
        metrics = evaluate_population(run.spec, run.final_state.w, run.population, cfg.task.p)
        losses = metrics["loss"]
        outcomes.append(
            AlgorithmOutcome(
                algorithm=name,
                per_domain_loss=losses,
                per_domain_accuracy=metrics.get("accuracy"),
                worst_domain_loss=max(losses),
                domain_gap=max(losses) - min(losses),
            )
        )
    return outcomes
