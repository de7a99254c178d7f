"""Experiment runner, metrics CSV, plots, and comparison."""

import numpy as np
import pytest

from agfed.client import LocalSGDConfig
from agfed.core import ClientDataset, InvalidArgument
from agfed.harness import (
    ExperimentConfig,
    compare_algorithms,
    emit_plots,
    evaluate_population,
    read_metrics_csv,
    run_experiment,
    run_experiment_full,
)
from agfed.server import AlgorithmConfig, RoundReport
from agfed.tasks import TaskConfig


def _toy_experiment(rounds=5, seed=42, out_dir=None, **algo_kwargs):
    task = TaskConfig(kind="toy-regression", p=5, num_clients=50, seed=seed,
                      partition="data-partition")
    algo = dict(algorithm="afa", lambda_update="eg", scaling_mode="two-phase-exact",
                clients_per_round=10, rounds=rounds, lambda_lr=0.01, window_len=10,
                local=LocalSGDConfig(1, 50, 0.1))
    algo.update(algo_kwargs)
    return ExperimentConfig(task=task, algorithm=AlgorithmConfig(**algo),
                            out_dir=out_dir)


def _cls_experiment(rounds=5, seed=7, out_dir=None, **algo_kwargs):
    task = TaskConfig(kind="synthetic-classification", p=2, num_clients=20, seed=seed,
                      partition="client-partition", samples_per_client=10,
                      margins=(2.0, 0.5), shares=(0.85, 0.15), noise=0.5)
    algo = dict(algorithm="afa", rounds=rounds, clients_per_round=5,
                local=LocalSGDConfig(1, 10, 0.3))
    algo.update(algo_kwargs)
    return ExperimentConfig(task=task, algorithm=AlgorithmConfig(**algo),
                            out_dir=out_dir)


class TestRunExperiment:
    def test_zero_rounds_no_op(self, tmp_path):
        cfg = _toy_experiment(rounds=0, out_dir=str(tmp_path))
        run = run_experiment_full(cfg)
        assert run.reports == ()
        assert run.final_state.round == 0
        assert run.final_state.w.tolist() == [1.5]  # initial state untouched
        csv_text = (tmp_path / "metrics.csv").read_text()
        assert csv_text.count("\n") == 1  # header only

    def test_reports_match_rounds(self):
        reports = run_experiment(_toy_experiment(rounds=4))
        assert [r.round for r in reports] == [1, 2, 3, 4]

    def test_same_config_byte_identical_outputs(self, tmp_path):
        cfg_a = _toy_experiment(rounds=8, out_dir=str(tmp_path / "a"))
        cfg_b = _toy_experiment(rounds=8, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_comm_accounting_cumulative(self):
        t = 7
        afa = run_experiment(_toy_experiment(rounds=t))
        assert afa[-1].comm_params_cumulative == t * (2 * 10 * 1 + 4 * 10 * 5)
        fed = run_experiment(_toy_experiment(rounds=t, algorithm="fedavg"))
        assert fed[-1].comm_params_cumulative == t * (2 * 10 * 1)

    def test_classification_summary_is_per_domain_accuracy(self):
        reports = run_experiment(_cls_experiment(rounds=3))
        assert len(reports[-1].model_summary) == 2
        assert all(0.0 <= v <= 1.0 for v in reports[-1].model_summary)


class TestMetricsCsv:
    def test_header_schema(self, tmp_path):
        cfg = _cls_experiment(rounds=2, out_dir=str(tmp_path))
        run_experiment(cfg)
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == ("round,L_0,L_1,lambda_0,lambda_1,worst,"
                          "acc_0,acc_1,comm_params_cumulative,degenerate")

    def test_round_trip_exact(self, tmp_path):
        run = run_experiment_full(_toy_experiment(rounds=9, out_dir=str(tmp_path)))
        assert read_metrics_csv(tmp_path / "metrics.csv") == list(run.reports)

    def test_empty_reports_need_p(self, tmp_path):
        # a zero-round run still writes the header, with p domains
        run_experiment(_toy_experiment(rounds=0, out_dir=str(tmp_path)))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines == ["round,L_0,L_1,L_2,L_3,L_4,lambda_0,lambda_1,lambda_2,lambda_3,"
                         "lambda_4,worst,learned_w,comm_params_cumulative,degenerate"]
        assert read_metrics_csv(tmp_path / "metrics.csv") == []


def _parse_svg_series(path):
    import re
    series = {}
    for m in re.finditer(r'data-series="([^"]+)" data-values="([^"]*)"', path.read_text()):
        series[m.group(1)] = [float(v) for v in m.group(2).split()]
    return series


class TestPlots:
    def test_lambda_plot_series_sum_to_one(self, tmp_path):
        cfg = _toy_experiment(rounds=12)
        reports = run_experiment(cfg)
        model_path, lambda_path = emit_plots(reports, tmp_path / "plot",
                                             summary_names=["learned_w"])
        assert model_path.exists() and lambda_path.exists()
        series = _parse_svg_series(lambda_path)
        assert set(series) == {f"lambda_{i}" for i in range(5)}
        per_round = np.sum([series[f"lambda_{i}"] for i in range(5)], axis=0)
        assert np.allclose(per_round, 1.0, atol=1e-9)

    def test_point_count_per_series_equals_rounds(self, tmp_path):
        reports = run_experiment(_toy_experiment(rounds=7))
        model_path, lambda_path = emit_plots(reports, tmp_path / "plot",
                                             summary_names=["learned_w"])
        for path in (model_path, lambda_path):
            for values in _parse_svg_series(path).values():
                assert len(values) == 7

    def test_constant_reports_flat_polylines(self, tmp_path):
        reports = [
            RoundReport(round=t, per_domain_loss=(1.0, 2.0), lam=(0.5, 0.5),
                        worst_domain_loss=2.0, model_summary=(3.0,),
                        comm_params_cumulative=10 * t, degenerate=False)
            for t in range(1, 5)
        ]
        model_path, _ = emit_plots(reports, tmp_path / "flat", summary_names=["v"])
        series = _parse_svg_series(model_path)
        assert series["v"] == [3.0, 3.0, 3.0, 3.0]
        # flat series maps to a single pixel row
        import re
        points = re.search(r'points="([^"]+)"', model_path.read_text()).group(1)
        ys = {pt.split(",")[1] for pt in points.split()}
        assert len(ys) == 1

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(InvalidArgument):
            emit_plots([], tmp_path / "plot")


class TestEvaluateAndCompare:
    def test_evaluate_population(self):
        run = run_experiment_full(_cls_experiment(rounds=2))
        metrics = evaluate_population(run.spec, run.final_state.w, run.population, 2)
        assert len(metrics["loss"]) == 2
        assert all(v >= 0 for v in metrics["loss"])
        assert all(0 <= v <= 1 for v in metrics["accuracy"])

    def test_evaluate_population_rejects_non_class_label(self):
        run = run_experiment_full(_cls_experiment(rounds=0))
        bad = run.population[0]
        labels = bad.labels.copy()
        labels[0] = 0.7
        population = (ClientDataset(bad.client_id, bad.feature_matrix, labels, bad.domains),
                      *run.population[1:])
        with pytest.raises(InvalidArgument):
            evaluate_population(run.spec, run.final_state.w, population, 2)

    def test_compare_runs_both_algorithms_on_identical_data(self, tmp_path):
        cfg = _toy_experiment(rounds=3, out_dir=str(tmp_path))
        outcomes = compare_algorithms(cfg, ("fedavg", "afa"))
        assert [o.algorithm for o in outcomes] == ["fedavg", "afa"]
        for o in outcomes:
            assert len(o.reports) == 3
            assert o.domain_gap == max(o.per_domain_loss) - min(o.per_domain_loss)
            assert (tmp_path / o.algorithm / "metrics.csv").exists()
        # same data: round-1 stats are collected at the same initial w,
        # so the pre-training domain losses of round 1 agree
        assert outcomes[0].reports[0].per_domain_loss == \
            outcomes[1].reports[0].per_domain_loss
