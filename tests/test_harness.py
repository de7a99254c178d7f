"""Experiment runner, metrics CSV, plots, and comparison."""

import copy
import csv
from dataclasses import replace

import numpy as np
import pytest

import agfed.server
from agfed.client import LocalSGDConfig
from agfed.core import Cohort, InvalidArgument, NumericError, Population, make_rng
from agfed.harness import (
    ExperimentConfig,
    _domain_accuracy,
    compare_algorithms,
    emit_plots,
    evaluate_population,
    run_experiment_full,
)
from agfed.server import AggregationSettings, AlgorithmConfig, RoundReport, run_round
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
        reports = run_experiment_full(_toy_experiment(rounds=4)).reports
        assert [r.round for r in reports] == [1, 2, 3, 4]

    def test_same_config_byte_identical_outputs(self, tmp_path):
        # each run seeds its own streams, so the second run of a process
        # does not continue the first's
        runs = [run_experiment_full(_toy_experiment(rounds=8, out_dir=str(tmp_path / name)))
                for name in ("a", "b")]
        assert runs[0].reports == runs[1].reports
        for name in ("metrics.csv", "plot_model.svg", "plot_lambda.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_comm_accounting_cumulative(self):
        t = 7
        afa = run_experiment_full(_toy_experiment(rounds=t)).reports
        assert afa[-1].comm_params_cumulative == t * (2 * 10 * 1 + 4 * 10 * 5)
        fed = run_experiment_full(_toy_experiment(rounds=t, algorithm="fedavg")).reports
        assert fed[-1].comm_params_cumulative == t * (2 * 10 * 1)

    def test_classification_summary_is_per_domain_accuracy(self):
        reports = run_experiment_full(_cls_experiment(rounds=3)).reports
        assert len(reports[-1].model_summary) == 2
        assert all(0.0 <= v <= 1.0 for v in reports[-1].model_summary)


class TestRunStreams:
    @pytest.mark.parametrize("rounds", [1, 7])
    def test_run_seeds_three_generators_whatever_its_rounds(self, monkeypatch, rounds):
        calls = []

        def counting(*parts):
            calls.append(parts)
            return make_rng(*parts)

        monkeypatch.setattr(agfed.server, "make_rng", counting)
        run_experiment_full(_toy_experiment(rounds=rounds))
        assert len(calls) == 3

    def test_mask_flags_move_no_cohort_and_no_shuffle(self, monkeypatch):
        # the pair seeds have a stream of their own, so masking a sum or
        # not leaves every cohort and every local-SGD key where it was
        gather, update = Cohort.gather, agfed.server.client_update
        draws = []

        def spy_gather(population, members):
            draws.append(("cohort", np.asarray(members).tolist()))
            return gather(population, members)

        def spy_update(spec, w, alpha, cohort, cfg, rng):
            keys = copy.deepcopy(rng).random(cfg.epochs * cohort.owners.shape[0])
            draws.append(("keys", keys.tolist()))
            return update(spec, w, alpha, cohort, cfg, rng)

        monkeypatch.setattr(Cohort, "gather", staticmethod(spy_gather))
        monkeypatch.setattr(agfed.server, "client_update", spy_update)
        runs = []
        for mask_stats in (False, True):
            for mask_params in (False, True):
                draws.clear()
                cfg = replace(_cls_experiment(rounds=4, local=LocalSGDConfig(2, 3, 0.3)),
                              aggregation=AggregationSettings(mask_stats, mask_params))
                run_experiment_full(cfg)
                runs.append(list(draws))
        assert len(runs[0]) == 2 * 4
        assert all(run == runs[0] for run in runs[1:])


class TestMetricsCsv:
    def test_header_schema(self, tmp_path):
        cfg = _cls_experiment(rounds=2, out_dir=str(tmp_path))
        run_experiment_full(cfg)
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == ("round,L_0,L_1,lambda_0,lambda_1,worst,"
                          "acc_0,acc_1,comm_params_cumulative,degenerate")

    def test_round_trip_exact(self, tmp_path):
        # every field parses back to the reported value, bit for bit
        run = run_experiment_full(_toy_experiment(rounds=9, out_dir=str(tmp_path)))
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(run.reports)
        for row, r in zip(rows, run.reports):
            assert [float(v) for v in row] == [
                r.round, *r.per_domain_loss, *r.lam, r.worst_domain_loss, *r.model_summary,
                r.comm_params_cumulative, r.degenerate]

    def test_failed_run_keeps_its_rows_in_the_partial_file(self, tmp_path, monkeypatch):
        import agfed.harness
        full = tmp_path / "full"
        run_experiment_full(_toy_experiment(rounds=3, out_dir=str(full)))
        assert sorted(p.name for p in full.iterdir()) == [
            "metrics.csv", "plot_lambda.svg", "plot_model.svg"]

        def failing_round(state, *args, **kwargs):
            if state.round == 2:
                raise RuntimeError("round 3 fails")
            return run_round(state, *args, **kwargs)

        monkeypatch.setattr(agfed.harness, "run_round", failing_round)
        failed = tmp_path / "failed"
        with pytest.raises(RuntimeError, match="round 3 fails"):
            run_experiment_full(_toy_experiment(rounds=3, out_dir=str(failed)))
        assert sorted(p.name for p in failed.iterdir()) == ["metrics.csv.partial"]
        rows = (full / "metrics.csv").read_bytes().splitlines(keepends=True)
        assert (failed / "metrics.csv.partial").read_bytes() == b"".join(rows[:3])

    def test_empty_reports_need_p(self, tmp_path):
        # a zero-round run still writes the header, with p domains
        run_experiment_full(_toy_experiment(rounds=0, out_dir=str(tmp_path)))
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines == ["round,L_0,L_1,L_2,L_3,L_4,lambda_0,lambda_1,lambda_2,lambda_3,"
                         "lambda_4,worst,learned_w,comm_params_cumulative,degenerate"]


def _parse_svg_series(path):
    import re
    series = {}
    for m in re.finditer(r'data-series="([^"]+)" data-values="([^"]*)"', path.read_text()):
        series[m.group(1)] = [float(v) for v in m.group(2).split()]
    return series


class TestPlots:
    def test_lambda_plot_series_sum_to_one(self, tmp_path):
        cfg = _toy_experiment(rounds=12)
        reports = run_experiment_full(cfg).reports
        model_path, lambda_path = emit_plots(reports, tmp_path / "plot",
                                             summary_names=["learned_w"])
        assert model_path.exists() and lambda_path.exists()
        series = _parse_svg_series(lambda_path)
        assert set(series) == {f"lambda_{i}" for i in range(5)}
        per_round = np.sum([series[f"lambda_{i}"] for i in range(5)], axis=0)
        assert np.allclose(per_round, 1.0, atol=1e-9)

    def test_point_count_per_series_equals_rounds(self, tmp_path):
        reports = run_experiment_full(_toy_experiment(rounds=7)).reports
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
            emit_plots([], tmp_path / "plot", summary_names=[])

    @pytest.mark.parametrize("summary, names, message", [
        ((0.5,), ["a", "b"], "summary name count differs from summary fields"),
        ((), [], "plot needs at least one series and one x value"),
    ])
    def test_summary_names_must_match_a_non_empty_summary(self, tmp_path, summary, names,
                                                          message):
        reports = [RoundReport(round=1, per_domain_loss=(1.0,), lam=(1.0,),
                               worst_domain_loss=1.0, model_summary=summary,
                               comm_params_cumulative=2, degenerate=False)]
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            emit_plots(reports, tmp_path / "plot", summary_names=names)
        assert not list(tmp_path.iterdir())


class TestEvaluateAndCompare:
    def test_evaluate_population(self):
        run = run_experiment_full(_cls_experiment(rounds=2))
        metrics = evaluate_population(run.spec, run.final_state.w, run.population, 2)
        assert len(metrics["loss"]) == 2
        assert all(v >= 0 for v in metrics["loss"])
        assert all(0 <= v <= 1 for v in metrics["accuracy"])

    @pytest.mark.parametrize("p, rows, key", [(1, 1, 0), (3, 50, 1), (5, 2000, 2), (4, 7, 3)])
    def test_domain_accuracy_equals_boolean_mask_means(self, p, rows, key):
        rng = np.random.default_rng(key)
        # domain p - 1 is left empty whenever p > 1
        domains = rng.integers(0, max(p - 1, 1), size=rows)
        correct = rng.random(rows) < rng.random()
        masks = [domains == i for i in range(p)]
        expected = tuple(float(correct[m].mean()) if m.any() else 0.0 for m in masks)
        got = _domain_accuracy(correct, masks, [int(m.sum()) for m in masks])
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert all(type(v) is float for v in got)

    def test_evaluate_population_rejects_non_class_label(self):
        run = run_experiment_full(_cls_experiment(rounds=0))
        good = run.population
        labels = good.y.copy()
        labels[0] = 0.7
        population = Population(good.x, labels, good.domains, good.offsets, good.client_ids, 2)
        with pytest.raises(InvalidArgument):
            evaluate_population(run.spec, run.final_state.w, population, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, bad):
        # the rounds' parameters pass as_param_vector in ServerState;
        # evaluate_population takes outside ones the same way
        run = run_experiment_full(_cls_experiment(rounds=0))
        w = np.zeros(run.spec.param_count)
        w[1] = bad
        with pytest.raises(NumericError, match="parameter vector contains NaN or Inf"):
            evaluate_population(run.spec, w, run.population, 2)

    def test_compare_runs_both_algorithms_on_identical_data(self, tmp_path):
        cfg = _toy_experiment(rounds=3, out_dir=str(tmp_path))
        outcomes = compare_algorithms(cfg, ("fedavg", "afa"))
        assert [o.algorithm for o in outcomes] == ["fedavg", "afa"]
        rows = {}
        for o in outcomes:
            assert o.domain_gap == max(o.per_domain_loss) - min(o.per_domain_loss)
            with open(tmp_path / o.algorithm / "metrics.csv", newline="") as fh:
                rows[o.algorithm] = list(csv.DictReader(fh))
            assert len(rows[o.algorithm]) == 3
        # same data: round-1 stats are collected at the same initial w,
        # so the pre-training domain losses of round 1 agree
        losses = [[r[f"L_{i}"] for i in range(cfg.task.p)] for r in
                  (rows["fedavg"][0], rows["afa"][0])]
        assert losses[0] == losses[1]
