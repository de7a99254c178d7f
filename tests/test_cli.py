"""Command-line interface: run, compare, overrides, error reporting."""

import csv
import re
import warnings
from dataclasses import fields
from pathlib import Path
from typing import get_args

import pytest

import agfed.cli
from agfed import config
from agfed.cli import _parser, main
from agfed.client import LocalSGDConfig
from agfed.config import load_config
from agfed.core import InvalidArgument
from agfed.harness import ExperimentConfig
from agfed.server import AggregationSettings, AlgorithmConfig
from agfed.tasks import TaskConfig, TaskKind

CONFIG = """
[task]
kind = toy-regression
p = 3
num_clients = 12
seed = 5
partition = data-partition
centers = -1, 0, 1
points_per_domain = 12

[algorithm]
algorithm = afa
rounds = 4
clients_per_round = 4
batch_size = 16
learning_rate = 0.1

[output]
plots = true
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return path


def _data_rows(path):
    """Rows of a metrics CSV below its header."""
    with open(path, newline="") as fh:
        return len(list(csv.reader(fh))) - 1


class TestRunCommand:
    def test_run_writes_metrics_and_plots(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out-dir", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "plot_model.svg").exists()
        assert (out / "plot_lambda.svg").exists()
        assert _data_rows(out / "metrics.csv") == 4
        assert "completed 4 rounds" in capsys.readouterr().out

    def test_set_override_changes_rounds(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out-dir", str(out),
                     "--set", "algorithm.rounds=2"])
        assert code == 0
        assert _data_rows(out / "metrics.csv") == 2

    def test_seed_flag_overrides_task_seed(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out-dir", str(a), "--seed", "9"])
        main(["run", "--config", str(config_path), "--out-dir", str(b), "--seed", "10"])
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out-dir", str(a), "--seed", "9"])
        main(["run", "--config", str(config_path), "--out-dir", str(b), "--seed", "9"])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


class TestCompareCommand:
    def test_compare_emits_table_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(config_path), "--out-dir", str(out),
                     "--algorithms", "fedavg,afa"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "fedavg" in captured and "afa" in captured
        assert "difference" in captured
        assert (out / "compare_summary.csv").exists()
        assert (out / "fedavg" / "metrics.csv").exists()
        assert (out / "afa" / "metrics.csv").exists()
        header = (out / "compare_summary.csv").read_text().splitlines()[0]
        assert header.startswith("algorithm,L_0")

    def test_compare_metrics_carry_summary_names(self, tmp_path):
        out = tmp_path / "cmp"
        config = Path(__file__).resolve().parent.parent / "configs" / "classification.ini"
        code = main(["compare", "--config", str(config), "--out-dir", str(out),
                     "--set", "algorithm.rounds=5", "--set", "output.plots=false"])
        assert code == 0
        for algorithm in ("fedavg", "afa"):
            header = (out / algorithm / "metrics.csv").read_text().splitlines()[0]
            assert ",acc_0,acc_1," in header
        assert not list(out.glob("*_metrics.csv"))


class TestErrors:
    def test_missing_config_is_machine_readable_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # exactly one line

    def test_bad_override_key_rejected(self, config_path, capsys):
        code = main(["run", "--config", str(config_path),
                     "--set", "task.bogus=1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["-1", "63"])
    def test_scale_bits_out_of_range_rejected(self, config_path, capsys, bits):
        code = main(["run", "--config", str(config_path),
                     "--set", f"secure_aggregation.scale_bits={bits}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidArgument: ")
        assert "scale_bits" in err
        assert err.count("\n") == 1

    def test_cohort_larger_than_population_rejected_before_setup(self, capsys, tmp_path):
        # with zero rounds nothing would ever sample the cohort
        config = Path(__file__).resolve().parent.parent / "configs" / "classification.ini"
        code = main(["run", "--config", str(config),
                     "--set", "algorithm.clients_per_round=41",
                     "--set", "algorithm.rounds=0", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidArgument: ")
        assert "clients_per_round" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pair", ["task.p=two", "algorithm.rounds=1.5",
                                      "secure_aggregation.mask_stats=maybe"])
    def test_unparsable_value_names_its_key(self, config_path, capsys, pair):
        code = main(["run", "--config", str(config_path), "--set", pair])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidArgument: {pair.split('=')[0]}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, pair", [
        ("classification.ini", "task.centers=9"),
        ("classification.ini", "task.init_value=0.5"),
        ("toy.ini", "task.margins=1 2"),
        ("toy.ini", "task.samples_per_client=5"),
    ])
    def test_task_key_of_the_other_kind_rejected(self, name, pair):
        path = Path(__file__).resolve().parent.parent / "configs" / name
        key, value = pair.split("=")
        with pytest.raises(InvalidArgument, match=f"for kind .*{key.split('.')[1]}"):
            load_config(path, {key: value})

    @pytest.mark.parametrize("name, pairs", [
        ("toy.ini", ["task.spread=nan"]),
        ("toy.ini", ["task.init_value=inf"]),
        ("toy.ini", ["task.centers=-2 -1 nan 1 2"]),
        ("classification.ini", ["task.margins=nan nan"]),
        ("classification.ini", ["task.noise=-inf"]),
        ("classification.ini", ["task.shares=0.85 nan"]),
        ("classification.ini", ["task.partition=data-partition", "task.mixing=nan nan"]),
        # the step sizes are checked the same way, by their own dataclasses
        ("toy.ini", ["algorithm.lambda_lr=inf"]),
        ("toy.ini", ["algorithm.learning_rate=inf"]),
    ])
    def test_non_finite_task_knob_rejected_before_the_run(self, tmp_path, capsys,
                                                          name, pairs):
        config = Path(__file__).resolve().parent.parent / "configs" / name
        out = tmp_path / "out"
        sets = [arg for pair in pairs for arg in ("--set", pair)]
        code = main(["run", "--config", str(config), *sets, "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        knob = pairs[-1].split("=")[0].split(".")[1]
        assert err.startswith(f"error: InvalidArgument: {knob} must be finite")
        assert err.count("\n") == 1
        assert not (out / "metrics.csv").exists()

    def test_projected_step_past_float_precision_is_one_numeric_error(self, tmp_path,
                                                                        capsys):
        # lambda + 1e15 * loss swamps the simplex's unit sum in the
        # projection; that fails with one error line, not an IndexError
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        code = main(["run", "--config", str(config),
                     "--set", "algorithm.lambda_update=projected-sgd",
                     "--set", "algorithm.lambda_lr=1e15", "--set", "output.plots=false",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NumericError: simplex projection lost precision")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, pairs", [
        ("run", ["algorithm.learning_rate=1e300"]),  # the round's loss overflows
        ("run", ["task.spread=1e200"]),              # so does a loss of finite samples
        ("run", ["algorithm.lambda_lr=1e308"]),      # the EG step overflows
        ("run", ["task.spread=1e308"]),              # population generation overflows
        # the only round leaves models whose population losses overflow
        ("compare", ["algorithm.learning_rate=1e300", "algorithm.rounds=1"]),
    ])
    def test_numeric_blow_up_is_one_error_line(self, tmp_path, capsys, command, pairs):
        # numpy prints nothing of its own: the fault is raised, not warned
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        out = tmp_path / "out"
        sets = [arg for pair in ["algorithm.rounds=5", *pairs] for arg in ("--set", pair)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(config), *sets, "--out-dir", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: NumericError: ")
        assert err.count("\n") == 1
        assert not (out / "metrics.csv").exists()
        assert not (out / "compare_summary.csv").exists()

    def test_failed_compare_leaves_no_earlier_outputs(self, tmp_path, capsys):
        # the summary and the failing run's plots of a first, successful
        # comparison are gone after a second one fails
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        args = ["compare", "--config", str(config), "--set", "algorithm.rounds=5",
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "compare_summary.csv").exists()
        assert (tmp_path / "afa" / "plot_lambda.svg").exists()
        code = main(args + ["--set", "algorithm.lambda_update=projected-sgd",
                            "--set", "algorithm.lambda_lr=1e15"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: NumericError: ")
        assert not (tmp_path / "compare_summary.csv").exists()
        assert sorted(p.name for p in (tmp_path / "afa").iterdir()) == ["metrics.csv.partial"]

    def test_unknown_algorithm_rejected_before_any_run(self, tmp_path, capsys):
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        code = main(["compare", "--config", str(config), "--algorithms", "afa,fedvag",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fedvag" in err
        assert not (tmp_path / "afa" / "metrics.csv").exists()

    def test_repeated_algorithm_rejected_before_any_run(self, tmp_path, capsys):
        # each algorithm writes to <out>/<name>, so a repeat would overwrite
        # the first run and write its summary row twice
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        code = main(["compare", "--config", str(config), "--algorithms", "afa,fedavg,afa",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: InvalidArgument: algorithms named more than once: ['afa']\n"
        assert not (tmp_path / "afa").exists() and not (tmp_path / "fedavg").exists()
        assert not (tmp_path / "compare_summary.csv").exists()

    def test_failed_run_leaves_no_metrics_csv(self, tmp_path, capsys):
        # the rows stream to metrics.csv.partial, renamed onto metrics.csv
        # only after the last round; a stale metrics.csv is gone too
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.csv").write_text("stale\n")
        code = main(["run", "--config", str(config),
                     "--set", "algorithm.lambda_update=projected-sgd",
                     "--set", "algorithm.lambda_lr=1e15", "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NumericError: ")
        assert err.count("\n") == 1
        assert not (out / "metrics.csv").exists()
        assert (out / "metrics.csv.partial").read_text().startswith("round,L_0,")

    def test_default_section_is_an_unknown_section(self, tmp_path):
        toy = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        text = toy.read_text().replace("seed = 42\n", "")
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nseed = 42\n\n" + text)
        with pytest.raises(InvalidArgument, match=r"unknown config section \[DEFAULT\]"):
            load_config(path)

    def test_inconsistent_config_rejected(self, config_path, capsys):
        # three centers but p overridden to 2
        code = main(["run", "--config", str(config_path), "--set", "task.p=2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("overrides, message", [
        ({"rounds": "3"}, "override 'rounds' is not of the form section.key"),
        ({"model.kind": "svm"}, "unknown config section 'model' in override"),
        ({"task.kind": "regression"}, "unknown task kind 'regression'"),
    ])
    def test_bad_override_rejected_by_name(self, config_path, overrides, message):
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            load_config(config_path, overrides)

    def test_missing_task_key_rejected(self, tmp_path):
        path = tmp_path / "no-seed.ini"
        path.write_text(CONFIG.replace("seed = 5\n", ""))
        with pytest.raises(InvalidArgument, match=r"^\[task\] is missing required key 'seed'$"):
            load_config(path)

    @pytest.mark.parametrize("argv, err", [
        (["run", "--set", "task.p"], "error: ValueError: --set expects key=value, got 'task.p'\n"),
        (["compare", "--algorithms", ","],
         "error: ValueError: --algorithms must name at least one algorithm\n"),
    ])
    def test_bad_command_line_value_is_one_error_line(self, config_path, capsys, argv, err):
        code = main([argv[0], "--config", str(config_path), *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("text", [
        "p = 3\n" + CONFIG,                                # no section header
        CONFIG.replace("[task]\n", "[task]\n  p = 3\n"),   # a continuation of no key
        CONFIG.replace("p = 3\n", "p = 3\np = 4\n"),       # duplicate option
    ], ids=["no-header", "continuation", "duplicate-option"])
    def test_malformed_file_is_one_error_line_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidArgument: cannot parse config file {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_percent_in_a_file_value_is_taken_as_written(self, tmp_path, capsys):
        # as --set and --out-dir take it; configparser's default
        # interpolation failed to parse the file
        out = tmp_path / "runs" / "50%"
        path = tmp_path / "percent.ini"
        path.write_text(CONFIG.replace("[output]\n", f"[output]\ndir = {out}\nplots = false\n")
                        .replace("plots = true\n", ""))
        assert main(["run", "--config", str(path)]) == 0
        assert _data_rows(out / "metrics.csv") == 4
        assert f"metrics written to {out / 'metrics.csv'}" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["", "..", "sub/m.csv", "plot_model.svg",
                                      "plot_lambda.svg"])
    def test_csv_name_other_than_a_plain_file_name_rejected(self, config_path, tmp_path,
                                                           capsys, name):
        # the plots would overwrite the metrics, and "" or a subdirectory
        # failed only after the population was generated
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--set", f"output.csv={name}",
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: InvalidArgument: output.csv must be a file name other than "
                       f"['plot_model.svg', 'plot_lambda.svg'], got {name!r}\n")
        assert not out.exists()


class TestParser:
    """``main`` builds its parser once per process and reuses it."""

    def test_calls_share_no_set_list(self, monkeypatch):
        seen = []

        def record(path, overrides, **kwargs):
            seen.append(overrides)
            raise RuntimeError("stop before the run")

        monkeypatch.setattr(agfed.cli, "load_config", record)
        assert main(["run", "--config", "a.ini", "--set", "algorithm.rounds=2"]) == 2
        assert main(["run", "--config", "a.ini"]) == 2
        assert main(["compare", "--config", "a.ini", "--set", "task.p=3",
                     "--set", "task.seed=4"]) == 2
        assert main(["run", "--config", "a.ini", "--set", "task.p=5"]) == 2
        assert seen == [{"algorithm.rounds": "2"}, {}, {"task.p": "3", "task.seed": "4"},
                        {"task.p": "5"}]
        assert _parser() is _parser()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["compare", "--help"],
                                      [], ["run"], ["bogus"]])
    def test_usage_and_help_equal_a_fresh_parser(self, capsys, argv):
        # a fresh parser prints what main's cached one does, call after call
        printed = []
        for parse in (main, main, _parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exit_info:
                parse(argv)
            printed.append((exit_info.value.code, *capsys.readouterr()))
        assert printed[0] == printed[1] == printed[2]
        assert printed[0][0] == (0 if "--help" in argv else 2)
        assert "usage: agfed" in printed[0][1] + printed[0][2]


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["toy.ini", "classification.ini"])
    def test_shipped_configs_parse(self, name):
        path = Path(__file__).resolve().parent.parent / "configs" / name
        cfg = load_config(path)
        assert cfg.algorithm.rounds > 0

    def test_shipped_toy_config_matches_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "toy.ini"
        cfg = load_config(path)
        assert cfg.task.centers == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert cfg.task.num_clients == 50
        assert cfg.algorithm.lambda_update == "eg"
        assert cfg.aggregation.mask_stats and not cfg.aggregation.mask_params


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


class TestKeyTables:
    """The key tables are the only list of keys, and they miss no field."""

    def test_tables_cover_exactly_the_dataclass_fields(self):
        assert set(config._TASK_KIND) == set(get_args(TaskKind))
        task_keys = set(config._TASK)
        for kind_keys in config._TASK_KIND.values():
            assert not task_keys & set(kind_keys)
        assert task_keys.union(*config._TASK_KIND.values()) == _names(TaskConfig)
        assert (set(config._ALGORITHM) | set(config._LOCAL_SGD)
                == _names(AlgorithmConfig) - {"local"} | _names(LocalSGDConfig))
        assert set(config._SECURE_AGGREGATION) == _names(AggregationSettings)
        output_fields = {field for field, _ in config._OUTPUT.values()}
        assert output_fields == {"out_dir", "csv_name", "plots"}
        assert output_fields == _names(ExperimentConfig) - {"task", "algorithm", "aggregation"}

    def test_task_only_file_takes_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "task.ini"
        path.write_text("[task]\nkind = toy-regression\np = 5\nnum_clients = 50\n"
                        "seed = 3\npartition = data-partition\n")
        cfg = load_config(path)
        assert cfg.task == TaskConfig("toy-regression", 5, 50, 3, "data-partition")
        assert cfg.algorithm == AlgorithmConfig()
        assert cfg.aggregation == AggregationSettings()
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        for name in ("out_dir", "csv_name", "plots"):
            assert getattr(cfg, name) == defaults[name]
