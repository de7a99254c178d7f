"""Command-line interface: run, compare, overrides, error reporting."""

from pathlib import Path

import pytest

from agfed.cli import main
from agfed.config import load_config
from agfed.harness import read_metrics_csv

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


class TestRunCommand:
    def test_run_writes_metrics_and_plots(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out-dir", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "plot_model.svg").exists()
        assert (out / "plot_lambda.svg").exists()
        assert len(read_metrics_csv(out / "metrics.csv")) == 4
        assert "completed 4 rounds" in capsys.readouterr().out

    def test_set_override_changes_rounds(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out-dir", str(out),
                     "--set", "algorithm.rounds=2"])
        assert code == 0
        assert len(read_metrics_csv(out / "metrics.csv")) == 2

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

    def test_inconsistent_config_rejected(self, config_path, capsys):
        # three centers but p overridden to 2
        code = main(["run", "--config", str(config_path), "--set", "task.p=2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


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
