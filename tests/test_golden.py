"""Golden digests: the SHA-256 of ``metrics.csv`` for the shipped configs.

The simulator promises a byte-identical ``metrics.csv`` for a given
config. These digests pin that output on every round path: AFA and
FedAvg, masked and plain statistics, masked parameters, and windowed
scaling with the projected lambda update. A change that moves any of
them moves the last bits of some reported number and must re-pin them
on purpose. The shipped configs train full-batch, where the shuffle
only orders one gradient sum per client; ``toy-minibatch`` (3-row
minibatches, two epochs) pins which rows each minibatch takes, and
``classification-ragged-minibatch`` does the same for the logistic
model on clients of 5 to 30 rows, whose minibatches differ in count and
size within a step. ``classification-ragged-plain-stats`` sums those
clients' per-domain losses, segments both shorter and longer than 8
rows, in plain statistics, which expose every bit of each sum (masked
statistics round it to the fixed-point grid first).
``classification-single-row-minibatch`` trains the
logistic model on 1-row minibatches, on clients of 1 to 6 rows: each
logits product there has one row, which BLAS may take down another
path than a many-row product. ``classification-scale-masked`` (1000 clients,
cohort 100) and ``classification-cohort-1000`` (a cohort of 1000, whose
pair-mask rows are built in several blocks of lower indices) pin the
masked cohort sums at scale. The four
full-batch toy digests were re-pinned, and ``toy-minibatch`` pinned,
when local SGD moved from one shuffle generator per client to one per
round; the masked-params toy digest (quantized) and the classification
digests did not move. ``toy-600`` runs the shipped toy config for 600
rounds, the longest golden run.

The population digests pin the ``write_datasets`` text of generated
populations, one per task and partition scheme, so a change to the
generators or to the pooled ``Population`` layout must keep every
sample's bytes, or re-pin the digests it moves and say why. The
classification digests were re-pinned when that generator moved from a
per-sample loop to whole-array draws; the toy digests were not moved.

Pinned on Python 3.11 with numpy 2.4.6; plots are off because they do
not feed the CSV.
"""

import hashlib
from pathlib import Path

import pytest

from agfed.config import load_config
from agfed.harness import run_experiment_full
from agfed.tasks import TaskConfig, generate_population, write_datasets

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CASES = [
    pytest.param("toy.ini", {"algorithm.rounds": "200"},
                 "e276fca80ecef81dc400bf1a2abacc206378268c124d062f76695661f29a8938",
                 id="toy"),
    pytest.param("toy.ini", {"algorithm.rounds": "600"},
                 "3013687283e99af834b5df0b5e6c41db642557c8a3bceaa677e5d941cfafd5c0",
                 id="toy-600"),
    pytest.param("toy.ini", {"algorithm.rounds": "100", "algorithm.algorithm": "fedavg"},
                 "2c0dd2c54824d370af035c9348c3acf7ffa0e625bfc2aece4ef619f5225100d9",
                 id="toy-fedavg"),
    pytest.param("toy.ini", {"algorithm.rounds": "100",
                             "secure_aggregation.mask_stats": "false"},
                 "d62198362542a30717e789222224f46662cffd5109824237c69506ab21920fb5",
                 id="toy-plain-stats"),
    pytest.param("toy.ini", {"algorithm.rounds": "100",
                             "secure_aggregation.mask_params": "true"},
                 "575122cd5947633e66c33ec484ea3b04484e6e183c7a1e7ecfaed1b167206527",
                 id="toy-masked-params"),
    pytest.param("toy.ini", {"algorithm.rounds": "100", "algorithm.scaling_mode": "windowed",
                             "algorithm.lambda_update": "projected-sgd"},
                 "287454fde16b92a94379902b241c4f4adeac26f8a1c3f02b677a195e3fa4b1ba",
                 id="toy-windowed-projected"),
    pytest.param("toy.ini", {"algorithm.rounds": "100", "algorithm.batch_size": "3",
                             "algorithm.epochs": "2"},
                 "1e676753451c34ea69f6b693a8523652786c427c57607cadf185f01414024645",
                 id="toy-minibatch"),
    pytest.param("classification.ini", {},
                 "0f8c4e560bcf212bd9eda04838de75b303f2271d1fe68f7511222b4990d6a355",
                 id="classification"),
    pytest.param("classification.ini", {"algorithm.algorithm": "fedavg"},
                 "647eb02f798d52f8ef2275c1d5c02527e614e228ddba0f83e1dd2fce5f47dc3f",
                 id="classification-fedavg"),
    pytest.param("classification.ini", {"algorithm.rounds": "50",
                                        "secure_aggregation.mask_params": "true"},
                 "0443ac607611b3c515ea6d4a0ab6e03c2a1357e5d78f730b35e53251e3310867",
                 id="classification-masked-params"),
    pytest.param("classification.ini", {"algorithm.rounds": "30",
                                        "task.partition": "data-partition",
                                        "task.samples_per_client": "5:30",
                                        "algorithm.batch_size": "7", "algorithm.epochs": "2",
                                        "secure_aggregation.mask_params": "true"},
                 "1e0e91d5e66f5d5359c7672fc124c6fe0c620ed8187b6e8d61035d80506cb0bc",
                 id="classification-ragged-minibatch"),
    pytest.param("classification.ini", {"algorithm.rounds": "30",
                                        "task.partition": "data-partition",
                                        "task.samples_per_client": "5:30",
                                        "secure_aggregation.mask_stats": "false"},
                 "19f0e226703803b04ba1d786a915d5590c935e9aeaadf3a69c5f82e6408eca15",
                 id="classification-ragged-plain-stats"),
    pytest.param("classification.ini", {"algorithm.rounds": "30",
                                        "task.samples_per_client": "1:6",
                                        "algorithm.batch_size": "1",
                                        "secure_aggregation.mask_params": "true"},
                 "067c63c0ae0edf3a86e97eea851555c27d01aa7cfeb38c27e00db89d1d045e1f",
                 id="classification-single-row-minibatch"),
    pytest.param("classification.ini", {"task.num_clients": "1000",
                                        "algorithm.clients_per_round": "100",
                                        "algorithm.rounds": "10",
                                        "secure_aggregation.mask_params": "true"},
                 "8c6d2cbb63fc690fa7ddbcc45ade673af27cd5dc858bb4b651025a4b74da8210",
                 id="classification-scale-masked"),
    pytest.param("classification.ini", {"task.num_clients": "1000",
                                        "algorithm.clients_per_round": "1000",
                                        "algorithm.rounds": "3",
                                        "secure_aggregation.mask_params": "true"},
                 "a00142e96f27f65c677694d51d23be34dd0e45b54abd55b4d7f4b5f088e8fab0",
                 id="classification-cohort-1000"),
]


@pytest.mark.parametrize("config, overrides, digest", CASES)
def test_metrics_csv_digest(tmp_path, config, overrides, digest):
    cfg = load_config(CONFIGS / config, {**overrides, "output.plots": "false"},
                      out_dir=str(tmp_path))
    run_experiment_full(cfg)
    data = (tmp_path / cfg.csv_name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


POPULATIONS = [
    pytest.param(dict(kind="toy-regression", p=5, num_clients=50, seed=42,
                      partition="data-partition"),
                 "4bb5c18deea3a146c5ab058a3c4d74973d1dcf44d3c812544bd671f181336912",
                 id="toy-data-partition"),
    pytest.param(dict(kind="toy-regression", p=5, num_clients=12, seed=3,
                      partition="client-partition"),
                 "1d5618ff307b728203217aa0a70dcc11a5d3f76c48098d0350dae59c595fec9d",
                 id="toy-client-partition"),
    pytest.param(dict(kind="synthetic-classification", p=2, num_clients=40, seed=1,
                      partition="client-partition", samples_per_client=20),
                 "7212b1b6e1463e21e695df9d3ff5dba427eaffee96e3a37bc52869b013e9aa5d",
                 id="classification-client-partition"),
    pytest.param(dict(kind="synthetic-classification", p=3, num_clients=30, seed=5,
                      partition="data-partition", samples_per_client=(3, 9),
                      margins=(2.0, 1.0, 0.5), mixing=(0.5, 0.3, 0.2)),
                 "76282415fbe9d7af180c7ba9d523f0654ab28c50f47520c99065ae8705a715ab",
                 id="classification-data-partition"),
]


@pytest.mark.parametrize("task, digest", POPULATIONS)
def test_population_digest(tmp_path, task, digest):
    population, _ = generate_population(TaskConfig(**task))
    path = tmp_path / "population.txt"
    write_datasets(population, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
