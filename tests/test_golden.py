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
``classification-projected-skips`` drives a lambda to 0 with a large
projected step, so clients of one size whose populated domain carries
no weight skip local SGD: its 100 rounds mix rounds where every client
trains, rounds where some skip, and rounds where all do.
``classification-ragged-projected-skips`` does the same on clients of 5
to 30 rows, so the clients that skip and those that train differ in
size: 41 of its rounds skip some clients and 5 skip all.
``classification-single-row-minibatch`` trains the
logistic model on 1-row minibatches, on clients of 1 to 6 rows: each
logits product there has one row, which BLAS may take down another
path than a many-row product. ``classification-scale-masked`` (1000 clients,
cohort 100) and ``classification-cohort-1000`` (a cohort of 1000, whose
pair-mask rows are built in several blocks of lower indices) pin the
masked cohort sums at scale, and
``test_large_population_and_cohort_digest`` pins CI's run of 100,000
clients with a cohort of 1000. The four
full-batch toy digests were re-pinned, and ``toy-minibatch`` pinned,
when local SGD moved from one shuffle generator per client to one per
round; the masked-params toy digest (quantized) and the classification
digests did not move. ``toy-600`` runs the shipped toy config for 600
rounds, the longest golden run: it pins each of the run's random
streams 600 rounds past its seeding.

Every ``metrics.csv`` digest but ``classification-cohort-1000``, and all
four plot digests, were re-pinned when a run's random choices moved
from two generators seeded per round, ``make_rng(seed, t, 1)`` for the
cohort and the pair seeds and ``make_rng(derive_seed(seed, t, 4))`` for
the shuffles, to three generators seeded once per run
(``server.run_streams``). ``classification-cohort-1000`` samples every
client and masks its parameters, whose aggregate the fixed-point grid
rounds, so the new streams leave its bytes as they were.
``test_parent_streams_reproduce_parent_digests`` is the reference for
that re-pin: fed the per-round generators of before, ``run_round``
reproduces every digest of before (``PARENT_DIGESTS``), so the streams
are all that moved.

The population digests pin the text ``_population_text`` writes of
generated populations (per client a ``# client <id>`` line, then one
``domain label features...`` line per row), one per task and partition
scheme, so a change to the generators or to the pooled ``Population``
layout must keep every sample's bytes, or re-pin the digests it moves
and say why. The classification digests were re-pinned when that
generator moved from a per-sample loop to whole-array draws; the toy
digests were not moved.

The plot digests pin the two SVG files of the shipped configs, so the
pixel coordinates and ``data-values`` of every point keep their bytes.

Pinned on Python 3.11 with numpy 2.4.6; plots are off in the CSV cases
because they do not feed the CSV.
"""

import hashlib
from pathlib import Path

import pytest

import agfed.harness
from agfed.config import load_config
from agfed.core import derive_seed, make_rng
from agfed.harness import run_experiment_full
from agfed.server import RoundStreams, run_round
from agfed.tasks import TaskConfig, generate_population

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CASES = [
    pytest.param("toy.ini", {"algorithm.rounds": "200"},
                 "076bf7f3cf6fd631c2213e136fdd8f2fcdabd9234f0b3a23277ede00ec52bed0",
                 id="toy"),
    pytest.param("toy.ini", {"algorithm.rounds": "600"},
                 "8e8c8bfcc58e9c3559b7492974c5028a4caf1853059bbf5fd5c6f4605769deeb",
                 id="toy-600"),
    pytest.param("toy.ini", {"algorithm.rounds": "100", "algorithm.algorithm": "fedavg"},
                 "203bb966e88d2994b70b7655d0acc77d5225df74feca319ab2a5db6e2c04e4d5",
                 id="toy-fedavg"),
    pytest.param("toy.ini", {"algorithm.rounds": "100",
                             "secure_aggregation.mask_stats": "false"},
                 "ac6e15415c068ed0db6f1593e0f610f4cf732c2e966248fd9f2915f1e9251bf9",
                 id="toy-plain-stats"),
    pytest.param("toy.ini", {"algorithm.rounds": "100",
                             "secure_aggregation.mask_params": "true"},
                 "5c69ddae2b21fad7c6f97ef37484bf9b06935456ac7450d058f0bd21ceee1d6a",
                 id="toy-masked-params"),
    pytest.param("toy.ini", {"algorithm.rounds": "100", "algorithm.scaling_mode": "windowed",
                             "algorithm.lambda_update": "projected-sgd"},
                 "f3b400610c60b64c5bafeadace11e3dd2ceeeb276099378b223c216862c350eb",
                 id="toy-windowed-projected"),
    pytest.param("toy.ini", {"algorithm.rounds": "100", "algorithm.batch_size": "3",
                             "algorithm.epochs": "2"},
                 "e7c1e8db00ebf9c8ca489ac8204857bccee15eefc985f32443d0e79955c888dc",
                 id="toy-minibatch"),
    pytest.param("classification.ini", {},
                 "b435ad9aa5522da44c0d569fd9279cfddcf425b1b50109bf167e547125a24e31",
                 id="classification"),
    pytest.param("classification.ini", {"algorithm.algorithm": "fedavg"},
                 "10e7f27a803dd8289350524bdbcb862992b7725fd41577d8ca322219f64a0487",
                 id="classification-fedavg"),
    pytest.param("classification.ini", {"algorithm.rounds": "50",
                                        "secure_aggregation.mask_params": "true"},
                 "94cfcecb1aa89282ad4aab78c54c35298a7ac57ecb753de2b9c5acee9be860e5",
                 id="classification-masked-params"),
    pytest.param("classification.ini", {"algorithm.rounds": "30",
                                        "task.partition": "data-partition",
                                        "task.samples_per_client": "5:30",
                                        "algorithm.batch_size": "7", "algorithm.epochs": "2",
                                        "secure_aggregation.mask_params": "true"},
                 "0c01160321edd6c24904e8d13054403b60f7e80d86eda6925c832918dd4d01e2",
                 id="classification-ragged-minibatch"),
    pytest.param("classification.ini", {"algorithm.rounds": "100",
                                        "algorithm.lambda_update": "projected-sgd",
                                        "algorithm.lambda_lr": "1",
                                        "algorithm.batch_size": "7", "algorithm.epochs": "2"},
                 "db23b461906114b6c380ebdc0d04becdf95a998ce2238c3c8123a719775aedb7",
                 id="classification-projected-skips"),
    pytest.param("classification.ini", {"algorithm.rounds": "100",
                                        "task.samples_per_client": "5:30",
                                        "algorithm.lambda_update": "projected-sgd",
                                        "algorithm.lambda_lr": "1",
                                        "algorithm.batch_size": "7", "algorithm.epochs": "2"},
                 "0bb44875885ecd0e0d98fd8d08a5968e188b7972b5e36e81f593f7040ea69d9f",
                 id="classification-ragged-projected-skips"),
    pytest.param("classification.ini", {"algorithm.rounds": "30",
                                        "task.partition": "data-partition",
                                        "task.samples_per_client": "5:30",
                                        "secure_aggregation.mask_stats": "false"},
                 "ccf7b4f68da82be3cd9d05f727d928c384db20a8698a3919b67fbc56cb745a0c",
                 id="classification-ragged-plain-stats"),
    pytest.param("classification.ini", {"algorithm.rounds": "30",
                                        "task.samples_per_client": "1:6",
                                        "algorithm.batch_size": "1",
                                        "secure_aggregation.mask_params": "true"},
                 "b1219ab316756afba5efaa51a096f7ff5acf3d55a6a3eff35e0992f70c29ce25",
                 id="classification-single-row-minibatch"),
    pytest.param("classification.ini", {"task.num_clients": "1000",
                                        "algorithm.clients_per_round": "100",
                                        "algorithm.rounds": "10",
                                        "secure_aggregation.mask_params": "true"},
                 "059d66860a411b0f5e30acf44d417aa89a43ab559c96c61c3fff6720c72fdd17",
                 id="classification-scale-masked"),
    pytest.param("classification.ini", {"task.num_clients": "1000",
                                        "algorithm.clients_per_round": "1000",
                                        "algorithm.rounds": "3",
                                        "secure_aggregation.mask_params": "true"},
                 "a00142e96f27f65c677694d51d23be34dd0e45b54abd55b4d7f4b5f088e8fab0",
                 id="classification-cohort-1000"),
]


def _csv_digest(tmp_path, config, overrides):
    cfg = load_config(CONFIGS / config, {**overrides, "output.plots": "false"},
                      out_dir=str(tmp_path))
    run_experiment_full(cfg)
    return hashlib.sha256((tmp_path / cfg.csv_name).read_bytes()).hexdigest()


@pytest.mark.parametrize("config, overrides, digest", CASES)
def test_metrics_csv_digest(tmp_path, config, overrides, digest):
    assert _csv_digest(tmp_path, config, overrides) == digest


def test_large_population_and_cohort_digest(tmp_path):
    # CI's large run, pinned there too: 100,000 clients of 20 samples and
    # a masked cohort of 1000. It has no per-round-streams digest, so it
    # stays out of CASES.
    overrides = {"task.num_clients": "100000", "algorithm.clients_per_round": "1000",
                 "algorithm.rounds": "2", "secure_aggregation.mask_params": "true"}
    assert (_csv_digest(tmp_path, "classification.ini", overrides)
            == "c009457a099f9d47b7d96c8161eccc39566d303d3e7970ac2653b4ebd5df03fa")


# The digests of CASES when round t drew its cohort and pair seeds from
# make_rng(seed, t, 1) and its shuffles from make_rng(derive_seed(seed, t, 4)).
PARENT_DIGESTS = {
    "toy":
        "e276fca80ecef81dc400bf1a2abacc206378268c124d062f76695661f29a8938",
    "toy-600":
        "3013687283e99af834b5df0b5e6c41db642557c8a3bceaa677e5d941cfafd5c0",
    "toy-fedavg":
        "2c0dd2c54824d370af035c9348c3acf7ffa0e625bfc2aece4ef619f5225100d9",
    "toy-plain-stats":
        "d62198362542a30717e789222224f46662cffd5109824237c69506ab21920fb5",
    "toy-masked-params":
        "575122cd5947633e66c33ec484ea3b04484e6e183c7a1e7ecfaed1b167206527",
    "toy-windowed-projected":
        "287454fde16b92a94379902b241c4f4adeac26f8a1c3f02b677a195e3fa4b1ba",
    "toy-minibatch":
        "1e676753451c34ea69f6b693a8523652786c427c57607cadf185f01414024645",
    "classification":
        "0f8c4e560bcf212bd9eda04838de75b303f2271d1fe68f7511222b4990d6a355",
    "classification-fedavg":
        "647eb02f798d52f8ef2275c1d5c02527e614e228ddba0f83e1dd2fce5f47dc3f",
    "classification-masked-params":
        "0443ac607611b3c515ea6d4a0ab6e03c2a1357e5d78f730b35e53251e3310867",
    "classification-ragged-minibatch":
        "1e0e91d5e66f5d5359c7672fc124c6fe0c620ed8187b6e8d61035d80506cb0bc",
    "classification-projected-skips":
        "7eed176a45d25ba3e620e37192f01b64912561167b34d2afa2d36311375a98b7",
    "classification-ragged-projected-skips":
        "eabc1e431f02f3b33fe29dfbddf602923fd58de2a62c6521589807c451ae3f53",
    "classification-ragged-plain-stats":
        "19f0e226703803b04ba1d786a915d5590c935e9aeaadf3a69c5f82e6408eca15",
    "classification-single-row-minibatch":
        "067c63c0ae0edf3a86e97eea851555c27d01aa7cfeb38c27e00db89d1d045e1f",
    "classification-scale-masked":
        "8c6d2cbb63fc690fa7ddbcc45ade673af27cd5dc858bb4b651025a4b74da8210",
    "classification-cohort-1000":
        "a00142e96f27f65c677694d51d23be34dd0e45b54abd55b4d7f4b5f088e8fab0",
}

PARENT_CASES = [pytest.param(*case.values[:2], PARENT_DIGESTS[case.id], id=case.id)
                for case in CASES]


@pytest.mark.parametrize("config, overrides, digest", PARENT_CASES)
def test_parent_streams_reproduce_parent_digests(tmp_path, monkeypatch, config, overrides,
                                                 digest):
    cfg = load_config(CONFIGS / config, {**overrides, "output.plots": "false"},
                      out_dir=str(tmp_path))

    def per_round_streams(state, algorithm, spec, population, streams, **kwargs):
        t = state.round + 1
        sampling = make_rng(cfg.seed, t, 1)
        parent = RoundStreams(sampling, sampling, make_rng(derive_seed(cfg.seed, t, 4)))
        return run_round(state, algorithm, spec, population, parent, **kwargs)

    monkeypatch.setattr(agfed.harness, "run_round", per_round_streams)
    run_experiment_full(cfg)
    data = (tmp_path / cfg.csv_name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


PLOTS = [
    pytest.param("toy.ini", {"algorithm.rounds": "200"},
                 "bd9ea60b7523c6ff2d81580d67582f7180ae6288ebd8741fd3b709c00617f2d8",
                 "5bf25bb0b29cd9a6f716e0b752129639ae77595cefc86dcfefd74d6200f1f72a",
                 id="toy"),
    pytest.param("classification.ini", {"algorithm.rounds": "50"},
                 "f7b4ec1fab26669528c50748750039dd12bb05b84bc9136e5879d4768e4a03f4",
                 "547b8987600dbb3903d2a0ea622d294beafffa94ff93c93d2469bbbfe669637d",
                 id="classification"),
]


@pytest.mark.parametrize("config, overrides, model_digest, lambda_digest", PLOTS)
def test_plot_svg_digests(tmp_path, config, overrides, model_digest, lambda_digest):
    cfg = load_config(CONFIGS / config, {**overrides, "output.plots": "true"},
                      out_dir=str(tmp_path))
    run_experiment_full(cfg)
    for name, digest in (("plot_model.svg", model_digest), ("plot_lambda.svg", lambda_digest)):
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


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


def _population_text(population):
    lines = []
    for k, client_id in enumerate(population.client_ids.tolist()):
        lines.append(f"# client {client_id}")
        rows = slice(population.offsets[k], population.offsets[k + 1])
        for x, label, domain in zip(population.x[rows].tolist(), population.y[rows].tolist(),
                                    population.domains[rows].tolist()):
            lines.append(f"{domain} {label:.17g} " + " ".join(f"{v:.17g}" for v in x))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("task, digest", POPULATIONS)
def test_population_digest(task, digest):
    population, _ = generate_population(TaskConfig(**task))
    text = _population_text(population)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
