"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import time

import numpy as np
import pytest

from agfed.client import LocalSGDConfig, compute_client_stats
from agfed.core import ClientDataset, Cohort, make_rng
from agfed.harness import ExperimentConfig, compare_algorithms, run_experiment
from agfed.models import ModelSpec, batch_losses, grad_weighted
from agfed.secagg import (
    DEFAULT_SCALE_BITS,
    PairwiseSeeds,
    SecureSum,
    mask_set,
)
from agfed.server import (
    AlgorithmConfig,
    comm_cost_per_round,
    compute_scaling,
    initial_state,
    lambda_update_eg,
    lambda_update_projected_sgd,
    project_simplex,
    run_round,
)
from agfed.tasks import TaskConfig


def _passed(n, message):
    print(f"\n[criterion {n}] PASS - {message}")


def _toy_task(seed=42, **kwargs):
    defaults = dict(kind="toy-regression", p=5, num_clients=50, seed=seed,
                    partition="data-partition", centers=(-2.0, -1.0, 0.0, 1.0, 2.0),
                    points_per_domain=100, spread=0.5, init_value=1.5)
    defaults.update(kwargs)
    return TaskConfig(**defaults)


def _toy_algorithm(**kwargs):
    defaults = dict(algorithm="afa", lambda_update="eg", scaling_mode="two-phase-exact",
                    clients_per_round=10, rounds=1000, lambda_lr=0.01, window_len=10,
                    local=LocalSGDConfig(1, 50, 0.1))
    defaults.update(kwargs)
    return AlgorithmConfig(**defaults)


def test_criterion_1_toy_min_max_regression():
    """5 domains, 50 clients, EG, T=1000: |w| <= 0.05, extremes carry lambda."""
    start = time.time()
    cfg = ExperimentConfig(task=_toy_task(), algorithm=_toy_algorithm())
    reports = run_experiment(cfg)
    elapsed = time.time() - start

    final = reports[-1]
    learned = final.model_summary[0]
    extremes = final.lam[0] + final.lam[4]
    assert abs(learned - 0.0) <= 0.05, f"|w|={abs(learned)} exceeds 0.05"
    assert extremes >= 0.8, f"lambda_0 + lambda_4 = {extremes} < 0.8"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    _passed(1, f"|w|={abs(learned):.4f} <= 0.05, lambda extremes={extremes:.4f} >= 0.8, "
               f"{elapsed:.2f}s < 5s")


def _identity_instance(rng):
    """Random (spec, w, lambda, clients) with every domain populated."""
    p = int(rng.integers(1, 6))
    n_clients = int(rng.integers(1, 11))
    kind = ("scalar-regression", "linear-regression", "logistic")[int(rng.integers(0, 3))]
    if kind == "scalar-regression":
        spec = ModelSpec(kind)
    elif kind == "linear-regression":
        spec = ModelSpec(kind, input_dim=2)
    else:
        spec = ModelSpec(kind, input_dim=2, num_classes=3)

    def draw_sample(domain):
        x = rng.standard_normal(spec.input_dim)
        if kind == "logistic":
            y = float(rng.integers(0, spec.num_classes))
        else:
            y = float(rng.standard_normal())
        return x, y, domain

    raw = []
    for k in range(n_clients):
        for _ in range(int(rng.integers(1, 8))):
            raw.append((k, draw_sample(int(rng.integers(0, p)))))
    # force every domain to appear somewhere
    for i in range(p):
        k = int(rng.integers(0, n_clients))
        raw.append((k, draw_sample(i)))

    clients = []
    for k in range(n_clients):
        xs, ys, ds = zip(*(sample for owner, sample in raw if owner == k))
        clients.append(ClientDataset(k, np.array(xs), ys, ds))
    w = rng.standard_normal(spec.param_count)
    lam = rng.dirichlet(np.ones(p))
    return spec, w, lam, clients, p


def test_criterion_2_identity_property():
    """Beta-weighted client-objective average == sum_i lambda_i L_i, rel 1e-9."""
    rng = make_rng(2024)
    worst = 0.0
    for _ in range(50):
        spec, w, lam, clients, p = _identity_instance(rng)
        client_counts, client_loss_sums = compute_client_stats(
            spec, w, Cohort.gather(clients, p))
        counts = client_counts.sum(axis=0)
        loss_sums = client_loss_sums.sum(axis=0)
        alpha = compute_scaling(lam, counts.astype(np.float64))

        lhs_num = lhs_den = 0.0
        for n_k, l_k in zip(client_counts, client_loss_sums):
            beta = float(alpha @ n_k)
            if beta > 0:
                lhs_num += beta * (float(alpha @ l_k) / beta)
                lhs_den += beta
        lhs = lhs_num / lhs_den
        rhs = float(lam @ (loss_sums / counts))
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        assert rel <= 1e-9, f"identity violated: rel error {rel}"
    _passed(2, f"50 random instances, worst relative error {worst:.2e} <= 1e-9")


def test_criterion_3_afa_p1_reduces_to_fedavg():
    """p=1: AFA and FedAvg parameter trajectories agree to 1e-12 per coordinate."""
    task = _toy_task(p=1, centers=(0.0,), num_clients=20)
    from agfed.tasks import gen_toy_regression
    clients, _ = gen_toy_regression(task)
    spec = ModelSpec("scalar-regression")
    afa_cfg = _toy_algorithm(clients_per_round=5, rounds=12)
    fed_cfg = _toy_algorithm(algorithm="fedavg", clients_per_round=5, rounds=12)
    sa = initial_state(np.array([1.5]), 1)
    sf = initial_state(np.array([1.5]), 1)
    worst = 0.0
    for _ in range(12):
        sa, _ = run_round(sa, afa_cfg, spec, clients, 31)
        sf, _ = run_round(sf, fed_cfg, spec, clients, 31)
        gap = float(np.abs(sa.w - sf.w).max())
        worst = max(worst, gap)
        assert gap <= 1e-12, f"trajectories diverged by {gap}"
    _passed(3, f"12 rounds, max per-coordinate gap {worst:.2e} <= 1e-12")


def _project_oracle(v):
    n = len(v)
    best, best_dist = None, np.inf
    for mask in range(1, 2 ** n):
        support = [i for i in range(n) if mask >> i & 1]
        theta = (sum(v[i] for i in support) - 1.0) / len(support)
        x = np.zeros(n)
        if any(v[i] - theta < -1e-12 for i in support):
            continue
        for i in support:
            x[i] = max(v[i] - theta, 0.0)
        dist = float(np.sum((x - v) ** 2))
        if dist < best_dist:
            best, best_dist = x, dist
    return best


def test_criterion_4_lambda_update_suites():
    """Simplex membership for 1e4 fuzzed inputs; EG shift exact; QP oracle."""
    rng = make_rng(4)
    for _ in range(10_000):
        p = int(rng.integers(1, 6))
        lam = rng.dirichlet(np.ones(p))
        losses = rng.uniform(-50.0, 50.0, p)
        lr = float(rng.uniform(1e-3, 1.0))
        for out in (lambda_update_eg(lam, losses, lr),
                    lambda_update_projected_sgd(lam, losses, lr)):
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0.0)

    # EG shift-invariance, exact: dyadic grid makes L + c exactly representable
    for _ in range(500):
        p = int(rng.integers(2, 6))
        lam = rng.dirichlet(np.ones(p))
        losses = rng.integers(-(2 ** 20), 2 ** 20, p) / (2.0 ** 10)
        c = float(rng.integers(-(2 ** 20), 2 ** 20)) / (2.0 ** 10)
        assert np.array_equal(lambda_update_eg(lam, losses, 0.37),
                              lambda_update_eg(lam, losses + c, 0.37))

    # projection: idempotence and agreement with active-set enumeration
    for _ in range(500):
        p = int(rng.integers(1, 4))
        v = rng.uniform(-2.0, 2.0, p)
        proj = project_simplex(v)
        assert np.allclose(project_simplex(proj), proj, atol=1e-15)
        assert np.allclose(proj, _project_oracle(v), atol=1e-8)
    _passed(4, "1e4 fuzzed updates on simplex; EG shift-invariance exact; "
               "projection idempotent and matches QP oracle at 1e-8")


def test_criterion_5_gradient_checks():
    """Analytic vs central finite differences, rel 1e-5, 100+ instances/kind."""
    specs = [
        ModelSpec("scalar-regression"),
        ModelSpec("linear-regression", input_dim=3),
        ModelSpec("logistic", input_dim=2, num_classes=3),
    ]
    h = 1e-5
    for spec in specs:
        rng = make_rng(5, spec.param_count)
        for _ in range(100):
            w = rng.standard_normal(spec.param_count)
            x = rng.standard_normal(spec.input_dim)[None, :]
            y = (float(rng.integers(0, spec.num_classes)) if spec.kind == "logistic"
                 else float(rng.standard_normal()))
            wt = float(rng.uniform(0.1, 2.0))
            analytic = grad_weighted(spec, w, x, np.array([y]), np.array([wt]))
            numeric = np.zeros_like(w)
            for i in range(w.size):
                up, down = w.copy(), w.copy()
                up[i] += h
                down[i] -= h
                lu = wt * float(batch_losses(spec, up, x, np.array([y]))[0])
                ld = wt * float(batch_losses(spec, down, x, np.array([y]))[0])
                numeric[i] = (lu - ld) / (2 * h)
            scale = max(1e-8, float(np.abs(numeric).max()))
            rel = float(np.abs(analytic - numeric).max()) / scale
            assert rel < 1e-5, f"{spec.kind}: gradient check failed at rel {rel}"
    _passed(5, "3 model kinds x 100 instances within relative 1e-5 of "
               "central differences")


def _secure_sum(seeds, plains):
    acc = SecureSum(seeds, len(plains[0]))
    for i, plain in enumerate(plains):
        acc.submit(i, plain)
    return acc.aggregate()


def test_criterion_6_secure_aggregation():
    """Mask cancellation exact; sums within fixed-point bound; API hiding."""
    rng = make_rng(6)
    # exact cancellation mod 2**64
    for n in (2, 5, 13):
        seeds = PairwiseSeeds.generate(n, rng)
        masked = [mask_set(seeds, i, np.zeros(6)) for i in range(n)]
        total = np.zeros(6, dtype=np.uint64)
        for mv in masked:
            total = total + mv.values
        assert np.all(total == 0)

    # 50 random real vectors within 2.4e-5 per coordinate of the plain oracle
    n = 50
    seeds = PairwiseSeeds.generate(n, rng)
    plains = [rng.uniform(-100.0, 100.0, 12) for _ in range(n)]
    decoded = _secure_sum(seeds, plains)
    oracle = np.sum(np.stack(plains), axis=0)
    err = float(np.abs(decoded - oracle).max())
    assert err <= 2.4e-5, f"fixed-point error {err} exceeds 2.4e-5"

    # integer count vectors bit-exact
    counts = [rng.integers(0, 500, 8).astype(np.float64) for _ in range(n)]
    decoded_counts = _secure_sum(seeds, counts)
    assert np.array_equal(decoded_counts, np.sum(np.stack(counts), axis=0))

    # API-level hiding: the accumulator exposes only submit/aggregate,
    # and an incomplete cohort cannot be unmasked
    public = {name for name in dir(SecureSum) if not name.startswith("_")}
    assert public == {"submit", "aggregate", "n_clients"}
    acc = SecureSum(PairwiseSeeds.generate(3, rng), 4)
    acc.submit(0, np.ones(4))
    acc.submit(1, np.ones(4))
    with pytest.raises(Exception):
        acc.aggregate()
    _passed(6, f"cancellation exact; 50-vector error {err:.2e} <= 2.4e-5; "
               "integer sums bit-exact; server API exposes sums only")


def test_criterion_7_communication_accounting():
    """Cumulative counter equals T*(2c|W|+4cp) for AFA, T*2c|W| for FedAvg."""
    rng = make_rng(7)
    for _ in range(500):
        c = int(rng.integers(1, 2000))
        w = int(rng.integers(1, 10 ** 8))
        p = int(rng.integers(1, 100))
        t = int(rng.integers(0, 50))
        assert t * comm_cost_per_round("afa", c, w, p) == t * (2 * c * w + 4 * c * p)
        assert t * comm_cost_per_round("fedavg", c, w, p) == t * (2 * c * w)

    # integration: real runs across fuzzed (c, p, T) and both model sizes
    for p, centers in ((1, (0.0,)), (3, (-1.0, 0.0, 1.0))):
        for c, t in ((1, 3), (4, 5)):
            task = _toy_task(p=p, centers=centers, num_clients=8,
                             points_per_domain=30, seed=p * 10 + t)
            for algorithm in ("afa", "fedavg"):
                algo = _toy_algorithm(algorithm=algorithm, clients_per_round=c,
                                      rounds=t, local=LocalSGDConfig(1, 10, 0.1))
                reports = run_experiment(ExperimentConfig(task=task, algorithm=algo))
                expected = t * comm_cost_per_round(algorithm, c, 1, p)
                assert reports[-1].comm_params_cumulative == expected

    cls_task = TaskConfig(kind="synthetic-classification", p=2, num_clients=10,
                          seed=3, partition="client-partition", samples_per_client=8,
                          margins=(2.0, 0.5), shares=(0.85, 0.15))
    algo = _toy_algorithm(clients_per_round=3, rounds=4, local=LocalSGDConfig(1, 8, 0.1))
    reports = run_experiment(ExperimentConfig(task=cls_task, algorithm=algo))
    assert reports[-1].comm_params_cumulative == 4 * comm_cost_per_round("afa", 3, 6, 2)
    _passed(7, "counter formula exact across 500 fuzzed configs and real runs")


def test_criterion_8_directional_worst_domain_improvement():
    """AFA beats FedAvg on the worst domain and shrinks the gap, every seed."""
    start = time.time()
    lines = []
    for seed in (1, 2, 3):
        task = TaskConfig(kind="synthetic-classification", p=2, num_clients=40,
                          seed=seed, partition="client-partition",
                          samples_per_client=20, margins=(2.0, 0.5),
                          shares=(0.85, 0.15), noise=0.5)
        algo = AlgorithmConfig(algorithm="afa", lambda_update="eg",
                               scaling_mode="two-phase-exact", clients_per_round=10,
                               rounds=200, lambda_lr=0.05, window_len=10,
                               local=LocalSGDConfig(1, 20, 0.3))
        fed, afa = compare_algorithms(ExperimentConfig(task=task, algorithm=algo),
                                      ("fedavg", "afa"))
        assert afa.worst_domain_loss <= fed.worst_domain_loss, (
            f"seed {seed}: AFA worst {afa.worst_domain_loss} > "
            f"FedAvg worst {fed.worst_domain_loss}"
        )
        assert afa.domain_gap < fed.domain_gap, (
            f"seed {seed}: AFA gap {afa.domain_gap} not below FedAvg {fed.domain_gap}"
        )
        lines.append(f"seed {seed}: worst {afa.worst_domain_loss:.3f}<="
                     f"{fed.worst_domain_loss:.3f}, gap {afa.domain_gap:.3f}<"
                     f"{fed.domain_gap:.3f}")
    elapsed = time.time() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 2 min"
    _passed(8, "; ".join(lines) + f"; {elapsed:.1f}s < 2 min")


def test_criterion_9_determinism_byte_identical(tmp_path):
    """Two runs of any config with equal seeds produce identical CSVs."""
    toy = ExperimentConfig(task=_toy_task(seed=11),
                           algorithm=_toy_algorithm(rounds=25))
    cls = ExperimentConfig(
        task=TaskConfig(kind="synthetic-classification", p=2, num_clients=20,
                        seed=11, partition="client-partition", samples_per_client=10,
                        margins=(2.0, 0.5), shares=(0.85, 0.15)),
        algorithm=_toy_algorithm(rounds=10, clients_per_round=5,
                                 local=LocalSGDConfig(1, 10, 0.3)),
    )
    from dataclasses import replace
    for name, base in (("toy", toy), ("cls", cls)):
        a = replace(base, out_dir=str(tmp_path / name / "a"))
        b = replace(base, out_dir=str(tmp_path / name / "b"))
        run_experiment(a)
        run_experiment(b)
        bytes_a = (tmp_path / name / "a" / "metrics.csv").read_bytes()
        bytes_b = (tmp_path / name / "b" / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b, f"{name}: runs differ"
    _passed(9, "toy and classification metrics CSVs byte-identical across runs")
