"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured figure so a full run
doubles as the release report.  The experiment-backed criteria share
their training runs through module-scoped fixtures; everything is a pure
function of the seeds fixed here.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fedprompt
from fedprompt import tensor as te
from fedprompt.data import SyntheticSpec, generate_synthetic, partition_dirichlet, \
    partition_pathological
from fedprompt.evaluation import comm_accounting, heldout_split, prompt_mix_overhead
from fedprompt.federation import TrainConfig, build_clients, fedavg_aggregate, \
    run_training
from fedprompt.model import (ModelConfig, PromptParams, gradient_check,
                            init_backbone)
from fedprompt.prototypes import (
    PrototypeBank,
    aggregate_submissions,
    mix_prompt,
    momentum_update,
    soft_scores,
)

SEEDS = (0, 1, 2)

DESK_MODEL = ModelConfig(dim=32, layers=8, heads=2, image_size=16,
                         patch_size=8, mix_layers=(5, 6, 7), tau=0.05)
DESK_DATA = SyntheticSpec(classes=8, train_per_class=40, test_per_class=12,
                          image_size=16, separation=1.0, noise=1.0)
DESK_CLIENTS = 12
DESK_K = 2
DESK_ROUNDS = 30


def desk_train_cfg(strategy, dp_epsilon=None):
    return TrainConfig(clients_per_round=3, rounds=DESK_ROUNDS, local_epochs=1,
                       batch_size=16, lr=0.1, lr_decay=0.99, momentum=0.9,
                       grad_clip=10.0, rho=0.9, update_period=1,
                       strategy=strategy, dp_epsilon=dp_epsilon)


def desk_run(seed, strategy, dp_epsilon=None, heldout_fraction=0.0):
    dataset = generate_synthetic(DESK_DATA, seed)
    partition = partition_pathological(dataset, DESK_CLIENTS, DESK_K, seed)
    clients = build_clients(dataset, partition)
    backbone = init_backbone(seed, DESK_MODEL)
    heldout = ()
    if heldout_fraction > 0:
        _, heldout = heldout_split(range(DESK_CLIENTS),
                                   1.0 - heldout_fraction, seed)
    cfg = desk_train_cfg(strategy, dp_epsilon)
    state, logs = run_training(clients, backbone, DESK_MODEL, cfg, seed,
                               heldout=heldout)
    return state, logs


@pytest.fixture(scope="module")
def ablation_runs():
    """Criterion 7/8/10 share these runs: strategy -> seed -> final logs."""
    runs = {}
    for strategy in ("shared_only", "mixed", "mixed_no_prior"):
        runs[strategy] = {seed: desk_run(seed, strategy)[1] for seed in SEEDS}
    return runs


def test_criterion_01_gradient_correctness():
    start = time.time()
    report = gradient_check(seed=0, dim=16, layers=4, classes=4, heads=2)
    elapsed = time.time() - start
    assert report["max"] < 1e-4
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: gradcheck max rel err {report['max']:.2e} "
          f"(shared {report['shared']:.2e}, class {report['class']:.2e}, "
          f"head {report['head']:.2e}) in {elapsed:.1f}s")


def test_criterion_02_score_algebra():
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 10))
        d = int(rng.integers(2, 12))
        cls = rng.normal(size=d)
        protos = rng.normal(size=(c, d))
        protos[rng.random(c) < 0.25] = 0.0
        priors = rng.random(c) * (rng.random(c) < 0.75)
        if priors.sum() == 0:
            priors[int(rng.integers(c))] = 1.0
        priors /= priors.sum()
        tau = float(rng.uniform(0.01, 5.0))
        s = soft_scores(cls, protos, priors, tau)
        assert (s >= 0).all()
        worst_sum = max(worst_sum, abs(s.sum() - 1.0))
        assert abs(s.sum() - 1.0) < 1e-12
        assert np.all(s[priors == 0.0] == 0.0)
        # exact scale invariance on exactly-representable rescalings
        np.testing.assert_array_equal(soft_scores(0.5 * cls, protos, priors, tau), s)
        np.testing.assert_array_equal(soft_scores(64.0 * cls, protos, priors, tau), s)
        # prior-collapse limit
        s_hot = soft_scores(cls, protos, priors, 1e6)
        assert np.abs(s_hot - priors).max() < 1e-4
    print(f"\nPASS criterion 2: 1000 draws, worst |sum-1| = {worst_sum:.2e}")


def test_criterion_03_posterior_mean_is_mmse():
    rng = np.random.default_rng(3)
    worst_eq = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 9))
        d = int(rng.integers(2, 10))
        prompts = rng.normal(size=(d, c))
        scores = rng.random(c)
        scores /= scores.sum()
        mixed = mix_prompt(prompts, scores)
        explicit = sum(scores[i] * prompts[:, i] for i in range(c))
        worst_eq = max(worst_eq, float(np.abs(mixed - explicit).max()))
        assert np.abs(mixed - explicit).max() <= 1e-15

        def posterior_mse(candidate):
            return float(sum(
                scores[i] * np.sum((prompts[:, i] - candidate) ** 2)
                for i in range(c)))

        base = posterior_mse(mixed)
        for _ in range(100):
            rival = mixed + rng.normal(scale=rng.uniform(0.01, 2.0), size=d)
            assert base < posterior_mse(rival)
    print(f"\nPASS criterion 3: mixture == posterior mean (worst dev "
          f"{worst_eq:.1e}); beat 100 rival estimators on all 50 instances")


def test_criterion_04_quadratic_bound_minimizer():
    rng = np.random.default_rng(4)
    worst_gap = 0.0
    worst_grad = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 9))
        d = int(rng.integers(2, 10))
        prompts = rng.normal(size=(d, c))
        delta = rng.random(c)
        delta /= delta.sum()
        beta_max = float(rng.uniform(0.1, 10.0))
        target = prompts @ delta

        # descend the quadratic surrogate sum_c delta_c (l_c + b/2 |m-p_c|^2)
        m = rng.normal(size=d)
        step = 0.5 / beta_max
        for _ in range(200):
            grad = beta_max * sum(
                delta[i] * (m - prompts[:, i]) for i in range(c))
            m = m - step * grad
        gap = float(np.abs(m - target).max())
        analytic = beta_max * (m - prompts @ delta)
        worst_gap = max(worst_gap, gap)
        worst_grad = max(worst_grad, float(np.abs(analytic).max()))
        assert gap < 1e-6
        grad_at_target = beta_max * (target - prompts @ delta)
        assert np.abs(grad_at_target).max() < 1e-12
    print(f"\nPASS criterion 4: surrogate descent worst gap {worst_gap:.1e}, "
          f"analytic gradient at optimum <= {worst_grad:.1e}")


def test_criterion_05_mix_overhead_closed_form():
    frac = prompt_mix_overhead(layers=12, heads=12, tokens=197, dim=768,
                               head_dim=64, classes=100, mix_layers=3)
    pct = frac * 100
    assert pct == pytest.approx(0.008, abs=0.003)
    print(f"\nPASS criterion 5: mixing overhead {pct:.5f}% (target 0.008 +/- 0.003)")


def test_criterion_06_communication_accounting():
    report = comm_accounting(dim=768, classes=100, shared_prompts=1,
                             mix_layers=3, rounds=12, update_period=1)
    assert report.uploaded_total == pytest.approx(4.6e6, rel=0.05)
    print(f"\nPASS criterion 6: 12-round upload total "
          f"{report.uploaded_total / 1e6:.3f}M params (target 4.6M +/- 5%)")


def test_criterion_07_mixing_beats_shared_only(ablation_runs):
    start = time.time()
    gaps = {}
    for seed in SEEDS:
        shared = ablation_runs["shared_only"][seed][-1].mean_acc
        mixed = ablation_runs["mixed"][seed][-1].mean_acc
        gaps[seed] = (mixed - shared) * 100
        assert gaps[seed] >= 5.0, (
            f"seed {seed}: mixed {mixed:.3f} vs shared {shared:.3f}")
    print(f"\nPASS criterion 7: mixing gap per seed "
          f"{[f'{gaps[s]:.1f}pp' for s in SEEDS]} (>= 5pp each)")
    assert time.time() - start < 300  # fixture shares the heavy lifting


def test_criterion_08_class_priors_help(ablation_runs):
    with_prior = [ablation_runs["mixed"][s][-1].mean_acc for s in SEEDS]
    without = [ablation_runs["mixed_no_prior"][s][-1].mean_acc for s in SEEDS]
    wins = sum(w >= wo for w, wo in zip(with_prior, without))
    assert wins >= 2
    assert np.mean(with_prior) >= np.mean(without)
    print(f"\nPASS criterion 8: priors win on {wins}/3 seeds; means "
          f"{np.mean(with_prior):.3f} vs {np.mean(without):.3f}")


def test_criterion_09_heldout_generalization():
    _, mixed_logs = desk_run(0, "mixed", heldout_fraction=0.1)
    _, personal_logs = desk_run(0, "personalized", heldout_fraction=0.1)
    mixed_last = mixed_logs[-1]
    personal_last = personal_logs[-1]
    gap = abs(mixed_last.mean_acc - mixed_last.heldout_mean_acc) * 100
    assert gap <= 10.0
    assert personal_last.heldout_mean_acc < mixed_last.heldout_mean_acc
    print(f"\nPASS criterion 9: mixing heldout {mixed_last.heldout_mean_acc:.3f} "
          f"vs participating {mixed_last.mean_acc:.3f} (gap {gap:.1f}pp); "
          f"personalized heldout {personal_last.heldout_mean_acc:.3f} is lower")


def test_criterion_10_dp_robustness(ablation_runs):
    _, dp_logs = desk_run(0, "mixed", dp_epsilon=0.2)
    noiseless = ablation_runs["mixed"][0][-1].mean_acc
    noised = dp_logs[-1].mean_acc
    drop = (noiseless - noised) * 100
    assert drop <= 8.0
    print(f"\nPASS criterion 10: eps=0.2 run {noised:.3f} vs noiseless "
          f"{noiseless:.3f} (drop {drop:.1f}pp <= 8pp)")


def test_criterion_11_run_determinism(tmp_path):
    import json

    config = {
        "seed": 0,
        "data": {"classes": DESK_DATA.classes,
                 "train_per_class": DESK_DATA.train_per_class,
                 "test_per_class": DESK_DATA.test_per_class,
                 "image_size": DESK_DATA.image_size,
                 "separation": DESK_DATA.separation,
                 "noise": DESK_DATA.noise},
        "partition": {"mode": "pathological", "classes_per_client": DESK_K},
        "model": {"dim": DESK_MODEL.dim, "layers": DESK_MODEL.layers,
                  "heads": DESK_MODEL.heads,
                  "patch_size": DESK_MODEL.patch_size,
                  "mix_layers": list(DESK_MODEL.mix_layers)},
        "train": {"clients": DESK_CLIENTS, "clients_per_round": 3,
                  "rounds": 6, "local_epochs": 1, "strategy": "mixed"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    # the child interpreter imports the package this one imported
    src = str(Path(fedprompt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "fedprompt.cli", "run",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        digests.append((out / "metrics.csv").read_bytes())
    assert digests[0] == digests[1]
    print("\nPASS criterion 11: repeated runs produced byte-identical metrics.csv")


def test_training_loss_curve_shape(ablation_runs):
    """5-round moving average of the training loss trends monotonically
    down; small upticks are inherent to per-round client resampling."""
    for seed in SEEDS:
        losses = np.array([log.train_loss
                           for log in ablation_runs["mixed"][seed][1:]])
        ma = np.convolve(losses, np.ones(5) / 5, mode="valid")
        rises = np.diff(ma) / ma[:-1]
        assert rises.max() < 0.15, f"seed {seed}: MA uptick {rises.max():.2%}"
        assert ma[-1] < 0.5 * ma[0], f"seed {seed}: no overall decrease"


def test_criterion_12_protocol_unit_suite():
    # momentum formula and the no-contributor rule, exact
    prev = np.array([[1.0, 0.0], [5.0, 6.0]])
    agg = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = momentum_update(prev, agg, np.array([1, 0]), rho=0.9)
    np.testing.assert_array_equal(out[0], 0.9 * prev[0] + (1 - 0.9) * agg[0])
    np.testing.assert_allclose(out[0], [0.9, 0.1], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(out[1], prev[1])

    # warm-up aggregation: plain mean over clients
    bank = PrototypeBank(layers=(5,), num_classes=1, dim=2)
    bank.warm_start([{5: np.array([[1.0, 0.0]])}, {5: np.array([[3.0, 0.0]])}])
    np.testing.assert_array_equal(bank.mu[5][0], [2.0, 0.0])

    # period aggregation indicator: zero submissions excluded
    agg2, counts = aggregate_submissions(
        [np.array([[0.0, 0.0]]), np.array([[4.0, 4.0]])])
    assert counts[0] == 1
    np.testing.assert_array_equal(agg2[0], [4.0, 4.0])

    # fedavg mean exact to 1e-15
    from fedprompt.federation import ClientUpdate
    rng = np.random.default_rng(12)
    values = rng.normal(size=7)
    updates = [
        ClientUpdate(client_id=i,
                     params=PromptParams.from_arrays(np.full((2, 1), v),
                                                     np.full((2, 2), v),
                                                     np.full((2, 2), v)),
                     prototypes={}, sensitivities={}, num_samples=3,
                     mean_loss=0.0)
        for i, v in enumerate(values)
    ]
    merged = fedavg_aggregate(updates)
    assert abs(merged.head.data[0, 0] - values.mean()) <= 1e-15

    # partition disjointness and coverage across 100 seeds
    spec = SyntheticSpec(classes=6, train_per_class=18, test_per_class=6,
                         image_size=8)
    dataset = generate_synthetic(spec, 99)
    for seed in range(100):
        for part in (
            partition_pathological(dataset, 9, 2, seed),
            partition_dirichlet(dataset, 5, 0.3, seed),
        ):
            train_all = np.concatenate(part.train_indices)
            test_all = np.concatenate(part.test_indices)
            assert len(train_all) == dataset.num_train
            assert len(np.unique(train_all)) == dataset.num_train
            assert len(test_all) == dataset.test_y.size
            assert len(np.unique(test_all)) == dataset.test_y.size
    print("\nPASS criterion 12: momentum / warm-up / indicator / fedavg exact; "
          "100-seed partition disjointness and coverage hold")
