"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured figure so a full run
doubles as the release report.  The experiment-backed criteria read their
training runs from one module-scoped fixture, which runs every desk run
of `DESK_RUNS` on two worker processes; everything is a pure function of
the seeds fixed here.
"""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fedprompt
from fedprompt import model
from fedprompt import tensor as te
from fedprompt.config import load_config
from fedprompt.data import SyntheticSpec, generate_synthetic, partition_dirichlet, \
    partition_pathological
from fedprompt.evaluation import comm_accounting
from fedprompt.federation import fedavg_aggregate, init_server, run_training
from fedprompt.model import PromptParams, gradient_check
from fedprompt.prototypes import (
    PrototypeBank,
    ScoreConstants,
    aggregate_submissions,
    momentum_update,
    soft_scores_op,
)

SEEDS = (0, 1, 2)

# the desk runs are this config with the fields each criterion varies
DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pathological.json"


def desk_config(seed, heldout_fraction=0.0, **train):
    """The desk config at `seed`, with its `train` fields replaced."""
    cfg = load_config(str(DESK_CONFIG), seed)
    return dataclasses.replace(cfg, heldout_fraction=heldout_fraction,
                               train=dataclasses.replace(cfg.train, **train))


# every desk run the criteria read: (strategy, dp_epsilon,
# heldout_fraction, seed); a heldout fraction of 0.1 holds out one client
# of 12
DESK_RUNS = tuple(
    (strategy, dp_epsilon, heldout_fraction, seed)
    for strategy, dp_epsilon, heldout_fraction in (
        ("shared_only", None, 0.0),     # criterion 7
        ("mixed", None, 0.0),           # criteria 7, 8 and 10, loss curve
        ("mixed_no_prior", None, 0.0),  # criterion 8
        ("mixed", 0.2, 0.0),            # criterion 10
        ("mixed", None, 0.1),           # criteria 9 and 13
        ("personalized", None, 0.1),    # criteria 9 and 13
    )
    for seed in SEEDS)


def desk_run(strategy, dp_epsilon, heldout_fraction, seed):
    """The round logs of the desk run of one `DESK_RUNS` row."""
    return run_training(init_server(desk_config(
        seed, heldout_fraction, strategy=strategy, dp_epsilon=dp_epsilon)))


@pytest.fixture(scope="module")
def desk_runs():
    """`DESK_RUNS` row -> its round logs, run on at most two spawned
    workers with one BLAS thread each (no artifact byte depends on the
    thread count); a worker's exception fails the fixture with its
    traceback."""
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(2, os.cpu_count() or 1),
            mp_context=multiprocessing.get_context("spawn")) as pool:
        # the workers start at the submits and load numpy under the
        # environment they start with; this process's is restored after
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("OPENBLAS_NUM_THREADS", "1")
            futures = {row: pool.submit(desk_run, *row) for row in DESK_RUNS}
        return {row: future.result() for row, future in futures.items()}


def final(runs, strategy, seed, dp_epsilon=None, heldout_fraction=0.0):
    """The last round log of one desk run."""
    return runs[(strategy, dp_epsilon, heldout_fraction, seed)][-1]


def per_seed(values):
    return "/".join(f"{values[s]:.1f}" for s in SEEDS)


def test_criterion_01_gradient_correctness():
    start = time.time()
    report = gradient_check()
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

        def scores(token, tau=tau):
            # the forward's scores of one token at one layer
            return soft_scores_op(token, ScoreConstants(protos, priors, tau),
                                  False)[0]

        s = scores(cls)
        assert (s >= 0).all()
        worst_sum = max(worst_sum, abs(s.sum() - 1.0))
        assert abs(s.sum() - 1.0) < 1e-12
        assert np.all(s[priors == 0.0] == 0.0)
        # exact scale invariance on exactly-representable rescalings
        np.testing.assert_array_equal(scores(0.5 * cls), s)
        np.testing.assert_array_equal(scores(64.0 * cls), s)
        # prior-collapse limit
        s_hot = scores(cls, tau=1e6)
        assert np.abs(s_hot - priors).max() < 1e-4
    print(f"\nPASS criterion 2: 1000 draws, worst |sum-1| = {worst_sum:.2e}")


def test_criterion_03_posterior_mean_is_mmse():
    # the token the forward's mixing (`model._mix`) inserts after the cls
    # row, with the scores of that layer's constants
    rng = np.random.default_rng(3)
    worst_eq = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 9))
        d = int(rng.integers(2, 10))
        prompts = rng.normal(size=(d, c))
        priors = rng.random(c)
        priors /= priors.sum()
        consts = ScoreConstants(rng.normal(size=(c, d)), priors,
                                float(rng.uniform(0.05, 5.0)))
        seq = rng.normal(size=(2, d))
        scores = soft_scores_op(seq[0], consts, False)[0]
        mixed = model._mix(seq, te.Tensor(prompts), consts, False, None)[1]
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


def forward_mults(L, H, T, d, dh, C):
    """Multiplications of one transformer forward pass of L layers, H heads
    of width dh, T tokens of width d and C classes."""
    return L * H * (3 * T * d * dh + T**2 * dh) + L * T * d**2 + C * d


def mix_mults(C, d, mix_layers):
    """Per mix layer, C*d for the prototype similarities and C*d for the
    prompt combination."""
    return mix_layers * 2 * C * d


def test_criterion_05_mix_overhead_closed_form():
    # the forward's closed form against its terms, summed one by one
    rng = np.random.default_rng(8)
    for _ in range(25):
        L, H, T, d, dh, C = (int(rng.integers(1, 7)) for _ in range(6))
        per_head = 0
        for _ in range(L):
            for _ in range(H):
                per_head += T * d * dh  # query
                per_head += T * d * dh  # key
                per_head += T * d * dh  # value
                per_head += T * T * dh  # attention inner products
        assert forward_mults(L, H, T, d, dh, C) == per_head + L * T * d * d + C * d
    # ViT-B/16 on 100 classes, mixing at 3 layers
    pct = 100 * mix_mults(100, 768, 3) / forward_mults(12, 12, 197, 768, 64, 100)
    assert pct == pytest.approx(0.008, abs=0.003)
    print(f"\nPASS criterion 5: mixing overhead {pct:.5f}% (target 0.008 +/- 0.003)")


def test_criterion_06_communication_accounting():
    report = comm_accounting(dim=768, classes=100, mix_layers=3, rounds=12,
                             update_period=1)
    assert report.uploaded_total == pytest.approx(4.6e6, rel=0.05)
    print(f"\nPASS criterion 6: 12-round upload total "
          f"{report.uploaded_total / 1e6:.3f}M params (target 4.6M +/- 5%)")


def test_criterion_07_mixing_beats_shared_only(desk_runs):
    start = time.time()
    gaps = {}
    for seed in SEEDS:
        shared = final(desk_runs, "shared_only", seed).mean_acc
        mixed = final(desk_runs, "mixed", seed).mean_acc
        gaps[seed] = (mixed - shared) * 100
        assert gaps[seed] >= 5.0, (
            f"seed {seed}: mixed {mixed:.3f} vs shared {shared:.3f}")
    print(f"\nPASS criterion 7: mixing gap per seed "
          f"{[f'{gaps[s]:.1f}pp' for s in SEEDS]} (>= 5pp each)")
    assert time.time() - start < 300  # fixture shares the heavy lifting


def test_criterion_08_class_priors_help(desk_runs):
    with_prior = [final(desk_runs, "mixed", s).mean_acc for s in SEEDS]
    without = [final(desk_runs, "mixed_no_prior", s).mean_acc for s in SEEDS]
    wins = sum(w >= wo for w, wo in zip(with_prior, without))
    assert wins >= 2
    assert np.mean(with_prior) >= np.mean(without)
    print(f"\nPASS criterion 8: priors win on {wins}/3 seeds; means "
          f"{np.mean(with_prior):.3f} vs {np.mean(without):.3f}")


def test_criterion_09_heldout_generalization(desk_runs):
    # generalization: mixing scores the heldout client about as well as
    # the participating ones, and better than per-client prompts do
    gaps, leads = {}, {}
    for seed in SEEDS:
        mixed = final(desk_runs, "mixed", seed, heldout_fraction=0.1)
        personal = final(desk_runs, "personalized", seed, heldout_fraction=0.1)
        gaps[seed] = abs(mixed.mean_acc - mixed.heldout_mean_acc) * 100
        leads[seed] = (mixed.heldout_mean_acc - personal.heldout_mean_acc) * 100
        assert gaps[seed] <= 10.0, f"seed {seed}: gap {gaps[seed]:.1f}pp"
        assert leads[seed] > 0.0, f"seed {seed}: lead {leads[seed]:.1f}pp"
    print(f"\nPASS criterion 9: mixing heldout vs participating gap "
          f"{per_seed(gaps)}pp at seeds {SEEDS} (<= 10pp, margins "
          f"{per_seed({s: 10.0 - gaps[s] for s in SEEDS})}pp); mixing's "
          f"heldout lead over personalized {per_seed(leads)}pp (> 0)")


def test_criterion_10_dp_robustness(desk_runs):
    drops = {}
    for seed in SEEDS:
        noiseless = final(desk_runs, "mixed", seed).mean_acc
        noised = final(desk_runs, "mixed", seed, dp_epsilon=0.2).mean_acc
        drops[seed] = (noiseless - noised) * 100
        assert drops[seed] <= 8.0, (
            f"seed {seed}: eps=0.2 run {noised:.3f} vs noiseless "
            f"{noiseless:.3f}")
    print(f"\nPASS criterion 10: eps=0.2 drop {per_seed(drops)}pp at seeds "
          f"{SEEDS} (<= 8pp, margins "
          f"{per_seed({s: 8.0 - drops[s] for s in SEEDS})}pp)")


def test_criterion_11_run_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(desk_config(0, rounds=6).to_dict()))
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


def test_training_loss_curve_shape(desk_runs):
    """5-round moving average of the training loss trends monotonically
    down; small upticks are inherent to per-round client resampling."""
    for seed in SEEDS:
        logs = desk_runs[("mixed", None, 0.0, seed)]
        losses = np.array([log.train_loss for log in logs[1:]])
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
    bank = PrototypeBank(layers=(5,), num_classes=1, dim=2, tau=0.05)
    bank.warm_start([{5: np.array([[1.0, 0.0]])}, {5: np.array([[3.0, 0.0]])}],
                    [{5: np.zeros(1)}] * 2, np.random.default_rng(12))
    np.testing.assert_array_equal(bank.mu[5][0], [2.0, 0.0])

    # period aggregation indicator: zero submissions excluded
    agg2, counts = aggregate_submissions(
        [np.array([[0.0, 0.0]]), np.array([[4.0, 4.0]])])
    assert counts[0] == 1
    np.testing.assert_array_equal(agg2[0], [4.0, 4.0])

    # fedavg mean exact to 1e-15
    rng = np.random.default_rng(12)
    values = rng.normal(size=7)
    trained = [PromptParams.from_arrays(np.full((2, 1), v), np.full((2, 2), v),
                                        np.full((2, 2), v))
               for v in values]
    merged = fedavg_aggregate(trained)
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
            assert len(train_all) == dataset.train_y.size
            assert len(np.unique(train_all)) == dataset.train_y.size
            assert len(test_all) == dataset.test_y.size
            assert len(np.unique(test_all)) == dataset.test_y.size
    print("\nPASS criterion 12: momentum / warm-up / indicator / fedavg exact; "
          "100-seed partition disjointness and coverage hold")


def test_criterion_13_mixing_keeps_personalization(desk_runs):
    # personalization: on the participating clients, one global mixed
    # prompt set loses at most 3pp to per-client prompts (one of a
    # client's 8 test samples moves the mean of 11 clients by 1.1pp)
    diffs = {}
    for seed in SEEDS:
        mixed = final(desk_runs, "mixed", seed, heldout_fraction=0.1).mean_acc
        personal = final(desk_runs, "personalized", seed,
                         heldout_fraction=0.1).mean_acc
        diffs[seed] = (mixed - personal) * 100
        assert diffs[seed] >= -3.0, (
            f"seed {seed}: mixed {mixed:.3f} vs personalized {personal:.3f}")
    print(f"\nPASS criterion 13: mixing minus personalized on participating "
          f"clients {per_seed(diffs)}pp at seeds {SEEDS} (>= -3pp, margins "
          f"{per_seed({s: diffs[s] + 3.0 for s in SEEDS})}pp)")
