import math

import numpy as np
import pytest

from fedprompt import tensor as te
from fedprompt.model import (
    ModelConfig,
    PromptParams,
    _embed,
    _head,
    _mix,
    forward_with_prompts,
    init_backbone,
    score_constants,
)
from fedprompt.prototypes import PrototypeBank, ScoreConstants


def taped_grads(build_loss, arrays):
    """Gradients of `build_loss(*blocks)` into trainable blocks holding
    `arrays`, after one taped forward and backward."""
    blocks = [te.Tensor(a) for a in arrays]
    with te.Tape() as tape:
        build_loss(*blocks)
    tape.backward()
    return [b.grad for b in blocks]


def fd_grads(build_loss, arrays, h=1e-5):
    grads = []
    for i in range(len(arrays)):
        def f(x, i=i):
            blocks = [te.Tensor(a) for a in arrays]
            blocks[i] = te.Tensor(x)
            return build_loss(*blocks)

        grads.append(te.finite_diff_grad(f, arrays[i], h=h))
    return grads


def flat_cross_entropy(x, label):
    """Cross entropy over every entry of the matrix `x`."""
    tape = te.active_tape()
    if tape is not None:
        tape.record(lambda g: g.reshape(x.shape))
    return te.cross_entropy(x.reshape(-1), label)


def assert_grads_match(build_loss, arrays, tol=1e-6):
    auto = taped_grads(build_loss, arrays)
    oracle = fd_grads(build_loss, arrays)
    for a, o in zip(auto, oracle):
        assert te.grad_rel_error(a, o) < tol


class TestLayerNorm:
    def test_constant_token_zeroed_by_eps(self):
        out, _ = te.norm_rows(np.full((1, 4), 7.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_two_point_token(self):
        out, _ = te.norm_rows(np.array([[1.0, -1.0]]))
        # variance 1 plus eps in the denominator
        expected = 1.0 / math.sqrt(1.0 + te.LAYER_NORM_EPS)
        np.testing.assert_allclose(out, [[expected, -expected]], rtol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6))
        g = rng.normal(size=6)
        b = rng.normal(size=6)

        def loss(v):
            # a frozen affine map around the normalization
            return flat_cross_entropy(te.norm_rows(v)[0] * g + b, 2)

        with te.Tape() as tape:
            loss(x)
        dy = tape.backward()
        auto = te.norm_rows_backward(dy * g, *te.norm_rows(x))
        assert te.grad_rel_error(auto, te.finite_diff_grad(loss, x)) < 1e-5


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert te.cross_entropy(np.zeros(4), 1) == pytest.approx(math.log(4.0))

    def test_confident_correct(self):
        loss = te.cross_entropy(np.array([100.0, 0.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            te.cross_entropy(np.array([0.0, 1.0]), 2)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=7)
        label = 3
        with te.Tape() as tape:
            te.cross_entropy(logits, label)
        auto = tape.backward()
        e = np.exp(logits - logits.max())
        analytic = e / e.sum()
        analytic[label] -= 1.0
        np.testing.assert_allclose(auto, analytic, atol=1e-12)
        oracle = te.finite_diff_grad(lambda x: te.cross_entropy(x, label), logits)
        assert te.grad_rel_error(auto, oracle) < 1e-6


class TestStructuralOps:
    def test_embed_and_mix_gradients(self):
        # the primitives that assemble the token matrix: the embedding
        # concatenates [cls, shared, patches], a mix inserts the mixed
        # prompt after the cls row and a second one replaces it, each
        # with scores computed from the cls row
        cfg = ModelConfig(dim=4, layers=1, heads=2, image_size=4, patch_size=2,
                          mix_layers=(1,))
        backbone = init_backbone(7, cfg)
        rng = np.random.default_rng(7)
        image = rng.normal(size=(4, 4))
        shared = rng.normal(size=(4, 2))
        class_prompts = rng.normal(size=(4, 3))
        consts = [ScoreConstants(rng.normal(size=(3, 4)), priors, 0.5, 4)
                  for priors in ([0.2, 0.3, 0.5], [0.6, 0.0, 0.4])]

        def loss(st, pt):
            tape = te.active_tape()
            seq = _embed(image, st, backbone, cfg, tape)
            seq = _mix(seq, pt, consts[0], False, False, tape)
            seq = _mix(seq, pt, consts[1], True, False, tape)
            return flat_cross_entropy(seq, 5)

        assert_grads_match(loss, [shared, class_prompts])


class TestFiniteDiffOracle:
    def test_quadratic(self):
        grad = te.finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-4)
        assert grad[0] == pytest.approx(6.0, rel=1e-6)

    def test_linear_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3))
        grad = te.finite_diff_grad(lambda a: float(a.sum()), x)
        np.testing.assert_allclose(grad, np.ones_like(x), atol=1e-9)

    def test_nonfinite_raises(self):
        with pytest.raises(ArithmeticError):
            te.finite_diff_grad(lambda x: float("nan"), np.array([1.0]))


class TestTapeContract:
    def test_tape_single_use(self):
        with te.Tape() as tape:
            te.cross_entropy(np.array([1.0, 0.0]), 0)
        tape.backward()
        with pytest.raises(RuntimeError):
            tape.backward()

    def test_map_returns_input_gradient(self):
        # the map of a primitive returns the gradient of its plain-array
        # input and adds only into the trainable block it read
        seq = np.ones((3, 2))
        live = te.Tensor(np.ones((2, 2)))
        consts = ScoreConstants(np.eye(2), [0.25, 0.75], 0.5, 2)
        with te.Tape() as tape:
            out = _mix(seq, live, consts, False, False, tape)
            flat_cross_entropy(out, 2)
        dseq = tape.backward()
        assert dseq.shape == seq.shape
        assert np.abs(live.grad).sum() > 0

    def test_grad_accumulates_across_tapes(self):
        seq = np.array([[1.0, 0.0, 2.0], [3.0, 1.0, 0.0]])

        def head_grad(head, passes):
            for _ in range(passes):
                with te.Tape() as tape:
                    te.cross_entropy(_head(seq, head, tape), 1)
                tape.backward()
            return head.grad

        start = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.0]])
        np.testing.assert_allclose(head_grad(te.Tensor(start.copy()), 2),
                                   2.0 * head_grad(te.Tensor(start.copy()), 1))

    def test_no_tape_means_no_recording(self):
        cfg = ModelConfig(dim=2, layers=1, heads=1, image_size=2, patch_size=1,
                          mix_layers=())
        p = te.Tensor(np.ones((2, 1)))
        out = _embed(np.ones((2, 2)), p, init_backbone(0, cfg), cfg)
        assert type(out) is np.ndarray and np.isfinite(out).all()
        assert np.all(p.grad == 0)


class TestRecordedMaps:
    """Under a tape the loss and every primitive that reads a trainable
    block record a map; a transformer block records one only once a
    trainable block feeds the token matrix.  That pruning shows only in
    time, so count the maps."""

    @pytest.mark.parametrize("taped, mix_layers, n_shared, maps", [
        # no tape: nothing is recorded
        (False, (2,), 1, 0),
        # embedding, mix, blocks 1-3, head, loss
        (True, (2,), 1, 1 + 1 + 3 + 1 + 1),
        # no shared prompts: mix, blocks 2-3, head, loss
        (True, (2,), 0, 1 + 2 + 1 + 1),
        # neither shared prompts nor mixing: head, loss
        (True, (), 0, 1 + 1),
    ])
    def test_map_count(self, taped, mix_layers, n_shared, maps):
        cfg = ModelConfig(dim=4, layers=3, heads=2, image_size=4, patch_size=2,
                          mix_layers=mix_layers)
        prompts = PromptParams.init(0, cfg.dim, 3, n_shared)
        bank = PrototypeBank(layers=mix_layers, num_classes=3, dim=cfg.dim)
        for l in mix_layers:
            bank.mu[l] = np.random.default_rng(l).normal(size=(3, cfg.dim))
        consts = score_constants(cfg, bank, np.full(3, 1 / 3))
        tape = te.Tape()

        def loss():
            logits, _ = forward_with_prompts(np.ones((4, 4)), prompts,
                                             init_backbone(0, cfg), cfg, consts)
            te.cross_entropy(logits, 0)

        if taped:
            with tape:
                loss()
        else:
            loss()
        assert len(tape._ops) == maps


def sweep_setup(seed, scale=1.0):
    """A small prompted model whose primitives and options vary with the
    seed: 0-2 shared prompts, mixing at one or both layers, refresh on or
    off, zero priors and a zero prototype."""
    rng = np.random.default_rng(seed)
    mix_layers = ((1,), (2,), (1, 2))[seed % 3]
    cfg = ModelConfig(dim=4, layers=2, heads=2, image_size=4, patch_size=2,
                      mix_layers=mix_layers, tau=0.5,
                      refresh_mix=bool(seed % 2))
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.from_arrays(
        rng.normal(scale=scale, size=(4, seed % 3)),
        rng.normal(scale=scale, size=(4, 3)),
        rng.normal(scale=scale, size=(3, 4)))
    bank = PrototypeBank(layers=mix_layers, num_classes=3, dim=4)
    for l in mix_layers:
        bank.mu[l] = rng.normal(size=(3, 4))
        bank.mu[l][seed % 3] = 0.0
    priors = rng.random(3)
    priors[(seed + 1) % 3] = 0.0
    priors /= priors.sum()
    image = rng.normal(scale=scale, size=(4, 4))
    label = int(rng.integers(3))
    return cfg, backbone, prompts, score_constants(cfg, bank, priors), image, label


def test_hundred_seed_gradient_sweep():
    """Every differentiable primitive against finite differences, chained
    into the prompted forward, 100 seeds."""
    worst = 0.0
    for seed in range(100):
        cfg, backbone, prompts, consts, image, label = sweep_setup(seed)

        def loss(shared, class_prompts, head):
            params = PromptParams(shared, class_prompts, head)
            logits, _ = forward_with_prompts(image, params, backbone, cfg,
                                             consts=consts)
            return te.cross_entropy(logits, label)

        arrays = [block.data for _, block in prompts.blocks()]
        auto = taped_grads(loss, arrays)
        oracle = fd_grads(loss, arrays, h=1e-5)
        for a, o in zip(auto, oracle):
            if a.size:
                worst = max(worst, te.grad_rel_error(a, o))
    assert worst < 1e-4, worst


def test_random_ops_stay_finite():
    for seed in range(25):
        cfg, backbone, prompts, consts, image, label = sweep_setup(seed, 30.0)
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, cfg,
                                             consts=consts)
            loss = te.cross_entropy(logits, label)
        tape.backward()
        assert math.isfinite(loss)
        for _, block in prompts.blocks():
            assert np.isfinite(block.grad).all()
