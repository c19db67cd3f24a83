import math

import numpy as np
import pytest

from fedprompt import tensor as te
from fedprompt.model import (
    ModelConfig,
    PromptParams,
    _cls_column,
    _embed,
    _insert_mixed,
    forward_with_prompts,
    init_backbone,
    score_constants,
)
from fedprompt.prototypes import PrototypeBank


def autodiff_grads(build_loss, arrays):
    """Run one taped forward/backward; return grads per input array."""
    params = [te.parameter(a) for a in arrays]
    with te.Tape() as tape:
        loss = build_loss(*params)
    tape.backward(loss)
    return [p.grad.copy() for p in params], float(loss.data)


def fd_grads(build_loss, arrays, h=1e-5):
    grads = []
    for i in range(len(arrays)):
        def f(x, i=i):
            probe = [te.constant(a) for a in arrays]
            probe[i] = te.constant(x)
            return float(build_loss(*probe).data)

        grads.append(te.finite_diff_grad(f, arrays[i], h=h))
    return grads


def assert_grads_match(build_loss, arrays, tol=1e-6):
    auto, _ = autodiff_grads(build_loss, arrays)
    oracle = fd_grads(build_loss, arrays)
    for a, o in zip(auto, oracle):
        assert te.grad_rel_error(a, o) < tol


def layer_norm_op(x, gain, bias):
    """`norm_rows` as a tape op, with a frozen affine map around it."""
    xhat, inv = te.norm_rows(x.data)
    out = te.Tensor(xhat * gain + bias,
                    requires_grad=te.active_tape() is not None
                    and x.requires_grad)

    def backward():
        x.grad += te.norm_rows_backward(out.grad * gain, xhat, inv)

    te.record(out, backward)
    return out


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

        def loss(xt):
            return te.cross_entropy(layer_norm_op(xt, g, b), 2)

        assert_grads_match(loss, [x], tol=1e-5)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = te.cross_entropy(te.constant(np.zeros(4)), 1)
        assert float(loss.data) == pytest.approx(math.log(4.0))

    def test_confident_correct(self):
        loss = te.cross_entropy(te.constant([100.0, 0.0, 0.0]), 0)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            te.cross_entropy(te.constant([0.0, 1.0]), 2)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=7)
        label = 3
        (auto,), _ = autodiff_grads(lambda t: te.cross_entropy(t, label), [logits])
        e = np.exp(logits - logits.max())
        analytic = e / e.sum()
        analytic[label] -= 1.0
        np.testing.assert_allclose(auto, analytic, atol=1e-12)
        oracle = fd_grads(lambda t: te.cross_entropy(t, label), [logits])[0]
        assert te.grad_rel_error(auto, oracle) < 1e-6


class TestStructuralOps:
    def test_concat_slice_roundtrip_gradients(self):
        # the primitives that assemble and reslice the token matrix: the
        # embedding concatenates [cls, shared, patches], the cls column
        # slices row 0 out, and the insertion splices the mixed token in
        cfg = ModelConfig(dim=4, layers=1, heads=2, image_size=4, patch_size=2,
                          mix_layers=(1,))
        backbone = init_backbone(7, cfg)
        rng = np.random.default_rng(7)
        image = rng.normal(size=(4, 4))
        shared = rng.normal(size=(4, 2))
        class_prompts = rng.normal(size=(4, 3))
        scores = rng.normal(size=(3, 1))
        w = te.constant(rng.normal(size=(4, 4)))

        def loss(st, pt, sc):
            seq = _embed(image, st, backbone, cfg)
            seq = _insert_mixed(seq, pt, sc, replace=False)
            # the cls column stands in for the scores of a 4-prompt mix
            seq = _insert_mixed(seq, w, _cls_column(seq), replace=True)
            return te.cross_entropy(seq, 5)

        assert_grads_match(loss, [shared, class_prompts, scores])


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
        p = te.parameter(np.array([[1.0, 0.0]]))
        with te.Tape() as tape:
            loss = te.cross_entropy(p, 0)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_frozen_leaf_keeps_no_grad(self):
        frozen = te.constant(np.ones((3, 2)))
        live = te.parameter(np.ones((2, 2)))
        scores = te.constant(np.array([[0.25], [0.75]]))
        with te.Tape() as tape:
            out = _insert_mixed(frozen, live, scores, replace=False)
            loss = te.cross_entropy(out, 2)
        tape.backward(loss)
        assert frozen.grad is None
        assert np.abs(live.grad).sum() > 0

    def test_grad_accumulates_across_tapes(self):
        p = te.parameter(np.array([[1.0, 0.0]]))
        for _ in range(2):
            with te.Tape() as tape:
                loss = te.cross_entropy(_cls_column(p), 1)
            tape.backward(loss)
        single = te.parameter(np.array([[1.0, 0.0]]))
        with te.Tape() as tape:
            loss = te.cross_entropy(_cls_column(single), 1)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * single.grad)

    def test_no_tape_means_no_recording(self):
        cfg = ModelConfig(dim=2, layers=1, heads=1, image_size=2, patch_size=1,
                          mix_layers=())
        p = te.parameter(np.ones((2, 1)))
        out = _embed(np.ones((2, 2)), p, init_backbone(0, cfg), cfg)
        assert np.isfinite(out.data).all()
        assert not out.requires_grad and out.grad is None
        assert p.grad is not None and np.all(p.grad == 0)

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            te.Tensor(np.zeros((2, 2, 2, 2)))

    def test_backward_requires_scalar(self):
        p = te.parameter(np.ones((2, 2)))
        with te.Tape() as tape:
            out = _cls_column(p)
        with pytest.raises(ValueError):
            tape.backward(out)


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
        auto, _ = autodiff_grads(loss, arrays)
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
        tape.backward(loss)
        assert np.isfinite(loss.data).all()
        for _, block in prompts.blocks():
            assert np.isfinite(block.grad).all()
