import math

import numpy as np
import pytest

from fedprompt import tensor as te


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


def first_col(t):
    """Column 0 of a rank-2 tensor as a (rows, 1) tensor."""
    return te.transpose(te.slice_rows(te.transpose(t), 0, 1))


def assert_grads_match(build_loss, arrays, tol=1e-6):
    auto, _ = autodiff_grads(build_loss, arrays)
    oracle = fd_grads(build_loss, arrays)
    for a, o in zip(auto, oracle):
        assert te.grad_rel_error(a, o) < tol


class TestMatmul:
    def test_scalar_product(self):
        out = te.matmul(te.constant([[2.0]]), te.constant([[3.0]]))
        assert out.data == pytest.approx(6.0)

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 3))
        out = te.matmul(te.constant(np.eye(3)), te.constant(x))
        np.testing.assert_array_equal(out.data, np.eye(3) @ x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            te.matmul(te.constant(np.ones((2, 3))), te.constant(np.ones((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))  # fixed weights make the loss scalar

        def loss(at, bt):
            prod = te.matmul(at, bt)
            return te.cross_entropy(
                te.matmul(te.constant(w.T), first_col(prod)), 0
            )

        assert_grads_match(loss, [a, b])


class TestLayerNorm:
    def test_constant_token_zeroed_by_eps(self):
        gain = te.constant(np.ones(4))
        bias = te.constant(np.zeros(4))
        out = te.layer_norm(te.constant(np.full((1, 4), 7.0)), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_token(self):
        gain = te.constant(np.ones(2))
        bias = te.constant(np.zeros(2))
        out = te.layer_norm(te.constant([[1.0, -1.0]]), gain, bias)
        # variance 1 plus eps in the denominator
        expected = 1.0 / math.sqrt(1.0 + te.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, [[expected, -expected]], rtol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6))
        g = rng.normal(size=6)
        b = rng.normal(size=6)
        w = rng.normal(size=(4, 3))

        def loss(xt, gt, bt):
            y = te.layer_norm(xt, gt, bt)
            v = te.matmul(te.constant(w), first_col(y))
            return te.cross_entropy(v, 2)

        assert_grads_match(loss, [x, g, b], tol=1e-5)


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
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(1, 3))
        w = rng.normal(size=(4, 3))

        def loss(at, bt):
            seq = te.concat_rows([at, bt])
            mid = te.slice_rows(seq, 1, 3)
            top = te.transpose(te.slice_rows(mid, 0, 1))
            return te.cross_entropy(te.matmul(te.constant(w), top), 1)

        assert_grads_match(loss, [a, b])

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
            loss = te.cross_entropy(te.transpose(p), 0)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_frozen_leaf_keeps_no_grad(self):
        frozen = te.constant(np.ones((2, 2)))
        live = te.parameter(np.ones((2, 2)))
        with te.Tape() as tape:
            out = te.matmul(frozen, live)
            loss = te.cross_entropy(first_col(out), 0)
        tape.backward(loss)
        assert frozen.grad is None
        assert np.abs(live.grad).sum() > 0

    def test_grad_accumulates_across_tapes(self):
        p = te.parameter(np.array([[1.0]]))
        for _ in range(2):
            with te.Tape() as tape:
                loss = te.cross_entropy(te.concat_rows([p, te.constant([[0.0]])]), 1)
            tape.backward(loss)
        single = te.parameter(np.array([[1.0]]))
        with te.Tape() as tape:
            loss = te.cross_entropy(te.concat_rows([single, te.constant([[0.0]])]), 1)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * single.grad)

    def test_no_tape_means_no_recording(self):
        p = te.parameter(np.ones((1, 2)))
        out = te.layer_norm(p, te.parameter(np.ones(2)), te.parameter(np.zeros(2)))
        assert np.isfinite(out.data).all()
        assert not out.requires_grad and out.grad is None
        assert p.grad is not None and np.all(p.grad == 0)

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            te.Tensor(np.zeros((2, 2, 2, 2)))

    def test_backward_requires_scalar(self):
        p = te.parameter(np.ones((2, 2)))
        with te.Tape() as tape:
            out = te.transpose(p)
        with pytest.raises(ValueError):
            tape.backward(out)


def test_hundred_seed_gradient_sweep():
    """Every differentiable op against finite differences, 100 seeds."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 4))
        gain = rng.normal(size=4)
        bias = rng.normal(size=4)
        extra = rng.normal(size=(1, 4))
        label = int(rng.integers(4))

        def loss(xt, wt, gt, bt, et):
            y = te.layer_norm(xt, gt, bt)
            y = te.concat_rows([te.matmul(y, wt), et])
            y = te.matmul(te.transpose(wt), te.transpose(y))
            y = te.layer_norm(y, gt, bt)
            picked = te.transpose(te.slice_rows(y, label, label + 1))
            return te.cross_entropy(picked, label)

        arrays = [x, w, gain, bias, extra]
        auto, _ = autodiff_grads(loss, arrays)
        oracle = fd_grads(loss, arrays, h=1e-5)
        for a, o in zip(auto, oracle):
            worst = max(worst, te.grad_rel_error(a, o))
    assert worst < 1e-4, worst


def test_random_ops_stay_finite():
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = rng.normal(scale=3.0, size=(4, 8))
        w = rng.normal(scale=30.0, size=(8, 8))
        g = rng.normal(size=8)
        b = rng.normal(size=8)
        with te.Tape() as tape:
            xt = te.parameter(x)
            y = te.layer_norm(xt, te.constant(g), te.constant(b))
            y = te.matmul(y, te.constant(w))
            y = te.concat_rows([te.slice_rows(y, 1, 4), te.slice_rows(y, 0, 1)])
            loss = te.cross_entropy(te.transpose(te.slice_rows(y, 0, 1)), 0)
        tape.backward(loss)
        assert np.isfinite(loss.data).all()
        assert np.isfinite(xt.grad).all()
