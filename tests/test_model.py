import hashlib

import numpy as np
import pytest

from fedprompt import tensor as te
from fedprompt.errors import ConfigError
from fedprompt.model import (
    _GELU_C,
    ModelConfig,
    PromptParams,
    _head,
    _transformer_layer,
    forward_with_prompts,
    gradient_check,
    init_backbone,
    patchify,
    predict,
    score_constants,
)
from fedprompt.prototypes import PrototypeBank, mix_prompt, soft_scores


SMALL = ModelConfig(dim=16, layers=4, heads=2, image_size=16, patch_size=8,
                    mix_layers=(2, 3))


def make_setup(seed=0, cfg=SMALL, classes=4, n_shared=1):
    rng = np.random.default_rng(seed)
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.init(seed, cfg.dim, classes, n_shared)
    bank = PrototypeBank(layers=cfg.mix_layers, num_classes=classes, dim=cfg.dim)
    for l in cfg.mix_layers:
        bank.mu[l] = rng.normal(size=(classes, cfg.dim))
    priors = rng.random(classes)
    priors /= priors.sum()
    image = rng.normal(size=(cfg.image_size, cfg.image_size))
    return backbone, prompts, bank, priors, image


class TestInitBackbone:
    def test_same_seed_bit_identical(self):
        a = init_backbone(7, SMALL)
        b = init_backbone(7, SMALL)
        assert a.checksum() == b.checksum()
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_frozen_weights_match_golden(self):
        # sha256 of the desk backbone at seed 0, in draw order: per block
        # query|key|value, out, up, down; then the patch and cls embeddings
        cfg = ModelConfig(dim=32, layers=8, heads=2, mix_layers=(5, 6, 7))
        backbone = init_backbone(0, cfg)
        d = cfg.dim
        digest = hashlib.sha256()
        for blk in backbone.blocks:
            for i in range(3):
                digest.update(blk.w_qkv.data[:, i * d:(i + 1) * d].tobytes())
            for w in (blk.w_out, blk.w_up, blk.w_down):
                digest.update(w.data.tobytes())
        digest.update(backbone.patch_embed.data.tobytes())
        digest.update(backbone.cls_embed.data.tobytes())
        assert digest.hexdigest() == (
            "53ff191ed8b1639186c01264897805835b90281858c93e39414c380e43b532e0")

    def test_different_seeds_differ(self):
        assert init_backbone(1, SMALL).checksum() != init_backbone(2, SMALL).checksum()

    def test_desk_scale_geometry_builds_and_runs(self):
        cfg = ModelConfig(dim=32, layers=8, heads=2)
        backbone, prompts, bank, priors, image = make_setup(3, cfg, classes=8)
        logits, trace = forward_with_prompts(image, prompts, backbone, cfg,
                                             bank=bank, priors=priors)
        assert logits.data.shape == (8, 1)
        assert len(trace.cls_inputs) == 8
        assert set(trace.scores) == {5, 6, 7}

    @pytest.mark.parametrize("field", ["dim", "layers", "heads", "image_size",
                                       "patch_size", "mlp_mult"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_size_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"model {field} must be >= 1"):
            ModelConfig(**{field: value, "mix_layers": ()})

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=30, heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(image_size=15, patch_size=8)
        with pytest.raises(ConfigError):
            ModelConfig(layers=4, mix_layers=(5,))


def reference_patchify(image, cfg):
    # one patch at a time, row-major
    p = cfg.patch_size
    n = cfg.image_size // p
    return np.stack([image[i * p:(i + 1) * p, j * p:(j + 1) * p].reshape(-1)
                     for i in range(n) for j in range(n)])


def _norm_rows(x, gain, bias):
    d = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / d
    centered = x - mean
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d
                        + te.LAYER_NORM_EPS)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def _norm_rows_backward(dy, xhat, inv, gain):
    d = xhat.shape[-1]
    gx = dy * gain
    return inv * (
        gx
        - gx.sum(axis=-1, keepdims=True) / d
        - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d)
    )


def _split_heads(m, heads):
    tokens, d = m.shape
    return m.reshape(tokens, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(m):
    heads, tokens, head_dim = m.shape
    return m.transpose(1, 0, 2).reshape(tokens, heads * head_dim)


def frozen_affine(blk):
    """`blk` as the full pre-LN block's weights: separate contiguous
    query, key and value matrices, unit layer-norm gains and zero biases,
    the values the frozen backbone always had."""
    d = blk.w_out.data.shape[0]
    hidden = blk.w_up.data.shape[1]
    qkv = blk.w_qkv.data
    return {
        "ln1_gain": np.ones(d), "ln1_bias": np.zeros(d),
        "w_query": qkv[:, :d].copy(), "b_query": np.zeros(d),
        "w_key": qkv[:, d:2 * d].copy(), "b_key": np.zeros(d),
        "w_value": qkv[:, 2 * d:].copy(), "b_value": np.zeros(d),
        "w_out": blk.w_out.data, "b_out": np.zeros(d),
        "ln2_gain": np.ones(d), "ln2_bias": np.zeros(d),
        "w_up": blk.w_up.data, "b_up": np.zeros(hidden),
        "w_down": blk.w_down.data, "b_down": np.zeros(d),
    }


def reference_layer(xv, dout, blk, heads):
    """The pre-LN block with its layer-norm affine maps, biases and three
    separate Q/K/V GEMMs; returns the output and the gradient into the
    token matrix for upstream `dout`."""
    w = frozen_affine(blk)
    inv_sqrt = 1.0 / np.sqrt(xv.shape[1] // heads)
    h1, xhat1, inv1 = _norm_rows(xv, w["ln1_gain"], w["ln1_bias"])
    q = _split_heads(h1 @ w["w_query"] + w["b_query"], heads)
    k = _split_heads(h1 @ w["w_key"] + w["b_key"], heads)
    v = _split_heads(h1 @ w["w_value"] + w["b_value"], heads)
    scores = q @ k.transpose(0, 2, 1) * inv_sqrt
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    x1 = xv + _merge_heads(attn @ v) @ w["w_out"] + w["b_out"]
    h2, xhat2, inv2 = _norm_rows(x1, w["ln2_gain"], w["ln2_bias"])
    u = h2 @ w["w_up"] + w["b_up"]
    t = np.tanh(_GELU_C * (u + 0.044715 * (u * u * u)))
    x2 = x1 + (0.5 * u * (1.0 + t)) @ w["w_down"] + w["b_down"]

    du = (dout @ w["w_down"].T) * (0.5 * (1.0 + t)
                                   + 0.5 * u * (1.0 - t**2)
                                   * _GELU_C * (1.0 + 3 * 0.044715 * u**2))
    dx1 = dout + _norm_rows_backward(du @ w["w_up"].T, xhat2, inv2,
                                     w["ln2_gain"])
    do_heads = _split_heads(dx1 @ w["w_out"].T, heads)
    dattn = do_heads @ v.transpose(0, 2, 1)
    dv = attn.transpose(0, 2, 1) @ do_heads
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores *= inv_sqrt
    dq = dscores @ k
    dk = dscores.transpose(0, 2, 1) @ q
    dh1 = (_merge_heads(dq) @ w["w_query"].T
           + _merge_heads(dk) @ w["w_key"].T
           + _merge_heads(dv) @ w["w_value"].T)
    return x2, dx1 + _norm_rows_backward(dh1, xhat1, inv1, w["ln1_gain"])


class TestFusedLayerReference:
    @pytest.mark.parametrize("tokens", [7, 8])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_separate_projections_bit_for_bit(self, tokens, heads):
        cfg = ModelConfig(dim=32, layers=2, heads=heads, mix_layers=())
        blk = init_backbone(21, cfg).blocks[1]
        rng = np.random.default_rng(tokens * 10 + heads)
        xv = rng.normal(size=(tokens, cfg.dim))
        dout = rng.normal(size=(tokens, cfg.dim))
        x = te.parameter(xv)
        with te.Tape() as tape:
            out = _transformer_layer(x, blk, heads)
        (backward,) = tape._ops
        out.grad[...] = dout
        backward()
        ref_out, ref_grad = reference_layer(xv, dout, blk, heads)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(x.grad, ref_grad)

    @pytest.mark.parametrize("image_size, patch_size", [(16, 8), (8, 4), (4, 2)])
    def test_patchify_matches_patch_loop(self, image_size, patch_size):
        cfg = ModelConfig(dim=16, layers=1, heads=2, image_size=image_size,
                          patch_size=patch_size, mix_layers=())
        image = np.random.default_rng(image_size).normal(
            size=(image_size, image_size))
        assert np.array_equal(patchify(image, cfg),
                              reference_patchify(image, cfg))


# The prompted forward as a chain of generic tape ops, as it was written
# before embedding, prompt mixing and head became fused primitives.  The
# fused forward must match it bit for bit.

def _ref_result(data, *parents):
    requires = te.active_tape() is not None and any(p.requires_grad for p in parents)
    return te.Tensor(data, requires_grad=requires)


def ref_matmul(a, b):
    out = _ref_result(a.data @ b.data, a, b)

    def backward():
        if a.requires_grad:
            a.grad += out.grad @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ out.grad

    te.record(out, backward)
    return out


def ref_transpose(a):
    out = _ref_result(a.data.T, a)

    def backward():
        if a.requires_grad:
            a.grad += out.grad.T

    te.record(out, backward)
    return out


def ref_slice_rows(a, start, stop):
    out = _ref_result(a.data[start:stop], a)

    def backward():
        if a.requires_grad:
            a.grad[start:stop] += out.grad

    te.record(out, backward)
    return out


def ref_concat_rows(parts):
    out = _ref_result(np.concatenate([p.data for p in parts], axis=0), *parts)

    def backward():
        lo = 0
        for part in parts:
            hi = lo + part.data.shape[0]
            if part.requires_grad:
                part.grad += out.grad[lo:hi]
            lo = hi

    te.record(out, backward)
    return out


def ref_layer_norm(x, gain, bias):
    # gain and bias are frozen arrays, so only x receives a gradient
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + te.LAYER_NORM_EPS)
    xhat = (x.data - mean) * inv
    out = _ref_result(xhat * gain + bias, x)

    def backward():
        gx = out.grad * gain
        x.grad += inv * (gx - gx.mean(axis=-1, keepdims=True)
                         - xhat * (gx * xhat).mean(axis=-1, keepdims=True))

    te.record(out, backward)
    return out


def ref_soft_scores_op(cls_col, prototypes, priors, tau, detach):
    cls_vec = cls_col.data.reshape(-1)
    active = priors > 0.0
    protos = prototypes[active]
    norms = np.sqrt(np.add.reduce(protos * protos, axis=1))
    cls_norm = np.sqrt(cls_vec @ cls_vec)
    nz = norms > 0.0
    sims = np.zeros(protos.shape[0])
    if cls_norm > 0.0 and nz.any():
        sims[nz] = (protos[nz] @ cls_vec) / (norms[nz] * cls_norm)
    logits = sims / tau + np.log(priors[active])
    e = np.exp(logits - logits.max())
    scores = np.zeros_like(priors)
    scores[active] = e / e.sum()
    requires = cls_col.requires_grad and not detach
    out = te.Tensor(scores.reshape(-1, 1), requires_grad=requires)
    if not requires:
        return out

    def backward():
        g = out.grad.reshape(-1)[active]
        s = scores[active]
        dlogit = s * (g - float(g @ s))
        grad_cls = np.zeros_like(cls_vec)
        if cls_norm > 0.0 and nz.any():
            sims_nz = (protos[nz] @ cls_vec) / (norms[nz] * cls_norm)
            coeff = dlogit[nz] / tau
            grad_cls += (coeff / norms[nz]) @ protos[nz] / cls_norm
            grad_cls -= float(coeff @ sims_nz) * cls_vec / cls_norm**2
        cls_col.grad += grad_cls.reshape(cls_col.data.shape)

    te.record(out, backward)
    return out


def reference_forward(image, prompts, backbone, cfg, bank, priors):
    trace = {"cls_inputs": [], "scores": {}}
    rows = [te.constant(backbone.cls_embed.data[None, :])]
    if prompts.shared.data.shape[1] > 0:
        rows.append(ref_transpose(prompts.shared))
    dim = cfg.dim
    tokens = patchify(image, cfg) @ backbone.patch_embed.data + np.zeros(dim)
    rows.append(te.constant(tokens))
    seq = ref_concat_rows(rows)
    mix_inserted = False
    for layer in range(1, cfg.layers + 1):
        trace["cls_inputs"].append(seq.data[0].copy())
        if layer in cfg.mix_layers and (not mix_inserted or cfg.refresh_mix):
            cls_col = ref_transpose(ref_slice_rows(seq, 0, 1))
            scores = ref_soft_scores_op(cls_col, bank.mu[layer], priors,
                                        cfg.tau, cfg.detach_scores)
            trace["scores"][layer] = scores.data.reshape(-1).copy()
            mixed = ref_transpose(ref_matmul(prompts.class_prompts, scores))
            head_row = ref_slice_rows(seq, 0, 1)
            rest = ref_slice_rows(seq, 2 if mix_inserted else 1, seq.data.shape[0])
            mix_inserted = True
            seq = ref_concat_rows([head_row, mixed, rest])
        seq = _transformer_layer(seq, backbone.blocks[layer - 1], cfg.heads)
    cls_row = ref_layer_norm(ref_slice_rows(seq, 0, 1), np.ones(dim),
                             np.zeros(dim))
    cls_final = ref_transpose(cls_row)
    logits = ref_matmul(prompts.head, cls_final)
    trace["final_cls"] = cls_final.data.reshape(-1).copy()
    trace["logits"] = logits.data.reshape(-1).copy()
    return logits, trace


def taped_run(forward, prompts, label):
    prompts.zero_grad()
    with te.Tape() as tape:
        logits, trace = forward(prompts)
        loss = te.cross_entropy(logits, label)
    tape.backward(loss)
    return trace, [block.grad.copy() for _, block in prompts.blocks()]


class TestFusedForwardReference:
    @pytest.mark.parametrize("mix_layers", [(1, 3), (2,), (3,), (1, 2, 3)])
    @pytest.mark.parametrize("n_shared", [0, 1, 2])
    @pytest.mark.parametrize("refresh", [True, False])
    @pytest.mark.parametrize("detach", [False, True])
    @pytest.mark.parametrize("zero_priors", [True, False])
    def test_matches_generic_op_forward_bit_for_bit(
            self, mix_layers, n_shared, refresh, detach, zero_priors):
        cfg = ModelConfig(dim=16, layers=3, heads=2, image_size=16, patch_size=8,
                          mix_layers=mix_layers, refresh_mix=refresh,
                          detach_scores=detach)
        seed = 100 * len(mix_layers) + 10 * n_shared + refresh
        backbone, prompts, bank, priors, image = make_setup(
            seed, cfg, classes=5, n_shared=n_shared)
        rng = np.random.default_rng(seed)
        prompts.head.data[...] = rng.normal(size=prompts.head.data.shape)
        if zero_priors:
            # two classes unseen by the client, one prototype never observed
            priors[[1, 3]] = 0.0
            priors /= priors.sum()
            for l in mix_layers:
                bank.mu[l][2] = 0.0
        label = int(rng.integers(5))
        consts = score_constants(cfg, bank, priors)

        trace, grads = taped_run(
            lambda p: forward_with_prompts(image, p, backbone, cfg, consts=consts),
            prompts, label)
        ref, ref_grads = taped_run(
            lambda p: reference_forward(image, p, backbone, cfg, bank, priors),
            prompts, label)
        untaped, _ = forward_with_prompts(image, prompts, backbone, cfg,
                                          bank=bank, priors=priors)

        assert np.array_equal(trace.logits, ref["logits"])
        assert np.array_equal(untaped.data.reshape(-1), ref["logits"])
        assert np.array_equal(trace.final_cls, ref["final_cls"])
        assert len(trace.cls_inputs) == len(ref["cls_inputs"]) == cfg.layers
        for got, want in zip(trace.cls_inputs, ref["cls_inputs"]):
            assert np.array_equal(got, want)
        assert trace.scores.keys() == ref["scores"].keys()
        for layer, want in ref["scores"].items():
            assert np.array_equal(trace.scores[layer], want)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)
        assert np.abs(grads[1]).max() > 0  # the class prompts do train


class TestPrimitiveGradients:
    def test_transformer_layer_vs_finite_differences(self):
        cfg = ModelConfig(dim=8, layers=1, heads=2, mix_layers=())
        blk = init_backbone(31, cfg).blocks[0]
        x = np.random.default_rng(31).normal(size=(5, cfg.dim))

        def loss(xt):
            return te.cross_entropy(_transformer_layer(xt, blk, cfg.heads), 3)

        x_param = te.parameter(x)
        with te.Tape() as tape:
            out = loss(x_param)
        tape.backward(out)
        oracle = te.finite_diff_grad(lambda v: float(loss(te.constant(v)).data), x)
        assert te.grad_rel_error(x_param.grad, oracle) < 1e-6

    def test_head_vs_finite_differences(self):
        rng = np.random.default_rng(32)
        seq, head = rng.normal(size=(5, 8)), rng.normal(size=(3, 8))

        def loss(s, h):
            logits, _ = _head(s, h)
            return te.cross_entropy(logits, 1)

        params = [te.parameter(seq), te.parameter(head)]
        with te.Tape() as tape:
            out = loss(*params)
        tape.backward(out)
        oracles = [
            te.finite_diff_grad(
                lambda v: float(loss(te.constant(v), te.constant(head)).data), seq),
            te.finite_diff_grad(
                lambda v: float(loss(te.constant(seq), te.constant(v)).data), head),
        ]
        for param, oracle in zip(params, oracles):
            assert te.grad_rel_error(param.grad, oracle) < 1e-6


class TestPatchify:
    def test_row_major_patches(self):
        cfg = ModelConfig(dim=16, layers=1, heads=2, image_size=4, patch_size=2,
                          mix_layers=())
        image = np.arange(16.0).reshape(4, 4)
        patches = patchify(image, cfg)
        np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches[3], [10, 11, 14, 15])

    def test_shape_check(self):
        with pytest.raises(ConfigError):
            patchify(np.zeros((8, 8)), SMALL)


class TestForward:
    def test_plain_prompted_forward_without_mixing(self):
        cfg = SMALL.without_mixing()
        backbone, prompts, _, _, image = make_setup(4)
        logits, trace = forward_with_prompts(image, prompts, backbone, cfg)
        assert logits.data.shape == (4, 1)
        assert trace.scores == {}
        # token count: cls + shared + 4 patches
        assert len(trace.cls_inputs) == cfg.layers

    def test_one_hot_prior_inserts_exact_class_column(self):
        backbone, prompts, bank, _, image = make_setup(5)
        priors = np.array([0.0, 0.0, 1.0, 0.0])
        _, trace = forward_with_prompts(image, prompts, backbone, SMALL,
                                        bank=bank, priors=priors)
        for layer, s in trace.scores.items():
            np.testing.assert_array_equal(s, priors)
            np.testing.assert_array_equal(
                mix_prompt(prompts.class_prompts.data, s),
                prompts.class_prompts.data[:, 2],
            )

    def test_missing_prototype_layer_raises(self):
        backbone, prompts, bank, priors, image = make_setup(6)
        del bank.mu[3]
        with pytest.raises(ConfigError):
            forward_with_prompts(image, prompts, backbone, SMALL,
                                 bank=bank, priors=priors)

    def test_mixing_requires_bank_and_priors(self):
        backbone, prompts, bank, priors, image = make_setup(7)
        with pytest.raises(ConfigError):
            forward_with_prompts(image, prompts, backbone, SMALL, bank=None,
                                 priors=priors)
        with pytest.raises(ConfigError):
            forward_with_prompts(image, prompts, backbone, SMALL, bank=bank,
                                 priors=None)

    def test_forward_deterministic(self):
        backbone, prompts, bank, priors, image = make_setup(8)
        a, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                    bank=bank, priors=priors)
        b, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                    bank=bank, priors=priors)
        np.testing.assert_array_equal(a.data, b.data)

    def test_scores_match_pure_function_on_traced_cls(self):
        backbone, prompts, bank, priors, image = make_setup(9)
        _, trace = forward_with_prompts(image, prompts, backbone, SMALL,
                                        bank=bank, priors=priors)
        first = SMALL.mix_layers[0]
        expected = soft_scores(trace.cls_input(first), bank.mu[first],
                               priors, SMALL.tau)
        np.testing.assert_allclose(trace.scores[first], expected, atol=1e-15)

    def test_refresh_vs_propagate_differ_after_first_mix_layer(self):
        backbone, prompts, bank, priors, image = make_setup(10)
        from dataclasses import replace
        prop_cfg = replace(SMALL, refresh_mix=False)
        _, t_refresh = forward_with_prompts(image, prompts, backbone, SMALL,
                                            bank=bank, priors=priors)
        _, t_prop = forward_with_prompts(image, prompts, backbone, prop_cfg,
                                         bank=bank, priors=priors)
        assert set(t_refresh.scores) == {2, 3}
        assert set(t_prop.scores) == {2}
        np.testing.assert_array_equal(t_refresh.scores[2], t_prop.scores[2])

    def test_backbone_unchanged_by_forward_backward(self):
        backbone, prompts, bank, priors, image = make_setup(11)
        before = backbone.checksum()
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                             bank=bank, priors=priors)
            loss = te.cross_entropy(logits, 1)
        tape.backward(loss)
        assert backbone.checksum() == before
        for arr in backbone.arrays():
            assert np.isfinite(arr).all()

    def test_prompt_free_baseline_depends_only_on_input(self):
        cfg = SMALL.without_mixing()
        backbone = init_backbone(12, cfg)
        head = np.random.default_rng(12).normal(size=(4, cfg.dim))
        a = PromptParams.from_arrays(np.zeros((cfg.dim, 0)),
                                     np.zeros((cfg.dim, 4)), head)
        b = PromptParams.from_arrays(np.zeros((cfg.dim, 0)),
                                     np.ones((cfg.dim, 4)) * 9.0, head)
        image = np.random.default_rng(13).normal(size=(16, 16))
        la, _ = forward_with_prompts(image, a, backbone, cfg)
        lb, _ = forward_with_prompts(image, b, backbone, cfg)
        np.testing.assert_array_equal(la.data, lb.data)


class TestGradients:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradcheck_small_model(self, heads):
        report = gradient_check(seed=0, heads=heads)
        assert report["max"] < 1e-4
        assert set(report) == {"shared", "class", "head", "max"}

    def test_detach_changes_shared_gradient_not_logits(self):
        from dataclasses import replace
        backbone, prompts, bank, priors, image = make_setup(14)
        # a zero head would block all upstream gradient flow
        prompts.head.data[...] = np.random.default_rng(14).normal(
            size=prompts.head.data.shape)
        detached_cfg = replace(SMALL, detach_scores=True)
        grads = {}
        for key, cfg in (("flow", SMALL), ("detach", detached_cfg)):
            prompts.zero_grad()
            with te.Tape() as tape:
                logits, _ = forward_with_prompts(image, prompts, backbone, cfg,
                                                 bank=bank, priors=priors)
                loss = te.cross_entropy(logits, 0)
            tape.backward(loss)
            grads[key] = (logits.data.copy(), prompts.shared.grad.copy())
        np.testing.assert_array_equal(grads["flow"][0], grads["detach"][0])
        assert np.abs(grads["flow"][1] - grads["detach"][1]).max() > 0

    def test_frozen_backbone_receives_no_gradients(self):
        backbone, prompts, bank, priors, image = make_setup(15)
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                             bank=bank, priors=priors)
            loss = te.cross_entropy(logits, 2)
        tape.backward(loss)
        for blk in backbone.blocks:
            assert blk.w_qkv.grad is None
        assert backbone.patch_embed.grad is None

    def test_autodiff_matches_fd_on_two_layer_model(self):
        report = gradient_check(seed=3, dim=8, layers=2, classes=3, heads=2,
                                mix_layers=(2,))
        assert report["max"] < 1e-4


class TestPredict:
    def test_basic(self):
        assert predict(np.array([0.1, 0.9])) == 1

    def test_tie_breaks_low(self):
        assert predict(np.array([0.5, 0.5])) == 0

    def test_matches_scan(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            v = rng.normal(size=9)
            best, arg = -np.inf, -1
            for i, x in enumerate(v):
                if x > best:
                    best, arg = x, i
            assert predict(v) == arg
