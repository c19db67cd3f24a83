import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from backbone_digest import backbone_arrays, backbone_checksum
from fedprompt import model
from fedprompt import tensor as te
from fedprompt.cli import main
from fedprompt.data import SyntheticSpec, generate_synthetic, partition_pathological
from fedprompt.errors import ConfigError
from fedprompt.model import (
    _GELU_C,
    ModelConfig,
    PromptParams,
    _head,
    _transformer_layer,
    forward_shard,
    forward_with_prompts,
    gradient_check,
    init_backbone,
    patchify,
    score_constants,
)
from fedprompt.prototypes import PrototypeBank, mix_prompt, soft_scores


ROOT = Path(__file__).resolve().parents[1]
SMALL = ModelConfig(dim=16, layers=4, heads=2, patch_size=8,
                    mix_layers=(2, 3))


def make_setup(seed=0, cfg=SMALL, classes=4, n_shared=1, image_size=16):
    rng = np.random.default_rng(seed)
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.init(seed, cfg.dim, classes, n_shared)
    bank = PrototypeBank(layers=cfg.mix_layers, num_classes=classes, dim=cfg.dim)
    for l in cfg.mix_layers:
        bank.mu[l] = rng.normal(size=(classes, cfg.dim))
    priors = rng.random(classes)
    priors /= priors.sum()
    image = rng.normal(size=(image_size, image_size))
    return backbone, prompts, bank, priors, image


def forward_recording_scores(monkeypatch, image, prompts, backbone, cfg,
                             consts):
    """`forward_with_prompts`, plus layer -> the score vector the forward
    mixed its prompt with at that layer."""
    layer_of = {id(c): l for l, c in consts.items()}
    scores = {}
    op = model.soft_scores_op

    def recording(cls_vec, layer_consts, grad=False):
        out, scores_map = op(cls_vec, layer_consts, grad)
        scores[layer_of[id(layer_consts)]] = out.copy()
        return out, scores_map

    monkeypatch.setattr(model, "soft_scores_op", recording)
    logits, cls = forward_with_prompts(image, prompts, backbone, cfg, consts)
    return logits, cls, scores


class TestInitBackbone:
    def test_same_seed_bit_identical(self):
        a = init_backbone(7, SMALL)
        b = init_backbone(7, SMALL)
        assert backbone_checksum(a) == backbone_checksum(b)
        for x, y in zip(backbone_arrays(a), backbone_arrays(b)):
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
                digest.update(blk.w_qkv[:, i * d:(i + 1) * d].tobytes())
            for w in (blk.w_out, blk.w_up, blk.w_down):
                digest.update(w.tobytes())
        digest.update(backbone.patch_embed.tobytes())
        digest.update(backbone.cls_embed.tobytes())
        assert digest.hexdigest() == (
            "53ff191ed8b1639186c01264897805835b90281858c93e39414c380e43b532e0")

    def test_different_seeds_differ(self):
        assert (backbone_checksum(init_backbone(1, SMALL))
                != backbone_checksum(init_backbone(2, SMALL)))

    def test_desk_scale_geometry_builds_and_runs(self, monkeypatch):
        cfg = ModelConfig(dim=32, layers=8, heads=2)
        backbone, prompts, bank, priors, image = make_setup(3, cfg, classes=8)
        logits, cls, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone, cfg,
            score_constants(cfg, bank, priors))
        assert logits.shape == (8,)
        assert cls.shape == (8, 32)
        assert set(scores) == {5, 6, 7}

    @pytest.mark.parametrize("field", ["dim", "layers", "heads", "patch_size"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_size_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"model {field} must be >= 1"):
            ModelConfig(**{field: value, "mix_layers": ()})

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=30, heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(layers=4, mix_layers=(5,))
        with pytest.raises(ConfigError, match="must not repeat a layer"):
            ModelConfig(layers=8, mix_layers=(5, 5))


def reference_patchify(image, cfg):
    # one patch at a time, row-major
    p = cfg.patch_size
    n = len(image) // p
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
    d = blk.w_out.shape[0]
    hidden = blk.w_up.shape[1]
    qkv = blk.w_qkv
    return {
        "ln1_gain": np.ones(d), "ln1_bias": np.zeros(d),
        "w_query": qkv[:, :d].copy(), "b_query": np.zeros(d),
        "w_key": qkv[:, d:2 * d].copy(), "b_key": np.zeros(d),
        "w_value": qkv[:, 2 * d:].copy(), "b_value": np.zeros(d),
        "w_out": blk.w_out, "b_out": np.zeros(d),
        "ln2_gain": np.ones(d), "ln2_bias": np.zeros(d),
        "w_up": blk.w_up, "b_up": np.zeros(hidden),
        "w_down": blk.w_down, "b_down": np.zeros(d),
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


def run_other_layer(tokens, heads, seed):
    """An untaped and a taped call, with its backward, of a block with
    another token count and head count: they leave that shape's workspace
    holding its values."""
    cfg = ModelConfig(dim=32, layers=1, heads=heads, mix_layers=())
    blk = init_backbone(seed, cfg).blocks[0]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(tokens, cfg.dim))
    _transformer_layer(x, blk, heads)
    with te.Tape() as tape:
        _transformer_layer(x, blk, heads, tape)
    tape._ops[0](rng.normal(size=x.shape))


class TestFusedLayerReference:
    @pytest.mark.parametrize("tokens", [1, 7, 8])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_separate_projections_bit_for_bit(self, tokens, heads):
        cfg = ModelConfig(dim=32, layers=2, heads=heads, mix_layers=())
        blk = init_backbone(21, cfg).blocks[1]
        rng = np.random.default_rng(tokens * 10 + heads)
        xv = rng.normal(size=(tokens, cfg.dim))
        dout = rng.normal(size=(tokens, cfg.dim))
        ref_out, ref_grad = reference_layer(xv, dout, blk, heads)
        # each call follows calls of another shape, so a pooled buffer
        # read before this call wrote it would show
        other_heads = 4 if heads == 1 else 1
        run_other_layer(tokens + 3, other_heads, tokens + heads)
        assert np.array_equal(_transformer_layer(xv, blk, heads), ref_out)
        run_other_layer(tokens + 1, heads, tokens)
        with te.Tape() as tape:
            out = _transformer_layer(xv, blk, heads, tape)
        (backward,) = tape._ops
        run_other_layer(max(1, tokens - 1), other_heads, heads)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(backward(dout), ref_grad)

    @pytest.mark.parametrize("image_size, patch_size", [(16, 8), (8, 4), (4, 2)])
    def test_patchify_matches_patch_loop(self, image_size, patch_size):
        cfg = ModelConfig(dim=16, layers=1, heads=2, patch_size=patch_size,
                          mix_layers=())
        image = np.random.default_rng(image_size).normal(
            size=(image_size, image_size))
        assert np.array_equal(patchify(image, cfg),
                              reference_patchify(image, cfg))


# The prompted forward as a chain of generic tape ops, as it was written
# before embedding, prompt mixing and head became fused primitives, on a
# test-local engine that shares no autodiff code with the package.  Its
# blocks run `reference_layer`.  The fused forward must match it bit for
# bit.

class RefTensor:
    """A node of the test-local engine: an array, whether a gradient
    reaches it, and the gradient accumulated into it."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None


class RefTape:
    """Backward closures of the nodes that need a gradient, replayed in
    reverse order of creation."""

    def __init__(self):
        self.ops = []

    def record(self, out, backward):
        if out.requires_grad:
            self.ops.append(backward)

    def backward(self, loss):
        loss.grad[...] = 1.0
        for fn in reversed(self.ops):
            fn()


def _ref_result(data, *parents):
    return RefTensor(data, any(p.requires_grad for p in parents))


def ref_matmul(a, b, tape):
    out = _ref_result(a.data @ b.data, a, b)

    def backward():
        if a.requires_grad:
            a.grad += out.grad @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ out.grad

    tape.record(out, backward)
    return out


def ref_transpose(a, tape):
    out = _ref_result(a.data.T, a)

    def backward():
        if a.requires_grad:
            a.grad += out.grad.T

    tape.record(out, backward)
    return out


def ref_slice_rows(a, start, stop, tape):
    out = _ref_result(a.data[start:stop], a)

    def backward():
        if a.requires_grad:
            a.grad[start:stop] += out.grad

    tape.record(out, backward)
    return out


def ref_concat_rows(parts, tape):
    out = _ref_result(np.concatenate([p.data for p in parts], axis=0), *parts)

    def backward():
        lo = 0
        for part in parts:
            hi = lo + part.data.shape[0]
            if part.requires_grad:
                part.grad += out.grad[lo:hi]
            lo = hi

    tape.record(out, backward)
    return out


def ref_layer_norm(x, gain, bias, tape):
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

    tape.record(out, backward)
    return out


def ref_block(x, blk, heads, tape):
    out = _ref_result(
        reference_layer(x.data, np.zeros_like(x.data), blk, heads)[0], x)

    def backward():
        x.grad += reference_layer(x.data, out.grad, blk, heads)[1]

    tape.record(out, backward)
    return out


def ref_soft_scores_op(cls_col, prototypes, priors, tau, detach, tape):
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
    out = RefTensor(scores.reshape(-1, 1),
                    cls_col.requires_grad and not detach)

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

    tape.record(out, backward)
    return out


def ref_cross_entropy(logits, label, tape):
    flat = logits.data.reshape(-1)
    m = flat.max()
    lse = m + np.log(np.exp(flat - m).sum())
    out = _ref_result(np.asarray(lse - flat[label]), logits)

    def backward():
        p = np.exp(flat - lse)
        p[label] -= 1.0
        logits.grad += (out.grad * p).reshape(logits.data.shape)

    tape.record(out, backward)
    return out


def reference_run(image, prompts, backbone, cfg, bank, priors, label):
    """The generic-op forward of `prompts`' arrays and one backward of the
    cross entropy at `label`: (trace, gradients of the three blocks)."""
    tape = RefTape()
    shared, class_prompts, head = (RefTensor(block.data, requires_grad=True)
                                   for _, block in prompts.blocks())
    trace = {"cls_inputs": [], "scores": {}}
    rows = [RefTensor(backbone.cls_embed[None, :])]
    if shared.data.shape[1] > 0:
        rows.append(ref_transpose(shared, tape))
    dim = cfg.dim
    tokens = patchify(image, cfg) @ backbone.patch_embed + np.zeros(dim)
    rows.append(RefTensor(tokens))
    seq = ref_concat_rows(rows, tape)
    mix_inserted = False
    for layer in range(1, cfg.layers + 1):
        trace["cls_inputs"].append(seq.data[0].copy())
        if layer in cfg.mix_layers and (not mix_inserted or cfg.refresh_mix):
            cls_col = ref_transpose(ref_slice_rows(seq, 0, 1, tape), tape)
            scores = ref_soft_scores_op(cls_col, bank.mu[layer], priors,
                                        cfg.tau, cfg.detach_scores, tape)
            trace["scores"][layer] = scores.data.reshape(-1).copy()
            mixed = ref_transpose(ref_matmul(class_prompts, scores, tape), tape)
            head_row = ref_slice_rows(seq, 0, 1, tape)
            rest = ref_slice_rows(seq, 2 if mix_inserted else 1,
                                  seq.data.shape[0], tape)
            mix_inserted = True
            seq = ref_concat_rows([head_row, mixed, rest], tape)
        seq = ref_block(seq, backbone.blocks[layer - 1], cfg.heads, tape)
    cls_row = ref_layer_norm(ref_slice_rows(seq, 0, 1, tape), np.ones(dim),
                             np.zeros(dim), tape)
    cls_final = ref_transpose(cls_row, tape)
    logits = ref_matmul(head, cls_final, tape)
    trace["final_cls"] = cls_final.data.reshape(-1).copy()
    trace["logits"] = logits.data.reshape(-1).copy()
    tape.backward(ref_cross_entropy(logits, label, tape))
    return trace, [shared.grad, class_prompts.grad, head.grad]


def taped_run(forward, prompts, label):
    """`forward(prompts)`'s outputs and the gradients of the three blocks
    after one backward of the cross entropy at `label`."""
    prompts.zero_grad()
    with te.Tape() as tape:
        outputs = forward(prompts)
        te.cross_entropy(outputs[0], label)
    tape.backward()
    return outputs, [block.grad.copy() for _, block in prompts.blocks()]


class TestFusedForwardReference:
    @pytest.mark.parametrize("mix_layers", [(1, 3), (2,), (3,), (1, 2, 3)])
    @pytest.mark.parametrize("n_shared", [0, 1, 2])
    @pytest.mark.parametrize("refresh", [True, False])
    @pytest.mark.parametrize("detach", [False, True])
    @pytest.mark.parametrize("zero_priors", [True, False])
    def test_matches_generic_op_forward_bit_for_bit(
            self, monkeypatch, mix_layers, n_shared, refresh, detach,
            zero_priors):
        cfg = ModelConfig(dim=16, layers=3, heads=2, patch_size=8,
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

        (logits, cls, scores), grads = taped_run(
            lambda p: forward_recording_scores(monkeypatch, image, p,
                                               backbone, cfg, consts),
            prompts, label)
        ref, ref_grads = reference_run(image, prompts, backbone, cfg, bank,
                                       priors, label)
        shard_logits, shard_cls = forward_shard(image[None], prompts, backbone,
                                                cfg, consts)
        # an identity head reads out the normalized final cls token exactly
        probe = PromptParams.from_arrays(prompts.shared.data,
                                         prompts.class_prompts.data,
                                         np.eye(cfg.dim))
        final_cls, _ = forward_with_prompts(image, probe, backbone, cfg, consts)

        assert np.array_equal(logits, ref["logits"])
        assert np.array_equal(shard_logits[0], ref["logits"])
        assert np.array_equal(final_cls, ref["final_cls"])
        assert np.array_equal(cls, np.stack(ref["cls_inputs"]))
        assert np.array_equal(shard_cls[:, 0], cls)
        assert scores.keys() == ref["scores"].keys()
        for layer, want in ref["scores"].items():
            assert np.array_equal(scores[layer], want)
            assert np.array_equal(consts[layer].evaluate(cls[layer - 1])[0],
                                  want)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)
        assert np.abs(grads[1]).max() > 0  # the class prompts do train


def captured_arrays(maps):
    """Every array the recorded maps hold, also through the `_Kept` sets,
    maps and functions they hold in turn."""
    arrays, seen, todo = [], set(), list(maps)
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, model._Kept):
                arrays.extend(getattr(value, name) for name in value.__slots__)
            elif isinstance(value, np.ndarray):
                arrays.append(value)
            elif callable(value) and getattr(value, "__closure__", None):
                todo.append(value)
    return arrays


def workspace_caches():
    return [v for v in vars(model).values() if isinstance(v, te.Workspaces)]


def workspace_buffers(*consts):
    """Every array of every workspace, and of the scratch of each
    `ScoreConstants` in `consts`, with the base of each view."""
    todo = [space for cache in workspace_caches() for space in cache.values()]
    todo += [(c.logits, c.den, c.top) for c in consts]
    buffers = []
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            buffers.append(value)
            if value.base is not None:
                todo.append(value.base)
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        elif hasattr(value, "__slots__"):
            todo.extend(getattr(value, name) for name in value.__slots__)
        elif hasattr(value, "__dict__"):
            todo.extend(vars(value).values())
    return buffers


def assert_no_escape(arrays, *consts):
    buffers = workspace_buffers(*consts)
    assert buffers
    for buf in buffers:
        for arr in arrays:
            assert not np.shares_memory(buf, arr)


def kept_sets(maps):
    """The `_Kept` sets the recorded block maps read."""
    return [cell.cell_contents for fn in maps for cell in fn.__closure__ or ()
            if isinstance(cell.cell_contents, model._Kept)]


def free_sets():
    """id -> set, of every `_Kept` set in a block workspace's free list."""
    return {id(kp): kp for space in model._BLOCK_SPACES.values()
            for kp in space.free}


class TestWorkspaces:
    """What the forward returns and what the recorded maps capture stays
    put while other forwards, of any shape, reuse the workspaces: the
    returned arrays are fresh, and the block's `_Kept` sets are lent to
    their tape until its backward has run."""

    def test_interleaved_forwards_change_no_result_or_map(self):
        # mixing at layer 1, so a map also captures the embedding's output
        cfg = ModelConfig(dim=16, layers=4, heads=2, patch_size=8,
                          mix_layers=(1, 3))
        backbone, prompts, bank, priors, image = make_setup(
            40, cfg, classes=5, n_shared=2)
        prompts.head.data[...] = np.random.default_rng(40).normal(
            size=prompts.head.data.shape)
        consts = score_constants(cfg, bank, priors)
        others = np.random.default_rng(41).normal(size=(3, 16, 16))
        # another dim and token count: 8 x 8 images in 4 x 4 patches
        small_cfg = ModelConfig(dim=8, layers=3, heads=2, patch_size=4,
                                mix_layers=(2,))
        small = make_setup(42, small_cfg, classes=3, n_shared=0, image_size=8)
        small_consts = score_constants(small_cfg, small[2], small[3])

        def taped(interleave):
            prompts.zero_grad()
            with te.Tape() as tape:
                logits, cls = forward_with_prompts(image, prompts, backbone,
                                                   cfg, consts)
                te.cross_entropy(logits, 3)
            kept = (logits.copy(), cls.copy())
            captured = captured_arrays(tape._ops)
            if interleave:
                forward_shard(others, prompts, backbone, cfg, consts)
                forward_with_prompts(small[4], small[1], small[0], small_cfg,
                                     small_consts)
                with te.Tape() as other_tape:
                    forward_with_prompts(others[0], prompts, backbone, cfg,
                                         consts)
                other_tape._ops.clear()
            assert np.array_equal(logits, kept[0])
            assert np.array_equal(cls, kept[1])
            # while the tape is open its sets belong to no workspace
            assert len(captured) > 20
            assert_no_escape([logits, cls, *captured], *consts.values(),
                             *small_consts.values())
            tape.backward()
            return (logits, cls,
                    [block.grad.copy() for _, block in prompts.blocks()])

        logits, cls, grads = taped(interleave=True)
        _, _, direct = taped(interleave=False)
        for got, want in zip(grads, direct):
            assert got.tobytes() == want.tobytes()
        assert_no_escape([logits, cls], *consts.values(),
                         *small_consts.values())

    def test_primitives_return_fresh_arrays(self):
        # each primitive, untaped, after a first call has filled its
        # workspace
        backbone, prompts, bank, priors, image = make_setup(46, n_shared=1)
        consts = score_constants(SMALL, bank, priors)
        x = np.random.default_rng(46).normal(size=(6, SMALL.dim))

        def outputs():
            seq = model._embed(image, prompts.shared, backbone, SMALL)
            mixed = model._mix(seq, prompts.class_prompts, consts[2], False,
                               False, None)
            block = _transformer_layer(mixed, backbone.blocks[0], SMALL.heads)
            logits = _head(block, prompts.head, None)
            scores, sims, _ = consts[2].evaluate(x[0])
            return [seq, mixed, block, logits, scores, sims,
                    *te.norm_rows(x), te.norm_rows_backward(x, *te.norm_rows(x))]

        first = outputs()
        kept = [a.copy() for a in first]
        second = outputs()
        for got, want in zip(first, kept):
            assert np.array_equal(got, want)
        assert_no_escape(first + second, *consts.values())

    def test_untaped_outputs_are_fresh(self):
        backbone, prompts, bank, priors, image = make_setup(43)
        consts = score_constants(SMALL, bank, priors)
        first = forward_with_prompts(image, prompts, backbone, SMALL, consts)
        kept = [a.copy() for a in first]
        second = forward_with_prompts(image * 2, prompts, backbone, SMALL,
                                      consts)
        for got, want in zip(first, kept):
            assert np.array_equal(got, want)
        assert_no_escape([*first, *second], *consts.values())

    def test_two_open_tapes_of_one_shape_keep_their_gradients(self):
        backbone, prompts, bank, priors, _ = make_setup(47, n_shared=2)
        prompts.head.data[...] = np.random.default_rng(47).normal(
            size=prompts.head.data.shape)
        consts = score_constants(SMALL, bank, priors)
        images = np.random.default_rng(48).normal(size=(2, 16, 16))

        def record(image, label):
            params = prompts.copy()
            with te.Tape() as tape:
                logits, _ = forward_with_prompts(image, params, backbone,
                                                 SMALL, consts)
                te.cross_entropy(logits, label)
            return params, tape

        def grads(params):
            return [block.grad.tobytes() for _, block in params.blocks()]

        alone = []
        for i, image in enumerate(images):
            params, tape = record(image, i)
            tape.backward()
            alone.append(grads(params))
        # both forwards recorded before either map runs
        both = [record(image, i) for i, image in enumerate(images)]
        for params, tape in reversed(both):
            tape.backward()
        assert [grads(params) for params, _ in both] == alone
        assert alone[0] != alone[1]

    @staticmethod
    def open_tape(image, prompts, backbone, consts, label=0):
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                             consts)
            te.cross_entropy(logits, label)
        return tape

    def test_open_tape_sets_are_in_no_free_list(self):
        backbone, prompts, bank, priors, image = make_setup(49)
        consts = score_constants(SMALL, bank, priors)
        # a run first, so the free lists hold sets to lend
        self.open_tape(image, prompts, backbone, consts).backward()
        assert free_sets()
        tape = self.open_tape(image, prompts, backbone, consts)
        lent = kept_sets(tape._ops)
        assert len(lent) == SMALL.layers
        assert not set(map(id, lent)) & set(free_sets())
        assert_no_escape(captured_arrays(tape._ops), *consts.values())
        tape.backward()

    def test_two_open_tapes_of_one_shape_capture_disjoint_memory(self):
        backbone, prompts, bank, priors, _ = make_setup(50, n_shared=2)
        consts = score_constants(SMALL, bank, priors)
        images = np.random.default_rng(50).normal(size=(2, 16, 16))
        first, second = (self.open_tape(image, prompts.copy(), backbone,
                                        consts, i)
                         for i, image in enumerate(images))
        theirs = captured_arrays(second._ops)
        for arr in captured_arrays(first._ops):
            for other in theirs:
                assert not np.shares_memory(arr, other)
        second.backward()
        first.backward()

    def test_backward_returns_sets_for_the_next_forward(self):
        backbone, prompts, bank, priors, image = make_setup(51)
        consts = score_constants(SMALL, bank, priors)
        tape = self.open_tape(image, prompts, backbone, consts)
        lent = kept_sets(tape._ops)
        before = len(free_sets())
        tape.backward()
        free = free_sets()
        assert len(free) == before + len(lent)
        assert set(map(id, lent)) <= set(free)
        again = self.open_tape(image, prompts, backbone, consts)
        assert set(map(id, kept_sets(again._ops))) == set(map(id, lent))
        again.backward()
        assert free_sets().keys() == free.keys()

    @pytest.mark.parametrize("how", ["ops-cleared", "forward-raised",
                                     "backward-raised"])
    def test_tape_that_does_not_finish_returns_nothing(self, how):
        backbone, prompts, bank, priors, image = make_setup(52)
        consts = score_constants(SMALL, bank, priors)
        self.open_tape(image, prompts, backbone, consts).backward()
        if how == "forward-raised":
            # no constants for the second mixing layer: blocks 1 and 2 are
            # taped before the forward fails
            partial = {2: consts[2]}
            with pytest.raises(KeyError), te.Tape() as tape:
                forward_with_prompts(image, prompts, backbone, SMALL, partial)
        else:
            tape = self.open_tape(image, prompts, backbone, consts)
        lent = kept_sets(tape._ops)
        assert lent
        free = free_sets()
        if how == "ops-cleared":
            tape._ops.clear()
        elif how == "backward-raised":
            def fail(g):
                raise ArithmeticError("map failed")

            tape.record(fail)
            with pytest.raises(ArithmeticError):
                tape.backward()
        del tape
        assert free_sets().keys() == free.keys()
        assert not set(map(id, lent)) & set(free_sets())

    def test_free_lists_stop_growing_after_a_run(self, tmp_path):
        raw = json.loads((ROOT / "configs" / "pathological.json").read_text())
        raw["train"]["rounds"] = 2
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(raw))
        model._BLOCK_SPACES.clear()
        lengths = []
        for run in ("a", "b"):
            assert main(["run", "--config", str(path),
                         "--out", str(tmp_path / run)]) == 0
            lengths.append({shape: len(space.free)
                            for shape, space in model._BLOCK_SPACES.items()})
        # one taped forward's worth: a set per block of each shape
        first_mix = min(raw["model"]["mix_layers"])
        assert sorted(lengths[0].values()) == sorted(
            [first_mix - 1, raw["model"]["layers"] - first_mix + 1])
        assert lengths[1] == lengths[0]

    def test_cache_holds_one_workspace_per_shape_a_run_used(self, tmp_path):
        raw = json.loads((ROOT / "configs" / "pathological.json").read_text())
        raw["train"]["rounds"] = 2
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(raw))
        caches = workspace_caches()
        assert set(map(id, caches)) == {id(model._BLOCK_SPACES),
                                        id(model._NORM_SPACES)}
        for cache in caches:
            cache.clear()
        m = raw["model"]
        patches = (raw["data"]["image_size"] // m["patch_size"]) ** 2
        # cls, one shared prompt and the patches, then the mixed prompt
        tokens = 1 + 1 + patches
        for run in ("a", "b"):
            assert main(["run", "--config", str(path),
                         "--out", str(tmp_path / run)]) == 0
            assert set(model._BLOCK_SPACES) == {
                (t, m["dim"], m["heads"], model.MLP_MULT * m["dim"])
                for t in (tokens, tokens + 1)}
            assert set(model._NORM_SPACES) == {(1, m["dim"])}


class TestBlockPruning:
    """Without shared prompts nothing trainable feeds the token matrix
    before the first mixing layer, so the blocks there record no map.
    That is the one place the forward prunes its maps, and the gradients
    stay those of the reference."""

    @staticmethod
    def block_calls(monkeypatch):
        # whether each block call, in order, recorded a map
        calls = []
        layer = model._transformer_layer

        def recording(x, blk, heads, tape=None):
            calls.append(tape is not None)
            return layer(x, blk, heads, tape)

        monkeypatch.setattr(model, "_transformer_layer", recording)
        return calls

    @pytest.mark.parametrize("mix_layers", [(2, 3), (3,), (1, 3), ()],
                             ids=["2-3", "3", "1-3", "head-only"])
    def test_no_shared_prompts_tapes_blocks_from_first_mix(
            self, monkeypatch, mix_layers):
        cfg = dataclasses.replace(SMALL, mix_layers=mix_layers)
        backbone, prompts, bank, priors, image = make_setup(44, cfg,
                                                            n_shared=0)
        prompts.head.data[...] = np.random.default_rng(44).normal(
            size=prompts.head.data.shape)
        consts = score_constants(cfg, bank, priors)
        _, ref_grads = reference_run(image, prompts, backbone, cfg, bank,
                                     priors, 1)
        calls = self.block_calls(monkeypatch)
        prompts.zero_grad()
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, cfg,
                                             consts)
            te.cross_entropy(logits, 1)
        tape.backward()
        first_mix = min(mix_layers, default=cfg.layers + 1)
        assert calls == [layer >= first_mix
                         for layer in range(1, cfg.layers + 1)]
        for (_, block), ref in zip(prompts.blocks(), ref_grads):
            assert block.grad.tobytes() == ref.tobytes()
        assert np.abs(prompts.head.grad).max() > 0
        assert (np.abs(prompts.class_prompts.grad).max() > 0) == bool(
            mix_layers)


class TestPrimitiveGradients:
    def test_transformer_layer_vs_finite_differences(self):
        cfg = ModelConfig(dim=8, layers=1, heads=2, mix_layers=())
        blk = init_backbone(31, cfg).blocks[0]
        x = np.random.default_rng(31).normal(size=(5, cfg.dim))

        def loss(v):
            out = _transformer_layer(v, blk, cfg.heads)
            return te.cross_entropy(out.reshape(-1), 3)

        with te.Tape() as tape:
            out = _transformer_layer(x, blk, cfg.heads, tape)
        (layer_map,) = tape._ops
        with te.Tape() as loss_tape:
            te.cross_entropy(out.reshape(-1), 3)
        auto = layer_map(loss_tape.backward().reshape(out.shape))
        assert te.grad_rel_error(auto, te.finite_diff_grad(loss, x)) < 1e-6

    def test_head_vs_finite_differences(self):
        rng = np.random.default_rng(32)
        seq, head = rng.normal(size=(5, 8)), rng.normal(size=(3, 8))

        def loss(s, h):
            return te.cross_entropy(_head(s, h, te.active_tape()), 1)

        block = te.Tensor(head.copy())
        with te.Tape() as tape:
            loss(seq, block)
        dseq = tape.backward()
        oracles = [
            te.finite_diff_grad(lambda v: loss(v, te.Tensor(head)), seq),
            te.finite_diff_grad(lambda v: loss(seq, te.Tensor(v)), head),
        ]
        for grad, oracle in zip((dseq, block.grad), oracles):
            assert te.grad_rel_error(grad, oracle) < 1e-6


class TestPatchify:
    def test_row_major_patches(self):
        cfg = ModelConfig(dim=16, layers=1, heads=2, patch_size=2,
                          mix_layers=())
        image = np.arange(16.0).reshape(4, 4)
        patches = patchify(image, cfg)
        np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches[3], [10, 11, 14, 15])

    @pytest.mark.parametrize("shape", [(12, 12), (16, 8), (16,), (2, 16, 16)])
    def test_shape_check(self, shape):
        with pytest.raises(ConfigError, match="square image whose side is a "
                           "multiple of patch size 8"):
            patchify(np.zeros(shape), SMALL)

    @pytest.mark.parametrize("size", [8, 24])
    def test_any_multiple_of_patch_size_runs(self, size):
        # the backbone has no position embeddings: its weights fit any
        # image whose side is a multiple of the patch size
        backbone, prompts, bank, priors, _ = make_setup(47)
        image = np.random.default_rng(size).normal(size=(size, size))
        assert patchify(image, SMALL).shape == ((size // 8) ** 2, 64)
        logits, cls = forward_with_prompts(
            image, prompts, backbone, SMALL,
            score_constants(SMALL, bank, priors))
        assert np.isfinite(logits).all() and cls.shape == (4, SMALL.dim)


class TestForward:
    def test_plain_prompted_forward_without_mixing(self, monkeypatch):
        cfg = dataclasses.replace(SMALL, mix_layers=())
        backbone, prompts, _, _, image = make_setup(4)
        consts = score_constants(cfg)
        assert consts == {}
        logits, cls, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone, cfg, consts)
        assert logits.shape == (4,)
        assert scores == {}
        assert cls.shape == (cfg.layers, cfg.dim)

    def test_one_hot_prior_inserts_exact_class_column(self, monkeypatch):
        backbone, prompts, bank, _, image = make_setup(5)
        priors = np.array([0.0, 0.0, 1.0, 0.0])
        _, _, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone, SMALL,
            score_constants(SMALL, bank, priors))
        assert set(scores) == set(SMALL.mix_layers)
        for layer, s in scores.items():
            np.testing.assert_array_equal(s, priors)
            np.testing.assert_array_equal(
                mix_prompt(prompts.class_prompts.data, s),
                prompts.class_prompts.data[:, 2],
            )

    def test_missing_prototype_layer_raises(self):
        _, _, bank, priors, _ = make_setup(6)
        del bank.mu[3]
        with pytest.raises(ConfigError, match="missing layers"):
            score_constants(SMALL, bank, priors)

    def test_mixing_requires_bank_and_priors(self):
        _, _, bank, priors, _ = make_setup(7)
        with pytest.raises(ConfigError, match="no prototype bank"):
            score_constants(SMALL, None, priors)
        with pytest.raises(ConfigError, match="no class priors"):
            score_constants(SMALL, bank, None)

    def test_forward_deterministic(self):
        backbone, prompts, bank, priors, image = make_setup(8)
        consts = score_constants(SMALL, bank, priors)
        a, cls_a = forward_with_prompts(image, prompts, backbone, SMALL, consts)
        b, cls_b = forward_with_prompts(image, prompts, backbone, SMALL, consts)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(cls_a, cls_b)

    def test_scores_match_pure_function_on_traced_cls(self, monkeypatch):
        backbone, prompts, bank, priors, image = make_setup(9)
        _, cls, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone, SMALL,
            score_constants(SMALL, bank, priors))
        first = SMALL.mix_layers[0]
        expected = soft_scores(cls[first - 1], bank.mu[first], priors,
                               SMALL.tau)
        np.testing.assert_allclose(scores[first], expected, atol=1e-15)

    def test_refresh_vs_propagate_differ_after_first_mix_layer(self, monkeypatch):
        backbone, prompts, bank, priors, image = make_setup(10)
        from dataclasses import replace
        prop_cfg = replace(SMALL, refresh_mix=False)
        consts = score_constants(SMALL, bank, priors)
        _, _, s_refresh = forward_recording_scores(
            monkeypatch, image, prompts, backbone, SMALL, consts)
        _, _, s_prop = forward_recording_scores(
            monkeypatch, image, prompts, backbone, prop_cfg, consts)
        assert set(s_refresh) == {2, 3}
        assert set(s_prop) == {2}
        np.testing.assert_array_equal(s_refresh[2], s_prop[2])

    def test_backbone_unchanged_by_forward_backward(self):
        backbone, prompts, bank, priors, image = make_setup(11)
        before = backbone_checksum(backbone)
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                             score_constants(SMALL, bank, priors))
            te.cross_entropy(logits, 1)
        tape.backward()
        assert backbone_checksum(backbone) == before
        for arr in backbone_arrays(backbone):
            assert np.isfinite(arr).all()

    def test_prompt_free_baseline_depends_only_on_input(self):
        cfg = dataclasses.replace(SMALL, mix_layers=())
        backbone = init_backbone(12, cfg)
        head = np.random.default_rng(12).normal(size=(4, cfg.dim))
        a = PromptParams.from_arrays(np.zeros((cfg.dim, 0)),
                                     np.zeros((cfg.dim, 4)), head)
        b = PromptParams.from_arrays(np.zeros((cfg.dim, 0)),
                                     np.ones((cfg.dim, 4)) * 9.0, head)
        image = np.random.default_rng(13).normal(size=(16, 16))
        la, _ = forward_with_prompts(image, a, backbone, cfg, {})
        lb, _ = forward_with_prompts(image, b, backbone, cfg, {})
        np.testing.assert_array_equal(la, lb)


class TestForwardShard:
    @pytest.mark.parametrize("mixing", [True, False])
    @pytest.mark.parametrize("shard", ["one", "desk"])
    def test_equals_stacked_per_sample_forwards(self, mixing, shard):
        # the desk workload's model, data and partition; client 0's shard
        spec = SyntheticSpec(classes=8, train_per_class=40, test_per_class=12)
        ds = generate_synthetic(spec, 0)
        part = partition_pathological(ds, 12, 2, 0)
        images = ds.train_x[part.train_indices[0]]
        if shard == "one":
            images = images[:1]
        cfg = ModelConfig() if mixing else ModelConfig(mix_layers=())
        backbone, prompts, bank, _, _ = make_setup(17, cfg, classes=8)
        prompts.head.data[...] = np.random.default_rng(17).normal(
            size=prompts.head.data.shape)
        consts = score_constants(cfg, bank, part.priors[0])
        logits, cls = forward_shard(images, prompts, backbone, cfg, consts)
        singles = [forward_with_prompts(x, prompts, backbone, cfg, consts)
                   for x in images]
        n = len(images)
        assert logits.shape == (n, 8) and cls.shape == (cfg.layers, n, cfg.dim)
        assert np.array_equal(
            logits, np.stack([out for out, _ in singles]))
        assert np.array_equal(cls, np.stack([c for _, c in singles], axis=1))


class TestGradients:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradcheck_small_model(self, heads):
        report = gradient_check(seed=0, heads=heads)
        assert report["max"] < 1e-4
        assert set(report) == {"shared", "class", "head", "max"}

    def test_detach_changes_shared_gradient_not_logits(self):
        from dataclasses import replace
        backbone, prompts, bank, priors, image = make_setup(14)
        consts = score_constants(SMALL, bank, priors)
        # a zero head would block all upstream gradient flow
        prompts.head.data[...] = np.random.default_rng(14).normal(
            size=prompts.head.data.shape)
        detached_cfg = replace(SMALL, detach_scores=True)
        grads = {}
        for key, cfg in (("flow", SMALL), ("detach", detached_cfg)):
            prompts.zero_grad()
            with te.Tape() as tape:
                logits, _ = forward_with_prompts(image, prompts, backbone, cfg,
                                                 consts)
                te.cross_entropy(logits, 0)
            tape.backward()
            grads[key] = (logits, prompts.shared.grad.copy())
        np.testing.assert_array_equal(grads["flow"][0], grads["detach"][0])
        assert np.abs(grads["flow"][1] - grads["detach"][1]).max() > 0

    def test_frozen_backbone_receives_no_gradients(self):
        backbone, prompts, bank, priors, image = make_setup(15)
        before = backbone_checksum(backbone)
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(image, prompts, backbone, SMALL,
                                             score_constants(SMALL, bank, priors))
            te.cross_entropy(logits, 2)
        tape.backward()
        # plain arrays have no gradient slot, so no backward can write one
        for arr in backbone_arrays(backbone):
            assert type(arr) is np.ndarray
        assert backbone_checksum(backbone) == before

    def test_autodiff_matches_fd_on_two_layer_model(self):
        report = gradient_check(seed=3, dim=8, layers=2, classes=3, heads=2,
                                mix_layers=(2,))
        assert report["max"] < 1e-4
