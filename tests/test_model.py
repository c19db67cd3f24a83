import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from backbone_digest import backbone_arrays, backbone_checksum
from fedprompt import model, prototypes
from fedprompt import tensor as te
from fedprompt.cli import main
from fedprompt.data import SyntheticSpec, generate_synthetic, partition_pathological
from fedprompt.errors import ConfigError
from fedprompt.federation import build_clients
from fedprompt.model import (
    _GELU_C,
    GRADCHECK_THRESHOLD,
    BackboneWeights,
    ModelConfig,
    PromptParams,
    _head,
    _transformer_layer,
    embed_patches,
    forward_shard,
    forward_with_prompts,
    gradient_check,
    init_backbone,
)
from fedprompt.prototypes import PrototypeBank, ScoreConstants, soft_scores_op


ROOT = Path(__file__).resolve().parents[1]
SMALL = ModelConfig(dim=16, layers=4, heads=2, patch_size=8,
                    mix_layers=(2, 3))


def make_setup(seed=0, cfg=SMALL, classes=4, image_size=16):
    rng = np.random.default_rng(seed)
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.init(seed, cfg.dim, classes)
    bank = PrototypeBank(layers=cfg.mix_layers, num_classes=classes,
                         dim=cfg.dim, tau=cfg.tau)
    for l in cfg.mix_layers:
        bank.mu[l] = rng.normal(size=(classes, cfg.dim))
    priors = rng.random(classes)
    priors /= priors.sum()
    image = rng.normal(size=(image_size, image_size))
    return backbone, prompts, bank, priors, image


def embed_one(image, backbone):
    """The (patches, dim) tokens the forward reads of one image."""
    return embed_patches(image[None], backbone)[0]


def forward_recording_scores(monkeypatch, image, prompts, backbone, consts):
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
    logits, cls = forward_with_prompts(embed_one(image, backbone), prompts,
                                       backbone, consts)
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

    def test_records_the_sizes_its_arrays_do_not_show(self):
        cfg = ModelConfig(dim=12, layers=3, heads=3, patch_size=4,
                          mix_layers=())
        backbone = init_backbone(0, cfg)
        assert backbone.heads == 3
        # the patch side is the square root of the embedding's rows
        assert backbone.patch_embed.shape == (16, 12)
        assert (backbone.cls_embed.size, len(backbone.blocks)) == (12, 3)

    def test_different_seeds_differ(self):
        assert (backbone_checksum(init_backbone(1, SMALL))
                != backbone_checksum(init_backbone(2, SMALL)))

    def test_desk_scale_geometry_builds_and_runs(self, monkeypatch):
        cfg = ModelConfig(dim=32, layers=8, heads=2)
        backbone, prompts, bank, priors, image = make_setup(3, cfg, classes=8)
        logits, cls, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone,
            bank.score_constants(priors))
        assert logits.shape == (8,)
        assert cls.shape == (8, 32)
        assert set(scores) == {5, 6, 7}

    @pytest.mark.parametrize("field", ["dim", "layers", "heads", "patch_size"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_size_names_field(self, field, value):
        low = 2 if field == "dim" else 1
        with pytest.raises(ConfigError, match=f"model {field} must be >= {low}"):
            ModelConfig(**{field: value, "mix_layers": ()})

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=30, heads=4)
        with pytest.raises(ConfigError, match="model mix_layers must be >= 1"):
            ModelConfig(layers=4, mix_layers=(0,))
        with pytest.raises(ConfigError, match="must not repeat a layer"):
            ModelConfig(layers=8, mix_layers=(5, 5))


def reference_patchify(image, p):
    # one patch at a time, row-major
    n = len(image) // p
    return np.stack([image[i * p:(i + 1) * p, j * p:(j + 1) * p].reshape(-1)
                     for i in range(n) for j in range(n)])


def identity_embedding(p):
    """A backbone whose patch embedding of side `p` is the identity."""
    return BackboneWeights(patch_embed=np.eye(p * p), cls_embed=np.zeros(p * p),
                           blocks=[], heads=1)


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
    _transformer_layer(x, blk, heads, None)
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
        assert np.array_equal(_transformer_layer(xv, blk, heads, None),
                              ref_out)
        run_other_layer(tokens + 1, heads, tokens)
        with te.Tape() as tape:
            out = _transformer_layer(xv, blk, heads, tape)
        (backward,) = tape._ops
        run_other_layer(max(1, tokens - 1), other_heads, heads)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(backward(dout), ref_grad)

    @pytest.mark.parametrize("image_size, patch_size", [(16, 8), (8, 4), (4, 2)])
    def test_embedded_patches_match_patch_loop(self, image_size, patch_size):
        # through an identity embedding the tokens are the patches
        images = np.random.default_rng(image_size).normal(
            size=(3, image_size, image_size))
        tokens = embed_patches(images, identity_embedding(patch_size))
        assert tokens.shape == (3, (image_size // patch_size) ** 2,
                                patch_size**2)
        for image, got in zip(images, tokens):
            assert np.array_equal(got, reference_patchify(image, patch_size))


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


def ref_soft_scores_op(cls_col, prototypes, priors, tau, tape):
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
                    cls_col.requires_grad)

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
    rows = [RefTensor(backbone.cls_embed[None, :]),
            ref_transpose(shared, tape)]
    dim = cfg.dim
    tokens = (reference_patchify(image, cfg.patch_size) @ backbone.patch_embed
              + np.zeros(dim))
    rows.append(RefTensor(tokens))
    seq = ref_concat_rows(rows, tape)
    mix_inserted = False
    for layer in range(1, cfg.layers + 1):
        trace["cls_inputs"].append(seq.data[0].copy())
        if layer in cfg.mix_layers:
            cls_col = ref_transpose(ref_slice_rows(seq, 0, 1, tape), tape)
            scores = ref_soft_scores_op(cls_col, bank.mu[layer], priors,
                                        cfg.tau, tape)
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
    # 1, 4 and 9 patches: the token count keys every block workspace
    @pytest.mark.parametrize("image_size", [8, 16, 24])
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("classes", [5, 7])
    @pytest.mark.parametrize("zero_priors", [True, False])
    def test_matches_generic_op_forward_bit_for_bit(
            self, monkeypatch, mix_layers, image_size, heads, classes,
            zero_priors):
        # head and class counts change the shape of every fused kernel's
        # workspace: the attention split, the scores and the mixture
        cfg = ModelConfig(dim=16, layers=3, heads=heads, patch_size=8,
                          mix_layers=mix_layers)
        seed = (1000 * classes + 100 * len(mix_layers)
                + 10 * (image_size // 8) + heads)
        backbone, prompts, bank, priors, image = make_setup(
            seed, cfg, classes=classes, image_size=image_size)
        rng = np.random.default_rng(seed)
        prompts.head.data[...] = rng.normal(size=prompts.head.data.shape)
        if zero_priors:
            # two classes unseen by the client, one prototype never observed
            priors[[1, 3]] = 0.0
            priors /= priors.sum()
            for l in mix_layers:
                bank.mu[l][2] = 0.0
        label = int(rng.integers(classes))
        consts = bank.score_constants(priors)

        (logits, cls, scores), grads = taped_run(
            lambda p: forward_recording_scores(monkeypatch, image, p,
                                               backbone, consts),
            prompts, label)
        ref, ref_grads = reference_run(image, prompts, backbone, cfg, bank,
                                       priors, label)
        shard_logits, shard_cls = forward_shard(
            embed_patches(image[None], backbone), prompts, backbone, consts)
        # an identity head reads out the normalized final cls token exactly
        probe = PromptParams.from_arrays(prompts.shared.data,
                                         prompts.class_prompts.data,
                                         np.eye(cfg.dim))
        final_cls, _ = forward_with_prompts(embed_one(image, backbone), probe,
                                            backbone, consts)

        assert np.array_equal(logits, ref["logits"])
        assert np.array_equal(shard_logits[0], ref["logits"])
        assert np.array_equal(final_cls, ref["final_cls"])
        assert np.array_equal(cls, np.stack(ref["cls_inputs"]))
        assert np.array_equal(shard_cls[:, 0], cls)
        assert scores.keys() == ref["scores"].keys()
        for layer, want in ref["scores"].items():
            assert np.array_equal(scores[layer], want)
            assert np.array_equal(
                soft_scores_op(cls[layer - 1], consts[layer], False)[0], want)
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
    """Every module-level dict of the modules the per-sample kernels live
    in."""
    return [v for module in (model, te, prototypes)
            for name, v in vars(module).items()
            if isinstance(v, dict) and not name.startswith("__")]


def workspace_buffers():
    """Every array of every block workspace, the `_Kept` sets of its free
    list included, with the base of each view."""
    todo = list(model._BLOCK_SPACES.values())
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


def assert_no_escape(arrays):
    buffers = workspace_buffers()
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
    returned arrays are fresh, and a block's `_Kept` set is held by the
    map it recorded until that map has run."""

    def test_interleaved_forwards_change_no_result_or_map(self):
        # mixing at layer 1, so a map also captures the embedding's output
        cfg = ModelConfig(dim=16, layers=4, heads=2, patch_size=8,
                          mix_layers=(1, 3))
        backbone, prompts, bank, priors, image = make_setup(40, cfg,
                                                            classes=5)
        prompts.head.data[...] = np.random.default_rng(40).normal(
            size=prompts.head.data.shape)
        consts = bank.score_constants(priors)
        tokens = embed_one(image, backbone)
        others = embed_patches(np.random.default_rng(41).normal(
            size=(3, 16, 16)), backbone)
        # another dim and token count: 8 x 8 images in 4 x 4 patches
        small_cfg = ModelConfig(dim=8, layers=3, heads=2, patch_size=4,
                                mix_layers=(2,))
        small = make_setup(42, small_cfg, classes=3, image_size=8)
        small_consts = small[2].score_constants(small[3])
        small_tokens = embed_one(small[4], small[0])

        def taped(interleave):
            prompts.zero_grad()
            with te.Tape() as tape:
                logits, cls = forward_with_prompts(tokens, prompts, backbone,
                                                   consts)
                te.cross_entropy(logits, 3)
            kept = (logits.copy(), cls.copy())
            captured = captured_arrays(tape._ops)
            if interleave:
                forward_shard(others, prompts, backbone, consts)
                forward_with_prompts(small_tokens, small[1], small[0],
                                     small_consts)
                with te.Tape() as other_tape:
                    forward_with_prompts(others[0], prompts, backbone, consts)
                other_tape._ops.clear()
            assert np.array_equal(logits, kept[0])
            assert np.array_equal(cls, kept[1])
            # while the tape is open its sets belong to no workspace
            assert len(captured) > 20
            assert_no_escape([logits, cls, *captured])
            tape.backward()
            return (logits, cls,
                    [block.grad.copy() for _, block in prompts.blocks()])

        logits, cls, grads = taped(interleave=True)
        _, _, direct = taped(interleave=False)
        for got, want in zip(grads, direct):
            assert got.tobytes() == want.tobytes()
        assert_no_escape([logits, cls])

    def test_primitives_return_fresh_arrays(self):
        # each primitive, untaped, after a first call has filled its
        # workspace
        backbone, prompts, bank, priors, image = make_setup(46)
        consts = bank.score_constants(priors)
        tokens = embed_one(image, backbone)
        x = np.random.default_rng(46).normal(size=(6, SMALL.dim))
        space = te.NormSpace(*x.shape)

        def outputs():
            seq = model._embed(tokens, prompts.shared, backbone, None)
            mixed = model._mix(seq, prompts.class_prompts, consts[2], False,
                               None)
            block = _transformer_layer(mixed, backbone.blocks[0], SMALL.heads,
                                       None)
            logits = _head(block, prompts.head, None)
            # the scores and every array their map captures: the
            # similarities, the token and the scores themselves
            scores, scores_map = soft_scores_op(x[0], consts[2], True)
            captured = [cell.cell_contents for cell in scores_map.__closure__
                        if isinstance(cell.cell_contents, np.ndarray)]
            assert len(captured) == 3
            xhat, inv = te.norm_rows(x, np.empty_like(x),
                                     np.empty((len(x), 1)), space)
            return [seq, mixed, block, logits, scores, *captured, xhat, inv,
                    te.norm_rows_backward(x, xhat, inv, None, space)]

        first = outputs()
        kept = [a.copy() for a in first]
        second = outputs()
        for got, want in zip(first, kept):
            assert np.array_equal(got, want)
        assert_no_escape(first + second)

    def test_untaped_outputs_are_fresh(self):
        backbone, prompts, bank, priors, image = make_setup(43)
        consts = bank.score_constants(priors)
        tokens = embed_one(image, backbone)
        first = forward_with_prompts(tokens, prompts, backbone, consts)
        kept = [a.copy() for a in first]
        second = forward_with_prompts(tokens * 2, prompts, backbone, consts)
        for got, want in zip(first, kept):
            assert np.array_equal(got, want)
        assert_no_escape([*first, *second])

    def test_two_open_tapes_of_one_shape_keep_their_gradients(self):
        backbone, prompts, bank, priors, _ = make_setup(47)
        prompts.head.data[...] = np.random.default_rng(47).normal(
            size=prompts.head.data.shape)
        consts = bank.score_constants(priors)
        samples = embed_patches(np.random.default_rng(48).normal(
            size=(2, 16, 16)), backbone)

        def record(tokens, label):
            params = prompts.copy()
            with te.Tape() as tape:
                logits, _ = forward_with_prompts(tokens, params, backbone,
                                                 consts)
                te.cross_entropy(logits, label)
            return params, tape

        def grads(params):
            return [block.grad.tobytes() for _, block in params.blocks()]

        alone = []
        for i, tokens in enumerate(samples):
            params, tape = record(tokens, i)
            tape.backward()
            alone.append(grads(params))
        # both forwards recorded before either map runs
        both = [record(tokens, i) for i, tokens in enumerate(samples)]
        for params, tape in reversed(both):
            tape.backward()
        assert [grads(params) for params, _ in both] == alone
        assert alone[0] != alone[1]

    @staticmethod
    def open_tape(image, prompts, backbone, consts, label=0):
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(embed_one(image, backbone),
                                             prompts, backbone, consts)
            te.cross_entropy(logits, label)
        return tape

    def test_open_tape_sets_are_in_no_free_list(self):
        backbone, prompts, bank, priors, image = make_setup(49)
        consts = bank.score_constants(priors)
        # a run first, so the free lists hold sets to lend
        self.open_tape(image, prompts, backbone, consts).backward()
        assert free_sets()
        tape = self.open_tape(image, prompts, backbone, consts)
        lent = kept_sets(tape._ops)
        assert len(lent) == SMALL.layers
        assert not set(map(id, lent)) & set(free_sets())
        assert_no_escape(captured_arrays(tape._ops))
        tape.backward()

    def test_two_open_tapes_of_one_shape_capture_disjoint_memory(self):
        backbone, prompts, bank, priors, _ = make_setup(50)
        consts = bank.score_constants(priors)
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
        consts = bank.score_constants(priors)
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
        consts = bank.score_constants(priors)
        self.open_tape(image, prompts, backbone, consts).backward()
        if how == "forward-raised":
            # no usable constants for the second mixing layer: blocks 1
            # and 2 are taped before the forward fails
            broken = {2: consts[2], 3: None}
            with pytest.raises(AttributeError), te.Tape() as tape:
                forward_with_prompts(embed_one(image, backbone), prompts,
                                     backbone, broken)
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

    def test_map_recorded_first_that_raises_runs_after_every_block_map(self):
        backbone, prompts, bank, priors, image = make_setup(53)
        consts = bank.score_constants(priors)
        self.open_tape(image, prompts, backbone, consts).backward()

        def fail(g):
            raise ArithmeticError("map failed")

        with te.Tape() as tape:
            tape.record(fail)
            logits, _ = forward_with_prompts(embed_one(image, backbone),
                                             prompts, backbone, consts)
            te.cross_entropy(logits, 0)
        taken = set(map(id, kept_sets(tape._ops)))
        assert len(taken) == SMALL.layers
        assert not taken & set(free_sets())
        with pytest.raises(ArithmeticError):
            tape.backward()
        # each block map put its set back before the failing map ran
        assert taken <= set(free_sets())
        again = self.open_tape(image, prompts, backbone, consts)
        assert set(map(id, kept_sets(again._ops))) == taken
        again.backward()

    def test_untaped_calls_hand_their_set_back(self):
        # mixing at the last of two layers: one block of each shape
        cfg = ModelConfig(dim=8, layers=2, heads=2, patch_size=4,
                          mix_layers=(2,))
        backbone, prompts, bank, priors, _ = make_setup(54, cfg, classes=3,
                                                        image_size=8)
        consts = bank.score_constants(priors)
        shard = embed_patches(np.random.default_rng(54).normal(
            size=(3, 8, 8)), backbone)

        def lengths():
            return {shape: len(space.free)
                    for shape, space in model._BLOCK_SPACES.items()}

        model._BLOCK_SPACES.clear()
        forward_shard(shard, prompts, backbone, consts)
        untaped = lengths()
        assert list(untaped.values()) == [1, 1]
        free = free_sets()
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(shard[0], prompts, backbone,
                                             consts)
            te.cross_entropy(logits, 0)
        # the taped blocks borrowed the very sets the untaped ones returned
        assert not free_sets()
        tape.backward()
        assert lengths() == untaped
        assert free_sets().keys() == free.keys()

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
        # the block's is the one cache: the head builds its own scratch
        assert list(map(id, workspace_caches())) == [id(model._BLOCK_SPACES)]
        model._BLOCK_SPACES.clear()
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


class TestPrimitiveGradients:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_transformer_layer_vs_finite_differences(self, heads):
        cfg = ModelConfig(dim=8, layers=1, heads=heads, mix_layers=())
        blk = init_backbone(31, cfg).blocks[0]
        x = np.random.default_rng(31).normal(size=(5, cfg.dim))

        def loss(v):
            out = _transformer_layer(v, blk, cfg.heads, None)
            return te.cross_entropy(out.reshape(-1), 3)

        with te.Tape() as tape:
            out = _transformer_layer(x, blk, cfg.heads, tape)
        (layer_map,) = tape._ops
        with te.Tape() as loss_tape:
            te.cross_entropy(out.reshape(-1), 3)
        auto = layer_map(loss_tape.backward().reshape(out.shape))
        assert te.grad_rel_error(auto, te.finite_diff_grad(loss, x, 1e-5)) < 1e-6

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
            te.finite_diff_grad(lambda v: loss(v, te.Tensor(head)), seq, 1e-5),
            te.finite_diff_grad(lambda v: loss(seq, te.Tensor(v)), head, 1e-5),
        ]
        for grad, oracle in zip((dseq, block.grad), oracles):
            assert te.grad_rel_error(grad, oracle) < 1e-6


class TestEmbedPatches:
    def test_row_major_patches(self):
        tokens = embed_patches(np.arange(16.0).reshape(1, 4, 4),
                               identity_embedding(2))
        np.testing.assert_array_equal(tokens[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(tokens[0, 3], [10, 11, 14, 15])

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_stacked_equals_per_image_product(self, count):
        # one product over the stack, bit for bit the per-image product the
        # forward made of each image before shards were embedded once
        backbone = init_backbone(5, SMALL)
        images = np.random.default_rng(count).normal(size=(count, 16, 16))
        tokens = embed_patches(images, backbone)
        assert tokens.shape == (count, 4, SMALL.dim)
        for image, got in zip(images, tokens):
            want = np.dot(reference_patchify(image, SMALL.patch_size),
                          backbone.patch_embed)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("size", [8, 24])
    def test_any_multiple_of_patch_size_runs(self, size):
        # the backbone has no position embeddings: its weights fit any
        # image whose side is a multiple of the patch size
        backbone, prompts, bank, priors, _ = make_setup(47)
        image = np.random.default_rng(size).normal(size=(size, size))
        tokens = embed_one(image, backbone)
        assert tokens.shape == ((size // 8) ** 2, SMALL.dim)
        logits, cls = forward_with_prompts(
            tokens, prompts, backbone, bank.score_constants(priors))
        assert np.isfinite(logits).all() and cls.shape == (4, SMALL.dim)


class TestForward:
    def test_plain_prompted_forward_without_mixing(self, monkeypatch):
        cfg = dataclasses.replace(SMALL, mix_layers=())
        # a bank without layers builds no constants, so nothing mixes
        backbone, prompts, bank, priors, image = make_setup(4, cfg)
        consts = bank.score_constants(priors)
        assert consts == {}
        logits, cls, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone, consts)
        assert logits.shape == (4,)
        assert scores == {}
        assert cls.shape == (cfg.layers, cfg.dim)

    def test_one_hot_prior_inserts_exact_class_column(self, monkeypatch):
        backbone, prompts, bank, _, image = make_setup(5)
        priors = np.array([0.0, 0.0, 1.0, 0.0])
        inserted = []
        mix = model._mix

        def recording(seq, class_prompts, consts, replace, tape):
            out = mix(seq, class_prompts, consts, replace, tape)
            inserted.append(out[1].copy())
            return out

        monkeypatch.setattr(model, "_mix", recording)
        _, _, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone,
            bank.score_constants(priors))
        assert set(scores) == set(SMALL.mix_layers)
        for s in scores.values():
            np.testing.assert_array_equal(s, priors)
        assert len(inserted) == len(SMALL.mix_layers)
        for token in inserted:
            np.testing.assert_array_equal(token,
                                          prompts.class_prompts.data[:, 2])

    def test_forward_deterministic(self):
        backbone, prompts, bank, priors, image = make_setup(8)
        consts = bank.score_constants(priors)
        tokens = embed_one(image, backbone)
        a, cls_a = forward_with_prompts(tokens, prompts, backbone, consts)
        b, cls_b = forward_with_prompts(tokens, prompts, backbone, consts)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(cls_a, cls_b)

    def test_scores_match_pure_function_on_traced_cls(self, monkeypatch):
        backbone, prompts, bank, priors, image = make_setup(9)
        _, cls, scores = forward_recording_scores(
            monkeypatch, image, prompts, backbone,
            bank.score_constants(priors))
        first = SMALL.mix_layers[0]
        expected = soft_scores_op(cls[first - 1], ScoreConstants(
            bank.mu[first], priors, SMALL.tau), False)[0]
        np.testing.assert_allclose(scores[first], expected, atol=1e-15)

    def test_backbone_unchanged_by_forward_backward(self):
        backbone, prompts, bank, priors, image = make_setup(11)
        before = backbone_checksum(backbone)
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(embed_one(image, backbone),
                                             prompts, backbone,
                                             bank.score_constants(priors))
            te.cross_entropy(logits, 1)
        tape.backward()
        assert backbone_checksum(backbone) == before
        for arr in backbone_arrays(backbone):
            assert np.isfinite(arr).all()

    def test_without_mixing_class_prompts_do_not_change_logits(self):
        cfg = dataclasses.replace(SMALL, mix_layers=())
        backbone = init_backbone(12, cfg)
        head = np.random.default_rng(12).normal(size=(4, cfg.dim))
        a = PromptParams.from_arrays(np.zeros((cfg.dim, 1)),
                                     np.zeros((cfg.dim, 4)), head)
        b = PromptParams.from_arrays(np.zeros((cfg.dim, 1)),
                                     np.ones((cfg.dim, 4)) * 9.0, head)
        tokens = embed_one(np.random.default_rng(13).normal(size=(16, 16)),
                           backbone)
        la, _ = forward_with_prompts(tokens, a, backbone, {})
        lb, _ = forward_with_prompts(tokens, b, backbone, {})
        np.testing.assert_array_equal(la, lb)


class TestPromptParams:
    @pytest.mark.parametrize("rows, cols", [(16, 0), (16, 3), (17, 1)])
    @pytest.mark.parametrize("build", ["from_arrays", "constructor"])
    def test_shared_block_other_than_one_token_rejected(self, build, rows,
                                                        cols):
        # every run has one shared prompt token, a (dim, 1) block
        arrays = (np.zeros((rows, cols)), np.zeros((16, 4)),
                  np.zeros((4, 16)))
        make = (PromptParams.from_arrays if build == "from_arrays" else
                lambda *a: PromptParams(*map(te.Tensor, a)))
        with pytest.raises(ValueError) as err:
            make(*arrays)
        assert str(err.value) == (
            f"shared prompt block must be (16, 1), got ({rows}, {cols})")


class TestForwardShard:
    @pytest.mark.parametrize("mixing", [True, False])
    @pytest.mark.parametrize("shard", ["one", "desk"])
    def test_equals_stacked_per_sample_forwards(self, mixing, shard):
        # the desk workload's model, data and partition; client 0's shard
        spec = SyntheticSpec(classes=8, train_per_class=40, test_per_class=12)
        ds = generate_synthetic(spec, 0)
        part = partition_pathological(ds, 12, 2, 0)
        cfg = ModelConfig() if mixing else ModelConfig(mix_layers=())
        backbone, prompts, bank, _, _ = make_setup(17, cfg, classes=8)
        prompts.head.data[...] = np.random.default_rng(17).normal(
            size=prompts.head.data.shape)
        client = build_clients(ds, part, backbone)[0]
        tokens = client.train_x[:1] if shard == "one" else client.train_x
        consts = bank.score_constants(client.priors)
        logits, cls = forward_shard(tokens, prompts, backbone, consts)
        singles = [forward_with_prompts(x, prompts, backbone, consts)
                   for x in tokens]
        n = len(tokens)
        assert logits.shape == (n, 8) and cls.shape == (cfg.layers, n, cfg.dim)
        assert np.array_equal(
            logits, np.stack([out for out, _ in singles]))
        assert np.array_equal(cls, np.stack([c for _, c in singles], axis=1))


class TestGradients:
    def test_gradient_check_reports_each_block_reproducibly(self):
        # `fedprompt gradcheck` prints these figures, so two calls must
        # agree bit for bit and leave numpy's global generator alone
        before = np.random.get_state()[1].copy()
        report = gradient_check()
        assert set(report) == {"shared", "class", "head", "max"}
        assert report["max"] == max(report["shared"], report["class"],
                                    report["head"])
        assert report["max"] < GRADCHECK_THRESHOLD
        assert gradient_check() == report
        assert np.array_equal(np.random.get_state()[1], before)

    def test_frozen_backbone_receives_no_gradients(self):
        backbone, prompts, bank, priors, image = make_setup(15)
        before = backbone_checksum(backbone)
        with te.Tape() as tape:
            logits, _ = forward_with_prompts(embed_one(image, backbone),
                                             prompts, backbone,
                                             bank.score_constants(priors))
            te.cross_entropy(logits, 2)
        tape.backward()
        # plain arrays have no gradient slot, so no backward can write one
        for arr in backbone_arrays(backbone):
            assert type(arr) is np.ndarray
        assert backbone_checksum(backbone) == before
