"""Frozen transformer backbone with trainable prompt slots.

The backbone is a small pre-LN vision transformer whose weights never
receive gradients.  Three parameter blocks train: a shared prompt block
prepended to the token sequence at the first layer, one set of class
prompt columns mixed into a per-sample token at designated intermediate
layers, and the classification head applied to the final cls token.

Token layout per layer input: [cls, (mixed prompt), shared prompts,
image tokens].  The mixed-prompt token is inserted at the first
configured mixing layer and, by default, replaced with a freshly mixed
token at each later mixing layer so every such layer sees class evidence
computed from its own incoming cls state; a config flag switches to
propagating the first mixture unchanged instead.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as te
from .errors import ConfigError
from .prototypes import ScoreConstants, soft_scores_op
from .seeding import derive_rng

INIT_SCALE = 0.02


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 32
    layers: int = 8
    heads: int = 2
    image_size: int = 16
    patch_size: int = 8
    mlp_mult: int = 4
    mix_layers: tuple = (5, 6, 7)
    tau: float = 0.05
    refresh_mix: bool = True
    detach_scores: bool = False

    def __post_init__(self):
        for name in ("dim", "layers", "heads", "image_size", "patch_size",
                     "mlp_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"model {name} must be >= 1, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError("image size must be a multiple of patch size")
        if any(not 1 <= l <= self.layers for l in self.mix_layers):
            raise ConfigError("mixing layers must lie within [1, layers]")
        if len(set(self.mix_layers)) != len(self.mix_layers):
            raise ConfigError(
                f"model mix_layers must not repeat a layer, got {self.mix_layers}")
        if self.tau <= 0:
            raise ConfigError("temperature must be positive")

    @property
    def patch_dim(self) -> int:
        return self.patch_size**2

    def without_mixing(self) -> "ModelConfig":
        return replace(self, mix_layers=())


@dataclass
class LayerWeights:
    """One block's projections.  Its layer norms have no affine map and
    its projections no bias: the frozen backbone's gains are all one and
    its biases all zero, so they are left out."""

    w_qkv: np.ndarray  # (d, 3d): query, key and value side by side
    w_out: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass
class BackboneWeights:
    """Frozen weights: plain arrays, so no gradient can reach them."""

    patch_embed: np.ndarray
    cls_embed: np.ndarray
    blocks: list


def init_backbone(seed: int, cfg: ModelConfig) -> BackboneWeights:
    """Deterministic fan-in-scaled initialization of a frozen backbone.

    A random frozen network only works as a feature extractor when each
    layer actually mixes token content, so projection weights use the
    standard 1/sqrt(fan_in) scale; a much smaller scale would leave the
    residual stream (and the cls token in particular) carrying almost no
    input signal.
    """
    rng = derive_rng(seed, "backbone")

    def frozen(fan_in, *shape):
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)

    d, hidden = cfg.dim, cfg.dim * cfg.mlp_mult
    blocks = []
    for _ in range(cfg.layers):
        blocks.append(
            LayerWeights(
                # query, key and value, drawn in that order
                w_qkv=np.concatenate([frozen(d, d, d) for _ in range(3)],
                                     axis=1),
                w_out=frozen(d, d, d),
                w_up=frozen(d, d, hidden),
                w_down=frozen(hidden, hidden, d),
            )
        )
    return BackboneWeights(
        patch_embed=frozen(cfg.patch_dim, cfg.patch_dim, d),
        cls_embed=rng.normal(0.0, 1.0, size=d),
        blocks=blocks,
    )


@dataclass
class PromptParams:
    """The only trainable blocks: shared prompts, class prompts, head."""

    shared: te.Tensor       # (dim, n_shared)
    class_prompts: te.Tensor  # (dim, classes)
    head: te.Tensor         # (classes, dim)

    @classmethod
    def init(cls, seed: int, dim: int, classes: int, n_shared: int) -> "PromptParams":
        rng = derive_rng(seed, "prompt-init")
        return cls(
            shared=te.parameter(rng.normal(0.0, INIT_SCALE, size=(dim, n_shared))),
            class_prompts=te.parameter(rng.normal(0.0, INIT_SCALE, size=(dim, classes))),
            head=te.parameter(np.zeros((classes, dim))),
        )

    @classmethod
    def from_arrays(cls, shared, class_prompts, head) -> "PromptParams":
        return cls(
            shared=te.parameter(np.array(shared, dtype=np.float64)),
            class_prompts=te.parameter(np.array(class_prompts, dtype=np.float64)),
            head=te.parameter(np.array(head, dtype=np.float64)),
        )

    def copy(self) -> "PromptParams":
        return PromptParams.from_arrays(
            self.shared.data, self.class_prompts.data, self.head.data
        )

    def blocks(self):
        return (("shared", self.shared), ("class", self.class_prompts),
                ("head", self.head))

    def zero_grad(self):
        for _, block in self.blocks():
            block.zero_grad()

    @property
    def num_classes(self) -> int:
        return self.head.data.shape[0]


def patchify(image: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Split an image into row-major patches, each flattened to a row."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (cfg.image_size, cfg.image_size):
        raise ConfigError(
            f"expected {cfg.image_size}x{cfg.image_size} image, got {image.shape}"
        )
    p = cfg.patch_size
    n = cfg.image_size // p
    return image.reshape(n, p, n, p).transpose(0, 2, 1, 3).reshape(n * n, p * p)


_GELU_C = np.sqrt(2.0 / np.pi)


def _split_heads(m, heads):
    tokens, d = m.shape
    return m.reshape(tokens, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(m):
    heads, tokens, head_dim = m.shape
    return m.transpose(1, 0, 2).reshape(tokens, heads * head_dim)


def _transformer_layer(x: te.Tensor, blk: LayerWeights, heads: int) -> te.Tensor:
    """One pre-LN block as a single fused primitive.

    The backbone is frozen, so backward only has to produce the gradient
    with respect to the incoming token matrix; deriving it by hand keeps
    the per-sample step two orders of magnitude cheaper than composing
    the generic ops, and the finite-difference suite checks it end to
    end.
    """
    w_qkv, w_out, w_up, w_down = blk.w_qkv, blk.w_out, blk.w_up, blk.w_down
    xv = x.data
    tokens, d = xv.shape
    inv_sqrt = 1.0 / np.sqrt(d // heads)

    xhat1, inv1 = te.norm_rows(xv)
    # one GEMM for Q, K and V, viewed as (3, heads, tokens, head_dim)
    q, k, v = (xhat1 @ w_qkv).reshape(
        tokens, 3, heads, d // heads).transpose(1, 2, 0, 3)
    scores = q @ k.transpose(0, 2, 1) * inv_sqrt
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    attn = np.exp(scores)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    x1 = _merge_heads(attn @ v) @ w_out
    x1 += xv

    xhat2, inv2 = te.norm_rows(x1)
    u = xhat2 @ w_up
    # u2 * u, not u**3: a float power goes through libm pow, ~40x slower
    u2 = u * u
    t = np.tanh(_GELU_C * (u + 0.044715 * (u2 * u)))
    x2 = (0.5 * u * (1.0 + t)) @ w_down
    x2 += x1

    out = te.Tensor(x2, requires_grad=te.active_tape() is not None
                    and x.requires_grad)
    if not out.requires_grad:
        return out

    def backward():
        dout = out.grad
        # MLP branch
        dgelu = dout @ w_down.T
        du = dgelu * (0.5 * (1.0 + t)
                      + 0.5 * u * (1.0 - t * t)
                      * _GELU_C * (1.0 + 3 * 0.044715 * u2))
        dx1 = te.norm_rows_backward(du @ w_up.T, xhat2, inv2)
        dx1 += dout
        # attention branch
        do_heads = _split_heads(dx1 @ w_out.T, heads)
        dattn = do_heads @ v.transpose(0, 2, 1)
        dv = attn.transpose(0, 2, 1) @ do_heads
        dscores = attn * (dattn - np.add.reduce(dattn * attn, axis=-1,
                                                keepdims=True))
        dscores *= inv_sqrt
        dq = dscores @ k
        dk = dscores.transpose(0, 2, 1) @ q
        # three GEMMs, not one against w_qkv: that would sum in another order
        dh1 = (_merge_heads(dq) @ w_qkv[:, :d].T
               + _merge_heads(dk) @ w_qkv[:, d:2 * d].T
               + _merge_heads(dv) @ w_qkv[:, 2 * d:].T)
        x.grad += dx1 + te.norm_rows_backward(dh1, xhat1, inv1)

    te.record(out, backward)
    return out


def _embed(image, shared: te.Tensor, backbone: BackboneWeights,
           cfg: ModelConfig) -> te.Tensor:
    """Token matrix [cls, shared prompts, patch tokens] as one primitive;
    its gradient flows into the shared prompts only."""
    tokens = patchify(image, cfg) @ backbone.patch_embed
    n_shared = shared.data.shape[1]
    out = te.Tensor(
        np.concatenate([backbone.cls_embed[None, :], shared.data.T, tokens]),
        requires_grad=(n_shared > 0 and shared.requires_grad
                       and te.active_tape() is not None))
    if out.requires_grad:
        def backward():
            shared.grad += out.grad[1:1 + n_shared].T

        te.record(out, backward)
    return out


def _cls_column(seq: te.Tensor) -> te.Tensor:
    """The cls token of `seq` as a (dim, 1) column, the input of the
    scores."""
    out = te.Tensor(seq.data[0:1].T, requires_grad=seq.requires_grad
                    and te.active_tape() is not None)
    if out.requires_grad:
        def backward():
            seq.grad[0:1] += out.grad.T

        te.record(out, backward)
    return out


def _insert_mixed(seq: te.Tensor, class_prompts: te.Tensor, scores: te.Tensor,
                  replace: bool) -> te.Tensor:
    """`seq` with the mixed prompt P @ s as its second token: inserted
    after cls, or with `replace` in place of the mixed token an earlier
    layer inserted."""
    x = seq.data
    start = 2 if replace else 1
    mixed = class_prompts.data @ scores.data
    out = te.Tensor(
        np.concatenate([x[0:1], mixed.T, x[start:]]),
        requires_grad=te.active_tape() is not None and (
            seq.requires_grad or class_prompts.requires_grad
            or scores.requires_grad))
    if out.requires_grad:
        def backward():
            g = out.grad
            if seq.requires_grad:
                seq.grad[start:] += g[2:]
                seq.grad[0:1] += g[0:1]
            dmixed = g[1:2].T
            if class_prompts.requires_grad:
                class_prompts.grad += dmixed @ scores.data.T
            if scores.requires_grad:
                scores.grad += class_prompts.data.T @ dmixed

        te.record(out, backward)
    return out


def _head(seq: te.Tensor, head: te.Tensor) -> te.Tensor:
    """Logits head @ LN(cls) of the last layer's cls row, as one
    primitive."""
    row, inv = te.norm_rows(seq.data[0:1])
    out = te.Tensor(head.data @ row.T,
                    requires_grad=te.active_tape() is not None
                    and (head.requires_grad or seq.requires_grad))
    if out.requires_grad:
        def backward():
            g = out.grad
            if head.requires_grad:
                head.grad += g @ row
            if seq.requires_grad:
                seq.grad[0:1] += te.norm_rows_backward(
                    (head.data.T @ g).T, row, inv)

        te.record(out, backward)
    return out


def score_constants(cfg: ModelConfig, bank=None, priors=None) -> dict:
    """Mixing layer -> `ScoreConstants` for one client's score priors and
    the bank's current prototypes; empty without mixing layers.

    Build them once per client and bank state and pass them to every
    `forward_with_prompts` over that client's samples.
    """
    if not cfg.mix_layers:
        return {}
    if bank is None:
        raise ConfigError("mixing layers configured but no prototype bank given")
    if priors is None:
        raise ConfigError("mixing layers configured but no class priors given")
    missing = [l for l in cfg.mix_layers if l not in bank.mu]
    if missing:
        raise ConfigError(f"prototype bank missing layers {missing}")
    return {l: ScoreConstants(bank.mu[l], priors, cfg.tau, cfg.dim)
            for l in cfg.mix_layers}


def forward_with_prompts(image, prompts: PromptParams, backbone: BackboneWeights,
                         cfg: ModelConfig, consts: dict):
    """Run one sample through the prompted frozen backbone.

    Returns (logits, cls): the logits Tensor of shape (classes, 1) and a
    (layers, dim) array whose row `l - 1` is the cls token entering layer
    `l`.  `consts` is what `score_constants` built for the client's priors
    and the bank; with mixing layers, gradients flow through the score
    computation into upstream activations and into the class prompts,
    while prototypes stay constant.

    The pass is a chain of fused primitives, each recording one backward
    closure: embedding, per layer the optional prompt mixing (cls column,
    scores, insertion) and the transformer block, then the head.
    """
    cls = np.empty((cfg.layers, cfg.dim))
    seq = _embed(image, prompts.shared, backbone, cfg)
    mix_inserted = False
    for layer in range(1, cfg.layers + 1):
        cls[layer - 1] = seq.data[0]
        if layer in cfg.mix_layers and (not mix_inserted or cfg.refresh_mix):
            scores = soft_scores_op(_cls_column(seq), consts[layer],
                                    detach=cfg.detach_scores)
            seq = _insert_mixed(seq, prompts.class_prompts, scores,
                                replace=mix_inserted)
            mix_inserted = True
        seq = _transformer_layer(seq, backbone.blocks[layer - 1], cfg.heads)
    return _head(seq, prompts.head), cls


def forward_shard(images, prompts: PromptParams, backbone: BackboneWeights,
                  cfg: ModelConfig, consts: dict):
    """Untaped `forward_with_prompts` over a shard of N images.

    Returns (logits, cls): an (N, classes) array, and a (layers, N, dim)
    array of the cls tokens entering each layer.
    """
    logits = np.empty((len(images), prompts.num_classes))
    cls = np.empty((cfg.layers, len(images), cfg.dim))
    for i, image in enumerate(images):
        out, cls[:, i] = forward_with_prompts(image, prompts, backbone, cfg,
                                              consts)
        logits[i] = out.data[:, 0]
    return logits, cls


def gradient_check(seed: int = 0, dim: int = 16, layers: int = 4, classes: int = 4,
                   heads: int = 2, n_shared: int = 1, mix_layers=None,
                   image_size: int = 16, patch_size: int = 8,
                   h: float = 1e-5) -> dict:
    """Compare tape gradients of the trainable blocks against central
    finite differences on a randomly initialized prompted model.

    Returns {"shared": err, "class": err, "head": err, "max": err}.
    """
    from .prototypes import PrototypeBank  # local import to avoid cycle noise

    if mix_layers is None:
        mid = max(1, layers // 2)
        mix_layers = tuple(sorted({mid, min(layers, mid + 1)}))
    cfg = ModelConfig(dim=dim, layers=layers, heads=heads, image_size=image_size,
                      patch_size=patch_size, mix_layers=tuple(mix_layers))
    rng = derive_rng(seed, "gradcheck")
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.init(seed, dim, classes, n_shared)
    prompts.head.data[...] = rng.normal(0.0, 0.5, size=prompts.head.data.shape)
    bank = PrototypeBank(layers=tuple(mix_layers), num_classes=classes, dim=dim)
    for l in mix_layers:
        bank.mu[l] = rng.normal(size=(classes, dim))
    priors = rng.random(classes)
    priors /= priors.sum()
    image = rng.normal(size=(image_size, image_size))
    label = int(rng.integers(classes))

    consts = score_constants(cfg, bank, priors)

    prompts.zero_grad()
    with te.Tape() as tape:
        logits, _ = forward_with_prompts(image, prompts, backbone, cfg, consts)
        loss = te.cross_entropy(logits, label)
    tape.backward(loss)

    def loss_at(shared, class_prompts, head):
        probe = PromptParams.from_arrays(shared, class_prompts, head)
        logits, _ = forward_with_prompts(image, probe, backbone, cfg, consts)
        return float(te.cross_entropy(logits, label).data)

    base = {name: block.data.copy() for name, block in prompts.blocks()}
    report = {}
    for name, block in prompts.blocks():
        def f(x, name=name):
            args = dict(base)
            args[name] = x
            return loss_at(args["shared"], args["class"], args["head"])

        oracle = te.finite_diff_grad(f, base[name], h=h)
        report[name] = te.grad_rel_error(block.grad, oracle)
    report["max"] = max(report.values())
    return report
