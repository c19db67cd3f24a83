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

import math
from dataclasses import dataclass

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
            shared=te.Tensor(rng.normal(0.0, INIT_SCALE, size=(dim, n_shared))),
            class_prompts=te.Tensor(rng.normal(0.0, INIT_SCALE, size=(dim, classes))),
            head=te.Tensor(np.zeros((classes, dim))),
        )

    @classmethod
    def from_arrays(cls, shared, class_prompts, head) -> "PromptParams":
        """Blocks holding copies of the three arrays."""
        return cls(te.Tensor(shared), te.Tensor(class_prompts), te.Tensor(head))

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


_GELU_C = te.scalar(np.sqrt(2.0 / np.pi))
_GELU_A = te.scalar(0.044715)
_GELU_3A = te.scalar(3 * 0.044715)


def _transformer_layer(x, blk: LayerWeights, heads: int, tape=None):
    """One pre-LN block as a single fused primitive over the token matrix.

    The backbone is frozen, so the map it records on `tape` only has to
    take the output gradient to the gradient of the incoming token
    matrix; deriving it by hand keeps the per-sample step two orders of
    magnitude cheaper than composing generic ops, and the
    finite-difference suite checks it end to end.

    Every ufunc writes with `out=`: temporaries come from `te.SCRATCH`,
    and what the map captures from `te.FRESH` under a tape (from the pool
    without one).  The output and the map's result are fresh arrays.
    """
    w_qkv, w_out, w_up, w_down = blk.w_qkv, blk.w_out, blk.w_up, blk.w_down
    tokens, d = x.shape
    head_dim = d // heads
    hidden = w_up.shape[1]
    inv_sqrt = te.scalar(1.0 / math.sqrt(head_dim))
    pool = te.SCRATCH
    keep = pool if tape is None else te.FRESH

    xhat1, inv1 = te.norm_rows(x, keep["xhat1", tokens, d],
                               keep["inv1", tokens, 1])
    # one GEMM for Q, K and V, viewed as (3, heads, tokens, head_dim)
    qkv = np.dot(xhat1, w_qkv, keep["qkv", tokens, 3 * d]).reshape(
        tokens, 3, heads, head_dim).transpose(1, 2, 0, 3)
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = np.matmul(q, k.transpose(0, 2, 1),
                       pool["scores", heads, tokens, tokens])
    np.multiply(scores, inv_sqrt, scores)
    # reductions into the 1-D view of a column dispatch fastest
    col = pool["col", heads, tokens, 1]
    flat = col[:, :, 0]
    np.maximum.reduce(scores, 2, None, flat)
    attn = np.exp(np.subtract(scores, col, scores),
                  keep["attn", heads, tokens, tokens])
    np.add.reduce(attn, 2, None, flat)
    np.divide(attn, col, attn)
    # written head by head into the (tokens, d) layout
    merged = pool["merged", tokens, d]
    np.matmul(attn, v,
              merged.reshape(tokens, heads, head_dim).transpose(1, 0, 2))
    x1 = np.dot(merged, w_out, pool["x1", tokens, d])
    np.add(x1, x, x1)

    xhat2, inv2 = te.norm_rows(x1, keep["xhat2", tokens, d],
                               keep["inv2", tokens, 1])
    u = np.dot(xhat2, w_up, pool["u", tokens, hidden])
    # u2 * u, not u**3: a float power goes through libm pow, ~40x slower
    u2 = np.multiply(u, u, keep["u2", tokens, hidden])
    inner = np.multiply(u2, u, pool["mlp", tokens, hidden])
    np.multiply(_GELU_A, inner, inner)
    np.add(u, inner, inner)
    t = np.tanh(np.multiply(_GELU_C, inner, inner), keep["t", tokens, hidden])
    # GELU (0.5 u)(1 + t), keeping both factors for the map
    half_u = np.multiply(te.HALF, u, keep["half_u", tokens, hidden])
    one_t = np.add(te.ONE, t, keep["one_t", tokens, hidden])
    x2 = np.dot(np.multiply(half_u, one_t, inner), w_down)
    np.add(x2, x1, x2)
    if tape is None:
        return x2

    def backward(dout):
        # MLP branch: du = dgelu * (0.5 (1 + t)
        #                           + 0.5 u (1 - t^2) c (1 + 3a u^2))
        slope = np.multiply(te.HALF, one_t, pool["b.slope", tokens, hidden])
        sech2 = np.multiply(t, t, pool["b.sech2", tokens, hidden])
        np.subtract(te.ONE, sech2, sech2)
        tail = np.multiply(half_u, sech2, pool["b.tail", tokens, hidden])
        np.multiply(tail, _GELU_C, tail)
        cubic = np.multiply(_GELU_3A, u2, sech2)
        np.multiply(tail, np.add(te.ONE, cubic, cubic), tail)
        np.add(slope, tail, slope)
        du = np.dot(dout, w_down.T, pool["b.du", tokens, hidden])
        np.multiply(du, slope, du)
        dx1 = np.dot(du, w_up.T, pool["b.dx1", tokens, d])
        te.norm_rows_backward(dx1, xhat2, inv2, dx1)
        np.add(dx1, dout, dx1)
        # attention branch
        do_heads = np.dot(dx1, w_out.T, pool["b.do", tokens, d]).reshape(
            tokens, heads, head_dim).transpose(1, 0, 2)
        dattn = np.matmul(do_heads, v.transpose(0, 2, 1),
                          pool["b.dattn", heads, tokens, tokens])
        weighted = np.multiply(dattn, attn, pool["b.w", heads, tokens, tokens])
        col = pool["b.col", heads, tokens, 1]
        np.add.reduce(weighted, 2, None, col[:, :, 0])
        np.subtract(dattn, col, dattn)
        dscores = np.multiply(attn, dattn, dattn)
        np.multiply(dscores, inv_sqrt, dscores)
        # dq, dk and dv in turn, each written head by head into the
        # (tokens, d) layout and taken through its own GEMM: one against
        # w_qkv would sum in another order, and np.dot on the column
        # slices differs from `@` in the bits
        merged = pool["b.merged", tokens, d]
        by_head = merged.reshape(tokens, heads, head_dim).transpose(1, 0, 2)
        dh1 = pool["b.dh1", tokens, d]
        part = pool["b.part", tokens, d]
        np.matmul(dscores, k, by_head)
        np.matmul(merged, w_qkv[:, :d].T, dh1)
        np.matmul(dscores.transpose(0, 2, 1), q, by_head)
        np.add(dh1, np.matmul(merged, w_qkv[:, d:2 * d].T, part), dh1)
        np.matmul(attn.transpose(0, 2, 1), do_heads, by_head)
        np.add(dh1, np.matmul(merged, w_qkv[:, 2 * d:].T, part), dh1)
        dx = te.norm_rows_backward(dh1, xhat1, inv1)
        return np.add(dx1, dx, dx)

    tape.record(backward)
    return x2


def _embed(image, shared: te.Tensor, backbone: BackboneWeights,
           cfg: ModelConfig, tape=None):
    """Token matrix [cls, shared prompts, patch tokens] as one primitive;
    its map adds into the shared prompts and has no input to pass on."""
    patches = patchify(image, cfg)
    n_shared = shared.data.shape[1]
    seq = np.empty((1 + n_shared + len(patches), cfg.dim))
    seq[0] = backbone.cls_embed
    seq[1:1 + n_shared] = shared.data.T
    np.dot(patches, backbone.patch_embed, seq[1 + n_shared:])
    if tape is not None:
        def backward(g):
            shared.grad += g[1:1 + n_shared].T

        tape.record(backward)
    return seq


def _mix(seq, class_prompts: te.Tensor, consts: ScoreConstants, replace: bool,
         detach: bool, tape, upstream: bool):
    """`seq` with the mixed prompt P @ s as its second token: inserted
    after cls, or with `replace` in place of the mixed token an earlier
    layer inserted.  The scores s are computed from the cls row; with
    `detach` no gradient flows back through them.

    `upstream` says whether a trainable block feeds `seq`.  Without one
    the map only adds into the class prompts and returns None, and the
    scores get no map of their own.
    """
    start = 2 if replace else 1
    scores, scores_map = soft_scores_op(
        seq[0], consts, tape is not None and upstream and not detach)
    out = np.empty((len(seq) + 2 - start, seq.shape[1]))
    out[0] = seq[0]
    np.dot(class_prompts.data, scores, out[1])
    out[2:] = seq[start:]
    if tape is not None:
        def backward(g):
            dmixed = g[1:2].T
            class_prompts.grad += dmixed @ scores[None, :]
            if not upstream:
                return None
            dseq = np.zeros_like(seq)
            dseq[start:] = g[2:]
            dseq[0] = g[0]
            if scores_map is not None:
                dseq[0] += scores_map(
                    (class_prompts.data.T @ dmixed).reshape(-1))
            return dseq

        tape.record(backward)
    return out


def _head(seq, head: te.Tensor, tape, upstream: bool):
    """Logits head @ LN(cls) of the last layer's cls row, as one
    primitive.  With `upstream` False (no trainable block feeds `seq`)
    its map only adds into the head and returns None."""
    keep = te.SCRATCH if tape is None else te.FRESH
    row, inv = te.norm_rows(seq[0:1], keep["head.row", 1, seq.shape[1]],
                            keep["head.inv", 1, 1])
    if tape is not None:
        def backward(g):
            g = g.reshape(-1, 1)
            head.grad += g @ row
            if not upstream:
                return None
            dseq = np.zeros_like(seq)
            te.norm_rows_backward((head.data.T @ g).T, row, inv, dseq[0:1])
            return dseq

        tape.record(backward)
    return np.dot(head.data, row[0])


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

    Returns (logits, cls): the (classes,) logits and a (layers, dim) array
    whose row `l - 1` is the cls token entering layer `l`.  `consts` is
    what `score_constants` built for the client's priors and the bank;
    with mixing layers, gradients flow through the scores into upstream
    activations and into the class prompts, while prototypes stay
    constant.

    The pass is a chain of fused primitives over plain arrays: embedding,
    per layer the optional prompt mixing and the transformer block, then
    the head.  Under a tape each records one backward map; a block
    records one only once a trainable block feeds the token matrix, and
    the mixing and head maps pass an input gradient on only then.
    """
    tape = te.active_tape()
    live = tape if prompts.shared.data.shape[1] else None
    seq = _embed(image, prompts.shared, backbone, cfg, live)
    cls = np.empty((cfg.layers, cfg.dim))
    mixed = False
    for layer in range(1, cfg.layers + 1):
        cls[layer - 1] = seq[0]
        if layer in cfg.mix_layers and (not mixed or cfg.refresh_mix):
            seq = _mix(seq, prompts.class_prompts, consts[layer], mixed,
                       cfg.detach_scores, tape, live is not None)
            mixed = True
            live = tape
        seq = _transformer_layer(seq, backbone.blocks[layer - 1], cfg.heads,
                                 live)
    return _head(seq, prompts.head, tape, live is not None), cls


def forward_shard(images, prompts: PromptParams, backbone: BackboneWeights,
                  cfg: ModelConfig, consts: dict):
    """Untaped `forward_with_prompts` over a shard of N images.

    Returns (logits, cls): an (N, classes) array, and a (layers, N, dim)
    array of the cls tokens entering each layer.
    """
    logits = np.empty((len(images), prompts.num_classes))
    cls = np.empty((cfg.layers, len(images), cfg.dim))
    for i, image in enumerate(images):
        logits[i], cls[:, i] = forward_with_prompts(image, prompts, backbone,
                                                    cfg, consts)
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
        te.cross_entropy(logits, label)
    tape.backward()

    def loss_at(shared, class_prompts, head):
        probe = PromptParams.from_arrays(shared, class_prompts, head)
        logits, _ = forward_with_prompts(image, probe, backbone, cfg, consts)
        return te.cross_entropy(logits, label)

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
