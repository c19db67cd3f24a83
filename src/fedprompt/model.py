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
# MLP width as a multiple of `dim`
MLP_MULT = 4
# `gradient_check`'s shared prompts, image and patch sides, and step
GRADCHECK_SHARED, GRADCHECK_IMAGE, GRADCHECK_PATCH, GRADCHECK_H = 1, 16, 8, 1e-5


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 32
    layers: int = 8
    heads: int = 2
    patch_size: int = 8
    mix_layers: tuple = (5, 6, 7)
    tau: float = 0.05
    refresh_mix: bool = True
    detach_scores: bool = False

    def __post_init__(self):
        for name in ("dim", "layers", "heads", "patch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"model {name} must be >= 1, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if any(not 1 <= l <= self.layers for l in self.mix_layers):
            raise ConfigError("mixing layers must lie within [1, layers]")
        if len(set(self.mix_layers)) != len(self.mix_layers):
            raise ConfigError(
                f"model mix_layers must not repeat a layer, got {self.mix_layers}")
        if self.tau <= 0:
            raise ConfigError("temperature must be positive")


@dataclass
class LayerWeights:
    """One block's projections.  Its layer norms have no affine map and
    its projections no bias: the frozen backbone's gains are all one and
    its biases all zero, so they are left out.  It also keeps the
    transposed views the block's map reads, made once."""

    w_qkv: np.ndarray  # (d, 3d): query, key and value side by side
    w_out: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray

    def __post_init__(self):
        d = self.w_out.shape[0]
        self.qkv_t = [self.w_qkv[:, i * d:(i + 1) * d].T for i in range(3)]
        self.out_t, self.up_t, self.down_t = self.w_out.T, self.w_up.T, self.w_down.T


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

    d, hidden, patch = cfg.dim, cfg.dim * MLP_MULT, cfg.patch_size**2
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
        patch_embed=frozen(patch, patch, d),
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
    """Split a square image into row-major patches, one flattened row each."""
    image = np.asarray(image, dtype=np.float64)
    p = cfg.patch_size
    if image.ndim != 2 or image.shape[0] != image.shape[1] or image.shape[0] % p:
        raise ConfigError(f"expected a square image whose side is a multiple "
                          f"of patch size {p}, got shape {image.shape}")
    n = image.shape[0] // p
    return image.reshape(n, p, n, p).transpose(0, 2, 1, 3).reshape(n * n, p * p)


_GELU_C = te.scalar(np.sqrt(2.0 / np.pi))
_GELU_A = te.scalar(0.044715)
_GELU_3A = te.scalar(3 * 0.044715)


class _Kept:
    """What the block's map reads: the layer norms' outputs, the QKV
    product and its per-head views, the attention and the GELU factors.
    Untaped, the workspace's own set; taped, one lent from its free list."""

    __slots__ = ("xhat1", "inv1", "qkv", "q", "k", "v", "k_t", "v_t", "attn",
                 "attn_t", "xhat2", "inv2", "u2", "t", "half_u", "one_t")

    def __init__(self, tokens, d, heads, hidden):
        self.xhat1, self.xhat2 = np.empty((2, tokens, d))
        self.inv1, self.inv2 = np.empty((2, tokens, 1))
        self.qkv = np.empty((tokens, 3 * d))
        # (3, heads, tokens, head_dim)
        self.q, self.k, self.v = self.qkv.reshape(
            tokens, 3, heads, d // heads).transpose(1, 2, 0, 3)
        self.k_t, self.v_t = self.k.transpose(0, 2, 1), self.v.transpose(0, 2, 1)
        self.attn = np.empty((heads, tokens, tokens))
        self.attn_t = self.attn.transpose(0, 2, 1)
        self.u2, self.t, self.half_u, self.one_t = np.empty((4, tokens, hidden))


class _BlockSpace:
    """The workspace of the block and its map at one (tokens, d, heads,
    hidden): temporaries, their per-head views, constants, `_Kept` sets."""

    def __init__(self, tokens, d, heads, hidden):
        head_dim = d // heads
        self.inv_sqrt = te.scalar(1.0 / math.sqrt(head_dim))
        self.norm = te.NormSpace(tokens, d)
        self.kept, self.free = _Kept(tokens, d, heads, hidden), []
        self.scores, self.dattn, self.weighted = np.empty((3, heads, tokens, tokens))
        self.dattn_t = self.dattn.transpose(0, 2, 1)
        # reductions into the 1-D view of a column dispatch fastest
        self.col = np.empty((heads, tokens, 1))
        self.col_flat = self.col[:, :, 0]
        self.merged, self.do, self.x1, self.dx1, self.dh1, self.part = rows = (
            np.empty((6, tokens, d)))
        # the first two head by head, as (heads, tokens, head_dim)
        self.merged_heads, self.do_heads = rows[:2].reshape(
            2, tokens, heads, head_dim).transpose(0, 2, 1, 3)
        self.u, self.inner, self.slope, self.sech2, self.tail, self.du = (
            np.empty((6, tokens, hidden)))


_BLOCK_SPACES = te.Workspaces(_BlockSpace)


def _transformer_layer(x, blk: LayerWeights, heads: int, tape=None):
    """One pre-LN block as a single fused primitive over the token matrix.

    The backbone is frozen, so the map it records on `tape` only has to
    take the output gradient to the gradient of the incoming token
    matrix; deriving it by hand keeps the per-sample step two orders of
    magnitude cheaper than composing generic ops, and the
    finite-difference suite checks it end to end.

    Every ufunc writes with `out=` into the workspace of the block's shape,
    and what the map reads into a `_Kept` set, lent to a tape until its
    backward.  The output and the map's result are fresh arrays.
    """
    tokens, d = x.shape
    hidden = blk.w_up.shape[1]
    ws = _BLOCK_SPACES[tokens, d, heads, hidden]
    kp = ws.kept
    if tape is not None:
        kp = ws.free.pop() if ws.free else _Kept(tokens, d, heads, hidden)
        tape.lend(ws.free, kp)

    te.norm_rows(x, kp.xhat1, kp.inv1, ws.norm)
    # one GEMM for Q, K and V
    np.dot(kp.xhat1, blk.w_qkv, kp.qkv)
    scores = np.matmul(kp.q, kp.k_t, ws.scores)
    np.multiply(scores, ws.inv_sqrt, scores)
    np.maximum.reduce(scores, 2, None, ws.col_flat)
    attn = np.exp(np.subtract(scores, ws.col, scores), kp.attn)
    np.add.reduce(attn, 2, None, ws.col_flat)
    np.divide(attn, ws.col, attn)
    # written head by head into the (tokens, d) layout
    np.matmul(attn, kp.v, ws.merged_heads)
    x1 = np.dot(ws.merged, blk.w_out, ws.x1)
    np.add(x1, x, x1)

    te.norm_rows(x1, kp.xhat2, kp.inv2, ws.norm)
    u = np.dot(kp.xhat2, blk.w_up, ws.u)
    # u2 * u, not u**3: a float power goes through libm pow, ~40x slower
    u2 = np.multiply(u, u, kp.u2)
    inner = np.multiply(u2, u, ws.inner)
    np.multiply(_GELU_A, inner, inner)
    np.add(u, inner, inner)
    t = np.tanh(np.multiply(_GELU_C, inner, inner), kp.t)
    # GELU (0.5 u)(1 + t), keeping both factors for the map
    half_u = np.multiply(te.HALF, u, kp.half_u)
    one_t = np.add(te.ONE, t, kp.one_t)
    x2 = np.dot(np.multiply(half_u, one_t, inner), blk.w_down)
    np.add(x2, x1, x2)
    if tape is None:
        return x2

    def backward(dout):
        # MLP branch: du = dgelu * (0.5 (1 + t)
        #                           + 0.5 u (1 - t^2) c (1 + 3a u^2))
        slope = np.multiply(te.HALF, kp.one_t, ws.slope)
        sech2 = np.multiply(kp.t, kp.t, ws.sech2)
        np.subtract(te.ONE, sech2, sech2)
        tail = np.multiply(kp.half_u, sech2, ws.tail)
        np.multiply(tail, _GELU_C, tail)
        cubic = np.multiply(_GELU_3A, kp.u2, sech2)
        np.multiply(tail, np.add(te.ONE, cubic, cubic), tail)
        np.add(slope, tail, slope)
        du = np.dot(dout, blk.down_t, ws.du)
        np.multiply(du, slope, du)
        dx1 = np.dot(du, blk.up_t, ws.dx1)
        te.norm_rows_backward(dx1, kp.xhat2, kp.inv2, dx1, ws.norm)
        np.add(dx1, dout, dx1)
        # attention branch
        np.dot(dx1, blk.out_t, ws.do)
        dattn = np.matmul(ws.do_heads, kp.v_t, ws.dattn)
        weighted = np.multiply(dattn, kp.attn, ws.weighted)
        np.add.reduce(weighted, 2, None, ws.col_flat)
        np.subtract(dattn, ws.col, dattn)
        dscores = np.multiply(kp.attn, dattn, dattn)
        np.multiply(dscores, ws.inv_sqrt, dscores)
        # dq, dk and dv in turn, each written head by head into the
        # (tokens, d) layout and taken through its own GEMM: one against
        # w_qkv would sum in another order, and np.dot on the column
        # slices differs from `@` in the bits
        by_head, merged, dh1, part = ws.merged_heads, ws.merged, ws.dh1, ws.part
        wq_t, wk_t, wv_t = blk.qkv_t
        np.matmul(dscores, kp.k, by_head)
        np.matmul(merged, wq_t, dh1)
        np.matmul(ws.dattn_t, kp.q, by_head)
        np.add(dh1, np.matmul(merged, wk_t, part), dh1)
        np.matmul(kp.attn_t, ws.do_heads, by_head)
        np.add(dh1, np.matmul(merged, wv_t, part), dh1)
        dx = te.norm_rows_backward(dh1, kp.xhat1, kp.inv1, None, ws.norm)
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
         detach: bool, tape):
    """`seq` with the mixed prompt P @ s as its second token: inserted
    after cls, or with `replace` in place of the mixed token an earlier
    layer inserted.  The scores s are computed from the cls row; with
    `detach` no gradient flows back through them.
    """
    start = 2 if replace else 1
    scores, scores_map = soft_scores_op(seq[0], consts,
                                        tape is not None and not detach)
    out = np.empty((len(seq) + 2 - start, seq.shape[1]))
    out[0] = seq[0]
    np.dot(class_prompts.data, scores, out[1])
    out[2:] = seq[start:]
    if tape is not None:
        def backward(g):
            dmixed = g[1:2].T
            class_prompts.grad += dmixed @ scores[None, :]
            dseq = np.zeros_like(seq)
            dseq[start:] = g[2:]
            dseq[0] = g[0]
            if scores_map is not None:
                dseq[0] += scores_map(
                    (class_prompts.data.T @ dmixed).reshape(-1))
            return dseq

        tape.record(backward)
    return out


_NORM_SPACES = te.Workspaces(te.NormSpace)


def _head(seq, head: te.Tensor, tape):
    """Logits head @ LN(cls) of the last layer's cls row, as one
    primitive."""
    norm = _NORM_SPACES[1, seq.shape[1]]
    row, inv = te.norm_rows(seq[0:1], None, None, norm)
    if tape is not None:
        def backward(g):
            g = g.reshape(-1, 1)
            head.grad += g @ row
            dseq = np.zeros_like(seq)
            te.norm_rows_backward((head.data.T @ g).T, row, inv, dseq[0:1],
                                  norm)
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
    the head.  Under a tape each records one backward map, except that a
    block records one only once a trainable block feeds the token matrix.
    """
    tape = te.active_tape()
    live = tape if prompts.shared.data.shape[1] else None
    seq = _embed(image, prompts.shared, backbone, cfg, live)
    cls = np.empty((cfg.layers, cfg.dim))
    blocks, heads, mix_layers = backbone.blocks, cfg.heads, cfg.mix_layers
    mixed = False
    for layer in range(1, cfg.layers + 1):
        cls[layer - 1] = seq[0]
        if layer in mix_layers and (not mixed or cfg.refresh_mix):
            seq = _mix(seq, prompts.class_prompts, consts[layer], mixed,
                       cfg.detach_scores, tape)
            mixed = True
            live = tape
        seq = _transformer_layer(seq, blocks[layer - 1], heads, live)
    return _head(seq, prompts.head, tape), cls


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
                   heads: int = 2, mix_layers=None) -> dict:
    """Compare tape gradients of the trainable blocks against central
    finite differences on a randomly initialized prompted model.

    Returns {"shared": err, "class": err, "head": err, "max": err}.
    """
    from .prototypes import PrototypeBank  # local import to avoid cycle noise

    if mix_layers is None:
        mid = max(1, layers // 2)
        mix_layers = tuple(sorted({mid, min(layers, mid + 1)}))
    cfg = ModelConfig(dim=dim, layers=layers, heads=heads,
                      patch_size=GRADCHECK_PATCH, mix_layers=tuple(mix_layers))
    rng = derive_rng(seed, "gradcheck")
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.init(seed, dim, classes, GRADCHECK_SHARED)
    prompts.head.data[...] = rng.normal(0.0, 0.5, size=prompts.head.data.shape)
    bank = PrototypeBank(layers=tuple(mix_layers), num_classes=classes, dim=dim)
    for l in mix_layers:
        bank.mu[l] = rng.normal(size=(classes, dim))
    priors = rng.random(classes)
    priors /= priors.sum()
    image = rng.normal(size=(GRADCHECK_IMAGE, GRADCHECK_IMAGE))
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

        oracle = te.finite_diff_grad(f, base[name], h=GRADCHECK_H)
        report[name] = te.grad_rel_error(block.grad, oracle)
    report["max"] = max(report.values())
    return report
