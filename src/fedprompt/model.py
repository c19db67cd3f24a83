"""Frozen transformer backbone with trainable prompt slots.

The backbone is a small pre-LN vision transformer whose weights never
receive gradients.  Three parameter blocks train: a shared prompt token
prepended to the token sequence at the first layer, one set of class
prompt columns mixed into a per-sample token at designated intermediate
layers, and the classification head applied to the final cls token.

Token layout per layer input: [cls, (mixed prompt), shared prompt,
image tokens].  The mixed-prompt token is inserted at the first
configured mixing layer and replaced with a freshly mixed token at each
later mixing layer, so every such layer sees class evidence computed from
its own incoming cls state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as te
from .errors import ConfigError
from .prototypes import PrototypeBank, ScoreConstants, soft_scores_op
from .seeding import derive_rng

INIT_SCALE = 0.02
# MLP width as a multiple of `dim`
MLP_MULT = 4
# `gradient_check`'s seed, classes, image side and step (its model is
# `GRADCHECK_MODEL`), and the relative error `fedprompt gradcheck` fails at
GRADCHECK_SEED, GRADCHECK_CLASSES, GRADCHECK_IMAGE = 0, 4, 16
GRADCHECK_H, GRADCHECK_THRESHOLD = 1e-5, 1e-4


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 32
    layers: int = 8
    heads: int = 2
    patch_size: int = 8
    mix_layers: tuple = (5, 6, 7)
    tau: float = 0.05

    def __post_init__(self):
        for key, ok, rule in (
                # a layer norm over one feature maps every token to 0
                ("dim", self.dim >= 2, "be >= 2"),
                *((name, getattr(self, name) >= 1, "be >= 1")
                  for name in ("layers", "heads", "patch_size")),
                # the table is built whole, so no division by heads < 1
                ("heads", self.heads < 1 or self.dim % self.heads == 0,
                 f"divide dim {self.dim}"),
                ("mix_layers", all(l >= 1 for l in self.mix_layers),
                 "be >= 1"),
                ("mix_layers", len(set(self.mix_layers)) == len(self.mix_layers),
                 "not repeat a layer"),
                # below 1/DBL_MAX ~ 5.6e-309 a similarity / tau overflows
                ("tau", self.tau >= 1e-300, "be >= 1e-300")):
            if not ok:
                raise ConfigError(
                    f"model {key} must {rule}, got {getattr(self, key)}")


# `gradient_check`'s model, mixing at its middle layer and the one after
GRADCHECK_MODEL = ModelConfig(dim=16, layers=4, heads=2, patch_size=8,
                              mix_layers=(2, 3))


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
    """Frozen arrays, which no gradient can reach, and the sizes they hide."""

    patch_embed: np.ndarray
    cls_embed: np.ndarray
    blocks: list
    heads: int


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
        heads=cfg.heads,
    )


@dataclass
class PromptParams:
    """The only trainable blocks: shared prompt, class prompts, head."""

    shared: te.Tensor       # (dim, 1)
    class_prompts: te.Tensor  # (dim, classes)
    head: te.Tensor         # (classes, dim)

    def __post_init__(self):
        # every run has one shared token, the one row `_embed` writes
        expected = (self.class_prompts.data.shape[0], 1)
        if self.shared.data.shape != expected:
            raise ValueError(f"shared prompt block must be {expected}, "
                             f"got {self.shared.data.shape}")

    @classmethod
    def init(cls, seed: int, dim: int, classes: int) -> "PromptParams":
        rng = derive_rng(seed, "prompt-init")
        return cls(
            shared=te.Tensor(rng.normal(0.0, INIT_SCALE, size=(dim, 1))),
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


def embed_patches(images, backbone: BackboneWeights) -> np.ndarray:
    """The (N, patches, dim) tokens of N square images: each image's
    row-major patches of side `isqrt(len(patch_embed))`, one flattened row
    each, through the frozen patch embedding."""
    p = math.isqrt(len(backbone.patch_embed))
    count, n = len(images), images.shape[-1] // p
    patches = images.reshape(count, n, p, n, p).transpose(0, 1, 3, 2, 4)
    return np.matmul(patches.reshape(count, n * n, p * p), backbone.patch_embed)


_GELU_C = te.scalar(np.sqrt(2.0 / np.pi))
_GELU_A = te.scalar(0.044715)
_GELU_3A = te.scalar(3 * 0.044715)


class _Kept:
    """What the block's map reads: the layer norms' outputs, the QKV
    product and its per-head views, the attention and the GELU factors.
    Every block call borrows one from its workspace's free list."""

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
    hidden): temporaries, their per-head views, constants, and the free
    list of `_Kept` sets.  Built on first use and kept in `_BLOCK_SPACES`.
    What the block returns is fresh, and what its map captures is held by
    that map alone until it has run, so no later call of any shape
    changes a result or a recorded map.  Blocks run one at a time."""

    def __init__(self, tokens, d, heads, hidden):
        head_dim = d // heads
        self.inv_sqrt = te.scalar(1.0 / math.sqrt(head_dim))
        self.norm = te.NormSpace(tokens, d)
        self.free = []
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


_BLOCK_SPACES = {}


def _transformer_layer(x, blk: LayerWeights, heads: int, tape):
    """One pre-LN block as a single fused primitive over the token matrix.

    The backbone is frozen, so the map it records on `tape` only has to
    take the output gradient to the gradient of the incoming token
    matrix; deriving it by hand keeps the per-sample step two orders of
    magnitude cheaper than composing generic ops, and the
    finite-difference suite checks it end to end.

    Every ufunc writes with `out=` into the workspace of the block's shape,
    and what the map reads into a `_Kept` set from its free list.  An
    untaped call puts the set back before it returns, and the map after
    its last read: `Tape.backward` runs each map at most once.  The output
    and the map's result are fresh arrays.
    """
    tokens, d = x.shape
    shape = tokens, d, heads, blk.w_up.shape[1]
    ws = _BLOCK_SPACES.get(shape)
    if ws is None:
        ws = _BLOCK_SPACES[shape] = _BlockSpace(*shape)
    kp = ws.free.pop() if ws.free else _Kept(*shape)

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
        ws.free.append(kp)
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
        ws.free.append(kp)
        return np.add(dx1, dx, dx)

    tape.record(backward)
    return x2


def _embed(tokens, shared: te.Tensor, backbone: BackboneWeights, tape):
    """Token matrix [cls, shared prompt, patch tokens] as one primitive;
    its map adds into the shared prompt and has no input to pass on."""
    seq = np.empty((2 + len(tokens), backbone.cls_embed.size))
    seq[0] = backbone.cls_embed
    seq[1] = shared.data[:, 0]
    seq[2:] = tokens
    if tape is not None:
        def backward(g):
            shared.grad[:, 0] += g[1]

        tape.record(backward)
    return seq


def _mix(seq, class_prompts: te.Tensor, consts: ScoreConstants, replace: bool,
         tape):
    """`seq` with the mixed prompt P @ s as its second token: inserted
    after cls, or with `replace` in place of the mixed token an earlier
    layer inserted.  The scores s are computed from the cls row.
    """
    start = 2 if replace else 1
    scores, scores_map = soft_scores_op(seq[0], consts, tape is not None)
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
            dseq[0] += scores_map((class_prompts.data.T @ dmixed).reshape(-1))
            return dseq

        tape.record(backward)
    return out


def _head(seq, head: te.Tensor, tape):
    """Logits head @ LN(cls) of the last layer's cls row, as one
    primitive."""
    d = seq.shape[1]
    norm = te.NormSpace(1, d)
    row, inv = te.norm_rows(seq[0:1], np.empty((1, d)), np.empty((1, 1)),
                            norm)
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


def forward_with_prompts(tokens, prompts: PromptParams, backbone: BackboneWeights,
                         consts: dict):
    """Run one sample, its (patches, dim) patch tokens (`embed_patches`),
    through the prompted frozen backbone.

    Returns (logits, cls): the (classes,) logits and a (layers, dim) array
    whose row `l - 1` is the cls token entering layer `l`.  The forward
    mixes at exactly the layers of `consts`, the client's
    `PrototypeBank.score_constants`; gradients flow through the scores
    into upstream activations and the class prompts, while prototypes
    stay constant.

    The pass is a chain of fused primitives over plain arrays: embedding,
    per layer the optional prompt mixing and the transformer block, then
    the head.  Under a tape each records one backward map.
    """
    tape = te.active_tape()
    seq = _embed(tokens, prompts.shared, backbone, tape)
    blocks, heads = backbone.blocks, backbone.heads
    cls = np.empty((len(blocks), seq.shape[1]))
    mixed = False
    for layer, blk in enumerate(blocks, 1):
        cls[layer - 1] = seq[0]
        if layer in consts:
            seq = _mix(seq, prompts.class_prompts, consts[layer], mixed, tape)
            mixed = True
        seq = _transformer_layer(seq, blk, heads, tape)
    return _head(seq, prompts.head, tape), cls


def forward_shard(tokens, prompts: PromptParams, backbone: BackboneWeights,
                  consts: dict):
    """Untaped `forward_with_prompts` over a shard's (N, patches, dim) tokens.

    Returns (logits, cls): an (N, classes) array, and a (layers, N, dim)
    array of the cls tokens entering each layer.
    """
    logits = np.empty((len(tokens), prompts.num_classes))
    cls = np.empty((len(backbone.blocks), len(tokens), backbone.cls_embed.size))
    for i, sample in enumerate(tokens):
        logits[i], cls[:, i] = forward_with_prompts(sample, prompts, backbone,
                                                    consts)
    return logits, cls


def gradient_check() -> dict:
    """Compare tape gradients of the trainable blocks against central
    finite differences on a randomly initialized `GRADCHECK_MODEL`.

    Returns {"shared": err, "class": err, "head": err, "max": err}.
    """
    cfg, seed, classes = GRADCHECK_MODEL, GRADCHECK_SEED, GRADCHECK_CLASSES
    dim = cfg.dim
    rng = derive_rng(seed, "gradcheck")
    backbone = init_backbone(seed, cfg)
    prompts = PromptParams.init(seed, dim, classes)
    prompts.head.data[...] = rng.normal(0.0, 0.5, size=prompts.head.data.shape)
    bank = PrototypeBank(layers=cfg.mix_layers, num_classes=classes, dim=dim,
                         tau=cfg.tau)
    for l in cfg.mix_layers:
        bank.mu[l] = rng.normal(size=(classes, dim))
    priors = rng.random(classes)
    priors /= priors.sum()
    tokens = embed_patches(rng.normal(size=(1, GRADCHECK_IMAGE, GRADCHECK_IMAGE)),
                           backbone)[0]
    label = int(rng.integers(classes))

    consts = bank.score_constants(priors)

    prompts.zero_grad()
    with te.Tape() as tape:
        logits, _ = forward_with_prompts(tokens, prompts, backbone, consts)
        te.cross_entropy(logits, label)
    tape.backward()

    def loss_at(shared, class_prompts, head):
        probe = PromptParams.from_arrays(shared, class_prompts, head)
        logits, _ = forward_with_prompts(tokens, probe, backbone, consts)
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
