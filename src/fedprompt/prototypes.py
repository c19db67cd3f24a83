"""Class prototypes, priors and the similarity scores of prompt mixing.

The per-sample mixed prompt (`model._mix`) is a convex combination of
class prompt columns.  The combination weights come from a temperature-scaled softmax
over cosine similarities between the sample's incoming cls token and the
global per-class prototypes, with each class reweighted by the client's
empirical class prior.  Prototypes are aggregated server-side with a
momentum rule; a bank built with a privacy budget `epsilon` adds
per-class Laplace noise to every prototype it writes.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as te


def compute_class_priors(labels, num_classes: int) -> np.ndarray:
    """Empirical label frequencies delta_c = n_c / N of a nonempty label
    array."""
    counts = np.bincount(labels, minlength=num_classes)
    return counts / labels.size


class ScoreConstants:
    """The part of one layer's scores that does not depend on the sample.

    For one client's priors and one state of the bank: the indices of the
    classes with a nonzero prior (`active`) and, among those, of the
    prototypes with nonzero norm (`nonzero`), those prototypes and their
    norms, and the log priors.  The loop that walks a shard builds these
    once, so each sample only adds the cls token's norm and one
    matrix-vector product.  They hold copies of the prototypes: after a
    write to the bank, build them again.  The priors must have a nonzero
    entry, as `init_server` guarantees for every client it scores.
    """

    __slots__ = ("tau", "classes", "active", "nonzero", "protos", "norms",
                 "log_priors")

    def __init__(self, prototypes, priors, tau: float):
        active = np.flatnonzero(priors > 0.0)
        protos = prototypes[active]
        # what np.linalg.norm computes per row, without its Python overhead
        norms = np.sqrt(np.add.reduce(protos * protos, axis=1))
        self.tau = te.scalar(tau)
        self.classes = priors.size
        self.active = active
        self.nonzero = np.flatnonzero(norms > 0.0)
        self.protos = protos[self.nonzero]
        self.norms = norms[self.nonzero]
        self.log_priors = np.log(priors[active])


def soft_scores_op(cls_vec, consts: ScoreConstants, grad: bool):
    """Scores of one cls token from the layer's `ScoreConstants`: the one
    place a token is scored.

    Returns (scores, map): the fresh (classes,) scores and, with `grad`, the
    map that takes their gradient to the gradient of the cls token; without,
    it is None.  Prototypes and priors are constants.

    The scores are computed in log space: logit_c = sim(cls, mu_c)/tau
    + ln(prior_c), followed by a max-subtracted softmax.  Classes with zero
    prior get an exact zero; a zero prototype (class never observed), like
    a zero token, contributes a neutral similarity of 0.
    """
    cls_norm = np.sqrt(np.dot(cls_vec, cls_vec))
    logits = np.zeros(consts.active.size)
    sims = None
    if cls_norm > 0.0 and consts.norms.size:
        sims = np.dot(consts.protos, cls_vec)
        np.divide(sims, np.multiply(consts.norms, cls_norm), sims)
        logits[consts.nonzero] = sims
    np.divide(logits, consts.tau, logits)
    np.add(logits, consts.log_priors, logits)
    np.subtract(logits, np.maximum.reduce(logits), logits)
    e = np.exp(logits, logits)
    np.divide(e, np.add.reduce(e), e)
    scores = np.zeros(consts.classes)
    scores[consts.active] = e
    if not grad:
        return scores, None

    def backward(g):
        active = consts.active
        g = g[active]
        s = scores[active]
        dlogit = s * (g - float(g @ s))
        grad_cls = np.zeros_like(cls_vec)
        if sims is not None:
            # d sim_c / d cls = mu_c/(|cls||mu_c|) - sim_c * cls/|cls|^2
            coeff = dlogit[consts.nonzero] / consts.tau
            grad_cls += (coeff / consts.norms) @ consts.protos / cls_norm
            grad_cls -= float(coeff @ sims) * cls_vec / cls_norm**2
        return grad_cls

    return scores, backward


def local_prototypes(cls, labels, num_classes: int, layers):
    """Per-layer per-class means of incoming cls tokens on one shard.

    `cls` is the (model layers, N, dim) array of `forward_shard`, and
    `layers` the 1-indexed layers to summarize.  Returns (prototypes,
    sensitivities) where prototypes maps layer -> (classes, dim),
    the zero vector marking absent classes, and sensitivities maps
    layer -> (classes,) Laplace sensitivities
    S_c = 2 * max_i ||cls_i - mu_c||_1 / n_c (zero for absent classes).
    `labels` holds one label in [0, num_classes) per token.
    """
    counts = np.bincount(labels, minlength=num_classes)
    protos = {}
    sens = {}
    for l in layers:
        tokens = cls[l - 1]
        mu = np.zeros((num_classes, tokens.shape[1]))
        s = np.zeros(num_classes)
        for c in range(num_classes):
            if counts[c] == 0:
                continue
            cls_c = tokens[labels == c]
            mu[c] = cls_c.mean(axis=0)
            s[c] = laplace_sensitivity(cls_c, mu[c])
        protos[l] = mu
        sens[l] = s
    return protos, sens


def aggregate_submissions(submissions) -> tuple[np.ndarray, np.ndarray]:
    """Mean over nonzero per-class submissions; D counts the contributors.

    Classes with no nonzero submission in the buffer aggregate to the
    zero vector with D_c = 0.
    """
    stack = np.stack(submissions)
    nonzero = np.any(stack != 0.0, axis=2)
    counts = nonzero.sum(axis=0)
    total = (stack * nonzero[:, :, None]).sum(axis=0)
    agg = np.zeros_like(total)
    mask = counts > 0
    agg[mask] = total[mask] / counts[mask, None]
    return agg, counts


def momentum_update(previous: np.ndarray, aggregate: np.ndarray,
                    contributor_counts: np.ndarray, rho: float) -> np.ndarray:
    """rho * previous + (1 - rho) * aggregate, except classes with no
    contributors keep their previous prototype exactly (rho forced to 1)."""
    updated = rho * previous + (1.0 - rho) * aggregate
    stale = contributor_counts == 0
    updated[stale] = previous[stale]
    return updated


def laplace_sensitivity(tokens: np.ndarray, prototype: np.ndarray) -> float:
    """S = 2 * max_i ||token_i - prototype||_1 / n over the n >= 1 rows
    of `tokens`."""
    deviations = np.abs(tokens - prototype).sum(axis=1)
    return 2.0 * float(deviations.max()) / len(tokens)


def add_laplace_noise(prototype: np.ndarray, sensitivity: float, epsilon: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Add per-coordinate Laplace(0, S/epsilon) noise to one prototype."""
    return prototype + rng.laplace(0.0, sensitivity / epsilon, size=prototype.shape)


@dataclass
class PrototypeBank:
    """Global per-layer, per-class cls-token prototypes with momentum state.

    Its `layers` are the layers that mix, at score temperature `tau`; a
    bank with no layers mixes nowhere.  Client snapshots enter only
    through `submit` and are buffered until `warm_start`, once, or
    `apply_period_update`, once per update period, folds them in; the
    zero vector is the reserved sentinel for classes never observed.
    With a privacy budget `epsilon`, the warm start and every period
    update noise the classes they write.
    """

    layers: tuple
    num_classes: int
    dim: int
    tau: float
    rho: float = 0.9
    epsilon: float | None = None
    mu: dict = field(default_factory=dict)
    _buffer: list = field(default_factory=list)  # (prototypes, sensitivities)

    def __post_init__(self):
        for l in self.layers:
            self.mu.setdefault(l, np.zeros((self.num_classes, self.dim)))

    def warm_start(self, rng) -> None:
        """Initialize each prototype as the plain mean over the buffered
        submissions, zero submissions included, then clear the buffer.

        With `epsilon`, classes some client observed get Laplace noise
        exactly as in a period update; without, `rng` draws nothing.
        """
        for l in self.layers:
            submissions = [p[l] for p, _ in self._buffer]
            self.mu[l] = np.stack(submissions).mean(axis=0)
            if self.epsilon is not None:
                _, counts = aggregate_submissions(submissions)
                self._privatize_layer(l, counts, rng)
        self._buffer.clear()

    def submit(self, protos: dict, sens: dict) -> None:
        self._buffer.append((protos, sens))

    def score_constants(self, priors) -> dict:
        """Mixing layer -> `ScoreConstants` for one client's score priors
        and the current prototypes.  Build them once per client and bank
        state and pass them to every forward over that client's samples."""
        return {l: ScoreConstants(self.mu[l], priors, self.tau)
                for l in self.layers}

    def overflowing_layer(self):
        """The first layer holding a prototype whose squared norm is not
        finite, or None: such a norm would zero every similarity."""
        for l in self.layers:
            with np.errstate(over="ignore"):
                sq_norms = np.add.reduce(self.mu[l] * self.mu[l], axis=1)
            if not np.isfinite(sq_norms).all():
                return l
        return None

    def apply_period_update(self, rng) -> None:
        """Aggregate the buffered submissions, fold them in with momentum,
        add class-level Laplace noise with `epsilon`, then clear the buffer.

        Noise uses the largest sensitivity submitted for the class during
        the period and is applied only to classes that received updates.
        """
        for l in self.layers:
            agg, counts = aggregate_submissions([p[l] for p, _ in self._buffer])
            self.mu[l] = momentum_update(self.mu[l], agg, counts, self.rho)
            if self.epsilon is not None:
                self._privatize_layer(l, counts, rng)
        self._buffer.clear()

    def _privatize_layer(self, layer, counts, rng):
        """Noise each class with contributors, scaled by the largest
        sensitivity any buffered submission holds for it."""
        sens = np.stack([s[layer] for _, s in self._buffer])
        for c in np.flatnonzero(counts > 0):
            self.mu[layer][c] = add_laplace_noise(
                self.mu[layer][c], float(sens[:, c].max()), self.epsilon, rng
            )
