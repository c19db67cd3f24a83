"""Class prototypes, priors, similarity scores, and prompt mixing.

The per-sample mixed prompt is a convex combination of class prompt
columns.  The combination weights come from a temperature-scaled softmax
over cosine similarities between the sample's incoming cls token and the
global per-class prototypes, with each class reweighted by the client's
empirical class prior.  Prototypes are aggregated server-side with a
momentum rule; a bank built with a privacy budget `epsilon` adds
per-class Laplace noise to every prototype it writes.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as te
from .errors import ConfigError, DataError


def compute_class_priors(labels, num_classes: int) -> np.ndarray:
    """Empirical label frequencies delta_c = n_c / N."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise DataError("cannot compute class priors from an empty label list")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DataError("label outside [0, num_classes)")
    counts = np.bincount(labels, minlength=num_classes)
    return counts / labels.size


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0 whenever either vector is zero."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


class ScoreConstants:
    """The part of one layer's scores that does not depend on the sample.

    For one client's priors and one state of the bank: the indices of the
    classes with a nonzero prior (`active`) and, among those, of the
    prototypes with nonzero norm (`nonzero`), those prototypes and their
    norms, and the log priors.  The loop that walks a shard builds these
    once, so each sample only adds the cls token's norm and one
    matrix-vector product.  They hold copies of the prototypes: after a
    write to the bank, build them again.
    """

    __slots__ = ("tau", "classes", "active", "nonzero", "protos", "norms",
                 "log_priors")

    def __init__(self, prototypes, priors, tau: float, dim: int):
        if tau <= 0:
            raise ConfigError(f"temperature must be positive, got {tau}")
        prototypes = np.asarray(prototypes, dtype=np.float64)
        priors = np.asarray(priors, dtype=np.float64).reshape(-1)
        if prototypes.shape != (priors.size, dim):
            raise ConfigError("prototype matrix must be (classes, dim)")
        active = np.flatnonzero(priors > 0.0)
        if not active.size:
            raise DataError("all class priors are zero; scores cannot be normalized")
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

    def evaluate(self, cls_vec):
        """(scores, sims, cls_norm) for one cls token: the scores over all
        classes, the cosine similarities to the nonzero active prototypes
        (None when the token or every such prototype is zero), and the
        token's norm.  The scores and sims are fresh arrays."""
        pool = te.SCRATCH
        n_active = self.log_priors.size
        cls_norm = np.sqrt(np.dot(cls_vec, cls_vec))
        logits = pool["scores.logits", n_active]
        logits.fill(0.0)
        sims = None
        if cls_norm > 0.0 and self.norms.size:
            sims = np.dot(self.protos, cls_vec)
            np.divide(sims, np.multiply(self.norms, cls_norm,
                                        pool["scores.den", self.norms.size]),
                      sims)
            logits[self.nonzero] = sims
        np.divide(logits, self.tau, logits)
        np.add(logits, self.log_priors, logits)
        top = pool["scores.top",]
        np.subtract(logits, np.maximum.reduce(logits, 0, None, top), logits)
        e = np.exp(logits, logits)
        np.divide(e, np.add.reduce(e, 0, None, top), e)
        scores = np.zeros(self.classes)
        scores[self.active] = e
        return scores, sims, cls_norm


def soft_scores(cls_vec, prototypes, priors, tau: float) -> np.ndarray:
    """Per-class mixing weights for one sample at one layer.

    Computed in log space: logit_c = sim(cls, mu_c)/tau + ln(prior_c),
    followed by a max-subtracted softmax.  Classes with zero prior get an
    exact zero; a zero prototype (class never observed) contributes a
    neutral similarity of 0.
    """
    cls_vec = np.asarray(cls_vec, dtype=np.float64).reshape(-1)
    return ScoreConstants(prototypes, priors, tau, cls_vec.size).evaluate(cls_vec)[0]


def soft_scores_op(cls_vec, consts: ScoreConstants, grad: bool = False):
    """Scores of one cls token from the layer's `ScoreConstants`, for the
    forward pass.

    Returns (scores, map): with `grad`, the map takes the gradient of the
    scores to the gradient of the cls token; without, it is None.
    Prototypes and priors are constants.
    """
    scores, sims, cls_norm = consts.evaluate(cls_vec)
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


def mix_prompt(class_prompts: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Convex combination of class prompt columns: m = P @ s."""
    class_prompts = np.asarray(class_prompts, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if class_prompts.shape[1] != scores.size:
        raise ValueError("class prompt count must match score length")
    return class_prompts @ scores


def local_prototypes(cls, labels, num_classes: int, layers):
    """Per-layer per-class means of incoming cls tokens on one shard.

    `cls` is the (model layers, N, dim) array of `forward_shard`, and
    `layers` the 1-indexed layers to summarize.  Returns (prototypes,
    sensitivities) where prototypes maps layer -> (classes, dim),
    the zero vector marking absent classes, and sensitivities maps
    layer -> (classes,) Laplace sensitivities
    S_c = 2 * max_i ||cls_i - mu_c||_1 / n_c (zero for absent classes).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise DataError("client dataset is empty")
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
    stack = np.stack([np.asarray(s, dtype=np.float64) for s in submissions])
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
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"momentum must lie in [0, 1], got {rho}")
    previous = np.asarray(previous, dtype=np.float64)
    aggregate = np.asarray(aggregate, dtype=np.float64)
    if previous.shape != aggregate.shape:
        raise ValueError("prototype shapes differ")
    updated = rho * previous + (1.0 - rho) * aggregate
    stale = np.asarray(contributor_counts) == 0
    updated[stale] = previous[stale]
    return updated


def laplace_sensitivity(tokens: np.ndarray, prototype: np.ndarray) -> float:
    """S = 2 * max_i ||token_i - prototype||_1 / n."""
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.float64))
    n = tokens.shape[0]
    if n == 0:
        raise DataError("sensitivity requires at least one token")
    deviations = np.abs(tokens - prototype).sum(axis=1)
    return 2.0 * float(deviations.max()) / n


def add_laplace_noise(prototype: np.ndarray, sensitivity: float, epsilon: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Add per-coordinate Laplace(0, S/epsilon) noise to one prototype."""
    if epsilon <= 0:
        raise ConfigError(f"privacy budget epsilon must be positive, got {epsilon}")
    prototype = np.asarray(prototype, dtype=np.float64)
    return prototype + rng.laplace(0.0, sensitivity / epsilon, size=prototype.shape)


@dataclass
class PrototypeBank:
    """Global per-layer, per-class cls-token prototypes with momentum state.

    Client submissions are buffered over the current update period and
    folded in by `apply_period_update`; the zero vector is the reserved
    sentinel for classes never observed.  With a privacy budget
    `epsilon`, the warm start and every period update noise the classes
    they write.
    """

    layers: tuple
    num_classes: int
    dim: int
    rho: float = 0.9
    epsilon: float | None = None
    mu: dict = field(default_factory=dict)
    _buffer: list = field(default_factory=list)  # (prototypes, sensitivities)

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"momentum must lie in [0, 1], got {self.rho}")
        for l in self.layers:
            self.mu.setdefault(l, np.zeros((self.num_classes, self.dim)))

    def warm_start(self, submissions_per_client, sensitivities=(),
                   rng=None) -> None:
        """Initialize each prototype as the plain mean over the warm-up
        clients, zero submissions included.

        With `epsilon`, classes some client observed get Laplace noise
        exactly as in a period update.
        """
        if not submissions_per_client:
            raise ConfigError("warm-up requires at least one client")
        for l in self.layers:
            stack = np.stack([sub[l] for sub in submissions_per_client])
            self.mu[l] = stack.mean(axis=0)
            if self.epsilon is not None:
                counts = np.any(stack != 0.0, axis=2).sum(axis=0)
                self._privatize_layer(l, counts, [s[l] for s in sensitivities],
                                      rng)

    def submit(self, protos: dict, sens: dict) -> None:
        self._buffer.append(({l: np.asarray(protos[l]) for l in self.layers},
                             {l: np.asarray(sens[l]) for l in self.layers}))

    def pending(self) -> int:
        return len(self._buffer)

    def apply_period_update(self, rng=None) -> None:
        """Aggregate the buffered submissions, fold them in with momentum,
        add class-level Laplace noise with `epsilon`, then clear the buffer.

        Noise uses the largest sensitivity submitted for the class during
        the period and is applied only to classes that received updates.
        """
        if not self._buffer:
            return
        for l in self.layers:
            agg, counts = aggregate_submissions([p[l] for p, _ in self._buffer])
            self.mu[l] = momentum_update(self.mu[l], agg, counts, self.rho)
            if self.epsilon is not None:
                self._privatize_layer(
                    l, counts, [s[l] for _, s in self._buffer], rng)
        self._buffer.clear()

    def _privatize_layer(self, layer, counts, sensitivities, rng):
        """Noise each class with contributors, scaled by the largest
        sensitivity any contributor submitted for it."""
        sens = np.stack(sensitivities)
        for c in np.flatnonzero(counts > 0):
            self.mu[layer][c] = add_laplace_noise(
                self.mu[layer][c], float(sens[:, c].max()), self.epsilon, rng
            )

    def export_rows(self):
        """Yield (layer, class, dim, value) rows for CSV export."""
        for l in self.layers:
            for c in range(self.num_classes):
                for d in range(self.dim):
                    yield l, c, d, self.mu[l][c, d]
