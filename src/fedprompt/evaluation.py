"""Accuracy metrics, heldout splitting, the prototype probe, and the
closed-form compute / communication accounting."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import forward_shard, score_constants
from .prototypes import cosine_similarity, local_prototypes
from .seeding import derive_rng


@dataclass
class EvalReport:
    per_client: dict            # client id -> accuracy
    mean_acc: float
    worst_acc: float
    skipped_empty: int = 0

    def to_dict(self):
        return {
            "per_client": {str(k): v for k, v in sorted(self.per_client.items())},
            "mean_acc": self.mean_acc,
            "worst_acc": self.worst_acc,
            "skipped_empty": self.skipped_empty,
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["client", "accuracy"])
            for cid in sorted(self.per_client):
                writer.writerow([cid, repr(float(self.per_client[cid]))])


def evaluate_clients(clients, backbone, model_cfg,
                     inputs_lookup) -> EvalReport:
    """Per-client accuracy on each client's own test shard.

    `inputs_lookup(client_id)` returns the (prompt parameters, score
    constants) the client is evaluated with, as
    `ServerState.client_inputs` does.  Clients with empty test shards
    are excluded and counted in `skipped_empty`.  A sample counts as
    correct when its label is the argmax of its logits, ties going to the
    lowest class.
    """
    per_client = {}
    skipped = 0
    for client in clients:
        if client.test_y.size == 0:
            skipped += 1
            continue
        params, consts = inputs_lookup(client.client_id)
        logits, _ = forward_shard(client.test_x, params, backbone, model_cfg,
                                  consts)
        hits = int(np.count_nonzero(np.argmax(logits, axis=1) == client.test_y))
        per_client[client.client_id] = hits / client.test_y.size
    if not per_client:
        raise ConfigError("no client had a nonempty test shard")
    accs = np.array(list(per_client.values()))
    return EvalReport(per_client=per_client, mean_acc=float(accs.mean()),
                      worst_acc=float(accs.min()), skipped_empty=skipped)


def heldout_split(client_ids, participating_fraction: float, seed: int):
    """Deterministic split into (participating, heldout) client ids."""
    ids = sorted(int(c) for c in client_ids)
    if not 0 < participating_fraction < 1:
        raise ConfigError("participating fraction must lie in (0, 1)")
    count = int(round(participating_fraction * len(ids)))
    if count == 0 or count == len(ids):
        raise ConfigError(
            f"fraction {participating_fraction} leaves one side of the "
            f"split empty for {len(ids)} clients")
    order = derive_rng(seed, "heldout").permutation(len(ids))
    participating = tuple(sorted(ids[i] for i in order[:count]))
    heldout = tuple(sorted(ids[i] for i in order[count:]))
    return participating, heldout


def prototype_topk_probe(images, labels, backbone, model_cfg, params,
                         layer: int, k: int, bank=None, priors=None) -> float:
    """Top-k accuracy of nearest-prototype classification at one layer.

    Prototypes are the per-class means of the incoming cls tokens over
    the pool; each sample is then ranked against them by cosine
    similarity of its own incoming cls token.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ConfigError("probe pool is empty")
    if not 1 <= layer <= model_cfg.layers:
        raise ConfigError(
            f"probe layer must lie within [1, {model_cfg.layers}], got {layer}")
    if k < 1:
        raise ConfigError(f"probe k must be >= 1, got {k}")
    _, cls = forward_shard(images, params, backbone, model_cfg,
                           score_constants(model_cfg, bank, priors))
    protos = local_prototypes(cls, labels, int(labels.max()) + 1,
                              (layer,))[0][layer]
    hits = 0
    for vec, y in zip(cls[layer - 1], labels):
        sims = np.array([cosine_similarity(vec, p) for p in protos])
        top = np.argsort(-sims, kind="stable")[:k]
        hits += int(y in top)
    return hits / labels.size


def flop_estimate(layers: int, heads: int, tokens: int, dim: int,
                  head_dim: int, classes: int) -> int:
    """Multiplication count of one transformer forward pass:
    L*H*(3*T*d*d_h + T^2*d_h) + L*T*d^2 + C*d."""
    if min(layers, heads, tokens, dim, head_dim, classes) < 1:
        raise ConfigError("all dimensions must be positive")
    attention = layers * heads * (3 * tokens * dim * head_dim
                                  + tokens**2 * head_dim)
    feedforward = layers * tokens * dim**2
    return attention + feedforward + classes * dim


def prompt_mix_flops(classes: int, dim: int, mix_layers: int) -> int:
    """Similarity plus mixing multiplications: per layer, C*d for the
    prototype similarities and C*d for the prompt combination."""
    return mix_layers * 2 * classes * dim


def prompt_mix_overhead(layers: int, heads: int, tokens: int, dim: int,
                        head_dim: int, classes: int, mix_layers: int) -> float:
    """Fraction of the total forward multiplications spent on mixing."""
    total = flop_estimate(layers, heads, tokens, dim, head_dim, classes)
    return prompt_mix_flops(classes, dim, mix_layers) / total


@dataclass(frozen=True)
class CommReport:
    """Per-client communication tallies, in parameter counts."""

    params_per_round: int           # prompt blocks + head, each direction
    prototype_payload: int          # full bank for the configured layers
    prototype_syncs: int            # number of period updates in the run
    uploaded_total: int
    downloaded_total: int


def comm_accounting(dim: int, classes: int, shared_prompts: int,
                    mix_layers: int, rounds: int,
                    update_period: int = 1) -> CommReport:
    """Parameters one client exchanges across a run.

    The trainable blocks travel both ways every round; the prototypes of
    the mix layers are exchanged once per update period.
    """
    if rounds < 0 or update_period < 1:
        raise ConfigError("rounds must be >= 0 and update period >= 1")
    params = classes * dim + dim * shared_prompts + dim * classes
    prototype_payload = mix_layers * classes * dim
    syncs = rounds // update_period if mix_layers else 0
    uploaded = rounds * params + syncs * prototype_payload
    downloaded = rounds * params + syncs * prototype_payload
    return CommReport(
        params_per_round=params,
        prototype_payload=prototype_payload,
        prototype_syncs=syncs,
        uploaded_total=uploaded,
        downloaded_total=downloaded,
    )
