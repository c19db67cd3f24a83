"""Accuracy metrics, heldout splitting, and the closed-form communication
accounting."""

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .model import forward_shard
from .seeding import derive_rng


@dataclass
class EvalReport:
    per_client: dict            # client id -> accuracy
    mean_acc: float
    worst_acc: float
    skipped_empty: int

    def to_dict(self):
        """The fields as JSON, `per_client` keyed by client id strings in
        client order."""
        return {**asdict(self), "per_client": {
            str(k): v for k, v in sorted(self.per_client.items())}}

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["client", "accuracy"])
            for cid in sorted(self.per_client):
                writer.writerow([cid, repr(float(self.per_client[cid]))])


def evaluate_clients(clients, backbone, inputs_lookup) -> EvalReport:
    """Per-client accuracy on each client's own test shard.

    `inputs_lookup(client_id)` returns the (prompt parameters, score
    constants) the client is evaluated with, as
    `ServerState.client_inputs` does.  Clients with empty test shards
    are excluded and counted in `skipped_empty`; `init_server` guarantees
    that not all are.  A sample counts as
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
        logits, _ = forward_shard(client.test_x, params, backbone, consts)
        hits = int(np.count_nonzero(np.argmax(logits, axis=1) == client.test_y))
        per_client[client.client_id] = hits / client.test_y.size
    accs = np.array(list(per_client.values()))
    return EvalReport(per_client=per_client, mean_acc=float(accs.mean()),
                      worst_acc=float(accs.min()), skipped_empty=skipped)


def participating_count(participating_fraction: float, clients: int) -> int:
    """How many of `clients` clients `heldout_split` keeps participating."""
    return int(round(participating_fraction * clients))


def heldout_split(client_ids, participating_fraction: float, seed: int):
    """Deterministic split into (participating, heldout) client ids; the
    config guarantees that neither side is empty."""
    ids = sorted(client_ids)
    count = participating_count(participating_fraction, len(ids))
    order = derive_rng(seed, "heldout").permutation(len(ids))
    participating = tuple(sorted(ids[i] for i in order[:count]))
    heldout = tuple(sorted(ids[i] for i in order[count:]))
    return participating, heldout


def comm_accounting(dim: int, classes: int, mix_layers: int, rounds: int,
                    update_period: int) -> dict:
    """Parameters one client exchanges across a run, as final_report.json
    writes them: the trainable blocks (`params_per_round`) travel both ways
    every round; the prototypes of the mix layers (`prototype_payload`)
    once per update period (`prototype_syncs`, none without mix layers).
    """
    params = classes * dim + dim + dim * classes
    prototype_payload = mix_layers * classes * dim
    syncs = rounds // update_period if mix_layers else 0
    total = rounds * params + syncs * prototype_payload
    return {"params_per_round": params, "prototype_payload": prototype_payload,
            "prototype_syncs": syncs, "uploaded_total": total,
            "downloaded_total": total}
