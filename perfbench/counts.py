"""Closed-form work counts of one `fedprompt run`.

The number of samples each stage pushes through the backbone follows
from the partition and the client sampling alone, without training:

- taped forwards (each followed by one `Tape.backward`): for every round,
  `local_epochs` passes over each sampled client's train shard;
- prototype pass (untaped): the warm-up clients' train shards, then each
  sampled client's train shard once per round, only for mixing strategies;
- evaluation (untaped): every client's test shard, participating and
  heldout, after warm-up and after every round, plus once more in
  `cmd_run` after training.
"""

from fedprompt.cli import ExperimentConfig, make_partition
from fedprompt.data import generate_synthetic
from fedprompt.evaluation import heldout_split
from fedprompt.federation import sample_clients
from fedprompt.seeding import derive_rng


def closed_form(cfg: ExperimentConfig) -> dict:
    dataset = generate_synthetic(cfg.data, cfg.seed)
    partition = make_partition(dataset, cfg)
    n_train = [len(ix) for ix in partition.train_indices]
    n_test = [len(ix) for ix in partition.test_indices]
    heldout = ()
    if cfg.heldout_fraction > 0:
        _, heldout = heldout_split(range(cfg.num_clients),
                                   1.0 - cfg.heldout_fraction, cfg.seed)
    participating = [c for c in range(cfg.num_clients) if c not in heldout]
    train = cfg.train
    mixing = train.strategy != "shared_only"

    taped = proto_pass = 0
    if mixing:
        count = max(1, round(train.warmup_fraction * len(participating)))
        warm = sample_clients(derive_rng(cfg.seed, "warmup"), participating, count)
        proto_pass = sum(n_train[c] for c in warm)
    for t in range(1, train.rounds + 1):
        chosen = sample_clients(derive_rng(cfg.seed, "sample", t), participating,
                                train.clients_per_round)
        shard = sum(n_train[c] for c in chosen)
        taped += train.local_epochs * shard
        if mixing:
            proto_pass += shard
    per_eval = sum(n_test)
    return {
        "taped": taped,
        "proto_pass": proto_pass,
        "train_eval": (train.rounds + 1) * per_eval,
        "final_eval": per_eval,
        "rounds": train.rounds,
        "local_train_calls": train.rounds * train.clients_per_round,
        "bank_updates": train.rounds // train.update_period if mixing else 0,
    }
