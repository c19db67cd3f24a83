"""Server-coordinated training loop: warm-up, client sampling, local SGD
on the prompt blocks, federated averaging, and periodic prototype sync.

`init_server` alone builds a run from its `ExperimentConfig`, and
`run_training` trains it.  `init_server` alone turns the strategy and
model config into state: the prototype bank (None without mixing) holds
the mix layers, tau and, as its `epsilon`, the DP budget.
`ServerState.client_inputs` alone says what a client reads: its prompts
and score constants (the bank's).  The three prompt blocks always travel
as one `PromptParams`: clients read the server's own blocks, and
`local_train` trains the one copy it returns; `fedavg_aggregate` alone
averages the trained copies, under every strategy.

Everything is a pure function of (config, seed): client sampling, batch
shuffling, and noise draws all derive their generators from the master
seed, and aggregation always proceeds in ascending client-id order, so a
run is bit-reproducible.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as te
from .config import ExperimentConfig, TrainConfig, make_partition
from .data import generate_synthetic
from .errors import DataError, TrainingError
from .evaluation import evaluate_clients, heldout_split
from .model import (PromptParams, embed_patches, forward_shard,
                    forward_with_prompts, init_backbone)
from .prototypes import PrototypeBank, compute_class_priors, local_prototypes
from .seeding import derive_rng


@dataclass
class ClientState:
    client_id: int
    train_x: np.ndarray  # (N, patches, dim) patch tokens, as is test_x
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    priors: np.ndarray  # the class priors its scores are reweighted with

    @property
    def num_train(self) -> int:
        return int(self.train_y.size)


def build_clients(dataset, partition, backbone) -> list:
    """The clients of a dataset and a partition, each shard embedded once
    by `backbone`'s patch embedding, with the class priors of the client's
    own train labels (zeros for an empty train shard)."""
    clients = []
    for cid, (tr, ts) in enumerate(zip(partition.train_indices,
                                       partition.test_indices)):
        train_y = dataset.train_y[tr]
        clients.append(ClientState(
            client_id=cid,
            train_x=embed_patches(dataset.train_x[tr], backbone),
            train_y=train_y,
            test_x=embed_patches(dataset.test_x[ts], backbone),
            test_y=dataset.test_y[ts],
            priors=(compute_class_priors(train_y, dataset.classes)
                    if train_y.size else np.zeros(dataset.classes)),
        ))
    return clients


@dataclass
class RoundLog:
    round: int
    train_loss: float | None
    mean_acc: float
    worst_acc: float
    heldout_mean_acc: float | None
    heldout_worst_acc: float | None


@dataclass
class ServerState:
    params: PromptParams
    bank: PrototypeBank | None
    clients: list
    participating: tuple
    heldout: tuple
    backbone: object
    cfg: TrainConfig
    seed: int
    round: int = 0
    # client id -> its own PromptParams: under `personalized`, one for each
    # participating client, its initial blocks until it trains
    personal: dict = field(default_factory=dict)

    def client_inputs(self, cid: int):
        """(prompt parameters, score constants) client `cid` trains and is
        evaluated with, for reading only: the server's own blocks, or its
        own prompts with the global head; the constants are the bank's as
        it is now, if any."""
        own = self.personal.get(cid)
        params = self.params if own is None else replace(own, head=self.params.head)
        if self.bank is None:
            return params, {}
        return params, self.bank.score_constants(self.clients[cid].priors)


def sample_clients(rng: np.random.Generator, pool, count: int) -> tuple:
    """Uniform sample without replacement, returned in ascending order."""
    return tuple(sorted(int(c) for c in rng.choice(pool, size=count, replace=False)))


def compute_client_prototypes(client, params, consts, backbone):
    """Frozen forward pass over the shard collecting class means and their
    sensitivities at the mixing layers `consts` holds."""
    _, cls = forward_shard(client.train_x, params, backbone, consts)
    return local_prototypes(cls, client.train_y, params.num_classes,
                            tuple(consts))


def _clip_global_norm(grads, threshold):
    # an overflowing norm is reported by the caller, not warned about here
    with np.errstate(over="ignore"):
        total = np.sqrt(sum(float((g**2).sum()) for g in grads))
    if total > threshold:
        factor = threshold / total
        return [g * factor for g in grads], total
    return grads, total


def local_train(client: ClientState, params: PromptParams, consts: dict,
                backbone, cfg: TrainConfig, seed: int, round_index: int):
    """E epochs of mini-batch SGD with momentum, from `client_inputs`, on one
    copy of `params`; returns (that trained copy, mean batch loss)."""
    params = params.copy()
    rng = derive_rng(seed, "shuffle", round_index, client.client_id)
    lr_t = cfg.lr * cfg.lr_decay ** (round_index - 1)
    blocks = [block for _, block in params.blocks()]
    velocity = [np.zeros_like(b.data) for b in blocks]
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(client.num_train)
        for lo in range(0, client.num_train, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            params.zero_grad()
            batch_loss = 0.0
            for i in batch:
                with te.Tape() as tape:
                    logits, _ = forward_with_prompts(
                        client.train_x[i], params, backbone, consts)
                    batch_loss += te.cross_entropy(logits,
                                                   int(client.train_y[i]))
                # a gradient that overflows is reported below, as a
                # non-finite norm, not warned about here
                with np.errstate(over="ignore", invalid="ignore"):
                    tape.backward()
            batch_loss /= batch.size
            grads, norm = _clip_global_norm(
                [b.grad / batch.size for b in blocks], cfg.grad_clip)
            # an infinite norm would scale the step to zero without a word
            for what, value in (("training loss", batch_loss),
                                ("gradient norm", norm)):
                if not np.isfinite(value):
                    raise TrainingError(f"non-finite {what}",
                                        round_index=round_index,
                                        client_id=client.client_id)
            losses.append(batch_loss)
            for b, v, g in zip(blocks, velocity, grads):
                v *= cfg.momentum
                v += g
                b.data -= lr_t * v
    return params, float(np.mean(losses))


def fedavg_aggregate(trained) -> PromptParams:
    """Arithmetic mean of each block of the trained `PromptParams`, summed in
    the order given (ascending client id in `run_round`)."""
    weight = 1.0 / len(trained)
    blocks = []
    for per_client in zip(*(p.blocks() for p in trained)):
        acc = np.zeros_like(per_client[0][1].data)
        for _, block in per_client:
            acc += weight * block.data
        blocks.append(acc)
    return PromptParams.from_arrays(*blocks)


def warm_startup(state: ServerState) -> None:
    """Bootstrap the prototype bank: sampled clients compute prototypes
    with the untrained prompt state; the server takes the plain per-class
    mean over them (zero submissions included)."""
    if state.bank is None:
        return
    count = max(1, round(state.cfg.warmup_fraction * len(state.participating)))
    rng = derive_rng(state.seed, "warmup")
    chosen = sample_clients(rng, state.participating, count)
    submissions, sensitivities = zip(*(
        compute_client_prototypes(state.clients[cid], *state.client_inputs(cid),
                                  state.backbone)
        for cid in chosen))
    state.bank.warm_start(submissions, sensitivities,
                          rng=derive_rng(state.seed, "dp", 0))
    _check_bank(state.bank, 0)


def _check_bank(bank: PrototypeBank, round_index: int) -> None:
    """Fail on prototypes whose squared norms are not finite, as Laplace
    noise of a tiny epsilon leaves them, before any score is computed from
    them."""
    layer = bank.overflowing_layer()
    if layer is not None:
        raise TrainingError(f"non-finite prototype norms at layer {layer}",
                            round_index=round_index)


def evaluate_state(state: ServerState):
    """Reports of the participating clients and of the heldout ones (None
    without heldout clients)."""
    return tuple(
        evaluate_clients([state.clients[cid] for cid in group], state.backbone,
                         state.client_inputs)
        if group else None
        for group in (state.participating, state.heldout))


def _round_log(state: ServerState, train_loss=None) -> RoundLog:
    """Evaluate the state after round `state.round` and record it."""
    report, heldout = evaluate_state(state)
    return RoundLog(
        round=state.round,
        train_loss=train_loss,
        mean_acc=report.mean_acc,
        worst_acc=report.worst_acc,
        heldout_mean_acc=heldout.mean_acc if heldout else None,
        heldout_worst_acc=heldout.worst_acc if heldout else None,
    )


def run_round(state: ServerState) -> RoundLog:
    """Sample; each sampled client submits its prototype snapshot (under
    mixing) and trains from `client_inputs`; average; sync prototypes."""
    t = state.round = state.round + 1
    rng = derive_rng(state.seed, "sample", t)
    chosen = sample_clients(rng, state.participating, state.cfg.clients_per_round)
    trained, losses = [], []
    for cid in chosen:
        inputs = (state.clients[cid], *state.client_inputs(cid))
        try:
            if state.bank is not None:
                # the bank reads what it is sent only in the period update
                state.bank.submit(*compute_client_prototypes(*inputs,
                                                             state.backbone))
            params, loss = local_train(*inputs, state.backbone, state.cfg,
                                       state.seed, t)
        except FloatingPointError:  # raised under `run_training`
            raise TrainingError("floating-point overflow", t, cid) from None
        trained.append(params)
        losses.append(loss)

    averaged = fedavg_aggregate(trained)
    if state.personal:  # filled by `init_server` under `personalized` only
        # each client keeps its own prompts; the global ones keep their
        # initial values, and only the head is averaged
        state.personal.update(zip(chosen, trained))
        averaged = replace(state.params, head=averaged.head)
    state.params = averaged

    if state.bank is not None and t % state.cfg.update_period == 0:
        state.bank.apply_period_update(rng=derive_rng(state.seed, "dp", t))
        _check_bank(state.bank, t)
    return _round_log(state, float(np.mean(losses)))


def init_server(cfg: ExperimentConfig) -> ServerState:
    """The world of `cfg` and its initial server state: the one place a
    run is built.  The dataset, the backbone, the clients of the partition
    into `cfg.train.clients` and the heldout ids follow from the config;
    the strategy and model config are read here alone, for the prompts,
    the bank (mix layers, tau and the DP budget as `epsilon`), the priors
    each client scores with, set once, and the clients' own prompts.
    The returned state then answers, through `client_inputs`, what each
    client trains and is evaluated with."""
    cfg.check()
    train = cfg.train
    mixing = train.strategy != "shared_only"
    dataset = generate_synthetic(cfg.data, cfg.seed)
    backbone = init_backbone(cfg.seed, cfg.model)
    clients = build_clients(dataset, make_partition(dataset, cfg), backbone)
    if train.strategy == "mixed_no_prior":  # every client scored uniformly
        for client in clients:
            client.priors = np.full(cfg.data.classes, 1.0 / cfg.data.classes)
    participating, heldout = tuple(range(train.clients)), ()
    if cfg.heldout_fraction > 0:
        participating, heldout = heldout_split(
            range(train.clients), 1.0 - cfg.heldout_fraction, cfg.seed)
    # heldout clients never train, so only participating ones need samples
    empty = [cid for cid in participating if clients[cid].num_train == 0]
    if empty:
        raise DataError("participating clients without training data: "
                        + ", ".join(map(str, empty)))
    # each group is evaluated after every round, which needs a test sample
    for group, ids in (("participating", participating), ("heldout", heldout)):
        if ids and not any(clients[cid].test_y.size for cid in ids):
            raise DataError(f"every {group} client has an empty test shard: "
                            + ", ".join(map(str, ids)))
    if mixing:
        # heldout clients are scored with their own priors when evaluated,
        # and all-zero priors (no training data) leave nothing to normalize
        unscorable = [cid for cid in heldout if clients[cid].test_y.size > 0
                      and not np.any(clients[cid].priors > 0.0)]
        if unscorable:
            raise DataError("heldout clients with all-zero class priors: "
                            + ", ".join(map(str, unscorable)))
    params = PromptParams.init(cfg.seed, cfg.model.dim, cfg.data.classes)
    bank = None
    if mixing:
        bank = PrototypeBank(layers=tuple(cfg.model.mix_layers),
                             num_classes=cfg.data.classes, dim=cfg.model.dim,
                             tau=cfg.model.tau, rho=train.rho,
                             epsilon=train.dp_epsilon)
    return ServerState(
        params=params, bank=bank, clients=clients,
        participating=participating, heldout=heldout,
        backbone=backbone, cfg=train, seed=cfg.seed,
        personal={cid: params.copy() for cid in participating
                  if train.strategy == "personalized"})


def run_training(state: ServerState) -> list:
    """Warm-up, then `state.cfg.rounds` federated rounds.

    Returns the logs: logs[0] is the post-warm-up evaluation (round 0),
    followed by one entry per training round.  Floating-point overflow
    is a TrainingError naming the round (and client, in local SGD).
    """
    try:
        with np.errstate(over="raise"):
            warm_startup(state)
            logs = [_round_log(state)]
            for _ in range(state.cfg.rounds):
                logs.append(run_round(state))
    except FloatingPointError:
        raise TrainingError("floating-point overflow", state.round) from None
    return logs
