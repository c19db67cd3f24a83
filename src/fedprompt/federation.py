"""Server-coordinated training loop: warm-up, client sampling, local SGD
on the prompt blocks, federated averaging, and periodic prototype sync.

Everything is a pure function of (config, seed): client sampling, batch
shuffling, and noise draws all derive their generators from the master
seed, and aggregation always proceeds in ascending client-id order, so a
run is bit-reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as te
from .errors import ConfigError, DataError, TrainingError
from .evaluation import evaluate_clients
from .model import (ModelConfig, PromptParams, forward_shard,
                    forward_with_prompts, score_constants)
from .prototypes import PrototypeBank, local_prototypes
from .seeding import derive_rng

STRATEGIES = ("shared_only", "mixed", "mixed_no_prior", "personalized")


@dataclass(frozen=True)
class TrainConfig:
    clients_per_round: int
    rounds: int
    local_epochs: int = 2
    batch_size: int = 16
    lr: float = 0.1
    lr_decay: float = 0.99
    momentum: float = 0.9
    grad_clip: float = 10.0
    rho: float = 0.9
    update_period: int = 1
    dp_epsilon: float | None = None
    strategy: str = "mixed"
    shared_prompts: int = 1
    warmup_fraction: float = 1.0
    weighted_fedavg: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ConfigError("local epochs must be >= 1")
        if self.clients_per_round < 1:
            raise ConfigError("clients per round must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.lr < 0 or self.grad_clip <= 0:
            raise ConfigError("rates must be positive")
        # a decay above 1 grows the rate until lr_decay ** round overflows
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(
                f"train lr_decay must lie in (0, 1], got {self.lr_decay}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(
                f"train momentum must lie in [0, 1), got {self.momentum}")
        if not 0 < self.warmup_fraction <= 1:
            raise ConfigError("warm-up fraction must lie in (0, 1]")
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise ConfigError("dp epsilon must be positive when set")
        if self.update_period < 1:
            raise ConfigError("update_period must be >= 1")
        if self.shared_prompts < 0:
            raise ConfigError(
                f"train shared_prompts must be >= 0, got {self.shared_prompts}")

    @property
    def uses_mixing(self) -> bool:
        return self.strategy != "shared_only"


@dataclass
class ClientState:
    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    priors: np.ndarray

    @property
    def num_train(self) -> int:
        return int(self.train_y.size)


def build_clients(dataset, partition) -> list:
    """Materialize per-client shards from a dataset and a partition."""
    clients = []
    for cid in range(partition.num_clients):
        tr = partition.train_indices[cid]
        ts = partition.test_indices[cid]
        clients.append(ClientState(
            client_id=cid,
            train_x=dataset.train_x[tr],
            train_y=dataset.train_y[tr],
            test_x=dataset.test_x[ts],
            test_y=dataset.test_y[ts],
            priors=np.asarray(partition.priors[cid], dtype=np.float64),
        ))
    return clients


@dataclass
class ClientUpdate:
    client_id: int
    shared: np.ndarray
    class_prompts: np.ndarray
    head: np.ndarray
    prototypes: dict
    sensitivities: dict
    num_samples: int
    mean_loss: float


@dataclass
class RoundLog:
    round: int
    train_loss: float | None
    mean_acc: float
    worst_acc: float
    heldout_mean_acc: float | None
    heldout_worst_acc: float | None
    participants: tuple


@dataclass
class ServerState:
    params: PromptParams
    init_params: PromptParams
    bank: PrototypeBank | None
    clients: list
    participating: tuple
    heldout: tuple
    model_cfg: ModelConfig
    backbone: object
    cfg: TrainConfig
    seed: int
    round: int = 0
    personal: dict = field(default_factory=dict)

    def client(self, cid: int) -> ClientState:
        return self.clients[cid]

    def broadcast_params(self, cid: int) -> PromptParams:
        """Parameters a client starts the round from."""
        if self.cfg.strategy == "personalized":
            shared, class_prompts = self.personal.get(
                cid, (self.init_params.shared.data, self.init_params.class_prompts.data)
            )
            return PromptParams.from_arrays(shared, class_prompts, self.params.head.data)
        return self.params.copy()

    def eval_inputs(self, cid: int):
        """(prompt parameters, score priors) client `cid` is evaluated with."""
        return self.broadcast_params(cid), score_priors(self.client(cid), self.cfg)


def sample_clients(rng: np.random.Generator, pool, count: int) -> tuple:
    """Uniform sample without replacement, returned in ascending order."""
    pool = list(pool)
    if count > len(pool):
        raise ConfigError(f"cannot sample {count} clients from {len(pool)}")
    return tuple(sorted(int(c) for c in rng.choice(pool, size=count, replace=False)))


def score_priors(client: ClientState, cfg: TrainConfig) -> np.ndarray:
    """Priors that reweight the client's scores in training and evaluation:
    its own class frequencies, or uniform for the no-prior ablation."""
    if cfg.strategy == "mixed_no_prior":
        n = client.priors.size
        return np.full(n, 1.0 / n)
    return client.priors


def compute_client_prototypes(client, params, backbone, model_cfg, cfg, bank):
    """Frozen forward pass over the shard collecting per-layer class means."""
    _, cls = forward_shard(client.train_x, params, backbone, model_cfg,
                           score_constants(model_cfg, bank,
                                           score_priors(client, cfg)))
    return local_prototypes(cls, client.train_y, params.num_classes,
                            model_cfg.mix_layers)


def _clip_global_norm(grads, threshold):
    total = np.sqrt(sum(float((g**2).sum()) for g in grads))
    if total > threshold:
        factor = threshold / total
        return [g * factor for g in grads], total
    return grads, total


def local_train(client: ClientState, start: PromptParams, backbone,
                model_cfg: ModelConfig, cfg: TrainConfig, bank,
                seed: int, round_index: int) -> ClientUpdate:
    """One client's round: prototype snapshot, then E epochs of mini-batch
    SGD with momentum on the prompt blocks only."""
    if client.num_train == 0:
        raise DataError(f"client {client.client_id} has no training data")
    params = start.copy()
    if model_cfg.mix_layers:
        protos, sens, _ = compute_client_prototypes(
            client, params, backbone, model_cfg, cfg, bank)
    else:
        protos, sens = {}, {}

    consts = score_constants(model_cfg, bank, score_priors(client, cfg))
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
                        client.train_x[i], params, backbone, model_cfg, consts)
                    loss = te.cross_entropy(logits, int(client.train_y[i]))
                tape.backward(loss)
                batch_loss += float(loss.data)
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
    return ClientUpdate(
        client_id=client.client_id,
        shared=params.shared.data.copy(),
        class_prompts=params.class_prompts.data.copy(),
        head=params.head.data.copy(),
        prototypes=protos,
        sensitivities=sens,
        num_samples=client.num_train,
        mean_loss=float(np.mean(losses)),
    )


def fedavg_aggregate(updates, weighted: bool = False) -> PromptParams:
    """Arithmetic mean of each parameter block, ascending client-id order."""
    if not updates:
        raise ConfigError("cannot aggregate an empty update list")
    updates = sorted(updates, key=lambda u: u.client_id)
    weights = (
        np.array([u.num_samples for u in updates], dtype=np.float64)
        if weighted else np.ones(len(updates))
    )
    weights = weights / weights.sum()
    blocks = {"shared": None, "class_prompts": None, "head": None}
    for name in blocks:
        acc = np.zeros_like(getattr(updates[0], name))
        for u, w in zip(updates, weights):
            acc += w * getattr(u, name)
        blocks[name] = acc
    return PromptParams.from_arrays(blocks["shared"], blocks["class_prompts"],
                                    blocks["head"])


def warm_startup(state: ServerState) -> None:
    """Bootstrap the prototype bank: sampled clients compute prototypes
    with the untrained prompt state; the server takes the plain per-class
    mean over them (zero submissions included)."""
    if not state.cfg.uses_mixing:
        return
    count = max(1, round(state.cfg.warmup_fraction * len(state.participating)))
    rng = derive_rng(state.seed, "warmup")
    chosen = sample_clients(rng, state.participating, count)
    submissions, sensitivities = [], []
    for cid in chosen:
        protos, sens, _ = compute_client_prototypes(
            state.client(cid), state.params, state.backbone, state.model_cfg,
            state.cfg, state.bank)
        submissions.append(protos)
        sensitivities.append(sens)
    state.bank.warm_start(submissions, sensitivities,
                          epsilon=state.cfg.dp_epsilon,
                          rng=derive_rng(state.seed, "dp", 0))
    _check_bank(state.bank, 0)


def _check_bank(bank: PrototypeBank, round_index: int) -> None:
    """Fail on prototypes whose squared norms are not finite, as Laplace
    noise of a tiny epsilon leaves them, before any score is computed from
    them: a norm that overflows would zero every similarity."""
    for l in bank.layers:
        with np.errstate(over="ignore"):
            sq_norms = np.add.reduce(bank.mu[l] * bank.mu[l], axis=1)
        if not np.isfinite(sq_norms).all():
            raise TrainingError(f"non-finite prototype norms at layer {l}",
                                round_index=round_index)


def _evaluate(state: ServerState):
    """Reports of the participating clients and of the heldout ones (None
    without heldout clients)."""
    report = evaluate_clients(
        [state.client(cid) for cid in state.participating],
        state.backbone, state.model_cfg, state.bank, state.eval_inputs)
    heldout = None
    if state.heldout:
        heldout = evaluate_clients(
            [state.client(cid) for cid in state.heldout],
            state.backbone, state.model_cfg, state.bank, state.eval_inputs)
    return report, heldout


def run_round(state: ServerState) -> RoundLog:
    """Sample, broadcast, train locally, aggregate, sync prototypes."""
    t = state.round + 1
    rng = derive_rng(state.seed, "sample", t)
    chosen = sample_clients(rng, state.participating, state.cfg.clients_per_round)
    updates = [
        local_train(state.client(cid), state.broadcast_params(cid),
                    state.backbone, state.model_cfg, state.cfg, state.bank,
                    state.seed, t)
        for cid in chosen
    ]

    if state.cfg.strategy == "personalized":
        head = np.zeros_like(state.params.head.data)
        for u in updates:
            head += u.head
            state.personal[u.client_id] = (u.shared, u.class_prompts)
        state.params = PromptParams.from_arrays(
            state.init_params.shared.data,
            state.init_params.class_prompts.data,
            head / len(updates))
    else:
        state.params = fedavg_aggregate(updates, weighted=state.cfg.weighted_fedavg)

    if state.cfg.uses_mixing:
        for u in updates:
            state.bank.submit(u.prototypes, u.sensitivities)
        if t % state.cfg.update_period == 0:
            state.bank.apply_period_update(
                epsilon=state.cfg.dp_epsilon,
                rng=derive_rng(state.seed, "dp", t))
            _check_bank(state.bank, t)
    state.round = t

    report, heldout = _evaluate(state)
    return RoundLog(
        round=t,
        train_loss=float(np.mean([u.mean_loss for u in updates])),
        mean_acc=report.mean_acc,
        worst_acc=report.worst_acc,
        heldout_mean_acc=heldout.mean_acc if heldout else None,
        heldout_worst_acc=heldout.worst_acc if heldout else None,
        participants=chosen,
    )


def init_server(clients, backbone, model_cfg: ModelConfig, cfg: TrainConfig,
                seed: int, heldout=()) -> ServerState:
    """Initial server state: the one place the strategy picks the effective
    model config and the prototype bank.  The returned state then answers
    which parameters and priors each client trains and is evaluated with."""
    heldout = tuple(sorted(int(h) for h in heldout))
    participating = tuple(c.client_id for c in clients
                          if c.client_id not in set(heldout))
    if not participating:
        raise ConfigError("no participating clients")
    # heldout clients never train, so only participating ones need samples
    empty = [c.client_id for c in clients
             if c.client_id in participating and c.num_train == 0]
    if empty:
        raise DataError("participating clients without training data: "
                        + ", ".join(map(str, empty)))
    if cfg.clients_per_round > len(participating):
        raise ConfigError(
            f"clients_per_round={cfg.clients_per_round} exceeds "
            f"{len(participating)} participating clients")
    if cfg.uses_mixing:
        # heldout clients are scored with their own priors when evaluated,
        # and all-zero priors (no training data) leave nothing to normalize
        unscorable = [c.client_id for c in clients
                      if c.client_id in heldout and c.test_y.size > 0
                      and not np.any(score_priors(c, cfg) > 0.0)]
        if unscorable:
            raise DataError("heldout clients with all-zero class priors: "
                            + ", ".join(map(str, unscorable)))
    classes = clients[0].priors.size
    effective_cfg = model_cfg if cfg.uses_mixing else model_cfg.without_mixing()
    params = PromptParams.init(seed, model_cfg.dim, classes, cfg.shared_prompts)
    bank = None
    if cfg.uses_mixing:
        if not model_cfg.mix_layers:
            raise ConfigError("mixing strategy requires at least one mix layer")
        bank = PrototypeBank(layers=tuple(model_cfg.mix_layers),
                             num_classes=classes, dim=model_cfg.dim,
                             rho=cfg.rho, update_period=cfg.update_period)
    return ServerState(
        params=params, init_params=params.copy(), bank=bank, clients=clients,
        participating=participating, heldout=heldout,
        model_cfg=effective_cfg, backbone=backbone, cfg=cfg, seed=seed)


def run_training(clients, backbone, model_cfg: ModelConfig, cfg: TrainConfig,
                 seed: int, heldout=()):
    """Warm-up, then `cfg.rounds` federated rounds.

    Returns (state, logs) where logs[0] is the post-warm-up evaluation
    (round 0) followed by one entry per training round.
    """
    state = init_server(clients, backbone, model_cfg, cfg, seed, heldout)
    warm_startup(state)
    report, heldout_report = _evaluate(state)
    logs = [RoundLog(
        round=0, train_loss=None,
        mean_acc=report.mean_acc, worst_acc=report.worst_acc,
        heldout_mean_acc=heldout_report.mean_acc if heldout_report else None,
        heldout_worst_acc=heldout_report.worst_acc if heldout_report else None,
        participants=(),
    )]
    for _ in range(cfg.rounds):
        logs.append(run_round(state))
    return state, logs
