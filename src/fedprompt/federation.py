"""Server-coordinated training loop: warm-up, client sampling, local SGD
on the prompt blocks, federated averaging, and periodic prototype sync.

`init_server` alone turns the strategy into state: the prototype bank
(None without mixing; its `epsilon` is the DP budget) and the effective
model config.  `ServerState.client_inputs` alone puts together a client's
prompts (`broadcast_params`) and score constants (`score_priors`, bank).
The three prompt blocks always travel as one `PromptParams`: clients read
the server's own blocks, and `local_train` trains the one copy it returns.

Everything is a pure function of (config, seed): client sampling, batch
shuffling, and noise draws all derive their generators from the master
seed, and aggregation always proceeds in ascending client-id order, so a
run is bit-reproducible.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as te
from .errors import ConfigError, DataError, TrainingError
from .evaluation import evaluate_clients
from .model import (ModelConfig, PromptParams, forward_shard,
                    forward_with_prompts, score_constants)
from .prototypes import PrototypeBank, local_prototypes
from .seeding import derive_rng

STRATEGIES = ("shared_only", "mixed", "mixed_no_prior", "personalized")
# train keys a strategy never reads, rejected unless they hold their default
UNREAD_KEYS = {"shared_only": ("rho", "update_period", "warmup_fraction",
                               "dp_epsilon"),
               "personalized": ("weighted_fedavg",)}


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
        for key, ok, rule in (
                ("lr", self.lr >= 0, "be >= 0"),
                ("grad_clip", self.grad_clip > 0, "be > 0"),
                # above 1 the rate grows until lr_decay ** round overflows
                ("lr_decay", 0 < self.lr_decay <= 1, "lie in (0, 1]"),
                ("momentum", 0 <= self.momentum < 1, "lie in [0, 1)"),
                ("rho", 0 <= self.rho <= 1, "lie in [0, 1]"),
                ("shared_prompts", self.shared_prompts >= 0, "be >= 0")):
            if not ok:
                raise ConfigError(
                    f"train {key} must {rule}, got {getattr(self, key)}")
        if not 0 < self.warmup_fraction <= 1:
            raise ConfigError("warm-up fraction must lie in (0, 1]")
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise ConfigError("dp epsilon must be positive when set")
        if self.update_period < 1:
            raise ConfigError("update_period must be >= 1")
        defaults = {f.name: f.default for f in fields(self)}
        for key in UNREAD_KEYS.get(self.strategy, ()):
            if getattr(self, key) != defaults[key]:
                raise ConfigError(f"train.{key!r} is not read by strategy "
                                  f"{self.strategy!r}")


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
    params: PromptParams  # the client's trained blocks
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
    bank: PrototypeBank | None
    clients: list
    participating: tuple
    heldout: tuple
    model_cfg: ModelConfig
    backbone: object
    cfg: TrainConfig
    seed: int
    round: int = 0
    # client id -> its trained PromptParams, under `personalized` only
    personal: dict = field(default_factory=dict)

    def broadcast_params(self, cid: int) -> PromptParams:
        """The blocks client `cid` starts the round from, for reading only:
        the server's own, or its trained prompts with the global head."""
        own = self.personal.get(cid)
        return self.params if own is None else replace(own, head=self.params.head)

    def client_inputs(self, cid: int):
        """(prompt parameters, score constants) client `cid` trains and is
        evaluated with; the constants hold the bank as it is now."""
        priors = score_priors(self.clients[cid], self.cfg)
        return (self.broadcast_params(cid),
                score_constants(self.model_cfg, self.bank, priors))


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
        return np.full(client.priors.size, 1.0 / client.priors.size)
    return client.priors


def compute_client_prototypes(client, params, consts, backbone, model_cfg):
    """Frozen forward pass over the shard collecting per-layer class means
    and their sensitivities."""
    _, cls = forward_shard(client.train_x, params, backbone, model_cfg, consts)
    return local_prototypes(cls, client.train_y, params.num_classes,
                            model_cfg.mix_layers)


def _clip_global_norm(grads, threshold):
    # an overflowing norm is reported by the caller, not warned about here
    with np.errstate(over="ignore"):
        total = np.sqrt(sum(float((g**2).sum()) for g in grads))
    if total > threshold:
        factor = threshold / total
        return [g * factor for g in grads], total
    return grads, total


def local_train(client: ClientState, params: PromptParams, consts: dict,
                backbone, model_cfg: ModelConfig, cfg: TrainConfig,
                seed: int, round_index: int) -> ClientUpdate:
    """One client's round from `client_inputs`: prototype snapshot, then E
    epochs of mini-batch SGD with momentum on the one copy of `params` that
    the update carries.  Without mixing, `consts` is empty (no snapshot)."""
    if client.num_train == 0:
        raise DataError(f"client {client.client_id} has no training data")
    params = params.copy()
    protos, sens = {}, {}
    if consts:
        protos, sens = compute_client_prototypes(client, params, consts,
                                                 backbone, model_cfg)
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
                    batch_loss += te.cross_entropy(logits,
                                                   int(client.train_y[i]))
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
    return ClientUpdate(
        client_id=client.client_id,
        params=params,
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
    weights = np.ones(len(updates))
    if weighted:
        weights = np.array([u.num_samples for u in updates], dtype=np.float64)
    weights = weights / weights.sum()
    blocks = []
    for per_client in zip(*(u.params.blocks() for u in updates)):
        acc = np.zeros_like(per_client[0][1].data)
        for (_, block), w in zip(per_client, weights):
            acc += w * block.data
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
                                  state.backbone, state.model_cfg)
        for cid in chosen))
    state.bank.warm_start(submissions, sensitivities,
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
    return tuple(
        evaluate_clients([state.clients[cid] for cid in group], state.backbone,
                         state.model_cfg, state.client_inputs)
        if group else None
        for group in (state.participating, state.heldout))


def _round_log(state: ServerState, train_loss=None, participants=()) -> RoundLog:
    """Evaluate the state after round `state.round` and record it."""
    report, heldout = _evaluate(state)
    return RoundLog(
        round=state.round,
        train_loss=train_loss,
        mean_acc=report.mean_acc,
        worst_acc=report.worst_acc,
        heldout_mean_acc=heldout.mean_acc if heldout else None,
        heldout_worst_acc=heldout.worst_acc if heldout else None,
        participants=participants,
    )


def run_round(state: ServerState) -> RoundLog:
    """Sample, broadcast, train locally, aggregate, sync prototypes."""
    t = state.round + 1
    rng = derive_rng(state.seed, "sample", t)
    chosen = sample_clients(rng, state.participating, state.cfg.clients_per_round)
    updates = [
        local_train(state.clients[cid], *state.client_inputs(cid),
                    state.backbone, state.model_cfg, state.cfg, state.seed, t)
        for cid in chosen
    ]

    if state.cfg.strategy == "personalized":
        # the global prompt blocks keep their initial values
        head = np.zeros_like(state.params.head.data)
        for u in updates:
            head += u.params.head.data
            state.personal[u.client_id] = u.params
        state.params = replace(state.params, head=te.Tensor(head / len(updates)))
    else:
        state.params = fedavg_aggregate(updates, weighted=state.cfg.weighted_fedavg)

    if state.bank is not None:
        for u in updates:
            state.bank.submit(u.prototypes, u.sensitivities)
        if t % state.cfg.update_period == 0:
            state.bank.apply_period_update(rng=derive_rng(state.seed, "dp", t))
            _check_bank(state.bank, t)
    state.round = t
    return _round_log(state, float(np.mean([u.mean_loss for u in updates])),
                      chosen)


def init_server(clients, backbone, model_cfg: ModelConfig, cfg: TrainConfig,
                seed: int, heldout=()) -> ServerState:
    """Initial server state: the one place the strategy picks the effective
    model config and the prototype bank, with the DP budget as its
    `epsilon`.  The returned state then answers, through `client_inputs`,
    what each client trains and is evaluated with."""
    mixing = cfg.strategy != "shared_only"
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
    # each group is evaluated after every round, which needs a test sample
    for group, ids in (("participating", participating), ("heldout", heldout)):
        if ids and not any(c.test_y.size for c in clients
                           if c.client_id in ids):
            raise DataError(f"every {group} client has an empty test shard: "
                            + ", ".join(map(str, ids)))
    if cfg.clients_per_round > len(participating):
        raise ConfigError(
            f"clients_per_round={cfg.clients_per_round} exceeds "
            f"{len(participating)} participating clients")
    if mixing:
        # heldout clients are scored with their own priors when evaluated,
        # and all-zero priors (no training data) leave nothing to normalize
        unscorable = [c.client_id for c in clients
                      if c.client_id in heldout and c.test_y.size > 0
                      and not np.any(score_priors(c, cfg) > 0.0)]
        if unscorable:
            raise DataError("heldout clients with all-zero class priors: "
                            + ", ".join(map(str, unscorable)))
    classes = clients[0].priors.size
    params = PromptParams.init(seed, model_cfg.dim, classes, cfg.shared_prompts)
    bank = None
    if mixing:
        if not model_cfg.mix_layers:
            raise ConfigError("mixing strategy requires at least one mix layer")
        bank = PrototypeBank(layers=tuple(model_cfg.mix_layers),
                             num_classes=classes, dim=model_cfg.dim,
                             rho=cfg.rho, epsilon=cfg.dp_epsilon)
    else:
        model_cfg = replace(model_cfg, mix_layers=())
    return ServerState(
        params=params, bank=bank, clients=clients,
        participating=participating, heldout=heldout,
        model_cfg=model_cfg, backbone=backbone, cfg=cfg, seed=seed)


def run_training(clients, backbone, model_cfg: ModelConfig, cfg: TrainConfig,
                 seed: int, heldout=()):
    """Warm-up, then `cfg.rounds` federated rounds.

    Returns (state, logs) where logs[0] is the post-warm-up evaluation
    (round 0) followed by one entry per training round.
    """
    state = init_server(clients, backbone, model_cfg, cfg, seed, heldout)
    warm_startup(state)
    logs = [_round_log(state)]
    for _ in range(cfg.rounds):
        logs.append(run_round(state))
    return state, logs
