"""The experiment config: a run's JSON file read into the dataclasses of
its sections, and checked as a whole.

A run is fully defined by its `ExperimentConfig`: data, partition, model,
training strategy and seed.  `federation.init_server` builds its world
from one, so every check that reads the config alone is made here, when
the config is read, before any data is drawn.
"""

import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

from .data import (PartitionSpec, SyntheticSpec, partition_dirichlet,
                   partition_pathological)
from .errors import ConfigError
from .evaluation import participating_count
from .model import ModelConfig

STRATEGIES = ("shared_only", "mixed", "mixed_no_prior", "personalized")


@dataclass(frozen=True)
class TrainConfig:
    clients: int
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
    warmup_fraction: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        for key, ok, rule in (
                ("clients", self.clients >= 1, "be >= 1"),
                ("rounds", self.rounds >= 0, "be >= 0"),
                ("local_epochs", self.local_epochs >= 1, "be >= 1"),
                ("clients_per_round", self.clients_per_round >= 1, "be >= 1"),
                ("batch_size", self.batch_size >= 1, "be >= 1"),
                ("lr", self.lr >= 0, "be >= 0"),
                ("grad_clip", self.grad_clip > 0, "be > 0"),
                # above 1 the rate grows until lr_decay ** round overflows
                ("lr_decay", 0 < self.lr_decay <= 1, "lie in (0, 1]"),
                ("momentum", 0 <= self.momentum < 1, "lie in [0, 1)"),
                ("rho", 0 <= self.rho <= 1, "lie in [0, 1]"),
                ("update_period", self.update_period >= 1, "be >= 1"),
                ("warmup_fraction", 0 < self.warmup_fraction <= 1,
                 "lie in (0, 1]"),
                ("dp_epsilon", self.dp_epsilon is None or self.dp_epsilon > 0,
                 "be > 0 when set")):
            if not ok:
                raise ConfigError(
                    f"train {key} must {rule}, got {getattr(self, key)}")


_JSON_TYPES = {int: int, float: (int, float), str: str, dict: dict}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "an object", tuple: "a list of integers"}


def _typed(value, kind, where):
    """`value` as a `kind`, or ConfigError if its JSON type does not fit."""
    if isinstance(kind, types.UnionType):  # `float | None`: null means unset
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if is_dataclass(kind):  # a nested section, read on its own
        kind = dict
    if kind is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(v, int, where) for v in value)
    elif isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool):
        # json.load accepts NaN and Infinity, which no field can use
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"field {where} must be finite, got {value!r}")
        return kind(value)
    raise ConfigError(f"field {where} must be {_TYPE_NAMES[kind]}, "
                      f"got {value!r}")


def _read(section: dict, name: str, cls):
    """The dataclass `cls` built from one config section: the keys are its
    fields, a field without a default is required, and absent keys take
    the defaults of `cls`.  A field typed by a dataclass is a nested
    section, read the same way in field order."""
    def where(key):
        return f"{name}.{key!r}" if name else repr(key)

    names = {f.name for f in fields(cls)}
    for key in section:
        if key not in names:
            raise ConfigError(f"unknown field {where(key)}")
    values = {}
    for f in fields(cls):
        if f.name in section:
            value = _typed(section[f.name], f.type, where(f.name))
            values[f.name] = (_read(value, f.name, f.type)
                              if is_dataclass(f.type) else value)
        elif f.default is MISSING:
            raise ConfigError(f"missing required field {where(f.name)}")
    return cls(**values)


# (section, key, value) -> {section: its keys that this value leaves
# unread}; each must keep its default, so config.json carries no value
# the run did not use
UNREAD_KEYS = {
    ("train", "strategy", "shared_only"): {
        "train": ("rho", "update_period", "warmup_fraction", "dp_epsilon"),
        "model": ("tau", "mix_layers")},
    ("partition", "mode", "pathological"): {"partition": ("beta",)},
    ("partition", "mode", "dirichlet"): {"partition": ("classes_per_client",)},
}


def _unread(cfg) -> dict:
    """(section, key) -> what leaves it unread ("strategy 'shared_only'"),
    for each key of `cfg` that `UNREAD_KEYS` names."""
    return {(where, key): f"{selector} {value!r}"
            for (section, selector, value), sections in UNREAD_KEYS.items()
            if getattr(getattr(cfg, section), selector) == value
            for where, keys in sections.items() for key in keys}


@dataclass
class ExperimentConfig:
    data: SyntheticSpec
    partition: PartitionSpec
    train: TrainConfig
    model: ModelConfig = ModelConfig()
    seed: int = 0
    out_dir: str = "run"
    heldout_fraction: float = 0.0

    @property
    def num_clients(self) -> int:  # perfbench/counts.py reads this name
        return self.train.clients

    def __post_init__(self):
        self.check()

    def check(self):
        """ConfigError on the first rule the config breaks; `init_server`
        calls it again, for a section assigned after construction."""
        clients = self.train.clients
        unread = _unread(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.out_dir:
            raise ConfigError(f"out_dir must be a nonempty path, "
                              f"got {self.out_dir!r}")
        if self.data.image_size % self.model.patch_size:
            raise ConfigError(
                f"data image_size {self.data.image_size} must be a multiple "
                f"of model patch_size {self.model.patch_size}")
        # `partition_pathological` deals each client k distinct classes and
        # each client holding a class at least one of its train samples
        if self.partition.mode == "pathological":
            k, classes = self.partition.classes_per_client, self.data.classes
            holders = -(-clients * k // classes)  # most clients of one class
            if k > classes:
                raise ConfigError(f"partition classes_per_client must be <= "
                                  f"data classes {classes}, got {k}")
            if clients * k < classes:
                raise ConfigError(
                    f"train clients {clients} x partition classes_per_client "
                    f"{k} must be >= data classes {classes}")
            if self.data.train_per_class < holders:
                raise ConfigError(
                    f"data train_per_class must be >= {holders}, the most "
                    f"clients holding one class, got "
                    f"{self.data.train_per_class}")
        layers = self.model.mix_layers
        if ("model", "mix_layers") not in unread and not (
                layers and max(layers) <= self.model.layers):
            rule = (f"lie within [1, {self.model.layers}]" if layers else
                    f"be set under strategy {self.train.strategy!r}")
            raise ConfigError(f"model mix_layers must {rule}, got {layers}")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must lie in [0, 1)")
        participating = clients
        if self.heldout_fraction > 0:
            participating = participating_count(1.0 - self.heldout_fraction,
                                                clients)
            if not 0 < participating < clients:
                raise ConfigError(
                    f"heldout_fraction {self.heldout_fraction} leaves one "
                    f"side of the split empty for {clients} clients")
        if self.train.clients_per_round > participating:
            raise ConfigError(
                f"train clients_per_round must be <= {participating} "
                f"participating clients, got {self.train.clients_per_round}")
        for (section, key), reader in unread.items():
            part = getattr(self, section)
            default = next(f.default for f in fields(part) if f.name == key)
            if getattr(part, key) != default:
                raise ConfigError(f"{section}.{key!r} is not read by {reader}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return _read(raw, "", cls)

    def to_dict(self) -> dict:
        out = asdict(self)
        # the partition key the mode does not read
        out["partition"] = {k: v for k, v in out["partition"].items()
                            if v is not None}
        return out


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, or ConfigError if it repeats a key, of
    which `json.load` would keep the last value without a word."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeats the key {key!r}")
        out[key] = value
    return out


def load_config(path: str, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not valid JSON: {exc}")
    except ConfigError as exc:  # a repeated key, from `_unique_keys`
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"cannot read config {path}: not a JSON object")
    if seed_override is not None:
        raw["seed"] = seed_override
    if out_override is not None:
        raw["out_dir"] = out_override
    return ExperimentConfig.from_dict(raw)


def make_partition(dataset, cfg: ExperimentConfig):
    spec = cfg.partition
    if spec.mode == "pathological":
        return partition_pathological(dataset, cfg.train.clients,
                                      spec.classes_per_client, cfg.seed)
    return partition_dirichlet(dataset, cfg.train.clients, spec.beta, cfg.seed)
