"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Subcommands:
  run        execute a federated training run and write its artifacts
  gradcheck  compare tape gradients against finite differences
  partition  write partition / label-histogram CSVs without training
  eval       re-evaluate a saved run directory

Exit status:
  0  every requested artifact was written
  1  training failed at run time (non-finite loss), or gradcheck failed
  2  the config is invalid (missing, unknown or mistyped field, bad value)
     or yields unusable data, such as a participating client with an empty
     train shard; the stderr line starts with "config error:" or
     "data error:"
"""

import argparse
import csv
import itertools
import json
import math
import os
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

from .data import (
    PartitionSpec,
    SyntheticSpec,
    generate_synthetic,
    label_histograms,
    partition_dirichlet,
    partition_pathological,
)
from .errors import ConfigError, DataError, TrainingError
from .evaluation import (comm_accounting, evaluate_clients, heldout_split,
                         participating_count)
from .federation import (
    TrainConfig,
    _evaluate,
    build_clients,
    init_server,
    run_training,
)
from .model import ModelConfig, init_backbone
from . import __version__

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
        clients = self.train.clients
        unread = _unread(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.data.image_size % self.model.patch_size:
            raise ConfigError(
                f"data image_size {self.data.image_size} must be a multiple "
                f"of model patch_size {self.model.patch_size}")
        if ("model", "mix_layers") not in unread and any(
                l > self.model.layers for l in self.model.mix_layers):
            raise ConfigError(
                f"model mix_layers must lie within [1, {self.model.layers}], "
                f"got {self.model.mix_layers}")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must lie in [0, 1)")
        if self.heldout_fraction > 0 and not (
                0 < participating_count(1.0 - self.heldout_fraction,
                                        clients) < clients):
            raise ConfigError(
                f"heldout_fraction {self.heldout_fraction} leaves one side "
                f"of the split empty for {clients} clients")
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
            raise ConfigError(f"config repeats the key {key!r}")
        out[key] = value
    return out


def load_config(path: str, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
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


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _write_rows(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_metrics_csv(logs, path):
    _write_rows(path, ["round", "train_loss", "mean_acc", "worst_acc",
                       "heldout_mean_acc", "heldout_worst_acc"], (
        [log.round, _fmt(log.train_loss), _fmt(log.mean_acc),
         _fmt(log.worst_acc), _fmt(log.heldout_mean_acc),
         _fmt(log.heldout_worst_acc)] for log in logs))


PROMPTS_COLUMNS = ["block", "client", "row", "col", "value"]
PROTOTYPES_COLUMNS = ["layer", "class", "dim", "value"]


def _prompt_blocks(state):
    """The blocks of prompts.csv in row order: (client, {block name: array})
    for the global blocks as client -1, then for the shared and class
    blocks of each client in `state.personal`."""
    yield -1, {name: block.data for name, block in state.params.blocks()}
    for cid in sorted(state.personal):
        yield cid, {name: block.data
                    for name, block in state.personal[cid].blocks()[:2]}


def _bank_layers(bank):
    """The matrices of prototypes.csv in row order: (layer, its class means)
    over the bank's layers, and none without a bank."""
    return [] if bank is None else [(l, bank.mu[l]) for l in bank.layers]


def _indices(matrix):
    return itertools.product(*map(range, matrix.shape))


def write_prompts_csv(state, path):
    _write_rows(path, PROMPTS_COLUMNS, (
        [name, client, *index, repr(float(data[index]))]
        for client, blocks in _prompt_blocks(state)
        for name, data in blocks.items() for index in _indices(data)))


def write_prototypes_csv(bank, path):
    _write_rows(path, PROTOTYPES_COLUMNS, (
        [layer, *index, repr(float(mu[index]))]
        for layer, mu in _bank_layers(bank) for index in _indices(mu)))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_config_copy(cfg: ExperimentConfig, path):
    _write_json(path, cfg.to_dict())


def _final_report(cfg, state, logs, report, heldout_report):
    comm = comm_accounting(
        dim=cfg.model.dim, classes=cfg.data.classes,
        shared_prompts=cfg.train.shared_prompts,
        mix_layers=len(_bank_layers(state.bank)),
        rounds=cfg.train.rounds, update_period=cfg.train.update_period)
    payload = {
        "version": __version__,
        "rounds": cfg.train.rounds,
        "strategy": cfg.train.strategy,
        "participating": {
            "clients": list(state.participating),
            **report.to_dict(),
        },
        "heldout": None if heldout_report is None else {
            "clients": list(state.heldout),
            **heldout_report.to_dict(),
        },
        "final_train_loss": logs[-1].train_loss,
        "communication": asdict(comm),
    }
    return payload


def _build_world(cfg: ExperimentConfig):
    """Clients, frozen backbone and heldout client ids of a config."""
    dataset = generate_synthetic(cfg.data, cfg.seed)
    clients = build_clients(dataset, make_partition(dataset, cfg))
    backbone = init_backbone(cfg.seed, cfg.model)
    heldout = ()
    if cfg.heldout_fraction > 0:
        _, heldout = heldout_split(range(cfg.train.clients),
                                   1.0 - cfg.heldout_fraction, cfg.seed)
    return clients, backbone, heldout


RUN_ARTIFACTS = ("config.json", "metrics.csv", "prompts.csv",
                 "prototypes.csv", "client_accuracy.csv", "final_report.json")
PARTITION_ARTIFACTS = ("partition.csv", "label_histogram.csv", "config.json")


def _check_out_dir(path, artifacts):
    """ConfigError unless `path` is a directory or can become one (its
    nearest existing ancestor must be a directory) and none of the
    `artifacts` to be written in it is a directory."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{head} is not a directory")
    for name in artifacts:
        if os.path.isdir(os.path.join(path, name)):
            raise ConfigError(f"cannot write {os.path.join(path, name)}: "
                              "it is a directory")


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc.strerror}")


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _check_out_dir(cfg.out_dir, RUN_ARTIFACTS)
    clients, backbone, heldout = _build_world(cfg)
    state, logs = run_training(clients, backbone, cfg.model, cfg.train,
                               cfg.seed, heldout=heldout)

    # per-client reports of the final state for the artifacts below
    report, heldout_report = (
        evaluate_clients([state.clients[c] for c in group], backbone,
                         state.client_inputs)
        if group else None
        for group in (state.participating, state.heldout))

    # created only now, so a run that fails leaves no directory behind
    _make_out_dir(cfg.out_dir)
    write_config_copy(cfg, os.path.join(cfg.out_dir, "config.json"))
    write_metrics_csv(logs, os.path.join(cfg.out_dir, "metrics.csv"))
    write_prompts_csv(state, os.path.join(cfg.out_dir, "prompts.csv"))
    write_prototypes_csv(state.bank, os.path.join(cfg.out_dir, "prototypes.csv"))
    report.write_csv(os.path.join(cfg.out_dir, "client_accuracy.csv"))
    _write_json(os.path.join(cfg.out_dir, "final_report.json"),
                _final_report(cfg, state, logs, report, heldout_report))
    print(f"run complete: mean_acc={report.mean_acc:.4f} "
          f"worst_acc={report.worst_acc:.4f} -> {cfg.out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    from .model import GRADCHECK_SHARED, gradient_check

    if args.classes < 1:
        raise ConfigError(f"--classes must be >= 1, got {args.classes}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ConfigError(
            f"--threshold must be finite and > 0, got {args.threshold}")
    n_params = (args.dim * GRADCHECK_SHARED + args.dim * args.classes
                + args.classes * args.dim)
    if n_params > 5000:
        raise ConfigError(
            f"{n_params} trainable parameters is too many for finite differences")
    report = gradient_check(seed=args.seed, dim=args.dim, layers=args.layers,
                            classes=args.classes, heads=args.heads)
    for name in ("shared", "class", "head"):
        print(f"{name}: max relative error {report[name]:.3e}")
    print(f"overall max relative error {report['max']:.3e} "
          f"(threshold {args.threshold:.0e})")
    return 0 if report["max"] < args.threshold else 1


def cmd_partition(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    _check_out_dir(cfg.out_dir, PARTITION_ARTIFACTS)
    dataset = generate_synthetic(cfg.data, cfg.seed)
    partition = make_partition(dataset, cfg)
    # created only now, so a partition that fails leaves no directory behind
    _make_out_dir(cfg.out_dir)
    _write_rows(os.path.join(cfg.out_dir, "partition.csv"),
                ["client", "sample_index", "label", "split"],
                ((client, int(i), int(labels[i]), split)
                 for split, shards, labels in (
                     ("train", partition.train_indices, dataset.train_y),
                     ("test", partition.test_indices, dataset.test_y))
                 for client, idx in enumerate(shards) for i in idx))
    hist = label_histograms(dataset, partition)
    _write_rows(os.path.join(cfg.out_dir, "label_histogram.csv"),
                ["client", "class", "count"],
                ([*index, int(hist[index])] for index in _indices(hist)))
    write_config_copy(cfg, os.path.join(cfg.out_dir, "config.json"))
    print(f"partition written to {cfg.out_dir}")
    return 0


def _csv_rows(path, columns):
    """(where, row) for each data row of a CSV a run wrote, `where` naming
    its file and line; DataError unless its header is `columns`."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != columns:
            raise DataError(f"{path} line 1: expected the columns "
                            f"{','.join(columns)}")
        for row in reader:
            yield f"{path} line {reader.line_num}", row


def _csv_field(where, row, name, allowed, parse=int):
    """Field `name` of `row` parsed, or DataError unless it is in `allowed`."""
    try:
        value = parse(row[name])
    except (TypeError, ValueError):
        value = None
    if value not in allowed:
        span = (f"an integer in [{allowed.start}, {allowed.stop})"
                if isinstance(allowed, range) else f"one of {list(allowed)}")
        raise DataError(f"{where}: {name} must be {span}, got {row[name]!r}")
    return value


def _csv_value(where, row):
    try:
        value = float(row["value"])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{where}: value must be a finite number, "
                        f"got {row['value']!r}")
    return value


def _set_once(seen, where, entry):
    """Record that the line `where` set `entry`; DataError if a line did
    before."""
    if entry in seen:
        raise DataError(f"{where}: repeats the entry of {entry}")
    seen.add(entry)


def _check_complete(path, seen, expected):
    """DataError naming the first of the `expected` entries no line set."""
    for entry in expected:
        if entry not in seen:
            raise DataError(f"{path}: no entry for {entry}")


def _load_prompts_csv(path, state):
    """Read into `state` each entry of `_prompt_blocks` exactly once."""
    walk = dict(_prompt_blocks(state))
    entry = "block {!r} of client {} at row {}, col {}".format
    seen = set()
    for where, row in _csv_rows(path, PROMPTS_COLUMNS):
        client = _csv_field(where, row, "client",
                            range(-1, len(state.clients)))
        if client not in walk:
            raise DataError(f"{where}: client {client} trains no prompts of "
                            f"its own under strategy {state.cfg.strategy!r}")
        name = _csv_field(where, row, "block", walk[client], str)
        data = walk[client][name]
        index = (_csv_field(where, row, "row", range(data.shape[0])),
                 _csv_field(where, row, "col", range(data.shape[1])))
        _set_once(seen, where, entry(name, client, *index))
        data[index] = _csv_value(where, row)
    _check_complete(path, seen, (
        entry(name, client, *index) for client, blocks in walk.items()
        for name, data in blocks.items() for index in _indices(data)))


def _load_prototypes_csv(path, bank):
    """Read into `bank` (None under `shared_only`) each entry of
    `_bank_layers` exactly once; DataError on a layer whose squared norms
    overflow, as `run` would have stopped on it."""
    walk = dict(_bank_layers(bank))
    entry = "layer {} at class {}, dim {}".format
    seen = set()
    for where, row in _csv_rows(path, PROTOTYPES_COLUMNS):
        layer = _csv_field(where, row, "layer", walk)
        mu = walk[layer]
        index = (_csv_field(where, row, "class", range(mu.shape[0])),
                 _csv_field(where, row, "dim", range(mu.shape[1])))
        _set_once(seen, where, entry(layer, *index))
        mu[index] = _csv_value(where, row)
    _check_complete(path, seen, (
        entry(layer, *index) for layer, mu in walk.items()
        for index in _indices(mu)))
    layer = None if bank is None else bank.overflowing_layer()
    if layer is not None:
        raise DataError(f"{path}: the prototypes of layer {layer} have a "
                        f"non-finite squared norm")


def cmd_eval(args) -> int:
    run_dir = args.run_dir

    def artifact(name):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            raise ConfigError(f"no {name} in {run_dir}")
        return path

    cfg = load_config(artifact("config.json"))
    out_dir = args.out or run_dir
    _check_out_dir(out_dir, ("eval_report.json",))
    clients, backbone, heldout = _build_world(cfg)
    state = init_server(clients, backbone, cfg.model, cfg.train, cfg.seed,
                        heldout)
    _load_prompts_csv(artifact("prompts.csv"), state)
    _load_prototypes_csv(artifact("prototypes.csv"), state.bank)

    report, heldout_report = _evaluate(state)
    payload = {"participating": report.to_dict()}
    if heldout_report is not None:
        payload["heldout"] = heldout_report.to_dict()
    _make_out_dir(out_dir)
    out_path = os.path.join(out_dir, "eval_report.json")
    _write_json(out_path, payload)
    print(f"eval report written to {out_path} "
          f"(mean_acc={report.mean_acc:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedprompt",
        description="Deterministic federated prompt tuning simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a training run")
    run_p.add_argument("--config", required=True, help="JSON config path")
    run_p.add_argument("--seed", type=int, help="override config seed")
    run_p.add_argument("--out", help="override output directory")
    run_p.set_defaults(func=cmd_run)

    grad_p = sub.add_parser("gradcheck",
                            help="autodiff vs finite differences")
    grad_p.add_argument("--seed", type=int, default=0)
    grad_p.add_argument("--dim", type=int, default=16)
    grad_p.add_argument("--layers", type=int, default=4)
    grad_p.add_argument("--classes", type=int, default=4)
    grad_p.add_argument("--heads", type=int, default=2)
    grad_p.add_argument("--threshold", type=float, default=1e-4)
    grad_p.set_defaults(func=cmd_gradcheck)

    part_p = sub.add_parser("partition",
                            help="write partition CSVs without training")
    part_p.add_argument("--config", required=True)
    part_p.add_argument("--seed", type=int)
    part_p.add_argument("--out")
    part_p.set_defaults(func=cmd_partition)

    eval_p = sub.add_parser("eval", help="re-evaluate a saved run")
    eval_p.add_argument("--run-dir", required=True)
    eval_p.add_argument("--out")
    eval_p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
