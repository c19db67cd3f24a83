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
    reject_unread_keys,
    run_training,
)
from .model import ModelConfig, init_backbone
from . import __version__

_JSON_TYPES = {int: int, float: (int, float), str: str, dict: dict}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "an object",
               tuple: "a list of integers"}


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
    elif kind is bool:
        if isinstance(value, bool):
            return value
    elif isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool):
        # json.load accepts NaN and Infinity, which no field can use
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"field {where} must be finite, got {value!r}")
        return kind(value)
    raise ConfigError(f"field {where} must be {_TYPE_NAMES[kind]}, "
                      f"got {value!r}")


def _read(section: dict, name: str, cls, skip=(), extra=None) -> dict:
    """Typed values of one config section for the dataclass `cls`: the keys
    are its fields other than `skip`, plus the required keys `extra` maps
    to their types.  A field without a default is required; absent
    optional keys are left out, so the defaults of `cls` apply."""
    def where(key):
        return f"{name}.{key!r}" if name else repr(key)

    extra = extra or {}
    kinds = {**extra, **{f.name: f.type for f in fields(cls)
                         if f.name not in skip}}
    required = extra.keys() | {f.name for f in fields(cls)
                               if f.default is MISSING}
    for key in section:
        if key not in kinds:
            raise ConfigError(f"unknown field {where(key)}")
    values = {}
    for key, kind in kinds.items():
        if key in section:
            values[key] = _typed(section[key], kind, where(key))
        elif key in required:
            raise ConfigError(f"missing required field {where(key)}")
    return values


@dataclass
class ExperimentConfig:
    data: SyntheticSpec
    partition: PartitionSpec
    train: TrainConfig
    num_clients: int  # the `clients` key of the train section
    model: ModelConfig = ModelConfig()
    seed: int = 0
    out_dir: str = "run"
    heldout_fraction: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_clients < 1:
            raise ConfigError(
                f"train clients must be >= 1, got {self.num_clients}")
        if self.data.image_size % self.model.patch_size:
            raise ConfigError(
                f"data image_size {self.data.image_size} must be a multiple "
                f"of model patch_size {self.model.patch_size}")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must lie in [0, 1)")
        if self.heldout_fraction > 0 and not (
                0 < participating_count(1.0 - self.heldout_fraction,
                                        self.num_clients) < self.num_clients):
            raise ConfigError(
                f"heldout_fraction {self.heldout_fraction} leaves one side "
                f"of the split empty for {self.num_clients} clients")
        reject_unread_keys(self.train.strategy, "model", self.model)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        top = _read(raw, "", cls, skip=("num_clients",))
        top["data"] = SyntheticSpec(**_read(top["data"], "data", SyntheticSpec))
        top["partition"] = PartitionSpec(
            **_read(top["partition"], "partition", PartitionSpec))
        top["model"] = ModelConfig(
            **_read(top.get("model", {}), "model", ModelConfig))
        train = _read(top["train"], "train", TrainConfig,
                      extra={"clients": int})
        num_clients = train.pop("clients")
        top["train"] = TrainConfig(**train)
        return cls(num_clients=num_clients, **top)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["train"]["clients"] = out.pop("num_clients")
        # the partition key the mode does not read
        out["partition"] = {k: v for k, v in out["partition"].items()
                            if v is not None}
        return out


def load_config(path: str, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
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
        return partition_pathological(dataset, cfg.num_clients,
                                      spec.classes_per_client, cfg.seed)
    return partition_dirichlet(dataset, cfg.num_clients, spec.beta, cfg.seed)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(logs, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "train_loss", "mean_acc", "worst_acc",
                         "heldout_mean_acc", "heldout_worst_acc"])
        for log in logs:
            writer.writerow([
                log.round, _fmt(log.train_loss), _fmt(log.mean_acc),
                _fmt(log.worst_acc), _fmt(log.heldout_mean_acc),
                _fmt(log.heldout_worst_acc),
            ])


def write_prompts_csv(state, path):
    """Global prompt blocks (client -1) plus any per-client blocks."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "client", "row", "col", "value"])

        def emit(name, client, matrix):
            for r in range(matrix.shape[0]):
                for c in range(matrix.shape[1]):
                    writer.writerow([name, client, r, c, repr(float(matrix[r, c]))])

        for name, block in state.params.blocks():
            emit(name, -1, block.data)
        for cid in sorted(state.personal):
            for name, block in state.personal[cid].blocks()[:2]:  # no head
                emit(name, cid, block.data)


def write_prototypes_csv(bank, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "class", "dim", "value"])
        if bank is not None:
            for layer, cls, dim, value in bank.export_rows():
                writer.writerow([layer, cls, dim, repr(float(value))])


def write_config_copy(cfg: ExperimentConfig, path):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _final_report(cfg, state, logs, report, heldout_report):
    comm = comm_accounting(
        dim=cfg.model.dim, classes=cfg.data.classes,
        shared_prompts=cfg.train.shared_prompts,
        mix_layers=len(state.model_cfg.mix_layers),
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
        _, heldout = heldout_split(range(cfg.num_clients),
                                   1.0 - cfg.heldout_fraction, cfg.seed)
    return clients, backbone, heldout


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    clients, backbone, heldout = _build_world(cfg)
    state, logs = run_training(clients, backbone, cfg.model, cfg.train,
                               cfg.seed, heldout=heldout)

    # per-client reports of the final state for the artifacts below
    report, heldout_report = (
        evaluate_clients([state.clients[c] for c in group], backbone,
                         state.model_cfg, state.client_inputs)
        if group else None
        for group in (state.participating, state.heldout))

    # created only now, so a run that fails leaves no directory behind
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_config_copy(cfg, os.path.join(cfg.out_dir, "config.json"))
    write_metrics_csv(logs, os.path.join(cfg.out_dir, "metrics.csv"))
    write_prompts_csv(state, os.path.join(cfg.out_dir, "prompts.csv"))
    write_prototypes_csv(state.bank, os.path.join(cfg.out_dir, "prototypes.csv"))
    report.write_csv(os.path.join(cfg.out_dir, "client_accuracy.csv"))
    with open(os.path.join(cfg.out_dir, "final_report.json"), "w") as fh:
        json.dump(_final_report(cfg, state, logs, report, heldout_report),
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    dataset = generate_synthetic(cfg.data, cfg.seed)
    partition = make_partition(dataset, cfg)
    # created only now, so a partition that fails leaves no directory behind
    os.makedirs(cfg.out_dir, exist_ok=True)
    partition.write_csv(dataset, os.path.join(cfg.out_dir, "partition.csv"))
    hist = label_histograms(dataset, partition)
    with open(os.path.join(cfg.out_dir, "label_histogram.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client", "class", "count"])
        for client in range(hist.shape[0]):
            for cls in range(hist.shape[1]):
                writer.writerow([client, cls, int(hist[client, cls])])
    write_config_copy(cfg, os.path.join(cfg.out_dir, "config.json"))
    print(f"partition written to {cfg.out_dir}")
    return 0


def _load_prompts_csv(path, state):
    """Read prompt blocks written by `write_prompts_csv` into `state`."""
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            client = int(row["client"])
            # a client's rows set every entry of its shared and class blocks
            params = (state.params if client == -1 else
                      state.personal.setdefault(client, state.params.copy()))
            block = dict(params.blocks())[row["block"]]
            block.data[int(row["row"]), int(row["col"])] = float(row["value"])


def _load_prototypes_csv(path, bank):
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            bank.mu[int(row["layer"])][int(row["class"]), int(row["dim"])] = (
                float(row["value"]))


def cmd_eval(args) -> int:
    run_dir = args.run_dir

    def artifact(name):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            raise ConfigError(f"no {name} in {run_dir}")
        return path

    cfg = load_config(artifact("config.json"))
    clients, backbone, heldout = _build_world(cfg)
    state = init_server(clients, backbone, cfg.model, cfg.train, cfg.seed,
                        heldout)
    _load_prompts_csv(artifact("prompts.csv"), state)
    if state.bank is not None:
        _load_prototypes_csv(artifact("prototypes.csv"), state.bank)

    report, heldout_report = _evaluate(state)
    payload = {"participating": report.to_dict()}
    if heldout_report is not None:
        payload["heldout"] = heldout_report.to_dict()
    out_path = os.path.join(args.out or run_dir, "eval_report.json")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
