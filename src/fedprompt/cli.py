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
from dataclasses import asdict

from .config import ExperimentConfig, load_config, make_partition
from .data import generate_synthetic, label_histograms
from .errors import ConfigError, DataError, TrainingError
from .evaluation import comm_accounting, evaluate_clients
from .federation import _evaluate, init_server, run_training
from . import __version__

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
    state = init_server(cfg)
    logs = run_training(state)

    # per-client reports of the final state for the artifacts below
    report, heldout_report = (
        evaluate_clients([state.clients[c] for c in group], state.backbone,
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
    state = init_server(cfg)
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
