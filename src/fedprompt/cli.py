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
import errno
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import ExperimentConfig, load_config, make_partition
from .data import generate_synthetic, label_histograms
from .errors import ConfigError, DataError, TrainingError
from .evaluation import comm_accounting, evaluate_clients
from .federation import evaluate_state, init_server, run_training
from . import __version__

def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _write_rows(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
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


def _prompt_matrices(state):
    """The matrices of prompts.csv in row order, keyed (block, client): the
    global blocks as client -1, then the shared and class blocks of each
    client in `state.personal`."""
    for name, block in state.params.blocks():
        yield (name, -1), block.data
    for cid in sorted(state.personal):
        for name, block in state.personal[cid].blocks()[:2]:
            yield (name, cid), block.data


def _prototype_matrices(bank):
    """The matrices of prototypes.csv in row order, keyed (layer,): the
    bank's class means, and none without a bank."""
    return [] if bank is None else [((l,), bank.mu[l]) for l in bank.layers]


def _indices(matrix):
    return itertools.product(*map(range, matrix.shape))


def _write_table(path, columns, tables):
    """One row [*key, *index, value] per cell of each (key, matrix) of
    `tables`, in order."""
    _write_rows(path, columns, (
        [*key, *index, repr(float(matrix[index]))]
        for key, matrix in tables for index in _indices(matrix)))


def write_prompts_csv(state, path):
    _write_table(path, PROMPTS_COLUMNS, _prompt_matrices(state))


def write_prototypes_csv(bank, path):
    _write_table(path, PROTOTYPES_COLUMNS, _prototype_matrices(bank))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_config_copy(cfg: ExperimentConfig, path):
    _write_json(path, cfg.to_dict())


def _final_report(cfg, state, logs, report, heldout_report):
    comm = comm_accounting(
        *state.params.class_prompts.data.shape,
        mix_layers=len(_prototype_matrices(state.bank)),
        rounds=cfg.train.rounds, update_period=cfg.train.update_period)
    return {
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


RUN_ARTIFACTS = ("config.json", "metrics.csv", "prompts.csv",
                 "prototypes.csv", "client_accuracy.csv", "final_report.json")
PARTITION_ARTIFACTS = ("partition.csv", "label_histogram.csv", "config.json")


def _check_out_dir(path, artifacts):
    """ConfigError unless `path` is a directory or can become one (its
    nearest existing ancestor, a dangling link included, must be a
    directory, each name to be made must fit in NAME_MAX bytes and each
    artifact's absolute path in PATH_MAX) and each of the `artifacts` to
    be written in it is a regular file or absent."""
    head, names = os.path.abspath(path), []
    while not os.path.lexists(head):
        head, name = os.path.split(head)
        names.append(name)
    if not os.path.isdir(head):
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{head} is not a directory")
    longest = os.path.join(os.path.abspath(path), max(artifacts, key=len))
    # PATH_MAX counts the terminating null byte
    if (len(os.fsencode(longest)) >= os.pathconf(head, "PC_PATH_MAX")
            or any(len(os.fsencode(name)) > os.pathconf(head, "PC_NAME_MAX")
                   for name in names)):
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{os.strerror(errno.ENAMETOOLONG)}")
    for name in artifacts:
        target = os.path.join(path, name)
        if os.path.lexists(target) and not os.path.isfile(target):
            what = ("a directory" if os.path.isdir(target)
                    else "not a regular file")
            raise ConfigError(f"cannot write {target}: it is {what}")


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
    from .model import GRADCHECK_THRESHOLD, gradient_check

    report = gradient_check()
    for name in ("shared", "class", "head"):
        print(f"{name}: max relative error {report[name]:.3e}")
    print(f"overall max relative error {report['max']:.3e} "
          f"(threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if report["max"] < GRADCHECK_THRESHOLD else 1


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
    """(where, fields) for each data row of a CSV a run wrote, `where`
    naming its file and line; DataError unless it reads as UTF-8 CSV, its
    header is `columns` and each row has one field per column."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != columns:
                raise DataError(f"{path} line 1: expected the columns "
                                f"{','.join(columns)}")
            for fields in reader:
                where = f"{path} line {reader.line_num}"
                if len(fields) != len(columns):
                    raise DataError(f"{where}: expected {len(columns)} "
                                    f"fields, got {len(fields)}")
                yield where, fields
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise DataError(f"cannot read {path}: not UTF-8 text")
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}")


def _csv_value(where, field):
    try:
        value = float(field)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{where}: value must be a finite number, "
                        f"got {field!r}")
    return value


def _read_table(path, columns, tables):
    """Read into the matrices of `tables` each cell `_write_table` writes of
    them from exactly one line of `path`, its key spelled as written;
    DataError naming the line that sets no such cell, sets one a second
    time or holds no finite value, or else the first cell no line sets."""
    cells = {tuple(map(str, (*key, *index))): (matrix, index)
             for key, matrix in tables for index in _indices(matrix)}
    unset = dict(cells)

    def name(cell):
        return ", ".join(map(" ".join, zip(columns, cell)))

    for where, fields in _csv_rows(path, columns):
        cell = tuple(fields[:-1])
        if cell not in cells:
            raise DataError(f"{where}: {name(cell)} is not a cell of this run")
        if cell not in unset:
            raise DataError(f"{where}: sets {name(cell)} a second time")
        matrix, index = unset.pop(cell)
        matrix[index] = _csv_value(where, fields[-1])
    if unset:
        raise DataError(f"{path}: no line sets {name(next(iter(unset)))}")


def _load_prototypes_csv(path, bank):
    """Read `bank` (None under `shared_only`) from prototypes.csv;
    DataError on a layer whose squared norms overflow, as `run` would have
    stopped on it."""
    _read_table(path, PROTOTYPES_COLUMNS, _prototype_matrices(bank))
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
    prompts = artifact("prompts.csv")
    _read_table(prompts, PROMPTS_COLUMNS, _prompt_matrices(state))
    _load_prototypes_csv(artifact("prototypes.csv"), state.bank)

    try:
        with np.errstate(over="raise"):
            report, heldout_report = evaluate_state(state)
    except FloatingPointError:  # prompts `run` would have stopped on
        raise DataError(f"{prompts}: the prompts overflow a forward pass")
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
