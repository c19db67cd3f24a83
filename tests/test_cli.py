import copy
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from openblas_core import loaded_core

import fedprompt
from fedprompt import cli
from fedprompt.cli import main, write_config_copy
from fedprompt.config import (STRATEGIES, UNREAD_KEYS, ExperimentConfig,
                              TrainConfig, load_config)
from fedprompt.data import (MODES, PartitionSpec, SyntheticSpec,
                            generate_synthetic)
from fedprompt.errors import ConfigError
from fedprompt.model import ModelConfig


# an override value that removes the key from the base config
DROP = object()


def small_config(tmp_path, **overrides):
    """A 3-layer run config with `overrides` merged in, section by section.
    Under `shared_only`, which does not read `model.mix_layers`, the layer
    it sets is left out unless `overrides` names it."""
    cfg = {
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
        "data": {"classes": 4, "train_per_class": 10, "test_per_class": 4,
                 "image_size": 8, "separation": 1.5, "noise": 0.5},
        "partition": {"mode": "pathological", "classes_per_client": 2},
        "model": {"dim": 8, "layers": 3, "heads": 2, "patch_size": 4,
                  "mix_layers": [2]},
        "train": {"clients": 6, "clients_per_round": 2, "rounds": 2,
                  "local_epochs": 1, "batch_size": 8},
        "heldout_fraction": 0.0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key] = {k: v for k, v in {**cfg[key], **value}.items()
                        if v is not DROP}
        else:
            cfg[key] = value
    if (cfg["train"].get("strategy") == "shared_only"
            and "mix_layers" not in overrides.get("model", {})):
        del cfg["model"]["mix_layers"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# a run whose lr of 1e153 carries client 1's prompts so far in its first
# local SGD that a later forward overflows the squares of a layer norm;
# at 1e152 no forward overflows, at 1e154 the gradient norm already does
OVERFLOWING_RUN = {
    "data": {"classes": 4, "train_per_class": 8, "test_per_class": 4,
             "image_size": 8},
    "partition": {"mode": "pathological", "classes_per_client": 2},
    "model": {"dim": 8, "layers": 3, "heads": 2, "patch_size": 4,
              "mix_layers": [2]},
    "train": {"clients": 4, "clients_per_round": 2, "rounds": 2,
              "batch_size": 4, "lr": 1e153},
    "heldout_fraction": 0.25,
}

# a run whose lr of 1.7e308 lets each client's one step, taken after its
# last forward, carry the prompts so far that the head product of the
# round-1 evaluation overflows, outside any client's own work; at 1.2e308
# the run completes
OVERFLOWING_EVAL_RUN = {
    "data": {"classes": 4, "train_per_class": 8, "test_per_class": 4,
             "image_size": 8},
    "partition": {"mode": "pathological", "classes_per_client": 2},
    "model": {"dim": 32, "layers": 2, "heads": 2, "patch_size": 4,
              "mix_layers": [2]},
    "train": {"clients": 4, "clients_per_round": 2, "rounds": 1,
              "batch_size": 16, "local_epochs": 1, "lr": 1.7e308},
}


# every file `fedprompt run` writes
ARTIFACTS = ("config.json", "metrics.csv", "prompts.csv", "prototypes.csv",
             "client_accuracy.csv", "final_report.json")


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_smoke_run_writes_all_artifacts(self, tmp_path):
        path, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "run"
        # the names `run` checks before it trains are the files it writes
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        assert sorted(cli.RUN_ARTIFACTS) == sorted(ARTIFACTS)
        rows = read_metrics(out)
        assert len(rows) == cfg["train"]["rounds"] + 1
        assert rows[0]["round"] == "0" and rows[0]["train_loss"] == ""
        report = json.loads((out / "final_report.json").read_text())
        assert 0.0 <= report["participating"]["mean_acc"] <= 1.0

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        path, _ = small_config(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_metrics(self, tmp_path):
        path, _ = small_config(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--seed", "7",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a != b
        saved = json.loads((tmp_path / "b" / "config.json").read_text())
        assert saved["seed"] == 7

    def test_run_trains_and_evaluates_through_the_names_cli_binds(
            self, tmp_path, monkeypatch):
        # the benchmark times training and the final evaluation by
        # replacing `cli.run_training` and `cli.evaluate_clients`, so
        # `cmd_run` must call both through these names
        calls = []

        def spy(name):
            real = getattr(cli, name)

            def called(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return called

        for name in ("run_training", "evaluate_clients"):
            monkeypatch.setattr(cli, name, spy(name))
        path, _ = small_config(tmp_path, heldout_fraction=0.34)
        assert main(["run", "--config", str(path)]) == 0
        # one final evaluation each of the participating and heldout clients
        assert calls == ["run_training", "evaluate_clients", "evaluate_clients"]

    def test_missing_field_names_it(self, tmp_path, capsys):
        path, _ = small_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["train"]["rounds"]
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        assert "train.'rounds'" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "partition", "eval"])
    @pytest.mark.parametrize("section", [None, "train"])
    def test_repeated_key_rejected(self, tmp_path, capsys, command, section):
        # json.load would keep the second `rounds` and drop the first
        path, _ = small_config(tmp_path, train={"rounds": 1})
        if command == "eval":
            assert main(["run", "--config", str(path)]) == 0
            capsys.readouterr()
            path = tmp_path / "run" / "config.json"
        text = path.read_text()
        if section is None:
            text = text.replace('"seed": 0,', '"seed": 0, "seed": 0,', 1)
        else:
            text = text.replace('"rounds": 1', '"rounds": 4, "rounds": 1', 1)
        assert text != path.read_text()
        path.write_text(text)
        args = (["eval", "--run-dir", str(tmp_path / "run")]
                if command == "eval" else [command, "--config", str(path)])
        assert main(args) == 2
        key = "seed" if section is None else "rounds"
        # the path says which file repeats it, a saved run's under eval
        assert capsys.readouterr().err == (
            f"config error: cannot read config {path}: repeats the key "
            f"{key!r}\n")
        if command == "eval":
            assert not (tmp_path / "run" / "eval_report.json").exists()
        else:
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["run", "partition", "eval"])
    def test_non_object_config_rejected(self, tmp_path, capsys, saved_run,
                                        command):
        if command == "eval":
            run = tmp_path / "run"
            shutil.copytree(saved_run, run)
            path = run / "config.json"
            args = ["eval", "--run-dir", str(run)]
        else:
            path = tmp_path / "list.json"
            args = [command, "--config", str(path)]
        path.write_text("[1, 2]")
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config {path}: not a JSON object\n")

    @pytest.mark.parametrize("command", ["run", "partition", "eval"])
    @pytest.mark.parametrize("case, reason", [
        ("directory", "Is a directory"), ("not-utf8", "not UTF-8 text"),
        ("missing", "No such file or directory"),
        ("truncated", "not valid JSON: Expecting property name enclosed in "
                      "double quotes: line 1 column 12 (char 11)")])
    def test_unreadable_config_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, saved_run, command, case,
            reason):
        # no out_dir can be read, so nothing may appear in the working
        # directory either
        monkeypatch.chdir(tmp_path)
        if command == "eval":
            run = tmp_path / "run"
            shutil.copytree(saved_run, run)
            path = run / "config.json"
            path.unlink()
            args = ["eval", "--run-dir", str(run)]
            if case == "missing":
                reason = None  # eval names the file the run dir lacks
        else:
            path = tmp_path / "config.json"
            args = [command, "--config", str(path)]
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"\xff\xfe{")
        elif case == "truncated":
            path.write_bytes(b'{"seed": 0,')
        before = sorted(tmp_path.rglob("*"))
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config {path}: {reason}\n"
            if reason else f"config error: no config.json in {run}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_final_report_repeats_the_last_round(self, tmp_path, strategy):
        # the final evaluation scores the state the last round evaluated
        path, _ = small_config(tmp_path, heldout_fraction=0.34,
                               train={"strategy": strategy})
        assert main(["run", "--config", str(path)]) == 0
        last = read_metrics(tmp_path / "run")[-1]
        report = json.loads(
            (tmp_path / "run" / "final_report.json").read_text())
        for group, prefix in (("participating", ""), ("heldout", "heldout_")):
            for key in ("mean_acc", "worst_acc"):
                assert report[group][key] == float(last[prefix + key])

    def test_heldout_columns_written(self, tmp_path):
        path, _ = small_config(tmp_path, heldout_fraction=0.34)
        assert main(["run", "--config", str(path)]) == 0
        rows = read_metrics(tmp_path / "run")
        assert all(row["heldout_mean_acc"] != "" for row in rows)
        report = json.loads(
            (tmp_path / "run" / "final_report.json").read_text())
        assert report["heldout"] is not None
        assert len(report["heldout"]["clients"]) == 2

    @pytest.mark.parametrize("overrides, message", [
        ({"train": {"learning_rate": 0.5}}, "unknown field train.'learning_rate'"),
        ({"model": {"mlp_mult": 2}}, "unknown field model.'mlp_mult'"),
        # the data section alone sets the image size
        ({"model": {"image_size": 8}}, "unknown field model.'image_size'"),
        ({"heldout": 0.2}, "unknown field 'heldout'"),
        # mixing always refreshes, sends gradients through the scores and
        # averages clients unweighted, so these switches are gone
        ({"model": {"refresh_mix": "false"}},
         "unknown field model.'refresh_mix'"),
        ({"model": {"detach_scores": False}},
         "unknown field model.'detach_scores'"),
        ({"train": {"weighted_fedavg": False}},
         "unknown field train.'weighted_fedavg'"),
        ({"train": {"rounds": 2.5}}, "train.'rounds' must be an integer"),
        ({"train": {"lr": True}}, "train.'lr' must be a number"),
        ({"data": {"classes": "4"}}, "data.'classes' must be an integer"),
        ({"model": {"mix_layers": [2.0]}}, "model.'mix_layers' must be an integer"),
        ({"partition": {"beta": None}}, "partition.'beta' must be a number"),
        ({"partition": {"mode": "dirichlet", "beta": float("inf")}},
         "partition.'beta' must be finite, got inf"),
        ({"partition": {"mode": "dirichlet", "beta": float("nan")}},
         "partition.'beta' must be finite, got nan"),
        ({"model": {"tau": float("nan")}}, "model.'tau' must be finite"),
        ({"train": {"lr": float("-inf")}}, "train.'lr' must be finite"),
        ({"heldout_fraction": float("nan")}, "'heldout_fraction' must be finite"),
        ({"model": {"dim": 0}}, "model dim must be >= 2, got 0"),
        ({"model": {"layers": 0}}, "model layers must be >= 1, got 0"),
        ({"model": {"heads": 0}}, "model heads must be >= 1, got 0"),
        ({"model": {"patch_size": 0}}, "model patch_size must be >= 1, got 0"),
        ({"data": {"image_size": -8}}, "data image_size must be >= 1, got -8"),
        ({"data": {"image_size": 0}}, "data image_size must be >= 1, got 0"),
        ({"data": {"image_size": 12}, "model": {"patch_size": 8}},
         "data image_size 12 must be a multiple of model patch_size 8"),
        ({"data": {"classes": 0}}, "data classes must be >= 1, got 0"),
        ({"data": {"test_per_class": 0}},
         "data test_per_class must be >= 1, got 0"),
        ({"data": {"train_per_class": -1}},
         "data train_per_class must be >= 1, got -1"),
        # far larger pixels overflow the layer norms' squares, which then
        # zero every image token
        ({"data": {"separation": 1e200}},
         "data separation must be <= 1e100, got 1e+200"),
        ({"data": {"noise": 1e200}}, "data noise must be <= 1e100, got 1e+200"),
        ({"train": {"clients": 0}}, "train clients must be >= 1, got 0"),
        ({"train": {"clients": -1},
          "partition": {"mode": "dirichlet", "beta": 0.3,
                        "classes_per_client": DROP}},
         "train clients must be >= 1, got -1"),
        ({"heldout_fraction": 0.9, "train": {"clients": 3}},
         "heldout_fraction 0.9 leaves one side of the split empty for 3 "
         "clients"),
        ({"heldout_fraction": 0.01},
         "heldout_fraction 0.01 leaves one side of the split empty for 6 "
         "clients"),
        ({"train": {"rounds": -1}}, "train rounds must be >= 0, got -1"),
        ({"train": {"batch_size": 0}}, "train batch_size must be >= 1, got 0"),
        # every round trains and averages at least one client
        ({"train": {"clients_per_round": 0}},
         "train clients_per_round must be >= 1, got 0"),
        # the warm-up bank averages at least one client's prototypes
        ({"train": {"warmup_fraction": 0}},
         "train warmup_fraction must lie in (0, 1], got 0.0"),
        # the split into participating and heldout clients is made below
        # `init_server` from these fractions, unchecked
        ({"heldout_fraction": 1.0}, "heldout_fraction must lie in [0, 1)"),
        ({"heldout_fraction": -0.25}, "heldout_fraction must lie in [0, 1)"),
        # the Laplace scale S / epsilon and the momentum rule take these as
        # they are
        ({"train": {"dp_epsilon": 0}},
         "train dp_epsilon must be > 0 when set, got 0.0"),
        ({"train": {"rho": -0.5}}, "train rho must lie in [0, 1], got -0.5"),
        ({"train": {"dp_epsilon": -1}},
         "train dp_epsilon must be > 0 when set, got -1.0"),
        # every run has one shared prompt token, so its count is gone
        ({"train": {"shared_prompts": 1}},
         "unknown field train.'shared_prompts'"),
        ({"data": {"noise": -1}}, "data noise must be >= 0, got -1"),
        ({"data": {"separation": -1}}, "data separation must be >= 0, got -1"),
        ({"model": {"mix_layers": [2, 2]}},
         "model mix_layers must not repeat a layer, got (2, 2)"),
        ({"model": {"mix_layers": [4]}},
         "model mix_layers must lie within [1, 3], got (4,)"),
        ({"model": {"mix_layers": []}},
         "model mix_layers must be set under strategy 'mixed', got ()"),
        ({"train": {"clients_per_round": 7}},
         "train clients_per_round must be <= 6 participating clients, got 7"),
        ({"train": {"clients_per_round": 5}, "heldout_fraction": 0.34},
         "train clients_per_round must be <= 4 participating clients, got 5"),
        ({"model": {"heads": 3}}, "model heads must divide dim 8, got 3"),
        ({"model": {"tau": 0.0}}, "model tau must be >= 1e-300, got 0.0"),
        # a subnormal tau overflows sim / tau into non-finite scores
        ({"model": {"tau": 5e-309}},
         "model tau must be >= 1e-300, got 5e-309"),
        ({"partition": {"k": 2}}, "unknown field partition.'k'"),
        ({"partition": {"mode": DROP}},
         "missing required field partition.'mode'"),
        ({"partition": {"classes_per_client": DROP}},
         "missing required field partition.'classes_per_client'"),
        ({"partition": {"mode": "dirichlet", "classes_per_client": DROP}},
         "missing required field partition.'beta'"),
        # a key the mode never reads is rejected, not written to config.json
        ({"partition": {"beta": -5.0}, "train": {"rounds": 0}},
         "partition.'beta' is not read by mode 'pathological'"),
        ({"partition": {"mode": "dirichlet", "beta": 0.3,
                        "classes_per_client": 99}},
         "partition.'classes_per_client' is not read by mode 'dirichlet'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"out_dir": ""}, "out_dir must be a nonempty path, got ''"),
        ({"train": {"lr_decay": 1e300}},
         "train lr_decay must lie in (0, 1], got 1e+300"),
        ({"train": {"momentum": -5}},
         "train momentum must lie in [0, 1), got -5.0"),
        ({"train": {"rho": 1.5}}, "train rho must lie in [0, 1], got 1.5"),
        ({"train": {"rho": 1.5, "strategy": "shared_only"}},
         "train rho must lie in [0, 1], got 1.5"),
        ({"train": {"lr": -1}}, "train lr must be >= 0, got -1.0"),
        ({"train": {"grad_clip": 0}}, "train grad_clip must be > 0, got 0.0"),
        # keys the strategy never reads are rejected, not written to config.json
        ({"train": {"strategy": "shared_only", "dp_epsilon": 1.0}},
         "train.'dp_epsilon' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only", "rho": 0.5}},
         "train.'rho' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only", "update_period": 3}},
         "train.'update_period' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only", "warmup_fraction": 0.5}},
         "train.'warmup_fraction' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only"}, "model": {"tau": 0.01}},
         "model.'tau' is not read by strategy 'shared_only'"),
        # a 3-layer model need not set it, but one that does is rejected
        ({"train": {"strategy": "shared_only"}, "model": {"mix_layers": [2]}},
         "model.'mix_layers' is not read by strategy 'shared_only'"),
        # ... also where it lies beyond the model's layers, which no
        # shared_only run checks
        ({"train": {"strategy": "shared_only"}, "model": {"mix_layers": [4]}},
         "model.'mix_layers' is not read by strategy 'shared_only'"),
    ])
    def test_bad_key_or_type_names_field(self, tmp_path, capsys, overrides,
                                         message):
        path, _ = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_one_feature_model_exits_before_any_data(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # at dim 1 every layer norm outputs 0, so a run would train nothing
        # (its loss stays ln 4) and still exit 0
        def no_data(*args, **kwargs):
            raise AssertionError("drew data for a config it rejects")

        from fedprompt import federation

        for module in (cli, federation):
            monkeypatch.setattr(module, "generate_synthetic", no_data)
        path, _ = small_config(tmp_path, model={"dim": 1, "heads": 1})
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: model dim must be >= 2, got 1\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("train", [
        pytest.param({"clients": 8}, id="warmup-samples-empty"),
        # the warm-up samples none of the empty clients; round sampling would
        pytest.param({"clients": 8, "warmup_fraction": 0.25, "rounds": 6},
                     id="warmup-misses-empty"),
    ])
    def test_empty_train_shard_exits_with_data_error(self, tmp_path, capsys,
                                                     train):
        # Dirichlet beta=0.1 over 8 clients leaves clients without train
        # samples; that follows from the config alone, so it is a usage error
        # raised before any training
        path, _ = small_config(
            tmp_path,
            data={"classes": 4, "train_per_class": 6},
            partition={"mode": "dirichlet", "beta": 0.1,
                       "classes_per_client": DROP},
            train=train)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("data error: participating clients without training "
                       "data: 1, 4, 5\n")
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("strategy, code", [
        ("mixed", 2), ("personalized", 2), ("mixed_no_prior", 0),
        ("shared_only", 0)])
    def test_zero_prior_heldout_client_rejected_before_training(
            self, tmp_path, capsys, strategy, code):
        # heldout client 0 has an empty train shard, so all-zero priors, and
        # a nonempty test shard; only strategies that score it with its own
        # priors cannot evaluate it
        path, _ = small_config(
            tmp_path, seed=7, heldout_fraction=0.34,
            data={"classes": 4, "train_per_class": 3, "test_per_class": 8},
            partition={"mode": "dirichlet", "beta": 0.5,
                       "classes_per_client": DROP},
            train={"rounds": 1, "strategy": strategy})
        assert main(["run", "--config", str(path)]) == code
        if code:
            assert capsys.readouterr().err == (
                "data error: heldout clients with all-zero class priors: 0\n")
            assert not (tmp_path / "run").exists()

    # Laplace noise of scale S/1e-310 overflows in the warm start; of scale
    # S/1e-300 it leaves finite prototypes whose squared norms overflow
    @pytest.mark.parametrize("epsilon", [1e-310, 1e-300])
    def test_non_finite_prototypes_fail_with_round_and_layer(self, tmp_path,
                                                            capsys, epsilon):
        path, _ = small_config(tmp_path, train={"dp_epsilon": epsilon})
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "training error: non-finite prototype norms at layer 2 (round=0)\n")
        assert not (tmp_path / "run").exists()

    def test_overflowing_score_gradient_fails_without_a_warning(
            self, tmp_path, capsys):
        # all-zero pixels make every cls token and every prototype one
        # vector, so each client's three classes tie at scores of 1/3; the
        # score map's gradient, zero in exact arithmetic, keeps a rounding
        # residue that division by tau 1e-300 carries past the float range:
        # the run stops on the non-finite norm, and no numpy warning (an
        # error in this suite) comes before it.  The test relies on that
        # residue being nonzero, so a kernel that computed the tied scores
        # exactly would exit 0 and fail it; the residue was seen under the
        # OpenBLAS cores SkylakeX, Haswell, Sandybridge and Prescott on one
        # x86 host only
        path, _ = small_config(tmp_path,
                               model={"mix_layers": [1, 2], "tau": 1e-300},
                               data={"separation": 0.0, "noise": 0.0,
                                     "classes": 6},
                               partition={"classes_per_client": 3})
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "training error: non-finite gradient norm (round=1, client=3)\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw, where", [
        (OVERFLOWING_RUN, "round=1, client=1"),
        (OVERFLOWING_EVAL_RUN, "round=1")], ids=["local-sgd", "evaluation"])
    def test_overflowing_forward_fails_with_round_and_client(
            self, tmp_path, capsys, raw, where):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "run")}))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"training error: floating-point overflow ({where})\n")
        assert not (tmp_path / "run").exists()

    def test_group_without_test_data_rejected_before_any_forward(
            self, tmp_path, capsys, monkeypatch):
        # every group is evaluated after the warm-up and each round; here
        # heldout client 9 is the only heldout one and has no test sample
        from fedprompt import evaluation, federation

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass before the data check")

        for module in (evaluation, federation):
            monkeypatch.setattr(module, "forward_shard", no_forward)
        raw = json.loads((ROOT / "configs" / "dirichlet_heldout.json").read_text())
        raw.update(seed=1, out_dir=str(tmp_path / "run"))
        raw["data"]["test_per_class"] = 1
        raw["partition"]["beta"] = 0.05
        raw["train"]["rounds"] = 2
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "data error: every heldout client has an empty test shard: 9\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [
        {"train": {"clients": -1}},
        {"heldout_fraction": 0.9, "train": {"clients": 3}},
        {"data": {"image_size": 12}, "model": {"patch_size": 8}},
    ])
    def test_rejected_when_parsed(self, tmp_path, overrides):
        # before any data is generated
        path, _ = small_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_model_fields_are_the_model_section(self, tmp_path):
        # a ModelConfig field no config key sets, copied from another
        # section or fixed, would show up here
        path, _ = small_config(tmp_path)
        written = load_config(str(path)).to_dict()["model"]
        assert list(written) == [f.name for f in
                                 dataclasses.fields(ModelConfig)]

    def test_zero_update_period_rejected_before_training(self, tmp_path,
                                                         capsys):
        # shared_only has no prototype bank to reject the period, so the
        # config itself must
        path, _ = small_config(
            tmp_path, train={"strategy": "shared_only", "update_period": 0})
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: train update_period must be >= 1, got 0\n"
        assert not (tmp_path / "run").exists()


def tiny_config(partition=None, clients=2, heldout_fraction=0.0,
                strategy="mixed", dp_epsilon=None):
    """A run config small enough to train in a few milliseconds; under
    `shared_only` it leaves out the mix layer that strategy does not read."""
    cfg = {
        "data": {"classes": 3, "train_per_class": 3, "test_per_class": 2,
                 "image_size": 4, "separation": 1.0, "noise": 1.0},
        "partition": partition or {"mode": "pathological",
                                   "classes_per_client": 2},
        "model": {"dim": 4, "layers": 2, "heads": 1, "patch_size": 2,
                  "mix_layers": [2]},
        "train": {"clients": clients, "clients_per_round": 1, "rounds": 1,
                  "local_epochs": 1, "batch_size": 4, "strategy": strategy,
                  "dp_epsilon": dp_epsilon},
        "heldout_fraction": heldout_fraction,
    }
    if strategy == "shared_only":
        del cfg["model"]["mix_layers"]
    return cfg


# the fields of each config section, walked as `cli._read` reads them;
# the model comes first, since the data's image size depends on it
SECTIONS = {"model": ModelConfig, "data": SyntheticSpec,
            "partition": PartitionSpec, "train": TrainConfig,
            "": ExperimentConfig}
# values of a field that a tiny run affords, the likeliest first, and
# values outside its checked range; a float field not named accepts
# (0, 1) and rejects -1 and infinity
TINY = {"classes": ([3, 2, 1], [0]), "train_per_class": ([3, 1, 4], [0]),
        "test_per_class": ([2, 1], [0]), "layers": ([2, 1], [0]),
        "heads": ([1, 2], [0]), "patch_size": ([2, 3, 1], [0]),
        "classes_per_client": ([2, 1, 3], [0, 4]),
        "clients_per_round": ([1, 2], [0]), "rounds": ([1, 2, 0], [-1]),
        "local_epochs": ([1, 2], [0]), "batch_size": ([4, 1, 2], [0]),
        "update_period": ([1, 2], [0]),
        "seed": ([0, 1, 7], [-1]), "clients": ([3, 4, 2, 1], [0, -1]),
        "separation": ([1.0, 0.0, 1e100], [-1.0, 1e101]),
        "noise": ([1.0, 0.0, 1e100], [-1.0, 1e101]),
        "beta": ([0.5, 1e-3, 100.0], [0.0, -1.0]),
        "tau": ([0.05, 1e-300, 1.0], [0.0, 5e-309]),
        "heldout_fraction": ([0.0, 0.34, 0.5], [1.0, 0.01, 0.9])}
# float fields with no upper bound, and the large values drawn beside
# (0.05, 0.95): an lr of 1e156 overflows a forward in about one tiny run
# of three, and the gradient norm in some others
LARGE = {"lr": [1e156]}
# integer fields drawn as 1 or 2 times another field
MULTIPLES = {"dim": "heads", "image_size": "patch_size"}


def tiny_value(draw, name, kind, drawn, crossed):
    """A value of the field `name` of type `kind` that a tiny run affords,
    or, if `crossed`, one outside its checked range; `drawn` holds the
    fields drawn before it."""
    if isinstance(kind, types.UnionType):  # `float | None`: None is unset
        if not crossed and draw(st.booleans()):
            return None
        kind = typing.get_args(kind)[0]
    if name in MULTIPLES:
        base = drawn[MULTIPLES[name]]
        # a layer norm over one feature maps every token to 0, so dim 1 is
        # out of range
        low, invalid = (2, [0, -base, 1]) if name == "dim" else (1, [0, -base])
        valid = st.sampled_from([max(2 * base, low), max(base, low)])
    elif kind is tuple:  # mix_layers: distinct layers of the model
        layers = max(drawn["layers"], 1)  # a crossed `layers` is 0
        valid = st.lists(st.integers(1, layers), min_size=1, max_size=layers,
                         unique=True)
        invalid = [[0], [layers + 1]]
    elif name in TINY:
        valid, invalid = st.sampled_from(TINY[name][0]), TINY[name][1]
    else:
        assert kind is float, name
        valid, invalid = st.floats(0.05, 0.95), [-1.0, math.inf]
        if name in LARGE:
            valid |= st.sampled_from(LARGE[name])
    return draw(st.sampled_from(invalid) if crossed else valid)


@st.composite
def tiny_configs(draw):
    """Tiny run configs drawn field by field from the dataclasses: the
    strategy and the partition mode from their tuples, each other field
    from its type, and the keys the strategy or the mode does not read
    left out.  One draw in five puts one field outside its checked
    range (a strategy or mode outside its tuple)."""
    strategy = draw(st.sampled_from(STRATEGIES))
    mode = draw(st.sampled_from(tuple(MODES)))
    chosen = {"strategy": strategy, "mode": mode}
    unread = {(section, key)
              for (_, selector, value), keys in UNREAD_KEYS.items()
              if chosen[selector] == value
              for section, names in keys.items() for key in names}
    kinds = {section: {f.name: f.type for f in dataclasses.fields(cls)
                       if (section, f.name) not in unread
                       and not dataclasses.is_dataclass(f.type)}
             for section, cls in SECTIONS.items()}
    del kinds[""]["out_dir"]  # the test's own
    names = [name for fields in kinds.values() for name in fields]
    crossed = (draw(st.sampled_from(names))
               if draw(st.sampled_from([False] * 4 + [True])) else None)
    drawn = {"strategy": "bogus" if crossed == "strategy" else strategy,
             "mode": "bogus" if crossed == "mode" else mode}
    # each multiple after the field it multiplies
    for name, kind in sorted(
            (item for fields in kinds.values() for item in fields.items()),
            key=lambda item: item[0] in MULTIPLES):
        if name not in drawn:
            drawn[name] = tiny_value(draw, name, kind, drawn, name == crossed)
    raw = {name: drawn[name] for name in kinds.pop("")}
    raw.update((section, {name: drawn[name] for name in fields})
               for section, fields in kinds.items())
    return raw


def with_examples(raws):
    """Hypothesis `example`s of each config in `raws`."""
    def wrap(test):
        for raw in raws:
            test = example(raw)(test)
        return test
    return wrap


class TestConfigProperty:
    # 200 drawn configs and these: a negative client count must be rejected
    # before the Dirichlet draw, which raises a ValueError on it, a forward
    # that overflows must stop the run, and every strategy, with and
    # without DP noise, runs with a heldout client
    @with_examples([
        tiny_config(clients=-1, partition={"mode": "dirichlet", "beta": 0.5}),
        OVERFLOWING_RUN,
        *(tiny_config(clients=4, heldout_fraction=0.34, strategy=strategy,
                      dp_epsilon=dp_epsilon)
          for strategy in STRATEGIES
          for dp_epsilon in (None, 1.0)
          if not (strategy == "shared_only" and dp_epsilon))])
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(tiny_configs())
    def test_run_exits_with_documented_status(self, raw):
        # a config is run or rejected with its exit code, never a traceback
        # or a warning (the suite turns warnings into errors); a run writes
        # every artifact, a second run writes the same bytes, and `eval` on
        # it scores each client as the run did
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({**raw, "out_dir": str(out)}))
            code = main(["run", "--config", str(path)])
            assert code in (0, 1, 2)
            if code:
                return
            for name in ARTIFACTS:
                assert (out / name).exists(), name
            again = Path(tmp) / "again"
            assert main(["run", "--config", str(path), "--out",
                         str(again)]) == 0
            for name in ("metrics.csv", "prompts.csv", "prototypes.csv"):
                assert (again / name).read_bytes() == (out / name).read_bytes()
            assert main(["eval", "--run-dir", str(out)]) == 0
            final = json.loads((out / "final_report.json").read_text())
            report = json.loads((out / "eval_report.json").read_text())
            for group in ("participating", "heldout"):
                if final[group] is not None:
                    del final[group]["clients"]
                assert report.get(group) == final[group], group


class TestGradcheckCommand:
    def test_passes_on_healthy_model(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "shared" in out and "class" in out and "head" in out

    def test_takes_no_options(self, capsys):
        # the check runs at one size, the one that sees every map
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--dim", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dim 8" in capsys.readouterr().err

    def test_fails_with_corrupted_backward(self, monkeypatch, capsys):
        from fedprompt import model
        from fedprompt.prototypes import soft_scores_op

        true_mix = model._mix

        def corrupted(seq, class_prompts, consts, replace, tape):
            # the mixing primitive with its class-prompt gradient 1.5x too
            # large: a map recorded after the mix's own adds half again
            out = true_mix(seq, class_prompts, consts, replace, tape)
            if tape is not None:
                scores = soft_scores_op(seq[0], consts, False)[0]

                def extra(g):
                    class_prompts.grad += 0.5 * (g[1:2].T @ scores[None, :])
                    return g

                tape.record(extra)
            return out

        monkeypatch.setattr(model, "_mix", corrupted)
        assert main(["gradcheck"]) == 1
        assert "class: max relative error 5.000e-01" in capsys.readouterr().out

    @pytest.mark.parametrize("corruption", ["scaled", "row1"])
    def test_default_size_sees_score_to_cls_map(self, monkeypatch, capsys,
                                                corruption):
        # on a model of dim 8, 2 layers and 3 classes these corruptions of
        # the map from the scores to the cls token read 2.6e-5 and 2.4e-5,
        # under the threshold; the check's one size must catch them
        from fedprompt import model

        true_op, true_mix = model.soft_scores_op, model._mix
        sent = []

        def op(cls_vec, consts, grad=False):
            scores, scores_map = true_op(cls_vec, consts, grad)
            if scores_map is None:
                return scores, None

            def corrupted_map(g):
                grad_cls = scores_map(g)
                if corruption == "scaled":  # 1.5x the true gradient
                    return 1.5 * grad_cls
                sent.append(grad_cls)
                return grad_cls

            return scores, corrupted_map

        def mix(seq, class_prompts, consts, replace, tape):
            if tape is not None:
                # recorded before the mix's map, so it runs right after it
                # and also adds the cls gradient into row 1
                def into_row_1(dseq):
                    if sent:
                        dseq[1] += sent.pop()
                    return dseq

                tape.record(into_row_1)
            return true_mix(seq, class_prompts, consts, replace, tape)

        monkeypatch.setattr(model, "soft_scores_op", op)
        monkeypatch.setattr(model, "_mix", mix)
        assert main(["gradcheck"]) == 1
        assert "shared: max relative error" in capsys.readouterr().out

    def test_reports_blocks_separately(self, capsys):
        main(["gradcheck"])
        out = capsys.readouterr().out
        assert out.count("max relative error") == 4


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["run", "partition"])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_dir_at_or_under_a_file_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command, below):
        from fedprompt import cli

        def no_training(*args, **kwargs):
            raise AssertionError("trained towards an output it cannot write")

        monkeypatch.setattr(cli, "run_training", no_training)
        path, _ = small_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot create output directory {out}: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_empty_out_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                         command):
        # "" names no directory, so it is refused before any data is drawn
        from fedprompt import federation

        def no_data(*args, **kwargs):
            raise AssertionError("drew data towards an output it cannot write")

        monkeypatch.setattr(cli, "generate_synthetic", no_data)
        monkeypatch.setattr(federation, "generate_synthetic", no_data)
        path, _ = small_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(path), "--out", ""]) == 2
        assert capsys.readouterr().err == (
            "config error: out_dir must be a nonempty path, got ''\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("below", [False, True])
    def test_eval_out_at_or_under_a_file_is_a_config_error(
            self, tmp_path, capsys, saved_run, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert main(["eval", "--run-dir", str(saved_run),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create output directory {out}: ")

    @pytest.mark.parametrize("command, artifact", [
        ("run", "final_report.json"), ("partition", "config.json"),
        ("eval", "eval_report.json")])
    def test_artifact_path_that_is_a_directory_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, saved_run, command, artifact):
        # each command writes `artifact` last: it must refuse before it
        # trains, evaluates or writes anything
        def fail(*args, **kwargs):
            raise AssertionError("worked towards an output it cannot write")

        monkeypatch.setattr(cli, "run_training", fail)
        monkeypatch.setattr(cli, "evaluate_state", fail)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        (out / "notes.txt").write_text("kept")

        def listing():
            return sorted((str(p.relative_to(out)), p.is_dir() or p.read_text())
                          for p in out.rglob("*"))

        before = listing()
        if command == "eval":
            argv = ["eval", "--run-dir", str(saved_run)]
        else:
            argv = [command, "--config", str(small_config(tmp_path)[0])]
        assert main([*argv, "--out", str(out)]) == 2
        message = f"cannot write {out / artifact}: it is a directory"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert listing() == before

    @staticmethod
    def argv_drawing_no_data(monkeypatch, tmp_path, saved_run, command):
        """The argv of `command` without `--out`, with data drawing made to
        fail the test: an unwritable output is refused before any data."""
        from fedprompt import federation

        def no_data(*args, **kwargs):
            raise AssertionError("drew data towards an output it cannot write")

        for module in (cli, federation):
            monkeypatch.setattr(module, "generate_synthetic", no_data)
        if command == "eval":
            return ["eval", "--run-dir", str(saved_run)]
        return [command, "--config", str(small_config(tmp_path)[0])]

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", ["run", "partition", "eval"])
    def test_dangling_link_at_or_above_out_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, saved_run, command, below):
        # a link to nothing exists as a name, so no directory can be made
        # there or under it; a run would find that out only when it writes
        argv = self.argv_drawing_no_data(monkeypatch, tmp_path, saved_run,
                                         command)
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        out = link / "sub" if below else link
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {out}: "
            f"{link} is not a directory\n")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command, artifact", [
        ("run", "metrics.csv"), ("partition", "partition.csv"),
        ("eval", "eval_report.json")])
    def test_artifact_path_that_is_a_dangling_link_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, saved_run, command, artifact):
        # the link points into a missing directory, so writing through it
        # would fail after all the work
        argv = self.argv_drawing_no_data(monkeypatch, tmp_path, saved_run,
                                         command)
        out = tmp_path / "out"
        out.mkdir()
        (out / artifact).symlink_to(tmp_path / "missing" / artifact)
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {out / artifact}: it is not a "
            f"regular file\n")
        assert sorted(p.name for p in out.iterdir()) == [artifact]

    @pytest.mark.parametrize("shape", ["long-name", "long-path"])
    @pytest.mark.parametrize("command", ["run", "partition", "eval"])
    def test_out_path_too_long_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, saved_run, command, shape):
        # one name over NAME_MAX (255 bytes), or 18 names under it whose
        # path is over PATH_MAX (4096 bytes): makedirs would fail after
        # all the work, the second after making 17 of the directories
        argv = self.argv_drawing_no_data(monkeypatch, tmp_path, saved_run,
                                         command)

        def no_server(cfg):
            raise AssertionError("built a run it cannot write out")

        monkeypatch.setattr(cli, "init_server", no_server)
        out = (tmp_path / ("x" * 300) if shape == "long-name" else
               Path(tmp_path, *["y" * 250] * 18))
        before = sorted(tmp_path.rglob("*"))
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {out}: "
            f"File name too long\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_dir_the_os_cannot_make_is_a_config_error(
            self, tmp_path, capsys, monkeypatch):
        # a failure only makedirs sees, such as a full disk
        def full_disk(path, exist_ok=False):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        path, _ = small_config(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setattr(os, "makedirs", full_disk)
        assert main(["partition", "--config", str(path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {out}: "
            f"No space left on device\n")
        assert not out.exists()


class TestPartitionCommand:
    def test_pathological_histogram_has_k_bins(self, tmp_path):
        path, _ = small_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        out = tmp_path / "run"
        assert (sorted(p.name for p in out.iterdir())
                == sorted(cli.PARTITION_ARTIFACTS))
        with open(out / "label_histogram.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_client = {}
        for row in rows:
            if int(row["count"]) > 0:
                per_client.setdefault(row["client"], 0)
                per_client[row["client"]] += 1
        assert all(v == 2 for v in per_client.values())

    def test_partition_csv_roundtrip(self, tmp_path):
        # one row per sample of each split, naming its client and label
        path, _ = small_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        cfg = load_config(str(path))
        ds = generate_synthetic(cfg.data, cfg.seed)
        part = cli.make_partition(ds, cfg)
        with open(tmp_path / "run" / "partition.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["client", "sample_index", "label", "split"]
        assert len(rows) == 1 + ds.train_y.size + ds.test_y.size
        for split, shards, labels in (
                ("train", part.train_indices, ds.train_y),
                ("test", part.test_indices, ds.test_y)):
            owner = {int(i): c for c, idx in enumerate(shards) for i in idx}
            got = {int(i): (int(c), int(y))
                   for c, i, y, where in rows[1:] if where == split}
            assert got == {i: (c, int(labels[i])) for i, c in owner.items()}

    def test_seed_flag_sets_the_partition_seed(self, tmp_path):
        # the config says seed 0; --seed 7 writes seed 7's partition and
        # a config.json that names seed 7
        path, _ = small_config(tmp_path)
        assert main(["partition", "--config", str(path), "--seed", "7"]) == 0
        out = tmp_path / "run"
        assert json.loads((out / "config.json").read_text())["seed"] == 7
        cfg = load_config(str(path), 7)
        part = cli.make_partition(generate_synthetic(cfg.data, 7), cfg)
        with open(out / "partition.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {(split, int(i)): int(c) for c, i, _, split in rows} == {
            (split, int(i)): c
            for split, shards in (("train", part.train_indices),
                                  ("test", part.test_indices))
            for c, idx in enumerate(shards) for i in idx}

    @pytest.mark.parametrize("field", ["noise", "separation"])
    def test_negative_scale_names_field(self, tmp_path, capsys, field):
        path, _ = small_config(tmp_path, data={field: -1})
        assert main(["partition", "--config", str(path)]) == 2
        assert f"data {field} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, argv, message", [
        ({"partition": {"classes_per_client": 100}}, [],
         "partition classes_per_client must be <= data classes 4, got 100"),
        ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_failed_partition_leaves_no_directory(self, tmp_path, capsys,
                                                  overrides, argv, message):
        path, _ = small_config(tmp_path, **overrides)
        assert main(["partition", "--config", str(path), *argv]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["run", "partition"])
    @pytest.mark.parametrize("overrides, message", [
        ({"partition": {"mode": "dirichlet", "beta": -1.0,
                        "classes_per_client": DROP}},
         "partition beta must be > 0, got -1.0"),
        ({"partition": {"mode": "dirichlet", "beta": 0.0,
                        "classes_per_client": DROP}},
         "partition beta must be > 0, got 0.0"),
        # with 6 clients x beta above the largest double, the Dirichlet
        # draw is all zeros, and the split would drop most samples
        ({"partition": {"mode": "dirichlet", "beta": 5e307,
                        "classes_per_client": DROP}},
         "partition beta must be <= 1e100, got 5e+307"),
        ({"partition": {"classes_per_client": 0}},
         "partition classes_per_client must be >= 1, got 0"),
        ({"partition": {"classes_per_client": 5}},
         "partition classes_per_client must be <= data classes 4, got 5"),
        ({"train": {"clients": 1, "clients_per_round": 1}},
         "train clients 1 x partition classes_per_client 2 must be >= data "
         "classes 4"),
        # 6 clients x 2 classes over 4 classes: 3 clients share a class
        ({"data": {"train_per_class": 2}},
         "data train_per_class must be >= 3, the most clients holding one "
         "class, got 2"),
    ])
    def test_partition_rules_checked_before_any_data(
            self, tmp_path, capsys, monkeypatch, command, overrides, message):
        def no_data(*args, **kwargs):
            raise AssertionError("drew data for a config it rejects")

        from fedprompt import federation

        for module in (cli, federation):
            monkeypatch.setattr(module, "generate_synthetic", no_data)
        path, _ = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_partition_csv_disjoint(self, tmp_path):
        path, _ = small_config(tmp_path)
        main(["partition", "--config", str(path)])
        with open(tmp_path / "run" / "partition.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        train_rows = [r for r in rows if r["split"] == "train"]
        seen = [r["sample_index"] for r in train_rows]
        assert len(seen) == len(set(seen)) == 4 * 10

    def test_dirichlet_lower_entropy_than_high_beta(self, tmp_path):
        def entropy_for(beta, out):
            path, _ = small_config(
                tmp_path,
                partition={"mode": "dirichlet", "beta": beta,
                           "classes_per_client": DROP},
                out_dir=str(tmp_path / out),
                data={"classes": 4, "train_per_class": 40, "test_per_class": 4,
                      "image_size": 8},
            )
            main(["partition", "--config", str(path)])
            with open(tmp_path / out / "label_histogram.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            hist = {}
            for row in rows:
                hist.setdefault(row["client"], []).append(int(row["count"]))
            values = []
            for counts in hist.values():
                counts = np.array(counts, dtype=float)
                if counts.sum() == 0:
                    continue
                p = counts / counts.sum()
                p = p[p > 0]
                values.append(float(-(p * np.log(p)).sum()))
            return np.mean(values)

        assert entropy_for(0.3, "low") < entropy_for(100.0, "high")


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A 1-round mixed run of `small_config`; copy it before editing it."""
    tmp = tmp_path_factory.mktemp("saved")
    path, _ = small_config(tmp, train={"rounds": 1})
    assert main(["run", "--config", str(path)]) == 0
    return tmp / "run"


@pytest.fixture(scope="module")
def saved_personalized_run(tmp_path_factory):
    """A 1-round personalized run of `small_config`: clients 2 and 3 are
    heldout, clients 0, 1, 4 and 5 hold prompts of their own, and 4 and 5
    trained them.  In prompts.csv the 72 global rows (lines 2 to 73) are
    followed by 40 rows per client, client 0's at lines 74 to 113 and
    client 4's at lines 154 to 193."""
    tmp = tmp_path_factory.mktemp("saved_personalized")
    path, _ = small_config(tmp, heldout_fraction=0.34,
                           train={"rounds": 1, "strategy": "personalized"})
    assert main(["run", "--config", str(path)]) == 0
    return tmp / "run"


@pytest.fixture(scope="module")
def saved_shared_only_run(tmp_path_factory):
    """A 1-round shared_only run of `small_config`: its prototypes.csv holds
    the header alone."""
    tmp = tmp_path_factory.mktemp("saved_shared_only")
    path, _ = small_config(tmp, train={"rounds": 1, "strategy": "shared_only"})
    assert main(["run", "--config", str(path)]) == 0
    return tmp / "run"


def edited_run(saved_run, tmp_path, name, line, column, value):
    """A copy of `saved_run` whose CSV `name` holds `value` at `column` of
    its `line` (1 is the header); None as the column drops that line's
    last field, "append" adds `value` after it, "delete" drops the line (or
    each line of a `range`), and "duplicate" inserts a copy of the line
    before it as `line`."""
    run = tmp_path / "run"
    shutil.copytree(saved_run, run)
    lines = (run / name).read_text().splitlines()
    if column == "delete":
        gone = line if isinstance(line, range) else range(line, line + 1)
        del lines[gone.start - 1:gone.stop - 1]
    elif column == "duplicate":
        lines.insert(line - 1, lines[line - 2])
    elif column == "append":
        lines[line - 1] += "," + value
    else:
        fields = lines[line - 1].split(",")
        if column is None:
            fields.pop()
        else:
            fields[column] = value
        lines[line - 1] = ",".join(fields)
    (run / name).write_text("\n".join(lines) + "\n")
    return run


class TestEvalCommand:
    @pytest.mark.parametrize(
        "strategy", ["shared_only", "mixed", "mixed_no_prior", "personalized"])
    def test_reevaluation_matches_final_report(self, tmp_path, strategy):
        path, _ = small_config(tmp_path, heldout_fraction=0.34,
                               train={"strategy": strategy})
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "run"
        assert main(["eval", "--run-dir", str(out)]) == 0
        final = json.loads((out / "final_report.json").read_text())
        again = json.loads((out / "eval_report.json").read_text())
        for group in ("participating", "heldout"):
            expected = dict(final[group])
            del expected["clients"]
            assert again[group] == expected

    def test_client_without_test_samples_is_skipped_by_every_report(
            self, tmp_path):
        # Dirichlet beta 0.5 at seed 1 deals participating client 4 two
        # train samples and no test sample: `run` accepts it, as it has
        # train data, and neither `run` nor `eval` scores it
        path, _ = small_config(tmp_path, seed=1,
                               partition={"mode": "dirichlet", "beta": 0.5,
                                          "classes_per_client": DROP})
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "run"
        final = json.loads((out / "final_report.json").read_text())
        participating = final["participating"]
        assert participating.pop("clients") == [0, 1, 2, 3, 4, 5]
        assert participating["skipped_empty"] == 1
        scored = ["0", "1", "2", "3", "5"]
        assert list(participating["per_client"]) == scored
        with open(out / "client_accuracy.csv", newline="") as fh:
            assert [row["client"] for row in csv.DictReader(fh)] == scored
        assert main(["eval", "--run-dir", str(out)]) == 0
        again = json.loads((out / "eval_report.json").read_text())
        assert again == {"participating": participating}

    @pytest.mark.parametrize(
        "strategy", ["shared_only", "mixed", "mixed_no_prior", "personalized"])
    def test_reload_restores_every_cell(self, tmp_path, monkeypatch, strategy):
        # accuracies can match while a cell that moves no argmax stays
        # unloaded: every block each client reads and every prototype
        # must come back bit for bit
        states = []

        def keep(run):
            def wrapped(state, *args):
                states.append(state)
                return run(state, *args)
            return wrapped

        monkeypatch.setattr(cli, "run_training", keep(cli.run_training))
        monkeypatch.setattr(cli, "evaluate_state", keep(cli.evaluate_state))
        path, _ = small_config(tmp_path, heldout_fraction=0.34,
                               train={"strategy": strategy})
        assert main(["run", "--config", str(path)]) == 0
        assert main(["eval", "--run-dir", str(tmp_path / "run")]) == 0
        trained, reloaded = states
        assert sorted(reloaded.personal) == sorted(trained.personal)
        for cid in range(len(trained.clients)):
            for (name, want), (_, got) in zip(
                    trained.client_inputs(cid)[0].blocks(),
                    reloaded.client_inputs(cid)[0].blocks()):
                assert np.array_equal(got.data, want.data), (cid, name)
        assert reloaded.bank.layers == trained.bank.layers
        for layer in trained.bank.layers:
            assert np.array_equal(reloaded.bank.mu[layer],
                                  trained.bank.mu[layer]), layer

    def test_in_place_prototype_load_reaches_evaluation(self, tmp_path):
        # cmd_eval writes the loaded prototypes into the bank's arrays in
        # place; score constants built before that must not be reused
        from fedprompt.cli import _load_prototypes_csv, write_prototypes_csv
        from fedprompt.federation import (evaluate_state, init_server,
                                          warm_startup)

        path, _ = small_config(tmp_path)
        state = init_server(load_config(str(path)))
        warm_startup(state)
        rng = np.random.default_rng(0)
        state.params.head.data[...] = rng.normal(
            scale=10.0, size=state.params.head.data.shape)
        state.params.class_prompts.data[...] = rng.normal(
            scale=10.0, size=state.params.class_prompts.data.shape)
        before, _ = evaluate_state(state)

        other = copy.deepcopy(state.bank)
        for layer in other.layers:
            other.mu[layer] = rng.normal(size=other.mu[layer].shape)
        expected, _ = evaluate_state(dataclasses.replace(state, bank=other))
        assert expected.per_client != before.per_client

        write_prototypes_csv(other, tmp_path / "prototypes.csv")
        arrays = dict(state.bank.mu)
        _load_prototypes_csv(tmp_path / "prototypes.csv", state.bank)
        assert all(state.bank.mu[l] is arrays[l] for l in arrays)
        after, _ = evaluate_state(state)
        assert after.per_client == expected.per_client

    @pytest.mark.parametrize("strategy, name, line, column, value, message", [
        ("mixed", "prompts.csv", 4, 4, "abc",
         "value must be a finite number, got 'abc'"),
        ("mixed", "prompts.csv", 4, 4, "inf",
         "value must be a finite number, got 'inf'"),
        ("mixed", "prompts.csv", 4, 4, "nan",
         "value must be a finite number, got 'nan'"),
        ("mixed", "prompts.csv", 4, 0, "bias",
         "block bias, client -1, row 2, col 0 is not a cell of this run"),
        ("mixed", "prompts.csv", 4, 1, "6",
         "block shared, client 6, row 2, col 0 is not a cell of this run"),
        ("mixed", "prompts.csv", 4, 2, "99",
         "block shared, client -1, row 99, col 0 is not a cell of this run"),
        ("mixed", "prompts.csv", 4, 2, "-1",
         "block shared, client -1, row -1, col 0 is not a cell of this run"),
        ("mixed", "prompts.csv", 4, 3, "1.5",
         "block shared, client -1, row 2, col 1.5 is not a cell of this run"),
        # a key must be spelled as `run` wrote it
        ("mixed", "prompts.csv", 4, 2, "02",
         "block shared, client -1, row 02, col 0 is not a cell of this run"),
        ("mixed", "prototypes.csv", 4, 0, " 2",
         "layer  2, class 0, dim 2 is not a cell of this run"),
        ("mixed", "prompts.csv", 4, None, None, "expected 5 fields, got 4"),
        ("mixed", "prompts.csv", 2, "append", "junk",
         "expected 5 fields, got 6"),
        ("mixed", "prototypes.csv", 2, "append", "junk,1",
         "expected 4 fields, got 6"),
        ("mixed", "prompts.csv", 1, 4, "val",
         "expected the columns block,client,row,col,value"),
        ("mixed", "prototypes.csv", 4, 0, "9",
         "layer 9, class 0, dim 2 is not a cell of this run"),
        ("mixed", "prototypes.csv", 4, 1, "-1",
         "layer 2, class -1, dim 2 is not a cell of this run"),
        ("mixed", "prototypes.csv", 4, 2, "8",
         "layer 2, class 0, dim 8 is not a cell of this run"),
        ("mixed", "prototypes.csv", 4, 3, "abc",
         "value must be a finite number, got 'abc'"),
        # a cell no line sets would keep its initial value
        ("mixed", "prompts.csv", 3, "delete", None,
         "no line sets block shared, client -1, row 1, col 0"),
        ("mixed", "prototypes.csv", 5, "delete", None,
         "no line sets layer 2, class 0, dim 3"),
        ("personalized", "prompts.csv", 3, "delete", None,
         "no line sets block shared, client -1, row 1, col 0"),
        ("personalized", "prompts.csv", 154, "delete", None,
         "no line sets block shared, client 4, row 0, col 0"),
        # every row of a client with prompts of its own, trained or not
        ("personalized", "prompts.csv", range(74, 114), "delete", None,
         "no line sets block shared, client 0, row 0, col 0"),
        ("personalized", "prompts.csv", range(154, 194), "delete", None,
         "no line sets block shared, client 4, row 0, col 0"),
        ("personalized", "prototypes.csv", 5, "delete", None,
         "no line sets layer 2, class 0, dim 3"),
        # a repeated cell: the last line would win
        ("mixed", "prompts.csv", 4, "duplicate", None,
         "sets block shared, client -1, row 1, col 0 a second time"),
        ("mixed", "prototypes.csv", 4, "duplicate", None,
         "sets layer 2, class 0, dim 1 a second time"),
        ("personalized", "prompts.csv", 155, "duplicate", None,
         "sets block shared, client 4, row 0, col 0 a second time"),
        # rows `run` never writes: a client's own prompts outside
        # `personalized` or for a heldout client, and a client's own head
        ("mixed", "prompts.csv", 4, 1, "3",
         "block shared, client 3, row 2, col 0 is not a cell of this run"),
        ("personalized", "prompts.csv", 74, 1, "2",
         "block shared, client 2, row 0, col 0 is not a cell of this run"),
        ("personalized", "prompts.csv", 74, 0, "head",
         "block head, client 0, row 0, col 0 is not a cell of this run"),
    ])
    def test_malformed_saved_csv_is_a_data_error(
            self, tmp_path, capsys, request, strategy, name, line, column,
            value, message):
        saved = request.getfixturevalue(
            "saved_run" if strategy == "mixed" else "saved_personalized_run")
        run = edited_run(saved, tmp_path, name, line, column, value)
        assert main(["eval", "--run-dir", str(run)]) == 2
        # a missing cell is found after the last line, so no line is named
        where = (run / name if column == "delete"
                 else f"{run / name} line {line}")
        assert capsys.readouterr().err == f"data error: {where}: {message}\n"
        assert not (run / "eval_report.json").exists()

    @pytest.mark.parametrize("content, message", [
        ("layer,class,dim,value\n5,0,0,1.0\n",
         "data error: {csv} line 2: layer 5, class 0, dim 0 is not a cell "
         "of this run"),
        ("garbage\n",
         "data error: {csv} line 1: expected the columns layer,class,dim,value"),
        (None, "config error: no prototypes.csv in {run}")])
    def test_shared_only_run_reads_its_header_only_prototypes(
            self, tmp_path, capsys, saved_shared_only_run, content, message):
        run = tmp_path / "run"
        shutil.copytree(saved_shared_only_run, run)
        if content is None:
            (run / "prototypes.csv").unlink()
        else:
            (run / "prototypes.csv").write_text(content)
        assert main(["eval", "--run-dir", str(run)]) == 2
        assert capsys.readouterr().err == message.format(
            csv=run / "prototypes.csv", run=run) + "\n"
        assert not (run / "eval_report.json").exists()

    def test_overflowing_saved_prototypes_are_a_data_error(
            self, tmp_path, capsys, saved_run):
        # 1e200 is finite, but its square is not: scores computed from it
        # would overflow, as `run` refuses to let them
        run = edited_run(saved_run, tmp_path, "prototypes.csv", 2, 3, "1e200")
        assert main(["eval", "--run-dir", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {run / 'prototypes.csv'}: the prototypes of layer 2 "
            f"have a non-finite squared norm\n")
        assert not (run / "eval_report.json").exists()

    def test_overflowing_saved_prompts_are_a_data_error(
            self, tmp_path, capsys, saved_run):
        # 1e300 is finite, but a forward on it overflows, as `run` would
        # have stopped on such prompts
        run = edited_run(saved_run, tmp_path, "prompts.csv", 2, 4, "1e300")
        assert main(["eval", "--run-dir", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {run / 'prompts.csv'}: the prompts overflow a "
            f"forward pass\n")
        assert not (run / "eval_report.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("model", "refresh_mix", True), ("model", "detach_scores", False),
        ("train", "weighted_fedavg", False), ("train", "shared_prompts", 1)])
    def test_saved_config_with_a_removed_key_is_rejected(
            self, tmp_path, capsys, saved_run, section, key, value):
        # a run directory from before these switches went is refused, not
        # read with the key ignored
        run = tmp_path / "run"
        shutil.copytree(saved_run, run)
        raw = json.loads((run / "config.json").read_text())
        raw[section][key] = value
        (run / "config.json").write_text(json.dumps(raw))
        assert main(["eval", "--run-dir", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown field {section}.{key!r}\n")

    @pytest.mark.parametrize("name", ["prompts.csv", "prototypes.csv"])
    @pytest.mark.parametrize("case", ["directory", "not-utf8", "long-field"])
    def test_unreadable_saved_csv_is_a_data_error(
            self, tmp_path, capsys, saved_run, name, case):
        run = tmp_path / "run"
        shutil.copytree(saved_run, run)
        path = run / name
        if case == "directory":
            path.unlink()
            path.mkdir()
            message = f"cannot read {path}: Is a directory"
        elif case == "not-utf8":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
            message = f"cannot read {path}: not UTF-8 text"
        else:
            # a value one past the csv module's limit of 131072 characters
            lines = path.read_text().splitlines()
            lines[1] = lines[1].rsplit(",", 1)[0] + "," + "1" * 131073
            path.write_text("\n".join(lines) + "\n")
            message = f"{path} line 2: field larger than field limit (131072)"
        assert main(["eval", "--run-dir", str(run)]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (run / "eval_report.json").exists()

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["eval", "--run-dir", str(tmp_path / "nope")]) == 2
        assert "config.json" in capsys.readouterr().err

    def test_partition_output_is_not_a_run(self, tmp_path, capsys):
        # `fedprompt partition` writes config.json but no prompt blocks
        path, _ = small_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--run-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"config error: no prompts.csv in {tmp_path / 'run'}\n")

    def test_missing_prototypes_under_mixing(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, train={"rounds": 1})
        assert main(["run", "--config", str(path)]) == 0
        (tmp_path / "run" / "prototypes.csv").unlink()
        capsys.readouterr()
        assert main(["eval", "--run-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"config error: no prototypes.csv in {tmp_path / 'run'}\n")


# the train overrides of each golden run of `small_config`, with a heldout
# fraction of 0.34; shared_only sets no mix layer (see `small_config`): the
# bytes it wrote with one show that shared_only never read it
GOLDEN_TRAIN = {
    "shared_only": {"strategy": "shared_only"},
    "mixed": {"strategy": "mixed"},
    "mixed_no_prior": {"strategy": "mixed_no_prior"},
    "personalized": {"strategy": "personalized"},
    # 3 of 4 participating clients a round: the head's mean over a count
    # that is not a power of two rounds as every other block's does
    "personalized-3": {"strategy": "personalized", "clients_per_round": 3},
    "mixed_dp_period2": {"strategy": "mixed", "dp_epsilon": 1.0,
                         "update_period": 2},
}


ROOT = Path(__file__).resolve().parents[1]
# each benchmark workload at seeds 0 and 1, cut to 2 rounds: the real
# model, and in desk and eval-heavy the only pinned runs that replace the
# mixed token at later layers
GOLDEN_WORKLOADS = ("desk", "eval-heavy", "train-heavy")
GOLDEN_CASES = (*sorted(GOLDEN_TRAIN), *GOLDEN_WORKLOADS,
                *(f"{w}-seed1" for w in GOLDEN_WORKLOADS))

# of each golden run, by the OpenBLAS core the process loaded (each core's
# GEMM kernels round in their own order): the sha256 of metrics.csv, then
# one sha256 over prompts.csv, prototypes.csv, client_accuracy.csv and
# final_report.json, in that order; on a core without an entry the test
# fails and prints the digests it computed.  All four were recorded on one
# x86-64 host, the others under OPENBLAS_CORETYPE (Prescott loads Katmai)
GOLDEN = {
    "SkylakeX": {
        "mixed": (
            "b0bcdd2717c94c4a2f5f10becabb5829772b1f2000ed0236780f076b75e52fdd",
            "f71be0fbc8e874ad41af3b77e8564cb2c1953a80fc7a73df175246fef8120756"),
        "mixed_dp_period2": (
            "cdc80caac342050a2b5d3d862e2562a48ec251e49abd03c47f2f993e48ca79af",
            "4e03bfd6ea20dfe464ee0475bbf7f034089e9204c74c82441e48e8e901d28882"),
        "mixed_no_prior": (
            "572e3134a51d9c6189ef3757b2af3c6fe1e6d03a33fb03ac3c87b60bde5309b9",
            "0530757d0cfa1450db5409dc12c2772585acfdc854860a7fdeb7516d061282c1"),
        "personalized": (
            "30492211452a24e0c1274be2002639d72c0f62ac4db127991bff2fc28413d083",
            "352fe76960885a0a6f2ed6530ea4c8a9d182f27e4cd703d8b41c3d8afcecd07b"),
        "personalized-3": (
            "902ca26d58e5ed8b0872ab15041bf9cd6cac7a766585115b306feb0e7cc28c64",
            "680d4f64f02ade01a12ca3bfc26e982a0ca5306cdc0c8884359e372f62ad1327"),
        "shared_only": (
            "361b87e57a5da86aa11bb0121da6931512221e91dfe15efc9fd33fc95c738675",
            "9c227a56a98c818642e059247984a121dafbef520130cd5fcc793152169cdf94"),
        "desk": (
            "c87723e717b7dc34b304e0bf8f86df5e27fa484c38deef9be9ad38663131960c",
            "4973226c56af868e6e41b7fac9c89eeefd3f3bf15becff059ba57574664d1c29"),
        "eval-heavy": (
            "bccea7b531623737eeefcc757148340901035fb5fde689e9047a0f377e6f7cf1",
            "9574a06dd89bfe688827c5f62d7e67ff54877a2a1e48dfe6f51957ca682168a0"),
        "train-heavy": (
            "a4c4aeda1ff1380cb8675186f380760fbd683565b58e024b5c88e6dd1a2068cc",
            "eac7373dc3f4b310e59a69e3b3f894da294d2f81a263cb60be71543442d77f38"),
        "desk-seed1": (
            "8c86c9ca2221502c0e1aed26b89c4549f920bcd60fe235f35dd4f2d4ad40faf7",
            "00594f920800a4dc0bb8997bbcec0f10714d1a5964207895e5cc3bf4d37d9093"),
        "eval-heavy-seed1": (
            "15ff0c38ef4dce0d7813c2d5803cca93b60550cc811acfcaaf4ec78ef9db3e03",
            "adee922399a9bcd5f5c3b69958f638ae06a1c19764017ac1e7fae2ac05a9b78f"),
        "train-heavy-seed1": (
            "60327ed75c0e1ac66879ffc528ab7d761879ca217adf818fbd05ea90f9e7b658",
            "49bb9dab31727be116604c50ba34d11df909442ccd3bcb8b2b010ef4d0dba91b"),
    },
    "Haswell": {
        "mixed": (
            "b0bcdd2717c94c4a2f5f10becabb5829772b1f2000ed0236780f076b75e52fdd",
            "0ded625458a15f470f5cd975ac92cb394f0f67a989940843b3f77f5dcf8742a7"),
        "mixed_dp_period2": (
            "cdc80caac342050a2b5d3d862e2562a48ec251e49abd03c47f2f993e48ca79af",
            "d062d2f1c3cb987875c47f5049aaab63863f654218f4c0985936f5c26f661f62"),
        "mixed_no_prior": (
            "572e3134a51d9c6189ef3757b2af3c6fe1e6d03a33fb03ac3c87b60bde5309b9",
            "761b5d1ad9a99c01daeae9bdc2ffb66137b262706f0bfaf84d74295fd84ea39d"),
        "personalized": (
            "30492211452a24e0c1274be2002639d72c0f62ac4db127991bff2fc28413d083",
            "2f905929df81777c6b97b2ff446b20df8c6a38fb54849a389097fd8e52de513e"),
        "personalized-3": (
            "902ca26d58e5ed8b0872ab15041bf9cd6cac7a766585115b306feb0e7cc28c64",
            "09473e258435bc8d4200c50cdb16764aa6164aedeab2a3805cbe28c71785d7a8"),
        "shared_only": (
            "361b87e57a5da86aa11bb0121da6931512221e91dfe15efc9fd33fc95c738675",
            "c1f8655b8eaab9eb9b7310002527ddf33f5796220bf67bc8a668ea9526ddc7d1"),
        "desk": (
            "954b2e4976b55389b1ab36046aa6e5171d517abd6fb1f744a1832937f1f8249e",
            "891be1bb6371994b208bdf9013a0fc257b610958870329037ad676ccb1613ef0"),
        "eval-heavy": (
            "bccea7b531623737eeefcc757148340901035fb5fde689e9047a0f377e6f7cf1",
            "a99248c165a415e43cb45d40d8c678b3a3f8ed607cbadcb51c94f4584af3d14c"),
        "train-heavy": (
            "a0d7cc56357063467eea4d5cdfae6f2af0eed814c197ca91cdf33aacedb6baa8",
            "c0a468ad9967b10cce60b5b0b4735876afeb151dcec177f1cdf5bce944723c55"),
        "desk-seed1": (
            "9713fee35a047cdf3ecb7698676e65e61ed58b766ce5b4bc8697648bc7a9ad67",
            "3e7ab3f1b00e278b9b32da02a15478ccb1fa1c7d096bc6cf7e865d00a5e5bb8e"),
        "eval-heavy-seed1": (
            "15ff0c38ef4dce0d7813c2d5803cca93b60550cc811acfcaaf4ec78ef9db3e03",
            "a1206258d9c33e5b05218b0d9275efb05efb38cd5dea67fc33085d06c85ea6df"),
        "train-heavy-seed1": (
            "85da7897755daf5603da219a6767b47644ded322a16d845b2b1bad423d220a83",
            "36e87639f89348cb864ff9efb3b2961d492c4268b261f042e072fddf43828c87"),
    },
    "Sandybridge": {
        "mixed": (
            "b0bcdd2717c94c4a2f5f10becabb5829772b1f2000ed0236780f076b75e52fdd",
            "2b9541d9e03e604cbcff4739a1e224bf6108a01474d9842f0d581f8c2c26379a"),
        "mixed_dp_period2": (
            "c40baa8c90f660a647d3def29988b536c2264ce866445ce94ae2a6c1d1ebef0a",
            "c268650b82ae9303fc9485d13ea4ef689486173829ab451858c71974eb4dc562"),
        "mixed_no_prior": (
            "572e3134a51d9c6189ef3757b2af3c6fe1e6d03a33fb03ac3c87b60bde5309b9",
            "e5a92fda163c66a8916353a13f22195940977042f2ab2284afb021f97da94b09"),
        "personalized": (
            "30492211452a24e0c1274be2002639d72c0f62ac4db127991bff2fc28413d083",
            "5924ddf69ca4238782ec4fe8c33ef3b4ccfaa69fe08192cbb07d9985b09cfa0c"),
        "personalized-3": (
            "902ca26d58e5ed8b0872ab15041bf9cd6cac7a766585115b306feb0e7cc28c64",
            "1ccd2b2199a2e233e9989d881af95af9f5428ceb767a3f4d9952b3d6a1bb13cc"),
        "shared_only": (
            "361b87e57a5da86aa11bb0121da6931512221e91dfe15efc9fd33fc95c738675",
            "9d785d6ad319593fc3a4820258b7a008f3ae527b5c545b481c13c9e176630eea"),
        "desk": (
            "954b2e4976b55389b1ab36046aa6e5171d517abd6fb1f744a1832937f1f8249e",
            "0a90e8ce45c5c79f5db5159a20439eb8051795ca7995a5603ee1d158d4a98421"),
        "eval-heavy": (
            "bccea7b531623737eeefcc757148340901035fb5fde689e9047a0f377e6f7cf1",
            "7ef02c3584826ca38f8050d9e68f56f7864f1b514c9b5d7373b6b7d7a4bc98eb"),
        "train-heavy": (
            "ddd9c57898eaadd005a0f62b4dfcf81ff3666f2ce095350aa653481c8ff894ec",
            "e849a6e9a7eb2cc6294e421e5eadf843c6c3c165e8b8d2c0638bdc6852b39285"),
        "desk-seed1": (
            "f636be5b679804b77621b6612092daabaa13a6faefb72a23c660b1d0c8bb8dd6",
            "dea195b0857722ace69216161ffc8891d4e826f56fe175ff6d68c1f344070dde"),
        "eval-heavy-seed1": (
            "a249d367dab536f952619ce24d0e8833b979ac6f28ebdf91685f0ea1edb55aae",
            "6a6c4f286497dcc1f38351d209f054a7e38ef4a4c6071e8c6756c29c7b5b8350"),
        "train-heavy-seed1": (
            "9b5c63c4576f85bbb5756d5c5f9f4d2ae1afc200315f1b1e291faac0ffd5639a",
            "bc9c4df1ac3f9f10f57c89af06296dc42d30975630d83b1fd269947d82deafc3"),
    },
    "Katmai": {
        "mixed": (
            "b0bcdd2717c94c4a2f5f10becabb5829772b1f2000ed0236780f076b75e52fdd",
            "d7bf16a14dd2b4de18d6af1fd50adf0188b9196963819ae3acd267f39ef448a1"),
        "mixed_dp_period2": (
            "c40baa8c90f660a647d3def29988b536c2264ce866445ce94ae2a6c1d1ebef0a",
            "a861c72ff3ccd9011694c10fc32fa9a5be934cd6d1cefdbec662d5d440a7204d"),
        "mixed_no_prior": (
            "572e3134a51d9c6189ef3757b2af3c6fe1e6d03a33fb03ac3c87b60bde5309b9",
            "8be1c1d8467b63e8b582fc375a697706988410114554710d621571c359bddc53"),
        "personalized": (
            "30492211452a24e0c1274be2002639d72c0f62ac4db127991bff2fc28413d083",
            "47ea2bd54d1943351ed856e80684180e94bc6084027ebcc4818b4cc5f40d40cc"),
        "personalized-3": (
            "902ca26d58e5ed8b0872ab15041bf9cd6cac7a766585115b306feb0e7cc28c64",
            "6b2fb440c3d5a2558608d62bf81c4d710394e5cddc934a827300c7ae10774675"),
        "shared_only": (
            "361b87e57a5da86aa11bb0121da6931512221e91dfe15efc9fd33fc95c738675",
            "9d785d6ad319593fc3a4820258b7a008f3ae527b5c545b481c13c9e176630eea"),
        "desk": (
            "954b2e4976b55389b1ab36046aa6e5171d517abd6fb1f744a1832937f1f8249e",
            "d2dbde722e39e09707ff0f84720124c801014561d100341a9edf37ab8bbed399"),
        "eval-heavy": (
            "1f38fb3a18d779709d78f24f986b84ed8f572303dd4a2fa625dbe83352b109ca",
            "4a77475d7e389190dd683bca4d54181086da9e1f07aeb27c347b37a724af9c13"),
        "train-heavy": (
            "b0207dcf0a9c9c3293aa4380a06f1cd4e27dee3705f1937cf048f0481b42a596",
            "301af10caecb24f084d99a3eb6d93304add76349b96bd213631b2c3c617e893b"),
        "desk-seed1": (
            "8c86c9ca2221502c0e1aed26b89c4549f920bcd60fe235f35dd4f2d4ad40faf7",
            "8769fccabbe4fba48431ef1881f5624a8ec57494be8f82182b9211eade0aebc6"),
        "eval-heavy-seed1": (
            "a249d367dab536f952619ce24d0e8833b979ac6f28ebdf91685f0ea1edb55aae",
            "dd1787627fb43450c29ddfd8f3952797dbef5904be220ac34e67d52d6df752f8"),
        "train-heavy-seed1": (
            "2e42e76e26e8729e6f30b3524fa03cef09d83638042f35ce2cd3946f07b8d997",
            "8d8bc73b6e4507bfcf59f4906330d04a94f8467a56bf00a6d567d4f792e69dff"),
    },
}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_metrics_bytes_match_golden(tmp_path, name):
    # pinned bytes: a refactor of any strategy must leave every artifact
    # it writes, config.json aside, which holds the output path, unchanged
    # to the last bit
    workload, seed = name.removesuffix("-seed1"), int(name.endswith("-seed1"))
    if workload in GOLDEN_WORKLOADS:
        raw = json.loads(
            (ROOT / "perfbench" / "workloads" / f"{workload}.json").read_text())
        raw.update(seed=seed, out_dir=str(tmp_path / "run"))
        raw["train"]["rounds"] = 2
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
    else:
        path, _ = small_config(tmp_path, heldout_fraction=0.34,
                               train=GOLDEN_TRAIN[name])
    assert main(["run", "--config", str(path)]) == 0
    metrics = hashlib.sha256((tmp_path / "run" / "metrics.csv").read_bytes())
    artifacts = hashlib.sha256()
    for artifact in ARTIFACTS[2:]:
        artifacts.update((tmp_path / "run" / artifact).read_bytes())
    digests = (metrics.hexdigest(), artifacts.hexdigest())
    core = loaded_core()
    assert name in GOLDEN.get(core, {}), (
        f"no golden digests of {name} under OpenBLAS core {core}; "
        f"this run gave {digests}")
    assert digests == GOLDEN[core][name]


@pytest.mark.parametrize("core", sorted(GOLDEN))
def test_golden_table_holds_every_case_under_each_core(core):
    # a case missing under one core fails only on a host that loads that
    # core, so every host checks that each core pins every case
    assert sorted(GOLDEN[core]) == sorted(GOLDEN_CASES)
    for digests in GOLDEN[core].values():
        assert len(digests) == 2
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests)


@pytest.mark.parametrize("forced, core", [
    ("Haswell", "Haswell"), ("Sandybridge", "Sandybridge"),
    ("Prescott", "Katmai"),
])
def test_loaded_core_follows_the_child_environment(forced, core):
    # the golden table is keyed by what `loaded_core` reads: a child given
    # OPENBLAS_CORETYPE in its own environment loads that core, and
    # Prescott loads the Katmai kernels, hence that key
    proc = subprocess.run(
        [sys.executable, "-c",
         "import openblas_core; print(openblas_core.loaded_core())"],
        cwd=ROOT / "tests", env=dict(os.environ, OPENBLAS_CORETYPE=forced),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, f"{core}\n")


def test_every_text_file_is_opened_as_utf8(tmp_path):
    # a text `open` without an encoding reads and writes in the locale's;
    # under these flags it raises an EncodingWarning as an error
    path, _ = small_config(tmp_path, train={"rounds": 1})
    src = str(Path(fedprompt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for args in (["run", "--config", str(path)],
                 ["partition", "--config", str(path),
                  "--out", str(tmp_path / "partition")],
                 ["eval", "--run-dir", str(tmp_path / "run")]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "fedprompt.cli", *args],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


def test_metrics_bytes_independent_of_blas_threads(tmp_path):
    # GEMM reduction order may depend on the BLAS thread count, which is
    # read once when numpy loads, so each count gets a fresh interpreter
    path, _ = small_config(tmp_path)
    src = str(Path(fedprompt.__file__).resolve().parents[1])
    metrics = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "fedprompt.cli", "run",
                        "--config", str(path), "--out", str(out)],
                       env=env, check=True, timeout=300)
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[0] == metrics[1]


SHIPPED_CONFIGS = {
    # sha256 of the config.json each writes with out_dir "run"
    "pathological": "9f5f1ef890bbd46e113956b47d67f79616e9a03d65d501719572e28215c52e28",
    "dirichlet_heldout": "c030b38eef2a3d929221c95366fdb49bf8b85a18cd62806b9c34ae953bc46a96",
}


@pytest.mark.parametrize("path", [
    *(ROOT / "configs" / f"{name}.json" for name in sorted(SHIPPED_CONFIGS)),
    *sorted((ROOT / "perfbench" / "workloads").glob("*.json")),
], ids=lambda path: path.stem)
def test_config_roundtrip(tmp_path, path):
    cfg = load_config(str(path))
    resolved = cfg.to_dict()
    # a resolved config parses back to the same resolved form
    path2 = tmp_path / "resolved.json"
    path2.write_text(json.dumps(resolved))
    assert load_config(str(path2)).to_dict() == resolved


def test_root_exports_what_the_readme_imports():
    # the package root holds a run's entry points, the names README's
    # Library section imports from it, and `__version__`; every other
    # name has one home, its module, with no `__all__` to keep in step
    import inspect

    text = (ROOT / "README.md").read_text()
    (line,) = re.findall(r"^from fedprompt import (.+)$", text, re.MULTILINE)
    public = {name for name, value in vars(fedprompt).items()
              if not name.startswith("_")
              and (inspect.isclass(value) or inspect.isfunction(value))}
    assert public == set(line.split(", "))
    assert isinstance(fedprompt.__version__, str)
    assert not hasattr(fedprompt, "__all__")


def test_readme_library_examples_run(monkeypatch):
    # README's Library section runs as written: its python blocks, split on
    # fence lines the CommonMark way (a closing fence is backticks alone,
    # so a fence followed by prose closes nothing), run in order in one
    # namespace from the repository root
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks, block, info = [], None, None
    for line in section.splitlines():
        if block is None:
            if line.startswith("```"):
                block, info = [], line[3:].strip()
        elif re.fullmatch(r"```+ *", line):
            if info == "python":
                blocks.append("\n".join(block))
            block = None
        else:
            block.append(line)
    assert block is None, "a fence is left open"
    assert len(blocks) == 3
    monkeypatch.chdir(ROOT)
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].mean_acc == namespace["logs"][-1].mean_acc
    assert namespace["small_state"].bank.layers == (2,)
    assert namespace["logits"].shape == (4, namespace["cfg"].data.classes)
    assert np.array_equal(namespace["first"], namespace["logits"][0])


def test_every_top_level_definition_is_used():
    # a top-level function or class that no other line of src/ names is
    # dead code, and so is a method or property of a top-level class that
    # nothing else names; an export in `__init__` is not a use
    import ast

    def definitions(tree):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    method for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not re.fullmatch(r"__\w+__", method.name))

    sources = {path: path.read_text()
               for path in Path(fedprompt.__file__).parent.glob("*.py")
               if path.name != "__init__.py"}
    unused = set()
    for path, text in sources.items():
        lines = text.splitlines()
        for node in definitions(ast.parse(text)):
            # the definition's own lines do not count as a use
            rest = "\n".join([*lines[:node.lineno - 1],
                              *lines[node.end_lineno:]])
            others = [other for where, other in sources.items()
                      if where != path]
            if not any(re.search(rf"\b{node.name}\b", use)
                       for use in [rest, *others]):
                unused.add(node.name)
    assert unused == set()


def test_no_module_imports_a_private_name():
    # a name one module of src/ reaches into another for is public: cli
    # evaluates a loaded state through federation.evaluate_state
    import ast

    private = set()
    for path in Path(fedprompt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private.update(
                    (path.name, alias.name) for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.startswith("__"))
    assert private == set()


def test_only_init_server_reads_the_strategy_and_model():
    # `init_server` turns `train.strategy` and, once the backbone is
    # built, the `model` section into state (the bank, the priors, the
    # clients' own prompts), so no later code reads them; `_final_report`
    # only copies the strategy out, and config.py defines and checks both
    import ast

    readers = {"strategy": set(), "model": set()}
    for path in Path(fedprompt.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for attr in ast.walk(node):
                    if (isinstance(attr, ast.Attribute)
                            and attr.attr in readers):
                        readers[attr.attr].add((path.stem, node.name))
    assert readers == {
        "strategy": {("federation", "init_server"), ("cli", "_final_report")},
        "model": {("federation", "init_server")}}


def test_only_the_edges_raise_input_errors():
    # each rule on an outside input is checked once, where the input
    # enters: config.py reads the config, cli.py the flags, paths and
    # saved CSVs, each config section's `__post_init__` its own fields and
    # `init_server` the data the config draws; the functions below
    # `init_server` take the values such a config makes, unchecked
    import ast

    sections = [f.type for f in dataclasses.fields(ExperimentConfig)
                if dataclasses.is_dataclass(f.type)]
    owners = {"federation.init_server",
              *(f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}"
                ".__post_init__" for cls in sections)}
    raisers = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                name = exc.func if isinstance(exc, ast.Call) else exc
                if getattr(name, "id", None) in ("ConfigError", "DataError"):
                    raisers.add(scope)
            walk(child, scope)

    for path in Path(fedprompt.__file__).parent.glob("*.py"):
        if path.name not in ("config.py", "cli.py"):
            walk(ast.parse(path.read_text()), path.stem)
    assert "federation.init_server" in raisers
    assert raisers - owners == set()


def test_readme_config_block_names_every_field():
    # README's config reference, its // comments stripped, is a config the
    # reader accepts whose every section names every field of its
    # dataclass; the partition key its mode does not read is in a comment
    text = (ROOT / "README.md").read_text()
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    raw = json.loads(re.sub(r"//.*", "", block))
    ExperimentConfig.from_dict(raw)

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(raw) == names(ExperimentConfig)
    # the reader demands the key the mode reads, so one is left out
    (unread,) = names(PartitionSpec) - set(raw["partition"])
    assert f'"{unread}"' in block
    for section, cls in (("data", SyntheticSpec), ("model", ModelConfig),
                         ("train", TrainConfig)):
        assert set(raw[section]) == names(cls), section
    # the config rules below the block name every key a strategy or a
    # partition mode leaves unread
    rules = text.split("Required fields:", 1)[1].split("\nStrategies:", 1)[0]
    for sections in UNREAD_KEYS.values():
        for section, keys in sections.items():
            for key in keys:
                assert f"`{section}.{key}`" in rules, (section, key)


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_config_copy_bytes_pinned(tmp_path, name):
    cfg = load_config(str(ROOT / "configs" / f"{name}.json"), out_override="run")
    write_config_copy(cfg, tmp_path / "config.json")
    data = (tmp_path / "config.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SHIPPED_CONFIGS[name]
