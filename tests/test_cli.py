import copy
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedprompt
from fedprompt.cli import load_config, main, write_config_copy


# an override value that removes the key from the base config
DROP = object()


def small_config(tmp_path, **overrides):
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_smoke_run_writes_all_artifacts(self, tmp_path):
        path, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "run"
        for name in ("config.json", "metrics.csv", "prompts.csv",
                      "prototypes.csv", "final_report.json"):
            assert (out / name).exists(), name
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

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

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
        ({"heldout": 0.2}, "unknown field 'heldout'"),
        ({"model": {"refresh_mix": "false"}},
         "model.'refresh_mix' must be true or false"),
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
        ({"model": {"dim": 0}}, "model dim must be >= 1, got 0"),
        ({"model": {"layers": 0}}, "model layers must be >= 1, got 0"),
        ({"model": {"heads": 0}}, "model heads must be >= 1, got 0"),
        ({"model": {"patch_size": 0}}, "model patch_size must be >= 1, got 0"),
        ({"data": {"image_size": -8}}, "model image_size must be >= 1, got -8"),
        ({"train": {"shared_prompts": -1}},
         "train shared_prompts must be >= 0, got -1"),
        ({"data": {"noise": -1}}, "data noise must be >= 0, got -1"),
        ({"data": {"separation": -1}}, "data separation must be >= 0, got -1"),
        ({"model": {"mix_layers": [2, 2]}},
         "model mix_layers must not repeat a layer, got (2, 2)"),
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
        ({"train": {"strategy": "personalized", "weighted_fedavg": True}},
         "train.'weighted_fedavg' is not read by strategy 'personalized'"),
        ({"train": {"strategy": "shared_only", "dp_epsilon": 1.0}},
         "train.'dp_epsilon' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only", "rho": 0.5}},
         "train.'rho' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only", "update_period": 3}},
         "train.'update_period' is not read by strategy 'shared_only'"),
        ({"train": {"strategy": "shared_only", "warmup_fraction": 0.5}},
         "train.'warmup_fraction' is not read by strategy 'shared_only'"),
    ])
    def test_bad_key_or_type_names_field(self, tmp_path, capsys, overrides,
                                         message):
        path, _ = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
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

    def test_zero_update_period_rejected_before_training(self, tmp_path,
                                                         capsys):
        # shared_only has no prototype bank to reject the period, so the
        # config itself must
        path, _ = small_config(
            tmp_path, train={"strategy": "shared_only", "update_period": 0})
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: update_period must be >= 1\n"
        assert not (tmp_path / "run").exists()


class TestGradcheckCommand:
    def test_passes_on_healthy_model(self, capsys):
        assert main(["gradcheck", "--dim", "8", "--layers", "2",
                     "--classes", "3"]) == 0
        out = capsys.readouterr().out
        assert "shared" in out and "class" in out and "head" in out

    def test_fails_with_corrupted_backward(self, monkeypatch, capsys):
        from fedprompt import model

        true_mix = model._mix

        def corrupted(seq, class_prompts, consts, replace, detach, tape,
                      upstream):
            # the mixing primitive with its class-prompt gradient 1.5x too
            # large: a map recorded after the mix's own adds half again
            out = true_mix(seq, class_prompts, consts, replace, detach, tape,
                           upstream)
            if tape is not None:
                scores = consts.evaluate(seq[0])[0].reshape(-1, 1)

                def extra(g):
                    class_prompts.grad += 0.5 * (g[1:2].T @ scores.T)
                    return g

                tape.record(extra)
            return out

        monkeypatch.setattr(model, "_mix", corrupted)
        assert main(["gradcheck", "--dim", "8", "--layers", "2",
                     "--classes", "3"]) == 1
        assert "class: max relative error 5.0" in capsys.readouterr().out

    @pytest.mark.parametrize("corruption", ["scaled", "row1"])
    def test_default_size_sees_score_to_cls_map(self, monkeypatch, capsys,
                                                corruption):
        # at --dim 8 --layers 2 --classes 3 these corruptions of the map
        # from the scores to the cls token read 2.6e-5 and 2.4e-5, under
        # the threshold; the default size must catch them
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

        def mix(seq, class_prompts, consts, replace, detach, tape, upstream):
            if tape is not None:
                # recorded before the mix's map, so it runs right after it
                # and also adds the cls gradient into row 1
                def into_row_1(dseq):
                    if sent:
                        dseq[1] += sent.pop()
                    return dseq

                tape.record(into_row_1)
            return true_mix(seq, class_prompts, consts, replace, detach, tape,
                            upstream)

        monkeypatch.setattr(model, "soft_scores_op", op)
        monkeypatch.setattr(model, "_mix", mix)
        assert main(["gradcheck"]) == 1
        assert "shared: max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--classes", "--dim", "--heads",
                                      "--seed"])
    def test_zero_size_rejected(self, capsys, flag):
        # sizes must be positive, the seed non-negative
        value = "-1" if flag == "--seed" else "0"
        assert main(["gradcheck", flag, value]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    def test_threshold_must_be_finite_and_positive(self, monkeypatch, capsys,
                                                   threshold):
        # every error fails a threshold of NaN or <= 0: reject it before
        # the first finite difference instead of reporting a failure
        from fedprompt import model

        def no_forward(**kwargs):
            raise AssertionError("gradient check ran")

        monkeypatch.setattr(model, "gradient_check", no_forward)
        assert main(["gradcheck", "--threshold", threshold, "--dim", "8",
                     "--layers", "2", "--classes", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --threshold must be finite")

    def test_reports_blocks_separately(self, capsys):
        main(["gradcheck", "--dim", "8", "--layers", "2", "--classes", "3"])
        out = capsys.readouterr().out
        assert out.count("max relative error") == 4


class TestPartitionCommand:
    def test_pathological_histogram_has_k_bins(self, tmp_path):
        path, _ = small_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        out = tmp_path / "run"
        with open(out / "label_histogram.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_client = {}
        for row in rows:
            if int(row["count"]) > 0:
                per_client.setdefault(row["client"], 0)
                per_client[row["client"]] += 1
        assert all(v == 2 for v in per_client.values())

    @pytest.mark.parametrize("field", ["noise", "separation"])
    def test_negative_scale_names_field(self, tmp_path, capsys, field):
        path, _ = small_config(tmp_path, data={field: -1})
        assert main(["partition", "--config", str(path)]) == 2
        assert f"data {field} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, argv, message", [
        ({"partition": {"classes_per_client": 100}}, [],
         "classes per client must lie in [1, 4], got 100"),
        ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_failed_partition_leaves_no_directory(self, tmp_path, capsys,
                                                  overrides, argv, message):
        path, _ = small_config(tmp_path, **overrides)
        assert main(["partition", "--config", str(path), *argv]) == 2
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

    def test_in_place_prototype_load_reaches_evaluation(self, tmp_path):
        # cmd_eval writes the loaded prototypes into the bank's arrays in
        # place; score constants built before that must not be reused
        from fedprompt.cli import (
            _build_world, _load_prototypes_csv, write_prototypes_csv)
        from fedprompt.federation import _evaluate, init_server, warm_startup

        path, _ = small_config(tmp_path)
        cfg = load_config(str(path))
        clients, backbone, heldout = _build_world(cfg)
        state = init_server(clients, backbone, cfg.model, cfg.train, cfg.seed,
                            heldout)
        warm_startup(state)
        rng = np.random.default_rng(0)
        state.params.head.data[...] = rng.normal(
            scale=10.0, size=state.params.head.data.shape)
        state.params.class_prompts.data[...] = rng.normal(
            scale=10.0, size=state.params.class_prompts.data.shape)
        before, _ = _evaluate(state)

        other = copy.deepcopy(state.bank)
        for layer in other.layers:
            other.mu[layer] = rng.normal(size=other.mu[layer].shape)
        expected, _ = _evaluate(dataclasses.replace(state, bank=other))
        assert expected.per_client != before.per_client

        write_prototypes_csv(other, tmp_path / "prototypes.csv")
        arrays = dict(state.bank.mu)
        _load_prototypes_csv(tmp_path / "prototypes.csv", state.bank)
        assert all(state.bank.mu[l] is arrays[l] for l in arrays)
        after, _ = _evaluate(state)
        assert after.per_client == expected.per_client

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


GOLDEN_METRICS = {
    "shared_only": ({"strategy": "shared_only"},
                    "361b87e57a5da86aa11bb0121da6931512221e91dfe15efc9fd33fc95c738675"),
    "mixed": ({"strategy": "mixed"},
              "b0bcdd2717c94c4a2f5f10becabb5829772b1f2000ed0236780f076b75e52fdd"),
    "mixed_no_prior": ({"strategy": "mixed_no_prior"},
                       "572e3134a51d9c6189ef3757b2af3c6fe1e6d03a33fb03ac3c87b60bde5309b9"),
    "personalized": ({"strategy": "personalized"},
                     "30492211452a24e0c1274be2002639d72c0f62ac4db127991bff2fc28413d083"),
    "mixed_dp_period2": ({"strategy": "mixed", "dp_epsilon": 1.0, "update_period": 2},
                         "cdc80caac342050a2b5d3d862e2562a48ec251e49abd03c47f2f993e48ca79af"),
}


ROOT = Path(__file__).resolve().parents[1]
# each benchmark workload at seed 0, cut to 2 rounds: the real model, and
# in desk and eval-heavy the only pinned runs that replace the mixed token
# at later layers
WORKLOAD_METRICS = {
    "desk": "c87723e717b7dc34b304e0bf8f86df5e27fa484c38deef9be9ad38663131960c",
    "eval-heavy": "bccea7b531623737eeefcc757148340901035fb5fde689e9047a0f377e6f7cf1",
    "train-heavy": "a4c4aeda1ff1380cb8675186f380760fbd683565b58e024b5c88e6dd1a2068cc",
}
# the same workloads at seed 1, also cut to 2 rounds
WORKLOAD_METRICS_SEED1 = {
    "desk": "8c86c9ca2221502c0e1aed26b89c4549f920bcd60fe235f35dd4f2d4ad40faf7",
    "eval-heavy": "15ff0c38ef4dce0d7813c2d5803cca93b60550cc811acfcaaf4ec78ef9db3e03",
    "train-heavy": "60327ed75c0e1ac66879ffc528ab7d761879ca217adf818fbd05ea90f9e7b658",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_METRICS) + sorted(WORKLOAD_METRICS)
                         + [f"{w}-seed1" for w in sorted(WORKLOAD_METRICS_SEED1)])
def test_metrics_bytes_match_golden(tmp_path, name):
    # pinned bytes: a refactor of any strategy must leave its metrics.csv
    # unchanged to the last bit
    workload, seed = name.removesuffix("-seed1"), int(name.endswith("-seed1"))
    if workload in WORKLOAD_METRICS:
        digest = (WORKLOAD_METRICS_SEED1 if seed else WORKLOAD_METRICS)[workload]
        raw = json.loads(
            (ROOT / "perfbench" / "workloads" / f"{workload}.json").read_text())
        raw.update(seed=seed, out_dir=str(tmp_path / "run"))
        raw["train"]["rounds"] = 2
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
    else:
        train, digest = GOLDEN_METRICS[name]
        path, _ = small_config(tmp_path, heldout_fraction=0.34, train=train)
    assert main(["run", "--config", str(path)]) == 0
    data = (tmp_path / "run" / "metrics.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


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
    "pathological": "1e7b2b2f15803a8581dcd9f63ca7cf928eb171cc7a1f9b062eee684a4e649db6",
    "dirichlet_heldout": "cc426e2a3616bbe20f03e248e09fb61ccab89f71c4f1b4c50d5de118e501cdb9",
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


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_config_copy_bytes_pinned(tmp_path, name):
    cfg = load_config(str(ROOT / "configs" / f"{name}.json"), out_override="run")
    write_config_copy(cfg, tmp_path / "config.json")
    data = (tmp_path / "config.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SHIPPED_CONFIGS[name]
