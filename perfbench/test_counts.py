"""The traced work counts of a run equal the closed form of `counts.py`.

    python3 -m pytest perfbench -q

Count-based claims compare these counters between two versions of the
program, so the counters must measure exactly the work the partition and
the client sampling imply.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from counts import closed_form  # noqa: E402
from fedprompt.cli import load_config  # noqa: E402
from run import WORKLOADS  # noqa: E402

TRACED_ROUNDS = 3


def workload_config(name, seed=0, rounds=None):
    cfg = load_config(os.path.join(HERE, "workloads", f"{name}.json"),
                      seed_override=seed)
    if rounds is not None:
        cfg.train = dataclasses.replace(cfg.train, rounds=rounds)
    return cfg


def test_desk_closed_form_at_thirty_rounds():
    # the reference run of configs/pathological.json: model, data and
    # partition of the desk workload, 30 rounds, seed 0
    counts = closed_form(workload_config("desk", rounds=30))
    assert counts["taped"] == 2398
    assert counts["proto_pass"] == 2718
    assert counts["train_eval"] == 2976
    assert counts["final_eval"] == 96


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_equal_closed_form(name, tmp_path):
    cfg = workload_config(name, rounds=TRACED_ROUNDS)
    raw_config = cfg.to_dict()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw_config))
    result_path = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--config",
         str(config_path), "--seed", "0", "--out", str(tmp_path / "run"),
         "--result", str(result_path), "--t0", "0", "--trace"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300)
    layers = json.loads(result_path.read_text())["layers"]

    expected = closed_form(cfg)
    untaped = (expected["proto_pass"] + expected["train_eval"]
               + expected["final_eval"])
    mixing = cfg.train.strategy != "shared_only"
    mix_layers = len(cfg.model.mix_layers) if mixing else 0
    assert layers["model.forward.taped_calls"] == expected["taped"]
    assert layers["tensor.backward_calls"] == expected["taped"]
    assert layers["model.forward.untaped_calls"] == untaped
    assert layers["model.transformer_layer.taped_calls"] == (
        cfg.model.layers * expected["taped"])
    assert layers["model.transformer_layer.untaped_calls"] == (
        cfg.model.layers * untaped)
    assert layers["prototypes.scores.taped_calls"] == mix_layers * expected["taped"]
    assert layers["prototypes.scores.untaped_calls"] == mix_layers * untaped
    assert layers["federation.proto_pass_samples"] == expected["proto_pass"]
    assert layers["evaluation.evaluate_samples"] == (
        expected["train_eval"] + expected["final_eval"])
    assert layers["federation.local_train_calls"] == expected["local_train_calls"]
    assert layers["prototypes.bank_update_calls"] == expected["bank_updates"]
    assert (layers["prototypes.dp_noise_calls"] > 0) == (
        cfg.train.dp_epsilon is not None)
