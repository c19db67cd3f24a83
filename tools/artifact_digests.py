"""Print the sha256 of every artifact the shipped configs and the benchmark
workloads write, so two checkouts can be compared byte for byte:

    python tools/artifact_digests.py > /tmp/new.txt

It runs `fedprompt run` from this checkout's src/ on both shipped configs,
on perfbench/workloads/{desk,train-heavy,eval-heavy}.json and on
configs/pathological.json with `train.strategy` set to `personalized`, to
`mixed_no_prior` and to `shared_only` (the strategies no shipped config
trains; only these runs evaluate `shared_only`), at seeds 0 and 1, each
into its own directory under a temporary directory, and `fedprompt eval`
on each run but the workloads'.  It prints one
`config seed artifact sha256` line per file: config.json without its
`out_dir` line (the path is temporary), the other five run artifacts and
eval_report.json, 106 lines; then `gradcheck - stdout sha256` for the
four lines `fedprompt gradcheck` prints, 107 lines in all.  It takes no
options, writes nothing outside the temporary directory (the edited
configs included), and exits 1 naming the first command that fails.
Run it in each checkout and `diff` the outputs.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("pathological", "dirichlet_heldout")
# configs/pathological.json is also run under each of these strategies
STRATEGIES = ("personalized", "mixed_no_prior", "shared_only")
WORKLOADS = ("desk", "train-heavy", "eval-heavy")
SEEDS = (0, 1)
# listed here, not read from `cli`, so a change cannot shrink its own check
RUN_ARTIFACTS = ("config.json", "metrics.csv", "prompts.csv",
                 "prototypes.csv", "client_accuracy.csv", "final_report.json")


def fedprompt(*args) -> str:
    """Run one `fedprompt` command from this checkout's src/ and return
    its stdout; exit 1 with its stderr if it fails."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "fedprompt.cli", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"fedprompt {' '.join(args)} exited {proc.returncode}:\n"
              f"{proc.stderr}", end="", file=sys.stderr)
        sys.exit(1)
    return proc.stdout


def digest(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "config.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b'  "out_dir": '))
    return hashlib.sha256(data).hexdigest()


def strategy_config(tmp, strategy) -> str:
    """Path of configs/pathological.json with `strategy`, written in `tmp`."""
    with open(os.path.join(ROOT, "configs", "pathological.json")) as fh:
        raw = json.load(fh)
    raw["train"]["strategy"] = strategy
    path = os.path.join(tmp, f"pathological-{strategy}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        configs = {
            **{name: os.path.join("configs", f"{name}.json")
               for name in SHIPPED},
            **{name: os.path.join("perfbench", "workloads", f"{name}.json")
               for name in WORKLOADS},
            **{f"pathological-{strategy}": strategy_config(tmp, strategy)
               for strategy in STRATEGIES},
        }
        for name, config in configs.items():
            for seed in SEEDS:
                out = os.path.join(tmp, f"{name}-{seed}")
                fedprompt("run", "--config", config, "--seed", str(seed),
                          "--out", out)
                artifacts = list(RUN_ARTIFACTS)
                if name not in WORKLOADS:
                    fedprompt("eval", "--run-dir", out)
                    artifacts.append("eval_report.json")
                for artifact in artifacts:
                    print(name, seed, artifact,
                          digest(os.path.join(out, artifact)), flush=True)
    stdout = fedprompt("gradcheck").encode()
    print("gradcheck - stdout", hashlib.sha256(stdout).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
