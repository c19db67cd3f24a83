"""fedprompt benchmark: whole `fedprompt run`s, timed per process.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 1

Run from the root of a source checkout. Each workload is a config in
`perfbench/workloads/`. The benchmark starts one fresh process after
another (closed loop, one at a time) until `--seconds` have passed; each
does a complete `fedprompt run` of that config at `--seed` through the
public CLI entry. Every run is checked: exit code 0, `metrics.csv` with
rounds + 1 finite rows, the same `metrics.csv` sha256 as every other run
of the workload and seed, and a final report that agrees with the last
row. A run that fails any check counts as failed.

`--trace 0` reports the end-to-end metrics as medians over the runs.
`--trace 1` alternates untraced runs with runs traced by `tracer.py` and
reports the per-layer metrics, as medians over the traced runs. The
environment and every run's figures are written to
`.bench_out/<workload>-seed<seed>-trace<t>.json`. The last line of
standard output is the result as one JSON object.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk", "train-heavy", "eval-heavy")
OUT_ROOT = ".bench_out"
MIN_RUNS = 3          # untraced runs in an end-to-end measurement
DEADLINE_S = 150      # stop starting runs after this, to end within 180 s

# end-to-end metrics of BENCHMARK.json: medians over the untraced runs.
# `_ref` times are program time in units of the reference kernel
# (`reference.py`), which keeps them steady while the host's speed drifts.
E2E_UNITS = {
    "setup_s": "s",
    "train_ref": "ref",
    "run_ref": "ref",
    "samples_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
# the same times in seconds: printed, not bounded, since they follow the
# speed of a shared host as much as that of the program
WALL_UNITS = {
    "train_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
}
# quality after the workload's rounds: exact at one seed, printed but not
# bounded, because across seeds they spread by more than any bound allows
QUALITY_UNITS = {
    "final_train_loss": "nats",
    "final_mean_acc": "fraction",
    "final_worst_acc": "fraction",
    "heldout_mean_acc": "fraction",
}
METRICS_HEADER = ["round", "train_loss", "mean_acc", "worst_acc",
                  "heldout_mean_acc", "heldout_worst_acc"]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def git_sha():
    """HEAD of the checkout's own `.git`, read directly (no parent repos)."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def check_metrics_csv(path, rounds, heldout) -> tuple:
    """Return (sha256, last row as floats) or raise ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    if lines[0].split(",") != METRICS_HEADER:
        raise ValueError(f"unexpected metrics.csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != rounds + 1:
        raise ValueError(f"metrics.csv has {len(rows)} rows, want {rounds + 1}")
    for i, row in enumerate(rows):
        cells = row[1:] if heldout else row[1:4]
        if i == 0:
            cells = cells[1:]  # round 0 has no training loss
        if not all(c and math.isfinite(float(c)) for c in cells):
            raise ValueError(f"non-finite or missing value in row {i}: {row}")
    last = {name: float(v) for name, v in zip(METRICS_HEADER, rows[-1]) if v}
    return hashlib.sha256(raw).hexdigest(), last


def run_once(config, seed, out_dir, trace, timeout) -> dict:
    """One fresh process doing one `fedprompt run`; its figures or an error."""
    result_path = os.path.join(out_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", config,
           "--seed", str(seed), "--out", out_dir, "--result", result_path]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.perf_counter())],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(result_path) as fh:
        return json.load(fh)


def check_run(run, out_dir, counts, heldout):
    """Add the correctness figures of one finished run, or an error."""
    try:
        sha, last = check_metrics_csv(os.path.join(out_dir, "metrics.csv"),
                                      counts["rounds"], heldout)
        with open(os.path.join(out_dir, "final_report.json")) as fh:
            report = json.load(fh)
        if report["participating"]["mean_acc"] != last["mean_acc"]:
            raise ValueError("final report disagrees with the last metrics row")
        if heldout and report["heldout"]["mean_acc"] != last["heldout_mean_acc"]:
            raise ValueError("final heldout report disagrees with metrics.csv")
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        run["error"] = f"artifact check: {exc}"
        return
    run["sha256"] = sha
    run["final_train_loss"] = last["train_loss"]
    run["final_mean_acc"] = last["mean_acc"]
    run["final_worst_acc"] = last["worst_acc"]
    run["heldout_mean_acc"] = last.get("heldout_mean_acc")
    run["samples_per_s"] = counts["samples"] / run["run_s"]
    if "run_ref" in run:
        run["samples_per_ref"] = counts["samples"] / run["run_ref"]


def measure(workload, seed, seconds, trace) -> dict:
    from fedprompt.cli import load_config
    from counts import closed_form

    config = os.path.join(HERE, "workloads", f"{workload}.json")
    cfg = load_config(config, seed_override=seed)
    counts = closed_form(cfg)
    counts["samples"] = (counts["taped"] + counts["proto_pass"]
                         + counts["train_eval"] + counts["final_eval"])
    heldout = cfg.heldout_fraction > 0

    os.makedirs(OUT_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT)
    load_before = os.getloadavg()
    start = time.perf_counter()
    runs = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            untraced = sum(1 for r in runs if not r["traced"])
            traced = len(runs) - untraced
            enough = (untraced and traced) if trace else untraced >= MIN_RUNS
            # stop when the next run would end past --seconds
            typical = elapsed / len(runs) if runs else 0.0
            if (elapsed + typical >= seconds and enough) or elapsed >= DEADLINE_S:
                break
            traced_now = bool(trace) and untraced > traced
            out_dir = os.path.join(scratch, str(len(runs)))
            os.makedirs(out_dir)
            run = run_once(config, seed, out_dir, traced_now,
                           timeout=max(10.0, DEADLINE_S + 20 - elapsed))
            run["traced"] = traced_now
            if "error" not in run:
                check_run(run, out_dir, counts, heldout)
            runs.append(run)
            shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    load_after = os.getloadavg()

    # determinism: every run of one workload at one seed writes the same bytes
    shas = [r["sha256"] for r in runs if "sha256" in r]
    majority = max(set(shas), key=shas.count) if shas else None
    if shas:
        for r in runs:
            if "sha256" in r and r["sha256"] != majority:
                r["error"] = f"metrics.csv sha256 {r['sha256']} != {majority}"
    good = [r for r in runs if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    metrics = {}
    if plain:
        for name, unit in {**E2E_UNITS, **WALL_UNITS}.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain),
                             "unit": unit}
    layers = {}
    traced_runs = [r for r in good if r["traced"]]
    if trace and traced_runs and plain:
        for name in traced_runs[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in traced_runs)
            layers[name] = {"value": value,
                            "unit": "s" if name.endswith("_s") else "count"}
        overhead = (statistics.median(r["train_s"] for r in traced_runs)
                    - metrics["train_s"]["value"])
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": {**environment(), "loadavg_before": load_before,
                        "loadavg_after": load_after},
        "closed_form_counts": counts,
        "metrics_sha256": majority,
        "runs": runs,
        "correct": (len(good) == len(runs) and bool(plain)
                    and (bool(layers) or not trace)),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "end_to_end": metrics,
        "per_layer": layers,
    }


def report(result) -> dict:
    """Print the figures by name and unit; return the contract's result line."""
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} runs, {result['failed']} failed")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# metrics.csv sha256 {result['metrics_sha256']}")
    good = [r for r in result["runs"] if "error" not in r]
    for name, unit in QUALITY_UNITS.items():
        if good and good[0][name] is not None:
            print(f"{name} {good[0][name]!r} {unit}")
    for run in result["runs"]:
        if "error" in run:
            print(f"# failed run: {run['error']}")
    for name, m in [*result["end_to_end"].items(),
                    *sorted(result["per_layer"].items())]:
        print(f"{name} {m['value']!r} {m['unit']}")
    chosen = result["per_layer"] if result["trace"] else {
        name: m for name, m in result["end_to_end"].items() if name in E2E_UNITS}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": chosen}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "fedprompt", "cli.py")):
        print("error: run from the root of a fedprompt checkout (no src/fedprompt)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath("src"), HERE]
    # compile once up front so no timed run pays for writing bytecode
    compileall.compile_dir("src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        with open(os.path.join(OUT_ROOT, f"{name}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(report(result))
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
