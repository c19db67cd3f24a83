"""Run every shipped command in one process; print the sha256 of each
artifact and the lines of src/fedprompt/*.py that no command reaches.

    python tools/audit.py > /tmp/new.txt   # then diff two checkouts

With `sys.settrace` set before `fedprompt` is imported, so module-level
lines count, it runs through `cli.main`, in a temporary directory: `run`
at seeds 0 and 1 of each configs/*.json, of each perfbench/workloads/*.json
and of configs/pathological.json under each other strategy of
`config.STRATEGIES` (edited copies written to the temporary directory),
each followed by `eval` but the workloads'; `gradcheck`; and `partition`
of each configs/*.json at seeds 0 and 1.  It prints `config seed artifact
sha256` for each file the runs and evals write (config.json without its
temporary `out_dir` line), `gradcheck - stdout sha256`, and the same lines
for each partition, as config `<name>-partition`.  Then it prints
`file:line: text` for each line start (`dis.findlinestarts`) of each code
object compiled from src/fedprompt/*.py, nested ones included, that no
`line` or `call` event reached, and their count.  It takes no options and
exits 1 naming the first command that fails.
"""

import contextlib
import dis
import glob
import hashlib
import io
import json
import linecache
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fedprompt")
SEEDS = (0, 1)
# listed here, not read from `cli`, so a change cannot shrink its own check
RUN_ARTIFACTS = ("config.json", "metrics.csv", "prompts.csv",
                 "prototypes.csv", "client_accuracy.csv", "final_report.json")
PARTITION_ARTIFACTS = ("partition.csv", "label_histogram.csv", "config.json")

reached = set()  # (file, line)
left = {}  # code object -> its line starts not yet reached


def line_starts(code):
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def trace(frame, event, arg):
    """Global tracer: reach the call's line (a function's first line start
    is its `def` line, which raises no `line` event), then trace the
    frame's lines while its code object has line starts left."""
    code = frame.f_code
    todo = left.get(code)
    if todo is None:  # code outside src/fedprompt has nothing to reach
        todo = left[code] = (line_starts(code) if os.path.dirname(
            code.co_filename) == SRC else set())
    if not todo:
        return None

    def local(frame, event, arg):
        if event in ("call", "line"):
            reached.add((code.co_filename, frame.f_lineno))
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return local

    return local(frame, event, arg)


def fedprompt(cli, *argv) -> str:
    """Run one command through `cli.main` and return its stdout; exit 1
    naming it if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code:
        print(f"fedprompt {' '.join(argv)} exited {code}", file=sys.stderr)
        sys.exit(1)
    return out.getvalue()


def print_digests(name, seed, out, artifacts):
    for artifact in artifacts:
        with open(os.path.join(out, artifact), "rb") as fh:
            data = fh.read()
        if artifact == "config.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b'  "out_dir": '))
        print(name, seed, artifact, hashlib.sha256(data).hexdigest(),
              flush=True)


def named(pattern):
    """{name: path} of the files `pattern` globs under ROOT, in name order."""
    return {os.path.splitext(os.path.basename(path))[0]: path
            for path in sorted(glob.glob(os.path.join(ROOT, pattern)))}


def run_configs(tmp, shipped, strategies):
    """(name, path, evaluated) of each config `run` takes, in order."""
    workloads = named("perfbench/workloads/*.json")
    for name, path in {**shipped, **workloads}.items():
        yield name, path, name in shipped
    with open(shipped["pathological"]) as fh:
        raw = json.load(fh)
    for strategy in [s for s in strategies if s != raw["train"]["strategy"]]:
        raw["train"]["strategy"] = strategy
        path = os.path.join(tmp, f"pathological-{strategy}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        yield f"pathological-{strategy}", path, True


def unreached():
    """(file, line) of every line start of src/fedprompt/*.py that no
    command reached, in file and line order."""
    missed = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            todo = [compile(fh.read(), path, "exec")]
        while todo:
            code = todo.pop()
            missed |= {(path, line) for line in line_starts(code)} - reached
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return sorted(missed)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(trace)
    try:
        from fedprompt import cli, config

        shipped = named("configs/*.json")
        with tempfile.TemporaryDirectory() as tmp:
            for name, path, evaluated in run_configs(tmp, shipped,
                                                     config.STRATEGIES):
                for seed in SEEDS:
                    out = os.path.join(tmp, f"{name}-{seed}")
                    fedprompt(cli, "run", "--config", path,
                              "--seed", str(seed), "--out", out)
                    artifacts = list(RUN_ARTIFACTS)
                    if evaluated:
                        fedprompt(cli, "eval", "--run-dir", out)
                        artifacts.append("eval_report.json")
                    print_digests(name, seed, out, artifacts)
            stdout = fedprompt(cli, "gradcheck").encode()
            print("gradcheck - stdout", hashlib.sha256(stdout).hexdigest())
            for name, path in shipped.items():
                for seed in SEEDS:
                    out = os.path.join(tmp, f"{name}-partition-{seed}")
                    fedprompt(cli, "partition", "--config", path,
                              "--seed", str(seed), "--out", out)
                    print_digests(f"{name}-partition", seed, out,
                                  PARTITION_ARTIFACTS)
    finally:
        sys.settrace(None)
    missed = unreached()
    for path, line in missed:
        text = linecache.getline(path, line).strip()
        print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
    print(f"{len(missed)} line starts unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
