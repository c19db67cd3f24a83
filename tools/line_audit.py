"""Print the lines of src/fedprompt/*.py that no shipped command reaches:

    python tools/line_audit.py

It sets `sys.settrace` before `fedprompt` is imported, so module-level
lines count, then runs each command in this one process through
`cli.main`, in a temporary directory: `run`, `partition` and `eval` of
both shipped configs; `run` of perfbench/workloads/{desk,train-heavy,
eval-heavy}.json cut to 2 rounds; `run` and `eval` of
configs/pathological.json with `train.strategy` set to `personalized`,
to `mixed_no_prior` and to `shared_only`; and `gradcheck`.  The edited configs are
written to the temporary directory, and the commands' own output is
discarded.  A line counts as reached when a `line` event names it, or a
`call` event (a function's first line start is its `def` line, which
raises no `line` event).  Once every line start of a code object has
been reached, that code object is no longer traced.

It then prints `file:line: text` for every line start
(`dis.findlinestarts`) of every code object compiled from those files,
nested ones found through `co_consts`, that no command reached, and the
count.  It takes no options and exits 1 naming the first command that
does not exit 0.  The 30-round runs make it take about a minute.
"""

import contextlib
import dis
import glob
import io
import json
import linecache
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fedprompt")
SHIPPED = ("pathological", "dirichlet_heldout")
WORKLOADS = ("desk", "train-heavy", "eval-heavy")
# configs/pathological.json is also run under each of these strategies
STRATEGIES = ("personalized", "mixed_no_prior", "shared_only")

reached = set()  # (file, line)
left = {}  # code object -> its line starts not yet reached


def line_starts(code):
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def trace(frame, event, arg):
    """Global tracer: reach the call's line, then trace the frame's lines
    while its code object has line starts left."""
    code = frame.f_code
    if os.path.dirname(code.co_filename) != SRC:
        return None
    todo = left.get(code)
    if todo is None:
        todo = left[code] = line_starts(code)
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


def edited_config(tmp, source, name, edit) -> str:
    """Path of the config `source` after `edit(raw)`, written in `tmp`."""
    with open(source) as fh:
        raw = json.load(fh)
    edit(raw)
    path = os.path.join(tmp, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def commands(tmp):
    """The argv of each command, in the order they run."""
    pathological = os.path.join(ROOT, "configs", "pathological.json")
    for name in SHIPPED:
        config = os.path.join(ROOT, "configs", f"{name}.json")
        out = os.path.join(tmp, name)
        yield ["run", "--config", config, "--out", out]
        yield ["partition", "--config", config,
               "--out", os.path.join(tmp, f"{name}-partition")]
        yield ["eval", "--run-dir", out]
    for name in WORKLOADS:
        config = edited_config(
            tmp, os.path.join(ROOT, "perfbench", "workloads", f"{name}.json"),
            name, lambda raw: raw["train"].update(rounds=2))
        yield ["run", "--config", config, "--out", os.path.join(tmp, name)]
    for strategy in STRATEGIES:
        config = edited_config(
            tmp, pathological, f"pathological-{strategy}",
            lambda raw: raw["train"].update(strategy=strategy))
        out = os.path.join(tmp, f"pathological-{strategy}")
        yield ["run", "--config", config, "--out", out]
        yield ["eval", "--run-dir", out]
    yield ["gradcheck"]


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
        from fedprompt import cli

        with tempfile.TemporaryDirectory() as tmp:
            for argv in commands(tmp):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code:
                    print(f"fedprompt {' '.join(argv)} exited {code}",
                          file=sys.stderr)
                    return 1
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
