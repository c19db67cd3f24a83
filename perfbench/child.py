"""One `fedprompt run` in a fresh process, timed from outside the package.

    python3 perfbench/child.py --config CFG --seed N --out DIR \
        --result FILE --t0 T [--trace]

`--t0` is the parent's `time.perf_counter()` just before it started this
process; on Linux that clock is system-wide, so times measured here are
from process start. The run goes through the public CLI entry,
`fedprompt.cli.main(["run", ...])`; `run_training` is wrapped to mark
where set-up ends and training ends.

Without `--trace` the process runs the reference kernel of `reference.py`
between two forward passes about every 50 ms and reports the run's
program time in kernel units as well as in seconds; kernel time is left
out of both. With `--trace` the layer spans of `tracer.py` are installed
instead, and no kernel runs.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from fedprompt import cli, model
    from reference import EVERY_S, in_ref_units, reference_kernel
    from tracer import Tracer, patch_everywhere

    marks = {}
    run_training = cli.run_training

    def timed_run_training(*a, **k):
        marks["train_start"] = time.perf_counter()
        try:
            return run_training(*a, **k)
        finally:
            marks["train_end"] = time.perf_counter()

    cli.run_training = timed_run_training
    tracer = None
    refs = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        reference_kernel()  # the first call pays for setting up its ufuncs
        forward = model.forward_with_prompts
        last = [time.perf_counter()]

        def forward_and_reference(*a, **k):
            begin = time.perf_counter()
            if begin - last[0] >= EVERY_S:
                reference_kernel()
                last[0] = time.perf_counter()
                refs.append((begin, last[0]))
            return forward(*a, **k)

        patch_everywhere(forward, forward_and_reference)

    code = cli.main(["run", "--config", args.config, "--seed", str(args.seed),
                     "--out", args.out])
    end = time.perf_counter()
    if code != 0 or "train_end" not in marks:
        return code or 1
    start, stop = marks["train_start"], marks["train_end"]
    result = {
        "setup_s": start - args.t0,
        "train_s": stop - start,
        "run_s": end - args.t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": None if tracer is None else tracer.layer_metrics(),
    }
    if tracer is None:
        result["train_ref"], result["train_s"] = in_ref_units(start, stop, refs)
        result["run_ref"], after_setup = in_ref_units(start, end, refs)
        result["run_s"] = result["setup_s"] + after_setup
        result["reference_runs"] = len(refs)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
