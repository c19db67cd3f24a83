"""Run the byte-sensitive tests under each of the four x86-64 OpenBLAS cores.

numpy's bundled OpenBLAS picks its GEMM kernels by CPU when it loads, and
artifact bytes follow the kernels' rounding.  For each of SkylakeX,
Haswell, Sandybridge and Prescott this script runs one child with
OPENBLAS_CORETYPE set in its environment only, on the acceptance module,
the overflow test and the golden-digest cases, which hold each core to
its own recorded bytes.  It prints the core each child loaded and
pytest's own summary line:

    python tools/blas_cores.py

It is not part of the test suite: one core took 70 s to 95 s on a shared
2-core x86 host.  The exit status is 0 when every test passes under every
core, else 1.

`loaded_core()` of `tests/openblas_core.py` reads the core a process
loaded:

    python -c "import sys; sys.path.insert(0, 'tests'); import openblas_core; print(openblas_core.loaded_core())"
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
CHECKED = (
    "tests/test_acceptance.py",
    "tests/test_cli.py::TestRunCommand::"
    "test_overflowing_score_gradient_fails_without_a_warning",
    "tests/test_cli.py::test_metrics_bytes_match_golden",
)
# a child names the core it loaded, then runs pytest on its arguments
CHILD = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'tests')!r}); "
         "import openblas_core, pytest; "
         "print(openblas_core.loaded_core(), flush=True); "
         "sys.exit(pytest.main(sys.argv[1:]))")


def run_child(core) -> int:
    """Print the loaded core and pytest's summary line of one child on
    CHECKED under OPENBLAS_CORETYPE=`core`, with its failures; return its
    exit code."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", *CHECKED],
        cwd=ROOT, env=dict(os.environ, OPENBLAS_CORETYPE=core),
        capture_output=True, text=True)
    lines = proc.stdout.splitlines() or ["", ""]
    print(f"{core}: loaded {lines[0]}; {lines[-1]}", flush=True)
    for line in lines:
        if line.startswith(("FAILED", "ERROR")):
            print(f"  {line}")
    if proc.returncode > 1:  # the child did not finish its tests
        print(proc.stderr, end="")
    return proc.returncode


def main() -> int:
    status = 0
    for core in CORES:
        status |= run_child(core) != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
