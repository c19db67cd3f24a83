"""Run the byte-sensitive tests under each of the four x86-64 OpenBLAS cores.

numpy's bundled OpenBLAS picks its GEMM kernels by CPU when it loads, and
artifact bytes follow the kernels' rounding.  For each of SkylakeX,
Haswell, Sandybridge and Prescott this script runs two children with
OPENBLAS_CORETYPE set in their environment only: one on the acceptance
module and the overflow test, one on the golden-digest cases.  It prints
the core each child loaded and pytest's own summary line:

    python tools/blas_cores.py

It is not part of the test suite: one core took 70 s to 95 s on a shared
2-core x86 host.  The exit
status is 0 when the acceptance and overflow tests pass under every core,
else 1.  The golden digests were recorded under SkylakeX and hold only
there, so their cases are printed but do not set the exit status.

`loaded_core()` reads the core a process loaded, through ctypes on the
`scipy_openblas_get_corename64_` of numpy's `libscipy_openblas64_*.so`:

    python -c "import sys; sys.path.insert(0, 'tools'); import blas_cores; print(blas_cores.loaded_core())"
"""

import ctypes
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
CHECKED = (
    "tests/test_acceptance.py",
    "tests/test_cli.py::TestRunCommand::"
    "test_overflowing_score_gradient_fails_without_a_warning",
)
GOLDEN = ("tests/test_cli.py::test_metrics_bytes_match_golden",)
# a child names the core it loaded, then runs pytest on its arguments
CHILD = (f"import sys; sys.path.insert(0, {HERE!r}); import blas_cores, pytest; "
         "print(blas_cores.loaded_core(), flush=True); "
         "sys.exit(pytest.main(sys.argv[1:]))")


def loaded_core() -> str:
    """Name of the core numpy's bundled OpenBLAS loaded in this process,
    or "unknown" for a numpy build without its own scipy-openblas."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def run_child(core, tests) -> int:
    """Print the loaded core and pytest's summary line of one child under
    OPENBLAS_CORETYPE=`core`, with its failures; return its exit code."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", *tests],
        cwd=os.path.dirname(HERE), env=dict(os.environ, OPENBLAS_CORETYPE=core),
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
        status |= run_child(core, CHECKED) != 0
        run_child(core, GOLDEN)
    return status


if __name__ == "__main__":
    sys.exit(main())
