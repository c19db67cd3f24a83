"""The reference kernel: a fixed stretch of work to gauge the host's speed.

On a shared host the speed of a core drifts by a quarter or more over
minutes, so wall times of the same run differ by as much. An untraced
benchmark process runs `reference_kernel` about every `EVERY_S` seconds,
between two of the program's forward passes, and times it. Dividing each
stretch of program time by the kernel times on both sides of it gives the
program's time in kernel units (`ref`), which follows the program's own
speed and not the host's.

The kernel is the same kind of work as the program: a chain of small
matrix products, `tanh` and row normalisations on 5 x 32 arrays, driven
from Python. It is fixed. Changing it changes every `_ref` metric, so it
is not part of anything an optimisation of the program may touch.
"""

import numpy as np

EVERY_S = 0.05

_rng = np.random.default_rng(0)
_WEIGHTS = [0.1 * _rng.standard_normal((32, 32)) for _ in range(4)]
_X0 = _rng.standard_normal((5, 32))


def reference_kernel() -> np.ndarray:
    x = _X0
    for _ in range(6):
        for w in _WEIGHTS:
            x = np.tanh(x @ w) + 0.5 * x
            x = (x - x.mean(axis=-1, keepdims=True)) / (
                x.std(axis=-1, keepdims=True) + 1e-5)
    return x


def in_ref_units(start, stop, refs) -> tuple:
    """Program time in [start, stop] in kernel units, and in seconds.

    `refs` lists `(begin, end)` of every kernel run, in order. The kernel
    runs cut [start, stop] into stretches of program time; each stretch is
    divided by the mean duration of the kernel runs on either side of it
    (one side at the ends). Returns `(ref units, program seconds)`.
    """
    inside = [(b, e) for b, e in refs if start <= b and e <= stop]
    if not inside:
        raise ValueError("no reference kernel ran between the marks")
    durations = [e - b for b, e in inside]
    edges = [start] + [t for span in inside for t in span] + [stop]
    units = seconds = 0.0
    for k in range(len(inside) + 1):
        stretch = edges[2 * k + 1] - edges[2 * k]
        sides = durations[max(0, k - 1):k + 1]
        units += stretch / (sum(sides) / len(sides))
        seconds += stretch
    return units, seconds
