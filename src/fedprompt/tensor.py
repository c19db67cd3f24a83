"""Trainable blocks and the tape that threads one gradient back to them.

The prompted forward pass is a fixed chain of fused primitives over plain
arrays (see `model.py`).  Under a tape each primitive records one
backward map: it takes the gradient of the primitive's output, adds into
any trainable block the primitive read, and returns the gradient of its
input, or None when it has none (the embedding).  `Tape.backward` seeds
1.0 and passes the gradient through the maps in reverse order of
recording.  A `Tensor` is only a trainable block: its array and the
gradient the maps add into.  This module also holds the per-shape
workspaces and 0-d constants of the per-sample kernels, the
layer-normalization kernels, cross entropy, and a central
finite-difference oracle (`finite_diff_grad`), the independent gradient
check used throughout the test suite.
"""

import functools
import math

import numpy as np

_TAPES = []


def active_tape():
    """Innermost active tape, or None outside `with Tape()`."""
    return _TAPES[-1] if _TAPES else None


class Tape:
    """The backward maps of one forward pass, in the order recorded."""

    def __init__(self):
        self._ops, self._lent = [], []
        self._used = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def record(self, backward_map):
        self._ops.append(backward_map)

    def lend(self, free, item):
        """Give `item` back to the list `free` once `backward` has run all maps."""
        self._lent.append((free, item))

    def backward(self):
        """Seed d(loss)/d(loss) = 1 and pass it through every map in
        reverse; returns what the first recorded map returned."""
        if self._used:
            raise RuntimeError("tape already consumed; tapes are single-use")
        self._used = True
        grad = 1.0
        for backward_map in reversed(self._ops):
            grad = backward_map(grad)
        for free, item in self._lent:
            free.append(item)
        return grad


class Tensor:
    """A trainable block: a copy of its array and the gradient the
    backward maps add into."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0


@functools.cache
def scalar(value):
    """`value` as a read-only 0-d float64 array, one per value.  A ufunc
    takes it with less work than a Python float and computes the same
    bits."""
    c = np.array(value, dtype=np.float64)
    c.flags.writeable = False
    return c


ONE = scalar(1.0)
HALF = scalar(0.5)
LAYER_NORM_EPS = scalar(1e-5)


class Workspaces(dict):
    """A kernel's workspaces, one per shape, each built by `build(*shape)`
    on first use: its temporaries and the views it indexes.  What a kernel
    returns is fresh, and what a map captures is fresh or lent to its tape
    until the tape's backward (`Tape.lend`), so no later call of any shape
    changes a result or a recorded map.  Kernels run one at a time."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, shape):
        space = self[shape] = self.build(*shape)
        return space


class NormSpace:
    """Scratch of `norm_rows` and `norm_rows_backward` over (rows, d)
    matrices: a (rows, d) buffer for the squares or products, two (rows,
    1) columns with their 1-D views, and the width as a 0-d constant."""

    __slots__ = ("width", "sq", "mean", "mean_col", "proj", "proj_col")

    def __init__(self, rows, d):
        self.width = scalar(d)
        self.sq = np.empty((rows, d))
        self.mean, self.proj = np.empty((2, rows, 1))
        self.mean_col, self.proj_col = self.mean[:, 0], self.proj[:, 0]


def norm_rows(x, xhat=None, inv=None, space=None):
    """Layer normalization of each row of the matrix `x`, with no affine
    map.

    Writes and returns (xhat, inv): the normalized rows and the (rows, 1)
    inverse standard deviations, which `norm_rows_backward` needs.  Both
    are fresh arrays unless given, and so is the scratch without `space`.
    """
    rows, d = x.shape
    xhat = np.empty((rows, d)) if xhat is None else xhat
    inv = np.empty((rows, 1)) if inv is None else inv
    space = NormSpace(rows, d) if space is None else space
    # a reduction into a 1-D `out` dispatches faster than with keepdims
    col = inv[:, 0]
    np.divide(np.add.reduce(x, 1, None, col), space.width, col)
    np.subtract(x, inv, xhat)
    squares = np.multiply(xhat, xhat, space.sq)
    np.divide(np.add.reduce(squares, 1, None, col), space.width, col)
    np.add(col, LAYER_NORM_EPS, col)
    np.divide(ONE, np.sqrt(col, col), col)
    np.multiply(xhat, inv, xhat)
    return xhat, inv


def norm_rows_backward(dy, xhat, inv, out=None, space=None):
    """Gradient into the rows `norm_rows` normalized, for upstream `dy`:
    inv * ((dy - mean(dy)) - xhat * mean(dy * xhat)), written into `out`
    (which may be `dy`) or a fresh array; fresh scratch without `space`."""
    space = NormSpace(*xhat.shape) if space is None else space
    col = space.mean_col
    np.divide(np.add.reduce(dy, 1, None, col), space.width, col)
    prod = np.multiply(dy, xhat, space.sq)
    col = space.proj_col
    np.divide(np.add.reduce(prod, 1, None, col), space.width, col)
    np.multiply(xhat, space.proj, prod)
    out = np.subtract(dy, space.mean, out)
    np.subtract(out, prod, out)
    return np.multiply(inv, out, out)


def cross_entropy(logits, label: int) -> float:
    """Negative log softmax probability of `label`, computed in log space.

    Under a tape it records the map from the loss gradient to the logits
    gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    label = int(label)
    if not 0 <= label < n:
        raise IndexError(f"label {label} out of range for {n} classes")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    tape = active_tape()
    if tape is not None:
        def backward(g):
            p = np.exp(logits - lse)
            p[label] -= 1.0
            return g * p

        tape.record(backward)
    return float(lse - logits[label])


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar `f` at `x`.

    Independent oracle: never touches the tape machinery.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    base = x.copy()
    for i in range(x.size):
        orig = base.reshape(-1)[i]
        base.reshape(-1)[i] = orig + h
        up = float(f(base))
        base.reshape(-1)[i] = orig - h
        down = float(f(base))
        base.reshape(-1)[i] = orig
        if not (math.isfinite(up) and math.isfinite(down)):
            raise ArithmeticError("non-finite value during finite differences")
        flat[i] = (up - down) / (2.0 * h)
    return grad


def grad_rel_error(autodiff: np.ndarray, oracle: np.ndarray) -> float:
    """Max absolute deviation normalized by the oracle's largest entry."""
    denom = max(float(np.abs(oracle).max()), 1e-12)
    return float(np.abs(autodiff - oracle).max()) / denom
