"""Trainable blocks and the tape that threads one gradient back to them.

The prompted forward pass is a fixed chain of fused primitives over plain
arrays (see `model.py`).  Under a tape each primitive records one
backward map: it takes the gradient of the primitive's output, adds into
any trainable block the primitive read, and returns the gradient of its
input, or None when no trainable block feeds that input.  `Tape.backward` seeds 1.0 and passes the gradient through the
maps in reverse order of recording.  A `Tensor` is only a trainable
block: its array and the gradient the maps add into.  This module also
holds the scratch pool and 0-d constants of the per-sample kernels, the
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
        self._ops = []
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

    def backward(self):
        """Seed d(loss)/d(loss) = 1 and pass it through every map in
        reverse; returns what the first recorded map returned."""
        if self._used:
            raise RuntimeError("tape already consumed; tapes are single-use")
        self._used = True
        grad = 1.0
        for backward_map in reversed(self._ops):
            grad = backward_map(grad)
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


class ScratchPool(dict):
    """The temporaries of the per-sample kernels: one array per
    `(name, *shape)` key, made on first use and reused by every later
    call, so an untaped kernel allocates almost nothing.

    No pooled array escapes the call that wrote it.  What a kernel
    returns, and every array a backward map captures, is freshly
    allocated (see `FRESH`), so no later call of any shape can change a
    result or a recorded map.  One pool serves the process, and kernels
    run one at a time.
    """

    def __missing__(self, key):
        buf = self[key] = np.empty(key[1:])
        return buf


class _Fresh(dict):
    """`SCRATCH`'s interface, giving None for every key: passed as `out`,
    it makes the ufunc or kernel allocate a fresh array.  Kernels take
    what a backward map will capture from here."""

    def __missing__(self, key):
        return None


SCRATCH = ScratchPool()
FRESH = _Fresh()


def norm_rows(x, xhat=None, inv=None):
    """Layer normalization of each row of the matrix `x`, with no affine
    map.

    Writes and returns (xhat, inv): the normalized rows and the (rows, 1)
    inverse standard deviations, which `norm_rows_backward` needs.  Both
    are fresh arrays unless given.
    """
    rows, d = x.shape
    xhat = np.empty((rows, d)) if xhat is None else xhat
    inv = np.empty((rows, 1)) if inv is None else inv
    width = scalar(d)
    # a reduction into a 1-D `out` dispatches faster than with keepdims
    col = inv[:, 0]
    np.divide(np.add.reduce(x, 1, None, col), width, col)
    np.subtract(x, inv, xhat)
    squares = np.multiply(xhat, xhat, SCRATCH["norm.sq", rows, d])
    np.divide(np.add.reduce(squares, 1, None, col), width, col)
    np.add(col, LAYER_NORM_EPS, col)
    np.divide(ONE, np.sqrt(col, col), col)
    np.multiply(xhat, inv, xhat)
    return xhat, inv


def norm_rows_backward(dy, xhat, inv, out=None):
    """Gradient into the rows `norm_rows` normalized, for upstream `dy`:
    inv * ((dy - mean(dy)) - xhat * mean(dy * xhat)), written into `out`
    (which may be `dy`) or a fresh array."""
    rows, d = xhat.shape
    width = scalar(d)
    mean_dy = SCRATCH["norm.a", rows, 1]
    col = mean_dy[:, 0]
    np.divide(np.add.reduce(dy, 1, None, col), width, col)
    prod = np.multiply(dy, xhat, SCRATCH["norm.p", rows, d])
    proj = SCRATCH["norm.b", rows, 1]
    col = proj[:, 0]
    np.divide(np.add.reduce(prod, 1, None, col), width, col)
    np.multiply(xhat, proj, prod)
    out = np.subtract(dy, mean_dy, out)
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
