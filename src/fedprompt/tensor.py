"""Trainable blocks and the tape that threads one gradient back to them.

The prompted forward pass is a fixed chain of fused primitives over plain
arrays (see `model.py`).  Under a tape each primitive records one
backward map: it takes the gradient of the primitive's output, adds into
any trainable block the primitive read, and returns the gradient of its
input.  `Tape.backward` seeds 1.0 and passes the gradient through the
maps in reverse order of recording.  A `Tensor` is only a trainable
block: its array and the gradient the maps add into.  This module also
holds the layer-normalization kernels, cross entropy, and a central
finite-difference oracle (`finite_diff_grad`), the independent gradient
check used throughout the test suite.
"""

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


LAYER_NORM_EPS = 1e-5


def norm_rows(x):
    """Layer normalization of each row, with no affine map.

    Returns (xhat, inv): the normalized rows and the inverse standard
    deviations, which `norm_rows_backward` needs.
    """
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    centered *= inv
    return centered, inv


def norm_rows_backward(dy, xhat, inv):
    """Gradient into the rows `norm_rows` normalized, for upstream `dy`."""
    d = xhat.shape[-1]
    return inv * (
        dy
        - np.add.reduce(dy, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dy * xhat, axis=-1, keepdims=True) / d)
    )


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
