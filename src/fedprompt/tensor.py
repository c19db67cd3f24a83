"""Dense float64 tensors with tape-based reverse-mode differentiation.

The prompted forward pass is a chain of fused primitives with
hand-derived backward rules (see `model.py`), which record their
closures through `record`.  This module holds what they share: the
tensor and tape, the layer-normalization kernels, and cross entropy.  A
central finite-difference oracle (`finite_diff_grad`) provides the
independent gradient check used throughout the test suite.

Tapes are single-use and rebuilt on every forward pass: ops record their
backward closure onto the innermost active tape (if any), and
`Tape.backward` replays the closures in reverse order of creation, which
is a valid reverse topological order because operands always exist
before their results.
"""

import math

import numpy as np

_MAX_RANK = 3
_TAPES = []


def active_tape():
    """Innermost active tape, or None outside `with Tape()`."""
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Ordered record of backward closures for one forward pass."""

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

    def record(self, backward_fn):
        self._ops.append(backward_fn)

    def backward(self, loss):
        """Seed d(loss)/d(loss) = 1 and accumulate into every recorded grad."""
        if self._used:
            raise RuntimeError("tape already consumed; tapes are single-use")
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        self._used = True
        if loss.requires_grad:
            loss.grad[...] = 1.0
        for fn in reversed(self._ops):
            fn()


class Tensor:
    """Immutable dense array (rank <= 3) with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > _MAX_RANK:
            raise ValueError(f"rank {arr.ndim} exceeds maximum {_MAX_RANK}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def record(out: Tensor, backward_fn) -> None:
    """Attach a backward closure to the active tape, if recording applies.

    Exposed so other modules can define custom differentiable primitives
    with hand-derived backward rules.
    """
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(backward_fn)


LAYER_NORM_EPS = 1e-5


def norm_rows(x, gain, bias):
    """Layer normalization of each row, then the affine map.

    Returns (output, xhat, inv): the normalized rows and the inverse
    standard deviations, which `norm_rows_backward` needs.
    """
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def norm_rows_backward(dy, xhat, inv, gain):
    """Gradient into the rows `norm_rows` normalized, for upstream `dy`."""
    d = xhat.shape[-1]
    gx = dy * gain
    return inv * (
        gx
        - np.add.reduce(gx, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d)
    )


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log softmax probability of `label`, computed in log space."""
    flat = logits.data.reshape(-1)
    n = flat.shape[0]
    label = int(label)
    if not 0 <= label < n:
        raise IndexError(f"label {label} out of range for {n} classes")
    m = flat.max()
    lse = m + np.log(np.exp(flat - m).sum())
    # outside a tape nothing records, so the result is a constant
    out = Tensor(np.asarray(lse - flat[label]),
                 requires_grad=active_tape() is not None and logits.requires_grad)

    def backward():
        if logits.requires_grad:
            p = np.exp(flat - lse)
            p[label] -= 1.0
            logits.grad += (out.grad * p).reshape(logits.data.shape)

    record(out, backward)
    return out


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
