"""Dense float64 tensors with tape-based reverse-mode differentiation.

The generic ops are the ones the prompted forward pass composes around
its fused transformer layer: matrix products, transposition, row slicing
and concatenation to assemble token sequences, layer normalization, and
cross entropy.  A central finite-difference oracle (`finite_diff_grad`)
provides the independent gradient check used throughout the test suite.

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


def _result(data, *parents) -> Tensor:
    # outside a tape nothing records, so results are constants; this keeps
    # evaluation passes free of gradient-slot allocations
    requires = active_tape() is not None and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects rank-2 operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
        )
    out = _result(a.data @ b.data, a, b)

    def backward():
        if a.requires_grad:
            a.grad += out.grad @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ out.grad

    record(out, backward)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose expects a rank-2 operand")
    out = _result(a.data.T, a)

    def backward():
        if a.requires_grad:
            a.grad += out.grad.T

    record(out, backward)
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    out = _result(a.data[start:stop], a)

    def backward():
        if a.requires_grad:
            a.grad[start:stop] += out.grad

    record(out, backward)
    return out


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    out = _result(np.concatenate([p.data for p in parts], axis=0), *parts)

    def backward():
        lo = 0
        for part in parts:
            hi = lo + part.data.shape[0]
            if part.requires_grad:
                part.grad += out.grad[lo:hi]
            lo = hi

    record(out, backward)
    return out


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then apply affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("gain/bias must match the last extent of x")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mean) * inv
    out = _result(xhat * gain.data + bias.data, x, gain, bias)

    def backward():
        g = out.grad
        if x.requires_grad:
            gx = g * gain.data
            x.grad += inv * (
                gx
                - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            )
        if gain.requires_grad:
            gain.grad += (g * xhat).reshape(-1, d).sum(axis=0)
        if bias.requires_grad:
            bias.grad += g.reshape(-1, d).sum(axis=0)

    record(out, backward)
    return out


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log softmax probability of `label`, computed in log space."""
    flat = logits.data.reshape(-1)
    n = flat.shape[0]
    label = int(label)
    if not 0 <= label < n:
        raise IndexError(f"label {label} out of range for {n} classes")
    m = flat.max()
    lse = m + np.log(np.exp(flat - m).sum())
    out = _result(np.asarray(lse - flat[label]), logits)

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
