"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps one ndarray plus the tape bookkeeping needed to pull
gradients back through whatever graph the forward pass built. Everything
is float64 by contract: it keeps finite-difference checks tight.

A tape node has one form: its parents, a list in which a tensor may
appear more than once, and one backward closure that maps the node's
gradient to one contribution per parent, in list order, None for none.
The backward pass calls each node's closure once and adds the i-th
contribution into the i-th parent, skipping parents that need no
gradient. An op with several gradient terms into one input (rmsnorm's
x) lists that input once per term, in the order the terms are added.

A backward pass consumes its graph: once the gradients are in, every
node it walked drops its parents and its closure, and with them the
arrays the closure saved. A tensor kept after the step (a loss, a
trace's P) then pins only its own data, so a training step holds one
tape, not two. A later backward that reaches a consumed node raises
InvariantViolation instead of leaving every leaf's gradient silently
stale.

Determinism contract: all ops are plain numpy calls with a fixed
reduction order, so repeated runs with identical inputs produce bitwise
identical results on one machine.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import special as _special

from .errors import InvariantViolation, NumericalError

Array = np.ndarray
# a node's backward: its gradient -> one contribution per parent, or None
Backward = Callable[[Array], Sequence["Array | None"]]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad: bool = requires_grad and _GRAD_ENABLED
        # the node's parents and backward (see _make); both None once a
        # backward pass has consumed this node
        self._parents: list[Tensor] | None = []
        self._backward: Backward | None = None

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __pow__(self, exponent: float):
        return power(self, exponent)

    # -- backward -----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf,
        then release the graph: every node walked that has parents drops
        them and its backward. Leaves keep their gradients and stay usable
        in new graphs; a backward that reaches a released node raises
        InvariantViolation.
        """
        if self.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise InvariantViolation(
                    "backward through a graph that an earlier backward consumed")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.grad is None or node._backward is None:
                continue
            # zip holds the contributions only while they are added
            for parent, contrib in zip(node._parents, node._backward(node.grad),
                                       strict=True):
                if contrib is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = first_grad(contrib, parent.data)
                else:
                    parent.grad += contrib
        for node in topo:
            if node._parents:
                node._parents = node._backward = None


def first_grad(contrib: Array, like: Array) -> Array:
    """zeros_like(like) + contrib without the zero fill: a new array with
    np.empty_like(like)'s memory layout and every -0.0 turned into +0.0.

    Both matter for bitwise results: BLAS rounds differently on different
    strides (a swapaxes view's gradient keeps the view's layout), and the
    sign of a zero survives into artifacts. `contrib + 0.0` would keep
    contrib's strides.
    """
    return np.add(contrib, 0.0, out=np.empty_like(like))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: Array, parents: Sequence[Tensor], backward: Backward) -> Tensor:
    """The one way to put a node on the tape: a tensor over data whose
    backward(g) returns one contribution per entry of parents, in order,
    None where it gives none. A parent listed k times takes its k
    contributions in list order. The node is built only when the tape is
    on and some parent requires a gradient; the backward pass adds nothing
    into a parent that does not."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = list(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, [a, b], lambda g: [
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, [a, b], lambda g: [
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, [a, b], lambda g: [
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)])


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data / b.data, [a, b], lambda g: [
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape)])


def power(a: Tensor, exponent: float) -> Tensor:
    out = a.data ** exponent
    return _make(out, [a], lambda g: [g * exponent * a.data ** (exponent - 1.0)])


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, [a], lambda g: [g * out])


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), [a], lambda g: [g / a.data])


def normal_cdf(x: Array) -> Array:
    """0.5 * (1 + erf(x / sqrt(2))), computed in place in one buffer.

    erf runs on |x| / sqrt(2) and x's sign is copied back onto it. scipy's
    erf returns -erf(-x) for x < 0, so this is bitwise equal, and erf's
    loop no longer takes a branch on a sign it cannot predict (about twice
    as fast per element on mixed-sign input).
    """
    out = np.asarray(np.abs(x))   # a 0-d input gives a 0-d array
    out /= np.sqrt(2.0)
    _special.erf(out, out=out)
    np.copysign(out, x, out=out)
    out += 1.0
    out *= 0.5
    return out


def normal_pdf(x: Array) -> Array:
    """exp(-0.5 * x * x) / sqrt(2 pi), computed in place in one buffer."""
    out = np.asarray(-0.5 * x)
    out *= x
    np.exp(out, out=out)
    out /= np.sqrt(2.0 * np.pi)
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x).

    The pdf is needed only by the gradient, so a no-grad forward skips it.
    """
    x = a.data
    cdf = normal_cdf(x)
    return _make(x * cdf, [a], lambda g: [g * (cdf + x * normal_pdf(x))])


# -- shape ops ----------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return _make(a.data.reshape(shape), [a], lambda g: [g.reshape(old)])


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    return _make(a.data.swapaxes(ax1, ax2), [a], lambda g: [g.swapaxes(ax1, ax2)])


# -- reductions ---------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: Array) -> list[Array]:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return [np.broadcast_to(g, a.shape).copy()]

    return _make(out, [a], backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        count = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _wrap(1.0 / count))


# -- matmul -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out = a.data @ b.data

    def backward(g: Array) -> list[Array | None]:
        # no product for an operand that needs no gradient (a frozen head.w)
        g_a = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape) if a.requires_grad else None
        g_b = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape) if b.requires_grad else None
        return [g_a, g_b]

    return _make(out, [a, b], backward)


# -- softmax family -----------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    return _make(s, [a], lambda g: [s * (g - (g * s).sum(axis=axis, keepdims=True))])


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    return _make(out, [a], lambda g: [g - np.exp(out) * g.sum(axis=axis, keepdims=True)])


# -- indexing -----------------------------------------------------------------


def gather_rows(a: Tensor, idx: Array) -> Tensor:
    """Select rows of `a` along axis 0; backward scatter-adds."""
    idx = np.asarray(idx)
    out = a.data[idx]

    def backward(g: Array) -> list[Array]:
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        return [acc]

    return _make(out, [a], backward)


def take_along_last(a: Tensor, idx: Array) -> Tensor:
    """Differentiable take_along_axis on the final axis."""
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx, axis=-1)

    def backward(g: Array) -> list[Array]:
        acc = np.zeros_like(a.data)
        grids = np.meshgrid(*[np.arange(n) for n in idx.shape], indexing="ij")
        index = tuple(grids[:-1]) + (idx,)
        np.add.at(acc, index, g)
        return [acc]

    return _make(out, [a], backward)


def gather_pairs(a: Tensor, rows: Array, cols: Array) -> Tensor:
    """Pick a[rows[i], cols[i]] as a 1-D tensor."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = a.data[rows, cols]

    def backward(g: Array) -> list[Array]:
        acc = np.zeros_like(a.data)
        np.add.at(acc, (rows, cols), g)
        return [acc]

    return _make(out, [a], backward)


def index_add_rows(a: Tensor, idx: Array, b: Tensor) -> Tensor:
    """out = a with b's rows added at positions idx (duplicates accumulate)."""
    idx = np.asarray(idx)
    out = a.data.copy()
    np.add.at(out, idx, b.data)
    return _make(out, [a, b], lambda g: [g, g[idx]])


# -- checks -------------------------------------------------------------------


def check_finite(t: Tensor, context: str) -> Tensor:
    """Raise NumericalError when the tensor holds NaN or Inf."""
    if not np.isfinite(t.data).all():
        raise NumericalError(f"non-finite values in {context}")
    return t
