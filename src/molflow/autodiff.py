"""Reverse-mode automatic differentiation on dense float64 tensors.

A ``Tensor`` wraps a numpy array and records the operation that produced it,
so the set of live tensors forms an implicit acyclic tape. Calling
``backward`` on a scalar output walks the tape in reverse topological order
and accumulates gradients into every reachable node. Leaves are tensors
created directly from data.

The same math functions (``sigmoid``, ``matmul``, ...) accept plain numpy
arrays and return numpy arrays, which gives model code a single
implementation for both the traced training path and the untraced fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

Array = np.ndarray


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` over the axes that numpy broadcasting introduced."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the differentiation tape.

    ``data`` is always a float64 numpy array and is treated as immutable.
    ``parents`` and ``_backward`` are the tape record; a tensor without
    parents is a leaf.
    """

    __slots__ = ("data", "grad", "parents", "_backward", "op")

    # make numpy defer mixed expressions to the reflected operators below
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data, parents=(), backward=None, op="leaf"):
        self.data = _as_f64(data)
        self.grad: Array | None = None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self._backward = backward
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not a tape primitive")
        return mul(self, 1.0 / float(other))

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into ``grad`` for every reachable node.

        ``self`` must be scalar (size 1) and every node must already hold an
        evaluated value, which the eager tape guarantees by construction.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar output, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def backward(output: Tensor, leaves: list[Tensor]) -> list[Array]:
    """Gradient of a scalar `output` for each requested leaf.

    Leaves that do not reach `output` get a zero gradient of their own shape.
    """
    output.backward()
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data) for leaf in leaves]


def traced(params):
    """A copy of the parameter tree `params` whose arrays are Tensor leaves,
    plus those leaves in field order.

    The walk descends into dataclass fields and list items and keeps every
    other value as it is. Each leaf wraps its array without copying it, so
    ``leaf.data`` is the parameter array itself.
    """
    leaves: list[Tensor] = []

    def walk(x):
        if isinstance(x, np.ndarray):
            leaves.append(Tensor(x))
            return leaves[-1]
        if isinstance(x, list):
            return [walk(v) for v in x]
        if is_dataclass(x) and not isinstance(x, type):
            return replace(x, **{f.name: walk(getattr(x, f.name)) for f in fields(x)})
        return x

    return walk(params), leaves


def _accumulate(node: Tensor, grad: Array) -> None:
    if node.grad is None:
        node.grad = grad.copy()
    else:
        node.grad = node.grad + grad


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _is_traced(*xs) -> bool:
    return any(isinstance(x, Tensor) for x in xs)


# ---------------------------------------------------------------------------
# primitives; each works on Tensors (traced) or plain arrays (untraced)
# ---------------------------------------------------------------------------


def add(a, b):
    if not _is_traced(a, b):
        return _as_f64(a) + _as_f64(b)
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data + b.data, (a, b), op="add")

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    out._backward = bwd
    return out


def sub(a, b):
    if not _is_traced(a, b):
        return _as_f64(a) - _as_f64(b)
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data - b.data, (a, b), op="sub")

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    out._backward = bwd
    return out


def mul(a, b):
    if not _is_traced(a, b):
        return _as_f64(a) * _as_f64(b)
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data * b.data, (a, b), op="mul")

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = bwd
    return out


def matmul(a, b):
    """Matrix product with optional stacked leading axes (numpy semantics)."""
    if not _is_traced(a, b):
        return _as_f64(a) @ _as_f64(b)
    a, b = _lift(a), _lift(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    out = Tensor(a.data @ b.data, (a, b), op="matmul")

    def bwd(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    out._backward = bwd
    return out


def _sigmoid_np(x: Array) -> Array:
    # piecewise form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    if not _is_traced(x):
        return _sigmoid_np(_as_f64(x))
    y = _sigmoid_np(x.data)
    out = Tensor(y, (x,), op="sigmoid")
    out._backward = lambda g: _accumulate(x, g * y * (1.0 - y))
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) computed stably for large |x|."""

    def stable(v: Array) -> Array:
        return np.minimum(v, 0.0) - np.log1p(np.exp(-np.abs(v)))

    if not _is_traced(x):
        return stable(_as_f64(x))
    out = Tensor(stable(x.data), (x,), op="log_sigmoid")
    out._backward = lambda g: _accumulate(x, g * _sigmoid_np(-x.data))
    return out


def tanh(x):
    if not _is_traced(x):
        return np.tanh(_as_f64(x))
    y = np.tanh(x.data)
    out = Tensor(y, (x,), op="tanh")
    out._backward = lambda g: _accumulate(x, g * (1.0 - y * y))
    return out


def sqrt(x):
    if not _is_traced(x):
        return np.sqrt(_as_f64(x))
    y = np.sqrt(x.data)
    out = Tensor(y, (x,), op="sqrt")
    out._backward = lambda g: _accumulate(x, g * 0.5 / y)
    return out


def tsum(x, axis=None, keepdims=False):
    if not _is_traced(x):
        return _as_f64(x).sum(axis=axis, keepdims=keepdims)
    y = x.data.sum(axis=axis, keepdims=keepdims)
    out = Tensor(y, (x,), op="sum")

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g.reshape((1,) * x.data.ndim), x.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    out._backward = bwd
    return out


def reshape(x, shape):
    if not _is_traced(x):
        return _as_f64(x).reshape(shape)
    old = x.data.shape
    out = Tensor(x.data.reshape(shape), (x,), op="reshape")
    out._backward = lambda g: _accumulate(x, g.reshape(old))
    return out


def gather(x, indices, axis):
    """Select `indices` along `axis` (the tape's slice primitive)."""
    idx = list(indices)
    if not _is_traced(x):
        return np.take(_as_f64(x), idx, axis=axis)
    out = Tensor(np.take(x.data, idx, axis=axis), (x,), op="gather")

    def bwd(g):
        full = np.zeros_like(x.data)
        moved = np.moveaxis(full, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        _accumulate(x, full)

    out._backward = bwd
    return out


def concat(xs, axis=0):
    if not _is_traced(*xs):
        return np.concatenate([_as_f64(x) for x in xs], axis=axis)
    xs = [_lift(x) for x in xs]
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis), tuple(xs), op="concat")
    sizes = [x.data.shape[axis] for x in xs]

    def bwd(g):
        start = 0
        for x, n in zip(xs, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + n)
            _accumulate(x, g[tuple(sl)])
            start += n

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def gradient_check(f, point: Array, eps: float = 1e-6) -> float:
    """Max relative error between tape and central-difference gradients.

    `f` maps one Tensor to a scalar Tensor. The error at coordinate i is
    |analytic_i - numeric_i| / max(1, |analytic_i|) and the maximum over
    coordinates is returned.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    point = _as_f64(point)
    leaf = Tensor(point)
    (analytic,) = backward(f(leaf), [leaf])

    numeric = np.zeros_like(point)
    flat = point.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = f(Tensor((flat + bump).reshape(point.shape))).item()
        lo = f(Tensor((flat - bump).reshape(point.shape))).item()
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("non-finite function value near point")
        num_flat[i] = (hi - lo) / (2.0 * eps)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max()) if err.size else 0.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for a parameter list."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Array], lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params: list[Array], grads: list[Array], state: AdamState) -> list[Array]:
    """One Adam update; mutates `state`, returns new parameter arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    if state.lr < 0.0:
        raise ValueError("step size must be non-negative")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
    state.step += 1
    t = state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        mhat = state.m[i] / (1.0 - state.beta1**t)
        vhat = state.v[i] / (1.0 - state.beta2**t)
        out.append(p - state.lr * mhat / (np.sqrt(vhat) + state.eps))
    return out


# ---------------------------------------------------------------------------
# seeded RNG
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash; the project-wide documented hash function."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class SeededRng:
    """Deterministic random stream backed by the Philox counter-based generator.

    Identical seeds produce identical streams on every platform. ``spawn``
    derives an independent child stream from a string tag, so one config seed
    can drive every random choice in a run reproducibly.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def spawn(self, tag: str) -> "SeededRng":
        return SeededRng(fnv1a_64(self.seed.to_bytes(8, "little") + tag.encode("utf-8")))

    def normal(self, shape=(), scale: float = 1.0) -> Array:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=()) -> Array:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> Array:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def random(self) -> float:
        return float(self._gen.uniform(0.0, 1.0))

    def choice_index(self, weights: Array) -> int:
        """Categorical draw proportional to non-negative `weights`."""
        w = _as_f64(weights)
        total = w.sum()
        if total <= 0.0:
            raise ValueError("weights must have positive sum")
        r = self.random() * total
        acc = 0.0
        for i, wi in enumerate(w):
            acc += wi
            if r < acc:
                return i
        return len(w) - 1
