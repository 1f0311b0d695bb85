"""Reverse-mode automatic differentiation on dense float64 tensors.

A ``Tensor`` wraps a numpy array and records the operation that produced it,
so the set of live tensors forms an implicit acyclic tape. Calling
``backward`` on a scalar output walks the tape in reverse topological order
and accumulates gradients into every reachable node. Leaves are tensors
created directly from data.

The same math functions (``matmul``, ``mlp``, ...) accept plain numpy
arrays and return numpy arrays, which gives model code a single
implementation for both the traced training path and the untraced fast path.
An operation with two outputs, such as a flow coupling layer's latent and
log-determinant, is one node of the tape through ``two_outputs``.
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
    # No backward writes into a gradient array in place, so the first one
    # is stored as it comes; it may be shared with other nodes or be a view.
    if node.grad is None:
        node.grad = grad
    else:
        node.grad = node.grad + grad


def _is_traced(*xs) -> bool:
    return any(isinstance(x, Tensor) for x in xs)


def _data(x) -> Array:
    return x.data if isinstance(x, Tensor) else _as_f64(x)


def _binary(a, b, y: Array, op: str, grad_a, grad_b) -> Tensor:
    """A tape node for `y` = a op b. Only operands that are Tensors are
    parents, and only their gradients (``grad_a(g)``, ``grad_b(g)``) are
    computed: a constant operand gets none."""
    out = Tensor(y, tuple(x for x in (a, b) if isinstance(x, Tensor)), op=op)

    def bwd(g):
        if isinstance(a, Tensor):
            _accumulate(a, grad_a(g))
        if isinstance(b, Tensor):
            _accumulate(b, grad_b(g))

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# primitives; each works on Tensors (traced) or plain arrays (untraced)
# ---------------------------------------------------------------------------


def add(a, b):
    if not _is_traced(a, b):
        return _as_f64(a) + _as_f64(b)
    da, db = _data(a), _data(b)
    return _binary(a, b, da + db, "add",
                   lambda g: _unbroadcast(g, da.shape), lambda g: _unbroadcast(g, db.shape))


def sub(a, b):
    if not _is_traced(a, b):
        return _as_f64(a) - _as_f64(b)
    da, db = _data(a), _data(b)
    return _binary(a, b, da - db, "sub",
                   lambda g: _unbroadcast(g, da.shape), lambda g: _unbroadcast(-g, db.shape))


def mul(a, b):
    if not _is_traced(a, b):
        return _as_f64(a) * _as_f64(b)
    da, db = _data(a), _data(b)
    return _binary(a, b, da * db, "mul",
                   lambda g: _unbroadcast(g * db, da.shape),
                   lambda g: _unbroadcast(g * da, db.shape))


def matmul(a, b):
    """Matrix product with optional stacked leading axes (numpy semantics)."""
    if not _is_traced(a, b):
        return _as_f64(a) @ _as_f64(b)
    da, db = _data(a), _data(b)
    if da.ndim < 2 or db.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    return _binary(a, b, da @ db, "matmul",
                   lambda g: _unbroadcast(g @ np.swapaxes(db, -1, -2), da.shape),
                   lambda g: _unbroadcast(np.swapaxes(da, -1, -2) @ g, db.shape))


def take_rows(x, rows: Array, onehot: Array):
    """``onehot @ x`` for a constant 0/1 matrix with one 1 per row, at
    column ``rows[k]`` of row k: the forward takes x's rows by index, which
    gives the product's values bit for bit (x finite, no -0.0) at a
    fraction of its cost. The backward keeps the product ``onehot.T @ g``:
    a segment sum by ``np.add.at`` adds a repeated row's gradients in
    another order than BLAS does and can move their last bits."""
    if not _is_traced(x):
        return np.take(_as_f64(x), rows, axis=0)
    out = Tensor(np.take(x.data, rows, axis=0), (x,), op="take_rows")
    out._backward = lambda g: _accumulate(x, onehot.T @ g)
    return out


def mlp_forward(x: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> tuple[Array, Array]:
    """The hidden layer tanh(x @ w1 + b1) and the output hidden @ w2 + b2,
    on arrays; `x` may carry stacked leading axes."""
    # numpy's stacked matmul on the un-flattened x keeps the bits of the
    # separate matmul, add and tanh nodes
    h = x @ w1
    h += b1
    np.tanh(h, out=h)
    y = h @ w2
    y += b2
    return h, y


def mlp_backward(g: Array, x: Array, h: Array, w1: Array, w2: Array,
                 want, x_rows=(slice(None),)) -> list:
    """The gradients of ``mlp``'s arguments (x, w1, b1, w2, b2) for the
    output gradient `g`, given the input `x` and the hidden layer `h`; each
    is computed where `want` is true and None elsewhere. The input gradient
    is a list with one ``gh @ w1[rows].T`` per ``w1`` row range in `x_rows`
    (None for None): the gradients of the parts of an input joined along
    its last axis, by default one part."""
    g2 = g.reshape(-1, g.shape[-1])
    h2 = h.reshape(-1, h.shape[-1])
    gh = g2 @ w2.T
    gh *= 1.0 - h2 * h2
    lead = x.shape[:-1]
    return [[None if r is None else (gh @ w1[r].T).reshape(lead + (-1,)) for r in x_rows]
            if want[0] else None,
            x.reshape(-1, x.shape[-1]).T @ gh if want[1] else None,
            gh.sum(axis=0) if want[2] else None,
            h2.T @ g2 if want[3] else None,
            g2.sum(axis=0) if want[4] else None]


def mlp(x, w1, b1, w2, b2):
    """tanh(x @ w1 + b1) @ w2 + b2 as one tape node; `x` may carry stacked
    leading axes, the weights are 2-D and the biases 1-D.

    `x` may also be a list of parts, joined along the last axis once for
    the forward. The backward then computes the input gradient only over
    the ``w1`` rows of the parts that are Tensors: a constant part costs
    its share of ``x @ w1`` but no ``gh @ w1.T`` columns."""
    parts = x if isinstance(x, list) else [x]
    weights = (w1, b1, w2, b2)
    datas = [_data(p) for p in parts]
    xd = datas[0] if len(datas) == 1 else np.concatenate(datas, axis=-1)
    w1d, b1d, w2d, b2d = (_data(a) for a in weights)
    h, y = mlp_forward(xd, w1d, b1d, w2d, b2d)
    if not _is_traced(*parts, *weights):
        return y
    out = Tensor(y, tuple(a for a in (*parts, *weights) if isinstance(a, Tensor)), op="mlp")
    want = [_is_traced(*parts)] + [isinstance(a, Tensor) for a in weights]
    x_rows, start = [], 0
    for p, d in zip(parts, datas):
        x_rows.append(slice(start, start + d.shape[-1]) if isinstance(p, Tensor) else None)
        start += d.shape[-1]

    def bwd(g):
        g_x, *g_weights = mlp_backward(g, xd, h, w1d, w2d, want, x_rows)
        for a, ga in zip((*parts, *weights), (*(g_x or [None] * len(parts)), *g_weights)):
            if ga is not None:
                _accumulate(a, ga)

    out._backward = bwd
    return out


def sqrt(x):
    if not _is_traced(x):
        return np.sqrt(_as_f64(x))
    y = np.sqrt(x.data)
    out = Tensor(y, (x,), op="sqrt")
    out._backward = lambda g: _accumulate(x, g * 0.5 / y)
    return out


def tsum(x, axis=None):
    if not _is_traced(x):
        return _as_f64(x).sum(axis=axis)
    y = x.data.sum(axis=axis)
    out = Tensor(y, (x,), op="sum")

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g.reshape((1,) * x.data.ndim), x.data.shape).copy())
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    out._backward = bwd
    return out


def reshape(x, shape):
    if not _is_traced(x):
        return _as_f64(x).reshape(shape)
    old = x.data.shape
    out = Tensor(x.data.reshape(shape), (x,), op="reshape")
    out._backward = lambda g: _accumulate(x, g.reshape(old))
    return out


def two_outputs(args, ya: Array, yb: Array, backward, op: str) -> tuple[Tensor, Tensor]:
    """`ya` and `yb`, the two outputs of one operation on `args`, as tape
    nodes. ``backward(ga, gb)`` returns one gradient (or None) per arg and
    runs once, after both output gradients are final; an output the loss
    does not reach gets zeros. Only Tensor args receive their gradient."""
    joint = Tensor(np.empty(0), tuple(a for a in args if isinstance(a, Tensor)), op=op)
    # The joint node's grad is the pair of output gradients. Tensor.backward
    # clears it before each pass and runs the joint node after its outputs.
    outs = (Tensor(ya, (joint,), op=op), Tensor(yb, (joint,), op=op))

    def arrive(i):
        def bwd(g):
            if joint.grad is None:
                joint.grad = [None, None]
            joint.grad[i] = g
        return bwd

    def joint_bwd(pair):
        grads = backward(*(np.zeros_like(y) if g is None else g for g, y in zip(pair, (ya, yb))))
        for a, ga in zip(args, grads):
            if isinstance(a, Tensor) and ga is not None:
                _accumulate(a, ga)

    outs[0]._backward, outs[1]._backward = arrive(0), arrive(1)
    joint._backward = joint_bwd
    return outs


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
    def for_params(cls, params: list[Array], lr: float = 1e-3) -> "AdamState":
        return cls(lr=lr, m=[np.zeros_like(p) for p in params],
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
