"""Reverse-mode automatic differentiation on dense float64 tensors.

A ``Tensor`` wraps a numpy array and records the operation that produced it,
so the set of live tensors forms an implicit acyclic tape. Calling
``backward`` on a scalar output walks the tape in reverse topological order
and accumulates gradients into every reachable node. Leaves are tensors
created directly from data.

Each model function is plain numpy: it returns its value together with a
``backward`` closure that maps the value's gradient to the gradients of its
parameter arrays, written by hand. ``flow.fit_step`` records a whole loss
as one ``node`` over one leaf per parameter array, so a training step
walks a tape of one node. The generic broadcasting operations (``add``,
``matmul``, ``tsum``, ...), ``Tensor``'s arithmetic operators and an
adapter from a model function to tape nodes live in ``tests/oracles.py``,
composed into the tape that every hand-written backward is checked
against bit for bit.

Adam keeps each model's parameters in one float64 vector: ``AdamState``
copies the arrays into ``flat`` and the model's fields become views into
it, so ``adam_step`` updates every parameter in place, in cache-sized
chunks, with one finiteness check per step. It equals the per-array
update in ``tests/oracles.py`` bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial

import numpy as np

Array = np.ndarray


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """One node of the differentiation tape.

    ``data`` is always a float64 numpy array and is treated as immutable.
    ``parents`` and ``_backward`` are the tape record; a tensor without
    parents is a leaf.
    """

    __slots__ = ("data", "grad", "parents", "_backward", "op")

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


def rebind(params, arrays: list[Array]) -> None:
    """Set the arrays of the parameter tree `params`, walked in field order
    through dataclass fields and list items, to `arrays`, in place."""
    _rebind(params, iter(arrays))


def _rebind(x, arrays) -> None:
    if isinstance(x, list):
        slots, put = list(enumerate(x)), x.__setitem__
    elif is_dataclass(x) and not isinstance(x, type):
        slots, put = [(f.name, getattr(x, f.name)) for f in fields(x)], partial(setattr, x)
    else:
        return
    for key, value in slots:
        if isinstance(value, np.ndarray):
            put(key, next(arrays))
        else:
            _rebind(value, arrays)


def _accumulate(node: Tensor, grad: Array) -> None:
    # No backward writes into a gradient array in place, so the first one
    # is stored as it comes; it may be shared with other nodes or be a view.
    if node.grad is None:
        node.grad = grad
    else:
        node.grad = node.grad + grad


def node(args: list[Tensor], value, backward, op: str) -> Tensor:
    """`value`, the output of one operation on the Tensors `args`, as one
    tape node. ``backward(g)`` maps the output's gradient to one gradient
    per arg, each of its arg's shape; any other count or shape raises
    ValueError, so no arg is left to the zero fill of the module's
    ``backward``."""
    out = Tensor(value, args, op=op)

    def bwd(g):
        grads = backward(g)
        shapes = [getattr(ga, "shape", None) for ga in grads]
        if shapes != [a.shape for a in args]:
            raise ValueError(f"{op}: backward gave gradients of shapes {shapes} for inputs of "
                             f"shapes {[a.shape for a in args]}")
        for a, ga in zip(args, grads):
            _accumulate(a, ga)

    out._backward = bwd
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
    """The gradients of ``mlp_forward``'s arguments (x, w1, b1, w2, b2) for
    the output gradient `g`, given the input `x` and the hidden layer `h`;
    each is computed where `want` is true and None elsewhere. The input
    gradient is a list with one ``gh @ w1[rows].T`` per ``w1`` row range in
    `x_rows` (None for None): the gradients of the parts of an input joined
    along its last axis, by default one part."""
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


# ---------------------------------------------------------------------------
# Adam over one flat parameter vector
# ---------------------------------------------------------------------------

# elements per pass of the in-place update: a chunk's slices of the
# parameters, both moments, the gradient, the rates and the two scratch rows
# stay in cache between the elementwise operations
ADAM_CHUNK = 1 << 14


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state over one float64
    vector of parameters.

    ``flat`` holds every parameter array, in order; ``offsets[i]`` is where
    array i starts and ``views[i]`` is that array, a view into ``flat`` in
    its shape ``shapes[i]``. ``m`` and ``v`` are flat like ``flat``. With
    ``rates`` (one per element) each element moves by its rate times Adam's
    step; with None by the step itself. ``grad`` is the last flat gradient
    a training step stored, or None.
    """

    flat: Array
    shapes: list[tuple[int, ...]]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    rates: Array | None = None
    grad: Array | None = None
    offsets: list[int] = field(init=False)
    views: list[Array] = field(init=False)
    m: Array = field(init=False)
    v: Array = field(init=False)
    scratch: Array = field(init=False)

    def __post_init__(self):
        sizes = [math.prod(shape) for shape in self.shapes]
        self.offsets = list(itertools.accumulate(sizes[:-1], initial=0))
        self.views = self.split(self.flat)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.scratch = np.empty((2, min(ADAM_CHUNK, self.flat.size)))

    @classmethod
    def over(cls, arrays: list[Array], lr: float = 1e-3, rates=None) -> "AdamState":
        """State for a copy of `arrays` joined into one vector; callers read
        and write the parameters through ``views``. `rates` gives one rate
        per array, or None."""
        flat = np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays])
        if rates is not None:
            rates = np.repeat(np.asarray(rates, dtype=np.float64), [a.size for a in arrays])
        return cls(flat, [a.shape for a in arrays], lr=lr, rates=rates)

    def split(self, vector: Array) -> list[Array]:
        """`vector`, flat like ``flat``, as one view per parameter array."""
        return [vector[o:o + math.prod(shape)].reshape(shape)
                for o, shape in zip(self.offsets, self.shapes)]


def adam_step(grad: Array, state: AdamState, scale: float = 1.0) -> None:
    """One Adam update of ``state.flat``, in place, for the flat gradient
    `grad` times `scale`; `grad` is scaled in place. A non-finite gradient
    or a negative step size raises ValueError with nothing changed.

    Every element goes through the per-array update's operations in its
    order (g * scale, b1 * m + (1 - b1) * g, ...), so the bits equal it; the
    work runs in chunks of ``ADAM_CHUNK`` elements through two scratch rows.
    """
    if grad.shape != state.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters "
                         f"{state.flat.shape}")
    if state.lr < 0.0:
        raise ValueError("step size must be non-negative")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for s in range(0, grad.size, ADAM_CHUNK):
        e = s + ADAM_CHUNK
        g, p, m, v = grad[s:e], state.flat[s:e], state.m[s:e], state.v[s:e]
        a, b = state.scratch[:, :g.size]
        if scale != 1.0:
            g *= scale
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        # step = lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += state.eps
        np.divide(m, c1, out=b)
        b *= state.lr
        b /= a
        if state.rates is None:
            p -= b
        else:
            # p + rate * ((p - step) - p)
            np.subtract(p, b, out=b)
            b -= p
            b *= state.rates[s:e]
            p += b


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


def fnv1a_64_batch(data: list[bytes]) -> np.ndarray:
    """``fnv1a_64`` of each byte string, as uint64, in one numpy step per
    byte position. The strings are sorted by length, longest first, so the
    ones still hashing at a position are a prefix of the sorted rows; uint64
    multiplication wraps as the 64-bit mask does."""
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    width = int(lengths.max(initial=0))
    # block[p, r]: byte p of sorted row r, zero past its end
    padded = b"".join([data[k].ljust(width, b"\0") for k in order.tolist()])
    block = np.frombuffer(padded, np.uint8).reshape(len(data), width).T.copy()
    active = np.searchsorted(-lengths, -np.arange(width), side="left").tolist()
    h = np.full(len(data), _FNV_OFFSET, np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for p, rows in enumerate(active):
        head = h[:rows]
        head ^= block[p, :rows]
        head *= prime
    out = np.empty_like(h)
    out[order] = h
    return out


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
