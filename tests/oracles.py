"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results through the most direct enumeration
available (flood fills, explicit set arithmetic, exhaustive cuts) so the
library implementations are checked against a second, simpler path.

The reference tape lives here too: generic broadcasting primitives on
``molflow.autodiff.Tensor`` (``add``, ``matmul``, ``mlp``, ``tsum``, ...)
and ``Tensor``'s arithmetic operators, which importing this module installs.
Each model's hand-written backward in ``src/`` is compared with the same
model composed of these primitives. ``node`` is the adapter between the
two: it records a model function's (value, backward) as tape nodes
(``coupling_node``, ``params_node`` and ``fusion_node`` wrap it), and
``from_tape`` turns a composed model back into a (value, backward)
function that can be patched in for the hand-written one.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
from scipy.special import lpmv

import molflow.autodiff as ad
from molflow.flow import (FlowParams, Mlp, _sigmoid, atom_condition, decode_tensors,
                          dequantize, discretize_bonds, encode_molecules, encode_tensors,
                          sample_prior)
from molflow.chem import (
    ELEMENTS,
    MORGAN_BITS,
    MORGAN_RADIUS,
    PADDING_TYPE,
    VALENCE,
    Molecule,
    PATH_BITS,
    fraggle_similarity,
    from_tensors,
    maccs_similarity,
    path_fingerprint,
    subgraph,
    tanimoto,
    to_tensors,
    valency_check,
)
from molflow.dataset import _BOND_LENGTH, _LAYOUT_STEPS
from molflow.geom3d import (
    DEFAULT_CUTOFF,
    DEFAULT_MAX_DEGREE,
    DEFAULT_N_RADIAL,
    Geometry,
    bessel_basis,
)
from molflow.pipeline import (
    MAX_MIXES,
    GenerationReport,
    OptimizationTrajectory,
    SimilarityReport,
    SubstructureResult,
    TrajectoryPoint,
    attach_fragment,
    excise_fragment,
    safe_canonical,
)
from molflow.spherenet import (GeometryCache, SphereNetParams, _one_hot, encode_geometry,
                               fusion_loss, mix_noise)


# ---------------------------------------------------------------------------
# the reference tape: generic primitives, each on Tensors (traced) or plain
# arrays (untraced), and Tensor's arithmetic operators
# ---------------------------------------------------------------------------


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _is_traced(*xs) -> bool:
    return any(isinstance(x, ad.Tensor) for x in xs)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, ad.Tensor) else _as_f64(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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


def _binary(a, b, y: np.ndarray, op: str, grad_a, grad_b) -> ad.Tensor:
    """A tape node for `y` = a op b. Only operands that are Tensors are
    parents, and only their gradients (``grad_a(g)``, ``grad_b(g)``) are
    computed: a constant operand gets none."""
    out = ad.Tensor(y, tuple(x for x in (a, b) if isinstance(x, ad.Tensor)), op=op)

    def bwd(g):
        if isinstance(a, ad.Tensor):
            ad._accumulate(a, grad_a(g))
        if isinstance(b, ad.Tensor):
            ad._accumulate(b, grad_b(g))

    out._backward = bwd
    return out


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


def take_rows(x, rows: np.ndarray, onehot: np.ndarray):
    """``onehot @ x`` for a constant 0/1 matrix with one 1 per row, at
    column ``rows[k]`` of row k: the forward takes x's rows by index, which
    gives the product's values bit for bit (x finite, no -0.0). The
    backward keeps the product ``onehot.T @ g``: a segment sum by
    ``np.add.at`` adds a repeated row's gradients in another order than
    BLAS does and can move their last bits."""
    if not _is_traced(x):
        return np.take(_as_f64(x), rows, axis=0)
    out = ad.Tensor(np.take(x.data, rows, axis=0), (x,), op="take_rows")
    out._backward = lambda g: ad._accumulate(x, onehot.T @ g)
    return out


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
    h, y = ad.mlp_forward(xd, w1d, b1d, w2d, b2d)
    if not _is_traced(*parts, *weights):
        return y
    out = ad.Tensor(y, tuple(a for a in (*parts, *weights) if isinstance(a, ad.Tensor)),
                    op="mlp")
    want = [_is_traced(*parts)] + [isinstance(a, ad.Tensor) for a in weights]
    x_rows, start = [], 0
    for p, d in zip(parts, datas):
        x_rows.append(slice(start, start + d.shape[-1]) if isinstance(p, ad.Tensor) else None)
        start += d.shape[-1]

    def bwd(g):
        g_x, *g_weights = ad.mlp_backward(g, xd, h, w1d, w2d, want, x_rows)
        for a, ga in zip((*parts, *weights), (*(g_x or [None] * len(parts)), *g_weights)):
            if ga is not None:
                ad._accumulate(a, ga)

    out._backward = bwd
    return out


def apply_mlp(p: Mlp, x):
    """``flow.apply_mlp`` as one ``mlp`` tape node."""
    return mlp(x, p.w1, p.b1, p.w2, p.b2)


def sqrt(x):
    if not _is_traced(x):
        return np.sqrt(_as_f64(x))
    y = np.sqrt(x.data)
    out = ad.Tensor(y, (x,), op="sqrt")
    out._backward = lambda g: ad._accumulate(x, g * 0.5 / y)
    return out


def tsum(x, axis=None):
    if not _is_traced(x):
        return _as_f64(x).sum(axis=axis)
    y = x.data.sum(axis=axis)
    out = ad.Tensor(y, (x,), op="sum")

    def bwd(g):
        if axis is None:
            ad._accumulate(x, np.broadcast_to(g.reshape((1,) * x.data.ndim),
                                              x.data.shape).copy())
        else:
            ad._accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    out._backward = bwd
    return out


def reshape(x, shape):
    if not _is_traced(x):
        return _as_f64(x).reshape(shape)
    old = x.data.shape
    out = ad.Tensor(x.data.reshape(shape), (x,), op="reshape")
    out._backward = lambda g: ad._accumulate(x, g.reshape(old))
    return out


def _truediv(a, b):
    if isinstance(b, ad.Tensor):
        raise TypeError("tensor/tensor division is not a tape primitive")
    return mul(a, 1.0 / float(b))


# Tensor's operators; numpy defers mixed expressions to the reflected ones
for _name, _value in {
    "__array_ufunc__": None, "__array_priority__": 1000,
    "__add__": add, "__radd__": add, "__mul__": mul, "__rmul__": mul,
    "__sub__": sub, "__rsub__": lambda a, b: sub(b, a), "__neg__": lambda a: mul(a, -1.0),
    "__matmul__": matmul, "__rmatmul__": lambda a, b: matmul(b, a), "__truediv__": _truediv,
}.items():
    setattr(ad.Tensor, _name, _value)


# ---------------------------------------------------------------------------
# traced parameter trees, and the adapters between src/'s (value,
# backward) functions and tape nodes
# ---------------------------------------------------------------------------


def traced(params):
    """A copy of the parameter tree `params` whose arrays are Tensor leaves,
    plus those leaves in field order.

    The walk descends into dataclass fields and list items and keeps every
    other value as it is. Each leaf wraps its array without copying it, so
    ``leaf.data`` is the parameter array itself.
    """
    leaves: list[ad.Tensor] = []
    return _as_leaves(params, leaves), leaves


def _as_leaves(x, leaves: list):
    # not a closure: one that calls itself is a reference cycle, which would
    # keep `leaves` and their gradients alive after the step until the
    # cyclic garbage collector runs
    if isinstance(x, np.ndarray):
        leaves.append(ad.Tensor(x))
        return leaves[-1]
    if isinstance(x, list):
        return [_as_leaves(v, leaves) for v in x]
    if is_dataclass(x) and not isinstance(x, type):
        return replace(x, **{f.name: _as_leaves(getattr(x, f.name), leaves) for f in fields(x)})
    return x


def _untraced(x):
    """The parameter tree `x` with each Tensor replaced by its data."""
    if isinstance(x, ad.Tensor):
        return x.data
    if isinstance(x, list):
        return [_untraced(v) for v in x]
    if is_dataclass(x) and not isinstance(x, type):
        return replace(x, **{f.name: _untraced(getattr(x, f.name)) for f in fields(x)})
    return x


def node(args, outputs: tuple, backward, op: str) -> tuple:
    """The arrays `outputs` of one operation on `args`, as tape nodes when
    an arg is a Tensor and as they are otherwise. ``backward(*output_grads)``
    returns one gradient (or None) per arg and runs once, after every
    output gradient is final; an output the loss does not reach gets zeros.
    Only Tensor args receive their gradient."""
    parents = tuple(a for a in args if isinstance(a, ad.Tensor))
    if not parents:
        return outputs
    joint = ad.Tensor(np.empty(0), parents, op=op)
    # The joint node's grad is the list of output gradients. Tensor.backward
    # clears it before each pass and runs the joint node after its outputs.
    outs = tuple(ad.Tensor(y, (joint,), op=op) for y in outputs)

    def arrive(i):
        def bwd(g):
            if joint.grad is None:
                joint.grad = [None] * len(outputs)
            joint.grad[i] = g
        return bwd

    def joint_bwd(grads):
        for a, ga in zip(args, backward(*(np.zeros_like(y) if g is None else g
                                          for g, y in zip(grads, outputs)))):
            if isinstance(a, ad.Tensor) and ga is not None:
                ad._accumulate(a, ga)

    for i, out in enumerate(outs):
        out._backward = arrive(i)
    joint._backward = joint_bwd
    return outs


def coupling_node(coupling, x, mlp: Mlp, *args):
    """``coupling(x, mlp, *args)`` (flow.atom_coupling or bond_coupling) on
    an input and weights that may be Tensors: the two outputs z and the
    layer's logdet of one ``node``, whose backward is the coupling's."""
    weights = (mlp.w1, mlp.b1, mlp.w2, mlp.b2)
    z, logdet, backward = coupling(_data(x), Mlp(*map(_data, weights)), *args)

    def node_backward(g_z, g_ld):
        g_x, g_weights = backward(g_z, g_ld, isinstance(x, ad.Tensor))
        return [g_x, *g_weights]

    return node((x, *weights), (z, logdet), node_backward, "coupling")


def params_node(fn, params, *args):
    """``fn(params, *args)``, a (value, backward) function whose backward
    gives one gradient per ``named_params()`` array, on a parameter tree
    whose arrays may be Tensors: one ``node``."""
    value, backward = fn(_untraced(params), *args)
    return node([a for _, a in params.named_params()], (value,), backward, fn.__name__)[0]


def fusion_node(z_m, u_star):
    """spherenet.fusion_loss on a `u_star` that may be a Tensor: one
    ``node``."""
    loss, backward = fusion_loss(z_m, _data(u_star))
    return node([u_star], (loss,), lambda g: [backward(g)], "fusion_loss")[0]


def from_tape(tape_fn):
    """``tape_fn(view, *args)``, composed of tape nodes on a traced view of
    a parameter tree, as a function of the tree that returns (value,
    backward) like src/'s model functions: ``backward(g)`` walks the tape
    from the output with gradient `g` and gives one gradient per array."""
    def fn(params, *args):
        view, leaves = traced(params)
        out = tape_fn(view, *args)

        def backward(g):
            seed = node([out], (np.zeros(()),), lambda _: [_as_f64(g)], "seed")[0]
            return ad.backward(seed, leaves)

        return out.data, backward

    return fn


def traced_value_and_grad(value_and_grad):
    """A function of one Tensor, for ``gradient_check``, whose value and
    gradient come from the numpy function ``value_and_grad(x)``."""
    def f(x):
        value, grad = value_and_grad(x.data)
        return node([x], (np.array(value),), lambda g: [g * grad.reshape(x.shape)],
                    "value_and_grad")[0]
    return f


def moving_average(xs: list[float], window: int) -> list[float]:
    """Means of every `window` consecutive values (the list itself for a
    window of at most 1)."""
    if window <= 1:
        return list(xs)
    return [float(np.mean(xs[i:i + window])) for i in range(len(xs) - window + 1)]


def set_bits(fp: int) -> set[int]:
    """The indices of a fingerprint's set bits, read one bit at a time."""
    return {b for b in range(fp.bit_length()) if fp >> b & 1}


def from_bits(bits) -> int:
    """The fingerprint whose set bits are ``bits``."""
    return sum(1 << b for b in set(bits))


def tanimoto_sets(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def brute_force_fragments(m: Molecule) -> set[int]:
    """Atom bitmasks of the components holding >= 60% of the heavy atoms
    after every single and double cut of acyclic single bonds, each found
    by a flood fill of the graph without the cut bonds."""
    cyc = m.cyclic_bonds
    cuttable = [(i, j) for i, j, o in m.bonds if o == 1 and (i, j) not in cyc]
    cut_sets = [{c} for c in cuttable]
    cut_sets += [{cuttable[p], cuttable[q]} for p in range(len(cuttable))
                 for q in range(p + 1, len(cuttable))]
    out = set()
    for cuts in cut_sets:
        adj = {i: set() for i in range(m.num_atoms)}
        for i, j, _ in m.bonds:
            if (i, j) not in cuts:
                adj[i].add(j)
                adj[j].add(i)
        unseen = set(range(m.num_atoms))
        while unseen:
            comp = {unseen.pop()}
            frontier = list(comp)
            while frontier:
                cur = frontier.pop()
                for nb in adj[cur]:
                    if nb not in comp:
                        comp.add(nb)
                        frontier.append(nb)
            unseen -= comp
            if 10 * len(comp) >= 6 * m.num_atoms:
                out.add(sum(1 << a for a in comp))
    return out


def brute_force_fraggle(a: Molecule, b: Molecule) -> float:
    """Best path-fingerprint Tanimoto between any ``brute_force_fragments``
    fragment (or the whole molecule) and the partner, symmetrized."""

    def one_way(x: Molecule, y: Molecule) -> float:
        fp_y = path_fingerprint(y)
        best = tanimoto(path_fingerprint(x), fp_y)
        for frag in brute_force_fragments(x):
            atoms = {i for i in range(x.num_atoms) if frag >> i & 1}
            best = max(best, tanimoto(path_fingerprint(subgraph(x, atoms)), fp_y))
        return best

    return max(one_way(a, b), one_way(b, a))


def longest_chain(m: Molecule) -> int:
    """Longest simple path, counted in atoms, by walking every simple path."""
    best = 0

    def walk(cur: int, seen: set[int]) -> int:
        length = len(seen)
        for nb, _ in m.adjacency[cur]:
            if nb not in seen:
                length = max(length, walk(nb, seen | {nb}))
        return length

    for start in range(m.num_atoms):
        best = max(best, walk(start, {start}))
    return best


def _encode(x, out: bytearray) -> None:
    """Append the canonical bytes of the int/str tuple `x` to `out`."""
    if isinstance(x, tuple):
        out += b"("
        for item in x:
            _encode(item, out)
            out += b","
        out += b")"
    elif isinstance(x, int):
        out += b"i%d" % x
    elif isinstance(x, str):
        out += b"s" + x.encode("utf-8")
    else:
        raise TypeError(f"unhashable piece {type(x)}")


def _hash_tuple(obj) -> int:
    """FNV-1a over a canonical byte serialization of nested int/str tuples:
    the reference for the byte templates of the Morgan and path hashes."""
    buf = bytearray()
    _encode(obj, buf)
    return ad.fnv1a_64(bytes(buf))


def flood_fill_components(m: Molecule) -> list[set[int]]:
    """Atom set of each connected component, by a set-based flood fill over
    ``adjacency`` from each atom not yet reached, in atom order."""
    seen: set[int] = set()
    comps = []
    for start in range(m.num_atoms):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for nb, _ in m.adjacency[cur]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        comps.append(comp)
    return comps


def reference_morgan_fingerprint(m: Molecule) -> int:
    """Circular fingerprint with every atom environment hashed afresh, at
    every radius."""
    env = [
        _hash_tuple(("atom", m.elements[i], m.degree(i), m.bond_order_sum(i),
                     m.implicit_hydrogens(i)))
        for i in range(m.num_atoms)
    ]
    on = {h % MORGAN_BITS for h in env}
    for _ in range(MORGAN_RADIUS):
        env = [
            _hash_tuple(("env", env[i], tuple(sorted((o, env[j]) for j, o in m.adjacency[i]))))
            for i in range(m.num_atoms)
        ]
        on |= {h % MORGAN_BITS for h in env}
    return from_bits(on)


def pair_similarity_triple(mol: Molecule, seed: Molecule) -> tuple[float, float, float]:
    """(tanimoto, fraggle, maccs) of one pair, each molecule fingerprinted
    on its own with the unbatched Morgan reference."""
    t = tanimoto(reference_morgan_fingerprint(mol), reference_morgan_fingerprint(seed))
    return t, fraggle_similarity(mol, seed), maccs_similarity(mol, seed)


def dict_shortest_cycle_through(m: Molecule, i: int, j: int) -> tuple[int, int]:
    """Breadth-first search from i over a distance dict, avoiding the (i, j)
    edge itself: (cycle length or 0, the bitmask of atoms reached)."""
    dist = {i: 0}
    queue = [i]
    while queue:
        nxt = []
        for cur in queue:
            for nb, _ in m.adjacency[cur]:
                if (min(cur, nb), max(cur, nb)) == (min(i, j), max(i, j)):
                    continue
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    nxt.append(nb)
        queue = nxt
    return (dist[j] + 1 if j in dist else 0), sum(1 << a for a in dist)


def dict_bond_walks(m: Molecule) -> dict[tuple[int, int], tuple[int, int]]:
    """``Molecule._bond_walks`` from the distance-dict search."""
    return {(i, j): dict_shortest_cycle_through(m, i, j) for i, j, _ in m.bonds}


def two_direction_path_table(m: Molecule, max_bonds: int = 5) -> set[tuple[int, int]]:
    """``(atom bitmask, bit)`` of every simple path of 0..max_bonds bonds,
    each path added from both of its ends."""
    table = set()

    def walk(cur: int, mask: int, rep: tuple) -> None:
        table.add((mask, _hash_tuple(("path", min(rep, rep[::-1]))) % PATH_BITS))
        if mask.bit_count() - 1 < max_bonds:
            for nb, order in m.adjacency[cur]:
                if not mask >> nb & 1:
                    walk(nb, mask | 1 << nb, rep + (order, m.elements[nb]))

    for i, el in enumerate(m.elements):
        walk(i, 1 << i, (el,))
    return table


def brute_force_uniqueness(smiles: list[str]) -> float:
    return 100.0 * len(set(smiles)) / len(smiles) if smiles else 0.0


def brute_force_novelty(smiles: list[str], training: set[str]) -> float:
    unique = set(smiles)
    if not unique:
        return 0.0
    fresh = {s for s in unique if s not in training}
    return 100.0 * len(fresh) / len(unique)


def numerical_jacobian(f, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    n = len(x0)
    out = np.zeros((len(f(x0)), n))
    for i in range(n):
        hi = x0.copy()
        hi[i] += eps
        lo = x0.copy()
        lo[i] -= eps
        out[:, i] = (f(hi) - f(lo)) / (2 * eps)
    return out


def gradient_check(f, point: np.ndarray, eps: float = 1e-6) -> float:
    """Max relative error between tape and central-difference gradients.

    `f` maps one Tensor to a scalar Tensor. The error at coordinate i is
    |analytic_i - numeric_i| / max(1, |analytic_i|) and the maximum over
    coordinates is returned.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    point = np.asarray(point, dtype=np.float64)
    leaf = ad.Tensor(point)
    (analytic,) = ad.backward(f(leaf), [leaf])

    numeric = np.zeros_like(point)
    flat = point.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = f(ad.Tensor((flat + bump).reshape(point.shape))).item()
        lo = f(ad.Tensor((flat - bump).reshape(point.shape))).item()
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("non-finite function value near point")
        num_flat[i] = (hi - lo) / (2.0 * eps)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max()) if err.size else 0.0


def is_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Exact isomorphism by backtracking over element/degree-compatible maps."""
    if a.num_atoms != b.num_atoms or len(a.bonds) != len(b.bonds):
        return False
    if sorted(a.elements) != sorted(b.elements):
        return False

    def signature(m: Molecule, i: int):
        return (m.elements[i], m.degree(i), tuple(sorted(o for _, o in m.adjacency[i])))

    sig_a = [signature(a, i) for i in range(a.num_atoms)]
    sig_b = [signature(b, i) for i in range(b.num_atoms)]
    if sorted(sig_a) != sorted(sig_b):
        return False

    order = sorted(range(a.num_atoms), key=lambda i: (-a.degree(i), sig_a[i]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in range(b.num_atoms):
            if j in used or sig_b[j] != sig_a[i]:
                continue
            ok = True
            for nb, bond_order in a.adjacency[i]:
                if nb in mapping:
                    want = [o for t, o in b.adjacency[j] if t == mapping[nb]]
                    if want != [bond_order]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if extend(k + 1):
                return True
            del mapping[i]
            used.remove(j)
        return False

    return extend(0)


class LinearHead:
    """y = c . z; exact closed-form ascent behavior."""

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=np.float64)

    def value(self, z: np.ndarray) -> float:
        return float(self.c @ z)

    def value_and_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(z), self.c.copy()


def random_rigid_motion(rng) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random proper rotation plus a translation."""
    a = rng.normal((3, 3))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = rng.normal((3,), scale=5.0)
    return q, t


# ---------------------------------------------------------------------------
# scalar edge frames and bases: one edge at a time, neighbours by full scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalTriple:
    r: float      # radial distance, > 0
    theta: float  # polar angle in [0, pi]
    phi: float    # azimuthal angle in [-pi, pi]


def _reference_neighbors(g: Geometry, receiver: int, sender: int) -> list[int]:
    """Neighbors of the receiver (excluding the sender), nearest first.
    Distance ties break on atom index, so the frame is deterministic."""
    nbrs = sorted(
        {int(g.senders[e]) for e in range(g.num_edges) if g.receivers[e] == receiver}
        - {sender}
    )
    return sorted(
        nbrs, key=lambda a: (float(np.linalg.norm(g.coords[a] - g.coords[receiver])), a)
    )


def _edge_frame(g: Geometry, edge: int) -> tuple[SphericalTriple, int]:
    """The edge's spherical triple and its frame rank (see the two public
    functions below), from one scan for the reference neighbors."""
    t = int(g.receivers[edge])
    s = int(g.senders[edge])
    d = g.coords[s] - g.coords[t]
    r = float(np.linalg.norm(d))
    refs = _reference_neighbors(g, t, s)
    if not refs:
        return SphericalTriple(r, 0.0, 0.0), 0
    z_axis = g.coords[refs[0]] - g.coords[t]
    z_hat = z_axis / np.linalg.norm(z_axis)
    cos_theta = float(np.clip(np.dot(d, z_hat) / r, -1.0, 1.0))
    theta = math.acos(cos_theta)
    for cand in refs[1:]:
        a2 = g.coords[cand] - g.coords[t]
        perp = a2 - np.dot(a2, z_hat) * z_hat
        norm = np.linalg.norm(perp)
        if norm > 1e-9:
            x_hat = perp / norm
            y_hat = np.cross(z_hat, x_hat)
            phi = math.atan2(float(np.dot(d, y_hat)), float(np.dot(d, x_hat)))
            return SphericalTriple(r, theta, phi), 2
    return SphericalTriple(r, theta, 0.0), 1


def local_spherical(g: Geometry, edge: int) -> SphericalTriple:
    """Invariant spherical description of one directed edge.

    The frame hangs at the receiving atom: the polar axis points to its
    nearest other neighbor and the azimuth reference comes from the next
    one. With fewer than one (or two) reference neighbors, theta (or phi)
    defaults to zero. Proper rigid motions leave the triple unchanged;
    reflections negate phi.
    """
    return _edge_frame(g, edge)[0]


def frame_rank(g: Geometry, edge: int) -> int:
    """How many reference neighbors the edge's frame has (0, 1, or 2).
    Rank 0 supports only the radial representation, rank 1 adds the polar
    one, rank 2 the full triple."""
    return _edge_frame(g, edge)[1]


def scalar_spherical_harmonics(theta: float, phi: float, max_degree: int) -> np.ndarray:
    """Real spherical harmonics at one angle pair, one lpmv call per (l, m)."""
    x = math.cos(theta)
    out = np.zeros((max_degree + 1) ** 2)
    idx = 0
    for l in range(max_degree + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            norm = math.sqrt(
                (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
            )
            plm = float(lpmv(am, l, x))
            if m == 0:
                out[idx] = norm * plm
            elif m > 0:
                out[idx] = math.sqrt(2.0) * norm * plm * math.cos(m * phi)
            else:
                out[idx] = math.sqrt(2.0) * norm * plm * math.sin(am * phi)
            idx += 1
    return out


def edge_representation(triple: SphericalTriple, cutoff: float = DEFAULT_CUTOFF,
                        n_radial: int = DEFAULT_N_RADIAL,
                        max_degree: int = DEFAULT_MAX_DEGREE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three physical representations of one edge, in this order.

    Psi(r) is the radial basis alone; Psi(r,theta) the outer product of the
    radial basis with the zonal (m = 0) harmonics; Psi(r,theta,phi) the
    outer product with all harmonics. Beyond the cutoff all coefficients
    are zero.
    """
    n_sph = max_degree + 1
    if triple.r >= cutoff:
        return np.zeros(n_radial), np.zeros(n_radial * n_sph), np.zeros(n_radial * n_sph**2)
    radial = bessel_basis(triple.r, cutoff, n_radial)
    harm = scalar_spherical_harmonics(triple.theta, triple.phi, max_degree)
    zonal = np.array([harm[l * l + l] for l in range(n_sph)])
    psi_rt = np.outer(radial, zonal).reshape(-1)
    psi_rtp = np.outer(radial, harm).reshape(-1)
    return radial, psi_rt, psi_rtp


def edge_feature_rows(g: Geometry, n_radial: int = DEFAULT_N_RADIAL,
                      max_degree: int = DEFAULT_MAX_DEGREE) -> tuple[np.ndarray, np.ndarray]:
    """edge_feature_matrix built edge by edge: oracle frame, then
    edge_representation, with the polar and azimuthal blocks zeroed by the
    frame's rank."""
    n_sph = max_degree + 1
    radial = np.zeros((g.num_edges, n_radial))
    full = np.zeros((g.num_edges, n_radial + n_radial * n_sph + n_radial * n_sph**2))
    for e in range(g.num_edges):
        triple, rank = _edge_frame(g, e)
        psi_r, psi_rt, psi_rtp = edge_representation(triple, g.cutoff, n_radial, max_degree)
        radial[e] = psi_r
        parts = [
            psi_r,
            psi_rt if rank >= 1 else np.zeros_like(psi_rt),
            psi_rtp if rank >= 2 else np.zeros_like(psi_rtp),
        ]
        full[e] = np.concatenate(parts)
    return radial, full


# ---------------------------------------------------------------------------
# reference flow kernels: boolean-mask sigmoid, unfused MLP, masked atom
# coupling over every row, concat-plus-permutation bond coupling, and the
# couplings composed of slice, sigmoid and assemble tape nodes
# ---------------------------------------------------------------------------


def _masked_sigmoid_np(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_sigmoid(x):
    """Sigmoid by boolean masks, on arrays or as a tape node."""
    if not isinstance(x, ad.Tensor):
        return _masked_sigmoid_np(np.asarray(x, dtype=np.float64))
    y = _masked_sigmoid_np(x.data)
    out = ad.Tensor(y, (x,), op="sigmoid")
    out._backward = lambda g: ad._accumulate(x, g * y * (1.0 - y))
    return out


def tanh(x):
    """tanh on arrays or as a tape node."""
    if not isinstance(x, ad.Tensor):
        return np.tanh(np.asarray(x, dtype=np.float64))
    y = np.tanh(x.data)
    out = ad.Tensor(y, (x,), op="tanh")
    out._backward = lambda g: ad._accumulate(x, g * (1.0 - y * y))
    return out


def index_gather(x, indices, axis):
    """Select a list of positions along `axis`: a copy, and repeated
    positions sum their gradients."""
    idx = list(indices)
    if not isinstance(x, ad.Tensor):
        return np.take(np.asarray(x, dtype=np.float64), idx, axis=axis)
    out = ad.Tensor(np.take(x.data, idx, axis=axis), (x,), op="gather")

    def bwd(g):
        full = np.zeros_like(x.data)
        np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
        ad._accumulate(x, full)

    out._backward = bwd
    return out


def sigmoid(x):
    """The flow's stable sigmoid on arrays or as a tape node."""
    if not isinstance(x, ad.Tensor):
        return _sigmoid(np.asarray(x, dtype=np.float64))
    y = _sigmoid(x.data)
    out = ad.Tensor(y, (x,), op="sigmoid")
    out._backward = lambda g: ad._accumulate(x, g * y * (1.0 - y))
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) computed stably for large |x|, on arrays or as a tape
    node."""

    def stable(v):
        return np.minimum(v, 0.0) - np.log1p(np.exp(-np.abs(v)))

    if not isinstance(x, ad.Tensor):
        return stable(np.asarray(x, dtype=np.float64))
    out = ad.Tensor(stable(x.data), (x,), op="log_sigmoid")
    out._backward = lambda g: ad._accumulate(x, g * _sigmoid(-x.data))
    return out


def _axis_key(indices, axis: int, ndim: int) -> tuple:
    return (slice(None),) * (axis % ndim) + (indices,)


def concat(xs, axis=0):
    """Join arrays or tensors along `axis`, as a tape node when one is a
    Tensor; each Tensor part's gradient is its slice of the output's."""
    if not any(isinstance(x, ad.Tensor) for x in xs):
        return np.concatenate([np.asarray(x, dtype=np.float64) for x in xs], axis=axis)
    datas = [x.data if isinstance(x, ad.Tensor) else np.asarray(x, dtype=np.float64)
             for x in xs]
    out = ad.Tensor(np.concatenate(datas, axis=axis),
                    tuple(x for x in xs if isinstance(x, ad.Tensor)), op="concat")
    sizes = [d.shape[axis] for d in datas]

    def bwd(g):
        start = 0
        for x, n in zip(xs, sizes):
            if isinstance(x, ad.Tensor):
                ad._accumulate(x, g[_axis_key(slice(start, start + n), axis, g.ndim)])
            start += n

    out._backward = bwd
    return out


def gather(x, indices: slice, axis):
    """Select the slice `indices` along `axis`: a view, whose gradient is
    assigned back into a zero array of x's shape."""
    if not isinstance(indices, slice):
        raise TypeError(f"gather takes a slice, got {type(indices).__name__}")
    data = x.data if isinstance(x, ad.Tensor) else np.asarray(x, dtype=np.float64)
    key = _axis_key(indices, axis, data.ndim)
    if not isinstance(x, ad.Tensor):
        return data[key]
    out = ad.Tensor(data[key], (x,), op="gather")

    def bwd(g):
        full = np.zeros_like(data)
        full[key] = g
        ad._accumulate(x, full)

    out._backward = bwd
    return out


def assemble(parts, slices, axis):
    """The inverse of slicing: one array whose `slices` along `axis` hold
    `parts`, in order. The slices must cover the axis exactly once."""
    datas = [p.data if isinstance(p, ad.Tensor) else np.asarray(p, dtype=np.float64)
             for p in parts]
    size = sum(d.shape[axis] for d in datas)
    covered = sorted(i for sl in slices for i in range(size)[sl])
    if covered != list(range(size)) or any(
            len(range(size)[sl]) != d.shape[axis] for sl, d in zip(slices, datas)):
        raise ValueError("assemble slices must tile the axis and match the parts")
    shape = list(datas[0].shape)
    shape[axis] = size
    out_data = np.empty(shape)
    keys = [_axis_key(sl, axis, len(shape)) for sl in slices]
    for key, d in zip(keys, datas):
        out_data[key] = d
    if not any(isinstance(p, ad.Tensor) for p in parts):
        return out_data
    out = ad.Tensor(out_data, tuple(p for p in parts if isinstance(p, ad.Tensor)),
                    op="assemble")

    def bwd(g):
        for key, p in zip(keys, parts):
            if isinstance(p, ad.Tensor):
                ad._accumulate(p, g[key])

    out._backward = bwd
    return out


def unfused_mlp(p: Mlp, x):
    """tanh(x @ w1 + b1) @ w2 + b2 from separate matmul, add and tanh nodes."""
    h = tanh(x @ p.w1 + p.b1)
    return h @ p.w2 + p.b2


def scatter_discretize_bonds(xb: np.ndarray) -> np.ndarray:
    """discretize_bonds with the one-hot written by a fancy-index scatter."""
    sym = (xb + xb.transpose(0, 2, 1, 3)) / 2.0
    q = sym.argmax(axis=3)
    n = xb.shape[1]
    idx = np.arange(n)
    q[:, idx, idx] = 0
    out = np.zeros_like(xb)
    b_idx = np.arange(xb.shape[0])[:, None, None]
    out[b_idx, idx[None, :, None], idx[None, None, :], q] = 1.0
    return out


def _bond_channels(bond_disc: np.ndarray) -> list[np.ndarray]:
    m = bond_disc.shape[3]
    return [np.ascontiguousarray(bond_disc[:, :, :, q]) for q in range(1, m)]


def masked_atom_coupling(x, mlp: Mlp, index: int, bond_disc: np.ndarray, inverse: bool = False):
    """Atom coupling layer with the s/t network run on every row and the
    kept rows restored through 0/1 row masks."""
    shape = x.shape if isinstance(x, np.ndarray) else x.data.shape
    n, l = shape[1], shape[2]
    keep = np.zeros((n, 1))
    keep[index % 2:: 2] = 1.0
    trans = 1.0 - keep
    channels = _bond_channels(bond_disc)
    x_masked = x * keep
    h1 = concat([adj @ x_masked for adj in channels], axis=2)
    adj_sum = sum(channels[1:], channels[0])
    h2 = adj_sum @ h1
    feats = concat([x_masked, h1, h2], axis=2)
    st = unfused_mlp(mlp, feats)
    s_raw = index_gather(st, range(l), axis=2)
    t = index_gather(st, range(l, 2 * l), axis=2)
    scale = masked_sigmoid(s_raw)
    if inverse:
        return x * keep + ((x - t) / scale) * trans, None
    z = x * keep + (x * scale + t) * trans
    logdet = tsum(log_sigmoid(s_raw) * trans, axis=(1, 2))
    return z, logdet


def permuted_bond_coupling(x, mlp: Mlp, index: int, inverse: bool = False):
    """Bond coupling layer that gathers each half by a channel list and
    restores channel order with a concat and an argsort permutation."""
    shape = x.shape if isinstance(x, np.ndarray) else x.data.shape
    batch, n, _, m = shape
    kept_ch = list(range(index % 2, m, 2))
    trans_ch = list(range(1 - index % 2, m, 2))
    kept = index_gather(x, kept_ch, axis=3)
    flat = reshape(kept, (batch, n * n * len(kept_ch)))
    st = unfused_mlp(mlp, flat)
    half = n * n * len(trans_ch)
    s_raw = reshape(index_gather(st, range(half), axis=1), (batch, n, n, len(trans_ch)))
    t = reshape(index_gather(st, range(half, 2 * half), axis=1), (batch, n, n, len(trans_ch)))
    scale = masked_sigmoid(s_raw)
    trans = index_gather(x, trans_ch, axis=3)
    if inverse:
        new_trans = (trans - t) / scale
        logdet = None
    else:
        new_trans = trans * scale + t
        logdet = tsum(log_sigmoid(s_raw), axis=(1, 2, 3))
    order = np.argsort(kept_ch + trans_ch)
    return index_gather(concat([kept, new_trans], axis=3), order, axis=3), logdet


def running(logdet, layer_logdet):
    """The running logdet of a stack: `layer_logdet` added to the sum
    `logdet` of the layers before it (None before the first)."""
    return layer_logdet if logdet is None else logdet + layer_logdet


def composed_atom_coupling(x, mlp: Mlp, index: int, cond, inverse: bool = False):
    """atom_coupling composed of slice gathers, concat, the fused mlp node,
    sigmoid, log_sigmoid and assemble, about a dozen tape nodes per layer:
    (z, the layer's logdet)."""
    batch, n, l = x.shape
    kept_rows, trans_rows = slice(index % 2, None, 2), slice(1 - index % 2, None, 2)
    by_order, adj_sum = cond[index % 2]
    x_kept = gather(x, kept_rows, axis=1)
    h1 = reshape(by_order @ x_kept, (batch, n, -1))
    h2 = adj_sum @ h1
    n_trans = adj_sum.shape[1]
    feats = concat([np.zeros((batch, n_trans, l)), gather(h1, trans_rows, axis=1), h2],
                   axis=2)
    st = apply_mlp(mlp, feats)
    s_raw = gather(st, slice(0, l), axis=2)
    t = gather(st, slice(l, None), axis=2)
    scale = sigmoid(s_raw)
    x_trans = gather(x, trans_rows, axis=1)
    if inverse:
        new = (x_trans - t) / scale
        logdet = None
    else:
        new = x_trans * scale + t
        logdet = tsum(log_sigmoid(s_raw), axis=(1, 2))
    return assemble([x_kept, new], [kept_rows, trans_rows], axis=1), logdet


def composed_bond_coupling(x, mlp: Mlp, index: int, inverse: bool = False):
    """bond_coupling composed of slice gathers, reshapes, the fused mlp node,
    sigmoid, log_sigmoid and assemble: (z, the layer's logdet)."""
    batch, n, _, m = x.shape
    kept_ch, trans_ch = slice(index % 2, None, 2), slice(1 - index % 2, None, 2)
    n_trans = len(range(m)[trans_ch])
    kept = gather(x, kept_ch, axis=3)
    st = apply_mlp(mlp, reshape(kept, (batch, -1)))
    half = n * n * n_trans
    s_raw = reshape(gather(st, slice(0, half), axis=1), (batch, n, n, n_trans))
    t = reshape(gather(st, slice(half, None), axis=1), (batch, n, n, n_trans))
    scale = sigmoid(s_raw)
    trans = gather(x, trans_ch, axis=3)
    if inverse:
        new_trans = (trans - t) / scale
        logdet = None
    else:
        new_trans = trans * scale + t
        logdet = tsum(log_sigmoid(s_raw), axis=(1, 2, 3))
    return assemble([kept, new_trans], [kept_ch, trans_ch], axis=3), logdet


def composed_encode_continuous(params: FlowParams, xa: np.ndarray, xb: np.ndarray):
    """encode_continuous through the composed couplings: (za, zb,
    logdet_atom, logdet_bond)."""
    zb, ld_b = xb, None
    for i, mlp in enumerate(params.bond):
        zb, ld = composed_bond_coupling(zb, mlp, i)
        ld_b = running(ld_b, ld)
    cond = atom_condition(discretize_bonds(xb), params.config.n_bond_types)
    za, ld_a = xa, None
    for i, mlp in enumerate(params.atom):
        za, ld = composed_atom_coupling(za, mlp, i, cond)
        ld_a = running(ld_a, ld)
    return za, zb, ld_a, ld_b


def tape_gauss_log_density(z, d: int):
    """flow.gauss_log_density composed of tape nodes."""
    axes = tuple(range(1, len(z.shape)))
    return tsum(z * z, axis=axes) * -0.5 - 0.5 * d * np.log(2.0 * np.pi)


def tape_mean_nll(params: FlowParams, xa: np.ndarray, xb: np.ndarray, encode=None):
    """flow.mean_nll composed of tape nodes, over the latents and logdets
    of `encode` (by default ``composed_encode_continuous``)."""
    cfg = params.config
    za, zb, ld_a, ld_b = (encode or composed_encode_continuous)(params, xa, xb)
    loglik = (tape_gauss_log_density(za, cfg.d_atom) + ld_a
              + tape_gauss_log_density(zb, cfg.d_bond) + ld_b)
    return tsum(loglik) * (-1.0 / xa.shape[0])


def reference_encode_continuous(params: FlowParams, xa: np.ndarray, xb: np.ndarray):
    """encode_continuous through the reference kernels: (za, zb, logdet_atom,
    logdet_bond)."""
    bond_disc = scatter_discretize_bonds(xb)
    zb, ld_b = xb, 0.0
    for i, mlp in enumerate(params.bond):
        zb, ld = permuted_bond_coupling(zb, mlp, i)
        ld_b = ld_b + ld
    za, ld_a = xa, 0.0
    for i, mlp in enumerate(params.atom):
        za, ld = masked_atom_coupling(za, mlp, i, bond_disc)
        ld_a = ld_a + ld
    return za, zb, ld_a, ld_b


def reference_decode_continuous(params: FlowParams, za: np.ndarray, zb: np.ndarray):
    """decode_continuous through the reference kernels: (xa, xb)."""
    for i in reversed(range(len(params.bond))):
        zb, _ = permuted_bond_coupling(zb, params.bond[i], i, inverse=True)
    bond_disc = scatter_discretize_bonds(zb)
    for i in reversed(range(len(params.atom))):
        za, _ = masked_atom_coupling(za, params.atom[i], i, bond_disc, inverse=True)
    return za, zb


def onehot_from_tensors(atom: np.ndarray, bond: np.ndarray) -> Molecule:
    """from_tensors on a (n, l) atom tensor and a (n, n, m) bond tensor:
    the atom argmax, the bond logits symmetrized and argmaxed per pair, and
    the bonds read by a pair loop over the non-padding rows."""
    types = np.asarray(atom).argmax(axis=1)
    keep = [i for i, t in enumerate(types) if t != PADDING_TYPE]
    remap = {i: k for k, i in enumerate(keep)}
    elements = tuple(ELEMENTS[types[i]] for i in keep)
    sym = (np.asarray(bond) + np.asarray(bond).transpose(1, 0, 2)) / 2.0
    q = sym.argmax(axis=2)
    bonds = []
    for i in keep:
        for j in keep:
            if i < j and q[i, j] != 0:
                bonds.append((remap[i], remap[j], int(q[i, j])))
    return Molecule.build(elements, bonds)


def raw_decode_batch(params: FlowParams, z: np.ndarray) -> list[Molecule]:
    """Every row of a (batch, d_total) latent block as a molecule, built with
    from_tensors on decode_tensors and never screened: decode_batch with no
    prescreen and no valency_check."""
    types, orders = decode_tensors(params, z)
    return [from_tensors(types[i], orders[i]) for i in range(len(z))]


def reference_generate_random(params: FlowParams, count: int, check: bool, temperature: float,
                              rng: ad.SeededRng, training: set[str] | None = None,
                              max_attempts_per: int = 100, batch_size: int = 1024):
    """generate_random with every sampled row built by raw_decode_batch and
    checked by valency_check, and every kept molecule canonicalized on its
    own: no prescreen, no shared molecules, no memo."""
    training = training or set()
    molecules = []
    raw_attempts = raw_valid = 0
    cap = count * max_attempts_per
    while len(molecules) < count:
        take = min(batch_size, cap - raw_attempts if check else count - len(molecules))
        if take <= 0:
            break
        z = sample_prior(rng, params.config, temperature=temperature, count=take)
        decoded = [m if valency_check(m) else None for m in raw_decode_batch(params, z)]
        raw_attempts += take
        raw_valid += sum(m is not None for m in decoded)
        molecules += [m for m in decoded if m is not None or not check][:count - len(molecules)]
    smiles = [safe_canonical(m) if m is not None else None for m in molecules]
    valid = [s for s in smiles if s is not None]
    returned = len(molecules)
    report = GenerationReport(
        requested=count,
        returned=returned,
        raw_attempts=raw_attempts,
        validity_pct=100.0 * len(valid) / returned if returned else 0.0,
        validity_wo_check_pct=100.0 * raw_valid / raw_attempts if raw_attempts else 0.0,
        novelty_pct=brute_force_novelty(valid, training),
        uniqueness_pct=brute_force_uniqueness(valid),
        cap_exhausted=check and returned < count,
        entries=[(i, s is not None, s or "") for i, s in enumerate(smiles)],
    )
    return molecules, report


def reference_layout_coordinates(mol: Molecule, rng: ad.SeededRng) -> np.ndarray:
    """layout_coordinates with bonds and repulsion as two separate passes
    per step, each summed into the gradient with np.add.at."""
    n = mol.num_atoms
    coords = rng.normal((n, 3), scale=1.2)
    if n == 1:
        return coords
    bond_idx = np.array([(i, j) for i, j, _ in mol.bonds], dtype=int).reshape(-1, 2)
    bond_len = np.array([_BOND_LENGTH[o] for *_, o in mol.bonds])
    bonded = {(i, j) for i, j, _ in mol.bonds}
    non_idx = np.array(
        [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in bonded],
        dtype=int,
    ).reshape(-1, 2)
    lr = 0.05
    for _ in range(_LAYOUT_STEPS):
        grad = np.zeros_like(coords)
        if len(bond_idx):
            d = coords[bond_idx[:, 0]] - coords[bond_idx[:, 1]]
            dist = np.linalg.norm(d, axis=1)
            pull = (2.0 * (dist - bond_len) / np.maximum(dist, 1e-9))[:, None] * d
            np.add.at(grad, bond_idx[:, 0], pull)
            np.add.at(grad, bond_idx[:, 1], -pull)
        if len(non_idx):
            d = coords[non_idx[:, 0]] - coords[non_idx[:, 1]]
            dist = np.linalg.norm(d, axis=1)
            close = dist < 2.4
            push = np.zeros_like(d)
            push[close] = (-2.0 * (2.4 - dist[close]) / np.maximum(dist[close], 1e-9))[:, None] * d[close]
            np.add.at(grad, non_idx[:, 0], push)
            np.add.at(grad, non_idx[:, 1], -push)
        coords = coords - lr * grad
    return coords - coords.mean(axis=0)


def within_valence(m: Molecule) -> bool:
    """valency_check less its connectivity part: at least one atom, and
    none bonded beyond its valence."""
    return m.num_atoms > 0 and all(m.bond_order_sum(i) <= VALENCE[el]
                                   for i, el in enumerate(m.elements))


# ---------------------------------------------------------------------------
# reference encoder: one molecule per tape, dense per-molecule matrices
# ---------------------------------------------------------------------------


@dataclass
class DenseGeometryCache:
    """One molecule's constant encoder matrices in dense form."""

    v0: np.ndarray            # (n, n_elements) one-hot
    radial: np.ndarray        # (E, n_radial)
    full: np.ndarray          # (E, geom_dim)
    recv_onehot: np.ndarray   # (E, n) picks v[receiver]
    send_onehot: np.ndarray   # (E, n) picks v[sender]
    agg_recv: np.ndarray      # (n, E) sums messages by receiver
    sender_pool: np.ndarray   # (E, E) sums, per edge j, messages into its sender

    @staticmethod
    def from_cache(cache: GeometryCache) -> "DenseGeometryCache":
        n, e = cache.v0.shape[0], cache.radial.shape[0]
        recv = np.zeros((e, n))
        send = np.zeros((e, n))
        recv[np.arange(e), cache.receivers] = 1.0
        send[np.arange(e), cache.senders] = 1.0
        agg = np.ascontiguousarray(recv.T)
        # sender_pool[j, k] = 1 if edge k is received by the sender of edge j
        return DenseGeometryCache(cache.v0, cache.radial, cache.full, recv, send, agg, send @ agg)


def reference_encode(params: SphereNetParams, cache: DenseGeometryCache):
    """The encoder output of one molecule, shape (out_dim,)."""
    has_edges = cache.radial.shape[0] > 0
    v = cache.v0 @ params.embedding
    u = np.zeros((1, params.config.hidden))
    e = apply_mlp(params.input_mlp, cache.radial) if has_edges else None
    for blk in params.blocks:
        if has_edges:
            feats = concat(
                [e, cache.recv_onehot @ v, cache.send_onehot @ v,
                 cache.sender_pool @ e, cache.full],
                axis=1,
            )
            e = apply_mlp(blk.g_e, feats)
            incident = cache.agg_recv @ e
        else:
            incident = np.zeros((cache.v0.shape[0], params.config.hidden))
        v = apply_mlp(blk.g_v, concat([v, incident], axis=1))
        atoms_sum = reshape(tsum(v, axis=0), (1, -1))
        u = apply_mlp(blk.g_u, concat([u, atoms_sum], axis=1))
    out = apply_mlp(params.output_mlp, u)
    return reshape(out, (-1,))


def onehot_encode_batch(params: SphereNetParams, caches: list[GeometryCache]):
    """``spherenet.encode_batch`` with every gather a product by a dense
    0/1 matrix and every block input one ``concat`` tape node."""
    sizes = [c.v0.shape[0] for c in caches]
    offsets = np.cumsum([0] + sizes[:-1])
    n_atoms = sum(sizes)
    recv = np.concatenate([c.receivers + o for c, o in zip(caches, offsets)])
    send = np.concatenate([c.senders + o for c, o in zip(caches, offsets)])
    to_recv = _one_hot(recv, n_atoms)    # (E, N) picks v[receiver]
    to_send = _one_hot(send, n_atoms)    # (E, N) picks v[sender]
    by_recv = to_recv.T                  # (N, E) sums messages by receiver
    by_mol = _one_hot(np.repeat(np.arange(len(caches)), sizes), len(caches)).T  # (B, N)
    full = np.concatenate([c.full for c in caches])
    v = np.concatenate([c.v0 for c in caches]) @ params.embedding
    u = np.zeros((len(caches), params.config.hidden))
    e = apply_mlp(params.input_mlp, np.concatenate([c.radial for c in caches]))
    incident = by_recv @ e
    for blk in params.blocks:
        feats = concat([e, to_recv @ v, to_send @ v, to_send @ incident, full], axis=1)
        e = apply_mlp(blk.g_e, feats)
        incident = by_recv @ e
        v = apply_mlp(blk.g_v, concat([v, incident], axis=1))
        u = apply_mlp(blk.g_u, concat([u, by_mol @ v], axis=1))
    return apply_mlp(params.output_mlp, u)


def tape_fusion_loss(z_m, u_star):
    """spherenet.fusion_loss composed of tape nodes."""
    diff = z_m - u_star
    dist = sqrt(tsum(diff * diff, axis=-1))
    return tsum(dist) * (1.0 / int(np.prod(np.shape(z_m)[:-1])))


# ---------------------------------------------------------------------------
# reference property head: the value and the training loss on the tape
# ---------------------------------------------------------------------------


def tape_value_and_grad(head, z: np.ndarray) -> tuple[float, np.ndarray]:
    """PropertyHead.value_and_grad through an ``mlp`` node on a Tensor leaf."""
    leaf = ad.Tensor(z.reshape(1, -1))
    scalar = reshape(apply_mlp(head.mlp, leaf), ())
    (grad,) = ad.backward(scalar, [leaf])
    return float(scalar.data), grad.reshape(-1).copy()


def tape_mse(head, x: np.ndarray, target: np.ndarray):
    """PropertyHead.mse composed of tape nodes."""
    diff = reshape(apply_mlp(head.mlp, x), (-1,)) - target
    return tsum(diff * diff) * (1.0 / len(x))


# ---------------------------------------------------------------------------
# reference flow latents: one molecule at a time
# ---------------------------------------------------------------------------


def reference_flow_encode(params: FlowParams, molecule: Molecule, rng: ad.SeededRng):
    """One molecule through the flow as a batch of one, dequantized from
    `rng` (atoms, then bonds): its (d_total,) latent, atoms first, and its
    log-likelihood."""
    cfg = params.config
    atom, bond = to_tensors(molecule, cfg.n_max)
    za, zb, loglik = encode_tensors(params, dequantize(atom[None], cfg.noise_scale, rng),
                                    dequantize(bond[None], cfg.noise_scale, rng))
    return np.concatenate([za.reshape(-1), zb.reshape(-1)]), float(loglik[0])


def reference_optimize_property(z0: np.ndarray, head, steps: int, step_size: float,
                                flow_params: FlowParams, property_fn=None):
    """optimize_property decoding each visited latent on its own, as the
    ascent reaches it, and valency-checking the decode."""
    z = np.asarray(z0, dtype=np.float64).copy()
    points = []
    for k in range(steps + 1):
        value, grad = head.value_and_grad(z)
        mol = raw_decode_batch(flow_params, z[None])[0]
        if not valency_check(mol):
            mol = None
        actual = float(property_fn(mol)) if mol is not None and property_fn else None
        points.append(TrajectoryPoint(z.copy(), value, mol, actual))
        if k < steps:
            z = z + step_size * grad
    return OptimizationTrajectory(points)


# ---------------------------------------------------------------------------
# reference seed-conditioned generation: one seed at a time
# ---------------------------------------------------------------------------


def reference_generate_similar(flow_params: FlowParams, sphere_params: SphereNetParams,
                               seeds, lam: float, rng: ad.SeededRng):
    """generate_similar one seed after another: encode the seed, decode its
    noise mixes in fixed rounds of 32 (seed `s_i` draws from
    ``rng.spawn(f"seed{s_i}")``) and keep the first valency-checked,
    canonicalizable one, drawing at most MAX_MIXES. The rounds are not
    generate_similar's, so a match shows that no row depends on them."""
    rows = []
    out = []
    for s_i, rec in enumerate(seeds):
        u_star = encode_geometry(rec.geometry(cutoff=sphere_params.config.cutoff), sphere_params)
        seed_rng = rng.spawn(f"seed{s_i}")
        mol = smiles = None
        drawn = 0
        while mol is None and drawn < MAX_MIXES:
            n_draw = min(32, MAX_MIXES - drawn)
            zs = np.stack([mix_noise(u_star, lam, seed_rng) for _ in range(n_draw)])
            drawn += n_draw
            for cand in raw_decode_batch(flow_params, zs):
                if valency_check(cand) and (smi := safe_canonical(cand)) is not None:
                    mol, smiles = cand, smi
                    break
        out.append(mol)
        if mol is not None:
            rows.append((len(rows), smiles, *pair_similarity_triple(mol, rec.molecule)))
    report = SimilarityReport(
        seed_smiles=[r.smiles for r in seeds],
        rows=rows,
        mean_tanimoto=float(np.mean([r[2] for r in rows])) if rows else 0.0,
        mean_fraggle=float(np.mean([r[3] for r in rows])) if rows else 0.0,
        mean_maccs=float(np.mean([r[4] for r in rows])) if rows else 0.0,
        failures=len(seeds) - len(rows),
    )
    return out, report


def reference_optimize_substructure(host: Molecule, fragment_atoms: set[int],
                                    flow_params: FlowParams, rng: ad.SeededRng,
                                    lam: float = 0.2) -> SubstructureResult:
    """optimize_substructure trying one noise mix at a time, from the same
    spawn streams, and counting each mix as it is tried."""
    pieces = excise_fragment(host, fragment_atoms)
    (u_star,), _ = encode_molecules(flow_params, [pieces.fragment], [rng.spawn("embed")])
    mix_rng = rng.spawn("mix")
    for tried in range(1, MAX_MIXES + 1):
        (cand,) = raw_decode_batch(flow_params, mix_noise(u_star, lam, mix_rng)[None])
        if not valency_check(cand):
            continue
        merged = attach_fragment(pieces.remainder, pieces.attachments, cand)
        if merged is not None and safe_canonical(merged) is not None:
            return SubstructureResult(merged, tried, True)
    return SubstructureResult(None, MAX_MIXES, False)


# ---------------------------------------------------------------------------
# reference Adam: one update per array, new arrays each step
# ---------------------------------------------------------------------------


@dataclass
class ListAdamState:
    """Adam state for a list of parameter arrays: one moment pair per array,
    and one rate per array (or None)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    rates: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3,
                   rates=None) -> "ListAdamState":
        return cls(lr=lr, m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   rates=None if rates is None else np.asarray(rates, dtype=np.float64))


def reference_adam_step(params: list[np.ndarray], grads: list[np.ndarray],
                        state: ListAdamState) -> list[np.ndarray]:
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


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale the gradient list so its global L2 norm is at most max_norm,
    which must be positive."""
    if not max_norm > 0.0:
        raise ValueError(f"clip norm must be positive, got {max_norm}")
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / total
    return [g * factor for g in grads]


def reference_make_optimizer(params, lr: float = 1e-3, rates=None) -> ListAdamState:
    """make_optimizer's state for the per-array update: no vector, no views."""
    return ListAdamState.for_params([a for _, a in params.named_params()], lr=lr, rates=rates)


def reference_fit_step(params, loss_of, opt: ListAdamState, clip_norm: float | None = None) -> float:
    """fit_step as a clip and an Adam update per array, each array then moved
    to arr + rate * (new - arr) when `opt` has rates, and written back; the
    gradients reach the leaves of ``traced(params)`` through one ``node``."""
    leaves = traced(params)[1]
    value, backward = loss_of(params)
    value = float(value)
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite training loss {value}")
    grads = ad.backward(node(leaves, (value,), backward, "loss")[0], leaves)
    del backward
    if clip_norm is not None:
        grads = clip_gradients(grads, clip_norm)
    arrays = [leaf.data for leaf in leaves]
    updated = reference_adam_step(arrays, grads, opt)
    if opt.rates is not None:
        updated = [arr + rate * (new - arr) for arr, rate, new in zip(arrays, opt.rates, updated)]
    for arr, new in zip(arrays, updated):
        arr[...] = new
    return value
