"""Invertible generative model over one-hot molecule tensors.

Two stacked affine-coupling flows: a bond flow on the (n, n, m) bond tensor
with alternating channel masks, and an atom flow on the (n, l) atom tensor
with alternating row masks whose scale/translation networks are additionally
conditioned on the discrete bond orders through two rounds of neighborhood
aggregation. Scales go through a sigmoid, so every factor lies in (0, 1)
and the inverse is exact algebra. Training maximizes the exact
log-likelihood: standard-normal density of the latent plus the accumulated
log-determinants of both tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, SeededRng, adam_step
from .chem import (N_ATOM_TYPES, N_BOND_TYPES, Molecule, from_tensors, to_tensors,
                   valence_prescreen, valency_check)

Array = np.ndarray


POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
_AT_LEAST_TWO = (lambda v: v >= 2, "at least 2")


def check_ranges(config, ranges: dict) -> None:
    """Raise ValueError naming the first field of `config` whose value fails
    its (check, description) entry in `ranges`."""
    for name, (ok, description) in ranges.items():
        value = getattr(config, name)
        if not ok(value):
            raise ValueError(f"{name} must be {description}, got {value!r}")


@dataclass(frozen=True)
class FlowConfig:
    n_max: int = 9
    n_atom_types: int = N_ATOM_TYPES
    n_bond_types: int = N_BOND_TYPES
    atom_layers: int = 6
    bond_layers: int = 6
    atom_hidden: int = 64
    bond_hidden: int = 64
    noise_scale: float = 0.4
    temperature: float = 0.7

    def __post_init__(self):
        check_ranges(self, _FLOW_RANGES)

    @property
    def d_atom(self) -> int:
        return self.n_max * self.n_atom_types

    @property
    def d_bond(self) -> int:
        return self.n_max * self.n_max * self.n_bond_types

    @property
    def d_total(self) -> int:
        return self.d_atom + self.d_bond


# the ranges RunConfig checks for the fields it maps onto these
_FLOW_RANGES = {
    "n_max": POSITIVE,
    "n_atom_types": _AT_LEAST_TWO,
    "n_bond_types": _AT_LEAST_TWO,
    "atom_layers": POSITIVE,
    "bond_layers": POSITIVE,
    "atom_hidden": POSITIVE,
    "bond_hidden": POSITIVE,
    "noise_scale": (lambda v: 0 < v <= 0.5, "in (0, 0.5]"),
    "temperature": NON_NEGATIVE,
}


class ParamTree:
    """Base of the parameter containers; each lists its arrays in
    ``named_params()``."""

    def set_param(self, name: str, value: Array) -> None:
        """Copy `value` into the array called `name`, in place (the array
        object is kept). Raises ValueError on an unknown name or wrong shape."""
        arr = dict(self.named_params()).get(name)
        if arr is None:
            raise ValueError(f"unknown parameter {name!r}")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != arr.shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, got {value.shape}")
        arr[...] = value


@dataclass
class Mlp:
    """Two-layer perceptron parameters (tanh hidden activation)."""

    w1: Array
    b1: Array
    w2: Array
    b2: Array

    def named(self, prefix: str):
        return [(f"{prefix}.w1", self.w1), (f"{prefix}.b1", self.b1),
                (f"{prefix}.w2", self.w2), (f"{prefix}.b2", self.b2)]


def mlp_init(rng: SeededRng, d_in: int, d_hidden: int, d_out: int,
             zero_last: bool = True, w1_scale: float = 1.0) -> Mlp:
    w1 = rng.normal((d_in, d_hidden), scale=w1_scale / np.sqrt(d_in))
    b1 = np.zeros(d_hidden)
    if zero_last:
        w2 = np.zeros((d_hidden, d_out))
    else:
        w2 = rng.normal((d_hidden, d_out), scale=1.0 / np.sqrt(d_hidden))
    b2 = np.zeros(d_out)
    return Mlp(w1, b1, w2, b2)


def apply_mlp(p: Mlp, x: Array) -> Array:
    return ad.mlp_forward(x, p.w1, p.b1, p.w2, p.b2)[1]


@dataclass
class FlowParams(ParamTree):
    """Trainable state of both flow tracks (the reverse-generation
    parameters are these same arrays): one scale/translation network per
    coupling layer. Layer i of a track keeps the half of parity i."""

    config: FlowConfig
    atom: list[Mlp] = field(default_factory=list)
    bond: list[Mlp] = field(default_factory=list)

    def named_params(self) -> list[tuple[str, Array]]:
        out = []
        for i, mlp in enumerate(self.atom):
            out += mlp.named(f"flow.atom.{i}")
        for i, mlp in enumerate(self.bond):
            out += mlp.named(f"flow.bond.{i}")
        return out


def init_flow(config: FlowConfig, rng: SeededRng, zero_last: bool = True) -> FlowParams:
    """Fresh parameters. With `zero_last` the scale/translation nets output
    exactly zero, so every untrained layer is z = 0.5 * x (sigma(0) = 0.5)."""
    l = config.n_atom_types
    m = config.n_bond_types
    n_channels = m - 1  # bond-order channels used for conditioning
    atom_in = l + 2 * n_channels * l
    atom = [mlp_init(rng.spawn(f"atom{i}"), atom_in, config.atom_hidden, 2 * l, zero_last)
            for i in range(config.atom_layers)]
    nn = config.n_max * config.n_max
    bond = []
    for i in range(config.bond_layers):
        kept = len(range(i % 2, m, 2))  # channels of layer i's parity
        bond.append(mlp_init(rng.spawn(f"bond{i}"), nn * kept, config.bond_hidden,
                             2 * nn * (m - kept), zero_last))
    return FlowParams(config, atom, bond)


# ---------------------------------------------------------------------------
# dequantization and discretization
# ---------------------------------------------------------------------------


def dequantize(onehot: Array, noise_scale: float, rng: SeededRng) -> Array:
    """x = onehot * (1 - noise_scale) + U(0, noise_scale).

    The hot channel lands in [1 - s, 1) and the others in [0, s), so argmax
    recovers the one-hot input exactly when s <= 0.5; larger scales are
    refused.
    """
    if not 0.0 < noise_scale <= 0.5:
        raise ValueError(f"noise_scale must lie in (0, 0.5], got {noise_scale}")
    return onehot * (1.0 - noise_scale) + rng.uniform(0.0, noise_scale, onehot.shape)


def discretize_bonds(xb: Array) -> Array:
    """Symmetrize-then-argmax a continuous (batch, n, n, m) bond tensor
    into (batch, n, n) bond orders, 0 meaning no bond.

    The (i,j) and (j,i) logits are averaged before the argmax, and the
    diagonal is forced to 0, so the result is exactly symmetric with a
    no-bond diagonal.
    """
    sym = (xb + xb.transpose(0, 2, 1, 3)) / 2.0
    q = sym.argmax(axis=3)
    idx = np.arange(xb.shape[1])
    q[:, idx, idx] = 0
    return q


def atom_condition(orders: Array, m: int) -> list[tuple[Array, Array]]:
    """The atom track's condition, built once per stack from (batch, n, n)
    bond orders below `m`. Entry p serves the layers that keep the rows of
    parity p, as (by_order, adj_sum):

    - by_order (batch, n*(m-1), kept): row i*(m-1) + q-1 marks atom i's
      bonds of order q to each kept row;
    - adj_sum (batch, transformed, n): each transformed row's bonds of any
      order to every row."""
    batch, n, _ = orders.shape
    by_order = (orders[:, :, None, :] == np.arange(1, m)[:, None]).astype(np.float64)
    by_order = by_order.reshape(batch, n * (m - 1), n)
    adj_sum = (orders > 0).astype(np.float64)
    return [(np.ascontiguousarray(by_order[:, :, p::2]),
             np.ascontiguousarray(adj_sum[:, 1 - p::2])) for p in (0, 1)]


# ---------------------------------------------------------------------------
# coupling layers
# ---------------------------------------------------------------------------


def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; the quotient equals 1/(1+exp(-x)) for
    # x >= 0 and exp(x)/(1+exp(x)) below, bit for bit
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    num /= e
    return num


def _coupling(x: Array, mlp: Mlp, kept: tuple, trans: tuple, features, features_grad,
              inverse: bool):
    """The affine coupling both tracks share. ``x[kept]`` passes through;
    ``features(x[kept])`` is the input of `mlp`, whose output's last axis
    holds [s | t] for ``x[trans]``, which becomes x*sigmoid(s)+t. Returns
    (z, this layer's per-sample logdet, backward); with `inverse` the exact
    inverse and None, None. ``backward(g_z, g_ld, input_grad)`` returns
    (g_x, the gradients of `mlp`'s four arrays); g_x, None unless
    `input_grad`, goes back to ``x[kept]`` through ``features_grad``, the
    transpose of `features`."""
    w1, w2 = mlp.w1, mlp.w2
    x_kept, x_trans = x[kept], x[trans]
    feats = features(x_kept)
    h, st = ad.mlp_forward(feats, w1, mlp.b1, w2, mlp.b2)
    half = st.shape[-1] // 2
    s = st[..., :half].reshape(x_trans.shape)
    t = st[..., half:].reshape(x_trans.shape)
    scale = _sigmoid(s)
    z = np.empty(x.shape)
    z[kept] = x_kept
    new = z[trans]
    if inverse:
        np.subtract(x_trans, t, out=new)
        new /= scale
        return z, None, None
    np.multiply(x_trans, scale, out=new)
    new += t
    log_scale = np.minimum(s, 0.0) - np.log1p(np.exp(-np.abs(s)))
    logdet = log_scale.sum(axis=tuple(range(1, s.ndim)))

    def backward(g_z, g_ld, input_grad):
        # y = x_trans*sigmoid(s) + t and logdet = sum(log sigmoid(s)), with
        # the products in the order of the separate mul and sigmoid nodes
        g_y = g_z[trans]
        g_s = g_y * x_trans
        g_s *= scale
        g_s *= 1.0 - scale
        g_s += g_ld.reshape((-1,) + (1,) * (s.ndim - 1)) * _sigmoid(-s)
        rows = st.shape[:-1] + (half,)
        g_st = np.concatenate([g_s.reshape(rows), g_y.reshape(rows)], axis=-1)
        g_feats, *g_params = ad.mlp_backward(g_st, feats, h, w1, w2, (input_grad,) + (True,) * 4)
        if g_feats is None:
            return None, g_params
        g_x = np.empty(x.shape)
        np.add(g_z[kept], features_grad(g_feats[0]), out=g_x[kept])
        np.multiply(g_y, scale, out=g_x[trans])
        return g_x, g_params

    return z, logdet, backward


def atom_coupling(x: Array, mlp: Mlp, index: int, cond: list[tuple[Array, Array]],
                  inverse: bool = False):
    """Atom-track coupling layer `index` on a (batch, n, l) tensor: rows of
    parity `index` are kept, the others become x*sigmoid(s)+t with (s, t)
    from `mlp` over the kept rows and their neighbourhoods, where `cond` is
    ``atom_condition`` of the discrete bonds. Returns ``_coupling``'s (z,
    per-sample logdet, backward); with `inverse` the exact inverse and None,
    None.

    Only the transformed rows go through `mlp`. Each one's features are
    [own row with x masked out (zeros), h1, h2]: h1 sums the kept rows over
    its neighbours of each bond order, h2 sums h1 over all its neighbours.
    So the first l input rows of ``mlp.w1`` only ever multiply zeros: they
    get zero gradient and keep their initial values."""
    batch, n, l = x.shape
    kept_rows, trans_rows = slice(index % 2, None, 2), slice(1 - index % 2, None, 2)
    by_order, adj_sum = cond[index % 2]
    n_trans = adj_sum.shape[1]

    def features(x_kept):
        h1 = (by_order @ x_kept).reshape(batch, n, -1)
        return np.concatenate([np.zeros((batch, n_trans, l)), h1[:, trans_rows], adj_sum @ h1],
                              axis=2)

    def features_grad(g):
        width = (g.shape[2] - l) // 2  # of h1 and of h2
        g_h1 = np.swapaxes(adj_sum, 1, 2) @ g[:, :, l + width:]
        g_h1[:, trans_rows] += g[:, :, l:l + width]
        return np.swapaxes(by_order, 1, 2) @ g_h1.reshape(batch, -1, l)

    return _coupling(x, mlp, (slice(None), kept_rows), (slice(None), trans_rows),
                     features, features_grad, inverse)


def bond_coupling(x: Array, mlp: Mlp, index: int, inverse: bool = False):
    """Bond-track coupling layer `index` on a (batch, n, n, m) tensor:
    channels of parity `index` are kept, the others become x*sigmoid(s)+t
    with (s, t) from `mlp` over the kept channels. Returns ``_coupling``'s
    (z, per-sample logdet, backward); with `inverse` the exact inverse and
    None, None."""
    batch, n, _, m = x.shape
    kept_ch = slice(index % 2, None, 2)
    kept_shape = (batch, n, n, len(range(m)[kept_ch]))
    return _coupling(x, mlp, (..., kept_ch), (..., slice(1 - index % 2, None, 2)),
                     lambda kept: kept.reshape(batch, -1), lambda g: g.reshape(kept_shape),
                     inverse)


# ---------------------------------------------------------------------------
# stacked flows
# ---------------------------------------------------------------------------


def _stack(coupling, x: Array, mlps: list[Mlp], *cond):
    """``coupling(x, mlps[i], i, *cond)`` for each layer i in order: (z, the
    per-sample sum of the layers' logdets, backward), where ``backward(g_z,
    g_ld)`` chains the layers' backwards into the gradients of every layer's
    four arrays, in layer order."""
    logdet, backwards = None, []
    for i, mlp in enumerate(mlps):
        x, layer_logdet, layer_backward = coupling(x, mlp, i, *cond)
        logdet = layer_logdet if logdet is None else logdet + layer_logdet
        backwards.append(layer_backward)

    def backward(g_z, g_ld):
        grads = [None] * len(backwards)
        for i in reversed(range(len(backwards))):
            g_z, grads[i] = backwards[i](g_z, g_ld, i > 0)
        return [g for layer in grads for g in layer]

    return x, logdet, backward


def atom_flow_forward(params: FlowParams, x: Array, orders: Array):
    """The atom track on (batch, n, l) `x`, conditioned on the discrete
    bond `orders`: ``_stack``'s (z, logdet, backward) over ``params.atom``."""
    return _stack(atom_coupling, x, params.atom, atom_condition(orders, params.config.n_bond_types))


def atom_flow_inverse(params: FlowParams, z: Array, orders: Array) -> Array:
    cond = atom_condition(orders, params.config.n_bond_types)
    for i in reversed(range(len(params.atom))):
        z = atom_coupling(z, params.atom[i], i, cond, inverse=True)[0]
    return z


def bond_flow_forward(params: FlowParams, x: Array):
    """The bond track on (batch, n, n, m) `x`: ``_stack``'s (z, logdet,
    backward) over ``params.bond``."""
    return _stack(bond_coupling, x, params.bond)


def bond_flow_inverse(params: FlowParams, z: Array) -> Array:
    for i in reversed(range(len(params.bond))):
        z = bond_coupling(z, params.bond[i], i, inverse=True)[0]
    return z


def gauss_log_density(z: Array, d: int) -> Array:
    """Standard-normal log density summed over the last flattened dims."""
    return (z * z).sum(axis=tuple(range(1, z.ndim))) * -0.5 - 0.5 * d * np.log(2.0 * np.pi)


def encode_continuous(params: FlowParams, xa: Array, xb: Array):
    """Push continuous tensors through both tracks.

    The atom track is conditioned on the discretized bond input. Returns
    (za, zb, logdet_atom, logdet_bond), all batched.
    """
    zb, ld_b, _ = bond_flow_forward(params, xb)
    za, ld_a, _ = atom_flow_forward(params, xa, discretize_bonds(xb))
    return za, zb, ld_a, ld_b


def decode_continuous(params: FlowParams, za: Array, zb: Array) -> tuple[Array, Array]:
    """Exact inverse of ``encode_continuous``."""
    xb = bond_flow_inverse(params, zb)
    xa = atom_flow_inverse(params, za, discretize_bonds(xb))
    return xa, xb


def _log_likelihood(cfg: FlowConfig, za: Array, zb: Array, ld_a: Array, ld_b: Array) -> Array:
    """Per-sample exact log-likelihood of latents and their logdets."""
    if not (np.all(np.isfinite(za)) and np.all(np.isfinite(zb))):
        raise FloatingPointError("non-finite latent during encode")
    return gauss_log_density(za, cfg.d_atom) + ld_a + gauss_log_density(zb, cfg.d_bond) + ld_b


def encode_tensors(params: FlowParams, xa: Array, xb: Array):
    """``encode_continuous`` dequantized (batch, ...) tensors; the atom
    track's condition, the discretized bonds, is the one-hot bond input
    again for noise scales up to 0.5. Returns (za, zb, log_likelihood per
    sample)."""
    za, zb, ld_a, ld_b = encode_continuous(params, xa, xb)
    return za, zb, _log_likelihood(params.config, za, zb, ld_a, ld_b)


def mean_nll(params: FlowParams, xa: Array, xb: Array):
    """Mean negative log-likelihood of dequantized (batch, ...) tensors, as
    ``encode_continuous`` computes it, and its backward: ``backward(g)``
    hands each latent the gradient of its Gaussian term and each logdet
    -g/batch per sample, and returns the gradients of ``named_params()``."""
    zb, ld_b, bond_backward = bond_flow_forward(params, xb)
    za, ld_a, atom_backward = atom_flow_forward(params, xa, discretize_bonds(xb))
    k = -1.0 / len(xa)
    loss = _log_likelihood(params.config, za, zb, ld_a, ld_b).sum() * k

    def backward(g):
        g_loglik = np.full(len(xa), g * k)

        def g_gauss(z):
            # d(-0.5 z.z)/dz, summed as the two factors of z*z
            half = z * (g_loglik * -0.5).reshape((-1,) + (1,) * (z.ndim - 1))
            return half + half

        return atom_backward(g_gauss(za), g_loglik) + bond_backward(g_gauss(zb), g_loglik)

    return loss, backward


def encode_molecules(params: FlowParams, molecules: list[Molecule],
                     rngs: list[SeededRng]) -> tuple[Array, Array]:
    """Encode a batch of molecules in one ``encode_tensors`` pass; molecule
    k is dequantized from ``rngs[k]``, atoms first, then bonds. Returns the
    (B, d_total) latents, atoms first (z_atom || z_bond), and the B exact
    log-likelihoods."""
    cfg = params.config
    tensors = [to_tensors(m, cfg.n_max) for m in molecules]
    deq = [(dequantize(atom, cfg.noise_scale, rng), dequantize(bond, cfg.noise_scale, rng))
           for (atom, bond), rng in zip(tensors, rngs, strict=True)]
    za, zb, loglik = encode_tensors(params, np.stack([a for a, _ in deq]),
                                    np.stack([b for _, b in deq]))
    return np.concatenate([za.reshape(len(deq), -1), zb.reshape(len(deq), -1)], axis=1), loglik


def decode_tensors(params: FlowParams, z: Array) -> tuple[Array, Array]:
    """Invert a (batch, d_total) latent block into what ``from_tensors``
    reads: the (batch, n) atom types (the last type is padding) and the
    symmetric (batch, n, n) bond orders."""
    cfg = params.config
    za = z[:, : cfg.d_atom].reshape(-1, cfg.n_max, cfg.n_atom_types)
    zb = z[:, cfg.d_atom:].reshape(-1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
    xa, xb = decode_continuous(params, za, zb)
    return xa.argmax(axis=2), discretize_bonds(xb)


def decode_batch(params: FlowParams, z: Array) -> list[Molecule | None]:
    """Invert a (batch, d_total) latent block into each row's molecule, or
    None for a row that fails ``valency_check``. Only the rows that pass
    ``valence_prescreen``, a necessary condition for it, are built with
    ``from_tensors`` and checked, each distinct row once: equal rows share
    one ``Molecule`` (or None)."""
    types, orders = decode_tensors(params, z)
    out: list[Molecule | None] = [None] * len(types)
    built: dict[bytes, Molecule | None] = {}
    for i in np.flatnonzero(valence_prescreen(types, orders)):
        key = types[i].tobytes() + orders[i].tobytes()
        if key not in built:
            mol = from_tensors(types[i], orders[i])
            built[key] = mol if valency_check(mol) else None
        out[i] = built[key]
    return out


def sample_prior(rng: SeededRng, config: FlowConfig, temperature: float,
                 count: int = 1) -> Array:
    """z ~ N(0, temperature^2 I), shape (count, d_total)."""
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    return rng.normal((count, config.d_total), scale=1.0) * temperature


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def make_optimizer(params: ParamTree, lr: float = 1e-3, rates=None) -> AdamState:
    """Adam state over one vector that holds a copy of every array of
    `params`; each field of `params` is then rebound to its view into that
    vector, so ``named_params()`` lists the optimizer's own arrays.
    `rates` gives one rate per array, in ``named_params()`` order, or None."""
    opt = AdamState.over([a for _, a in params.named_params()], lr=lr, rates=rates)
    ad.rebind(params, opt.views)
    if any(a is not view for (_, a), view in zip(params.named_params(), opt.views)):
        raise ValueError("named_params() must list the arrays in field order")
    return opt


def _clip_scale(grads: list[Array], max_norm: float) -> float:
    """The factor that brings the global L2 norm of `grads` down to
    `max_norm`, which must be positive; 1.0 when the norm is within it."""
    if not max_norm > 0.0:
        raise ValueError(f"clip norm must be positive, got {max_norm}")
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if not total > max_norm:
        return 1.0
    return max_norm / total


def fit_step(params: ParamTree, loss_of, opt: AdamState,
             clip_norm: float | None = None) -> float:
    """One Adam step on the loss ``loss_of(params)``, given as (value,
    backward) with ``backward(g)`` giving one gradient per ``named_params()``
    array; returns the value. `opt` is ``make_optimizer(params)``'s: the step
    updates its vector, which the arrays of `params` view, and advances it.
    A field of `params` that no longer holds its view, a backward with the
    wrong count or shapes of gradients, and a non-finite loss or gradient
    each raise with nothing changed. The loss is one tape node over one leaf
    per array, so a step walks the tape (``Tensor.backward``) once."""
    arrays = [a for _, a in params.named_params()]
    if len(arrays) != len(opt.views) or any(a is not v for a, v in zip(arrays, opt.views)):
        raise ValueError("a parameter array is not the optimizer's view of it "
                         "(was a field rebound after make_optimizer?)")
    value, loss_backward = loss_of(params)
    value = float(value)
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite training loss {value}")
    leaves = [ad.Tensor(v) for v in opt.views]
    grads = ad.backward(ad.node(leaves, value, loss_backward, "loss"), leaves)
    # A new flat gradient each step, allocated while the backward's saved
    # arrays are live and kept in `opt` until the next step frees it just
    # before making its own: with one buffer for the whole fit, nothing
    # would sit above a step's freed temporaries, so glibc would return that
    # heap top to the system after every step and the next step would fault
    # it back in (train_step at hidden 128: 20x the minor faults, 20% slower).
    opt.grad = None
    opt.grad = np.concatenate([g.reshape(-1) for g in grads])
    # the saved arrays and the leaf gradients are no longer needed: free them before Adam
    del loss_backward, leaves, grads
    scale = 1.0 if clip_norm is None else _clip_scale(opt.split(opt.grad), clip_norm)
    adam_step(opt.grad, opt, scale)
    return value


def train_step(params: FlowParams, atom: Array, bond: Array, opt: AdamState,
               rng: SeededRng, clip_norm: float | None = None) -> float:
    """One ``fit_step`` on mean negative log-likelihood over the batch
    (parameters updated in place); returns the step's mean NLL."""
    if atom.shape[0] == 0:
        raise ValueError("empty batch")
    cfg = params.config
    xa = dequantize(atom, cfg.noise_scale, rng)
    xb = dequantize(bond, cfg.noise_scale, rng)
    return fit_step(params, lambda p: mean_nll(p, xa, xb), opt, clip_norm=clip_norm)
