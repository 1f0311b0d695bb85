"""Invertible generative model over one-hot molecule tensors.

Two stacked affine-coupling flows: a bond flow on the (n, n, m) bond tensor
with alternating channel masks, and an atom flow on the (n, l) atom tensor
with alternating row masks whose scale/translation networks are additionally
conditioned on the discrete bond tensor through two rounds of neighborhood
aggregation. Scales go through a sigmoid, so every factor lies in (0, 1)
and the inverse is exact algebra. Training maximizes the exact
log-likelihood: standard-normal density of the latent plus the accumulated
log-determinants of both tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, SeededRng, Tensor, adam_step
from .chem import Molecule, from_tensors, to_tensors, valency_check

Array = np.ndarray


@dataclass(frozen=True)
class FlowConfig:
    n_max: int = 9
    n_atom_types: int = 5   # elements plus the padding type
    n_bond_types: int = 4   # no-bond plus the three bond orders
    atom_layers: int = 6
    bond_layers: int = 6
    atom_hidden: int = 64
    bond_hidden: int = 64
    noise_scale: float = 0.4
    temperature: float = 0.7

    @property
    def d_atom(self) -> int:
        return self.n_max * self.n_atom_types

    @property
    def d_bond(self) -> int:
        return self.n_max * self.n_max * self.n_bond_types

    @property
    def d_total(self) -> int:
        return self.d_atom + self.d_bond


@dataclass(frozen=True)
class LatentVector:
    """Flow latent, atoms first: z = z_atom || z_bond."""

    z_atom: Array
    z_bond: Array

    @property
    def z(self) -> Array:
        return np.concatenate([self.z_atom, self.z_bond])

    @staticmethod
    def split(z: Array, config: FlowConfig) -> "LatentVector":
        if z.shape != (config.d_total,):
            raise ValueError(f"latent length {z.shape} != ({config.d_total},)")
        return LatentVector(z[: config.d_atom].copy(), z[config.d_atom:].copy())


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


def apply_mlp(p: Mlp, x):
    h = ad.tanh(x @ p.w1 + p.b1)
    return h @ p.w2 + p.b2


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
    kept = (m + 1) // 2
    bond_in = config.n_max * config.n_max * kept
    bond_out = 2 * config.n_max * config.n_max * (m - kept)
    bond = [mlp_init(rng.spawn(f"bond{i}"), bond_in, config.bond_hidden, bond_out, zero_last)
            for i in range(config.bond_layers)]
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
    """Symmetrize-then-argmax a continuous bond tensor into a one-hot one.

    The (i,j) and (j,i) logits are averaged before the argmax, and the
    diagonal is forced to the no-bond channel, so the result is exactly
    symmetric with a no-bond diagonal.
    """
    sym = (xb + xb.transpose(0, 2, 1, 3)) / 2.0
    q = sym.argmax(axis=3)
    n = xb.shape[1]
    idx = np.arange(n)
    q[:, idx, idx] = 0
    out = np.zeros_like(xb)
    b_idx = np.arange(xb.shape[0])[:, None, None]
    out[b_idx, idx[None, :, None], idx[None, None, :], q] = 1.0
    return out


def _bond_channels(bond_disc: Array) -> list[Array]:
    """Per-order adjacency matrices (constants) used as atom-flow
    conditioning."""
    m = bond_disc.shape[3]
    return [np.ascontiguousarray(bond_disc[:, :, :, q]) for q in range(1, m)]


# ---------------------------------------------------------------------------
# coupling layers
# ---------------------------------------------------------------------------


def _atom_masks(n: int, index: int) -> tuple[Array, Array]:
    keep = np.zeros((n, 1))
    keep[index % 2:: 2] = 1.0
    return keep, 1.0 - keep


def _atom_st(x_masked, mlp: Mlp, channels: list[Array]):
    l = (x_masked.shape if isinstance(x_masked, np.ndarray) else x_masked.data.shape)[2]
    h1 = ad.concat([adj @ x_masked for adj in channels], axis=2)
    adj_sum = sum(channels[1:], channels[0])
    h2 = adj_sum @ h1
    feats = ad.concat([x_masked, h1, h2], axis=2)
    st = apply_mlp(mlp, feats)
    s_raw = ad.gather(st, range(l), axis=2)
    t = ad.gather(st, range(l, 2 * l), axis=2)
    return s_raw, t


def atom_coupling(x, mlp: Mlp, index: int, bond_disc: Array, inverse: bool = False):
    """Atom-track coupling layer `index` on a (batch, n, l) tensor: rows of
    parity `index` are kept, the others become x*sigmoid(s)+t with (s, t)
    from `mlp` over the kept rows and their neighbourhoods in `bond_disc`.
    Returns (z, per-sample logdet); with `inverse` the exact inverse (numpy
    only) and logdet None."""
    if inverse and not isinstance(x, np.ndarray):
        raise TypeError("the inverse path is numpy-only (no gradients flow backward)")
    n = x.shape[1] if isinstance(x, np.ndarray) else x.data.shape[1]
    keep, trans = _atom_masks(n, index)
    channels = _bond_channels(bond_disc)
    x_masked = x * keep
    s_raw, t = _atom_st(x_masked, mlp, channels)
    scale = ad.sigmoid(s_raw)
    if inverse:
        return x * keep + ((x - t) / scale) * trans, None
    z = x * keep + (x * scale + t) * trans
    logdet = ad.tsum(ad.log_sigmoid(s_raw) * trans, axis=(1, 2))
    return z, logdet


def bond_coupling(x, mlp: Mlp, index: int, inverse: bool = False):
    """Bond-track coupling layer `index` on a (batch, n, n, m) tensor:
    channels of parity `index` are kept, the others become x*sigmoid(s)+t
    with (s, t) from `mlp` over the kept channels. Returns (z, per-sample
    logdet); with `inverse` the exact inverse and logdet None."""
    shape = x.shape if isinstance(x, np.ndarray) else x.data.shape
    batch, n, _, m = shape
    kept_ch = list(range(index % 2, m, 2))
    trans_ch = list(range(1 - index % 2, m, 2))
    kept = ad.gather(x, kept_ch, axis=3)
    flat = ad.reshape(kept, (batch, n * n * len(kept_ch)))
    st = apply_mlp(mlp, flat)
    half = n * n * len(trans_ch)
    s_raw = ad.reshape(ad.gather(st, range(half), axis=1), (batch, n, n, len(trans_ch)))
    t = ad.reshape(ad.gather(st, range(half, 2 * half), axis=1), (batch, n, n, len(trans_ch)))
    scale = ad.sigmoid(s_raw)
    trans = ad.gather(x, trans_ch, axis=3)
    if inverse:
        new_trans = (trans - t) / scale
        logdet = None
    else:
        new_trans = trans * scale + t
        logdet = ad.tsum(ad.log_sigmoid(s_raw), axis=(1, 2, 3))
    # kept || transformed, put back in channel order
    order = np.argsort(kept_ch + trans_ch)
    return ad.gather(ad.concat([kept, new_trans], axis=3), order, axis=3), logdet


# ---------------------------------------------------------------------------
# stacked flows
# ---------------------------------------------------------------------------


def atom_flow_forward(params: FlowParams, x, bond_disc: Array):
    logdet = None
    for i, mlp in enumerate(params.atom):
        x, ld = atom_coupling(x, mlp, i, bond_disc)
        logdet = ld if logdet is None else logdet + ld
    return x, logdet


def atom_flow_inverse(params: FlowParams, z: Array, bond_disc: Array) -> Array:
    for i in reversed(range(len(params.atom))):
        z, _ = atom_coupling(z, params.atom[i], i, bond_disc, inverse=True)
    return z


def bond_flow_forward(params: FlowParams, x):
    logdet = None
    for i, mlp in enumerate(params.bond):
        x, ld = bond_coupling(x, mlp, i)
        logdet = ld if logdet is None else logdet + ld
    return x, logdet


def bond_flow_inverse(params: FlowParams, z: Array) -> Array:
    for i in reversed(range(len(params.bond))):
        z, _ = bond_coupling(z, params.bond[i], i, inverse=True)
    return z


def gauss_log_density(z, d: int):
    """Standard-normal log density summed over the last flattened dims."""
    axes = tuple(range(1, z.data.ndim if isinstance(z, Tensor) else z.ndim))
    return ad.tsum(z * z, axis=axes) * -0.5 - 0.5 * d * np.log(2.0 * np.pi)


def encode_continuous(params: FlowParams, xa: Array, xb: Array):
    """Push continuous tensors through both tracks.

    The atom track is conditioned on the discretized bond input. Returns
    (za, zb, logdet_atom, logdet_bond), all batched.
    """
    bond_disc = discretize_bonds(xb)
    zb, ld_b = bond_flow_forward(params, xb)
    za, ld_a = atom_flow_forward(params, xa, bond_disc)
    return za, zb, ld_a, ld_b


def decode_continuous(params: FlowParams, za: Array, zb: Array) -> tuple[Array, Array]:
    """Exact inverse of ``encode_continuous``."""
    xb = bond_flow_inverse(params, zb)
    bond_disc = discretize_bonds(xb)
    xa = atom_flow_inverse(params, za, bond_disc)
    return xa, xb


def encode_tensors(params: FlowParams, atom: Array, bond: Array, rng: SeededRng,
                   noise_scale: float | None = None):
    """Dequantize one-hot batches and ``encode_continuous`` them; the atom
    track's condition, the discretized bonds, is `bond` again for noise
    scales up to 0.5. Returns (za, zb, log_likelihood per sample)."""
    cfg = params.config
    scale = cfg.noise_scale if noise_scale is None else noise_scale
    za, zb, ld_a, ld_b = encode_continuous(params, dequantize(atom, scale, rng),
                                           dequantize(bond, scale, rng))
    loglik = (gauss_log_density(za, cfg.d_atom) + ld_a
              + gauss_log_density(zb, cfg.d_bond) + ld_b)
    data_a = za.data if isinstance(za, Tensor) else za
    data_b = zb.data if isinstance(zb, Tensor) else zb
    if not (np.all(np.isfinite(data_a)) and np.all(np.isfinite(data_b))):
        raise FloatingPointError("non-finite latent during encode")
    return za, zb, loglik


def encode(params: FlowParams, molecule: Molecule, rng: SeededRng,
           noise_scale: float | None = None) -> tuple[LatentVector, float]:
    """Encode one molecule; returns its latent and exact log-likelihood."""
    cfg = params.config
    atom, bond = to_tensors(molecule, cfg.n_max)
    za, zb, loglik = encode_tensors(params, atom[None], bond[None], rng, noise_scale)
    return (
        LatentVector(za.reshape(-1), zb.reshape(-1)),
        float(loglik[0]),
    )


def decode_tensors(params: FlowParams, z: Array) -> tuple[Array, Array]:
    """Invert a (batch, d_total) latent block into the continuous atom
    tensor and the discretized bond tensor that ``from_tensors`` reads."""
    cfg = params.config
    za = z[:, : cfg.d_atom].reshape(-1, cfg.n_max, cfg.n_atom_types)
    zb = z[:, cfg.d_atom:].reshape(-1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
    xa, xb = decode_continuous(params, za, zb)
    return xa, discretize_bonds(xb)


def decode_batch(params: FlowParams, z: Array) -> list[Molecule]:
    """Invert a (batch, d_total) latent block into raw molecules (no
    valency screening)."""
    xa, bond_disc = decode_tensors(params, z)
    return [from_tensors(xa[i], bond_disc[i]) for i in range(z.shape[0])]


def decode(params: FlowParams, z: LatentVector | Array,
           check_valency: bool = True) -> Molecule | None:
    """Invert one latent into a molecule.

    With the valency check on, a chemically invalid sample is rejected and
    None is returned so the caller can resample.
    """
    vec = z.z if isinstance(z, LatentVector) else np.asarray(z)
    mol = decode_batch(params, vec[None])[0]
    if check_valency and not valency_check(mol):
        return None
    return mol


def sample_prior(rng: SeededRng, config: FlowConfig,
                 temperature: float | None = None, count: int = 1) -> Array:
    """z ~ N(0, temperature^2 I), shape (count, d_total)."""
    t = config.temperature if temperature is None else temperature
    if t < 0.0:
        raise ValueError("temperature must be non-negative")
    return rng.normal((count, config.d_total), scale=1.0) * t


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def make_optimizer(params: ParamTree, lr: float = 1e-3) -> AdamState:
    return AdamState.for_params([a for _, a in params.named_params()], lr=lr)


def clip_gradients(grads: list[Array], max_norm: float) -> list[Array]:
    """Scale the gradient list so its global L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / total
    return [g * factor for g in grads]


def fit_step(params: ParamTree, loss_of, opt: AdamState, clip_norm: float | None = None,
             rates: Array | None = None) -> float:
    """One Adam step on the scalar ``loss_of(ad.traced(params)[0])``; returns
    the loss. Updates every array of `params` in place and advances `opt`; a
    non-finite loss aborts with nothing changed. With `rates` (one per array,
    in ``named_params()`` order) each array becomes arr + rate * (new - arr).
    """
    view, leaves = ad.traced(params)
    loss = loss_of(view)
    if not np.isfinite(loss.data):
        raise FloatingPointError(f"non-finite training loss {loss.data}")
    grads = ad.backward(loss, leaves)
    if clip_norm is not None:
        grads = clip_gradients(grads, clip_norm)
    arrays = [leaf.data for leaf in leaves]
    updated = adam_step(arrays, grads, opt)
    if rates is not None:
        updated = [arr + rate * (new - arr) for arr, rate, new in zip(arrays, rates, updated)]
    for arr, new in zip(arrays, updated):
        arr[...] = new
    return float(loss.data)


def train_step(params: FlowParams, atom: Array, bond: Array, opt: AdamState,
               rng: SeededRng, clip_norm: float | None = None) -> float:
    """One ``fit_step`` on mean negative log-likelihood over the batch
    (parameters updated in place); returns the step's mean NLL."""
    if atom.shape[0] == 0:
        raise ValueError("empty batch")

    def mean_nll(view: FlowParams):
        _, _, loglik = encode_tensors(view, atom, bond, rng)
        return ad.tsum(loglik) * (-1.0 / atom.shape[0])

    return fit_step(params, mean_nll, opt, clip_norm=clip_norm)
