"""Spherical message-passing encoder aligned with the flow latent.

The encoder follows the input/interaction/output block layout: the input
block builds initial edge messages from the radial representation alone;
each interaction block updates edges from (message, receiver and sender
features, the sender's incoming messages, and the full geometric
representation), then atoms from their incident edges, then the global
feature from all atoms; the output block projects the global feature to the
flow's latent dimension. All aggregations are sums, so the output is
invariant to atom relabeling, and the geometric features are invariant to
rigid motions.

Fusion training regresses the encoder output onto the flow latent of the
same molecule (Euclidean-norm loss, batch mean), with the flow frozen. The
per-molecule regression target is computed once with a fixed dequantization
seed so it is stable across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
# unused here, but perfbench's tracer patches spherenet.adam_step
from .autodiff import SeededRng, Tensor, adam_step  # noqa: F401
from .chem import ELEMENTS
from .dataset import DatasetRecord
from .flow import (FlowParams, Mlp, ParamTree, apply_mlp, encode, fit_step, make_optimizer,
                   mlp_init)
from .geom3d import Geometry, edge_feature_matrix

Array = np.ndarray


@dataclass(frozen=True)
class SphereNetConfig:
    hidden: int = 64
    n_blocks: int = 2
    n_radial: int = 8
    max_degree: int = 3
    cutoff: float = 5.0
    out_dim: int = 369  # must equal the flow latent dimension

    @property
    def geom_dim(self) -> int:
        n_sph = self.max_degree + 1
        return self.n_radial * (1 + n_sph + n_sph**2)


@dataclass
class InteractionBlock:
    g_e: Mlp
    g_v: Mlp
    g_u: Mlp

    def named(self, prefix: str):
        return (self.g_e.named(f"{prefix}.ge") + self.g_v.named(f"{prefix}.gv")
                + self.g_u.named(f"{prefix}.gu"))


@dataclass
class SphereNetParams(ParamTree):
    config: SphereNetConfig
    embedding: Array                       # (len(ELEMENTS), hidden)
    input_mlp: Mlp                         # radial representation -> message
    blocks: list[InteractionBlock] = field(default_factory=list)
    output_mlp: Mlp = None                 # global feature -> latent dim

    def named_params(self) -> list[tuple[str, Array]]:
        out = [("sphere.embedding", self.embedding)]
        out += self.input_mlp.named("sphere.input")
        for i, blk in enumerate(self.blocks):
            out += blk.named(f"sphere.block{i}")
        out += self.output_mlp.named("sphere.output")
        return out


def init_spherenet(config: SphereNetConfig, rng: SeededRng) -> SphereNetParams:
    h = config.hidden
    emb = rng.normal((len(ELEMENTS), h), scale=1.0 / np.sqrt(len(ELEMENTS)))
    input_mlp = mlp_init(rng.spawn("input"), config.n_radial, h, h, zero_last=False)
    blocks = [
        InteractionBlock(
            g_e=mlp_init(rng.spawn(f"ge{i}"), 4 * h + config.geom_dim, h, h, zero_last=False),
            g_v=mlp_init(rng.spawn(f"gv{i}"), 2 * h, h, h, zero_last=False),
            g_u=mlp_init(rng.spawn(f"gu{i}"), 2 * h, h, h, zero_last=False),
        )
        for i in range(config.n_blocks)
    ]
    output_mlp = mlp_init(rng.spawn("output"), h, h, config.out_dim, zero_last=False)
    return SphereNetParams(config, emb, input_mlp, blocks, output_mlp)


@dataclass
class GeometryCache:
    """Constant per-molecule matrices reused across training epochs."""

    v0: Array            # (n, n_elements) one-hot
    radial: Array        # (E, n_radial)
    full: Array          # (E, geom_dim)
    recv_onehot: Array   # (E, n) picks v[receiver]
    send_onehot: Array   # (E, n) picks v[sender]
    agg_recv: Array      # (n, E) sums messages by receiver
    sender_pool: Array   # (E, E) sums, per edge j, messages into its sender

    @staticmethod
    def from_geometry(g: Geometry, config: SphereNetConfig) -> "GeometryCache":
        n, e = g.num_atoms, g.num_edges
        radial, full = edge_feature_matrix(g, config.n_radial, config.max_degree)
        recv = np.zeros((e, n))
        send = np.zeros((e, n))
        recv[np.arange(e), g.receivers] = 1.0
        send[np.arange(e), g.senders] = 1.0
        agg = np.ascontiguousarray(recv.T)
        # sender_pool[j, k] = 1 if edge k is received by the sender of edge j
        pool = send @ agg
        return GeometryCache(
            v0=g.v.copy(), radial=radial, full=full,
            recv_onehot=recv, send_onehot=send, agg_recv=agg, sender_pool=pool,
        )


def _encode_cached(params: SphereNetParams, cache: GeometryCache):
    has_edges = cache.radial.shape[0] > 0
    v = cache.v0 @ params.embedding
    u = np.zeros((1, params.config.hidden))  # the global feature starts at zero
    e = apply_mlp(params.input_mlp, cache.radial) if has_edges else None
    for blk in params.blocks:
        if has_edges:
            feats = ad.concat(
                [e, cache.recv_onehot @ v, cache.send_onehot @ v,
                 cache.sender_pool @ e, cache.full],
                axis=1,
            )
            e = apply_mlp(blk.g_e, feats)
            incident = cache.agg_recv @ e
        else:
            incident = np.zeros((cache.v0.shape[0], params.config.hidden))
        v = apply_mlp(blk.g_v, ad.concat([v, incident], axis=1))
        atoms_sum = ad.reshape(ad.tsum(v, axis=0), (1, -1))
        u = apply_mlp(blk.g_u, ad.concat([u, atoms_sum], axis=1))
    out = apply_mlp(params.output_mlp, u)
    return ad.reshape(out, (-1,))


def encode_geometry(g: Geometry, params: SphereNetParams):
    """Geometry -> joint-representation vector of the flow latent length."""
    if g.num_atoms < 1:
        raise ValueError("geometry must contain at least one atom")
    return _encode_cached(params, GeometryCache.from_geometry(g, params.config))


def fusion_loss(z_m, u_star):
    """Euclidean distance between the flow latent and the encoder output."""
    shape_z = z_m.data.shape if isinstance(z_m, Tensor) else np.shape(z_m)
    shape_u = u_star.data.shape if isinstance(u_star, Tensor) else np.shape(u_star)
    if shape_z != shape_u:
        raise ValueError(f"length mismatch {shape_z} vs {shape_u}")
    diff = z_m - u_star
    return ad.sqrt(ad.tsum(diff * diff))


def mix_noise(u_star: Array, lam: float, rng: SeededRng) -> Array:
    """Convex mix with unit Gaussian noise: z' = (1 - lam) u* + lam eps."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    eps = rng.normal(np.shape(u_star))
    return (1.0 - lam) * np.asarray(u_star) + lam * eps


@dataclass
class FusionResult:
    epoch_losses: list[float]


def fusion_targets(records: list[DatasetRecord], flow_params: FlowParams,
                   rng: SeededRng) -> list[Array]:
    """Fixed regression targets: each molecule's flow latent under one
    dequantization draw."""
    return [encode(flow_params, rec.molecule, rng.spawn(f"target{i}"))[0]
            for i, rec in enumerate(records)]


def train_fusion(records: list[DatasetRecord], flow_params: FlowParams,
                 params: SphereNetParams, epochs: int, rng: SeededRng,
                 lr: float = 5e-3, batch_size: int = 8,
                 encoder_lr_scale: float = 0.02) -> FusionResult:
    """Minimize mean fusion loss over the dataset; the flow stays frozen.

    The output block trains at `lr` while the message-passing encoder
    trains at `lr * encoder_lr_scale`: with one shared rate the norm loss
    drives the whole network into predicting the target mean (feature-rank
    collapse), whereas the split rate keeps the encoder's molecule
    separation intact while the readout fits it. The output bias starts at
    the target mean for the same reason. Every record must carry geometry
    (``DatasetRecord.geometry`` raises ValueError otherwise). Returns the
    per-epoch mean loss trace; the epoch count is the knob trading 2D
    against 3D structure in the joint representation.
    """
    if not records:
        raise ValueError("no records to fuse")
    caches = [GeometryCache.from_geometry(r.geometry(cutoff=params.config.cutoff), params.config)
              for r in records]
    targets = fusion_targets(records, flow_params, rng.spawn("targets"))
    if not params.output_mlp.b2.any():
        params.output_mlp.b2 = np.mean(targets, axis=0)
    # Adam's direction is scale-free in the gradient, so the per-group rate
    # scales each array's update instead
    lrs = np.array([lr if n.startswith("sphere.output") else lr * encoder_lr_scale
                    for n, _ in params.named_params()])
    opt = make_optimizer(params, lr=1.0)
    shuffle = rng.spawn("shuffle")
    epoch_losses: list[float] = []
    for _ in range(epochs):
        perm = shuffle.permutation(len(records))
        losses: list[float] = []
        for start in range(0, len(records), batch_size):
            idx = perm[start:start + batch_size]

            def batch_loss(view: SphereNetParams):
                total = None
                for i in idx:
                    li = fusion_loss(targets[i], _encode_cached(view, caches[i]))
                    total = li if total is None else total + li
                return total * (1.0 / len(idx))

            losses.append(fit_step(params, batch_loss, opt, rates=lrs))
        epoch_losses.append(float(np.mean(losses)))
    return FusionResult(epoch_losses)
