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

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
# unused here, but perfbench's tracer patches spherenet.adam_step
from .autodiff import SeededRng, adam_step  # noqa: F401
from .chem import ELEMENTS
from .dataset import DatasetRecord
from .flow import (NON_NEGATIVE, POSITIVE, FlowParams, Mlp, ParamTree, apply_mlp,
                   check_ranges, encode_molecules, fit_step, make_optimizer, mlp_init)
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

    def __post_init__(self):
        check_ranges(self, _SPHERE_RANGES)

    @property
    def geom_dim(self) -> int:
        n_sph = self.max_degree + 1
        return self.n_radial * (1 + n_sph + n_sph**2)


_SPHERE_RANGES = {
    "hidden": POSITIVE,
    "n_blocks": POSITIVE,
    "n_radial": POSITIVE,
    "max_degree": NON_NEGATIVE,
    "cutoff": (lambda v: math.isfinite(v) and v > 0, "finite and positive"),
    "out_dim": POSITIVE,
}


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
    """Constant per-molecule arrays reused across training epochs."""

    v0: Array            # (n, n_elements) one-hot
    radial: Array        # (E, n_radial)
    full: Array          # (E, geom_dim)
    receivers: Array     # (E,) receiving atom of each edge
    senders: Array       # (E,) sending atom of each edge

    @staticmethod
    def from_geometry(g: Geometry, config: SphereNetConfig) -> "GeometryCache":
        radial, full = edge_feature_matrix(g, config.n_radial, config.max_degree)
        return GeometryCache(v0=g.v.copy(), radial=radial, full=full,
                             receivers=g.receivers, senders=g.senders)


def _one_hot(index: Array, width: int) -> Array:
    """(len(index), width) rows that pick position ``index[k]``."""
    out = np.zeros((len(index), width))
    out[np.arange(len(index)), index] = 1.0
    return out


def encode_batch(params: SphereNetParams, caches: list[GeometryCache]):
    """(B, out_dim) encoder outputs of B molecules from one pass over the
    disjoint union of their graphs: atoms and edges are stacked, receiver
    and sender features are gathered by index, and constant block 0/1
    matrices sum messages by receiver and atoms by molecule (and carry each
    gather's gradient back). A molecule without edges gets zero incident
    messages."""
    sizes = [c.v0.shape[0] for c in caches]
    offsets = np.cumsum([0] + sizes[:-1])
    n_atoms = sum(sizes)
    recv = np.concatenate([c.receivers + o for c, o in zip(caches, offsets)])
    send = np.concatenate([c.senders + o for c, o in zip(caches, offsets)])
    to_recv = _one_hot(recv, n_atoms)    # (E, N) the gather v[recv] as a product
    to_send = _one_hot(send, n_atoms)    # (E, N) the gather v[send] as a product
    by_recv = to_recv.T                  # (N, E) sums messages by receiver
    by_mol = _one_hot(np.repeat(np.arange(len(caches)), sizes), len(caches)).T  # (B, N)
    full = np.concatenate([c.full for c in caches])
    v = np.concatenate([c.v0 for c in caches]) @ params.embedding
    u = np.zeros((len(caches), params.config.hidden))  # the global feature starts at zero
    e = apply_mlp(params.input_mlp, np.concatenate([c.radial for c in caches]))
    incident = by_recv @ e
    for blk in params.blocks:
        # incident[send] sums, per edge, the messages into its sender
        e = apply_mlp(blk.g_e, [e, ad.take_rows(v, recv, to_recv), ad.take_rows(v, send, to_send),
                                ad.take_rows(incident, send, to_send), full])
        incident = by_recv @ e
        v = apply_mlp(blk.g_v, [v, incident])
        u = apply_mlp(blk.g_u, [u, by_mol @ v])
    return apply_mlp(params.output_mlp, u)


def encode_geometry(g: Geometry, params: SphereNetParams):
    """Geometry -> joint-representation vector of the flow latent length."""
    if g.num_atoms < 1:
        raise ValueError("geometry must contain at least one atom")
    out = encode_batch(params, [GeometryCache.from_geometry(g, params.config)])
    return ad.reshape(out, (-1,))


def fusion_loss(z_m, u_star):
    """Euclidean distance between the flow latent and the encoder output;
    for (B, d) batches, the mean of the B row distances."""
    shape_z, shape_u = np.shape(z_m), np.shape(u_star)
    if shape_z != shape_u:
        raise ValueError(f"length mismatch {shape_z} vs {shape_u}")
    diff = z_m - u_star
    dist = ad.sqrt(ad.tsum(diff * diff, axis=-1))
    return ad.tsum(dist) * (1.0 / int(np.prod(shape_z[:-1])))


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
                   rng: SeededRng) -> Array:
    """Fixed (B, d_total) regression targets: each molecule's flow latent
    under one dequantization draw, from ``rng.spawn(f"target{i}")``."""
    return encode_molecules(flow_params, [rec.molecule for rec in records],
                            [rng.spawn(f"target{i}") for i in range(len(records))])[0]


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
            batch = [caches[i] for i in idx]

            def batch_loss(view: SphereNetParams):
                return fusion_loss(targets[idx], encode_batch(view, batch))

            losses.append(fit_step(params, batch_loss, opt, rates=lrs))
        epoch_losses.append(float(np.mean(losses)))
    return FusionResult(epoch_losses)
