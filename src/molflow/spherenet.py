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
from .flow import (NON_NEGATIVE, POSITIVE, FlowParams, Mlp, ParamTree, check_ranges,
                   encode_molecules, fit, fit_step, make_optimizer, mlp_init)
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
    matrices sum messages by receiver and atoms by molecule. A molecule
    without edges gets zero incident messages.

    Returns (output, backward); ``backward(g)`` gives the gradients of
    ``named_params()`` for the output gradient `g`. It carries each
    gather's gradient back as a product with the gather's 0/1 matrix, and
    sums the gradients of a tensor read in several places in the order the
    composed tape of ``tests/oracles.py`` does, so the two agree bit for
    bit."""
    sizes = [c.v0.shape[0] for c in caches]
    offsets = np.cumsum([0] + sizes[:-1])
    n_atoms = sum(sizes)
    hidden = params.config.hidden
    recv = np.concatenate([c.receivers + o for c, o in zip(caches, offsets)])
    send = np.concatenate([c.senders + o for c, o in zip(caches, offsets)])
    to_recv = _one_hot(recv, n_atoms)    # (E, N) the gather v[recv] as a product
    to_send = _one_hot(send, n_atoms)    # (E, N) the gather v[send] as a product
    by_recv = to_recv.T                  # (N, E) sums messages by receiver
    to_mol = _one_hot(np.repeat(np.arange(len(caches)), sizes), len(caches))  # (N, B)
    by_mol = to_mol.T                    # (B, N) sums atoms by molecule
    full = np.concatenate([c.full for c in caches])
    radial = np.concatenate([c.radial for c in caches])
    v0 = np.concatenate([c.v0 for c in caches])
    # embedding, then (w1, b1, w2, b2) of input, g_e, g_v, g_u per block, output
    embedding, *weights = [a for _, a in params.named_params()]
    nets = [weights[i:i + 4] for i in range(0, len(weights), 4)]
    blocks = [nets[i:i + 3] for i in range(1, len(nets) - 1, 3)]

    v = v0 @ embedding
    u = np.zeros((len(caches), hidden))  # the global feature starts at zero
    h_in, e = ad.mlp_forward(radial, *nets[0])
    incident = by_recv @ e
    saved = []
    for net_e, net_v, net_u in blocks:
        # incident[send] sums, per edge, the messages into its sender
        x_e = np.concatenate([e, v[recv], v[send], incident[send], full], axis=1)
        h_e, e = ad.mlp_forward(x_e, *net_e)
        incident = by_recv @ e
        x_v = np.concatenate([v, incident], axis=1)
        h_v, v = ad.mlp_forward(x_v, *net_v)
        x_u = np.concatenate([u, by_mol @ v], axis=1)
        h_u, u = ad.mlp_forward(x_u, *net_u)
        saved.append((x_e, h_e, x_v, h_v, x_u, h_u))
    h_out, out = ad.mlp_forward(u, *nets[-1])

    def backward(g):
        every = (True,) * 5
        parts = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
        (g_u,), *g_out = ad.mlp_backward(g, u, h_out, nets[-1][0], nets[-1][2], every)
        g_blocks = []
        after = None  # the next block's gradients of its inputs v, e and incident
        for k in reversed(range(len(blocks))):
            (net_e, net_v, net_u), (x_e, h_e, x_v, h_v, x_u, h_u) = blocks[k], saved[k]
            # block 0's u is the constant zeros: no input gradient
            (g_u_in, g_atoms), *g_gu = ad.mlp_backward(g_u, x_u, h_u, net_u[0], net_u[2],
                                                       every, [parts[0] if k else None, parts[1]])
            # each sum adds its terms in the composed tape's order
            g_v_out = to_mol @ g_atoms
            if after:
                g_v_out = g_v_out + after["v"] + after["v[recv]"] + after["v[send]"]
            (g_v_in, g_incident), *g_gv = ad.mlp_backward(g_v_out, x_v, h_v, net_v[0], net_v[2],
                                                          every, parts[:2])
            if after:
                g_incident = g_incident + after["incident[send]"]
            g_e_out = to_recv @ g_incident
            if after:
                g_e_out = after["e"] + g_e_out
            (g_e_in, g_vr, g_vs, g_is, _), *g_ge = ad.mlp_backward(
                g_e_out, x_e, h_e, net_e[0], net_e[2], every, parts + [None])
            after = {"v": g_v_in, "e": g_e_in, "v[recv]": to_recv.T @ g_vr,
                     "v[send]": to_send.T @ g_vs, "incident[send]": to_send.T @ g_is}
            g_blocks[:0] = g_ge + g_gv + g_gu
            g_u = g_u_in
        g_v0 = after["v"] + after["v[recv]"] + after["v[send]"]
        g_e0 = after["e"] + to_recv @ after["incident[send]"]
        _, *g_input = ad.mlp_backward(g_e0, radial, h_in, nets[0][0], nets[0][2],
                                      (False,) + every[1:])
        return [v0.T @ g_v0, *g_input, *g_blocks, *g_out]

    return out, backward


def encode_geometry(g: Geometry, params: SphereNetParams) -> Array:
    """Geometry -> joint-representation vector of the flow latent length."""
    if g.num_atoms < 1:
        raise ValueError("geometry must contain at least one atom")
    return encode_batch(params, [GeometryCache.from_geometry(g, params.config)])[0].reshape(-1)


def fusion_loss(z_m: Array, u_star: Array):
    """Euclidean distance between the flow latent `z_m`, a constant, and
    the encoder output `u_star`; for (B, d) batches, the mean of the B row
    distances. Returns (loss, backward); ``backward(g)`` gives the gradient
    of `u_star`."""
    shape_z, shape_u = np.shape(z_m), np.shape(u_star)
    if shape_z != shape_u:
        raise ValueError(f"length mismatch {shape_z} vs {shape_u}")
    diff = z_m - u_star
    dist = np.sqrt((diff * diff).sum(axis=-1))
    scale = 1.0 / int(np.prod(shape_z[:-1]))
    loss = dist.sum() * scale

    def backward(g):
        # d|diff|/du = -diff/|diff|, with diff*diff's two factors summed
        half = diff * ((g * scale) * 0.5 / dist)[..., None]
        return -(half + half)

    return loss, backward


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
    lrs = [lr if n.startswith("sphere.output") else lr * encoder_lr_scale
           for n, _ in params.named_params()]
    opt = make_optimizer(params, lr=1.0, rates=lrs)

    def batch_loss(p: SphereNetParams, idx):
        u, encode_backward = encode_batch(p, [caches[i] for i in idx])
        loss, loss_backward = fusion_loss(targets[idx], u)
        return loss, lambda g: encode_backward(loss_backward(g))

    return FusionResult(fit(epochs, lambda: range(len(records)), rng.spawn("shuffle"), batch_size,
                            lambda idx: fit_step(params, lambda p: batch_loss(p, idx), opt)))
