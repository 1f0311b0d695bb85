"""3D molecular geometry and rotation/translation-invariant edge features.

A molecule's geometry holds per-atom feature vectors, directed edges, and
Cartesian coordinates; the encoder's global feature is not part of it and
starts at zero (``spherenet``). Each directed
edge is described in a local spherical frame (r, theta, phi) anchored at the
receiving atom, then expanded in a spherical Bessel radial basis and real
spherical harmonics to give the three physical representations used for
message passing: distance-only, distance+polar, and the full triple.

``edge_feature_matrix`` builds every frame and basis of a molecule in one
vectorized numpy pass. The per-edge scalar construction it replaces is kept
as the brute-force reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lpmv

from .chem import ELEMENTS

DEFAULT_CUTOFF = 5.0
DEFAULT_N_RADIAL = 8
DEFAULT_MAX_DEGREE = 3
ENVELOPE_ORDER = 5


@dataclass(frozen=True)
class Geometry:
    """Atom features v, directed edges (receiver, sender), and coordinates
    in Angstrom. Edges always come in both directions for each neighbor
    pair."""

    elements: tuple[str, ...]
    coords: np.ndarray          # (n, 3)
    receivers: np.ndarray       # (n_edges,) int
    senders: np.ndarray         # (n_edges,) int
    v: np.ndarray               # (n, len(ELEMENTS)) one-hot atom features
    cutoff: float

    @property
    def num_atoms(self) -> int:
        return len(self.elements)

    @property
    def num_edges(self) -> int:
        return len(self.senders)


def build_geometry(elements, coords, cutoff: float = DEFAULT_CUTOFF) -> Geometry:
    """Connect all atom pairs closer than `cutoff` with directed edges both
    ways. Raises on coincident atoms (distance < 1e-6 A) and on a cutoff that
    is not finite and positive."""
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"cutoff must be finite and positive, got {cutoff}")
    elements = tuple(elements)
    coords = np.asarray(coords, dtype=np.float64)
    if len(elements) < 1:
        raise ValueError("geometry needs at least one atom")
    if coords.shape != (len(elements), 3) or not np.all(np.isfinite(coords)):
        raise ValueError("coords must be a finite (n, 3) array")
    n = len(elements)
    senders, receivers = [], []
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(coords[i] - coords[j]))
            if d < 1e-6:
                raise ValueError(f"atoms {i} and {j} are coincident")
            if d < cutoff:
                receivers += [i, j]
                senders += [j, i]
    v = np.zeros((n, len(ELEMENTS)))
    for i, el in enumerate(elements):
        v[i, ELEMENTS.index(el)] = 1.0
    return Geometry(
        elements=elements,
        coords=coords,
        receivers=np.asarray(receivers, dtype=np.int64),
        senders=np.asarray(senders, dtype=np.int64),
        v=v,
        cutoff=cutoff,
    )


def envelope(d: np.ndarray | float):
    """Smooth polynomial cutoff of order ``ENVELOPE_ORDER``, reaching 0 with
    two vanishing derivatives at d = 1."""
    p = ENVELOPE_ORDER
    a = -(p + 1) * (p + 2) / 2.0
    b = p * (p + 2)
    c = -p * (p + 1) / 2.0
    return 1.0 + a * d**p + b * d ** (p + 1) + c * d ** (p + 2)


def bessel_basis(r, cutoff: float = DEFAULT_CUTOFF, n_radial: int = DEFAULT_N_RADIAL,
                 apply_envelope: bool = True) -> np.ndarray:
    """Zero-order spherical Bessel radial basis, shape r.shape + (n_radial,).

    Coefficient k (1-based) is sqrt(2/cutoff) * sin(k pi r / cutoff) / r,
    which makes the family orthonormal on [0, cutoff] under the r^2 weight;
    with `apply_envelope` the smooth cutoff polynomial multiplies in.
    """
    if n_radial < 1:
        raise ValueError("n_radial must be >= 1")
    r = np.asarray(r, dtype=np.float64)
    if not np.all((0.0 < r) & (r <= cutoff)):
        raise ValueError(f"r outside (0, {cutoff}]")
    r = r[..., None]
    k = np.arange(1, n_radial + 1)
    coeff = math.sqrt(2.0 / cutoff) * np.sin(k * math.pi * r / cutoff) / r
    if apply_envelope:
        coeff = coeff * envelope(r / cutoff)
    return coeff


def spherical_harmonics(theta, phi, max_degree: int = DEFAULT_MAX_DEGREE) -> np.ndarray:
    """Real spherical harmonics for l = 0..max_degree, m = -l..l, shape
    broadcast(theta, phi).shape + ((max_degree + 1)^2,).

    The last axis is ordered by l then m ascending. Y_00 = 1/(2 sqrt(pi))
    and the addition theorem sum_m Y_lm^2 = (2l+1)/(4 pi) holds at every
    angle.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    lm = [(l, m) for l in range(max_degree + 1) for m in range(-l, l + 1)]
    ls = np.array([l for l, _ in lm])
    ms = np.array([m for _, m in lm])
    scale = np.array([
        (1.0 if m == 0 else math.sqrt(2.0)) * math.sqrt(
            (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - abs(m)) / math.factorial(l + abs(m)))
        for l, m in lm
    ])
    x = np.cos(np.asarray(theta, dtype=np.float64))[..., None]
    phi = np.asarray(phi, dtype=np.float64)[..., None]
    # m > 0 takes cos(m phi), m < 0 sin(|m| phi), m = 0 neither
    trig = np.where(ms > 0, np.cos(ms * phi), np.where(ms < 0, np.sin(-ms * phi), 1.0))
    return scale * lpmv(np.abs(ms), ls, x) * trig


def _edge_frames(g: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi, rank) of every directed edge, in one pass.

    The frame hangs at the receiving atom. Its reference neighbours are the
    receiver's other neighbours, nearest first, distance ties broken on atom
    index. The polar axis points to the first of them; the azimuth reference
    is the first later one off that axis (perpendicular part > 1e-9). rank
    counts the axes found (0, 1 or 2); theta (rank 0) and phi (rank < 2)
    default to zero. Proper rigid motions leave (r, theta, phi) unchanged;
    reflections negate phi.
    """
    n_edges = g.num_edges
    recv, send, coords = g.receivers, g.senders, g.coords
    d = coords[send] - coords[recv]
    # vecdot is the dot np.linalg.norm takes on one vector, so near-ties in
    # the neighbour order fall the same way as norm-per-pair would
    r = np.sqrt(np.vecdot(d, d))
    # every receiver's neighbours, nearest first: row t of `nbrs`
    order = np.lexsort((send, r, recv))
    degree = np.bincount(recv, minlength=g.num_atoms)
    starts = np.cumsum(degree) - degree
    slot = np.empty(n_edges, dtype=np.int64)
    slot[order] = np.arange(n_edges) - starts[recv[order]]
    nbrs = np.zeros((g.num_atoms, max(degree.max(initial=0), 2)), dtype=np.int64)
    nbrs[recv, slot] = send
    theta, phi = np.zeros(n_edges), np.zeros(n_edges)
    rank = np.zeros(n_edges, dtype=np.int64)
    framed = np.flatnonzero(degree[recv] >= 2)
    if not framed.size:
        return r, theta, phi, rank
    t, own, df = recv[framed], slot[framed], d[framed]
    rows = np.arange(len(framed))
    arms = coords[nbrs[t]] - coords[t][:, None, :]            # (F, K, 3)
    polar = (own == 0).astype(np.int64)                        # first slot that is not the sender
    z_axis = arms[rows, polar]
    z_hat = z_axis / np.sqrt(np.vecdot(z_axis, z_axis))[:, None]
    theta[framed] = np.arccos(np.clip(np.vecdot(df, z_hat) / r[framed], -1.0, 1.0))
    rank[framed] = 1
    perp = arms - np.vecdot(arms, z_hat[:, None, :])[..., None] * z_hat[:, None, :]
    perp_norm = np.sqrt(np.vecdot(perp, perp))
    k = np.arange(arms.shape[1])
    usable = ((k > polar[:, None]) & (k != own[:, None]) & (k < degree[t][:, None])
              & (perp_norm > 1e-9))
    found = usable.any(axis=1)
    first = usable.argmax(axis=1)[found]
    x_hat = perp[rows[found], first] / perp_norm[rows[found], first][:, None]
    y_hat = np.cross(z_hat[found], x_hat)
    phi[framed[found]] = np.arctan2(np.vecdot(df[found], y_hat), np.vecdot(df[found], x_hat))
    rank[framed[found]] = 2
    return r, theta, phi, rank


def edge_feature_matrix(g: Geometry, n_radial: int = DEFAULT_N_RADIAL,
                        max_degree: int = DEFAULT_MAX_DEGREE) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-edge basis features for the message-passing encoder.

    Returns (radial, full). radial is the (n_edges, n_radial) Bessel basis
    Psi(r). full concatenates three representations per edge: Psi(r), the
    outer product Psi(r, theta) of the radial basis with the zonal (m = 0)
    harmonics, and the outer product Psi(r, theta, phi) with all harmonics.
    The polar block is zeroed on rank-0 frames and the azimuthal block on
    frames below rank 2. Edges at or beyond the cutoff are all zero.
    """
    r, theta, phi, rank = _edge_frames(g)
    n_sph = max_degree + 1
    inside = r < g.cutoff
    radial = np.zeros((g.num_edges, n_radial))
    radial[inside] = bessel_basis(r[inside], g.cutoff, n_radial)
    harm = spherical_harmonics(theta, phi, max_degree)
    zonal = harm[:, [l * l + l for l in range(n_sph)]]
    psi_rt = (radial[:, :, None] * zonal[:, None, :]).reshape(g.num_edges, n_radial * n_sph)
    psi_rtp = (radial[:, :, None] * harm[:, None, :]).reshape(g.num_edges, n_radial * n_sph**2)
    psi_rt[rank < 1] = 0.0
    psi_rtp[rank < 2] = 0.0
    return radial, np.concatenate([radial, psi_rt, psi_rtp], axis=1)
