"""3D molecular geometry and rotation/translation-invariant edge features.

A molecule's geometry holds per-atom feature vectors, directed edges, and
Cartesian coordinates; the encoder's global feature is not part of it and
starts at zero (``spherenet``). Each directed
edge is described in a local spherical frame (r, theta, phi) anchored at the
receiving atom, then expanded in a spherical Bessel radial basis and real
spherical harmonics to give the three physical representations used for
message passing: distance-only, distance+polar, and the full triple.
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


@dataclass(frozen=True)
class SphericalTriple:
    r: float      # radial distance, > 0
    theta: float  # polar angle in [0, pi]
    phi: float    # azimuthal angle in [-pi, pi]


def build_geometry(elements, coords, cutoff: float = DEFAULT_CUTOFF) -> Geometry:
    """Connect all atom pairs closer than `cutoff` with directed edges both
    ways. Raises on coincident atoms (distance < 1e-6 A)."""
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


def envelope(d: np.ndarray | float, p: int = ENVELOPE_ORDER):
    """Smooth polynomial cutoff reaching 0 with two vanishing derivatives at
    d = 1."""
    a = -(p + 1) * (p + 2) / 2.0
    b = p * (p + 2)
    c = -p * (p + 1) / 2.0
    return 1.0 + a * d**p + b * d ** (p + 1) + c * d ** (p + 2)


def bessel_basis(r: float, cutoff: float = DEFAULT_CUTOFF,
                 n_radial: int = DEFAULT_N_RADIAL, apply_envelope: bool = True) -> np.ndarray:
    """Zero-order spherical Bessel radial basis.

    Coefficient k (1-based) is sqrt(2/cutoff) * sin(k pi r / cutoff) / r,
    which makes the family orthonormal on [0, cutoff] under the r^2 weight;
    with `apply_envelope` the smooth cutoff polynomial multiplies in.
    """
    if n_radial < 1:
        raise ValueError("n_radial must be >= 1")
    if not 0.0 < r <= cutoff:
        raise ValueError(f"r={r} outside (0, {cutoff}]")
    k = np.arange(1, n_radial + 1)
    coeff = math.sqrt(2.0 / cutoff) * np.sin(k * math.pi * r / cutoff) / r
    if apply_envelope:
        coeff = coeff * envelope(r / cutoff)
    return coeff


def spherical_harmonics(theta: float, phi: float, max_degree: int = DEFAULT_MAX_DEGREE) -> np.ndarray:
    """Real spherical harmonics for l = 0..max_degree, m = -l..l.

    The output is ordered by l then m ascending; length (max_degree + 1)^2.
    Y_00 = 1/(2 sqrt(pi)) and the addition theorem sum_m Y_lm^2 =
    (2l+1)/(4 pi) holds at every angle.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
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
    harm = spherical_harmonics(triple.theta, triple.phi, max_degree)
    zonal = np.array([harm[l * l + l] for l in range(n_sph)])
    psi_rt = np.outer(radial, zonal).reshape(-1)
    psi_rtp = np.outer(radial, harm).reshape(-1)
    return radial, psi_rt, psi_rtp


def edge_feature_matrix(g: Geometry, n_radial: int = DEFAULT_N_RADIAL,
                        max_degree: int = DEFAULT_MAX_DEGREE) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-edge basis features for the message-passing encoder.

    Returns (radial, full) where radial is (n_edges, n_radial) and full is
    the concatenation of the three representations, with the polar and
    azimuthal blocks zeroed on edges whose local frame lacks the reference
    neighbors to define them.
    """
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

