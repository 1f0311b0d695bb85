import math

import numpy as np
import pytest

from molflow.autodiff import SeededRng
from molflow.geom3d import (
    bessel_basis,
    build_geometry,
    edge_feature_matrix,
    edge_representation,
    envelope,
    frame_rank,
    local_spherical,
    spherical_harmonics,
)
from oracles import random_rigid_motion


def test_two_atoms_within_cutoff_give_two_directed_edges():
    g = build_geometry(("C", "O"), [[0, 0, 0], [1.0, 0, 0]], cutoff=5.0)
    assert g.num_edges == 2
    assert sorted(zip(g.receivers.tolist(), g.senders.tolist())) == [(0, 1), (1, 0)]


def test_two_atoms_beyond_cutoff_give_no_edges():
    g = build_geometry(("C", "O"), [[0, 0, 0], [6.0, 0, 0]], cutoff=5.0)
    assert g.num_edges == 0


def test_edge_set_matches_brute_force_threshold(rng):
    coords = rng.normal((6, 3), scale=2.0)
    elements = ("C", "N", "O", "C", "F", "C")
    g = build_geometry(elements, coords, cutoff=3.5)
    expected = {
        (i, j)
        for i in range(6)
        for j in range(6)
        if i != j and np.linalg.norm(coords[i] - coords[j]) < 3.5
    }
    got = set(zip(g.receivers.tolist(), g.senders.tolist()))
    assert got == expected


def test_coincident_atoms_rejected():
    with pytest.raises(ValueError):
        build_geometry(("C", "C"), [[0, 0, 0], [0, 0, 1e-8]])


def test_one_hot_atom_features_and_zero_global():
    g = build_geometry(("N", "F"), [[0, 0, 0], [1, 0, 0]])
    assert g.v[0].tolist() == [0, 1, 0, 0]
    assert g.v[1].tolist() == [0, 0, 0, 1]


def test_theta_zero_along_frame_axis():
    # edge sender sits along the receiver's nearest-neighbor direction
    g = build_geometry(("C", "C", "C"),
                       [[0, 0, 0], [0, 0, 1.0], [0, 0, 2.0]], cutoff=5.0)
    edge = next(e for e in range(g.num_edges)
                if g.receivers[e] == 0 and g.senders[e] == 2)
    triple = local_spherical(g, edge)
    assert triple.r == pytest.approx(2.0)
    assert triple.theta == pytest.approx(0.0, abs=1e-12)


def test_rigid_motion_invariance_of_triples():
    rng = SeededRng(40)
    coords = rng.normal((6, 3), scale=1.5)
    elements = ("C", "N", "O", "C", "F", "C")
    g = build_geometry(elements, coords)
    base = [local_spherical(g, e) for e in range(g.num_edges)]
    for _ in range(100):
        q, t = random_rigid_motion(rng)
        g2 = build_geometry(elements, coords @ q.T + t)
        for e in range(g.num_edges):
            moved = local_spherical(g2, e)
            assert moved.r == pytest.approx(base[e].r, abs=1e-8)
            assert moved.theta == pytest.approx(base[e].theta, abs=1e-8)
            assert moved.phi == pytest.approx(base[e].phi, abs=1e-8)


def test_mirror_reflection_negates_phi():
    rng = SeededRng(41)
    coords = rng.normal((5, 3), scale=1.5)
    elements = ("C", "N", "O", "C", "F")
    g = build_geometry(elements, coords)
    mirrored = build_geometry(elements, coords * np.array([1.0, 1.0, -1.0]))
    for e in range(g.num_edges):
        a, b = local_spherical(g, e), local_spherical(mirrored, e)
        assert b.r == pytest.approx(a.r, abs=1e-9)
        assert b.theta == pytest.approx(a.theta, abs=1e-9)
        assert b.phi == pytest.approx(-a.phi, abs=1e-9)


def test_degenerate_frames_default_angles_to_zero():
    diatomic = build_geometry(("C", "O"), [[0, 0, 0], [1.1, 0, 0]])
    t = local_spherical(diatomic, 0)
    assert (t.theta, t.phi) == (0.0, 0.0)
    assert frame_rank(diatomic, 0) == 0
    bent = build_geometry(("O", "C", "C"), [[0, 0, 0], [1.0, 0, 0], [2.0, 0.8, 0]])
    ranks = {frame_rank(bent, e) for e in range(bent.num_edges)}
    assert ranks == {1}


def test_permutation_leaves_triple_multiset_unchanged(rng):
    coords = rng.normal((6, 3), scale=1.5)
    elements = ["C", "N", "O", "C", "F", "C"]
    g = build_geometry(elements, coords)
    trips = sorted((round(t.r, 9), round(t.theta, 9), round(t.phi, 9))
                   for t in (local_spherical(g, e) for e in range(g.num_edges)))
    perm = [int(i) for i in rng.permutation(6)]
    g2 = build_geometry([elements[i] for i in perm], coords[perm])
    trips2 = sorted((round(t.r, 9), round(t.theta, 9), round(t.phi, 9))
                    for t in (local_spherical(g2, e) for e in range(g2.num_edges)))
    assert trips == trips2


# ---------------------------------------------------------------------------
# radial basis
# ---------------------------------------------------------------------------


def test_bessel_zero_at_cutoff():
    assert np.allclose(bessel_basis(5.0, 5.0, 8), 0.0)
    assert envelope(1.0) == pytest.approx(0.0, abs=1e-12)


def test_bessel_rejects_out_of_range():
    with pytest.raises(ValueError):
        bessel_basis(0.0, 5.0)
    with pytest.raises(ValueError):
        bessel_basis(5.1, 5.0)


def test_bessel_orthonormality_by_quadrature():
    # raw family (no envelope) is orthonormal under the r^2 weight
    c = 5.0
    rs = np.linspace(0.0, c, 10001)[1:]
    basis = np.array([bessel_basis(r, c, 8, apply_envelope=False) for r in rs])
    gram = np.einsum("ri,rj,r->ij", basis, basis, rs**2) * (rs[1] - rs[0])
    assert np.abs(gram - np.eye(8)).max() < 1e-3


def test_bessel_coefficients_bounded_on_domain():
    values = np.array([bessel_basis(r, 5.0, 8) for r in np.linspace(0.01, 5.0, 500)])
    assert np.isfinite(values).all()
    assert np.abs(values).max() < 60.0


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------


def test_y00_is_constant():
    for theta, phi in [(0.1, 0.2), (2.0, -1.0), (3.0, 3.0)]:
        assert spherical_harmonics(theta, phi, 0)[0] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))


def test_y10_at_pole():
    # zonal l=1 harmonic at theta=0 equals sqrt(3 / 4 pi)
    vals = spherical_harmonics(0.0, 0.0, 1)
    assert vals[2] == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)))


def test_addition_theorem_at_random_angles(rng):
    for _ in range(100):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        vals = spherical_harmonics(theta, phi, 3)
        for l in range(4):
            block = vals[l * l:(l + 1) * (l + 1)]
            assert float((block**2).sum()) == pytest.approx((2 * l + 1) / (4 * math.pi), abs=1e-10)


def test_edge_representation_shapes_and_kinds():
    from molflow.geom3d import SphericalTriple

    psi_r, psi_rt, psi_rtp = edge_representation(SphericalTriple(1.3, 0.7, -0.4))
    assert psi_r.shape == (8,)
    assert psi_rt.shape == (32,)
    assert psi_rtp.shape == (128,)
    assert all(np.isfinite(v).all() for v in (psi_r, psi_rt, psi_rtp))


def test_edge_representation_zero_beyond_cutoff():
    from molflow.geom3d import SphericalTriple

    for vec in edge_representation(SphericalTriple(6.0, 0.7, -0.4), cutoff=5.0):
        assert not vec.any()


def test_basis_vectors_invariant_under_rigid_motion():
    rng = SeededRng(42)
    coords = rng.normal((5, 3), scale=1.5)
    elements = ("C", "N", "O", "C", "F")
    g = build_geometry(elements, coords)
    _, full = edge_feature_matrix(g)
    for _ in range(25):
        q, t = random_rigid_motion(rng)
        g2 = build_geometry(elements, coords @ q.T + t)
        _, full2 = edge_feature_matrix(g2)
        assert np.abs(full2 - full).max() < 1e-8
