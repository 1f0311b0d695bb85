import math
from pathlib import Path

import numpy as np
import pytest

from molflow.autodiff import SeededRng
from molflow.chem import ELEMENTS
from molflow.dataset import ingest
from molflow.geom3d import (
    bessel_basis,
    build_geometry,
    edge_feature_matrix,
    envelope,
    spherical_harmonics,
)
from oracles import (
    SphericalTriple,
    edge_feature_rows,
    edge_representation,
    frame_rank,
    local_spherical,
    random_rigid_motion,
    scalar_spherical_harmonics,
)

FUSION_SET = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "fusion_set.xyz"


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


@pytest.mark.parametrize("cutoff", [0.0, -1.0, float("nan"), float("inf")])
def test_cutoff_must_be_finite_and_positive(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        build_geometry(("C", "O"), [[0, 0, 0], [1.0, 0, 0]], cutoff=cutoff)


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
    with pytest.raises(ValueError):
        bessel_basis(np.array([1.0, 2.0, 5.1]), 5.0)


def test_bessel_array_rows_equal_scalar_calls():
    rs = np.linspace(0.05, 5.0, 37)
    rows = bessel_basis(rs, 5.0, 8)
    assert rows.shape == (37, 8)
    assert np.array_equal(rows, np.array([bessel_basis(r, 5.0, 8) for r in rs]))


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


@pytest.mark.parametrize("max_degree", [0, 3, 6])
def test_harmonics_array_bit_identical_to_scalar_calls(max_degree):
    rng = SeededRng(43)
    theta = rng.uniform(0.0, math.pi, 5000)
    phi = rng.uniform(-math.pi, math.pi, 5000)
    vals = spherical_harmonics(theta, phi, max_degree)
    assert vals.shape == (5000, (max_degree + 1) ** 2)
    scalar = np.array([scalar_spherical_harmonics(t, p, max_degree) for t, p in zip(theta, phi)])
    assert np.array_equal(vals, scalar)


def test_harmonics_reject_negative_degree():
    with pytest.raises(ValueError):
        spherical_harmonics(0.1, 0.2, -1)


def test_edge_representation_shapes_and_kinds():
    psi_r, psi_rt, psi_rtp = edge_representation(SphericalTriple(1.3, 0.7, -0.4))
    assert psi_r.shape == (8,)
    assert psi_rt.shape == (32,)
    assert psi_rtp.shape == (128,)
    assert all(np.isfinite(v).all() for v in (psi_r, psi_rt, psi_rtp))


def test_edge_representation_zero_beyond_cutoff():
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


# ---------------------------------------------------------------------------
# vectorized edge features against the per-edge oracle
# ---------------------------------------------------------------------------


def assert_matches_oracle(g, n_radial=8, max_degree=3):
    radial, full = edge_feature_matrix(g, n_radial, max_degree)
    radial_o, full_o = edge_feature_rows(g, n_radial, max_degree)
    assert radial.shape == radial_o.shape and full.shape == full_o.shape
    if g.num_edges:
        assert np.abs(radial - radial_o).max() <= 1e-12
        assert np.abs(full - full_o).max() <= 1e-12
    n_sph = max_degree + 1
    polar = slice(n_radial, n_radial * (1 + n_sph))
    azimuthal = slice(n_radial * (1 + n_sph), None)
    for block in (polar, azimuthal):
        assert np.array_equal(full[:, block].any(axis=1), full_o[:, block].any(axis=1))
    return full


def test_edge_features_match_oracle_on_fusion_set():
    records = ingest([FUSION_SET]).records
    assert len(records) == 64
    for rec in records:
        assert_matches_oracle(rec.geometry())


def test_edge_features_match_oracle_on_random_geometries():
    rng = SeededRng(44)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        elements = [ELEMENTS[int(i)] for i in rng.integers(0, len(ELEMENTS), n)]
        coords = rng.normal((n, 3), scale=float(rng.uniform(0.5, 2.5)))
        cutoff = float(rng.uniform(1.5, 6.0))
        assert_matches_oracle(build_geometry(elements, coords, cutoff=cutoff))
    g = build_geometry(("C", "N", "O", "C"), SeededRng(45).normal((4, 3)))
    assert_matches_oracle(g, n_radial=3, max_degree=5)


def test_exact_distance_tie_breaks_on_atom_index():
    # atoms 1 and 2 sit at exactly distance 2 from atom 0; the lower index
    # (atom 1, along +y) is the polar axis for the edge from atom 3
    coords = [[0, 0, 0], [0, 2, 0], [2, 0, 0], [0, 0, 3]]
    g = build_geometry(("C", "C", "C", "O"), coords)
    edge = next(e for e in range(g.num_edges) if g.receivers[e] == 0 and g.senders[e] == 3)
    triple = local_spherical(g, edge)
    assert triple.theta == pytest.approx(math.pi / 2)
    assert triple.phi == pytest.approx(-math.pi / 2)
    assert_matches_oracle(g)


def test_collinear_first_azimuth_candidate_is_skipped():
    # from atom 0, atom 1 sets the polar axis and atom 2 lies on that axis,
    # so atom 3 must give the azimuth
    coords = [[0, 0, 0], [0, 0, 1], [0, 0, -1.5], [1.8, 0, 0], [0.5, 1.9, 0.7]]
    g = build_geometry(("C", "C", "N", "O", "C"), coords)
    edge = next(e for e in range(g.num_edges) if g.receivers[e] == 0 and g.senders[e] == 4)
    assert frame_rank(g, edge) == 2
    assert local_spherical(g, edge).phi == pytest.approx(math.atan2(1.9, 0.5))
    assert_matches_oracle(g)


def test_diatomic_has_radial_features_only():
    g = build_geometry(("C", "O"), [[0, 0, 0], [1.1, 0, 0]])
    full = assert_matches_oracle(g)
    assert full[:, :8].any(axis=1).all()
    assert not full[:, 8:].any()


def test_single_atom_has_empty_feature_matrices():
    g = build_geometry(("C",), [[0.0, 0.0, 0.0]])
    radial, full = edge_feature_matrix(g)
    assert radial.shape == (0, 8)
    assert full.shape == (0, 168)
    assert_matches_oracle(g)
