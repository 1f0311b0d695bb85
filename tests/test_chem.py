import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from molflow.autodiff import SeededRng
from molflow.chem import (
    PATH_HASH_CACHE_SIZE,
    Fingerprint,
    Molecule,
    SmilesError,
    STRUCTURAL_KEYS,
    _hash_tuple,
    _path_hash,
    canonical_rank,
    connected_components,
    cyclic_bonds,
    fraggle_similarity,
    from_tensors,
    fusion_atoms,
    h_acceptor_count,
    h_donor_count,
    is_isomorphic,
    largest_ring_size,
    longest_chain,
    maccs_similarity,
    molecular_weight,
    morgan_fingerprint,
    parse_smiles,
    path_fingerprint,
    ring_count,
    ring_sizes,
    rotatable_bond_count,
    structural_keys,
    subgraph,
    tanimoto,
    to_tensors,
    valency_check,
    write_smiles,
)
from molflow.dataset import random_molecule


def permuted(m: Molecule, perm: list[int]) -> Molecule:
    inv = {a: k for k, a in enumerate(perm)}
    return Molecule.build(
        tuple(m.elements[a] for a in perm),
        [(inv[i], inv[j], o) for i, j, o in m.bonds],
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_ethane():
    m = parse_smiles("CC")
    assert m.elements == ("C", "C")
    assert m.bonds == ((0, 1, 1),)
    assert m.implicit_hydrogens(0) == 3


def test_parse_cyclopropane_ring_closure():
    m = parse_smiles("C1CC1")
    assert m.elements == ("C", "C", "C")
    assert set(m.bonds) == {(0, 1, 1), (0, 2, 1), (1, 2, 1)}


def test_parse_co2_double_bonds():
    # hand derivation: O=C=O is a carbon double-bonded to two oxygens,
    # saturating C (4) and each O (2)
    m = parse_smiles("O=C=O")
    assert sorted(m.elements) == ["C", "O", "O"]
    carbon = m.elements.index("C")
    assert m.bond_order_sum(carbon) == 4
    assert all(o == 2 for *_, o in m.bonds)
    assert m.implicit_hydrogens(carbon) == 0


def test_parse_branches_and_orders():
    m = parse_smiles("CC(=O)N")
    assert sorted(m.elements) == ["C", "C", "N", "O"]
    assert sorted(o for *_, o in m.bonds) == [1, 1, 2]


def test_ring_bond_order_may_sit_on_either_end():
    a = parse_smiles("C=1CCCC1")
    b = parse_smiles("C1CCCC=1")
    assert is_isomorphic(a, b)
    assert sorted(o for *_, o in a.bonds) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "C(",
        "C)",
        "C1CC",
        "CC(C",
        "C=",
        "=C",
        "C==C",
        "Cc1ccccc1",
        "1CC",
        "C11",
        "C%12C",
        "[CH4]",
        "CC.CC",
        "C+",
        "C(-)C",
        "C=1CCCC#1",
        "C0CC0",
        "C(C)(C)(C)(C)C",
        "O(C)(C)C",
        "N(=O)=O",
    ],
)
def test_malformed_smiles_raise_structured_errors(text):
    with pytest.raises(SmilesError) as err:
        parse_smiles(text)
    assert err.value.position >= 0
    assert "position" in str(err.value)


def test_valence_overflow_reports_atom_position():
    with pytest.raises(SmilesError) as err:
        parse_smiles("C#CC#C#C")
    assert "valence overflow" in str(err.value)


# ---------------------------------------------------------------------------
# canonical writing
# ---------------------------------------------------------------------------


def test_write_methane():
    assert write_smiles(parse_smiles("C")) == "C"


def test_write_is_isomorphism_invariant():
    assert write_smiles(parse_smiles("CCO")) == write_smiles(parse_smiles("OCC"))


def test_ring_rotations_share_canonical_string():
    ring = parse_smiles("C1CC1")
    strings = {write_smiles(permuted(ring, perm))
               for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1])}
    assert len(strings) == 1


def test_single_atom_rank():
    assert canonical_rank(parse_smiles("C")) == [0]


def test_chain_endpoint_rank_consistency():
    m = parse_smiles("CCO")
    base = canonical_rank(m)
    rng = SeededRng(5)
    for _ in range(20):
        perm = [int(i) for i in rng.permutation(3)]
        pm = permuted(m, perm)
        ranks = canonical_rank(pm)
        # rank of the oxygen is invariant under relabeling
        assert ranks[pm.elements.index("O")] == base[m.elements.index("O")]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_permutation_fuzz_round_trip(seed):
    rng = SeededRng(seed)
    m = random_molecule(rng)
    canon = write_smiles(m)
    for _ in range(5):
        perm = [int(i) for i in rng.permutation(m.num_atoms)]
        pm = permuted(m, perm)
        assert write_smiles(pm) == canon
    back = parse_smiles(canon)
    assert is_isomorphic(back, m)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def test_ethane_tensor_layout():
    atom, bond = to_tensors(parse_smiles("CC"), n_max=9)
    assert atom.shape == (9, 5) and bond.shape == (9, 9, 4)
    assert atom[:2, 0].tolist() == [1.0, 1.0]          # two carbon rows
    assert atom[2:, 4].tolist() == [1.0] * 7           # padding rows
    assert bond[0, 1, 1] == 1.0 and bond[1, 0, 1] == 1.0
    assert bond[0, 1, 0] == 0.0
    assert bond[2, 2, 0] == 1.0                        # padding pair is no-bond
    assert np.array_equal(bond, bond.transpose(1, 0, 2))


def test_molecule_too_large_for_tensors():
    chain = Molecule.build(tuple("C" * 10), [(i, i + 1, 1) for i in range(9)])
    with pytest.raises(ValueError):
        to_tensors(chain, n_max=9)


def test_tensor_round_trip_on_corpus():
    rng = SeededRng(17)
    for _ in range(200):
        m = random_molecule(rng)
        atom, bond = to_tensors(m, 9)
        assert is_isomorphic(from_tensors(atom, bond), m)


def test_all_padding_decodes_to_empty_invalid_molecule():
    atom = np.zeros((9, 5))
    atom[:, 4] = 1.0
    bond = np.zeros((9, 9, 4))
    bond[:, :, 0] = 1.0
    m = from_tensors(atom, bond)
    assert m.num_atoms == 0
    assert not valency_check(m)


def test_from_tensors_symmetrizes_real_valued_input():
    atom = np.zeros((3, 5))
    atom[0, 0] = atom[1, 0] = 1.0
    atom[2, 4] = 1.0
    bond = np.zeros((3, 3, 4))
    bond[:, :, 0] = 0.6
    bond[0, 1, 2] = 2.0   # asymmetric logit; the (0,1)/(1,0) average still wins
    m = from_tensors(atom, bond)
    assert m.bonds == ((0, 1, 2),)


# ---------------------------------------------------------------------------
# valency
# ---------------------------------------------------------------------------


def test_valency_accepts_saturated_carbon():
    assert valency_check(parse_smiles("C(C)(C)(C)C"))


def test_valency_rejects_five_bonds_on_carbon():
    star = Molecule.build(("C",) * 6, [(0, i, 1) for i in range(1, 6)])
    assert not valency_check(star)


def test_valency_rejects_disconnected():
    two = Molecule.build(("C", "C"), [])
    assert not valency_check(two)
    assert len(connected_components(two)) == 2


def test_valency_rejects_empty():
    assert not valency_check(Molecule((), ()))


def test_accepted_molecules_are_hydrogen_completable(rng):
    for _ in range(100):
        m = random_molecule(rng)
        if valency_check(m):
            assert all(m.implicit_hydrogens(i) >= 0 for i in range(m.num_atoms))


# ---------------------------------------------------------------------------
# fingerprints and similarity
# ---------------------------------------------------------------------------


def test_morgan_deterministic_and_permutation_invariant():
    m = parse_smiles("CC(=O)NC1CC1")
    fp = morgan_fingerprint(m)
    assert fp == morgan_fingerprint(parse_smiles("CC(=O)NC1CC1"))
    rng = SeededRng(23)
    for _ in range(50):
        perm = [int(i) for i in rng.permutation(m.num_atoms)]
        assert morgan_fingerprint(permuted(m, perm)) == fp


def test_morgan_separates_ethane_from_ethanol():
    assert morgan_fingerprint(parse_smiles("CC")) != morgan_fingerprint(parse_smiles("CCO"))


def test_tanimoto_identity_disjoint_and_counts():
    a = Fingerprint("morgan", 2048, frozenset({1, 2, 3}))
    b = Fingerprint("morgan", 2048, frozenset({2, 3, 4}))
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, Fingerprint("morgan", 2048, frozenset({9, 10}))) == 0.0
    assert tanimoto(a, b) == 0.5
    assert tanimoto(Fingerprint("morgan", 16, frozenset()),
                    Fingerprint("morgan", 16, frozenset())) == 1.0


def test_tanimoto_mismatch_raises():
    a = Fingerprint("morgan", 2048, frozenset({1}))
    with pytest.raises(ValueError):
        tanimoto(a, Fingerprint("path", 2048, frozenset({1})))
    with pytest.raises(ValueError):
        tanimoto(a, Fingerprint("morgan", 1024, frozenset({1})))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tanimoto_symmetric_and_bounded(seed):
    rng = SeededRng(seed)
    a = morgan_fingerprint(random_molecule(rng))
    b = morgan_fingerprint(random_molecule(rng))
    assert tanimoto(a, b) == tanimoto(b, a)
    assert 0.0 <= tanimoto(a, b) <= 1.0


def test_fingerprint_hex_round_trip():
    fp = Fingerprint("morgan", 16, frozenset({0, 5, 15}))
    assert fp.to_hex() == "8401"


def test_structural_keys_cyclopropane_has_3_ring():
    names = [name for name, _ in STRUCTURAL_KEYS]
    bits = structural_keys(parse_smiles("C1CC1")).bits
    assert names.index("has_3_ring") in bits
    assert names.index("has_ring") in bits
    assert names.index("all_carbon") in bits


def test_maccs_self_similarity_is_one():
    m = parse_smiles("CC(=O)N")
    assert maccs_similarity(m, m) == 1.0


def test_structural_keys_co2_vs_methane_hand_evaluated():
    # CO2: oxygen present, two oxygens, a double bond, two double bonds,
    # and a carbonyl; methane: the all-carbon key only. No overlap.
    names = [name for name, _ in STRUCTURAL_KEYS]
    co2 = structural_keys(parse_smiles("O=C=O"))
    ch4 = structural_keys(parse_smiles("C"))
    assert co2.bits == {
        names.index("has_oxygen"),
        names.index("oxygens_ge_2"),
        names.index("has_double_bond"),
        names.index("double_bonds_ge_2"),
        names.index("carbonyl"),
    }
    assert ch4.bits == {names.index("all_carbon")}
    assert maccs_similarity(parse_smiles("O=C=O"), parse_smiles("C")) == 0.0


def test_fraggle_self_similarity():
    m = parse_smiles("CC(C)(C)CO")
    assert fraggle_similarity(m, m) == 1.0


def test_fraggle_disjoint_elements():
    assert fraggle_similarity(parse_smiles("C"), parse_smiles("O")) == 0.0


def brute_force_fraggle(a: Molecule, b: Molecule) -> float:
    """Independent enumeration: all single/double cuts of acyclic single
    bonds, fragments with >= 60% of heavy atoms, path-fingerprint Tanimoto,
    symmetrized."""

    def one_way(x: Molecule, y: Molecule) -> float:
        fp_y = path_fingerprint(y)
        best = tanimoto(path_fingerprint(x), fp_y)
        cyc = cyclic_bonds(x)
        cuttable = [(i, j) for i, j, o in x.bonds if o == 1 and (i, j) not in cyc]
        cut_sets = [set()]
        cut_sets += [{c} for c in cuttable]
        cut_sets += [{cuttable[p], cuttable[q]} for p in range(len(cuttable))
                     for q in range(p + 1, len(cuttable))]
        for cuts in cut_sets:
            if not cuts:
                continue
            remaining = [bd for bd in x.bonds if (bd[0], bd[1]) not in cuts]
            # components by repeated flood fill
            adj = {i: set() for i in range(x.num_atoms)}
            for i, j, _ in remaining:
                adj[i].add(j)
                adj[j].add(i)
            unseen = set(range(x.num_atoms))
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
                if 10 * len(comp) >= 6 * x.num_atoms:
                    best = max(best, tanimoto(path_fingerprint(subgraph(x, comp)), fp_y))
        return best

    return max(one_way(a, b), one_way(b, a))


def test_fraggle_matches_brute_force_on_five_atom_pair():
    a = parse_smiles("CC(=O)CN")
    b = parse_smiles("CCC(N)O")
    assert fraggle_similarity(a, b) == pytest.approx(brute_force_fraggle(a, b), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fraggle_matches_brute_force_fuzz(seed):
    rng = SeededRng(seed)
    a, b = random_molecule(rng), random_molecule(rng)
    got = fraggle_similarity(a, b)
    assert got == pytest.approx(brute_force_fraggle(a, b), abs=1e-12)
    assert got == pytest.approx(fraggle_similarity(b, a), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fraggle_equals_oracle_exactly(seed):
    rng = SeededRng(seed)
    a, b = random_molecule(rng), random_molecule(rng)
    assert fraggle_similarity(a, b) == oracles.brute_force_fraggle(a, b)


def reference_path_fingerprint(m: Molecule, max_bonds: int = 5, bits: int = 2048) -> Fingerprint:
    """Every simple path of 0..max_bonds bonds, read atom by atom and hashed
    uncached under its smaller direction."""
    orders = {(i, j): o for i, j, o in m.bonds}
    on = set()

    def walk(path: list[int]) -> None:
        rep = [m.elements[path[0]]]
        for a, b in zip(path, path[1:]):
            rep += [orders[min(a, b), max(a, b)], m.elements[b]]
        rep = tuple(rep)
        on.add(_hash_tuple(("path", min(rep, rep[::-1]))) % bits)
        if len(path) - 1 < max_bonds:
            for nb, _ in m.adjacency[path[-1]]:
                if nb not in path:
                    walk(path + [nb])

    for i in range(m.num_atoms):
        walk([i])
    return Fingerprint("path", bits, frozenset(on))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_path_fingerprint_matches_uncached_reference(seed):
    m = random_molecule(SeededRng(seed))
    assert path_fingerprint(m) == reference_path_fingerprint(m)
    ring = parse_smiles("C1CC2CCC12C#N")
    assert path_fingerprint(ring, max_bonds=3, bits=64) == reference_path_fingerprint(ring, 3, 64)


def test_path_hash_cache_is_bounded():
    info = _path_hash.cache_info()
    assert info.maxsize == PATH_HASH_CACHE_SIZE
    assert 0 < info.maxsize < 2**20


def brute_force_cyclic_bonds(m: Molecule) -> set[tuple[int, int]]:
    """A bond is cyclic iff a BFS from one end, the bond removed, reaches
    the other."""
    out = set()
    for i, j, _ in m.bonds:
        adj = {a: set() for a in range(m.num_atoms)}
        for p, q, _ in m.bonds:
            if (p, q) != (i, j):
                adj[p].add(q)
                adj[q].add(p)
        seen, frontier = {i}, [i]
        while frontier:
            frontier = [nb for cur in frontier for nb in adj[cur] - seen]
            seen.update(frontier)
        if j in seen:
            out.add((i, j))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cyclic_bonds_cached_and_match_brute_force(seed):
    for m in (random_molecule(SeededRng(seed)), parse_smiles("C1CC2CCC12CC1CO1")):
        first = cyclic_bonds(m)
        assert isinstance(first, frozenset)
        assert first == brute_force_cyclic_bonds(m)
        assert cyclic_bonds(m) is first
        assert ring_sizes(m) is ring_sizes(m)


# ---------------------------------------------------------------------------
# ring perception and descriptors
# ---------------------------------------------------------------------------


def test_ring_metrics_on_fused_bicycle():
    # two fused 4-rings sharing the 2-5 bond; every edge's shortest cycle is 4
    m = parse_smiles("C1CC2CCC12")
    assert ring_count(m) == 2
    assert ring_sizes(m) == {4}
    assert fusion_atoms(m) == {2, 5}
    assert largest_ring_size(m) == 4
    assert largest_ring_size(parse_smiles("C1CCCCCC1")) == 7


def test_descriptors_on_known_molecules():
    assert molecular_weight(parse_smiles("C")) == pytest.approx(16.043)
    ethanol = parse_smiles("CCO")
    assert h_donor_count(ethanol) == 1
    assert h_acceptor_count(ethanol) == 1
    assert rotatable_bond_count(ethanol) == 0  # both candidate ends are terminal
    assert longest_chain(ethanol) == 3
    assert rotatable_bond_count(parse_smiles("CCCC")) == 1
    assert rotatable_bond_count(parse_smiles("C1CCCCC1")) == 0  # ring bonds excluded
