import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import _hash_tuple, is_isomorphic
from molflow.autodiff import SeededRng
from molflow.chem import (
    N_ATOM_TYPES,
    N_BOND_TYPES,
    PADDING_TYPE,
    PATH_HASH_CACHE_SIZE,
    Molecule,
    SmilesError,
    STRUCTURAL_KEYS,
    _fragment_candidates,
    _fragment_fingerprints,
    _path_hash,
    _path_table,
    canonical_rank,
    connected_components,
    fraggle_similarity,
    from_tensors,
    fusion_atoms,
    h_acceptor_count,
    h_donor_count,
    largest_ring_size,
    maccs_similarity,
    molecular_weight,
    morgan_fingerprint,
    parse_smiles,
    path_fingerprint,
    ring_count,
    rotatable_bond_count,
    structural_keys,
    subgraph,
    tanimoto,
    to_hex,
    to_tensors,
    valence_prescreen,
    valency_check,
    write_smiles,
)
from molflow.dataset import random_molecule, synthetic_corpus


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
        assert is_isomorphic(from_tensors(atom.argmax(axis=1), bond.argmax(axis=2)), m)


def test_all_padding_decodes_to_empty_invalid_molecule():
    m = from_tensors(np.full(9, PADDING_TYPE), np.zeros((9, 9), dtype=int))
    assert m.num_atoms == 0
    assert not valency_check(m)


def test_from_tensors_drops_padding_rows_and_their_bonds():
    types = np.array([0, PADDING_TYPE, 3, 1])
    orders = np.zeros((4, 4), dtype=int)
    orders[0, 1] = orders[1, 0] = 2   # bond to a padding row
    orders[0, 2] = orders[2, 0] = 1
    orders[2, 3] = orders[3, 2] = 3
    m = from_tensors(types, orders)
    assert m.elements == ("C", "F", "N")
    assert m.bonds == ((0, 1, 1), (1, 2, 3))


def test_from_tensors_equals_the_onehot_oracle_on_random_rows():
    # 3000 random symmetric rows, with padding atoms that still carry bonds,
    # nonzero diagonals and 100 all-padding rows
    gen = np.random.default_rng(25)
    rows, n = 3000, 9
    types = np.where(gen.random((rows, n)) < 0.3, PADDING_TYPE,
                     gen.integers(0, PADDING_TYPE, (rows, n)))
    types[:100] = PADDING_TYPE
    upper = np.triu(gen.integers(0, N_BOND_TYPES, (rows, n, n)) * (gen.random((rows, n, n)) < 0.35))
    orders = upper + np.triu(upper, 1).transpose(0, 2, 1)
    assert (np.diagonal(orders, axis1=1, axis2=2) != 0).any(axis=1).sum() > rows // 2
    real = types != PADDING_TYPE
    assert (orders * (real[:, :, None] & ~real[:, None, :])).any(axis=(1, 2)).sum() > rows // 2
    atom, bond = np.eye(N_ATOM_TYPES)[types], np.eye(N_BOND_TYPES)[orders]
    for i in range(rows):
        assert from_tensors(types[i], orders[i]) == oracles.onehot_from_tensors(atom[i], bond[i])
    assert from_tensors(types[0], orders[0]).num_atoms == 0


def test_valence_prescreen_matches_per_molecule_capacity():
    # random decoded rows: the screen holds exactly where the molecule has
    # an atom and no atom over its valence (connectivity aside)
    gen = np.random.default_rng(31)
    types = gen.integers(0, N_ATOM_TYPES, (400, 6))
    upper = np.triu(gen.integers(0, N_BOND_TYPES, (400, 6, 6)) * (gen.random((400, 6, 6)) < 0.3), 1)
    orders = upper + upper.transpose(0, 2, 1)
    types[:20] = PADDING_TYPE
    screen = valence_prescreen(types, orders)
    mols = [from_tensors(t, o) for t, o in zip(types, orders)]
    within = [oracles.within_valence(m) for m in mols]
    assert screen.tolist() == within
    assert 0 < sum(within) < len(within)
    assert all(s for s, m in zip(screen, mols) if valency_check(m))


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
    empty = Molecule((), ())
    assert not valency_check(empty)
    assert connected_components(empty) == [] == oracles.flood_fill_components(empty)


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
    fp, again = morgan_fingerprint([m, parse_smiles("CC(=O)NC1CC1")])
    assert fp == again
    rng = SeededRng(23)
    perms = [[int(i) for i in rng.permutation(m.num_atoms)] for _ in range(50)]
    assert morgan_fingerprint([permuted(m, perm) for perm in perms]) == [fp] * 50


def test_morgan_separates_ethane_from_ethanol():
    ethane, ethanol = morgan_fingerprint([parse_smiles("CC"), parse_smiles("CCO")])
    assert ethane != ethanol


def test_tanimoto_identity_disjoint_and_counts():
    a = oracles.from_bits({1, 2, 3})
    b = oracles.from_bits({2, 3, 4})
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, oracles.from_bits({9, 10})) == 0.0
    assert tanimoto(a, b) == 0.5
    assert tanimoto(0, 0) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tanimoto_symmetric_and_bounded(seed):
    rng = SeededRng(seed)
    a, b = morgan_fingerprint([random_molecule(rng), random_molecule(rng)])
    assert tanimoto(a, b) == tanimoto(b, a)
    assert 0.0 <= tanimoto(a, b) <= 1.0


def reference_to_hex(bits: set[int], nbits: int) -> str:
    """Bit b set as bit b % 8 from the top of byte b // 8, one bit at a time."""
    buf = bytearray((nbits + 7) // 8)
    for b in bits:
        buf[b // 8] |= 0x80 >> (b % 8)
    return buf.hex()


def test_fingerprint_hex_round_trip():
    assert to_hex(oracles.from_bits({0, 5, 15}), 16) == "8401"
    rng = np.random.default_rng(31)
    for nbits in (1, 7, 8, 9, 16, 2048):
        for _ in range(20):
            bits = {int(b) for b in rng.choice(nbits, rng.integers(nbits + 1), replace=False)}
            assert to_hex(oracles.from_bits(bits), nbits) == reference_to_hex(bits, nbits)


def test_structural_keys_cyclopropane_has_3_ring():
    names = [name for name, _ in STRUCTURAL_KEYS]
    bits = oracles.set_bits(structural_keys(parse_smiles("C1CC1")))
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
    assert oracles.set_bits(co2) == {
        names.index("has_oxygen"),
        names.index("oxygens_ge_2"),
        names.index("has_double_bond"),
        names.index("double_bonds_ge_2"),
        names.index("carbonyl"),
    }
    assert oracles.set_bits(ch4) == {names.index("all_carbon")}
    assert maccs_similarity(parse_smiles("O=C=O"), parse_smiles("C")) == 0.0


def test_fraggle_self_similarity():
    m = parse_smiles("CC(C)(C)CO")
    assert fraggle_similarity(m, m) == 1.0


def test_fraggle_disjoint_elements():
    assert fraggle_similarity(parse_smiles("C"), parse_smiles("O")) == 0.0


def test_fraggle_matches_brute_force_on_five_atom_pair():
    a = parse_smiles("CC(=O)CN")
    b = parse_smiles("CCC(N)O")
    assert fraggle_similarity(a, b) == pytest.approx(oracles.brute_force_fraggle(a, b),
                                                     abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fraggle_matches_brute_force_fuzz(seed):
    rng = SeededRng(seed)
    a, b = random_molecule(rng), random_molecule(rng)
    got = fraggle_similarity(a, b)
    assert got == pytest.approx(oracles.brute_force_fraggle(a, b), abs=1e-12)
    assert got == pytest.approx(fraggle_similarity(b, a), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fraggle_equals_oracle_exactly(seed):
    rng = SeededRng(seed)
    a, b = random_molecule(rng), random_molecule(rng)
    assert fraggle_similarity(a, b) == oracles.brute_force_fraggle(a, b)


def reference_path_fingerprint(m: Molecule, max_bonds: int = 5, bits: int = 2048) -> int:
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
    return oracles.from_bits(on)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_path_fingerprint_matches_uncached_reference(seed):
    m = random_molecule(SeededRng(seed))
    assert path_fingerprint(m) == reference_path_fingerprint(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_path_table_from_one_end_equals_both_ends(seed):
    # each path is recorded from its lower-index end only; the table is the
    # set the walk from both ends gives
    for m in (random_molecule(SeededRng(seed)), parse_smiles("C1CC2CCC12CC1CO1")):
        assert set(_path_table(m)) == oracles.two_direction_path_table(m)


CHAIN_GE_5 = [name for name, _ in STRUCTURAL_KEYS].index("chain_ge_5")


def assert_graph_walks_match_oracles(m: Molecule) -> None:
    # the bitmask components are the flood-filled ones, fragments split from
    # bridge sides are the brute-force cuts, and the path table's chain key
    # is the longest-chain walk's
    assert m._bond_walks == oracles.dict_bond_walks(m)
    assert connected_components(m) == [sum(1 << a for a in comp)
                                       for comp in oracles.flood_fill_components(m)]
    assert set(_fragment_candidates(m)) == oracles.brute_force_fragments(m)
    assert (CHAIN_GE_5 in oracles.set_bits(structural_keys(m))) == (oracles.longest_chain(m) >= 5)
    # a fragment is an induced subgraph, so its own path walk finds exactly
    # the parent's paths that lie inside it
    frags = _fragment_candidates(m)
    fps = _fragment_fingerprints(m)
    assert len(fps) == len(frags)
    for frag, fp in zip(frags, fps):
        atoms = {a for a in range(m.num_atoms) if frag >> a & 1}
        assert fp == path_fingerprint(subgraph(m, atoms))


def test_fragment_fingerprints_equal_subgraph_fingerprints_on_a_corpus():
    corpus = synthetic_corpus(400, SeededRng(12).spawn("fragments"), with_geometry=False)
    assert len(corpus.records) == 400
    n_frags = 0
    for record in corpus.records:
        m = parse_smiles(record.smiles)
        assert_graph_walks_match_oracles(m)
        n_frags += len(_fragment_candidates(m))
    assert n_frags > 400


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fragment_fingerprints_equal_subgraph_fingerprints_fuzz(seed):
    assert_graph_walks_match_oracles(random_molecule(SeededRng(seed)))


def test_fragments_of_a_disconnected_graph_match_the_oracle():
    # a 7-atom cyclopropyl chain and an O-C pair: a cut splits only the
    # piece that holds it, and the pair's own cut leaves the chain whole
    m = Molecule.build("CCCCCCNOC", [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1),
                                     (4, 5, 1), (5, 6, 1), (7, 8, 1)])
    assert len(connected_components(m)) == 2
    assert oracles.brute_force_fragments(m) == {0b0001111111, 0b0000111111}
    assert_graph_walks_match_oracles(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_morgan_matches_unmemoized_reference(seed):
    # one batch of random molecules, with a repeat and an atom-free molecule:
    # the batch hashes the same bytes as hashing each environment afresh
    rng = SeededRng(seed)
    mols = [random_molecule(rng) for _ in range(3)]
    mols += [mols[0], Molecule((), ())]
    assert morgan_fingerprint(mols) == [oracles.reference_morgan_fingerprint(m) for m in mols]
    assert morgan_fingerprint([]) == []


def test_morgan_batch_of_a_corpus_matches_reference():
    mols = [r.molecule for r in synthetic_corpus(200, SeededRng(26).spawn("morgan"),
                                                 with_geometry=False).records]
    assert morgan_fingerprint(mols) == [oracles.reference_morgan_fingerprint(m) for m in mols]


def test_path_hash_writes_the_serializer_bytes():
    # the templated bytes hash to the full 64 bits of the tuple serializer's
    for canon in [("C",), ("C", 1, "O"), ("N", 3, "C", 2, "C", 1, "F"), ("O", 2, "N", 1, "C")]:
        assert _path_hash(canon) == _hash_tuple(("path", canon))


def test_similarity_memos_are_bounded():
    info = _path_hash.cache_info()
    assert info.maxsize == PATH_HASH_CACHE_SIZE
    assert 0 < info.maxsize < 2**20
    assert 0 < _path_table.cache_info().maxsize <= 8


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
def test_bond_walks_match_distance_dict_search(seed):
    # random, disconnected and fused-ring molecules: the neighbor-bitmask
    # search gives each bond's cycle length and reach of the dict search
    rng = SeededRng(seed)
    a, b = random_molecule(rng), random_molecule(rng)
    joined = Molecule.build(a.elements + b.elements, list(a.bonds) + [
        (i + a.num_atoms, j + a.num_atoms, o) for i, j, o in b.bonds])
    for m in (a, joined, parse_smiles("C1CC2CCC12CC1CO1"), parse_smiles("C12C3C4C1C5C2C3C45")):
        assert m._bond_walks == oracles.dict_bond_walks(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cyclic_bonds_cached_and_match_brute_force(seed):
    for m in (random_molecule(SeededRng(seed)), parse_smiles("C1CC2CCC12CC1CO1")):
        first = m.cyclic_bonds
        assert isinstance(first, frozenset)
        assert first == brute_force_cyclic_bonds(m)
        assert m.cyclic_bonds is first
        assert m.ring_sizes is m.ring_sizes


# ---------------------------------------------------------------------------
# ring perception and descriptors
# ---------------------------------------------------------------------------


def test_ring_metrics_on_fused_bicycle():
    # two fused 4-rings sharing the 2-5 bond; every edge's shortest cycle is 4
    m = parse_smiles("C1CC2CCC12")
    assert ring_count(m) == 2
    assert m.ring_sizes == {4}
    assert fusion_atoms(m) == {2, 5}
    assert largest_ring_size(m) == 4
    assert largest_ring_size(parse_smiles("C1CCCCCC1")) == 7


def test_descriptors_on_known_molecules():
    assert molecular_weight(parse_smiles("C")) == pytest.approx(16.043)
    ethanol = parse_smiles("CCO")
    assert h_donor_count(ethanol) == 1
    assert h_acceptor_count(ethanol) == 1
    assert rotatable_bond_count(ethanol) == 0  # both candidate ends are terminal
    assert oracles.longest_chain(ethanol) == 3
    assert rotatable_bond_count(parse_smiles("CCCC")) == 1
    assert rotatable_bond_count(parse_smiles("C1CCCCC1")) == 0  # ring bonds excluded


def test_smiles_and_fingerprints_leave_no_reference_cycle():
    # a local function that calls itself is a reference cycle: it would keep
    # each call's lists alive until the cyclic garbage collector runs
    molecules = [r.molecule for r in synthetic_corpus(6, SeededRng(131).spawn("gc"),
                                                      with_geometry=False).records]
    molecules.append(parse_smiles("C1CC2CCC12"))
    gc.collect()
    gc.disable()
    try:
        for m in molecules:
            for f in (write_smiles, lambda m: morgan_fingerprint([m]), path_fingerprint):
                f(m)
                assert gc.collect() == 0, f
    finally:
        gc.enable()
