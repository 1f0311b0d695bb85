"""Molecular graphs over C/N/O/F with implicit hydrogens.

Covers the SMILES subset grammar (plain atoms, ``- = #`` bonds, branches,
ring-closure digits 1-9; no aromatics, charges, isotopes, or stereo),
canonical serialization, one-hot tensor encoding, valency checking,
fingerprints, and the similarity metrics built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .autodiff import fnv1a_64

ELEMENTS = ("C", "N", "O", "F")
VALENCE = {"C": 4, "N": 3, "O": 2, "F": 1}
ATOMIC_MASS = {"C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998}
HYDROGEN_MASS = 1.008
BOND_ORDERS = (1, 2, 3)
BOND_CHAR = {2: "=", 3: "#"}

# tensor layout: one atom-type channel per element plus a trailing padding
# type; bond channel 0 means "no bond", channels 1..3 are the bond order
N_ATOM_TYPES = len(ELEMENTS) + 1
PADDING_TYPE = len(ELEMENTS)
N_BOND_TYPES = len(BOND_ORDERS) + 1


class SmilesError(ValueError):
    """Structured SMILES failure; `position` is a 0-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Molecule:
    """Immutable heavy-atom graph.

    ``bonds`` holds ``(i, j, order)`` triples with ``i < j``, sorted. The
    constructor validates graph structure (indices, symmetry by
    construction, element and order sets) but deliberately not valence:
    decoded tensors may describe over-valent graphs that ``valency_check``
    must be able to reject.
    """

    elements: tuple[str, ...]
    bonds: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = len(self.elements)
        for el in self.elements:
            if el not in VALENCE:
                raise ValueError(f"unsupported element {el!r}")
        seen = set()
        for i, j, order in self.bonds:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bond ({i},{j}) references a missing atom")
            if i == j:
                raise ValueError(f"self-bond on atom {i}")
            if i > j:
                raise ValueError("bonds must be stored with i < j")
            if (i, j) in seen:
                raise ValueError(f"duplicate bond ({i},{j})")
            if order not in BOND_ORDERS:
                raise ValueError(f"unsupported bond order {order}")
            seen.add((i, j))
        object.__setattr__(self, "bonds", tuple(sorted(self.bonds)))

    @staticmethod
    def build(elements, bonds) -> "Molecule":
        """Normalize arbitrary (i, j, order) input into the stored form."""
        norm = tuple(sorted((min(i, j), max(i, j), int(order)) for i, j, order in bonds))
        return Molecule(tuple(elements), norm)

    @property
    def num_atoms(self) -> int:
        return len(self.elements)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-atom tuple of (neighbor, order) pairs, sorted by neighbor."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_atoms)]
        for i, j, order in self.bonds:
            adj[i].append((j, order))
            adj[j].append((i, order))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def cyclic_bonds(self) -> frozenset[tuple[int, int]]:
        """Bonds ``(i, j)`` lying on some cycle: the non-bridge edges."""
        out = set()
        for i, j, _ in self.bonds:
            # edge is cyclic iff endpoints stay connected without it
            seen = {i}
            queue = [i]
            while queue:
                cur = queue.pop()
                for nb, _ in self.adjacency[cur]:
                    if (min(cur, nb), max(cur, nb)) == (i, j):
                        continue
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
            if j in seen:
                out.add((i, j))
        return frozenset(out)

    @cached_property
    def ring_sizes(self) -> frozenset[int]:
        """Length of the shortest cycle through each cyclic bond."""
        return frozenset(_shortest_cycle_through(self, i, j) for i, j in self.cyclic_bonds)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def bond_order_sum(self, i: int) -> int:
        return sum(order for _, order in self.adjacency[i])

    def implicit_hydrogens(self, i: int) -> int:
        return max(0, VALENCE[self.elements[i]] - self.bond_order_sum(i))


# ---------------------------------------------------------------------------
# SMILES parsing
# ---------------------------------------------------------------------------


def parse_smiles(text: str) -> Molecule:
    """Parse the supported SMILES subset into a Molecule.

    Raises SmilesError with the offending character position for syntax
    problems, unsupported tokens, unclosed rings/branches, and valence
    overflow.
    """
    if not text:
        raise SmilesError("empty SMILES", 0)
    elements: list[str] = []
    atom_pos: list[int] = []
    bonds: list[tuple[int, int, int]] = []
    bonded: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = []  # (atom, '(' position)
    rings: dict[str, tuple[int, int | None, int]] = {}  # digit -> (atom, order, pos)
    prev: int | None = None
    pending: int | None = None
    pending_pos = 0

    def add_bond(i: int, j: int, order: int, pos: int) -> None:
        key = (min(i, j), max(i, j))
        if key in bonded:
            raise SmilesError(f"duplicate bond between atoms {i} and {j}", pos)
        bonded.add(key)
        bonds.append((key[0], key[1], order))

    for pos, ch in enumerate(text):
        if ch in VALENCE:
            idx = len(elements)
            elements.append(ch)
            atom_pos.append(pos)
            if prev is not None:
                add_bond(prev, idx, pending if pending is not None else 1, pos)
            prev = idx
            pending = None
        elif ch in "-=#":
            if pending is not None:
                raise SmilesError("two consecutive bond symbols", pos)
            if prev is None:
                raise SmilesError("bond symbol before any atom", pos)
            pending = {"-": 1, "=": 2, "#": 3}[ch]
            pending_pos = pos
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch before any atom", pos)
            if pending is not None:
                raise SmilesError("bond symbol before branch open", pos)
            stack.append((prev, pos))
        elif ch == ")":
            if not stack:
                raise SmilesError("unmatched branch close", pos)
            if pending is not None:
                raise SmilesError("dangling bond before branch close", pending_pos)
            prev, _ = stack.pop()
        elif ch.isdigit():
            if ch == "0":
                raise SmilesError("ring-closure digit must be 1-9", pos)
            if prev is None:
                raise SmilesError("ring-closure digit before any atom", pos)
            if ch in rings:
                other, other_order, _ = rings.pop(ch)
                if other == prev:
                    raise SmilesError("ring closure to the same atom", pos)
                if pending is not None and other_order is not None and pending != other_order:
                    raise SmilesError("conflicting ring-closure bond orders", pos)
                order = pending if pending is not None else (other_order if other_order is not None else 1)
                add_bond(prev, other, order, pos)
            else:
                rings[ch] = (prev, pending, pos)
            pending = None
        else:
            raise SmilesError(f"unsupported token {ch!r}", pos)

    if stack:
        raise SmilesError("unclosed branch", stack[-1][1])
    if rings:
        digit = min(rings)
        raise SmilesError(f"unclosed ring {digit}", rings[digit][2])
    if pending is not None:
        raise SmilesError("dangling bond at end of input", pending_pos)

    mol = Molecule.build(elements, bonds)
    for i in range(mol.num_atoms):
        if mol.bond_order_sum(i) > VALENCE[mol.elements[i]]:
            raise SmilesError(
                f"valence overflow on {mol.elements[i]} atom {i}", atom_pos[i]
            )
    return mol


# ---------------------------------------------------------------------------
# canonical ranking and writing
# ---------------------------------------------------------------------------


def _dense_rank(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(m: Molecule, ranks: list[int]) -> list[int]:
    adj = m.adjacency
    while True:
        keys = [
            (ranks[i], tuple(sorted((order, ranks[j]) for j, order in adj[i])))
            for i in range(m.num_atoms)
        ]
        new = _dense_rank(keys)
        if new == ranks:
            return ranks
        ranks = new


def _certificate(m: Molecule, ranks: list[int]):
    inv = [0] * m.num_atoms
    for atom, r in enumerate(ranks):
        inv[r] = atom
    elems = tuple(m.elements[inv[r]] for r in range(m.num_atoms))
    rebonds = tuple(
        sorted(
            (min(ranks[i], ranks[j]), max(ranks[i], ranks[j]), order)
            for i, j, order in m.bonds
        )
    )
    return elems, rebonds


def _canonical_complete(m: Molecule, ranks: list[int]):
    """Fully discrete ranking by individualization-refinement.

    Ties are broken by trying every member of the first non-singleton rank
    class and keeping the lexicographically smallest certificate, which
    makes the result independent of the input atom order.
    """
    n = m.num_atoms
    if len(set(ranks)) == n:
        return _certificate(m, ranks), ranks
    counts: dict[int, list[int]] = {}
    for atom, r in enumerate(ranks):
        counts.setdefault(r, []).append(atom)
    cell = counts[min(r for r, atoms in counts.items() if len(atoms) > 1)]
    best = None
    for atom in cell:
        seed = [r * 2 for r in ranks]
        seed[atom] -= 1
        cand = _canonical_complete(m, _refine(m, _dense_rank(seed)))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def canonical_rank(m: Molecule) -> list[int]:
    """Canonical atom ranks: iterative neighborhood refinement over
    (element, degree, bond-order multiset), then deterministic tie-breaking.
    Isomorphic molecules receive identical rank-ordered graphs."""
    if m.num_atoms == 0:
        return []
    initial = _dense_rank(
        [
            (m.elements[i], m.degree(i), tuple(sorted(o for _, o in m.adjacency[i])))
            for i in range(m.num_atoms)
        ]
    )
    _, ranks = _canonical_complete(m, _refine(m, initial))
    return ranks


def write_smiles(m: Molecule) -> str:
    """Canonical SMILES: identical strings for isomorphic molecules."""
    if m.num_atoms == 0:
        raise ValueError("cannot serialize an empty molecule")
    ranks = canonical_rank(m)
    inv = [0] * m.num_atoms
    for atom, r in enumerate(ranks):
        inv[r] = atom
    # relabel to canonical indices
    elems = [m.elements[inv[r]] for r in range(m.num_atoms)]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m.num_atoms)]
    for i, j, order in m.bonds:
        a, b = ranks[i], ranks[j]
        adj[a].append((b, order))
        adj[b].append((a, order))
    for lst in adj:
        lst.sort()

    visited = [False] * m.num_atoms
    tree: list[list[tuple[int, int]]] = [[] for _ in range(m.num_atoms)]
    ring_bonds: list[tuple[int, int, int]] = []
    seen_edges: set[tuple[int, int]] = set()

    def span(a: int) -> None:
        visited[a] = True
        for b, order in adj[a]:
            key = (min(a, b), max(a, b))
            if key in seen_edges:
                continue
            seen_edges.add(key)
            if visited[b]:
                ring_bonds.append((a, b, order))
            else:
                tree[a].append((b, order))
                span(b)

    span(0)

    ring_digit: dict[tuple[int, int], int] = {}
    ring_at: dict[int, list[tuple[int, int, int]]] = {}
    for a, b, order in ring_bonds:
        key = (min(a, b), max(a, b))
        ring_at.setdefault(a, []).append((b, order, key[0] * m.num_atoms + key[1]))
        ring_at.setdefault(b, []).append((a, order, key[0] * m.num_atoms + key[1]))
    free_digits = list(range(9, 0, -1))
    out: list[str] = []

    def emit(atom: int) -> None:
        out.append(elems[atom])
        for other, order, edge_id in sorted(ring_at.get(atom, []), key=lambda t: t[2]):
            if edge_id in ring_digit:
                digit = ring_digit.pop(edge_id)
                if order != 1:
                    out.append(BOND_CHAR[order])
                out.append(str(digit))
                free_digits.append(digit)
                free_digits.sort(reverse=True)
            else:
                if not free_digits:
                    # only possible for extreme polycyclic cages (10 independent
                    # cycles needs 18 bonds on 9 all-carbon atoms)
                    raise ValueError("molecule needs more than 9 open ring closures")
                digit = free_digits.pop()
                ring_digit[edge_id] = digit
                if order != 1:
                    out.append(BOND_CHAR[order])
                out.append(str(digit))
        children = tree[atom]
        for k, (child, order) in enumerate(children):
            last = k == len(children) - 1
            if not last:
                out.append("(")
            if order != 1:
                out.append(BOND_CHAR[order])
            emit(child)
            if not last:
                out.append(")")

    emit(0)
    return "".join(out)


# ---------------------------------------------------------------------------
# graph isomorphism (exact, for molecules of QM9 scale)
# ---------------------------------------------------------------------------


def is_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Exact isomorphism by backtracking over element/degree-compatible maps."""
    if a.num_atoms != b.num_atoms or len(a.bonds) != len(b.bonds):
        return False
    if sorted(a.elements) != sorted(b.elements):
        return False

    def signature(m: Molecule, i: int):
        return (m.elements[i], m.degree(i), tuple(sorted(o for _, o in m.adjacency[i])))

    sig_a = [signature(a, i) for i in range(a.num_atoms)]
    sig_b = [signature(b, i) for i in range(b.num_atoms)]
    if sorted(sig_a) != sorted(sig_b):
        return False

    order = sorted(range(a.num_atoms), key=lambda i: (-a.degree(i), sig_a[i]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in range(b.num_atoms):
            if j in used or sig_b[j] != sig_a[i]:
                continue
            ok = True
            for nb, bond_order in a.adjacency[i]:
                if nb in mapping:
                    want = [o for t, o in b.adjacency[j] if t == mapping[nb]]
                    if want != [bond_order]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if extend(k + 1):
                return True
            del mapping[i]
            used.remove(j)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# tensor encoding
# ---------------------------------------------------------------------------


def to_tensors(m: Molecule, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot (atoms, bonds) encoding with padding up to `n_max` atoms."""
    n = m.num_atoms
    if n > n_max:
        raise ValueError(f"molecule has {n} atoms, exceeding n_max={n_max}")
    atom = np.zeros((n_max, N_ATOM_TYPES))
    for i, el in enumerate(m.elements):
        atom[i, ELEMENTS.index(el)] = 1.0
    atom[n:, PADDING_TYPE] = 1.0
    bond = np.zeros((n_max, n_max, N_BOND_TYPES))
    bond[:, :, 0] = 1.0
    for i, j, order in m.bonds:
        bond[i, j, 0] = bond[j, i, 0] = 0.0
        bond[i, j, order] = bond[j, i, order] = 1.0
    return atom, bond


def from_tensors(atom: np.ndarray, bond: np.ndarray) -> Molecule:
    """Decode (possibly real-valued) tensors into a Molecule.

    Bond logits are symmetrized by averaging the (i,j) and (j,i) entries
    before the per-pair argmax; rows whose argmax is the padding type are
    dropped along with their bonds. The result may be chemically invalid
    and is meant to be screened by ``valency_check``.
    """
    types = np.asarray(atom).argmax(axis=1)
    keep = [i for i, t in enumerate(types) if t != PADDING_TYPE]
    remap = {i: k for k, i in enumerate(keep)}
    elements = tuple(ELEMENTS[types[i]] for i in keep)
    sym = (np.asarray(bond) + np.asarray(bond).transpose(1, 0, 2)) / 2.0
    q = sym.argmax(axis=2)
    bonds = []
    for i in keep:
        for j in keep:
            if i < j and q[i, j] != 0:
                bonds.append((remap[i], remap[j], int(q[i, j])))
    return Molecule.build(elements, bonds)


def connected_components(m: Molecule) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(m.num_atoms):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for nb, _ in m.adjacency[cur]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        comps.append(comp)
    return comps


def valency_check(m: Molecule) -> bool:
    """True iff no atom exceeds its valence capacity and the graph is one
    connected component with at least one atom. Connectivity-as-validity is
    a documented policy choice (single-molecule outputs)."""
    if m.num_atoms == 0:
        return False
    for i in range(m.num_atoms):
        if m.bond_order_sum(i) > VALENCE[m.elements[i]]:
            return False
    return len(connected_components(m)) == 1


# ---------------------------------------------------------------------------
# ring perception (deterministic, basis-free)
# ---------------------------------------------------------------------------


def cyclic_bonds(m: Molecule) -> frozenset[tuple[int, int]]:
    """Bonds lying on some cycle: the non-bridge edges (computed once per
    molecule)."""
    return m.cyclic_bonds


def ring_count(m: Molecule) -> int:
    """Cyclomatic number: bonds - atoms + components."""
    return len(m.bonds) - m.num_atoms + len(connected_components(m))


def _shortest_cycle_through(m: Molecule, i: int, j: int) -> int:
    # BFS from i to j avoiding the (i, j) edge itself
    dist = {i: 0}
    queue = [i]
    while queue:
        nxt = []
        for cur in queue:
            for nb, _ in m.adjacency[cur]:
                if (min(cur, nb), max(cur, nb)) == (min(i, j), max(i, j)):
                    continue
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    nxt.append(nb)
        queue = nxt
    return dist[j] + 1 if j in dist else 0


def ring_sizes(m: Molecule) -> frozenset[int]:
    """Ring sizes present: length of the shortest cycle through each cyclic
    bond. Fused systems report their small rings."""
    return m.ring_sizes


def largest_ring_size(m: Molecule) -> int:
    sizes = ring_sizes(m)
    return max(sizes) if sizes else 0


def ring_atoms(m: Molecule) -> set[int]:
    cyc = cyclic_bonds(m)
    return {i for i, j in cyc} | {j for i, j in cyc}


def fusion_atoms(m: Molecule) -> set[int]:
    """Atoms with three or more cyclic bonds (ring-fusion or spiro centers)."""
    cyc = cyclic_bonds(m)
    count: dict[int, int] = {}
    for i, j in cyc:
        count[i] = count.get(i, 0) + 1
        count[j] = count.get(j, 0) + 1
    return {a for a, c in count.items() if c >= 3}


# ---------------------------------------------------------------------------
# descriptors shared by scoring and report code
# ---------------------------------------------------------------------------


def molecular_weight(m: Molecule) -> float:
    heavy = sum(ATOMIC_MASS[el] for el in m.elements)
    hydrogens = sum(m.implicit_hydrogens(i) for i in range(m.num_atoms))
    return heavy + HYDROGEN_MASS * hydrogens


def h_donor_count(m: Molecule) -> int:
    return sum(
        1
        for i, el in enumerate(m.elements)
        if el in ("N", "O") and m.implicit_hydrogens(i) >= 1
    )


def h_acceptor_count(m: Molecule) -> int:
    return sum(1 for el in m.elements if el in ("N", "O"))


def rotatable_bond_count(m: Molecule) -> int:
    """Acyclic single bonds between two non-terminal heavy atoms."""
    cyc = cyclic_bonds(m)
    return sum(
        1
        for i, j, order in m.bonds
        if order == 1 and (i, j) not in cyc and m.degree(i) >= 2 and m.degree(j) >= 2
    )


def longest_chain(m: Molecule) -> int:
    """Longest simple path, counted in atoms."""
    best = 0

    def walk(cur: int, seen: set[int]) -> int:
        length = len(seen)
        for nb, _ in m.adjacency[cur]:
            if nb not in seen:
                length = max(length, walk(nb, seen | {nb}))
        return length

    for start in range(m.num_atoms):
        best = max(best, walk(start, {start}))
    return best


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    kind: str
    nbits: int
    bits: frozenset[int]

    def __post_init__(self):
        if any(not 0 <= b < self.nbits for b in self.bits):
            raise ValueError("bit index out of range")

    def to_hex(self) -> str:
        buf = bytearray((self.nbits + 7) // 8)
        for b in self.bits:
            buf[b // 8] |= 0x80 >> (b % 8)
        return buf.hex()


# distinct canonical paths seen by `_path_hash`; a few thousand cover a corpus
PATH_HASH_CACHE_SIZE = 1 << 16


def _hash_tuple(obj) -> int:
    """FNV-1a over a canonical byte serialization of nested int/str tuples."""

    def encode(x, out: bytearray) -> None:
        if isinstance(x, tuple):
            out += b"("
            for item in x:
                encode(item, out)
                out += b","
            out += b")"
        elif isinstance(x, int):
            out += b"i%d" % x
        elif isinstance(x, str):
            out += b"s" + x.encode("utf-8")
        else:
            raise TypeError(f"unhashable piece {type(x)}")

    buf = bytearray()
    encode(obj, buf)
    return fnv1a_64(bytes(buf))


@lru_cache(maxsize=PATH_HASH_CACHE_SIZE)
def _path_hash(canon: tuple) -> int:
    """``_hash_tuple(("path", canon))``, memoized: molecules share paths."""
    return _hash_tuple(("path", canon))


def morgan_fingerprint(m: Molecule, radius: int = 2, bits: int = 2048) -> Fingerprint:
    """Circular fingerprint: hashed atom environments for radius 0..`radius`.

    The radius-0 invariant is (element, heavy degree, total bond order,
    implicit hydrogens); each refinement hashes the previous invariant with
    the sorted (bond order, neighbor invariant) multiset, which makes the
    result independent of atom numbering.
    """
    env = [
        _hash_tuple(
            ("atom", m.elements[i], m.degree(i), m.bond_order_sum(i), m.implicit_hydrogens(i))
        )
        for i in range(m.num_atoms)
    ]
    on: set[int] = {h % bits for h in env}
    for _ in range(radius):
        env = [
            _hash_tuple(("env", env[i], tuple(sorted((o, env[j]) for j, o in m.adjacency[i]))))
            for i in range(m.num_atoms)
        ]
        on |= {h % bits for h in env}
    return Fingerprint("morgan", bits, frozenset(on))


def path_fingerprint(m: Molecule, max_bonds: int = 5, bits: int = 2048) -> Fingerprint:
    """Linear-path fingerprint over simple paths of 0..`max_bonds` bonds.

    A path reads as (element, order, element, ...) and is hashed under the
    lexicographically smaller of its two directions.
    """
    on: set[int] = set()
    for el in m.elements:
        on.add(_path_hash((el,)) % bits)

    def extend(path_atoms: list[int], path_repr: tuple) -> None:
        if len(path_atoms) - 1 >= max_bonds:
            return
        cur = path_atoms[-1]
        for nb, order in m.adjacency[cur]:
            if nb in path_atoms:
                continue
            rep = path_repr + (order, m.elements[nb])
            canon = min(rep, rep[::-1])
            on.add(_path_hash(canon) % bits)
            extend(path_atoms + [nb], rep)

    for i in range(m.num_atoms):
        extend([i], (m.elements[i],))
    return Fingerprint("path", bits, frozenset(on))


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 1.0 when both fingerprints are empty."""
    if a.kind != b.kind or a.nbits != b.nbits:
        raise ValueError(f"fingerprint mismatch: {a.kind}/{a.nbits} vs {b.kind}/{b.nbits}")
    union = len(a.bits | b.bits)
    if union == 0:
        return 1.0
    return len(a.bits & b.bits) / union


# ---------------------------------------------------------------------------
# structural keys (reduced MACCS-style set)
# ---------------------------------------------------------------------------


def _has_bond_pattern(m: Molecule, el_a: str, el_b: str, order: int) -> bool:
    for i, j, o in m.bonds:
        if o != order:
            continue
        pair = {m.elements[i], m.elements[j]}
        if pair == {el_a, el_b} or (el_a == el_b and pair == {el_a}):
            return True
    return False


def _has_any_bond(m: Molecule, el_a: str, el_b: str) -> bool:
    return any(_has_bond_pattern(m, el_a, el_b, o) for o in BOND_ORDERS)


def _carboxyl_like(m: Molecule) -> bool:
    for c in range(m.num_atoms):
        if m.elements[c] != "C":
            continue
        double_o = any(m.elements[j] == "O" and o == 2 for j, o in m.adjacency[c])
        single_o = any(m.elements[j] == "O" and o == 1 for j, o in m.adjacency[c])
        if double_o and single_o:
            return True
    return False


def _amide_like(m: Molecule) -> bool:
    for c in range(m.num_atoms):
        if m.elements[c] != "C":
            continue
        double_o = any(m.elements[j] == "O" and o == 2 for j, o in m.adjacency[c])
        any_n = any(m.elements[j] == "N" for j, _ in m.adjacency[c])
        if double_o and any_n:
            return True
    return False


def _hetero_count(m: Molecule) -> int:
    return sum(1 for el in m.elements if el != "C")


# name -> predicate; the documented reduced key set. Order defines bit index.
STRUCTURAL_KEYS: tuple[tuple[str, object], ...] = (
    ("has_nitrogen", lambda m: "N" in m.elements),
    ("has_oxygen", lambda m: "O" in m.elements),
    ("has_fluorine", lambda m: "F" in m.elements),
    ("nitrogens_ge_2", lambda m: m.elements.count("N") >= 2),
    ("oxygens_ge_2", lambda m: m.elements.count("O") >= 2),
    ("heteroatoms_ge_3", lambda m: _hetero_count(m) >= 3),
    ("all_carbon", lambda m: m.num_atoms >= 1 and _hetero_count(m) == 0),
    ("has_double_bond", lambda m: any(o == 2 for *_, o in m.bonds)),
    ("has_triple_bond", lambda m: any(o == 3 for *_, o in m.bonds)),
    ("double_bonds_ge_2", lambda m: sum(1 for *_, o in m.bonds if o == 2) >= 2),
    ("has_ring", lambda m: ring_count(m) >= 1),
    ("has_3_ring", lambda m: 3 in ring_sizes(m)),
    ("has_4_ring", lambda m: 4 in ring_sizes(m)),
    ("has_5_ring", lambda m: 5 in ring_sizes(m)),
    ("has_6_ring", lambda m: 6 in ring_sizes(m)),
    ("rings_ge_2", lambda m: ring_count(m) >= 2),
    ("has_fusion_atom", lambda m: len(fusion_atoms(m)) >= 1),
    ("nitrogen_in_ring", lambda m: any(m.elements[a] == "N" for a in ring_atoms(m))),
    ("oxygen_in_ring", lambda m: any(m.elements[a] == "O" for a in ring_atoms(m))),
    ("carbonyl", lambda m: _has_bond_pattern(m, "C", "O", 2)),
    ("imine", lambda m: _has_bond_pattern(m, "C", "N", 2)),
    ("nitrile", lambda m: _has_bond_pattern(m, "C", "N", 3)),
    ("alkene", lambda m: _has_bond_pattern(m, "C", "C", 2)),
    ("alkyne", lambda m: _has_bond_pattern(m, "C", "C", 3)),
    ("hydroxyl", lambda m: any(el == "O" and m.implicit_hydrogens(i) >= 1
                               for i, el in enumerate(m.elements))),
    ("amine_h", lambda m: any(el == "N" and m.implicit_hydrogens(i) >= 1
                              for i, el in enumerate(m.elements))),
    ("nitrogen_deg_3", lambda m: any(el == "N" and m.degree(i) == 3
                                     for i, el in enumerate(m.elements))),
    ("ether", lambda m: any(
        el == "O" and m.degree(i) == 2
        and all(o == 1 and m.elements[j] == "C" for j, o in m.adjacency[i])
        for i, el in enumerate(m.elements))),
    ("nn_bond", lambda m: _has_any_bond(m, "N", "N")),
    ("no_bond", lambda m: _has_any_bond(m, "N", "O")),
    ("oo_bond", lambda m: _has_any_bond(m, "O", "O")),
    ("carboxyl_like", _carboxyl_like),
    ("amide_like", _amide_like),
    ("quaternary_carbon", lambda m: any(el == "C" and m.degree(i) == 4
                                        for i, el in enumerate(m.elements))),
    ("methyl", lambda m: any(el == "C" and m.degree(i) == 1 and m.implicit_hydrogens(i) == 3
                             for i, el in enumerate(m.elements))),
    ("fluorine_on_carbon", lambda m: any(
        o >= 1 and {m.elements[i], m.elements[j]} == {"C", "F"} for i, j, o in m.bonds)),
    ("geminal_difluoride", lambda m: any(
        el == "C" and sum(1 for j, _ in m.adjacency[i] if m.elements[j] == "F") >= 2
        for i, el in enumerate(m.elements))),
    ("branching_atom", lambda m: any(m.degree(i) >= 3 for i in range(m.num_atoms))),
    ("chain_ge_5", lambda m: longest_chain(m) >= 5),
    ("heavy_atoms_ge_7", lambda m: m.num_atoms >= 7),
)


def structural_keys(m: Molecule) -> Fingerprint:
    on = frozenset(i for i, (_, pred) in enumerate(STRUCTURAL_KEYS) if pred(m))
    return Fingerprint("structural-keys", len(STRUCTURAL_KEYS), on)


def maccs_similarity(a: Molecule, b: Molecule) -> float:
    return tanimoto(structural_keys(a), structural_keys(b))


# ---------------------------------------------------------------------------
# fragment-based similarity
# ---------------------------------------------------------------------------


def subgraph(m: Molecule, atoms: set[int] | frozenset[int]) -> Molecule:
    keep = sorted(atoms)
    remap = {a: k for k, a in enumerate(keep)}
    bonds = [
        (remap[i], remap[j], o)
        for i, j, o in m.bonds
        if i in atoms and j in atoms
    ]
    return Molecule.build(tuple(m.elements[a] for a in keep), bonds)


def _fragment_candidates(m: Molecule) -> list[Molecule]:
    """Fragments from single and double cuts of acyclic single bonds,
    keeping pieces with at least 60% of the heavy atoms; an atom set left
    by several cuts is kept once."""
    cyc = cyclic_bonds(m)
    cuttable = [
        (i, j) for i, j, o in m.bonds if o == 1 and (i, j) not in cyc
    ]
    cut_sets = [{c} for c in cuttable]
    cut_sets += [
        {cuttable[a], cuttable[b]}
        for a in range(len(cuttable))
        for b in range(a + 1, len(cuttable))
    ]
    n = m.num_atoms
    kept: dict[frozenset[int], None] = {}
    for cuts in cut_sets:
        # components of the graph without the cut bonds
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j, _ in m.bonds:
            if (i, j) in cuts:
                continue
            adj[i].append(j)
            adj[j].append(i)
        seen: set[int] = set()
        for start in range(n):
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                cur = queue.pop()
                for nb in adj[cur]:
                    if nb not in comp:
                        comp.add(nb)
                        queue.append(nb)
            seen |= comp
            if 10 * len(comp) >= 6 * n:
                kept[frozenset(comp)] = None
    return [subgraph(m, comp) for comp in kept]


def fraggle_similarity(a: Molecule, b: Molecule) -> float:
    """Fragment-cut similarity, symmetrized as max(f(a,b), f(b,a)).

    One direction fragments the first molecule by cutting acyclic single
    bonds (single and double cuts), keeps fragments holding >= 60% of the
    heavy atoms, and returns the best path-fingerprint Tanimoto between any
    kept fragment (or the whole molecule) and the second molecule.
    """

    fp_a, fp_b = path_fingerprint(a), path_fingerprint(b)
    whole = tanimoto(fp_a, fp_b)

    def one_way(x: Molecule, fp_y: Fingerprint) -> float:
        best = whole
        for frag in _fragment_candidates(x):
            best = max(best, tanimoto(path_fingerprint(frag), fp_y))
        return best

    return max(one_way(a, fp_b), one_way(b, fp_a))
