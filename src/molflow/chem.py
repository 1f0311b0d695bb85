"""Molecular graphs over C/N/O/F with implicit hydrogens.

Covers the SMILES subset grammar (plain atoms, ``- = #`` bonds, branches,
ring-closure digits 1-9; no aromatics, charges, isotopes, or stereo),
canonical serialization, one-hot tensor encoding, valency checking,
fingerprints, and the similarity metrics built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

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
    def _bond_walks(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Per bond ``(i, j)``: the length of the shortest cycle through it
        (0 for a bridge) and the bitmask of atoms reached from ``i`` without
        it, which is ``i``'s side when the bond is a bridge."""
        return {(i, j): _shortest_cycle_through(self, i, j) for i, j, _ in self.bonds}

    @cached_property
    def cyclic_bonds(self) -> frozenset[tuple[int, int]]:
        """Bonds ``(i, j)`` lying on some cycle: the non-bridge edges."""
        return frozenset(b for b, (length, _) in self._bond_walks.items() if length)

    @cached_property
    def ring_sizes(self) -> frozenset[int]:
        """Length of the shortest cycle through each cyclic bond."""
        return frozenset(length for length, _ in self._bond_walks.values() if length)

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


# write_smiles' walks are module-level functions that take their state as
# arguments: a local function that calls itself is a reference cycle, which
# keeps one call's lists alive until the cyclic garbage collector runs


def _span(a: int, adj, visited: list[bool], tree, ring_bonds: list, seen_edges: set) -> None:
    """Depth-first spanning tree from atom `a`: tree edges go into `tree`,
    the other bonds into `ring_bonds`."""
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
            _span(b, adj, visited, tree, ring_bonds, seen_edges)


def _emit(atom: int, elems, tree, ring_at, ring_digit: dict, free_digits: list,
          out: list) -> None:
    """Append the SMILES of `atom`'s subtree to `out`, opening and closing
    ring digits as its ring bonds come up."""
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
        _emit(child, elems, tree, ring_at, ring_digit, free_digits, out)
        if not last:
            out.append(")")


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
    _span(0, adj, visited, tree, ring_bonds, set())

    ring_digit: dict[tuple[int, int], int] = {}
    ring_at: dict[int, list[tuple[int, int, int]]] = {}
    for a, b, order in ring_bonds:
        key = (min(a, b), max(a, b))
        ring_at.setdefault(a, []).append((b, order, key[0] * m.num_atoms + key[1]))
        ring_at.setdefault(b, []).append((a, order, key[0] * m.num_atoms + key[1]))
    free_digits = list(range(9, 0, -1))
    out: list[str] = []

    _emit(0, elems, tree, ring_at, ring_digit, free_digits, out)
    return "".join(out)


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


def from_tensors(types: np.ndarray, orders: np.ndarray) -> Molecule:
    """The molecule of one decoded row: (n,) atom types, where
    ``PADDING_TYPE`` marks an absent atom, and symmetric (n, n) bond orders,
    0 meaning no bond. Padding rows are dropped with their bonds. The
    result may be chemically invalid and is meant to be screened by
    ``valency_check``."""
    keep = np.flatnonzero(types != PADDING_TYPE)
    kept = orders[np.ix_(keep, keep)]
    i, j = np.nonzero(np.triu(kept, 1))
    return Molecule(tuple(ELEMENTS[t] for t in types[keep].tolist()),
                    tuple(zip(i.tolist(), j.tolist(), kept[i, j].tolist())))


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


# bond-order capacity of each atom type; the padding type has none
_CAPACITY = np.array([VALENCE[el] for el in ELEMENTS] + [0])


def valence_prescreen(types: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Per row of decoded (batch, n) atom types and (batch, n, n) bond
    orders, a necessary condition for ``valency_check`` of its
    ``from_tensors``: at least one real atom, and no real atom's bond orders
    to real atoms above its valence. Connectivity is left to the full
    check."""
    real = types < PADDING_TYPE
    bond_sum = (orders * (real[:, :, None] & real[:, None, :])).sum(axis=2)
    return (bond_sum <= _CAPACITY[types]).all(axis=1) & real.any(axis=1)


# ---------------------------------------------------------------------------
# ring perception (deterministic, basis-free)
# ---------------------------------------------------------------------------


def ring_count(m: Molecule) -> int:
    """Cyclomatic number: bonds - atoms + components."""
    return len(m.bonds) - m.num_atoms + len(connected_components(m))


def _shortest_cycle_through(m: Molecule, i: int, j: int) -> tuple[int, int]:
    # BFS from i avoiding the (i, j) edge itself: (cycle length or 0, the
    # bitmask of atoms reached)
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
    return (dist[j] + 1 if j in dist else 0), sum(1 << a for a in dist)


def largest_ring_size(m: Molecule) -> int:
    sizes = m.ring_sizes
    return max(sizes) if sizes else 0


def ring_atoms(m: Molecule) -> set[int]:
    cyc = m.cyclic_bonds
    return {i for i, j in cyc} | {j for i, j in cyc}


def fusion_atoms(m: Molecule) -> set[int]:
    """Atoms with three or more cyclic bonds (ring-fusion or spiro centers)."""
    cyc = m.cyclic_bonds
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
    cyc = m.cyclic_bonds
    return sum(
        1
        for i, j, order in m.bonds
        if order == 1 and (i, j) not in cyc and m.degree(i) >= 2 and m.degree(j) >= 2
    )


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _bitset(bits) -> int:
    """The fingerprint with the given set bits: every fingerprint is an int
    bitset, so Tanimoto is two popcounts."""
    on = 0
    for b in bits:
        on |= 1 << b
    return on


# each byte's bits in reverse order
_REVERSED_BYTE = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def to_hex(fp: int, nbits: int) -> str:
    """``nbits`` bits as hex, bit b as bit b % 8 from the top of byte b // 8."""
    return fp.to_bytes((nbits + 7) // 8, "little").translate(_REVERSED_BYTE).hex()


# distinct canonical paths seen by `_path_hash`; a few thousand cover a corpus
PATH_HASH_CACHE_SIZE = 1 << 16


def _encode(x, out: bytearray) -> None:
    """Append the canonical bytes of the int/str tuple `x` to `out`."""
    if isinstance(x, tuple):
        out += b"("
        for item in x:
            _encode(item, out)
            out += b","
        out += b")"
    elif isinstance(x, int):
        out += b"i%d" % x
    elif isinstance(x, str):
        out += b"s" + x.encode("utf-8")
    else:
        raise TypeError(f"unhashable piece {type(x)}")


def _hash_tuple(obj) -> int:
    """FNV-1a over a canonical byte serialization of nested int/str tuples."""

    buf = bytearray()
    _encode(obj, buf)
    return fnv1a_64(bytes(buf))


@lru_cache(maxsize=PATH_HASH_CACHE_SIZE)
def _path_hash(canon: tuple) -> int:
    """``_hash_tuple(("path", canon))``, memoized: molecules share paths."""
    return _hash_tuple(("path", canon))


MORGAN_RADIUS = 2
MORGAN_BITS = 2048
# distinct radius-0 and radius-1 environments a corpus repeats across its
# molecules; the last radius, mostly unique, is hashed without the memo
MORGAN_HASH_CACHE_SIZE = 4096
_env_hash = lru_cache(maxsize=MORGAN_HASH_CACHE_SIZE)(_hash_tuple)


def morgan_fingerprint(m: Molecule) -> int:
    """Circular fingerprint: hashed atom environments for radius
    0..``MORGAN_RADIUS``, folded to ``MORGAN_BITS`` bits.

    The radius-0 invariant is (element, heavy degree, total bond order,
    implicit hydrogens); each refinement hashes the previous invariant with
    the sorted (bond order, neighbor invariant) multiset, which makes the
    result independent of atom numbering.
    """
    env = [
        _env_hash(
            ("atom", m.elements[i], m.degree(i), m.bond_order_sum(i), m.implicit_hydrogens(i))
        )
        for i in range(m.num_atoms)
    ]
    on = _bitset(h % MORGAN_BITS for h in env)
    for radius in range(1, MORGAN_RADIUS + 1):
        hash_env = _hash_tuple if radius == MORGAN_RADIUS else _env_hash
        env = [
            hash_env(("env", env[i], tuple(sorted((o, env[j]) for j, o in m.adjacency[i]))))
            for i in range(m.num_atoms)
        ]
        on |= _bitset(h % MORGAN_BITS for h in env)
    return on


# simple paths of 0..PATH_MAX_BONDS bonds, folded to PATH_BITS bits
PATH_MAX_BONDS = 5
PATH_BITS = 2048


def _extend_paths(cur: int, mask: int, path_repr: tuple, n_bonds: int, adj, elements,
                  table: set) -> None:
    """Add to `table` every simple path that continues `path_repr`, which
    ends at atom `cur`, visits the atoms of `mask` and has `n_bonds` bonds,
    by up to ``PATH_MAX_BONDS - n_bonds`` bonds."""
    for nb, order in adj[cur]:
        if mask >> nb & 1:
            continue
        rep = path_repr + (order, elements[nb])
        table.add((mask | 1 << nb, _path_hash(min(rep, rep[::-1])) % PATH_BITS))
        if n_bonds + 1 < PATH_MAX_BONDS:
            _extend_paths(nb, mask | 1 << nb, rep, n_bonds + 1, adj, elements, table)


@lru_cache(maxsize=8)
def _path_table(m: Molecule) -> tuple[tuple[int, int], ...]:
    """``(atom bitmask, bit)`` of every simple path of 0..``PATH_MAX_BONDS``
    bonds.

    A path reads as (element, order, element, ...) and is hashed under the
    lexicographically smaller of its two directions. The latest few tables
    are kept, so one similarity call walks each molecule's paths once.
    """
    table: set[tuple[int, int]] = set()
    adj, elements = m.adjacency, m.elements
    for i, el in enumerate(elements):
        table.add((1 << i, _path_hash((el,)) % PATH_BITS))
        _extend_paths(i, 1 << i, (el,), 0, adj, elements, table)
    return tuple(table)


def path_fingerprint(m: Molecule) -> int:
    """Linear-path fingerprint over simple paths of 0..``PATH_MAX_BONDS``
    bonds."""
    return _bitset(bit for _, bit in _path_table(m))


def tanimoto(a: int, b: int) -> float:
    """|a AND b| / |a OR b|; 1.0 when both fingerprints are empty."""
    union = (a | b).bit_count()
    if union == 0:
        return 1.0
    return (a & b).bit_count() / union


# ---------------------------------------------------------------------------
# structural keys (reduced MACCS-style set)
# ---------------------------------------------------------------------------


def _has_bond_pattern(m: Molecule, el_a: str, el_b: str, order: int) -> bool:
    return any(o == order and {m.elements[i], m.elements[j]} == {el_a, el_b}
               for i, j, o in m.bonds)


def _has_any_bond(m: Molecule, el_a: str, el_b: str) -> bool:
    return any({m.elements[i], m.elements[j]} == {el_a, el_b} for i, j, _ in m.bonds)


def _carbonyl_carbon_with(m: Molecule, partner) -> bool:
    """Whether some carbon has a C=O bond and a neighbor for which
    ``partner(element, order)`` holds."""
    for c in range(m.num_atoms):
        if m.elements[c] != "C":
            continue
        neighbors = [(m.elements[j], o) for j, o in m.adjacency[c]]
        if ("O", 2) in neighbors and any(partner(el, o) for el, o in neighbors):
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
    ("has_3_ring", lambda m: 3 in m.ring_sizes),
    ("has_4_ring", lambda m: 4 in m.ring_sizes),
    ("has_5_ring", lambda m: 5 in m.ring_sizes),
    ("has_6_ring", lambda m: 6 in m.ring_sizes),
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
    ("carboxyl_like", lambda m: _carbonyl_carbon_with(m, lambda el, o: el == "O" and o == 1)),
    ("amide_like", lambda m: _carbonyl_carbon_with(m, lambda el, _: el == "N")),
    ("quaternary_carbon", lambda m: any(el == "C" and m.degree(i) == 4
                                        for i, el in enumerate(m.elements))),
    ("methyl", lambda m: any(el == "C" and m.degree(i) == 1 and m.implicit_hydrogens(i) == 3
                             for i, el in enumerate(m.elements))),
    ("fluorine_on_carbon", lambda m: _has_any_bond(m, "C", "F")),
    ("geminal_difluoride", lambda m: any(
        el == "C" and sum(1 for j, _ in m.adjacency[i] if m.elements[j] == "F") >= 2
        for i, el in enumerate(m.elements))),
    ("branching_atom", lambda m: any(m.degree(i) >= 3 for i in range(m.num_atoms))),
    # a simple path of 5 atoms is one of 4 bonds, inside the path table
    ("chain_ge_5", lambda m: any(mask.bit_count() >= 5 for mask, _ in _path_table(m))),
    ("heavy_atoms_ge_7", lambda m: m.num_atoms >= 7),
)


def structural_keys(m: Molecule) -> int:
    return _bitset(i for i, (_, pred) in enumerate(STRUCTURAL_KEYS) if pred(m))


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


def _fragment_candidates(m: Molecule) -> list[int]:
    """Atom bitmasks of the fragments from single and double cuts of
    acyclic single bonds, keeping pieces with at least 60% of the heavy
    atoms; an atom set left by several cuts is kept once.

    Cutting a bridge splits the piece holding it into the atoms on the
    bridge's first side and the rest, so each cut is two bit operations on
    the component masks."""
    walks = m._bond_walks
    cuttable = [(i, j) for i, j, o in m.bonds if o == 1 and not walks[i, j][0]]
    components = [sum(1 << a for a in comp) for comp in connected_components(m)]
    kept: dict[int, None] = {}
    for cuts in [(c,) for c in cuttable] + list(combinations(cuttable, 2)):
        pieces = list(components)
        for i, j in cuts:
            piece = next(p for p in pieces if p >> i & 1)
            side = walks[i, j][1]
            pieces.remove(piece)
            pieces += [piece & side, piece & ~side]
        for piece in pieces:
            if 10 * piece.bit_count() >= 6 * m.num_atoms:
                kept[piece] = None
    return list(kept)


def _fragment_fingerprints(m: Molecule) -> list[int]:
    """Path fingerprint of each ``_fragment_candidates`` fragment, in order.

    A fragment is a component left by cutting bridges, so it is an induced
    subgraph: its paths are exactly the parent's paths whose atoms all lie
    inside it, and its fingerprint filters the parent's path table.
    """
    table = _path_table(m)
    return [_bitset(bit for mask, bit in table if not mask & ~frag)
            for frag in _fragment_candidates(m)]


def fraggle_similarity(a: Molecule, b: Molecule) -> float:
    """Fragment-cut similarity, symmetrized as max(f(a,b), f(b,a)).

    One direction fragments the first molecule by cutting acyclic single
    bonds (single and double cuts), keeps fragments holding >= 60% of the
    heavy atoms, and returns the best path-fingerprint Tanimoto between any
    kept fragment (or the whole molecule) and the second molecule.
    """

    fp_a, fp_b = path_fingerprint(a), path_fingerprint(b)
    whole = tanimoto(fp_a, fp_b)

    def one_way(x: Molecule, fp_y: int) -> float:
        return max([whole] + [tanimoto(fp, fp_y) for fp in _fragment_fingerprints(x)])

    return max(one_way(a, fp_b), one_way(b, fp_a))
