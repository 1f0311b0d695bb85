"""Dataset records, file ingestion, and the synthetic desk-scale corpus.

Two input formats are read: plain SMILES lists (one molecule per line; a
`#` at the start of a line or after whitespace starts a comment, elsewhere
it is the triple bond) and extended-XYZ frames (atom count line, free-form
comment line, then `El x y z` rows, optionally followed by a SMILES line
that is adopted when parseable). Hydrogens in XYZ frames are dropped; the
heavy-atom element multiset must match the SMILES. Molecules that do not
fit the supported chemistry (size, element set, grammar) are skipped and
counted rather than treated as file corruption.

The synthetic corpus generator grows random valence-respecting C/N/O/F
graphs and lays them out in 3D with a small harmonic relaxation; it stands
in for QM9-style data at desk scale.
"""

from __future__ import annotations

import collections
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import SeededRng
from .chem import (
    ELEMENTS,
    VALENCE,
    Molecule,
    SmilesError,
    parse_smiles,
    to_tensors,
    valency_check,
    write_smiles,
)
from .geom3d import Geometry, build_geometry


class DataError(ValueError):
    """Malformed input file; message carries path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass
class DatasetRecord:
    smiles: str                  # canonical
    molecule: Molecule
    elements: tuple[str, ...] | None = None   # heavy atoms as listed in the XYZ
    coords: np.ndarray | None = None          # (n, 3) heavy-atom coordinates

    @property
    def has_geometry(self) -> bool:
        return self.coords is not None

    def geometry(self, cutoff: float = 5.0) -> Geometry:
        if not self.has_geometry:
            raise ValueError(f"record {self.smiles} has no geometry")
        return build_geometry(self.elements, self.coords, cutoff=cutoff)


@dataclass
class Dataset:
    records: list[DatasetRecord]
    skipped: collections.Counter

    def __len__(self) -> int:
        return len(self.records)

    def smiles_set(self) -> set[str]:
        return {r.smiles for r in self.records}

    def with_geometry(self) -> list[DatasetRecord]:
        return [r for r in self.records if r.has_geometry]


def _admit(mol: Molecule, n_max: int, skipped: collections.Counter) -> bool:
    if mol.num_atoms > n_max:
        skipped["oversized"] += 1
        return False
    return True


# a comment opens a line or follows whitespace; `#` inside a SMILES is a bond
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _ingest_smiles_lines(path: Path, lines: list[str], n_max: int, records, skipped) -> None:
    for raw in lines:
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        try:
            mol = parse_smiles(line.split()[0])
        except SmilesError:
            skipped["unparseable_smiles"] += 1
            continue
        if not _admit(mol, n_max, skipped):
            continue
        records.append(DatasetRecord(smiles=write_smiles(mol), molecule=mol))


def _ingest_xyz(path: Path, lines: list[str], n_max: int, records, skipped) -> None:
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            count = int(lines[i].strip())
        except ValueError:
            raise DataError(path, i + 1, f"expected an atom count, got {lines[i]!r}")
        if count < 1:
            raise DataError(path, i + 1, "invalid atom count")
        if i + 2 + count > len(lines):
            raise DataError(path, i + 1, "truncated XYZ frame")
        heavy_elements: list[str] = []
        heavy_coords: list[list[float]] = []
        unsupported = False
        for k in range(count):
            fields = lines[i + 2 + k].split()
            if len(fields) < 4:
                raise DataError(path, i + 3 + k, "expected 'El x y z'")
            el = fields[0]
            try:
                xyz = [float(f.replace("*^", "e")) for f in fields[1:4]]
            except ValueError:
                raise DataError(path, i + 3 + k, f"bad coordinates {fields[1:4]}")
            if el == "H":
                continue
            if el not in VALENCE:
                unsupported = True
                continue
            heavy_elements.append(el)
            heavy_coords.append(xyz)
        i += 2 + count
        # optional trailing SMILES line (anything that does not start a frame)
        smiles_line = None
        if i < len(lines) and lines[i].strip():
            try:
                int(lines[i].strip())
            except ValueError:
                smiles_line = lines[i].strip()
                i += 1
        if unsupported:
            skipped["unsupported_element"] += 1
            continue
        if smiles_line is None:
            skipped["missing_smiles"] += 1
            continue
        try:
            mol = parse_smiles(smiles_line.split()[0])
        except SmilesError:
            skipped["unparseable_smiles"] += 1
            continue
        if not _admit(mol, n_max, skipped):
            continue
        if sorted(mol.elements) != sorted(heavy_elements):
            skipped["geometry_mismatch"] += 1
            continue
        records.append(
            DatasetRecord(
                smiles=write_smiles(mol),
                molecule=mol,
                elements=tuple(heavy_elements),
                coords=np.asarray(heavy_coords),
            )
        )


def ingest(paths, n_max: int = 9) -> Dataset:
    """Read SMILES lists and extended-XYZ files into a dataset.

    Files whose first meaningful line parses as an integer are treated as
    XYZ, everything else as a SMILES list.
    """
    records: list[DatasetRecord] = []
    skipped: collections.Counter = collections.Counter()
    for p in paths:
        path = Path(p)
        lines = path.read_text().splitlines()
        first = next((ln for ln in lines if ln.strip()), "")
        try:
            int(first.strip())
        except ValueError:
            _ingest_smiles_lines(path, lines, n_max, records, skipped)
        else:
            _ingest_xyz(path, lines, n_max, records, skipped)
    return Dataset(records, skipped)


def write_dataset(ds: Dataset, out_dir) -> tuple[Path, Path | None]:
    """Canonical dump: a SMILES list for geometry-free records and an
    extended-XYZ file (with trailing SMILES lines) for the rest.
    Re-ingesting the dump reproduces the dataset."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    smi_path = out / "dataset.smi"
    plain = [r for r in ds.records if not r.has_geometry]
    geo = [r for r in ds.records if r.has_geometry]
    with smi_path.open("w") as fh:
        for r in plain:
            fh.write(r.smiles + "\n")
    xyz_path = None
    if geo:
        xyz_path = out / "dataset.xyz"
        with xyz_path.open("w") as fh:
            for r in geo:
                fh.write(f"{len(r.elements)}\n")
                fh.write("synthetic-corpus\n")
                for el, (x, y, z) in zip(r.elements, r.coords):
                    fh.write(f"{el} {float(x)!r} {float(y)!r} {float(z)!r}\n")
                fh.write(r.smiles + "\n")
    return smi_path, xyz_path


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

_SIZE_WEIGHTS = np.array([0.01, 0.01, 0.02, 0.04, 0.06, 0.10, 0.16, 0.25, 0.35])
_ELEMENT_WEIGHTS = np.array([0.72, 0.12, 0.13, 0.03])
_ORDER_WEIGHTS = {1: 0.78, 2: 0.18, 3: 0.04}


def random_molecule(rng: SeededRng, n_max: int = 9) -> Molecule:
    """Grow one random valence-respecting molecule, QM9-flavored sizes."""
    size = int(rng.choice_index(_SIZE_WEIGHTS)) + 1
    size = min(size, n_max)
    elements = [ELEMENTS[rng.choice_index(_ELEMENT_WEIGHTS)] for _ in range(size)]
    free = [VALENCE[el] for el in elements]
    bonds: list[tuple[int, int, int]] = []

    def pick_order(cap: int) -> int:
        orders = [o for o in (1, 2, 3) if o <= cap]
        weights = np.array([_ORDER_WEIGHTS[o] for o in orders])
        return orders[rng.choice_index(weights)]

    for new in range(1, size):
        hosts = [i for i in range(new) if free[i] >= 1]
        if not hosts:
            # dead end: remaining atoms stay detached; truncate instead
            elements = elements[:new]
            free = free[:new]
            break
        host = hosts[rng.choice_index(np.ones(len(hosts)))]
        order = pick_order(min(free[host], free[new]))
        bonds.append((host, new, order))
        free[host] -= order
        free[new] -= order

    # optional ring closures between atoms at graph distance 2..5
    adj = {i: set() for i in range(len(elements))}
    for i, j, _ in bonds:
        adj[i].add(j)
        adj[j].add(i)

    def distance(a: int, b: int) -> int:
        seen = {a: 0}
        queue = [a]
        while queue:
            nxt = []
            for cur in queue:
                for nb in adj[cur]:
                    if nb not in seen:
                        seen[nb] = seen[cur] + 1
                        nxt.append(nb)
            queue = nxt
        return seen.get(b, 10**9)

    for _ in range(2):
        if rng.random() > 0.45:
            continue
        pairs = [
            (i, j)
            for i in range(len(elements))
            for j in range(i + 1, len(elements))
            if free[i] >= 1 and free[j] >= 1 and j not in adj[i] and 2 <= distance(i, j) <= 5
        ]
        if not pairs:
            continue
        i, j = pairs[rng.choice_index(np.ones(len(pairs)))]
        bonds.append((i, j, 1))
        free[i] -= 1
        free[j] -= 1
        adj[i].add(j)
        adj[j].add(i)

    return Molecule.build(tuple(elements), bonds)


_BOND_LENGTH = {1: 1.5, 2: 1.32, 3: 1.2}
_LAYOUT_STEPS = 400


def layout_coordinates(mol: Molecule, rng: SeededRng) -> np.ndarray:
    """Deterministic 3D layout: 400 steps of harmonic bond springs toward
    order-dependent lengths plus repulsion between non-bonded atoms closer
    than 2.4. Bonds and close pairs share one force, 2(dist - L)/max(dist,
    1e-9) with L the bond length or 2.4, and one `np.bincount` sums each
    atom's terms in a fixed order: pulls on first endpoints in bond order,
    then on second endpoints, then the pushes the same way. That is the
    order of `np.add.at` over the bonds and then the non-bonded pairs (the
    tests' reference kernel), so the bytes match it. A 1-atom molecule comes
    back as its raw, uncentered draw; that stays so corpora keep their bytes."""
    n = mol.num_atoms
    coords = rng.normal((n, 3), scale=1.2)
    if n == 1:
        return coords
    rest = {(i, j): _BOND_LENGTH[o] for i, j, o in mol.bonds}
    pairs = list(rest) + [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in rest]
    ends = np.array(pairs).T
    length = np.array([rest.get(p, 2.4) for p in pairs])
    reach = np.where(np.arange(len(pairs)) < len(rest), np.inf, 2.4)  # bonds always act
    terms = np.array(sorted((k >= len(rest), end, k) for k in range(len(pairs)) for end in (0, 1)))
    end, rows = terms[:, 1], terms[:, 2]
    sign = 1.0 - 2.0 * end[:, None]
    target = (3 * ends[end, rows][:, None] + np.arange(3)).ravel()
    lr = 0.05
    for _ in range(_LAYOUT_STEPS):
        d = np.subtract(*coords[ends])
        dist = np.sqrt(np.add.reduce(d * d, axis=1))  # np.linalg.norm(d, axis=1)'s own sum
        f = np.where(dist < reach, 2.0 * (dist - length) / np.maximum(dist, 1e-9), 0.0)
        grad = np.bincount(target, ((f[:, None] * d)[rows] * sign).ravel(), 3 * n)
        coords = coords - lr * grad.reshape(n, 3)
    return coords - coords.mean(axis=0)


def synthetic_corpus(count: int, rng: SeededRng, n_max: int = 9,
                     with_geometry: bool = True) -> Dataset:
    """Deterministic corpus of distinct valid molecules with optional 3D
    coordinates; gives up after 60 random molecules per requested one."""
    seen: set[str] = set()
    records: list[DatasetRecord] = []
    attempts = 0
    cap = count * 60
    while len(records) < count and attempts < cap:
        attempts += 1
        mol = random_molecule(rng, n_max)
        if not valency_check(mol):
            continue
        smi = write_smiles(mol)
        if smi in seen:
            continue
        seen.add(smi)
        rec = DatasetRecord(smiles=smi, molecule=mol)
        if with_geometry:
            rec.elements = mol.elements
            rec.coords = layout_coordinates(mol, rng.spawn(f"xyz{len(records)}"))
        records.append(rec)
    if len(records) < count:
        raise RuntimeError(f"could only synthesize {len(records)} of {count} molecules")
    return Dataset(records, collections.Counter())


def tensor_batches(records: list[DatasetRecord], n_max: int):
    """Stacked one-hot atom/bond tensors for a record list."""
    atoms, bonds = [], []
    for r in records:
        a, b = to_tensors(r.molecule, n_max)
        atoms.append(a)
        bonds.append(b)
    return np.stack(atoms), np.stack(bonds)
