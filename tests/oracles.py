"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results through the most direct enumeration
available (flood fills, explicit set arithmetic, exhaustive cuts) so the
library implementations are checked against a second, simpler path.
"""

import numpy as np

from molflow.chem import (
    Molecule,
    cyclic_bonds,
    path_fingerprint,
    subgraph,
    tanimoto,
)


def moving_average(xs: list[float], window: int) -> list[float]:
    """Means of every `window` consecutive values (the list itself for a
    window of at most 1)."""
    if window <= 1:
        return list(xs)
    return [float(np.mean(xs[i:i + window])) for i in range(len(xs) - window + 1)]


def tanimoto_sets(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def brute_force_fraggle(a: Molecule, b: Molecule) -> float:
    """Exhaustive single/double cuts of acyclic single bonds, fragments
    holding >= 60% of the heavy atoms, best path-fingerprint Tanimoto,
    symmetrized."""

    def one_way(x: Molecule, y: Molecule) -> float:
        fp_y = path_fingerprint(y)
        best = tanimoto(path_fingerprint(x), fp_y)
        cyc = cyclic_bonds(x)
        cuttable = [(i, j) for i, j, o in x.bonds if o == 1 and (i, j) not in cyc]
        cut_sets = [{c} for c in cuttable]
        cut_sets += [{cuttable[p], cuttable[q]} for p in range(len(cuttable))
                     for q in range(p + 1, len(cuttable))]
        for cuts in cut_sets:
            adj = {i: set() for i in range(x.num_atoms)}
            for i, j, _ in x.bonds:
                if (i, j) not in cuts:
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


def brute_force_uniqueness(smiles: list[str]) -> float:
    return 100.0 * len(set(smiles)) / len(smiles) if smiles else 0.0


def brute_force_novelty(smiles: list[str], training: set[str]) -> float:
    unique = set(smiles)
    if not unique:
        return 0.0
    fresh = {s for s in unique if s not in training}
    return 100.0 * len(fresh) / len(unique)


def numerical_jacobian(f, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    n = len(x0)
    out = np.zeros((len(f(x0)), n))
    for i in range(n):
        hi = x0.copy()
        hi[i] += eps
        lo = x0.copy()
        lo[i] -= eps
        out[:, i] = (f(hi) - f(lo)) / (2 * eps)
    return out
