"""Docking-prior weighting, epoch sampling, and the external-scorer client.

Binding energies come either from an external scorer process speaking a
one-line wire protocol or from a deterministic synthetic oracle used in
tests. Per-molecule training weights are the min-max normalized negated
energies with a small floor, and an epoch sampler realizes "probability of
being selected per epoch" either as independent Bernoulli inclusion
(default) or as categorical draws proportional to the weights.
"""

from __future__ import annotations

import csv
import os
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import SeededRng
from .chem import (
    Molecule,
    h_acceptor_count,
    h_donor_count,
    ring_count,
    write_smiles,
)
from .dataset import DataError


@dataclass(frozen=True)
class DockingRecord:
    molecule_id: str
    energy: float  # kcal/mol, negative is favorable

    @property
    def alpha(self) -> float:
        """Negated binding energy; larger means stronger predicted binding."""
        return -self.energy


@dataclass(frozen=True)
class WeightTable:
    ids: tuple[str, ...]
    weights: np.ndarray
    alpha_min: float
    alpha_max: float
    floor: float


def compute_weights(records: list[DockingRecord], floor: float = 0.01) -> WeightTable:
    """Min-max normalized selection weights, clamped below at `floor`.

    w_i = (alpha_i - alpha_min) / (alpha_max - alpha_min); when every alpha
    is equal, all weights are 1. Adding a constant to every energy leaves
    the weights unchanged.
    """
    if not records:
        raise ValueError("need at least one docking record")
    if not 0.0 <= floor <= 0.1:
        raise ValueError("floor must lie in [0, 0.1]")
    ids = tuple(r.molecule_id for r in records)
    if len(set(ids)) != len(ids):
        raise ValueError("molecule ids must be unique")
    alphas = np.array([r.alpha for r in records])
    if not np.all(np.isfinite(alphas)):
        raise ValueError("non-finite binding energy")
    a_min, a_max = float(alphas.min()), float(alphas.max())
    if a_max == a_min:
        weights = np.ones_like(alphas)
    else:
        weights = np.maximum((alphas - a_min) / (a_max - a_min), floor)
    return WeightTable(ids, weights, a_min, a_max, floor)


def sample_epoch(table: WeightTable, rng: SeededRng, mode: str = "bernoulli") -> list[int]:
    """Indices of the molecules selected for one training epoch.

    `bernoulli` includes molecule i independently with probability w_i; an
    epoch that selects nothing retries once, then falls back to everything.
    `categorical` draws len(table) molecules with replacement, with
    probability proportional to w.
    """
    n = len(table.ids)
    if mode == "bernoulli":
        for _ in range(2):
            mask = rng.uniform(0.0, 1.0, n) < table.weights
            if mask.any():
                return [int(i) for i in np.nonzero(mask)[0]]
        return list(range(n))
    if mode == "categorical":
        return [int(rng.choice_index(table.weights)) for _ in range(n)]
    raise ValueError(f"unknown sampler mode {mode!r}")


# ---------------------------------------------------------------------------
# synthetic scoring oracle
# ---------------------------------------------------------------------------


def synthetic_score(m: Molecule) -> float:
    """Deterministic stand-in for docking, in kcal/mol:

    energy = -(0.3 * heavy_atoms + 0.8 * rings + 0.5 * (donors + acceptors))

    where donors are N/O atoms carrying at least one hydrogen and acceptors
    are all N/O atoms.
    """
    hb = h_donor_count(m) + h_acceptor_count(m)
    return -(0.3 * m.num_atoms + 0.8 * ring_count(m) + 0.5 * hb)


# ---------------------------------------------------------------------------
# external scorer protocol
# ---------------------------------------------------------------------------


class ScorerError(RuntimeError):
    """External scorer failure; `reason` is one of not_found | timeout |
    unparseable | nonzero_exit."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"scorer {reason}: {detail}")
        self.reason = reason


@dataclass
class ScorerConfig:
    command: list[str]
    timeout: float = 120.0
    retries: int = 2
    parallelism: int = 4


def _scorer_request(molecule: Molecule, coords=None) -> str:
    lines = [f"SMILES {write_smiles(molecule)}"]
    if coords is not None:
        coords = np.asarray(coords)
        lines.append(f"XYZ {len(coords)}")
        for el, (x, y, z) in zip(molecule.elements, coords):
            lines.append(f"{el} {float(x)!r} {float(y)!r} {float(z)!r}")
    return "\n".join(lines) + "\n"


def _parse_score(stdout: str) -> float:
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == "SCORE":
            try:
                return float(fields[1])
            except ValueError:
                raise ScorerError("unparseable", f"bad SCORE value {fields[1]!r}")
    raise ScorerError("unparseable", f"no SCORE line in output {stdout!r}")


def external_score(molecule: Molecule, config: ScorerConfig, coords=None) -> float:
    """Score one molecule through the external process.

    The request goes to the child's standard input as a SMILES line plus an
    optional XYZ block; the child answers with one line "SCORE <decimal>".
    A timeout or a non-zero exit is retried up to `config.retries` times,
    so the scorer runs at most `config.retries + 1` times; the last such
    failure is raised. A missing program or an unparseable answer is raised
    at once.
    """
    request = _scorer_request(molecule, coords)
    last: ScorerError | None = None
    for _ in range(config.retries + 1):
        try:
            proc = subprocess.run(
                config.command,
                input=request,
                capture_output=True,
                text=True,
                timeout=config.timeout,
            )
        except FileNotFoundError as exc:
            raise ScorerError("not_found", str(exc))
        except subprocess.TimeoutExpired:
            last = ScorerError("timeout", f"no answer within {config.timeout}s")
            continue
        if proc.returncode != 0:
            last = ScorerError("nonzero_exit", f"exit code {proc.returncode}: {proc.stderr.strip()}")
            continue
        return _parse_score(proc.stdout)
    raise last


# ---------------------------------------------------------------------------
# score cache and batch scoring
# ---------------------------------------------------------------------------


@dataclass
class ScoreCache:
    """Append-only CSV of (id, canonical SMILES, energy); keeps docking runs
    incremental and crash-safe."""

    path: Path
    entries: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def load(cls, path) -> "ScoreCache":
        """Read the cache. A last row cut short by a crash (no line end, or
        not parseable) is dropped and the file truncated back to the last
        complete row; a malformed earlier row raises ``DataError``."""
        cache = cls(Path(path))
        if not cache.path.exists():
            return cache
        lines = cache.path.read_bytes().splitlines(keepends=True)
        complete = 0  # bytes up to the end of the last complete row
        for line_no, line in enumerate(lines, start=1):
            try:
                if not line.endswith((b"\n", b"\r")):
                    raise ValueError("row has no line end")
                row = next(csv.reader([line.decode("utf-8")]), [])
                if row and row[0] != "id":
                    if len(row) != 3:
                        raise ValueError(f"expected 3 fields, got {len(row)}")
                    cache.entries[row[0]] = float(row[2])
            except ValueError as exc:
                if line_no < len(lines):
                    raise DataError(cache.path, line_no, f"malformed score cache row ({exc})")
                os.truncate(cache.path, complete)
                break
            complete += len(line)
        return cache

    def add(self, molecule_id: str, smiles: str, energy: float) -> None:
        with self._lock:
            if molecule_id in self.entries:
                return
            self.entries[molecule_id] = energy
            new = not self.path.exists() or self.path.stat().st_size == 0
            with self.path.open("a") as fh:
                writer = csv.writer(fh)
                if new:
                    writer.writerow(["id", "smiles", "energy"])
                writer.writerow([molecule_id, smiles, repr(energy)])


@dataclass
class BatchScoreResult:
    records: list[DockingRecord]
    failures: dict[str, str]   # id -> reason


def score_batch(molecules: list[tuple[str, Molecule]], config: ScorerConfig | None,
                cache: ScoreCache | None = None) -> BatchScoreResult:
    """Score molecules, preferring cached energies.

    With `config` None the synthetic oracle runs in-process. Each score goes
    into `cache` as soon as it arrives, so an interrupted batch keeps the
    scores it finished. Failures are collected per molecule and never
    corrupt previously cached results.
    """
    records: dict[str, DockingRecord] = {}
    failures: dict[str, str] = {}
    todo = []
    for mid, mol in molecules:
        if cache is not None and mid in cache.entries:
            records[mid] = DockingRecord(mid, cache.entries[mid])
        else:
            todo.append((mid, mol))

    def work(item):
        mid, mol = item
        try:
            if config is None:
                energy = synthetic_score(mol)
            else:
                energy = external_score(mol, config)
        except ScorerError as exc:
            return mid, None, exc.reason
        if cache is not None:
            cache.add(mid, write_smiles(mol), energy)
        return mid, energy, None

    workers = 1 if config is None else max(1, config.parallelism)
    if workers == 1:
        results = [work(item) for item in todo]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, todo))
    for mid, energy, err in results:
        if err is not None:
            failures[mid] = err
            continue
        records[mid] = DockingRecord(mid, energy)
    ordered = [records[mid] for mid, _ in molecules if mid in records]
    return BatchScoreResult(ordered, failures)
