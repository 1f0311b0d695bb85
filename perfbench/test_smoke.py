"""Self-test of the benchmark at toy size.

Run from the checkout root: python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced; every metric BENCHMARK.json names
must come out with its unit, and the output checks must pass. A traced run
must also record spans for every layer the workload runs, so a wrapper that
stops intercepting (a caller now looks the function up elsewhere) fails
here instead of reading 0. The benchmark
must also refuse to run without molflow sources or with an altered pinned
model, printing no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be above 0 in a traced run of each workload
# (the "shows on" column of the README's layer table).
SHOWS = {
    "train": (
        "autodiff.backward.calls", "autodiff.adam_step.calls",
        "flow.train_step.calls", "flow.train_step.samples",
        "flow.bond_flow_forward.calls", "flow.atom_flow_forward.calls",
        "geom3d.edge_feature_matrix.calls", "spherenet.geometry_cache.calls",
        "spherenet.fusion_targets.calls", "spherenet.train_fusion.busy_s",
        "docking.score_batch.calls", "docking.score_batch.scored",
        "docking.compute_weights.calls", "docking.sample_epoch.calls",
        "dataset.synthetic_corpus.calls", "dataset.layout_coordinates.calls",
        "dataset.ingest.calls", "dataset.tensor_batches.calls",
        "pipeline.train_flow.busy_s", "pipeline.train_flow.probes",
    ),
    "generate": (
        "flow.decode_continuous.calls", "flow.decode_continuous.latents",
        "flow.bond_flow_inverse.calls", "flow.atom_flow_inverse.calls",
        "chem.from_tensors.calls", "chem.valency_check.calls", "chem.write_smiles.calls",
        "pipeline.generate_random.calls", "pipeline.generate_random.raw_attempts",
        "pipeline.safe_canonical.calls", "dataset.ingest.calls",
    ),
    "similar": (
        "chem.path_fingerprint.calls", "chem.morgan_fingerprint.calls",
        "chem.structural_keys.calls", "chem.fraggle_similarity.calls",
        "geom3d.edge_feature_matrix.calls", "geom3d.edge_feature_matrix.edges",
        "spherenet.geometry_cache.calls", "spherenet.encode_geometry.calls",
        "flow.decode_batch.calls", "flow.decode_batch.latents",
        "flow.decode_continuous.calls", "pipeline.generate_similar.calls",
        "pipeline.similarity_triple.calls", "pipeline.evaluate_similarity_baseline.busy_s",
    ),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        silent = [name for name in SHOWS[workload] if result["metrics"][name]["value"] <= 0]
        assert not silent, f"no spans recorded for {silent}"
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy(dest: Path, with_src: bool) -> Path:
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_refuses_without_molflow_sources(tmp_path):
    proc = run(_copy(tmp_path, with_src=False), "generate", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_an_altered_pinned_model(tmp_path):
    root = _copy(tmp_path, with_src=True)
    model = root / "perfbench" / "fixture" / "pinned_model.bin"
    blob = bytearray(model.read_bytes())
    blob[-1] ^= 1
    model.write_bytes(bytes(blob))
    proc = run(root, "similar", 0)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "sha256" in proc.stderr
