"""Tier-1 pins the training bits: a short fit of each trained model, run in a
child process with one BLAS thread, gives the same parameter and loss bytes.
And it checks the thread-count contract: a short train-flow and generate at
one and at two BLAS threads write the same report bytes.

Checkpoint bytes depend on the BLAS thread count (a matrix product's sums
are split by thread), so each child sets ``OPENBLAS_NUM_THREADS`` in its
own environment only. A change that means to move training bits updates
``PINNED`` and says so."""

import json
import os
import subprocess
import sys
from pathlib import Path

from molflow.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# a weighted, clipped train_flow (every one of its 6 steps clips), then
# train_fusion and train_property_head; prints each model's sha256 over its
# flat parameter vector (every field views it, in named_params() order) and
# the repr of each loss trace
CHILD = """
import hashlib
import json

import numpy as np

from molflow.autodiff import SeededRng
from molflow.chem import molecular_weight
from molflow.dataset import synthetic_corpus
from molflow.docking import WeightTable
from molflow.flow import FlowConfig, encode_molecules, init_flow
from molflow.pipeline import train_flow, train_property_head
from molflow.spherenet import SphereNetConfig, init_spherenet, train_fusion


def digest(params):
    flat = np.concatenate([a.reshape(-1) for _, a in params.named_params()])
    return hashlib.sha256(flat.tobytes()).hexdigest()


rng = SeededRng(23)
records = synthetic_corpus(60, rng.spawn("corpus"), with_geometry=True).records
flow = init_flow(FlowConfig(atom_hidden=16, bond_hidden=16), rng.spawn("flow"))
weights = WeightTable(tuple(r.smiles for r in records), np.linspace(0.05, 1.0, len(records)),
                      0.0, 1.0)
trained = train_flow(flow, records, epochs=3, rng=rng.spawn("train"), batch_size=20,
                     clip_norm=1.0, weight_table=weights, probe_every=3, probe_count=50)
sphere = init_spherenet(SphereNetConfig(hidden=16, out_dim=flow.config.d_total),
                        rng.spawn("sphere"))
fused = train_fusion(records[:16], flow, sphere, epochs=3, rng=rng.spawn("fusion"))
mols = [r.molecule for r in records]
latents, _ = encode_molecules(flow, mols, [rng.spawn(f"z{k}") for k in range(len(mols))])
head, r2 = train_property_head(latents, [molecular_weight(m) for m in mols],
                               rng.spawn("head"), epochs=3)
print(json.dumps({
    "flow": digest(flow), "flow_nll": repr(trained.epoch_nll),
    "flow_probes": repr(trained.probe_history),
    "fusion": digest(sphere), "fusion_losses": repr(fused.epoch_losses),
    "head": digest(head), "head_r2": repr(r2),
}))
"""

PINNED = {
    "flow": "74477101ae652094202feb2b45b55daf8e35babc852155bb988b79f8eeaa2e98",
    "flow_nll": "[1105.23611550632, 1095.5275343762733, 1078.1156167311121]",
    "flow_probes": "[(2, 0.0)]",
    "fusion": "61e91fcc44e41be603833c0d26d349b51e8b3c9d51cc74df351230864080210c",
    "fusion_losses": "[12.53887858939941, 9.729578040748867, 7.332692339276468]",
    "head": "87e3970aa2e8375ffca02545f555f4fe76222148c0b0a2c6b2e7ef50e36ad14a",
    "head_r2": "0.07842520087919047",
}


def run_child(script: str, threads: int, *args: str) -> str:
    """The stdout of ``python -c script *args`` at `threads` BLAS threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_short_fits_give_the_pinned_parameter_and_loss_bytes():
    assert json.loads(run_child(CHILD, 1)) == PINNED


# train-flow on a 40-molecule corpus at the default widths, then generate
# from its checkpoint; argv: config, dataset, output directory
TRAIN_AND_GENERATE = """
import sys

from molflow.cli import main

config, data, out = sys.argv[1:]
assert main(["train-flow", "--config", config, "--data", data, "--out", out + "/flow.npz"]) == 0
assert main(["generate", "--checkpoint", out + "/flow.npz", "--count", "200", "--data", data,
             "--out", out + "/gen"]) == 0
"""


def test_reports_match_across_blas_thread_counts(tmp_path):
    # the README's contract: checkpoints may differ across thread counts,
    # the report files must not
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11, "epochs": 3, "probe_every": 2,
                                  "probe_count": 50}))
    assert main(["prepare-data", "--config", str(config), "--synthetic", "40",
                 "--no-geometry", "--out", str(tmp_path / "data")]) == 0
    data = str(tmp_path / "data" / "dataset.smi")
    for threads in (1, 2):
        run_child(TRAIN_AND_GENERATE, threads, str(config), data, str(tmp_path / f"t{threads}"))
    for name in ("gen_report.csv", "gen_summary.json"):
        one, two = ((tmp_path / f"t{k}" / "gen" / name).read_bytes() for k in (1, 2))
        assert one == two, name
