#!/usr/bin/env python3
"""Regenerate the pinned sampling model with the desk recipe.

The recipe is the one ``scripts/run_desk_experiment.py`` drives through the
CLI, called here through the same public functions: a 1000-molecule
synthetic corpus with 3D layout, synthetic-oracle docking weights, 150
weighted flow epochs at ``RunConfig`` defaults (hidden 128, batch 100,
probes every 5 epochs, keep-best), then 150 fusion epochs of the hidden-64
geometry encoder on the first 64 geometry records. Weights are passed to
``train_flow`` exactly as ``compute_weights`` returns them.

Usage: python3 perfbench/make_fixture.py

The recipe is fixed (the constants below, seed from ``RunConfig``'s
default), so the script can only regenerate the documented fixture.

It writes ``perfbench/fixture/pinned_model.bin``, the fusion records as
``perfbench/fixture/fusion_set.xyz`` and both files' sha256 in
``perfbench/fixture/SHA256SUMS``. It takes about two minutes on one core.
A new fixture is a benchmark change: measure the baseline again after it.
"""

from __future__ import annotations

import collections
import shutil
import sys
import time

import bootstrap

CORPUS = 1000         # synthetic molecules, all laid out in 3D
EPOCHS = 150          # weighted flow epochs
FUSION_EPOCHS = 150   # encoder fusion epochs
FUSION_SUBSET = 64    # geometry records the encoder is fused on


def main() -> int:
    bootstrap.require_molflow()
    from molflow.autodiff import SeededRng
    from molflow.config import RunConfig
    from molflow.dataset import Dataset, synthetic_corpus, write_dataset
    from molflow.docking import DockingRecord, compute_weights, score_batch
    from molflow.flow import init_flow
    from molflow.pipeline import train_flow
    from molflow.spherenet import init_spherenet, train_fusion

    import fixture

    config = RunConfig().with_overrides({"epochs": EPOCHS, "fusion_epochs": FUSION_EPOCHS})
    t0 = time.perf_counter()
    ds = synthetic_corpus(CORPUS, SeededRng(config.seed).spawn("corpus"),
                          n_max=config.n_max, with_geometry=True)
    scored = score_batch([(r.smiles, r.molecule) for r in ds.records], None, None)
    energy = {rec.molecule_id: rec.energy for rec in scored.records}
    table = compute_weights([DockingRecord(str(i), energy[r.smiles])
                             for i, r in enumerate(ds.records)], floor=config.weight_floor)
    rng = SeededRng(config.seed)
    flow = init_flow(config.flow_config(), rng.spawn("flow-init"))
    result = train_flow(
        flow, ds.records, epochs=config.epochs, rng=rng.spawn("flow-train"),
        lr=config.learning_rate, batch_size=config.batch_size,
        clip_norm=config.clip_norm, weight_table=table,
        sampler_mode=config.sampler_mode, probe_every=config.probe_every,
        probe_count=config.probe_count, probe_temperature=config.temperature,
    )
    print(f"flow: best epoch {result.best_epoch} probe validity {result.best_validity:.4f} "
          f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    sphere = init_spherenet(config.sphere_config(), rng.spawn("sphere-init"))
    fusion_set = ds.with_geometry()[:FUSION_SUBSET]
    fusion = train_fusion(fusion_set, flow, sphere,
                          epochs=config.fusion_epochs, rng=rng.spawn("fusion-train"),
                          lr=config.fusion_learning_rate,
                          batch_size=config.fusion_batch_size)
    print(f"fusion: loss {fusion.epoch_losses[0]:.3f} -> {fusion.epoch_losses[-1]:.3f} "
          f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    recipe = {
        "seed": config.seed, "corpus": CORPUS, "epochs": config.epochs,
        "fusion_epochs": config.fusion_epochs, "fusion_subset": FUSION_SUBSET,
        "best_epoch": result.best_epoch, "best_probe_validity": result.best_validity,
    }
    fixture.save_model(fixture.MODEL_PATH, flow, sphere, recipe)
    tmp = fixture.FIXTURE_DIR / "fusion_set.tmp"
    _, xyz = write_dataset(Dataset(fusion_set, collections.Counter()), tmp)
    xyz.replace(fixture.FUSION_SET_PATH)
    shutil.rmtree(tmp)
    fixture.record_hashes()
    print(fixture.HASH_PATH.read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
