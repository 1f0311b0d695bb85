#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Synthesizes a corpus, computes docking weights with the synthetic oracle,
trains the flow and the fusion encoder, then runs random generation,
seed-conditioned generation, the dataset similarity baseline, and plot-data
export. Prints a compact summary comparing conditioned and unconditioned
similarity (the 3D-conditioning effect) and the generation metrics, then
the wall time of each stage and its share of the run.

Usage: python scripts/run_desk_experiment.py --out runs/desk [--seed N]
At the defaults two runs took 61 and 69 s on a shared 2-vCPU x86_64 host
with one BLAS thread; the stage table shows where the time goes.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from molflow.cli import main as cli


def run(argv, name, times):
    start = time.perf_counter()
    code = cli(argv)
    times[name] = time.perf_counter() - start
    if code != 0:
        print(f"step {name} failed with exit code {code}", file=sys.stderr)
        raise SystemExit(code)


def print_stage_table(times) -> None:
    total = sum(times.values())
    print("\n== stage wall times ==")
    print(f"{'stage':<18s} {'wall s':>8s} {'share':>6s}")
    for name, seconds in times.items():
        print(f"{name:<18s} {seconds:8.1f} {seconds / total:6.0%}")
    print(f"{'total':<18s} {total:8.1f}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/desk")
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--corpus", type=int, default=1000)
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--fusion-epochs", type=int, default=150)
    ap.add_argument("--fusion-subset", type=int, default=64)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps({
        "seed": args.seed,
        "epochs": args.epochs,
        "fusion_epochs": args.fusion_epochs,
    }, indent=2))
    cfg = ["--config", str(config_path)]
    times: dict[str, float] = {}

    run(["prepare-data", *cfg, "--synthetic", str(args.corpus),
         "--out", str(out / "data")], "prepare-data", times)
    data = [str(out / "data" / "dataset.xyz")]
    run(["dock-weights", *cfg, "--data", *data, "--out", str(out / "dock")],
        "dock-weights", times)
    run(["train-flow", *cfg, "--data", *data,
         "--weights", str(out / "dock" / "weights.csv"),
         "--out", str(out / "flow.npz")], "train-flow", times)
    run(["train-fusion", "--checkpoint", str(out / "flow.npz"), "--data", *data,
         "--subset", str(args.fusion_subset),
         "--out", str(out / "fused.npz")], "train-fusion", times)
    run(["generate", "--checkpoint", str(out / "fused.npz"), "--count", "1000",
         "--check", "--data", *data, "--out", str(out / "gen")], "generate", times)
    run(["generate-similar", "--checkpoint", str(out / "fused.npz"),
         "--data", *data, "--count", "200", "--out", str(out / "similar")],
        "generate-similar", times)
    run(["evaluate", *cfg, "--data", *data,
         "--generated", str(out / "gen" / "gen_report.csv"),
         "--out", str(out / "eval")], "evaluate", times)
    run(["export-plotdata", "--report", str(out / "gen"),
         "--out", str(out / "plot")], "export-plotdata", times)

    gen = json.loads((out / "gen" / "gen_summary.json").read_text())
    sim = json.loads((out / "similar" / "similar_summary.json").read_text())
    ev = json.loads((out / "eval" / "eval_summary.json").read_text())
    print("\n== desk experiment summary ==")
    print(f"random generation  : validity {gen['validity_pct']:.2f}%  "
          f"w/o check {gen['validity_wo_check_pct']:.2f}%  "
          f"novelty {gen['novelty_pct']:.2f}%  uniqueness {gen['uniqueness_pct']:.2f}%")
    print(f"3D-conditioned sim : tanimoto {sim['mean_tanimoto']:.3f}  "
          f"fraggle {sim['mean_fraggle']:.3f}  maccs {sim['mean_maccs']:.3f}")
    print(f"dataset baseline   : tanimoto {ev['baseline']['mean_tanimoto']:.3f}  "
          f"fraggle {ev['baseline']['mean_fraggle']:.3f}  "
          f"maccs {ev['baseline']['mean_maccs']:.3f}")
    print_stage_table(times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
