"""Command-line interface.

Subcommands: prepare-data, dock-weights, train-flow, train-fusion,
generate, generate-similar, evaluate, optimize-property, optimize-fragment,
export-plotdata. Exit codes: 0 success, 1 usage error, 2 data error,
3 external-scorer failure.

`main` runs every subcommand alike: it refuses a bad --out, loads the
--checkpoint, resolves the config (the --config file, else the checkpoint's,
else the defaults, plus the validated override flags), loads the --data,
calls the `cmd_*` body and logs `event=<command>`, its pairs and `elapsed_s`.

Reports are byte-deterministic for a given config and seed: CSV rows and
JSON summaries carry no timestamps (diagnostics and timings go to stderr as
key=value lines), and every summary echoes the effective config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .autodiff import SeededRng
from .chem import (MORGAN_BITS, Molecule, SmilesError, molecular_weight, morgan_fingerprint,
                   parse_smiles, to_hex, write_smiles)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .dataset import DataError, Dataset, ingest, synthetic_corpus, write_dataset
from .docking import (
    ScoreCache,
    ScorerConfig,
    ScorerError,
    WeightTable,
    compute_weights,
    score_batch,
)
from .flow import encode_molecules, init_flow
from .pipeline import (
    compute_plogp,
    compute_qed_lite,
    crippen_logp,
    evaluate_similarity_baseline,
    excise_fragment,
    generate_random,
    generate_similar,
    novelty_pct,
    optimize_property,
    optimize_substructure,
    sa_proxy,
    train_flow,
    train_property_head,
    uniqueness_pct,
)
from .spherenet import init_spherenet, train_fusion


class UsageError(ValueError):
    pass


def log(**kv) -> None:
    print(" ".join(f"{k}={v}" for k, v in kv.items()), file=sys.stderr)


# the commands whose --out is a checkpoint file; every other --out is a directory
CHECKPOINT_WRITERS = ("train-flow", "train-fusion")

# flags that override the config field of the same name
_OVERRIDES = ("seed", "epochs", "fusion_epochs", "temperature", "noise_fraction")


def _load_config(args, default: RunConfig | None) -> RunConfig:
    """The --config file, else `default` or the defaults, plus the
    command-line overrides."""
    path = getattr(args, "config", None)
    config = RunConfig.from_file(path) if path else default or RunConfig()
    return config.with_overrides({key: getattr(args, key, None) for key in _OVERRIDES})


def _load_dataset(paths, config: RunConfig) -> Dataset:
    ds = ingest(paths, n_max=config.n_max)
    log(event="ingest", records=len(ds.records), **{f"skip_{k}": v for k, v in ds.skipped.items()})
    if not ds.records:
        raise DataError(paths[0], 0, "dataset is empty after ingestion")
    return ds


def _geometry_records(args, ds: Dataset) -> list:
    """The --data records that carry 3D coordinates; there must be one."""
    usable = ds.with_geometry()
    if not usable:
        raise DataError(args.data[0], 0, "no record carries geometry")
    return usable


def _refuse_directory_out(path) -> None:
    """A training command's --out must not be a directory; checked before
    training, since the model would otherwise be lost at save time."""
    if Path(path).is_dir():
        raise ValueError(f"--out {path} is a directory, not a checkpoint file path")


def _refuse_file_out(path) -> None:
    """A report command's --out is a directory: an existing file there (or
    in place of a parent directory) is refused before any work, since the
    reports could not be written at the end."""
    out = Path(path)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise FileExistsError(errno.EEXIST, "File exists", str(blocker))


def _read_csv(path, columns: set[str], read) -> list:
    """``read(row)`` of every row of a report CSV that must carry `columns`,
    leaving out rows read as None (a short row's missing cells read as "").
    A missing column, or a ValueError from `read`, is a DataError naming the
    file and line, so every cell is checked before a caller writes."""
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = columns - set(reader.fieldnames or ())
        if missing:
            raise DataError(path, 1, f"missing column(s) {', '.join(sorted(missing))}")
        try:
            return [out for row in reader if (out := read(row)) is not None]
        except ValueError as exc:   # SmilesError is a ValueError
            raise DataError(path, reader.line_num, str(exc)) from None


def _read_generated(path) -> list[tuple[str, Molecule]]:
    """(SMILES, molecule) of each row of a gen_report.csv whose integer
    valid is not 0."""
    return _read_csv(path, {"smiles", "valid"}, lambda row: (
        (row["smiles"], parse_smiles(row["smiles"])) if int(row["valid"]) else None))


SIMILARITIES = ("tanimoto", "fraggle", "maccs")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands: cmd_x(args, config, checkpoint, ds) returns the key=value
# pairs of its closing stderr line (checkpoint and ds are None without the flag)
# ---------------------------------------------------------------------------


def cmd_prepare_data(args, config, checkpoint, ds) -> dict:
    out = Path(args.out)
    if args.synthetic:
        ds = synthetic_corpus(args.synthetic, SeededRng(config.seed).spawn("corpus"),
                              n_max=config.n_max, with_geometry=not args.no_geometry)
    elif args.no_geometry:
        ds = Dataset([dataclasses.replace(r, elements=None, coords=None) for r in ds.records],
                     ds.skipped)
    smi, xyz = write_dataset(ds, out)
    _write_json(out / "prepare_summary.json", {
        "config": config.to_dict(),
        "records": len(ds.records),
        "with_geometry": sum(1 for r in ds.records if r.has_geometry),
        "skipped": dict(ds.skipped),
        "files": [p.name for p in (smi, xyz) if p is not None],
    })
    return {"records": len(ds.records), "out": str(out)}


def cmd_dock_weights(args, config, checkpoint, ds) -> dict:
    molecules = {}
    for rec in ds.records:
        molecules.setdefault(rec.smiles, rec.molecule)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache = ScoreCache.load(out / "score_cache.csv")
    scorer = None
    if config.scorer_command:
        scorer = ScorerConfig(config.scorer_command, config.scorer_timeout,
                              config.scorer_retries, config.scorer_parallelism)
    result = score_batch(list(molecules.items()), scorer, cache)
    for mid, reason in sorted(result.failures.items()):
        log(event="score-failure", id=mid, reason=reason)
    if not result.records:
        # the most common per-molecule reason, ties by name
        reasons = Counter(result.failures.values())
        reason = min(reasons, key=lambda r: (-reasons[r], r), default="unparseable")
        raise ScorerError(reason, "no molecule could be scored")
    table = compute_weights(result.records, floor=config.weight_floor)
    rows = [
        (rec.molecule_id, _fmt(rec.energy), _fmt(rec.alpha), _fmt(table.weights[i]))
        for i, rec in enumerate(result.records)
    ]
    _write_csv(out / "weights.csv", ["smiles", "energy", "alpha", "weight"], rows)
    _write_json(out / "dock_summary.json", {
        "config": config.to_dict(),
        "scored": len(result.records),
        "failures": result.failures,
        "alpha_min": table.alpha_min,
        "alpha_max": table.alpha_max,
    })
    return {"scored": len(result.records), "failures": len(result.failures)}


def _read_weight_table(path: Path, records) -> WeightTable:
    """Each record's weight from a dock-weights `weights.csv`, used as the
    file gives it (looked up by SMILES)."""
    by_smiles = dict(_read_csv(path, {"smiles", "alpha", "weight"},
                               lambda row: (row["smiles"],
                                            (float(row["alpha"]), float(row["weight"])))))
    missing = [r.smiles for r in records if r.smiles not in by_smiles]
    if missing:
        raise DataError(path, 0, f"{len(missing)} records lack weights")
    alphas, weights = zip(*(by_smiles[r.smiles] for r in records))
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise DataError(path, 0, "weights must lie in [0, 1]")
    return WeightTable(tuple(str(i) for i in range(len(records))), np.array(weights),
                       min(alphas), max(alphas))


def cmd_train_flow(args, config, checkpoint, ds) -> dict:
    rng = SeededRng(config.seed)
    params = init_flow(config.flow_config(), rng.spawn("flow-init"))
    table = None
    if args.weights:
        table = _read_weight_table(Path(args.weights), ds.records)
    result = train_flow(
        params, ds.records, epochs=config.epochs, rng=rng.spawn("flow-train"),
        lr=config.learning_rate, batch_size=config.batch_size,
        clip_norm=config.clip_norm, weight_table=table,
        sampler_mode=config.sampler_mode, probe_every=config.probe_every,
        probe_count=config.probe_count, probe_temperature=config.temperature,
    )
    for epoch, nll in enumerate(result.epoch_nll):
        log(event="flow-epoch", epoch=epoch, nll=f"{nll:.3f}")
    for epoch, v in result.probe_history:
        log(event="flow-probe", epoch=epoch, raw_validity=f"{v:.4f}")
    log(event="flow-best", epoch=result.best_epoch, raw_validity=f"{result.best_validity:.4f}")
    save_checkpoint(args.out, config, params)
    return {"checkpoint": args.out}


def cmd_train_fusion(args, config, checkpoint, ds) -> dict:
    _, flow_params, _ = checkpoint
    usable = _geometry_records(args, ds)[: args.subset]
    rng = SeededRng(config.seed)
    # the encoder's output must match the loaded flow, whatever the config says
    sphere_config = dataclasses.replace(config.sphere_config(),
                                        out_dim=flow_params.config.d_total)
    sphere = init_spherenet(sphere_config, rng.spawn("sphere-init"))
    result = train_fusion(usable, flow_params, sphere, epochs=config.fusion_epochs,
                          rng=rng.spawn("fusion-train"), lr=config.fusion_learning_rate,
                          batch_size=config.fusion_batch_size)
    for epoch, loss in enumerate(result.epoch_losses):
        log(event="fusion-epoch", epoch=epoch, loss=f"{loss:.4f}")
    save_checkpoint(args.out, config, flow_params, sphere)
    return {"checkpoint": args.out}


def cmd_generate(args, config, checkpoint, ds) -> dict:
    _, flow_params, _ = checkpoint
    rng = SeededRng(config.seed).spawn("generate")
    _, report = generate_random(
        flow_params, args.count, check=args.check, temperature=config.temperature,
        rng=rng, training=ds.smiles_set() if ds else set(),
    )
    out = Path(args.out)
    _write_csv(out / "gen_report.csv", ["index", "valid", "smiles"],
               [(i, int(v), s) for i, v, s in report.entries])
    _write_json(out / "gen_summary.json", {
        "config": config.to_dict(),
        "seed": config.seed,
        "temperature": config.temperature,
        "check": args.check,
        "requested": report.requested,
        "returned": report.returned,
        "raw_attempts": report.raw_attempts,
        "validity_pct": report.validity_pct,
        "validity_wo_check_pct": report.validity_wo_check_pct,
        "novelty_pct": report.novelty_pct,
        "uniqueness_pct": report.uniqueness_pct,
        "cap_exhausted": report.cap_exhausted,
    })
    return {"returned": report.returned, "validity": f"{report.validity_pct:.2f}",
            "validity_wo_check": f"{report.validity_wo_check_pct:.2f}"}


def cmd_generate_similar(args, config, checkpoint, ds) -> dict:
    _, flow_params, sphere = checkpoint
    if sphere is None:
        raise UsageError("checkpoint has no geometry encoder; run train-fusion first")
    usable = _geometry_records(args, ds)
    rng = SeededRng(config.seed).spawn("generate-similar")
    pick = rng.spawn("seeds")
    seeds = [usable[int(i)] for i in pick.integers(0, len(usable), args.count)]
    _, report = generate_similar(flow_params, sphere, seeds, config.noise_fraction, rng)
    out = Path(args.out)
    _write_csv(out / "similar_report.csv",
               ["index", "smiles", "tanimoto", "fraggle", "maccs"],
               [(i, s, _fmt(t), _fmt(f), _fmt(k)) for i, s, t, f, k in report.rows])
    _write_json(out / "similar_summary.json", {
        "config": config.to_dict(),
        "seed": config.seed,
        "noise_fraction": config.noise_fraction,
        "seeds": report.seed_smiles,
        "generated": len(report.rows),
        "failures": report.failures,
        "mean_tanimoto": report.mean_tanimoto,
        "mean_fraggle": report.mean_fraggle,
        "mean_maccs": report.mean_maccs,
    })
    return {"generated": len(report.rows), "failures": report.failures,
            "mean_fraggle": f"{report.mean_fraggle:.4f}"}


def cmd_evaluate(args, config, checkpoint, ds) -> dict:
    if args.generated:
        smiles = [s for s, _ in _read_generated(args.generated)]
    rng = SeededRng(config.seed).spawn("evaluate")
    baseline = evaluate_similarity_baseline(ds.records, rng)
    payload = {"config": config.to_dict(), "seed": config.seed, "baseline": baseline}
    if args.generated:
        payload["generated"] = {
            "count": len(smiles),
            "uniqueness_pct": uniqueness_pct(smiles),
            "novelty_pct": novelty_pct(smiles, ds.smiles_set()),
        }
    _write_json(Path(args.out) / "eval_summary.json", payload)
    return {"baseline_fraggle": f"{baseline['mean_fraggle']:.4f}"}


_PROPERTIES = {"plogp": compute_plogp, "qed": compute_qed_lite}


def cmd_optimize_property(args, config, checkpoint, ds) -> dict:
    _, flow_params, _ = checkpoint
    prop_fn = _PROPERTIES[args.property]
    rng = SeededRng(config.seed).spawn("optimize-property")
    enc_rng = rng.spawn("latents")
    latents, _ = encode_molecules(flow_params, [rec.molecule for rec in ds.records],
                                  [enc_rng.spawn(f"m{i}") for i in range(len(ds.records))])
    values = np.array([prop_fn(rec.molecule) for rec in ds.records])
    head, r2 = train_property_head(latents, values, rng.spawn("head"))
    log(event="property-head", holdout_r2=f"{r2:.4f}")
    top = np.argsort(values)[::-1][: args.seeds]
    rows = []
    for rank, idx in enumerate(top):
        traj = optimize_property(latents[int(idx)], head, steps=config.ascent_steps,
                                 step_size=config.ascent_step_size,
                                 flow_params=flow_params, property_fn=prop_fn)
        best = traj.best
        rows.append((
            rank, ds.records[int(idx)].smiles, _fmt(values[int(idx)]),
            write_smiles(best.molecule) if best else "",
            _fmt(best.actual) if best else "",
        ))
    rows_best = sorted((r for r in rows if r[4]), key=lambda r: -float(r[4]))[:3]
    out = Path(args.out)
    _write_csv(out / "property_report.csv",
               ["rank", "seed_smiles", "seed_value", "best_smiles", "best_value"], rows)
    _write_json(out / "property_summary.json", {
        "config": config.to_dict(),
        "seed": config.seed,
        "property": args.property,
        "holdout_r2": r2,
        "top3": [{"smiles": r[3], "value": float(r[4])} for r in rows_best],
    })
    return {"seeds": len(rows), "improved": len(rows_best)}


def cmd_optimize_fragment(args, config, checkpoint, ds) -> dict:
    _, flow_params, _ = checkpoint
    try:
        host = parse_smiles(args.host)
    except SmilesError as exc:
        raise ValueError(f"--host {args.host!r}: {exc}") from exc
    atoms = args.fragment_atoms
    if max(atoms) >= host.num_atoms:
        raise UsageError(f"--fragment-atoms: index {max(atoms)} is out of range for a host "
                         f"of {host.num_atoms} atoms")
    try:
        excise_fragment(host, atoms)
    except ValueError as exc:
        raise UsageError(f"--fragment-atoms: {exc}") from exc
    rng = SeededRng(config.seed).spawn("optimize-fragment")
    result = optimize_substructure(host, atoms, flow_params, rng, lam=config.noise_fraction)
    payload = {
        "config": config.to_dict(),
        "seed": config.seed,
        "host": write_smiles(host),
        "fragment_atoms": sorted(atoms),
        "replaced": result.replaced_ok,
        "candidates_tried": result.candidates_tried,
        "result": write_smiles(result.molecule) if result.molecule else None,
    }
    _write_json(Path(args.out) / "fragment_summary.json", payload)
    return {"ok": result.replaced_ok, "tried": result.candidates_tried}


def cmd_export_plotdata(args, config, checkpoint, ds) -> dict:
    report_dir = Path(args.report)
    out = Path(args.out)
    gen_csv = report_dir / "gen_report.csv"
    sim_csv = report_dir / "similar_report.csv"
    similar = _read_csv(sim_csv, {"smiles", *SIMILARITIES}, lambda row: (
        row["smiles"], parse_smiles(row["smiles"]), [float(row[k]) for k in SIMILARITIES]
    )) if sim_csv.exists() else None
    if gen_csv.exists():
        molecules = _read_generated(gen_csv)
    elif similar is not None:
        molecules = [(s, m) for s, m, _ in similar]
    else:
        raise DataError(report_dir, 0, "no gen_report.csv or similar_report.csv found")

    _write_csv(out / "fingerprints.csv", ["smiles", "morgan_hex"],
               [(s, to_hex(fp, MORGAN_BITS)) for (s, _), fp
                in zip(molecules, morgan_fingerprint([m for _, m in molecules]))])
    _write_csv(out / "properties.csv",
               ["smiles", "mol_weight", "plogp", "qed_lite", "sa_proxy", "crippen_logp"],
               [(s, _fmt(molecular_weight(m)), _fmt(compute_plogp(m)),
                 _fmt(compute_qed_lite(m)), _fmt(sa_proxy(m)), _fmt(crippen_logp(m)))
                for s, m in molecules])
    bins = np.linspace(0.0, 1.0, 21)
    hist_rows = []
    if similar is not None:
        counts = [np.histogram([scores[k] for *_, scores in similar], bins=bins)[0]
                  for k in range(len(SIMILARITIES))]
        hist_rows = [(_fmt(bins[b]), _fmt(bins[b + 1]), *(int(c[b]) for c in counts))
                     for b in range(20)]
    _write_csv(out / "similarity_hist.csv",
               ["bin_lo", "bin_hi", "tanimoto_count", "fraggle_count", "maccs_count"],
               hist_rows)
    return {"molecules": len(molecules), "out": str(out)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _atom_indices(text: str) -> set[int]:
    """argparse type for --fragment-atoms: comma-separated atom indices of
    at least 0."""
    try:
        atoms = {int(a) for a in text.split(",")}
    except ValueError:
        atoms = {-1}
    if min(atoms) < 0:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated non-negative integers, got {text!r}")
    return atoms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molflow",
        description="flow-based molecular generation with 3D conditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config=False):
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help="checkpoint path (.npz)"
                       if name in CHECKPOINT_WRITERS else "output directory")
        p.set_defaults(func=func)
        return p

    p = command("prepare-data", cmd_prepare_data, "ingest or synthesize a dataset", config=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", dest="data", nargs="+", metavar="FILE",
                        help="SMILES or XYZ files")
    source.add_argument("--synthetic", type=_positive_int, help="synthesize N molecules")
    p.add_argument("--no-geometry", action="store_true")

    p = command("dock-weights", cmd_dock_weights,
                "score molecules and derive sampling weights", config=True)
    p.add_argument("--data", nargs="+", required=True)

    p = command("train-flow", cmd_train_flow, "train the generative flow", config=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--weights", default=None, help="weights.csv from dock-weights")
    p.add_argument("--epochs", type=int, default=None)

    p = command("train-fusion", cmd_train_fusion,
                "train the geometry encoder against the flow latent", config=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--subset", type=_positive_int, default=None,
                   help="use only the first N geometry records")
    p.add_argument("--fusion-epochs", dest="fusion_epochs", type=int, default=None)

    p = command("generate", cmd_generate, "random generation with metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--data", nargs="*", default=[], help="training data for novelty")

    p = command("generate-similar", cmd_generate_similar, "seed-conditioned generation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--count", type=_positive_int, default=100, help="number of seeds")
    p.add_argument("--noise-fraction", dest="noise_fraction", type=float, default=None)

    p = command("evaluate", cmd_evaluate, "similarity baseline and set metrics", config=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--generated", default=None, help="gen_report.csv to evaluate")

    p = command("optimize-property", cmd_optimize_property,
                "latent gradient ascent on a property")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--property", choices=sorted(_PROPERTIES), required=True)
    p.add_argument("--seeds", type=_positive_int, default=50)

    p = command("optimize-fragment", cmd_optimize_fragment, "substructure replacement")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--host", required=True, help="host molecule SMILES")
    p.add_argument("--fragment-atoms", type=_atom_indices, required=True,
                   help="comma-separated atom indices")

    p = command("export-plotdata", cmd_export_plotdata, "fingerprint/property/similarity CSVs")
    p.add_argument("--report", required=True, help="a generate/generate-similar output dir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    try:
        if args.command in CHECKPOINT_WRITERS:
            _refuse_directory_out(args.out)
        else:
            _refuse_file_out(args.out)
        checkpoint = load_checkpoint(args.checkpoint) if hasattr(args, "checkpoint") else None
        config = _load_config(args, default=checkpoint[0] if checkpoint else None)
        paths = getattr(args, "data", None)
        ds = _load_dataset(paths, config) if paths else None
        summary = args.func(args, config, checkpoint, ds)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ScorerError as exc:
        print(f"scorer error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:   # DataError and SmilesError are ValueErrors
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    log(event=args.command, **summary, elapsed_s=f"{time.perf_counter() - start:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
