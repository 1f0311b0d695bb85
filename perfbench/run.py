#!/usr/bin/env python3
"""molflow benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {train,generate,similar} --seed N \\
        --seconds S --trace {0,1} [--size {full,toy}]

The workload seed draws every input: corpora, docking scores, prior
latents, seed picks and sampler streams. Everything runs in this one
process on one BLAS thread, as offline batch work in a closed loop: the
next workload iteration starts when the previous one ends, until the
iterations have taken ``--seconds``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs
untraced for half of ``--seconds``, then wraps molflow's public functions
(see ``tracing.py``), replays the same iterations and reports the
per-layer metrics, plus the tracing overhead as traced minus untraced
end-to-end numbers. The last line of standard output is the result as one JSON
object; the line before it carries provenance. Both are also written under
``.perfbench_out/``. The exit code is 1 when an output check fails and 2
when the run cannot start (no molflow checkout, altered pinned model).
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS/OpenMP threads before numpy is imported

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

WORK_ROOT = bootstrap.ROOT / ".perfbench_work"
OUT_DIR = bootstrap.ROOT / ".perfbench_out"
INVERTIBILITY_TOL = 1e-9   # the ROADMAP invertibility gate
INVERTIBILITY_BATCH = 32


# Heavy-atom count -> molecules of that size the train workload lays out in
# 3D for train_fusion. Fusion cost grows steeply with atom count, so a
# fixed size profile (QM9-like, large molecules most common) keeps the work
# per epoch alike across seeds; the seed still picks the molecules.
FUSION_PROFILE = {9: 8, 8: 6, 7: 4, 6: 3, 5: 2, 4: 1}


@dataclass(frozen=True)
class Size:
    setup_repeats: int      # set-up passes per run; setup_s is their median
    train_corpus: int       # molecules the flow trains on
    fusion_profile: dict    # of those, laid out in 3D for train_fusion
    flow_epochs: int
    fusion_epochs: int
    novelty_corpus: int     # molecules novelty is measured against
    gen_count: int          # molecules requested per generate_random call
    similar_seeds: int      # seeds per generate_similar call
    baseline_corpus: int    # geometry-free molecules for the baseline
    baseline_pairs: int     # pairs per evaluate_similarity_baseline call


SIZES = {
    "full": Size(setup_repeats=7, train_corpus=500, fusion_profile=FUSION_PROFILE,
                 flow_epochs=10, fusion_epochs=30, novelty_corpus=500, gen_count=1250,
                 similar_seeds=24, baseline_corpus=1000, baseline_pairs=48),
    "toy": Size(setup_repeats=1, train_corpus=40, fusion_profile={9: 1, 8: 1}, flow_epochs=2,
                fusion_epochs=3, novelty_corpus=40, gen_count=20,
                similar_seeds=2, baseline_corpus=20, baseline_pairs=2),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mol_per_s": "mol/s",
    "aux_per_s": "1/s",
}


@dataclass
class Tally:
    """Work and wall time of a run's timed stages, plus check results.

    ``mol``/``mol_s`` feed ``mol_per_s`` and ``aux``/``aux_s`` feed
    ``aux_per_s``; what they count depends on the workload (README)."""

    mol: float = 0.0
    mol_s: float = 0.0
    aux: float = 0.0
    aux_s: float = 0.0
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def rates(self) -> dict[str, float]:
        return {
            "mol_per_s": self.mol / self.mol_s if self.mol_s > 0 else 0.0,
            "aux_per_s": self.aux / self.aux_s if self.aux_s > 0 else 0.0,
        }


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def synthesize(seed: int, work: Path, count: int, layout_profile: dict[int, int] | None = None):
    """A synthetic corpus, written with ``write_dataset`` and read back with
    ``ingest`` as ``prepare-data`` and the later CLI stages do. Molecules
    picked by ``layout_profile`` get 3D coordinates from
    ``layout_coordinates``, as ``synthetic_corpus`` gives them."""
    from molflow import dataset
    from molflow.autodiff import SeededRng

    rng = SeededRng(seed).spawn("corpus")
    records = dataset.synthetic_corpus(count, rng.spawn("plain"), with_geometry=False).records
    for atoms, wanted in (layout_profile or {}).items():
        picked = [r for r in records if r.molecule.num_atoms == atoms][:wanted]
        if len(picked) < wanted:
            raise RuntimeError(f"corpus has {len(picked)} molecules of {atoms} atoms, "
                               f"needs {wanted}")
        for rec in picked:
            rec.elements = rec.molecule.elements
            rec.coords = dataset.layout_coordinates(rec.molecule, rng.spawn(f"xyz-{rec.smiles}"))
    paths = dataset.write_dataset(dataset.Dataset(records, collections.Counter()), work)
    return dataset.ingest([p for p in paths if p is not None])


class Workload:
    def __init__(self, seed: int, size: Size):
        from molflow.config import RunConfig

        self.seed = seed
        self.size = size
        self.config = RunConfig()

    def rng(self, k: int):
        from molflow.autodiff import SeededRng

        return SeededRng(self.seed).spawn(f"iter{k}")

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def iteration(self, k: int, tally: Tally, work: Path, checks) -> None:
        raise NotImplementedError


class Train(Workload):
    """Docking prior, weighted train_flow, then train_fusion."""

    def setup(self, work: Path) -> None:
        ds = synthesize(self.seed, work, self.size.train_corpus, self.size.fusion_profile)
        self.records = ds.records
        self.fusion_set = ds.with_geometry()
        unique = {r.smiles: r.molecule for r in self.records}
        self.to_score = list(unique.items())

    def iteration(self, k: int, tally: Tally, work: Path, checks) -> None:
        import numpy as np
        from molflow import docking, pipeline, spherenet
        from molflow.flow import init_flow
        from molflow.spherenet import init_spherenet

        cfg = self.config
        rng = self.rng(k)
        cache = docking.ScoreCache.load(work / f"score_cache_{k}.csv")
        scored = docking.score_batch(self.to_score, None, cache)
        energy = {rec.molecule_id: rec.energy for rec in scored.records}
        table = docking.compute_weights(
            [docking.DockingRecord(str(i), energy[r.smiles]) for i, r in enumerate(self.records)],
            floor=cfg.weight_floor)
        flow = init_flow(cfg.flow_config(), rng.spawn("flow-init"))
        train_rng = rng.spawn("flow-train")
        sizes = selection_sizes(table, train_rng.spawn("sampler"), self.size.flow_epochs,
                                cfg.sampler_mode, len(self.records))
        steps = sum(math.ceil(n / cfg.batch_size) for n in sizes)
        tally.ops += steps
        t0 = perf_counter()
        try:
            result = pipeline.train_flow(
                flow, self.records, epochs=self.size.flow_epochs, rng=train_rng,
                lr=cfg.learning_rate, batch_size=cfg.batch_size, clip_norm=cfg.clip_norm,
                weight_table=table, sampler_mode=cfg.sampler_mode,
                probe_every=cfg.probe_every, probe_count=cfg.probe_count,
                probe_temperature=cfg.temperature)
        except (FloatingPointError, ValueError) as exc:
            tally.failed += 1
            tally.problems.append(f"iteration {k}: train_flow raised {exc!r}")
            return
        tally.mol_s += perf_counter() - t0
        tally.mol += sum(sizes)

        sphere = init_spherenet(cfg.sphere_config(), rng.spawn("sphere-init"))
        t0 = perf_counter()
        fusion = spherenet.train_fusion(
            self.fusion_set, flow, sphere, epochs=self.size.fusion_epochs,
            rng=rng.spawn("fusion-train"), lr=cfg.fusion_learning_rate,
            batch_size=cfg.fusion_batch_size)
        tally.aux_s += perf_counter() - t0
        tally.aux += len(self.fusion_set) * self.size.fusion_epochs

        with checks():
            nll = result.epoch_nll
            tally.check(bool(np.all(np.isfinite(nll))), f"iteration {k}: non-finite NLL")
            tally.check(nll[-1] < nll[0], f"iteration {k}: NLL {nll[0]} -> {nll[-1]} did not fall")
            err = roundtrip_error(flow, self.records[:INVERTIBILITY_BATCH], rng.spawn("check"))
            tally.check(err < INVERTIBILITY_TOL,
                        f"iteration {k}: encode/decode round trip error {err:.3g}")
            losses = fusion.epoch_losses
            tally.check(bool(np.all(np.isfinite(losses))) and losses[-1] < losses[0],
                        f"iteration {k}: fusion loss {losses[0]} -> {losses[-1]} did not fall")
            tally.digests.append(_digest(repr(x) for x in nll + losses))


def selection_sizes(table, sampler_rng, epochs: int, mode: str, n_records: int) -> list[int]:
    """Molecules ``train_flow`` passes through ``train_step`` per epoch:
    the same ``sample_epoch`` draws on the same stream, with its fallback
    to the whole corpus when a draw selects nothing."""
    from molflow.docking import sample_epoch

    return [len(sample_epoch(table, sampler_rng, mode)) or n_records for _ in range(epochs)]


def roundtrip_error(flow, records, rng) -> float:
    """Max abs error of dequantized tensors pushed through the flow and
    back."""
    import numpy as np
    from molflow.dataset import tensor_batches
    from molflow.flow import decode_continuous, dequantize, encode_continuous

    atoms, bonds = tensor_batches(records, flow.config.n_max)
    xa = dequantize(atoms, flow.config.noise_scale, rng)
    xb = dequantize(bonds, flow.config.noise_scale, rng)
    za, zb, _, _ = encode_continuous(flow, xa, xb)
    ya, yb = decode_continuous(flow, za, zb)
    return float(max(np.max(np.abs(ya - xa)), np.max(np.abs(yb - xb))))


class Generate(Workload):
    """generate_random with the valency check, from the pinned model."""

    def setup(self, work: Path) -> None:
        import fixture

        ds = synthesize(self.seed, work, self.size.novelty_corpus)
        self.training = ds.smiles_set()
        self.flow, _ = fixture.load_model()

    def iteration(self, k: int, tally: Tally, work: Path, checks) -> None:
        from molflow import pipeline
        from molflow.chem import valency_check

        count = self.size.gen_count
        t0 = perf_counter()
        molecules, report = pipeline.generate_random(
            self.flow, count, check=True, temperature=self.config.temperature,
            rng=self.rng(k), training=self.training)
        elapsed = perf_counter() - t0
        tally.mol += sum(1 for _, ok, _ in report.entries if ok)
        tally.mol_s += elapsed
        tally.aux += report.raw_attempts
        tally.aux_s += elapsed
        tally.ops += count
        tally.failed += count - report.returned
        with checks():
            tally.check(report.returned == count,
                        f"iteration {k}: returned {report.returned} of {count}")
            bad = sum(1 for m in molecules if not valency_check(m))
            tally.check(bad == 0, f"iteration {k}: {bad} returned molecules fail valency_check")
            tally.digests.append(_digest(smi for _, _, smi in report.entries))


class Similar(Workload):
    """generate_similar from the pinned model and encoder, then
    evaluate_similarity_baseline on a larger geometry-free corpus."""

    def setup(self, work: Path) -> None:
        import fixture

        self.baseline_set = synthesize(self.seed, work, self.size.baseline_corpus).records
        self.flow, self.sphere = fixture.load_model()
        self.geometry_set = fixture.load_geometry_set(self.config.n_max)

    def iteration(self, k: int, tally: Tally, work: Path, checks) -> None:
        from molflow import pipeline
        from molflow.chem import valency_check

        rng = self.rng(k)
        picks = rng.spawn("seeds").integers(0, len(self.geometry_set), self.size.similar_seeds)
        seeds = [self.geometry_set[int(i)] for i in picks]
        t0 = perf_counter()
        out, report = pipeline.generate_similar(self.flow, self.sphere, seeds,
                                                self.config.noise_fraction, rng.spawn("similar"))
        t1 = perf_counter()
        baseline = pipeline.evaluate_similarity_baseline(
            self.baseline_set, rng.spawn("baseline"), sample_size=2 * self.size.baseline_pairs)
        t2 = perf_counter()
        tally.mol += len(report.rows)
        tally.mol_s += t1 - t0
        tally.aux += baseline["pairs"]
        tally.aux_s += t2 - t1
        tally.ops += len(seeds)
        tally.failed += report.failures
        with checks():
            sims = [v for row in report.rows for v in row[2:]]
            sims += [baseline[key] for key in ("mean_tanimoto", "mean_fraggle", "mean_maccs")]
            tally.check(all(0.0 <= v <= 1.0 for v in sims),
                        f"iteration {k}: similarity outside [0, 1]")
            bad = sum(1 for m in out if m is not None
                      and (not valency_check(m) or pipeline.safe_canonical(m) is None))
            tally.check(bad == 0, f"iteration {k}: {bad} accepted molecules are invalid")
            tally.digests.append(_digest(row[1] for row in report.rows))


WORKLOADS = {"train": Train, "generate": Generate, "similar": Similar}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measure(bench: Workload, work: Path, seconds: float, checks,
            between=None) -> tuple[Tally, int]:
    """Closed loop of iterations until they have taken ``seconds``.
    ``between(share)``, if given, runs after each iteration with the share
    of ``seconds`` done so far; its time is not counted."""
    tally = Tally()
    work.mkdir()
    k = 0
    busy = 0.0
    while k == 0 or busy < seconds:
        t0 = perf_counter()
        bench.iteration(k, tally, work, checks)
        busy += perf_counter() - t0
        k += 1
        if between is not None:
            between(min(busy / seconds, 1.0))
    return tally, k


def timed_setup(bench: Workload, work: Path) -> float:
    work.mkdir(parents=True)
    t0 = perf_counter()
    bench.setup(work)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(bench: Workload, size: Size, work: Path, seconds: float):
    """Set-up passes are spread evenly over the run (the first before it,
    the last after it), so ``setup_s`` sees the host over the same window
    as the throughputs rather than over a few seconds at the start. Every
    pass rebuilds the same inputs from the seed."""
    setups = []

    def set_up_until(share: float) -> None:
        while len(setups) < 1 + round(share * (size.setup_repeats - 1)):
            setups.append(timed_setup(bench, work / f"setup{len(setups)}"))

    set_up_until(0.0)
    tally, iterations = measure(bench, work / "run", seconds, contextlib.nullcontext,
                                set_up_until)
    set_up_until(1.0)
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb(),
              **tally.rates()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, tally, iterations


def run_traced(bench: Workload, work: Path, seconds: float, spans_path: Path):
    import tracing

    setup_u = timed_setup(bench, work / "untraced")
    plain, iterations = measure(bench, work / "run", seconds / 2, contextlib.nullcontext)
    tracer = tracing.Tracer()
    tally = Tally()
    tracer.install()
    try:
        start = perf_counter()
        setup_t = timed_setup(bench, work / "traced")
        (work / "traced-run").mkdir()
        for k in range(iterations):
            tracer.run_id = f"iter{k}"
            bench.iteration(k, tally, work / "traced-run", tracer.paused)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    if isinstance(bench, Train):
        traced = sum(s[5]["molecules"] for s in tracer.spans if s[0] == "flow.train_step")
        tally.check(traced == tally.mol,
                    f"train_step saw {traced} molecules, the selection replay {tally.mol}")
    overhead = {"setup_s": setup_t - setup_u}
    untraced_rates = plain.rates()
    overhead.update({name: rate - untraced_rates[name] for name, rate in tally.rates().items()})
    tally.problems = plain.problems + tally.problems
    return tracing.layer_metrics(tracer.spans, wall, overhead), tally, iterations


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout from the .git directory, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
        "machine": platform.machine(), "commit": git_commit(bootstrap.ROOT),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description="molflow benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input sizes; 'toy' is for the self-test only")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.require_molflow()
        import fixture

        fixture.verify()
    except (bootstrap.CheckoutError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    except fixture.FixtureError as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2

    size = SIZES[args.size]
    bench = WORKLOADS[args.workload](args.seed, size)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, tally, iterations = run_traced(bench, work, args.seconds,
                                                    OUT_DIR / f"spans-{tag}.csv")
        else:
            metrics, tally, iterations = run_untraced(bench, size, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    correct = not tally.problems
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    info = {**provenance(args), "iterations": iterations, "digests": tally.digests,
            "problems": tally.problems}
    result = {"correct": correct, "attempted": max(tally.ops, 1), "failed": tally.failed,
              "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"provenance": info, "result": result}, indent=2) + "\n")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
