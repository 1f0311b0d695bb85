"""Spans around molflow's public functions, recorded from outside molflow.

``Tracer.install`` replaces each traced function at the module attribute
its callers look up (``pipeline.train_step`` for the call inside
``train_flow``, ``flow.decode_continuous`` for the one inside
``generate_random``, ``Tensor.backward`` for every ``loss.backward()``) and
``Tracer.uninstall`` puts the originals back. Only the traced run installs
it; the end-to-end runs call molflow untouched.

A span is ``(name, start, end, parent, run_id, counts)``: ``parent`` is the
index of the enclosing span (-1 for none), ``run_id`` names the set-up pass
or workload iteration that made it, and ``counts`` holds work counts taken
at the boundary (latents decoded, edges featurized, records read). Spans
stay in memory until ``write`` dumps them as CSV.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import json
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _score_batch_pre(args, kwargs):
    molecules = _arg(args, kwargs, 0, "molecules")
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    entries = cache.entries if cache is not None else {}
    return sum(mid in entries for mid, _ in molecules)


def _score_batch(_args, _kwargs, out, hits):
    return {"scored": len(out.records), "cache_hits": hits, "failures": len(out.failures)}


def _generate_random(_args, _kwargs, out, _pre):
    _, report = out
    valid = sum(1 for _, ok, _ in report.entries if ok)
    return {"raw_attempts": report.raw_attempts, "valid": valid}


def _generate_similar(_args, _kwargs, out, _pre):
    _, report = out
    return {"accepted": len(report.rows), "failures": report.failures}


def _train_flow(_args, _kwargs, out, _pre):
    return {"probes": len(out.probe_history), "best_probe_validity": out.best_validity}


@dataclass(frozen=True)
class Target:
    """One traced function: its span name, every ``(owner, attribute)``
    where a caller looks it up, and optional work counts for the span.

    An owner is a molflow module name, or ``module:Class`` for a method or
    static method. ``count(args, kwargs, result, pre)`` returns the span's
    counts, where ``pre`` is what ``pre(args, kwargs)`` saw before the call.
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    count: Callable | None = None
    pre: Callable | None = None


def _counting(key: str, of: Callable) -> Callable:
    return lambda args, kwargs, out, _pre: {key: of(args, kwargs, out)}


# decode_continuous(params, za, zb) and decode_batch(params, z): molflow
# passes the latent block positionally.
_latents = _counting("latents", lambda a, k, o: len(a[1]))


TARGETS = (
    Target("autodiff.backward", (("autodiff:Tensor", "backward"),)),
    Target("autodiff.adam_step", (("flow", "adam_step"), ("spherenet", "adam_step"),
                                  ("pipeline", "adam_step"))),
    Target("flow.train_step", (("pipeline", "train_step"),),
           _counting("molecules", lambda a, k, o: len(a[1]))),
    Target("flow.bond_flow_forward", (("flow", "bond_flow_forward"),)),
    Target("flow.atom_flow_forward", (("flow", "atom_flow_forward"),)),
    Target("flow.decode_continuous", (("flow", "decode_continuous"),), _latents),
    Target("flow.bond_flow_inverse", (("flow", "bond_flow_inverse"),)),
    Target("flow.atom_flow_inverse", (("flow", "atom_flow_inverse"),)),
    Target("flow.decode_batch", (("pipeline", "decode_batch"), ("flow", "decode_batch")),
           _latents),
    Target("chem.from_tensors", (("chem", "from_tensors"), ("flow", "from_tensors"))),
    Target("chem.valency_check", (("pipeline", "valency_check"), ("flow", "valency_check"),
                                  ("dataset", "valency_check"))),
    Target("chem.write_smiles", (("pipeline", "write_smiles"), ("docking", "write_smiles"),
                                 ("dataset", "write_smiles"))),
    Target("chem.morgan_fingerprint", (("pipeline", "morgan_fingerprint"),)),
    Target("chem.path_fingerprint", (("chem", "path_fingerprint"),)),
    Target("chem.structural_keys", (("chem", "structural_keys"),)),
    Target("chem.fraggle_similarity", (("pipeline", "fraggle_similarity"),)),
    Target("geom3d.edge_feature_matrix", (("spherenet", "edge_feature_matrix"),),
           _counting("edges", lambda a, k, o: int(_arg(a, k, 0, "g").num_edges))),
    Target("spherenet.geometry_cache", (("spherenet:GeometryCache", "from_geometry"),)),
    Target("spherenet.encode_geometry", (("pipeline", "encode_geometry"),)),
    Target("spherenet.fusion_targets", (("spherenet", "fusion_targets"),)),
    Target("spherenet.train_fusion", (("spherenet", "train_fusion"),)),
    Target("docking.score_batch", (("docking", "score_batch"),), _score_batch, _score_batch_pre),
    Target("docking.compute_weights", (("docking", "compute_weights"),)),
    Target("docking.sample_epoch", (("pipeline", "sample_epoch"),),
           _counting("selected", lambda a, k, o: len(o))),
    Target("dataset.synthetic_corpus", (("dataset", "synthetic_corpus"),),
           _counting("records", lambda a, k, o: len(o.records))),
    Target("dataset.layout_coordinates", (("dataset", "layout_coordinates"),)),
    Target("dataset.write_dataset", (("dataset", "write_dataset"),)),
    Target("dataset.ingest", (("dataset", "ingest"),),
           _counting("records", lambda a, k, o: len(o.records))),
    Target("dataset.tensor_batches", (("pipeline", "tensor_batches"),)),
    Target("pipeline.train_flow", (("pipeline", "train_flow"),), _train_flow),
    Target("pipeline.generate_random", (("pipeline", "generate_random"),), _generate_random),
    Target("pipeline.generate_similar", (("pipeline", "generate_similar"),), _generate_similar),
    Target("pipeline.evaluate_similarity_baseline",
           (("pipeline", "evaluate_similarity_baseline"),)),
    Target("pipeline.similarity_triple", (("pipeline", "similarity_triple"),)),
    Target("pipeline.safe_canonical", (("pipeline", "safe_canonical"),)),
)


class Tracer:
    """Records spans for every target while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._paused = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        name, count, pre = target.name, target.count, target.pre

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, None)
            if count is not None:
                spans[idx] = (name, start, end, parent, self.run_id,
                              count(args, kwargs, out, before))
            return out

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans (output checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            for owner, attr in target.sites:
                module, _, cls = owner.partition(":")
                obj = importlib.import_module(f"molflow.{module}")
                if cls:
                    obj = getattr(obj, cls)
                raw = obj.__dict__[attr] if cls else getattr(obj, attr)
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(target, fn)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._saved.append((obj, attr, raw))
                setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, raw = self._saved.pop()
            setattr(obj, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "run_id", "counts"])
            for i, (name, start, end, parent, run_id, counts) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, run_id,
                              json.dumps(counts, sort_keys=True) if counts else ""])


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans
# ---------------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[tuple]):
    """Per-name call count, inclusive and self time, summed counts, the
    list of inclusive durations, and the time covered by root spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, SpanStats] = {}
    counts: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    root_s = 0.0
    for i, (name, start, end, parent, _, span_counts) in enumerate(spans):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.busy_s += end - start
        st.self_s += end - start - child_time[i]
        durations.setdefault(name, []).append(end - start)
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0.0) + value
        if parent < 0:
            root_s += end - start
    return stats, counts, durations, root_s


def descendant_count(spans: list[tuple], ancestor: str, name: str, key: str) -> float:
    """Sum of ``counts[key]`` over ``name`` spans nested inside an
    ``ancestor`` span."""
    total = 0.0
    for span_name, _, _, parent, _, span_counts in spans:
        if span_name != name or not span_counts:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += span_counts.get(key, 0)
    return total


# Timed functions reported with calls, busy_s (inclusive) and self_s.
FULL_STATS = (
    "autodiff.backward", "autodiff.adam_step",
    "flow.train_step", "flow.bond_flow_forward", "flow.atom_flow_forward",
    "flow.decode_continuous", "flow.bond_flow_inverse", "flow.atom_flow_inverse",
    "flow.decode_batch",
    "chem.from_tensors", "chem.valency_check", "chem.write_smiles",
    "chem.morgan_fingerprint", "chem.path_fingerprint", "chem.structural_keys",
    "chem.fraggle_similarity",
    "geom3d.edge_feature_matrix",
    "spherenet.geometry_cache", "spherenet.encode_geometry", "spherenet.fusion_targets",
    "docking.score_batch", "docking.compute_weights",
    "dataset.synthetic_corpus", "dataset.layout_coordinates", "dataset.ingest",
    "dataset.tensor_batches",
    "pipeline.generate_random", "pipeline.generate_similar", "pipeline.similarity_triple",
    "pipeline.safe_canonical",
)

# (metric, unit, better) beyond the FULL_STATS triples: stats of other
# spans, derived values, and span counts summed over the run.
EXTRA = (
    ("flow.train_step.p50_ms", "ms", "lower"),
    ("flow.train_step.p90_ms", "ms", "lower"),
    ("flow.train_step.samples", "count", "higher"),
    ("flow.decode_continuous.latents", "count", "lower"),
    ("flow.decode_batch.latents", "count", "lower"),
    ("geom3d.edge_feature_matrix.edges", "count", "lower"),
    ("docking.score_batch.scored", "count", "higher"),
    ("docking.score_batch.cache_hits", "count", "higher"),
    ("docking.score_batch.failures", "count", "lower"),
    ("docking.sample_epoch.calls", "count", "lower"),
    ("docking.sample_epoch.selected", "count", "lower"),
    ("dataset.synthetic_corpus.records", "count", "higher"),
    ("dataset.ingest.records", "count", "higher"),
    ("dataset.write_dataset.busy_s", "s", "lower"),
    ("pipeline.generate_random.raw_attempts", "count", "lower"),
    ("pipeline.generate_random.valid_per_attempt", "ratio", "higher"),
    ("pipeline.generate_similar.decoded_per_accepted", "ratio", "lower"),
    ("pipeline.generate_similar.failures", "count", "lower"),
    ("pipeline.train_flow.busy_s", "s", "lower"),
    ("pipeline.train_flow.probes", "count", "lower"),
    ("pipeline.train_flow.best_probe_validity", "ratio", "higher"),
    ("spherenet.train_fusion.busy_s", "s", "lower"),
    ("pipeline.evaluate_similarity_baseline.busy_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.overhead.setup_s", "s", "lower"),
    ("trace.overhead.mol_per_s", "mol/s", "higher"),
    ("trace.overhead.aux_per_s", "1/s", "higher"),
)

PER_LAYER = tuple(
    spec
    for name in FULL_STATS
    for spec in ((f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower"))
) + EXTRA
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(spans: list[tuple], wall_s: float, overhead: dict[str, float]) -> dict:
    """Every PER_LAYER metric as ``{name: {"value", "unit"}}``; layers that
    did not run read 0. ``overhead`` carries the traced-minus-untraced
    end-to-end differences, keyed by end-to-end metric name."""
    stats, counts, durations, root_s = summarize(spans)
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s"):
            values[name] = getattr(stats.get(base, SpanStats()), stat)
    steps_ms = sorted(d * 1e3 for d in durations.get("flow.train_step", []))
    values["flow.train_step.p50_ms"] = percentile(steps_ms, 50)
    values["flow.train_step.p90_ms"] = percentile(steps_ms, 90)
    values["flow.train_step.samples"] = len(steps_ms)
    attempts = counts.get("pipeline.generate_random.raw_attempts", 0)
    values["pipeline.generate_random.valid_per_attempt"] = (
        counts.get("pipeline.generate_random.valid", 0) / attempts if attempts else 0.0)
    accepted = counts.get("pipeline.generate_similar.accepted", 0)
    decoded = descendant_count(spans, "pipeline.generate_similar", "flow.decode_batch", "latents")
    values["pipeline.generate_similar.decoded_per_accepted"] = (
        decoded / accepted if accepted else 0.0)
    flows = stats.get("pipeline.train_flow", SpanStats()).calls
    values["pipeline.train_flow.best_probe_validity"] = (
        counts.get("pipeline.train_flow.best_probe_validity", 0) / flows if flows else 0.0)
    values["trace.wall_s"] = wall_s
    values["trace.other_s"] = wall_s - root_s
    for name, diff in overhead.items():
        values[f"trace.overhead.{name}"] = diff
    for name, _, _ in PER_LAYER:   # the rest are span counts summed
        values.setdefault(name, counts.get(name, 0))
    return {name: {"value": values[name], "unit": UNITS[name]} for name, _, _ in PER_LAYER}
