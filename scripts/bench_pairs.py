#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

Runs ``perfbench/run.py --trace 0`` from two checkouts of the repository,
one pair per seed (S, S+1, ...), the parent first at the first seed and the
order swapped at each pair after it. Every run lasts the ``run_seconds`` of
the change's ``BENCHMARK.json``. Prints one JSON object that can be pasted
into a ``BENCH_<n>.json``: for each end-to-end metric and side the runs,
their median and quartiles, the pairs the change won (ties count for
neither side), each side's share of failed operations (failed / attempted,
over the pairs where both runs finished), and for each pair whether the two
runs' digests agree on their common prefix of iterations.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N
Exits 1 when a run fails or reports ``"correct": false``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from the checkout at `root`: its result
    and provenance lines, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    prov = [json.loads(line[len("provenance "):]) for line in lines
            if line.startswith("provenance ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not prov:
        return {"ok": False, "exit": proc.returncode, "stderr": proc.stderr[-2000:],
                "result": result}
    return {"ok": bool(result["correct"]), "exit": proc.returncode,
            "digests": prov[0]["digests"], "iterations": prov[0]["iterations"],
            "result": result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def digests_agree(a: list[str], b: list[str]) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric and side: the runs, median, quartiles and the change's
    wins. Each pair is {"seed", "first", "parent", "change"}, each side a
    ``run_once`` result; failed runs are left out of the statistics."""
    good = [p for p in pairs if all(p[side]["ok"] for side in SIDES)]
    metrics = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {side: [p[side]["result"]["metrics"][name]["value"] for p in good]
                for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                 "pairs": len(good), "change_wins": wins}
        if good:
            stats = {side: quartiles(runs[side]) for side in SIDES}
            parent_med, change_med = stats["parent"]["median"], stats["change"]["median"]
            gap = parent_med - change_med if lower else change_med - parent_med
            entry["relative_worsening"] = -gap / parent_med if parent_med else None
            entry["median_gap_over_parent_iqr"] = (gap / stats["parent"]["iqr"]
                                                  if stats["parent"]["iqr"] else None)
            for side in SIDES:
                entry[side] = {"runs": runs[side], **stats[side]}
        metrics[name] = entry
    attempted = {side: sum(p[side]["result"]["attempted"] for p in good) for side in SIDES}
    failed = {side: sum(p[side]["result"]["failed"] for p in good) for side in SIDES}
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "attempted": attempted,
        "failed": failed,
        "failed_share": {side: failed[side] / attempted[side] if attempted[side] else None
                         for side in SIDES},
        "failed_runs": {side: [p["seed"] for p in pairs if not p[side]["ok"]] for side in SIDES},
        "iterations": {side: [p[side]["iterations"] for p in good] for side in SIDES},
        "digests_agree_on_common_prefix": [digests_agree(p["parent"]["digests"],
                                                         p["change"]["digests"]) for p in good],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, bench["run_seconds"])
            status = "ok" if pair[side]["ok"] else "FAILED"
            print(f"bench_pairs: {args.workload} seed {seed} {side} {status}", file=sys.stderr)
        pairs.append(pair)
    summary = summarize(pairs, bench["end_to_end"])
    out = {"workload": args.workload,
           "command": (f"python3 perfbench/run.py --workload {args.workload} --seed S "
                       f"--seconds {bench['run_seconds']} --trace 0, from each checkout; "
                       "pairs alternate which side runs first"),
           "quartiles": "statistics.quantiles(n=4, method='inclusive') over each side's runs",
           **summary}
    print(json.dumps(out, indent=1))
    return 0 if all(p[side]["ok"] for p in pairs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
