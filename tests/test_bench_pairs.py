"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
made-up runs (no benchmark is run)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(rate, rss, digests, ok=True, failed=0):
    metrics = {"mol_per_s": {"value": rate, "unit": "mol/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"ok": ok, "digests": digests, "iterations": len(digests),
            "result": {"correct": ok, "attempted": 10, "failed": failed, "metrics": metrics}}


def test_summary_counts_wins_quartiles_and_digest_prefixes():
    bp = load()
    end_to_end = [{"name": "mol_per_s", "unit": "mol/s", "better": "higher", "bound": 0.25},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    pairs = [
        {"seed": 1, "first": "parent", "parent": fake_run(100.0, 50.0, ["a", "b"], failed=1),
         "change": fake_run(110.0, 40.0, ["a", "b", "c"], failed=2)},
        {"seed": 2, "first": "change", "parent": fake_run(90.0, 50.0, ["a", "b"]),
         "change": fake_run(90.0, 45.0, ["a", "x"])},
        {"seed": 3, "first": "parent", "parent": fake_run(120.0, 52.0, ["a"]),
         "change": fake_run(80.0, 41.0, ["a"], failed=1)},
        {"seed": 4, "first": "change", "parent": fake_run(1.0, 1.0, [], failed=5),
         "change": fake_run(1.0, 1.0, [], ok=False, failed=5)},
    ]
    out = bp.summarize(pairs, end_to_end)
    assert out["seeds"] == [1, 2, 3, 4]
    assert out["failed_runs"] == {"parent": [], "change": [4]}
    # the pair with a failed run is left out of the counts and the shares
    assert out["attempted"] == {"parent": 30, "change": 30}
    assert out["failed"] == {"parent": 1, "change": 3}
    assert out["failed_share"] == {"parent": 1 / 30, "change": 3 / 30}
    assert bp.summarize(pairs[3:], end_to_end)["failed_share"] == {"parent": None,
                                                                   "change": None}
    assert out["digests_agree_on_common_prefix"] == [True, False, True]
    rate, rss = out["metrics"]["mol_per_s"], out["metrics"]["peak_rss_mb"]
    assert rate["pairs"] == 3 and rate["change_wins"] == 1  # the tie counts for neither
    assert rss["change_wins"] == 3
    assert rate["parent"]["runs"] == [100.0, 90.0, 120.0]
    assert (rate["parent"]["q1"], rate["parent"]["median"], rate["parent"]["q3"]) == (
        95.0, 100.0, 110.0)
    assert rss["relative_worsening"] == (41.0 - 50.0) / 50.0
    assert rss["median_gap_over_parent_iqr"] == 9.0 / 1.0
