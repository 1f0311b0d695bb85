import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molflow.autodiff import SeededRng
from molflow.chem import parse_smiles
from molflow.dataset import DataError
from molflow.docking import (
    BatchScoreResult,
    DockingRecord,
    ScoreCache,
    ScorerConfig,
    ScorerError,
    compute_weights,
    external_score,
    sample_epoch,
    score_batch,
    synthetic_score,
)

STUB = [sys.executable, str(Path(__file__).resolve().parents[1] / "scripts" / "stub_scorer.py")]


def records(alphas):
    return [DockingRecord(f"m{i}", -a) for i, a in enumerate(alphas)]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weights_min_max_with_floor():
    weights = compute_weights(records([2.0, 4.0, 6.0]), floor=0.01)
    assert weights.dtype == np.float64
    assert np.allclose(weights, [0.01, 0.5, 1.0])


def test_weights_all_equal_alpha():
    weights = compute_weights(records([3.0, 3.0, 3.0]))
    assert np.array_equal(weights, [1.0, 1.0, 1.0])


def test_weight_of_max_alpha_is_one():
    weights = compute_weights(records([1.0, 9.0]))
    assert weights[1] == 1.0


def test_weights_require_unique_ids():
    with pytest.raises(ValueError):
        compute_weights([DockingRecord("x", -1.0), DockingRecord("x", -2.0)])


def test_weights_floor_domain():
    with pytest.raises(ValueError):
        compute_weights(records([1.0, 2.0]), floor=0.2)
    with pytest.raises(ValueError):
        compute_weights([])


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-50, max_value=50),
       st.lists(st.floats(min_value=-10, max_value=-0.1), min_size=2, max_size=8))
def test_weights_invariant_to_energy_shift(shift, energies):
    base = compute_weights([DockingRecord(f"m{i}", e) for i, e in enumerate(energies)])
    shifted = compute_weights([DockingRecord(f"m{i}", e + shift) for i, e in enumerate(energies)])
    assert np.allclose(base, shifted, atol=1e-9)


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sampler_full_weights_select_everything():
    weights = compute_weights(records([5.0, 5.0, 5.0]))
    rng = SeededRng(80)
    for _ in range(20):
        assert sample_epoch(weights, rng) == [0, 1, 2]


def test_sampler_inclusion_frequency_within_binomial_bounds():
    # the w=1 companion keeps every epoch non-empty, so no fallback noise
    weights = np.array([0.5, 1.0])
    rng = SeededRng(81)
    n = 10_000
    hits = sum(0 in sample_epoch(weights, rng) for _ in range(n))
    sigma = (n * 0.5 * 0.5) ** 0.5
    assert abs(hits - n * 0.5) <= 3 * sigma


def test_sampler_floor_molecule_still_appears():
    weights = compute_weights(records([2.0, 4.0, 6.0]), floor=0.01)
    rng = SeededRng(82)
    assert any(0 in sample_epoch(weights, rng) for _ in range(2000))


def test_sampler_empty_epoch_falls_back_to_everything():
    rng = SeededRng(83)
    assert sample_epoch(np.array([1e-12, 1e-12]), rng) == [0, 1]


def test_sampler_categorical_mode():
    weights = compute_weights(records([2.0, 4.0, 6.0]))
    rng = SeededRng(84)
    draws = sample_epoch(weights, rng, mode="categorical")
    assert len(draws) == 3 and all(0 <= d < 3 for d in draws)
    counts = np.zeros(3)
    for _ in range(3000):
        for d in sample_epoch(weights, rng, mode="categorical"):
            counts[d] += 1
    assert counts[2] > counts[1] > counts[0]
    with pytest.raises(ValueError):
        sample_epoch(weights, rng, mode="bogus")


class QueuedUniform:
    """A stand-in for SeededRng's generator whose uniform draws are given."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sampler_categorical_matches_choice_index_loop(seed):
    # random weights with zeros, drawn as one block: index for index the
    # choice_index loop's draws, and the same stream state afterwards
    gen = SeededRng(seed)
    n = int(gen.integers(1, 60))
    weights = gen.uniform(0.0, 2.0, n) * (gen.uniform(0.0, 1.0, n) < 0.7)
    weights[int(gen.integers(0, n))] = gen.uniform(0.1, 1.0)
    ours, loop = SeededRng(seed + 1), SeededRng(seed + 1)
    got = sample_epoch(weights, ours, mode="categorical")
    assert got == [loop.choice_index(weights) for _ in range(n)]
    assert all(type(i) is int for i in got)
    assert ours.uniform(0.0, 1.0, 4).tolist() == loop.uniform(0.0, 1.0, 4).tolist()
    # draws at 0 and at the total, where rounding can leave the running sum
    # short of it, and draws that land on a zero weight's repeated sum
    cumulative = np.cumsum(weights) / weights.sum()
    draws = ([0.0, 1.0, float(np.nextafter(1.0, 0.0))] + cumulative.tolist()
             + gen.uniform(0.0, 1.0, n).tolist())[:n]
    fixed, loop = SeededRng(0), SeededRng(0)
    fixed._gen, loop._gen = QueuedUniform(draws), QueuedUniform(draws)
    assert sample_epoch(weights, fixed, mode="categorical") == [
        loop.choice_index(weights) for _ in range(n)]


def test_sampler_categorical_refuses_zero_weights():
    with pytest.raises(ValueError, match="positive sum"):
        sample_epoch(np.zeros(2), SeededRng(85), mode="categorical")


def test_epoch_stream_yields_epochs():
    # successive epochs drawn from one stream, as train_flow draws them; an
    # epoch whose draws all miss falls back to every molecule, never to none
    weights = np.full(3, 1e-3)
    rng = SeededRng(85)
    epochs = [sample_epoch(weights, rng) for _ in range(5)]
    assert all(epoch and set(epoch) <= {0, 1, 2} for epoch in epochs)


# ---------------------------------------------------------------------------
# synthetic oracle
# ---------------------------------------------------------------------------


def test_synthetic_score_methane():
    assert synthetic_score(parse_smiles("C")) == pytest.approx(-0.3)


def test_synthetic_score_cyclopropane():
    assert synthetic_score(parse_smiles("C1CC1")) == pytest.approx(-1.7)


def test_synthetic_score_counts_hbond_sites():
    # ethanolamine-like: N (donor+acceptor), O (donor+acceptor) -> 4 sites
    m = parse_smiles("NCCO")
    assert synthetic_score(m) == pytest.approx(-(0.3 * 4 + 0.5 * 4))


def test_synthetic_score_deterministic():
    m = parse_smiles("CC(=O)N")
    assert synthetic_score(m) == synthetic_score(m)


# ---------------------------------------------------------------------------
# external scorer protocol
# ---------------------------------------------------------------------------


def test_external_score_echo():
    cfg = ScorerConfig(STUB + ["--energy", "-7.25"], timeout=30.0, retries=0)
    assert external_score(parse_smiles("CC"), cfg) == -7.25


def test_external_score_matches_synthetic_oracle_exactly():
    cfg = ScorerConfig(STUB + ["--synthetic"], timeout=60.0, retries=0)
    for smi in ("C", "C1CC1", "CC(=O)N", "OCC(F)C"):
        m = parse_smiles(smi)
        assert external_score(m, cfg) == synthetic_score(m)


def test_external_score_garbage_output():
    cfg = ScorerConfig(STUB + ["--garbage"], timeout=30.0, retries=0)
    with pytest.raises(ScorerError) as err:
        external_score(parse_smiles("C"), cfg)
    assert err.value.reason == "unparseable"


def test_external_score_nonzero_exit():
    cfg = ScorerConfig(STUB + ["--fail"], timeout=30.0, retries=0)
    with pytest.raises(ScorerError) as err:
        external_score(parse_smiles("C"), cfg)
    assert err.value.reason == "nonzero_exit"


def test_external_score_retries_nonzero_exit(tmp_path):
    runs = tmp_path / "runs.txt"
    script = f"open({str(runs)!r}, 'a').write('x'); raise SystemExit(1)"
    cfg = ScorerConfig([sys.executable, "-c", script], timeout=30.0, retries=2)
    with pytest.raises(ScorerError) as err:
        external_score(parse_smiles("C"), cfg)
    assert err.value.reason == "nonzero_exit"
    assert runs.read_text() == "x" * (cfg.retries + 1)


def test_external_score_not_found():
    cfg = ScorerConfig(["/nonexistent/scorer"], timeout=5.0, retries=0)
    with pytest.raises(ScorerError) as err:
        external_score(parse_smiles("C"), cfg)
    assert err.value.reason == "not_found"


def test_external_score_timeout():
    cfg = ScorerConfig(STUB + ["--hang", "5", "--energy", "-1.0"], timeout=0.5, retries=0)
    with pytest.raises(ScorerError) as err:
        external_score(parse_smiles("C"), cfg)
    assert err.value.reason == "timeout"


# ---------------------------------------------------------------------------
# cache and batch scoring
# ---------------------------------------------------------------------------


def test_score_batch_synthetic_and_cache_resume(tmp_path):
    cache = ScoreCache.load(tmp_path / "cache.csv")
    mols = [(s, parse_smiles(s)) for s in ("C", "CC", "C1CC1")]
    result = score_batch(mols, None, cache)
    assert not result.failures
    assert [r.energy for r in result.records] == [synthetic_score(m) for _, m in mols]
    # reload: everything served from the persisted cache
    cache2 = ScoreCache.load(tmp_path / "cache.csv")
    assert cache2.entries == cache.entries
    again = score_batch(mols, None, cache2)
    assert [r.energy for r in again.records] == [r.energy for r in result.records]


def test_interrupted_batch_keeps_finished_scores(tmp_path, monkeypatch):
    import molflow.docking as docking

    calls = []

    def interrupted_on_third(m):
        calls.append(m)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return synthetic_score(m)

    monkeypatch.setattr(docking, "synthetic_score", interrupted_on_third)
    mols = [(s, parse_smiles(s)) for s in ("C", "CC", "C1CC1", "CCO")]
    with pytest.raises(KeyboardInterrupt):
        score_batch(mols, None, ScoreCache.load(tmp_path / "cache.csv"))
    reloaded = ScoreCache.load(tmp_path / "cache.csv")
    assert reloaded.entries == {s: synthetic_score(m) for s, m in mols[:2]}


def test_failing_scorer_never_corrupts_cache(tmp_path):
    cache = ScoreCache.load(tmp_path / "cache.csv")
    cache.add("C", "C", -0.3)
    bad = ScorerConfig(STUB + ["--fail"], timeout=10.0, retries=0, parallelism=1)
    mols = [("C", parse_smiles("C")), ("CC", parse_smiles("CC"))]
    result = score_batch(mols, bad, cache)
    assert result.failures == {"CC": "nonzero_exit"}
    assert [r.molecule_id for r in result.records] == ["C"]  # cached survives
    reloaded = ScoreCache.load(tmp_path / "cache.csv")
    assert reloaded.entries == {"C": -0.3}


def test_score_cache_survives_torn_last_row(tmp_path):
    path = tmp_path / "cache.csv"
    cache = ScoreCache.load(path)
    mols = [(s, parse_smiles(s)) for s in ("C", "CC", "C1CC1")]
    energies = [r.energy for r in score_batch(mols, None, cache).records]
    whole = path.read_bytes()
    # a crash while appending the third row leaves part of it behind
    row_start = whole.index(b"C1CC1,")
    path.write_bytes(whole[: row_start + 8])
    reloaded = ScoreCache.load(path)
    assert reloaded.entries == {"C": energies[0], "CC": energies[1]}
    assert path.read_bytes() == whole[:row_start]
    again = score_batch(mols, None, reloaded)
    assert [r.energy for r in again.records] == energies
    assert path.read_bytes() == whole
    assert ScoreCache.load(path).entries == cache.entries


def test_score_cache_torn_header_and_malformed_rows(tmp_path):
    path = tmp_path / "cache.csv"
    path.write_bytes(b"id,smi")
    cache = ScoreCache.load(path)
    assert cache.entries == {} and path.read_bytes() == b""
    cache.add("C", "C", -0.5)
    assert ScoreCache.load(path).entries == {"C": -0.5}
    assert path.read_text().splitlines()[0] == "id,smiles,energy"

    path.write_text("id,smiles,energy\nC,C\nCC,CC,-1.0\n")
    with pytest.raises(DataError) as err:
        ScoreCache.load(path)
    assert err.value.line_no == 2
    path.write_text("id,smiles,energy\nC,C,oops\nCC,CC,-1.0\n")
    with pytest.raises(DataError):
        ScoreCache.load(path)
