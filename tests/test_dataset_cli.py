import json
from pathlib import Path

import numpy as np
import pytest

from molflow.autodiff import SeededRng
from molflow.chem import valency_check
from molflow.checkpoint import load_checkpoint, save_checkpoint
from molflow.cli import main as cli
from molflow.config import RunConfig
from molflow.dataset import (
    DataError,
    ingest,
    layout_coordinates,
    random_molecule,
    synthetic_corpus,
    write_dataset,
)
from molflow.flow import FlowConfig, init_flow, sample_prior, decode_batch
from molflow.pipeline import generate_random


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_smiles_list_with_comments_and_oversize(tmp_path):
    path = tmp_path / "in.smi"
    path.write_text(
        "# header comment\n"
        "CCO\n"
        "C1CC1  # inline comment\n"
        "CC(=O)N\n"
        "CCCCCCCCCC\n"   # ten heavy atoms: skipped
        "c1ccccc1\n"     # aromatic: outside the grammar, skipped
        "\n"
    )
    ds = ingest([path])
    assert [r.smiles for r in ds.records] == ["CCO", "C1CC1", "CC(N)=O"]
    assert ds.skipped["oversized"] == 1
    assert ds.skipped["unparseable_smiles"] == 1


def test_xyz_methane_with_hydrogens(tmp_path):
    path = tmp_path / "methane.xyz"
    path.write_text(
        "5\n"
        "qm9-style frame\n"
        "C 0.0 0.0 0.0 -0.5\n"
        "H 0.6 0.6 0.6 0.1\n"
        "H -0.6 -0.6 0.6 0.1\n"
        "H 0.6 -0.6 -0.6 0.1\n"
        "H -0.6 0.6 -0.6 0.1\n"
        "C\n"
    )
    ds = ingest([path])
    assert len(ds.records) == 1
    rec = ds.records[0]
    assert rec.smiles == "C"
    assert rec.elements == ("C",)
    assert rec.coords.shape == (1, 3)


def test_xyz_fortran_floats_accepted(tmp_path):
    path = tmp_path / "f.xyz"
    path.write_text("1\ncomment\nC 1.0*^-2 0.0 0.0\nC\n")
    ds = ingest([path])
    assert ds.records[0].coords[0, 0] == pytest.approx(0.01)


def test_xyz_skip_rules(tmp_path):
    path = tmp_path / "mixed.xyz"
    path.write_text(
        # element multiset mismatch with the SMILES
        "2\nc1\nC 0 0 0\nC 1.4 0 0\nCO\n"
        # no trailing SMILES line at all (ends the file)
        "2\nc2\nC 0 0 0\nO 1.2 0 0\n"
    )
    ds = ingest([path])
    assert len(ds.records) == 0
    assert ds.skipped["geometry_mismatch"] == 1
    assert ds.skipped["missing_smiles"] == 1


def test_xyz_unsupported_element_skipped(tmp_path):
    path = tmp_path / "s.xyz"
    path.write_text("2\nc\nS 0 0 0\nC 1.8 0 0\nCS\n")
    ds = ingest([path])
    assert len(ds.records) == 0
    assert ds.skipped["unsupported_element"] == 1


def test_malformed_xyz_reports_line_numbers(tmp_path):
    truncated = tmp_path / "t.xyz"
    truncated.write_text("4\ncomment\nC 0 0 0\n")
    with pytest.raises(DataError) as err:
        ingest([truncated])
    assert err.value.line_no == 1

    bad_coords = tmp_path / "b.xyz"
    bad_coords.write_text("1\ncomment\nC x y z\nC\n")
    with pytest.raises(DataError) as err:
        ingest([bad_coords])
    assert err.value.line_no == 3


def test_dump_round_trip(tmp_path):
    ds = synthetic_corpus(40, SeededRng(7), with_geometry=True)
    smi, xyz = write_dataset(ds, tmp_path)
    back = ingest([p for p in (smi, xyz) if p])
    assert [r.smiles for r in back.records] == [r.smiles for r in ds.records]
    for a, b in zip(ds.records, back.records):
        assert np.array_equal(np.asarray(a.coords, dtype=float), b.coords)


def test_dump_round_trip_keeps_triple_bonds(tmp_path):
    src = tmp_path / "in.smi"
    src.write_text("# nitriles and alkynes\nC#N\nCC#CC  # but-2-yne\nCCO\n")
    ds = ingest([src])
    assert [r.smiles for r in ds.records] == ["C#N", "CC#CC", "CCO"]
    assert not ds.skipped
    smi, xyz = write_dataset(ds, tmp_path / "dump")
    assert xyz is None
    back = ingest([smi])
    assert [r.smiles for r in back.records] == ["C#N", "CC#CC", "CCO"]


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def test_random_molecules_are_valid(rng):
    for _ in range(200):
        assert valency_check(random_molecule(rng))


def test_synthetic_corpus_unique_and_deterministic():
    a = synthetic_corpus(50, SeededRng(9), with_geometry=False)
    b = synthetic_corpus(50, SeededRng(9), with_geometry=False)
    assert [r.smiles for r in a.records] == [r.smiles for r in b.records]
    assert len({r.smiles for r in a.records}) == 50


def test_layout_deterministic_and_bonded_atoms_close(rng):
    m = random_molecule(rng)
    c1 = layout_coordinates(m, SeededRng(11))
    c2 = layout_coordinates(m, SeededRng(11))
    assert np.array_equal(c1, c2)
    for i, j, _ in m.bonds:
        assert 0.8 < np.linalg.norm(c1[i] - c1[j]) < 2.5


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    from molflow.spherenet import SphereNetConfig, init_spherenet

    config = RunConfig(seed=5, epochs=2)
    narrow = FlowConfig(atom_hidden=32, bond_hidden=32)
    cases = [
        (config, config.flow_config(), config.sphere_config()),
        # the shapes come from the parameters, not from the config echo:
        # these widths differ from RunConfig's defaults
        (RunConfig(), narrow, SphereNetConfig(hidden=128, out_dim=narrow.d_total)),
    ]
    for i, (run_cfg, flow_cfg, sphere_cfg) in enumerate(cases):
        flow = init_flow(flow_cfg, SeededRng(12), zero_last=False)
        sphere = init_spherenet(sphere_cfg, SeededRng(13))
        path = tmp_path / f"ck{i}.npz"
        save_checkpoint(path, run_cfg, flow, sphere)
        config2, flow2, sphere2 = load_checkpoint(path)
        assert config2 == run_cfg
        assert flow2.config == flow.config
        assert sphere2.config == sphere.config
        for (n1, a1), (n2, a2) in zip(flow.named_params(), flow2.named_params()):
            assert n1 == n2 and np.array_equal(a1, a2)
        for (n1, a1), (n2, a2) in zip(sphere.named_params(), sphere2.named_params()):
            assert n1 == n2 and np.array_equal(a1, a2)
    # the file lands on the exact path given: no .npz appended, no temp left
    bare = tmp_path / "runs" / "flow"
    save_checkpoint(bare, config, flow)
    assert [p.name for p in bare.parent.iterdir()] == ["flow"]
    _, flow3, _ = load_checkpoint(bare)
    for (n1, a1), (n2, a2) in zip(flow.named_params(), flow3.named_params()):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_checkpoint_generation_identity(tmp_path):
    config = RunConfig(seed=5)
    flow = init_flow(config.flow_config(), SeededRng(14), zero_last=False)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, config, flow)
    _, flow2, _ = load_checkpoint(path)
    _, report1 = generate_random(flow, 30, check=False, temperature=0.3, rng=SeededRng(15))
    _, report2 = generate_random(flow2, 30, check=False, temperature=0.3, rng=SeededRng(15))
    assert [e[2] for e in report1.entries] == [e[2] for e in report2.entries]


def test_checkpoint_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.ones(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    # a checkpoint with one parameter array cut out
    config = RunConfig(seed=5)
    save_checkpoint(path, config, init_flow(config.flow_config(), SeededRng(14)))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "flow.atom.0.w1"}
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="lacks array flow.atom.0.w1"):
        load_checkpoint(path)


def test_checkpoint_rejects_old_format(tmp_path, capsys):
    # format 1 kept only the config echo, which need not match the arrays
    config = RunConfig(seed=5)
    flow = init_flow(config.flow_config(), SeededRng(14))
    meta = {"format_version": 1, "config": config.to_dict(), "has_spherenet": False}
    arrays = dict(flow.named_params())
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        load_checkpoint(path)
    assert cli(["generate", "--checkpoint", str(path), "--count", "5",
                "--out", str(tmp_path / "gen")]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_round_trip_and_overrides(tmp_path):
    config = RunConfig(seed=3, epochs=7)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config.to_dict()))
    again = RunConfig.from_file(path)
    assert again == config
    assert again.with_overrides({"epochs": 9}).epochs == 9
    with pytest.raises(ValueError):
        again.with_overrides({"bogus": 1})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"no_such_key": 2})


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


def write_config(tmp_path, **kv):
    path = tmp_path / "config.json"
    payload = {"seed": 11, "epochs": 3, "probe_every": 2, "probe_count": 50,
               "fusion_epochs": 2, **kv}
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_unknown_subcommand_is_usage_error(capsys):
    assert cli(["frobnicate"]) == 1


def test_cli_missing_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = cli(["train-flow", "--config", cfg, "--data", str(tmp_path / "nope.smi"),
                "--out", str(tmp_path / "x.npz")])
    assert code == 2


def test_cli_scorer_failure_is_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, scorer_command=["/nonexistent/scorer"])
    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\n")
    code = cli(["dock-weights", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "dock")])
    assert code == 3


def test_cli_pipeline_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli(["prepare-data", "--config", cfg, "--synthetic", "40",
                "--out", str(tmp_path / "data")]) == 0
    data = str(tmp_path / "data" / "dataset.xyz")

    assert cli(["dock-weights", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "dock")]) == 0
    weights = (tmp_path / "dock" / "weights.csv").read_text()
    assert weights.splitlines()[0] == "smiles,energy,alpha,weight"

    # docking weights follow the min-max rule on the synthetic oracle
    import csv as _csv

    with (tmp_path / "dock" / "weights.csv").open() as fh:
        rows = list(_csv.DictReader(fh))
    alphas = np.array([float(r["alpha"]) for r in rows])
    ws = np.array([float(r["weight"]) for r in rows])
    expected = np.maximum((alphas - alphas.min()) / (alphas.max() - alphas.min()), 0.01)
    assert np.allclose(ws, expected)

    assert cli(["train-flow", "--config", cfg, "--data", data,
                "--weights", str(tmp_path / "dock" / "weights.csv"),
                "--out", str(tmp_path / "flow.npz")]) == 0
    assert cli(["train-fusion", "--checkpoint", str(tmp_path / "flow.npz"),
                "--data", data, "--subset", "8",
                "--out", str(tmp_path / "fused.npz")]) == 0

    for out in ("gen1", "gen2"):
        assert cli(["generate", "--checkpoint", str(tmp_path / "fused.npz"),
                    "--count", "25", "--no-check", "--data", data,
                    "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "gen1" / "gen_report.csv").read_bytes()
            == (tmp_path / "gen2" / "gen_report.csv").read_bytes())
    assert ((tmp_path / "gen1" / "gen_summary.json").read_bytes()
            == (tmp_path / "gen2" / "gen_summary.json").read_bytes())

    assert cli(["evaluate", "--config", cfg, "--data", data,
                "--generated", str(tmp_path / "gen1" / "gen_report.csv"),
                "--out", str(tmp_path / "eval")]) == 0
    payload = json.loads((tmp_path / "eval" / "eval_summary.json").read_text())
    assert "baseline" in payload and "generated" in payload

    assert cli(["export-plotdata", "--report", str(tmp_path / "gen1"),
                "--out", str(tmp_path / "plot")]) == 0
    for name in ("fingerprints.csv", "properties.csv", "similarity_hist.csv"):
        assert (tmp_path / "plot" / name).exists()


def test_cli_train_flow_rejects_probe_every_zero(tmp_path, capsys):
    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\nCCN\n")
    code = cli(["train-flow", "--config", write_config(tmp_path, probe_every=0),
                "--data", str(data), "--out", str(tmp_path / "flow.npz")])
    assert code == 2
    err = capsys.readouterr().err
    assert "probe_every" in err and "Traceback" not in err


def test_cli_train_flow_rejects_noise_scale_above_half(tmp_path, capsys):
    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\nCCN\n")
    code = cli(["train-flow", "--config", write_config(tmp_path, noise_scale=0.7),
                "--data", str(data), "--out", str(tmp_path / "flow.npz")])
    assert code == 2
    err = capsys.readouterr().err
    assert "noise_scale" in err and "Traceback" not in err
    assert not (tmp_path / "flow.npz").exists()


def test_cli_train_flow_uses_weights_file_unchanged(tmp_path, monkeypatch):
    import molflow.cli as cli_module
    from molflow.pipeline import FlowTrainResult

    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\nCCN\n")
    smiles = [r.smiles for r in ingest([data]).records]
    # min-max weights of these energies, as dock-weights writes them
    rows = [(smiles[0], 0.0, 0.01), (smiles[1], -1.0, 0.1), (smiles[2], -10.0, 1.0)]
    weights = tmp_path / "weights.csv"
    weights.write_text("smiles,energy,alpha,weight\n" + "".join(
        f"{s},{e!r},{-e!r},{w!r}\n" for s, e, w in rows))
    seen = []

    def fake_train_flow(params, records, **kwargs):
        seen.append(kwargs["weight_table"])
        return FlowTrainResult([], [], -1, -1.0)

    monkeypatch.setattr(cli_module, "train_flow", fake_train_flow)
    assert cli(["train-flow", "--config", write_config(tmp_path), "--data", str(data),
                "--weights", str(weights), "--out", str(tmp_path / "flow.npz")]) == 0
    assert seen[0].weights.tolist() == [0.01, 0.1, 1.0]


def test_cli_train_fusion_config_differs_from_checkpoint(tmp_path, capsys):
    # a --config whose flow architecture differs from the flow checkpoint
    # still yields a fused checkpoint that loads back to the flow's shapes
    flow_cfg = FlowConfig(atom_layers=2, bond_layers=2, atom_hidden=16, bond_hidden=16)
    save_checkpoint(tmp_path / "flow.npz", RunConfig(seed=11), init_flow(flow_cfg, SeededRng(3)))
    cfg = write_config(tmp_path, flow_hidden=32, flow_layers=3, n_max=8)
    assert cli(["prepare-data", "--config", cfg, "--synthetic", "20",
                "--out", str(tmp_path / "data")]) == 0
    assert cli(["train-fusion", "--checkpoint", str(tmp_path / "flow.npz"),
                "--config", cfg, "--data", str(tmp_path / "data" / "dataset.xyz"),
                "--subset", "4", "--out", str(tmp_path / "fused.npz")]) == 0
    config2, flow2, sphere2 = load_checkpoint(tmp_path / "fused.npz")
    assert config2.flow_hidden == 32
    assert flow2.config == flow_cfg
    assert sphere2.config.out_dim == flow_cfg.d_total


def test_cli_generate_with_check_reports_full_validity(tmp_path, capsys, desk):
    # uses the session desk model through a saved checkpoint
    config = RunConfig(seed=21)
    path = tmp_path / "desk.npz"
    save_checkpoint(path, config, desk["flow"], desk["sphere"])
    assert cli(["generate", "--checkpoint", str(path), "--count", "100", "--check",
                "--out", str(tmp_path / "gen")]) == 0
    payload = json.loads((tmp_path / "gen" / "gen_summary.json").read_text())
    assert payload["returned"] == 100
    assert payload["validity_pct"] == 100.0

    assert cli(["generate-similar", "--checkpoint", str(path),
                "--data", _dump_corpus(tmp_path, desk),
                "--count", "5", "--out", str(tmp_path / "sim")]) == 0
    sim = json.loads((tmp_path / "sim" / "similar_summary.json").read_text())
    assert sim["generated"] == 5


def _dump_corpus(tmp_path, desk):
    from molflow.dataset import Dataset, write_dataset
    import collections

    ds = Dataset(desk["fusion_set"], collections.Counter())
    _, xyz = write_dataset(ds, tmp_path / "corpusdir")
    return str(xyz)


def test_cli_plotdata_empty_report_headers_only(tmp_path):
    report = tmp_path / "report"
    report.mkdir()
    (report / "gen_report.csv").write_text("index,valid,smiles\n")
    assert cli(["export-plotdata", "--report", str(report),
                "--out", str(tmp_path / "plot")]) == 0
    assert (tmp_path / "plot" / "fingerprints.csv").read_text() == "smiles,morgan_hex\n"
    lines = (tmp_path / "plot" / "properties.csv").read_text().splitlines()
    assert len(lines) == 1


def test_cli_property_csv_recomputes_from_smiles(tmp_path):
    report = tmp_path / "report"
    report.mkdir()
    (report / "gen_report.csv").write_text(
        "index,valid,smiles\n0,1,CCO\n1,1,C1CC1\n2,0,\n")
    assert cli(["export-plotdata", "--report", str(report),
                "--out", str(tmp_path / "plot")]) == 0
    import csv as _csv

    from molflow.chem import molecular_weight, parse_smiles
    from molflow.pipeline import compute_plogp

    with (tmp_path / "plot" / "properties.csv").open() as fh:
        rows = list(_csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        m = parse_smiles(row["smiles"])
        assert float(row["mol_weight"]) == pytest.approx(molecular_weight(m))
        assert float(row["plogp"]) == pytest.approx(compute_plogp(m))
