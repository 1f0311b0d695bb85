import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from molflow.autodiff import SeededRng
from molflow.chem import Molecule, valency_check
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
from molflow.spherenet import SphereNetConfig, init_spherenet

from oracles import reference_layout_coordinates


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


def test_ingest_reads_each_file_once(tmp_path, monkeypatch):
    smi = tmp_path / "a.smi"
    smi.write_text("CCO\n")
    xyz = tmp_path / "b.xyz"
    xyz.write_text("2\n\nC 0 0 0\nO 1.4 0 0\nCO\n")
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text",
                        lambda self, *a, **k: reads.append(self.name) or read_text(self, *a, **k))
    ds = ingest([smi, xyz])
    assert [r.smiles for r in ds.records] == ["CCO", "CO"] and ds.records[1].has_geometry
    assert reads == ["a.smi", "b.xyz"]


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


LAYOUT_EDGE_CASES = [
    Molecule.build(("C",), []),                                       # no pair at all
    Molecule.build(("C", "O"), [(0, 1, 2)]),                          # no non-bonded pair
    Molecule.build(("C",) * 6, [(k, (k + 1) % 6, 1) for k in range(6)]),  # ring closure
    Molecule.build(("C", "C", "N"), [(0, 1, 1), (1, 2, 3)]),          # triple bond
    Molecule.build(("C", "C", "O", "N"), [(0, 1, 1), (2, 3, 1)]),     # two fragments
]


def test_layout_matches_add_at_reference_byte_for_byte():
    rng = SeededRng(2020)
    mols = LAYOUT_EDGE_CASES + [random_molecule(rng) for _ in range(200)]
    for k, m in enumerate(mols):
        got = layout_coordinates(m, SeededRng(31).spawn(f"xyz{k}"))
        want = reference_layout_coordinates(m, SeededRng(31).spawn(f"xyz{k}"))
        assert got.tobytes() == want.tobytes(), (k, m)


def test_desk_corpus_coordinates_pinned(corpus):
    """Every coordinate bit of the desk corpus, as laid out before the
    single-pass layout step (the np.add.at kernel in tests/oracles.py)."""
    digest = hashlib.sha256()
    for r in corpus.records:
        digest.update(r.coords.tobytes())
    assert digest.hexdigest() == "27bbc52f7aa8fea46f1ec7cc821846d7536530975496630b667790ea4fcd0cd5"


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


def test_config_from_an_older_run_drops_its_two_unread_fields():
    # checkpoints and summaries of older versions echo two fields that
    # nothing read; they load, and any other unknown key is still refused
    old = {**RunConfig(seed=3).to_dict(), "dataset_paths": ["a.smi"],
           "use_docking_weights": True}
    assert RunConfig.from_dict(old) == RunConfig(seed=3)
    with pytest.raises(ValueError, match="no_such_key"):
        RunConfig.from_dict({**old, "no_such_key": 2})


BAD_MODEL_FIELDS = [
    (FlowConfig, "n_max", 0), (FlowConfig, "n_atom_types", 1), (FlowConfig, "n_bond_types", 1),
    (FlowConfig, "atom_layers", 0), (FlowConfig, "bond_layers", 0),
    (FlowConfig, "atom_hidden", 0), (FlowConfig, "bond_hidden", -4),
    (FlowConfig, "noise_scale", 0.0), (FlowConfig, "noise_scale", 0.51),
    (FlowConfig, "temperature", -0.1),
    (SphereNetConfig, "hidden", 0), (SphereNetConfig, "n_blocks", 0),
    (SphereNetConfig, "n_radial", 0), (SphereNetConfig, "max_degree", -1),
    (SphereNetConfig, "cutoff", 0.0), (SphereNetConfig, "cutoff", float("inf")),
    (SphereNetConfig, "cutoff", float("nan")), (SphereNetConfig, "out_dim", 0),
]


@pytest.mark.parametrize("cls, name, value", BAD_MODEL_FIELDS)
def test_model_configs_refuse_a_field_out_of_range(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**{name: value})
    # the edge of each range is accepted
    edges = {"n_atom_types": 2, "n_bond_types": 2, "noise_scale": 0.5, "temperature": 0.0,
             "max_degree": 0}
    cls(**{name: edges.get(name, 1)})


def test_checkpoint_with_an_out_of_range_encoder_header_exits_2(tmp_path, capsys):
    config = RunConfig(seed=5)
    flow_cfg = FlowConfig(atom_hidden=8, bond_hidden=8, atom_layers=2, bond_layers=2)
    sphere = init_spherenet(SphereNetConfig(hidden=8, out_dim=flow_cfg.d_total), SeededRng(15))
    path = tmp_path / "model.npz"
    save_checkpoint(path, config, init_flow(flow_cfg, SeededRng(14)), sphere)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    meta["sphere"]["hidden"] = 0
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="hidden must be positive"):
        load_checkpoint(path)
    assert cli(["generate", "--checkpoint", str(path), "--count", "5",
                "--out", str(tmp_path / "gen")]) == 2
    err = capsys.readouterr().err
    assert "hidden must be positive" in err and "Traceback" not in err


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


def test_cli_dock_summary_alpha_bounds_match_weights_csv(tmp_path, capsys):
    # alpha_min and alpha_max in dock_summary.json are the extremes of the
    # alpha column that weights.csv writes
    data = tmp_path / "d.smi"
    data.write_text("C\nCCO\nC1CC1\nNCCO\n")
    assert cli(["dock-weights", "--config", write_config(tmp_path), "--data", str(data),
                "--out", str(tmp_path / "dock")]) == 0
    with (tmp_path / "dock" / "weights.csv").open() as fh:
        alphas = [float(row["alpha"]) for row in csv.DictReader(fh)]
    summary = json.loads((tmp_path / "dock" / "dock_summary.json").read_text())
    assert len(alphas) == summary["scored"] == 4
    assert (summary["alpha_min"], summary["alpha_max"]) == (min(alphas), max(alphas))
    assert summary["alpha_min"] < summary["alpha_max"]


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


@pytest.mark.parametrize("clip_norm", [-5, 0])
def test_cli_train_flow_rejects_non_positive_clip_norm(tmp_path, capsys, clip_norm):
    # a negative clip norm negated every gradient, so training ran uphill
    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\nCCN\n")
    code = cli(["train-flow", "--config", write_config(tmp_path, clip_norm=clip_norm),
                "--data", str(data), "--out", str(tmp_path / "flow.npz")])
    assert code == 2
    err = capsys.readouterr().err
    assert "clip_norm must be positive" in err and "Traceback" not in err
    assert not (tmp_path / "flow.npz").exists()


@pytest.mark.parametrize("cutoff", [-1, 0, float("inf"), float("nan"), "5"])
def test_cli_prepare_data_rejects_a_cutoff_no_geometry_can_use(tmp_path, capsys, cutoff):
    # the bad value used to be echoed into prepare_summary.json with exit 0
    code = cli(["prepare-data", "--synthetic", "5", "--config",
                write_config(tmp_path, cutoff=cutoff), "--out", str(tmp_path / "data")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cutoff" in err and "Traceback" not in err
    assert not (tmp_path / "data" / "prepare_summary.json").exists()


BAD_CONFIGS = [
    ({"batch_size": "100"}, "batch_size"),
    ({"flow_layers": 0}, "flow_layers"),
    ({"flow_hidden": 0}, "flow_hidden"),
    ({"epochs": True}, "epochs"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"noise_fraction": 1.5}, "noise_fraction"),
    ({"weight_floor": 0.5}, "weight_floor"),
    ({"sampler_mode": "uniform"}, "sampler_mode"),
    ({"scorer_command": ["score", 1]}, "scorer_command"),
    ([1, 2], "JSON object"),
]


@pytest.mark.parametrize("command", ["prepare-data", "train-flow"])
@pytest.mark.parametrize("payload, named", BAD_CONFIGS)
def test_cli_refuses_a_config_value_of_wrong_type_or_range(tmp_path, capsys, command,
                                                           payload, named):
    # these used to escape as tracebacks, fail deep inside training, or run
    cfg = tmp_path / "config.json"
    if isinstance(payload, dict):
        write_config(tmp_path, **payload)
    else:
        cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    if command == "prepare-data":
        argv = ["prepare-data", "--synthetic", "5", "--config", str(cfg), "--out", str(out)]
    else:
        data = tmp_path / "d.smi"
        data.write_text("CCO\nCC\nCCN\n")
        argv = ["train-flow", "--config", str(cfg), "--data", str(data), "--out", str(out)]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A small dataset with geometry, a flow and a fused checkpoint, and the
    malformed files the CLI must refuse."""
    from molflow.spherenet import SphereNetConfig, init_spherenet

    root = tmp_path_factory.mktemp("bad_inputs")
    config = RunConfig(seed=11, epochs=1, fusion_epochs=1, probe_count=4, ascent_steps=2,
                       flow_layers=2, flow_hidden=8)
    (root / "config.json").write_text(json.dumps(config.to_dict()))
    assert cli(["prepare-data", "--config", str(root / "config.json"), "--synthetic", "60",
                "--out", str(root / "data")]) == 0
    flow = init_flow(config.flow_config(), SeededRng(3), zero_last=False)
    save_checkpoint(root / "flow.npz", config, flow)
    save_checkpoint(root / "fused.npz", config, flow,
                    init_spherenet(SphereNetConfig(hidden=8, out_dim=flow.config.d_total),
                                   SeededRng(4)))
    (root / "truncated.npz").write_bytes((root / "fused.npz").read_bytes()[:3000])
    np.save(root / "array.npy", np.ones(3))
    (root / "a_dir").mkdir()
    (root / "a_file").write_text("not a directory\n")
    (root / "no_smiles.csv").write_text("index,valid\n0,1\n")
    (root / "no_valid.csv").write_text("index,smiles\n0,CCO\n")
    (root / "no_columns.csv").write_text("index\n0\n")
    (root / "no_weight.csv").write_text("smiles,energy\nCCO,-1.0\n")
    np.savez(root / "foreign.npz", weights=np.ones(3))
    (root / "empty.smi").write_text("")
    for name, text in [("list.json", "[1, 2]"), ("malformed.json", '{"seed": 1,'),
                       ("wrong_type.json", '{"epochs": "ten"}'),
                       ("out_of_range.json", '{"batch_size": 0}'),
                       ("null.json", '{"temperature": null}')]:
        (root / name).write_text(text)
    (root / "report").mkdir()
    (root / "report" / "gen_report.csv").write_text("index,smiles\n0,CCO\n")
    # reports with one bad cell on line 2
    (root / "valid_yes.csv").write_text("index,valid,smiles\n0,yes,CCO\n")
    (root / "open_ring.csv").write_text("index,valid,smiles\n0,1,C1CC\n")
    (root / "weight_abc.csv").write_text("smiles,energy,alpha,weight\nCCO,-1.0,1.0,abc\n")
    for name, report, text in [
            ("report_yes", "gen_report.csv", "index,valid,smiles\n0,yes,CCO\n"),
            ("report_ring", "gen_report.csv", "index,valid,smiles\n0,1,C1CC\n"),
            ("report_score", "similar_report.csv",
             "index,smiles,tanimoto,fraggle,maccs\n0,CCO,abc,0.5,0.5\n")]:
        (root / name).mkdir()
        (root / name / report).write_text(text)
    return root


# (argv with {root} for the fixture directory, exit code, text stderr names)
BAD_INVOCATIONS = [
    ("generate --checkpoint {root}/truncated.npz --out {out}/o", 2, "truncated.npz"),
    ("generate --checkpoint {root}/array.npy --out {out}/o", 2, "array.npy"),
    ("generate --checkpoint {root}/a_dir --out {out}/o", 2, "a_dir"),
    ("prepare-data --config {root}/a_dir --synthetic 5 --out {out}/o", 2, "a_dir"),
    ("train-flow --config {root}/config.json --data {root}/data/dataset.xyz --out {root}/a_dir",
     2, "a_dir"),
    ("train-fusion --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz "
     "--out {root}/a_dir", 2, "a_dir"),
    ("evaluate --data {root}/data/dataset.xyz --generated {root}/no_smiles.csv --out {out}/o",
     2, "smiles"),
    ("evaluate --data {root}/data/dataset.xyz --generated {root}/no_valid.csv --out {out}/o",
     2, "valid"),
    ("evaluate --data {root}/data/dataset.xyz --generated {root}/no_columns.csv --out {out}/o",
     2, "no_columns.csv:1: missing column(s) smiles, valid"),
    ("train-flow --config {root}/config.json --data {root}/data/dataset.xyz "
     "--weights {root}/no_weight.csv --out {out}/o.npz",
     2, "no_weight.csv:1: missing column(s) alpha, weight"),
    ("generate --checkpoint {root}/foreign.npz --out {out}/o",
     2, "foreign.npz is not a readable molflow checkpoint"),
    ("prepare-data --input {root}/empty.smi --out {out}/o",
     2, "empty.smi:0: dataset is empty after ingestion"),
    ("prepare-data --config {root}/list.json --synthetic 5 --out {out}/o",
     2, "a config must be a JSON object, got list"),
    ("prepare-data --config {root}/malformed.json --synthetic 5 --out {out}/o",
     2, "malformed.json: Expecting property name enclosed in double quotes"),
    ("prepare-data --config {root}/wrong_type.json --synthetic 5 --out {out}/o",
     2, "epochs must be of type int, got 'ten'"),
    ("prepare-data --config {root}/out_of_range.json --synthetic 5 --out {out}/o",
     2, "batch_size must be positive, got 0"),
    ("prepare-data --config {root}/null.json --synthetic 5 --out {out}/o",
     2, "temperature must be of type float, got None"),
    ("export-plotdata --report {root}/report --out {out}/o", 2, "valid"),
    ("evaluate --data {root}/data/dataset.xyz --generated {root}/valid_yes.csv --out {out}/o",
     2, "valid_yes.csv:2: invalid literal for int() with base 10: 'yes'"),
    ("evaluate --data {root}/data/dataset.xyz --generated {root}/open_ring.csv --out {out}/o",
     2, "open_ring.csv:2: unclosed ring 1"),
    ("export-plotdata --report {root}/report_yes --out {out}/o", 2, "gen_report.csv:2: invalid"),
    ("export-plotdata --report {root}/report_ring --out {out}/o",
     2, "gen_report.csv:2: unclosed ring 1"),
    ("export-plotdata --report {root}/report_score --out {out}/o",
     2, "similar_report.csv:2: could not convert string to float: 'abc'"),
    ("train-flow --config {root}/config.json --data {root}/data/dataset.xyz "
     "--weights {root}/weight_abc.csv --out {out}/o.npz", 2, "weight_abc.csv:2: could not"),
    ("train-flow --config {root}/config.json --data {root}/a_dir --out {out}/o.npz", 2, "a_dir"),
    ("train-flow --config {root}/config.json --data {root}/data/dataset.xyz "
     "--weights {root}/a_dir --out {out}/o.npz", 2, "a_dir"),
    ("evaluate --data {root}/data/dataset.xyz --generated {root}/a_dir --out {out}/o",
     2, "a_dir"),
    ("generate --checkpoint {root}/flow.npz --count 2 --out {root}/a_file", 2, "a_file"),
    ("prepare-data --synthetic 5 --out {root}/a_file", 2, "a_file"),
    ("generate --checkpoint {root}/flow.npz --count 2 --out {root}/a_file/o", 2, "a_file"),
    ("generate-similar --checkpoint {root}/fused.npz --data {root}/data/dataset.xyz "
     "--count 2 --out {root}/a_file", 2, "a_file"),
    ("dock-weights --data {root}/data/dataset.xyz --out {root}/a_file", 2, "a_file"),
    ("evaluate --data {root}/data/dataset.xyz --out {root}/a_file", 2, "a_file"),
    ("optimize-property --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz "
     "--property plogp --seeds 1 --out {root}/a_file", 2, "a_file"),
    ("optimize-fragment --checkpoint {root}/flow.npz --host CCO --fragment-atoms 2 "
     "--out {root}/a_file", 2, "a_file"),
    ("export-plotdata --report {root}/report --out {root}/a_file", 2, "a_file"),
    ("generate --checkpoint {root}/flow.npz --count -3 --out {out}/o", 1, "--count"),
    ("generate-similar --checkpoint {root}/fused.npz --data {root}/data/dataset.xyz "
     "--count 0 --out {out}/o", 1, "--count"),
    ("train-fusion --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz --subset 0 "
     "--out {out}/o.npz", 1, "--subset"),
    ("train-fusion --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz --subset -1 "
     "--out {out}/o.npz", 1, "--subset"),
    ("optimize-property --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz "
     "--property plogp --seeds 0 --out {out}/o", 1, "--seeds"),
    ("optimize-fragment --checkpoint {root}/flow.npz --host CCO --fragment-atoms a "
     "--out {out}/o", 1, "--fragment-atoms"),
    ("optimize-fragment --checkpoint {root}/flow.npz --host CCO --fragment-atoms 0,99 "
     "--out {out}/o", 1, "--fragment-atoms: index 99 is out of range for a host of 3 atoms"),
    ("optimize-fragment --checkpoint {root}/flow.npz --host CCCO --fragment-atoms 0,3 "
     "--out {out}/o", 1, "--fragment-atoms: fragment atoms must form a connected subgraph"),
    ("optimize-fragment --checkpoint {root}/flow.npz --host CCO --fragment-atoms 0,1,2 "
     "--out {out}/o", 1, "--fragment-atoms: fragment must be a proper non-empty atom subset"),
    ("optimize-fragment --checkpoint {root}/flow.npz --host CC( --fragment-atoms 0 "
     "--out {out}/o", 2, "--host 'CC(': unclosed branch (position 2)"),
    ("generate --checkpoint {root}/flow.npz --count 2 --temperature nan --out {out}/o",
     2, "temperature must be finite"),
    ("generate --checkpoint {root}/flow.npz --count 2 --temperature -1 --out {out}/o",
     2, "temperature must be non-negative"),
    ("generate-similar --checkpoint {root}/fused.npz --data {root}/data/dataset.xyz "
     "--count 2 --noise-fraction 1.5 --out {out}/o", 2, "noise_fraction must be in [0, 1]"),
    ("prepare-data --out {out}/o", 1, "one of the arguments --input --synthetic is required"),
    ("prepare-data --synthetic 3 --input {root}/missing.smi --out {out}/o",
     1, "argument --input: not allowed with argument --synthetic"),
    ("prepare-data --synthetic 0 --out {out}/o", 1, "--synthetic"),
    ("generate-similar --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz "
     "--count 2 --out {out}/o", 1, "checkpoint has no geometry encoder"),
]


@pytest.mark.parametrize("argv, code, named", BAD_INVOCATIONS)
def test_cli_refuses_bad_paths_columns_and_counts(bad_inputs, tmp_path, capsys, argv, code,
                                                  named):
    # each of these used to end in a traceback or run on with exit 0; each
    # row writes under its own tmp_path, so a row that writes fails alone
    capsys.readouterr()
    assert cli(argv.format(root=bad_inputs, out=tmp_path).split()) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    # nothing trained before a bad --out was refused, and nothing was written
    assert "epoch=" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "o.npz").exists()


# every command whose --out is a directory, with an existing file as --out
FILE_OUT_INVOCATIONS = [argv for argv, _, _ in BAD_INVOCATIONS if "--out {root}/a_file" in argv]


@pytest.mark.parametrize("argv", FILE_OUT_INVOCATIONS)
def test_cli_refuses_a_file_out_before_any_work(bad_inputs, monkeypatch, capsys, argv):
    # --out is refused before any loader or generator runs
    import molflow.cli as cli_module

    def work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("load_checkpoint", "_load_dataset", "synthetic_corpus", "_read_csv",
                 "generate_random", "generate_similar"):
        monkeypatch.setattr(cli_module, name, work)
    capsys.readouterr()
    assert cli(argv.format(root=bad_inputs).split()) == 2
    assert f"File exists: '{bad_inputs / 'a_file'}'" in capsys.readouterr().err
    assert (bad_inputs / "a_file").read_text() == "not a directory\n"


# a working invocation of each subcommand, in pipeline order: {root} is the
# bad_inputs directory and {out} the directory for this run's outputs
WORKING_INVOCATIONS = [
    "prepare-data --config {root}/config.json --input {root}/data/dataset.xyz --out {out}/data",
    "dock-weights --config {root}/config.json --data {root}/data/dataset.xyz --out {out}/dock",
    "train-flow --config {root}/config.json --data {root}/data/dataset.xyz --out {out}/flow.npz",
    "train-fusion --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz --subset 2 "
    "--out {out}/fused.npz",
    "generate --checkpoint {root}/flow.npz --count 2 --no-check --data {root}/data/dataset.xyz "
    "--out {out}/gen",
    "generate-similar --checkpoint {root}/fused.npz --data {root}/data/dataset.xyz --count 2 "
    "--out {out}/similar",
    "evaluate --config {root}/config.json --data {root}/data/dataset.xyz --out {out}/eval",
    "optimize-property --checkpoint {root}/flow.npz --data {root}/data/dataset.xyz "
    "--property plogp --seeds 1 --out {out}/prop",
    "optimize-fragment --checkpoint {root}/flow.npz --host CCO --fragment-atoms 2 "
    "--out {out}/frag",
    "export-plotdata --report {out}/gen --out {out}/plot",
]

PATH_FLAGS = ("--config", "--checkpoint", "--data", "--input", "--weights", "--generated",
              "--report")


def _subparsers() -> dict:
    """The subparsers of the CLI's parser, by command name."""
    import argparse

    from molflow.cli import build_parser

    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


SUBPARSERS = _subparsers()

# every path flag of every subcommand, on that command's working invocation
MISSING_INPUTS = [(argv, flag) for argv in WORKING_INVOCATIONS for flag in PATH_FLAGS
                  if flag in SUBPARSERS[argv.split()[0]]._option_string_actions]


def test_every_subcommand_is_swept_and_has_its_out_checked():
    commands = set(SUBPARSERS)
    assert {argv.split()[0] for argv in WORKING_INVOCATIONS} == commands
    assert {flag for _, flag in MISSING_INPUTS} == set(PATH_FLAGS)
    checkpoint_outs = [argv for argv, _, _ in BAD_INVOCATIONS if "--out {root}/a_dir" in argv]
    assert {argv.split()[0] for argv in FILE_OUT_INVOCATIONS + checkpoint_outs} == commands


def test_cli_each_command_closes_with_its_event_and_elapsed_time(bad_inputs, tmp_path, capsys):
    for argv in WORKING_INVOCATIONS:
        capsys.readouterr()
        assert cli(argv.format(root=bad_inputs, out=tmp_path).split()) == 0, argv
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"event={argv.split()[0]} "), last
        pairs = dict(pair.split("=", 1) for pair in last.split())
        assert float(pairs["elapsed_s"]) >= 0
        assert len(pairs["elapsed_s"].split(".")[1]) == 3


@pytest.mark.parametrize("argv, flag", MISSING_INPUTS)
def test_cli_names_a_missing_input_path(bad_inputs, tmp_path, capsys, argv, flag):
    missing = str(tmp_path / "missing" / flag.lstrip("-"))
    words = argv.format(root=bad_inputs, out=tmp_path / "out").split()
    if flag in words:
        words[words.index(flag) + 1] = missing
    else:
        words += [flag, missing]
    capsys.readouterr()
    assert cli(words) == 2
    err = capsys.readouterr().err
    assert missing in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    "train-fusion --checkpoint {root}/flow.npz --data {smi} --out {out}/fused.npz",
    "generate-similar --checkpoint {root}/fused.npz --data {smi} --count 2 --out {out}/sim",
])
def test_cli_geometry_commands_refuse_data_without_coordinates(bad_inputs, tmp_path, capsys,
                                                               argv):
    smi = tmp_path / "flat.smi"
    smi.write_text("CCO\nCCN\n")
    capsys.readouterr()
    assert cli(argv.format(root=bad_inputs, smi=smi, out=tmp_path / "out").split()) == 2
    assert f"{smi}:0: no record carries geometry" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_prepare_data_input_without_geometry_writes_smiles_only(bad_inputs, tmp_path):
    # with --input, --no-geometry used to be ignored: every coordinate was kept
    xyz = bad_inputs / "data" / "dataset.xyz"
    out = tmp_path / "flat"
    assert cli(["prepare-data", "--config", str(bad_inputs / "config.json"), "--input", str(xyz),
                "--no-geometry", "--out", str(out)]) == 0
    summary = json.loads((out / "prepare_summary.json").read_text())
    want = [r.smiles for r in ingest([xyz]).records]
    assert summary["with_geometry"] == 0 and summary["records"] == len(want) > 0
    assert summary["files"] == ["dataset.smi"]
    assert sorted(p.name for p in out.iterdir()) == ["dataset.smi", "prepare_summary.json"]
    assert (out / "dataset.smi").read_text().split() == want


@pytest.mark.parametrize("generated, named", [
    ("missing.csv", "No such file"), ("no_smiles.csv", "smiles"), ("no_valid.csv", "valid")])
def test_cli_evaluate_checks_generated_before_the_baseline(bad_inputs, tmp_path, monkeypatch,
                                                            capsys, generated, named):
    # a bad --generated used to be found only after the similarity baseline
    import molflow.cli as cli_module

    def baseline(*args, **kwargs):
        raise AssertionError("the baseline ran before --generated was read")

    monkeypatch.setattr(cli_module, "evaluate_similarity_baseline", baseline)
    path = bad_inputs / generated
    capsys.readouterr()
    assert cli(["evaluate", "--data", str(bad_inputs / "data" / "dataset.xyz"), "--generated",
                str(path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def test_cli_optimize_fragment_without_a_fitting_mix_exits_0(bad_inputs, tmp_path, monkeypatch,
                                                            capsys):
    # finding no replacement is a result, as a generate run short of its
    # count is, not bad input; it used to exit 2 with no "data error" line
    import molflow.cli as cli_module
    from molflow.pipeline import MAX_MIXES, SubstructureResult

    monkeypatch.setattr(cli_module, "optimize_substructure",
                        lambda *a, **k: SubstructureResult(None, MAX_MIXES))
    capsys.readouterr()
    assert cli(["optimize-fragment", "--checkpoint", str(bad_inputs / "flow.npz"), "--host",
                "CCO", "--fragment-atoms", "2", "--out", str(tmp_path / "frag")]) == 0
    assert "ok=False" in capsys.readouterr().err
    summary = json.loads((tmp_path / "frag" / "fragment_summary.json").read_text())
    assert summary["replaced"] is False and summary["result"] is None
    assert summary["candidates_tried"] == MAX_MIXES


def test_load_checkpoint_names_the_path_of_a_pickled_or_metadata_less_file(tmp_path):
    pickled = tmp_path / "pickled.npz"
    np.savez(pickled, __meta__=np.array([{"format_version": 2}], dtype=object))
    bare = tmp_path / "bare.npz"
    np.savez(bare, a=np.ones(3))
    for path in (pickled, bare):
        with pytest.raises(ValueError, match=path.name):
            load_checkpoint(path)
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "missing.npz")


def test_cli_dock_weights_names_the_scorer_failure_reason(tmp_path, capsys):
    # every molecule fails with not_found; the final error used to say
    # "unparseable" whatever the per-molecule reasons were
    cfg = write_config(tmp_path, scorer_command=[str(tmp_path / "no_such_scorer")])
    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\n")
    assert cli(["dock-weights", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "dock")]) == 3
    err = capsys.readouterr().err
    assert err.count("reason=not_found") == 2
    assert "scorer not_found: no molecule could be scored" in err


def test_cli_dock_weights_reports_a_scorer_that_is_not_executable(tmp_path, capsys):
    # a scorer file without the execute bit used to end in a PermissionError
    # traceback (exit 1)
    scorer = tmp_path / "scorer.py"
    scorer.write_text("#!/usr/bin/env python3\nprint('SCORE -1.0')\n")
    scorer.chmod(0o644)
    cfg = write_config(tmp_path, scorer_command=[str(scorer)])
    data = tmp_path / "d.smi"
    data.write_text("CCO\nCC\n")
    assert cli(["dock-weights", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "dock")]) == 3
    err = capsys.readouterr().err
    assert err.count("reason=not_found") == 2 and "Traceback" not in err
    assert "scorer not_found: no molecule could be scored" in err


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
    assert seen[0].tolist() == [0.01, 0.1, 1.0]


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


@pytest.mark.parametrize("cutoff", [-1, 0])
def test_cli_train_fusion_refuses_non_positive_cutoff(tmp_path, capsys, cutoff):
    # a non-positive cutoff leaves every geometry without edges; the encoder
    # would train blind, so the run must stop with a data error instead
    save_checkpoint(tmp_path / "flow.npz", RunConfig(seed=11),
                    init_flow(FlowConfig(atom_layers=2, bond_layers=2, atom_hidden=16,
                                         bond_hidden=16), SeededRng(3)))
    assert cli(["prepare-data", "--config", write_config(tmp_path), "--synthetic", "20",
                "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    assert cli(["train-fusion", "--checkpoint", str(tmp_path / "flow.npz"),
                "--config", write_config(tmp_path, cutoff=cutoff),
                "--data", str(tmp_path / "data" / "dataset.xyz"),
                "--subset", "4", "--out", str(tmp_path / "fused.npz")]) == 2
    err = capsys.readouterr().err
    assert "cutoff must be finite and positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "fused.npz").exists()


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
