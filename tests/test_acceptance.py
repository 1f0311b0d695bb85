"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings. Every tolerance here is fixed by the project contract;
nothing is calibrated at runtime.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (LinearHead, coupling_node, fusion_node, gradient_check, is_isomorphic,
                     local_spherical, params_node, random_rigid_motion, reshape,
                     traced_value_and_grad, tsum)
from molflow.autodiff import SeededRng
from molflow.chem import (
    Molecule,
    SmilesError,
    morgan_fingerprint,
    parse_smiles,
    structural_keys,
    tanimoto,
    valency_check,
    write_smiles,
)
from molflow.cli import main as cli
from molflow.dataset import synthetic_corpus
from molflow.docking import DockingRecord, compute_weights, sample_epoch
from molflow.flow import (
    FlowConfig,
    atom_condition,
    atom_coupling,
    bond_coupling,
    decode_continuous,
    discretize_bonds,
    encode_continuous,
    init_flow,
    mlp_init,
)
from molflow.geom3d import build_geometry, edge_feature_matrix
from molflow.pipeline import (
    PropertyHead,
    fraggle_similarity,
    generate_random,
    generate_similar,
    maccs_similarity,
    optimize_property,
    similarity_triple,
    uniqueness_pct,
    novelty_pct,
)
from molflow.spherenet import GeometryCache, encode_batch, encode_geometry, init_spherenet


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({time.time() - start:.1f}s)")


def test_01_flow_invertibility(desk):
    with criterion(1, "flow invertibility"):
        rng = SeededRng(201)
        models = {
            "untrained-zero": desk["untrained"],
            "untrained-random": init_flow(desk["config"], SeededRng(202), zero_last=False),
            "desk-trained": desk["flow"],
        }
        for name, params in models.items():
            xa = rng.uniform(0, 1, (1000, 9, 5))
            xb = rng.uniform(0, 1, (1000, 9, 9, 4))
            za, zb, _, _ = encode_continuous(params, xa, xb)
            xa2, xb2 = decode_continuous(params, za, zb)
            err = max(np.abs(xa2 - xa).max(), np.abs(xb2 - xb).max())
            assert err < 1e-9, f"{name}: round-trip error {err}"


def test_02_logdet_correctness():
    with criterion(2, "log-det vs numerical Jacobian"):
        cfg = FlowConfig(n_max=2, n_atom_types=2, n_bond_types=2,
                         atom_layers=3, bond_layers=3, atom_hidden=8, bond_hidden=8)
        rng = SeededRng(203)
        for stack in range(50):
            params = init_flow(cfg, rng.spawn(f"stack{stack}"), zero_last=False)

            def fwd(v):
                xa = v[: cfg.d_atom].reshape(1, cfg.n_max, cfg.n_atom_types)
                xb = v[cfg.d_atom:].reshape(1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
                za, zb, _, _ = encode_continuous(params, xa, xb)
                return np.concatenate([np.asarray(za).reshape(-1), np.asarray(zb).reshape(-1)])

            v0 = rng.uniform(0.05, 0.95, cfg.d_total)
            xa = v0[: cfg.d_atom].reshape(1, cfg.n_max, cfg.n_atom_types)
            xb = v0[cfg.d_atom:].reshape(1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
            _, _, ld_a, ld_b = encode_continuous(params, xa, xb)
            accumulated = float(ld_a[0] + ld_b[0])
            _, numeric = np.linalg.slogdet(oracles.numerical_jacobian(fwd, v0))
            assert abs(accumulated - numeric) / max(1.0, abs(accumulated)) < 1e-5


def test_03_gradient_fidelity():
    with criterion(3, "gradient fidelity on every trainable layer type"):
        rng = SeededRng(204)
        cfg = FlowConfig(n_max=2, n_atom_types=2, n_bond_types=2,
                         atom_layers=2, bond_layers=2, atom_hidden=6, bond_hidden=6)
        params = init_flow(cfg, rng.spawn("flow"), zero_last=False)
        cond = atom_condition(discretize_bonds(rng.uniform(0, 1, (1, 2, 2, 2))), 2)

        def check(fn, shape, points=10, tol=1e-5):
            for _ in range(points):
                assert gradient_check(fn, rng.uniform(0.05, 0.95, shape)) < tol

        # atom coupling layer (scale, translation, and logdet path)
        def atom_fn(x):
            z, logdet = coupling_node(atom_coupling, reshape(x, (1, 2, 2)), params.atom[0], 0,
                                      cond)
            return tsum(z * z) + tsum(logdet)

        check(atom_fn, (2, 2))

        # bond coupling layer
        def bond_fn(x):
            z, logdet = coupling_node(bond_coupling, reshape(x, (1, 2, 2, 2)), params.bond[1], 1)
            return tsum(z * z) + tsum(logdet)

        check(bond_fn, (2, 2, 2))

        # atom coupling parameters
        mlp = params.atom[0]

        def atom_w1_fn(w):
            saved = mlp.w1
            mlp.w1 = w
            try:
                z, logdet = coupling_node(atom_coupling, rng_point, mlp, 0, cond)
                return tsum(z * z) + tsum(logdet)
            finally:
                mlp.w1 = saved

        rng_point = rng.uniform(0.05, 0.95, (1, 2, 2))
        check(atom_w1_fn, mlp.w1.shape, points=10)

        # geometry encoder blocks: embedding, input, g_e, g_v, g_u, output
        from molflow.spherenet import SphereNetConfig

        sp_cfg = SphereNetConfig(hidden=6, n_blocks=1, n_radial=4, max_degree=1, out_dim=5)
        sphere = init_spherenet(sp_cfg, rng.spawn("sphere"))
        geom = build_geometry(("C", "O", "N"),
                              [[0.0, 0, 0], [1.2, 0, 0], [0.4, 1.1, 0.3]])
        cache = GeometryCache.from_geometry(geom, sp_cfg)
        # a batch of three adds an edge-free molecule and a two-atom one
        batch3 = [cache] + [GeometryCache.from_geometry(build_geometry(els, xyz), sp_cfg)
                            for els, xyz in ((("N",), [[0.0, 0, 0]]),
                                             (("C", "C"), [[0.0, 0, 0], [1.5, 0.2, 0]]))]
        leaves = {
            "embedding": lambda: sphere.embedding,
            "input.w1": lambda: sphere.input_mlp.w1,
            "ge.w1": lambda: sphere.blocks[0].g_e.w1,
            "gv.w2": lambda: sphere.blocks[0].g_v.w2,
            "gu.w1": lambda: sphere.blocks[0].g_u.w1,
            "output.w2": lambda: sphere.output_mlp.w2,
        }
        setters = {
            "embedding": lambda v: setattr(sphere, "embedding", v),
            "input.w1": lambda v: setattr(sphere.input_mlp, "w1", v),
            "ge.w1": lambda v: setattr(sphere.blocks[0].g_e, "w1", v),
            "gv.w2": lambda v: setattr(sphere.blocks[0].g_v, "w2", v),
            "gu.w1": lambda v: setattr(sphere.blocks[0].g_u, "w1", v),
            "output.w2": lambda v: setattr(sphere.output_mlp, "w2", v),
        }
        for batch in ([cache], batch3):
            for name in leaves:
                shape = leaves[name]().shape

                def sphere_fn(w, _name=name, _batch=batch):
                    saved = leaves[_name]()
                    setters[_name](w)
                    try:
                        out = params_node(encode_batch, sphere, _batch)
                        return tsum(out * out)
                    finally:
                        setters[_name](saved)

                check(sphere_fn, shape, points=10)

        # property head
        head = PropertyHead(mlp_init(rng.spawn("head"), 5, 6, 1, zero_last=False))
        check(traced_value_and_grad(head.value_and_grad), (5,))

        # fusion loss
        target = rng.normal((5,))
        check(lambda u: fusion_node(target, u), (5,))


def test_04_rigid_motion_invariance(desk, corpus):
    with criterion(4, "rigid-motion invariance of triples, bases, and u*"):
        rng = SeededRng(205)
        sphere = desk["sphere"]
        hidden = desk["sphere_config"].hidden
        records = [r for r in corpus.records if r.has_geometry and r.molecule.num_atoms >= 2][:20]
        assert len(records) == 20
        for rec in records:
            coords = np.asarray(rec.coords, dtype=float)
            g0 = build_geometry(rec.elements, coords)
            triples0 = [local_spherical(g0, e) for e in range(g0.num_edges)]
            _, feats0 = edge_feature_matrix(g0)
            u0 = encode_geometry(g0, sphere)
            for _ in range(100):
                q, t = random_rigid_motion(rng)
                g1 = build_geometry(rec.elements, coords @ q.T + t)
                for e in range(g0.num_edges):
                    t1 = local_spherical(g1, e)
                    t0 = triples0[e]
                    assert abs(t1.r - t0.r) < 1e-6
                    assert abs(t1.theta - t0.theta) < 1e-6
                    assert abs(t1.phi - t0.phi) < 1e-6
                _, feats1 = edge_feature_matrix(g1)
                assert np.abs(feats1 - feats0).max() < 1e-6
                assert np.abs(encode_geometry(g1, sphere) - u0).max() < 1e-6


def test_05_validity_guarantee(desk):
    with criterion(5, "100% validity with the valency check on (10k samples)"):
        for name, params in (("desk-trained", desk["flow"]), ("untrained", desk["untrained"])):
            mols, report = generate_random(
                params, 10_000, check=True, temperature=0.12,
                rng=SeededRng(206), max_attempts_per=100, batch_size=4096,
            )
            assert all(valency_check(m) for m in mols), name
            if report.returned:
                assert report.validity_pct == 100.0
            # the untrained model may exhaust its resample cap; everything
            # returned must still be valid
            assert report.returned == 10_000 or report.cap_exhausted


def test_06_desk_training_signal(desk):
    with criterion(6, "desk-scale training signal (NLL descent + validity gain)"):
        nll = desk["train_result"].epoch_nll
        assert len(nll) >= 30
        smoothed = oracles.moving_average(nll[:30], 5)
        assert all(b < a for a, b in zip(smoothed, smoothed[1:])), smoothed
        _, trained_report = generate_random(desk["flow"], 1000, check=False,
                                            temperature=0.12, rng=SeededRng(207))
        _, base_report = generate_random(desk["untrained"], 1000, check=False,
                                         temperature=0.12, rng=SeededRng(207))
        trained_v = trained_report.validity_wo_check_pct
        base_v = base_report.validity_wo_check_pct
        assert trained_v >= 2.0 * base_v
        assert trained_v > base_v
        print(f"    validity w/o check: trained {trained_v:.2f}% vs untrained {base_v:.2f}%")


def test_07_3d_conditioning_direction(desk):
    with criterion(7, "3D conditioning raises similarity (bootstrap CI > 0)"):
        rng = SeededRng(208)
        fusion_set = desk["fusion_set"]
        pick = rng.spawn("seeds")
        seeds = [fusion_set[int(i)] for i in pick.integers(0, len(fusion_set), 500)]
        _, cond = generate_similar(desk["flow"], desk["sphere"], seeds, 0.2,
                                   rng.spawn("cond"))
        assert cond.failures == 0
        cond_tani = np.array([row[2] for row in cond.rows])
        cond_frag = np.array([row[3] for row in cond.rows])

        umols, ureport = generate_random(desk["flow"], 500, check=True,
                                         temperature=0.12, rng=rng.spawn("uncond"))
        assert ureport.returned == 500
        un_scores = similarity_triple([(mol, rec.molecule) for mol, rec in zip(umols, seeds)])
        un_tani = np.array([t for t, _, _ in un_scores])
        un_frag = np.array([f for _, f, _ in un_scores])

        boot = rng.spawn("bootstrap")
        for cond_vals, un_vals, label in ((cond_frag, un_frag, "fraggle"),
                                          (cond_tani, un_tani, "tanimoto")):
            assert cond_vals.mean() > un_vals.mean(), label
            diffs = []
            for _ in range(10_000):
                ci = boot.integers(0, len(cond_vals), len(cond_vals))
                ui = boot.integers(0, len(un_vals), len(un_vals))
                diffs.append(cond_vals[ci].mean() - un_vals[ui].mean())
            low, high = np.quantile(diffs, [0.025, 0.975])
            assert low > 0.0, f"{label}: bootstrap CI [{low:.4f}, {high:.4f}]"
            print(f"    {label}: conditioned {cond_vals.mean():.4f} vs "
                  f"unconditioned {un_vals.mean():.4f}, CI [{low:.4f}, {high:.4f}]")


def test_08_docking_weight_statistics():
    with criterion(8, "weight-sampler statistics match the min-max rule"):
        floor = 0.01
        table = compute_weights(
            [DockingRecord("a", -2.0), DockingRecord("b", -4.0), DockingRecord("c", -6.0)],
            floor=floor,
        )
        assert np.allclose(table.weights, [floor, 0.5, 1.0])
        rng = SeededRng(209)
        n = 10_000
        counts = np.zeros(3)
        for _ in range(n):
            for idx in sample_epoch(table, rng):
                counts[idx] += 1
        for idx, w in enumerate((floor, 0.5, 1.0)):
            sigma = np.sqrt(n * w * (1 - w))
            assert abs(counts[idx] - n * w) <= 3 * sigma + 1e-9, (idx, counts[idx])


def test_09_metric_oracle_equivalence():
    with criterion(9, "similarity and set metrics match brute-force oracles"):
        smiles = ["C", "CC", "CCO", "C1CC1", "CC(=O)N", "N#CC", "OCC(F)C",
                  "C1CCC1N", "CC(C)O", "O=C=O"]
        mols = [parse_smiles(s) for s in smiles]
        # tanimoto against explicit set arithmetic
        fps = morgan_fingerprint(mols)
        for fa in fps:
            for fb in fps:
                assert tanimoto(fa, fb) == pytest.approx(
                    oracles.tanimoto_sets(oracles.set_bits(fa), oracles.set_bits(fb)), abs=1e-12)
        # fraggle against exhaustive cut enumeration
        for a in mols[:6]:
            for b in mols[:6]:
                assert fraggle_similarity(a, b) == pytest.approx(
                    oracles.brute_force_fraggle(a, b), abs=1e-12)
        # structural keys against set arithmetic
        for a in mols:
            for b in mols:
                ka, kb = structural_keys(a), structural_keys(b)
                assert maccs_similarity(a, b) == pytest.approx(
                    oracles.tanimoto_sets(oracles.set_bits(ka), oracles.set_bits(kb)), abs=1e-12)
        # set metrics
        generated = ["CC", "CC", "CCO", "C", "C1CC1", "CCO"]
        training = {"C", "CC", "CCCC"}
        assert uniqueness_pct(generated) == pytest.approx(
            oracles.brute_force_uniqueness(generated), abs=1e-12)
        assert novelty_pct(generated, training) == pytest.approx(
            oracles.brute_force_novelty(generated, training), abs=1e-12)


def test_10_parser_robustness(corpus):
    with criterion(10, "100k permutation-fuzzed parser round trips"):
        rng = SeededRng(210)
        records = corpus.records
        total = 0
        target = 100_000
        i = 0
        while total < target:
            mol = records[i % len(records)].molecule
            i += 1
            canon = write_smiles(mol)
            for _ in range(50):
                perm = [int(p) for p in rng.permutation(mol.num_atoms)]
                inv = {a: k for k, a in enumerate(perm)}
                shuffled = Molecule.build(
                    tuple(mol.elements[a] for a in perm),
                    [(inv[x], inv[y], o) for x, y, o in mol.bonds],
                )
                assert write_smiles(shuffled) == canon
                total += 1
            reparsed = parse_smiles(canon)
            assert is_isomorphic(reparsed, mol)
        malformed = ["", "C(", "C)", "C1CC", "CC(C", "C=", "=C", "C==C",
                     "Cc1ccccc1", "1CC", "C11", "C%12C", "[CH4]", "CC.CC",
                     "C+", "C(-)C", "C=1CCCC#1", "C0CC0", "C(C)(C)(C)(C)C",
                     "O(C)(C)C", "N(=O)=O", "C@H", "Cé"]
        for text in malformed:
            with pytest.raises(SmilesError):
                parse_smiles(text)


def test_11_linear_head_ascent():
    with criterion(11, "linear-head ascent gains exactly step*|c|^2"):
        rng = SeededRng(211)
        for _ in range(20):
            c = rng.normal((24,))
            step = float(rng.uniform(0.01, 0.5))
            traj = optimize_property(rng.normal((24,)), LinearHead(c), steps=8,
                                     step_size=step)
            expected = step * float(c @ c)
            for a, b in zip(traj.points, traj.points[1:]):
                assert b.predicted - a.predicted == pytest.approx(expected, rel=1e-12)


# sha256 of each report file of the mini pipeline, as "<hex>  <relative path>"
MINI_PIPELINE_SHA256 = Path(__file__).with_name("mini_pipeline.sha256")


def _mini_pipeline(out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps({
        "seed": 31, "epochs": 4, "probe_every": 2, "probe_count": 50,
        "fusion_epochs": 2,
    }))
    cfg = ["--config", str(config)]
    assert cli(["prepare-data", *cfg, "--synthetic", "60", "--out", str(out / "data")]) == 0
    data = str(out / "data" / "dataset.xyz")
    assert cli(["dock-weights", *cfg, "--data", data, "--out", str(out / "dock")]) == 0
    assert cli(["train-flow", *cfg, "--data", data,
                "--weights", str(out / "dock" / "weights.csv"),
                "--out", str(out / "flow.npz")]) == 0
    assert cli(["train-fusion", "--checkpoint", str(out / "flow.npz"),
                "--data", data, "--subset", "8", "--out", str(out / "fused.npz")]) == 0
    assert cli(["generate", "--checkpoint", str(out / "fused.npz"), "--count", "40",
                "--no-check", "--data", data, "--out", str(out / "gen")]) == 0
    assert cli(["evaluate", *cfg, "--data", data,
                "--generated", str(out / "gen" / "gen_report.csv"),
                "--out", str(out / "eval")]) == 0
    assert cli(["export-plotdata", "--report", str(out / "gen"),
                "--out", str(out / "plot")]) == 0
    return sorted(p for p in out.rglob("*") if p.suffix in (".csv", ".json"))


def test_12_end_to_end_determinism(tmp_path):
    with criterion(12, "byte-identical reports on a rerun with the same seed"):
        first = _mini_pipeline(tmp_path / "run1")
        second = _mini_pipeline(tmp_path / "run2")
        names1 = [p.relative_to(tmp_path / "run1") for p in first]
        names2 = [p.relative_to(tmp_path / "run2") for p in second]
        assert names1 == names2
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes(), f"{p1} differs"
        # and the same bytes as recorded, so a byte change fails in one run
        recorded = dict(line.split()[::-1]
                        for line in MINI_PIPELINE_SHA256.read_text().splitlines())
        got = {name.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for name, p in zip(names1, first)}
        changed = sorted(name for name in recorded.keys() | got.keys()
                         if recorded.get(name) != got.get(name))
        assert not changed, f"report bytes differ from {MINI_PIPELINE_SHA256.name}: {changed}"
