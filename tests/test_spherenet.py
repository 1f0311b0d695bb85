import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import molflow.autodiff as ad
from molflow import spherenet
from molflow.autodiff import SeededRng, Tensor
from molflow.dataset import synthetic_corpus
from molflow.flow import FlowConfig, decode_batch, init_flow
from molflow.geom3d import build_geometry
from molflow.spherenet import (
    GeometryCache,
    SphereNetConfig,
    encode_batch,
    encode_geometry,
    fusion_loss,
    init_spherenet,
    mix_noise,
    train_fusion,
)
from oracles import (DenseGeometryCache, from_tape, fusion_node, onehot_encode_batch,
                     random_rigid_motion, reference_encode, reference_fit_step,
                     reference_make_optimizer, tape_fusion_loss, traced)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def small_sphere(out_dim=24, hidden=16):
    cfg = SphereNetConfig(hidden=hidden, out_dim=out_dim)
    return cfg, init_spherenet(cfg, SeededRng(61))


def test_single_atom_encoding_finite_and_deterministic():
    cfg, params = small_sphere()
    g = build_geometry(("C",), [[0.0, 0.0, 0.0]])
    u1 = encode_geometry(g, params)
    u2 = encode_geometry(g, params)
    assert u1.shape == (cfg.out_dim,)
    assert np.isfinite(u1).all()
    assert np.array_equal(u1, u2)


def test_rigid_motion_invariance_of_encoding(rng):
    cfg, params = small_sphere()
    coords = rng.normal((6, 3), scale=1.5)
    elements = ("C", "N", "O", "C", "F", "C")
    base = encode_geometry(build_geometry(elements, coords), params)
    for _ in range(50):
        q, t = random_rigid_motion(rng)
        moved = encode_geometry(build_geometry(elements, coords @ q.T + t), params)
        assert np.abs(moved - base).max() < 1e-6


def test_relabeling_invariance_of_encoding(rng):
    cfg, params = small_sphere()
    coords = rng.normal((6, 3), scale=1.5)
    elements = ["C", "N", "O", "C", "F", "C"]
    base = encode_geometry(build_geometry(elements, coords), params)
    for _ in range(20):
        perm = [int(i) for i in rng.permutation(6)]
        moved = encode_geometry(
            build_geometry([elements[i] for i in perm], coords[perm]),
            params,
        )
        assert np.abs(moved - base).max() < 1e-6


def test_fusion_loss_zero_and_345():
    assert fusion_loss(np.ones(4), np.ones(4))[0] == 0.0
    assert fusion_loss(np.zeros(2), np.array([3.0, 4.0]))[0] == pytest.approx(5.0)


def test_fusion_loss_length_mismatch():
    with pytest.raises(ValueError):
        fusion_loss(np.zeros(3), np.zeros(4))


def test_fusion_loss_gradient_matches_finite_differences():
    from oracles import gradient_check

    rng = SeededRng(62)
    target = rng.normal((12,))
    assert gradient_check(lambda u: fusion_node(target, u), rng.normal((12,))) < 1e-5


def test_dimension_contract_with_flow_decode():
    flow_cfg = FlowConfig()
    cfg = SphereNetConfig(out_dim=flow_cfg.d_total)
    sphere = init_spherenet(cfg, SeededRng(63))
    flow = init_flow(flow_cfg, SeededRng(64), zero_last=False)
    g = build_geometry(("C", "O"), [[0, 0, 0], [1.2, 0, 0]])
    u = encode_geometry(g, sphere)
    assert u.shape == (flow_cfg.d_total,)
    decode_batch(flow, u[None])  # no shape errors


def test_mix_noise_identity_at_zero():
    u = np.arange(6.0)
    out = mix_noise(u, 0.0, SeededRng(65))
    assert np.array_equal(out, u)


def test_mix_noise_pure_noise_at_one():
    u = np.full(2000, 7.0)
    out = mix_noise(u, 1.0, SeededRng(66))
    assert abs(out.mean()) < 0.1          # independent of u
    assert out.std() == pytest.approx(1.0, rel=0.1)


def test_mix_noise_variance_scaling():
    u = np.ones(5)
    lam = 0.2
    draws = np.stack([
        mix_noise(u, lam, SeededRng(67).spawn(f"d{i}")) - (1 - lam) * u
        for i in range(20000)
    ])
    assert draws.var() == pytest.approx(lam * lam, rel=0.05)


def test_mix_noise_rejects_bad_fraction():
    with pytest.raises(ValueError):
        mix_noise(np.ones(3), 1.5, SeededRng(68))


def test_mix_noise_formula_limit_ignores_input_at_one():
    # lam = 1 is the unconditioned limit: the output no longer depends on u
    a = mix_noise(np.zeros(8), 1.0, SeededRng(74))
    b = mix_noise(np.full(8, 100.0), 1.0, SeededRng(74))
    assert np.array_equal(a, b)


def test_train_fusion_zero_epochs_keeps_params():
    rng = SeededRng(69)
    corpus = synthetic_corpus(8, rng.spawn("c"), with_geometry=True)
    flow_cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
    flow = init_flow(flow_cfg, rng.spawn("f"))
    cfg = SphereNetConfig(hidden=16, out_dim=flow_cfg.d_total)
    sphere = init_spherenet(cfg, rng.spawn("s"))
    before = {n: a.copy() for n, a in sphere.named_params()}
    result = train_fusion(corpus.records, flow, sphere, epochs=0, rng=rng.spawn("t"))
    assert result.epoch_losses == []
    changed = [n for n, a in sphere.named_params() if not np.array_equal(a, before[n])]
    # only the output bias is initialized to the target mean before epochs run
    assert changed in ([], ["sphere.output.b2"])


def test_train_fusion_zero_encoder_rate_trains_only_the_output_block():
    rng = SeededRng(75)
    corpus = synthetic_corpus(8, rng.spawn("c"), with_geometry=True)
    flow_cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
    flow = init_flow(flow_cfg, rng.spawn("f"))
    cfg = SphereNetConfig(hidden=16, out_dim=flow_cfg.d_total)
    sphere = init_spherenet(cfg, rng.spawn("s"))
    before = {n: a.copy() for n, a in sphere.named_params()}
    train_fusion(corpus.records, flow, sphere, epochs=2, rng=rng.spawn("t"),
                 batch_size=4, encoder_lr_scale=0.0)
    for name, arr in sphere.named_params():
        if name.startswith("sphere.output"):
            assert not np.array_equal(arr, before[name]), name
        else:
            assert np.array_equal(arr, before[name]), name


def test_train_fusion_deterministic():
    def run():
        rng = SeededRng(70)
        corpus = synthetic_corpus(10, rng.spawn("c"), with_geometry=True)
        flow_cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
        flow = init_flow(flow_cfg, rng.spawn("f"))
        cfg = SphereNetConfig(hidden=16, out_dim=flow_cfg.d_total)
        sphere = init_spherenet(cfg, rng.spawn("s"))
        return train_fusion(corpus.records, flow, sphere, epochs=4, rng=rng.spawn("t")).epoch_losses

    assert run() == run()


def test_train_fusion_halves_loss_at_desk_scale():
    # 50 epochs on a small set drops the smoothed mean loss by at least half
    rng = SeededRng(71)
    corpus = synthetic_corpus(32, rng.spawn("c"), with_geometry=True)
    flow_cfg = FlowConfig(atom_hidden=32, bond_hidden=32)
    flow = init_flow(flow_cfg, rng.spawn("f"), zero_last=False)
    cfg = SphereNetConfig(hidden=64, out_dim=flow_cfg.d_total)
    sphere = init_spherenet(cfg, rng.spawn("s"))
    result = train_fusion(corpus.records, flow, sphere, epochs=50, rng=rng.spawn("t"), lr=5e-3)
    assert np.mean(result.epoch_losses[-5:]) <= 0.5 * result.epoch_losses[0]


def test_train_fusion_rejects_record_without_geometry():
    rng = SeededRng(72)
    corpus = synthetic_corpus(6, rng.spawn("c"), with_geometry=True)
    corpus.records[2].coords = None
    corpus.records[2].elements = None
    flow_cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
    flow = init_flow(flow_cfg, rng.spawn("f"))
    cfg = SphereNetConfig(hidden=16, out_dim=flow_cfg.d_total)
    sphere = init_spherenet(cfg, rng.spawn("s"))
    with pytest.raises(ValueError, match="has no geometry"):
        train_fusion(corpus.records, flow, sphere, epochs=1, rng=rng.spawn("t"))


def test_train_fusion_requires_some_geometry():
    rng = SeededRng(73)
    corpus = synthetic_corpus(3, rng.spawn("c"), with_geometry=False)
    flow_cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
    flow = init_flow(flow_cfg, rng.spawn("f"))
    sphere = init_spherenet(SphereNetConfig(hidden=16, out_dim=flow_cfg.d_total), rng.spawn("s"))
    with pytest.raises(ValueError):
        train_fusion(corpus.records, flow, sphere, epochs=1, rng=rng.spawn("t"))


@pytest.fixture(scope="module")
def pinned_models_and_records():
    """The benchmark's pinned flow and encoder, and the 64 geometry records
    the encoder was fusion-trained on."""
    spec = importlib.util.spec_from_file_location("perfbench_fixture", PERFBENCH / "fixture.py")
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    flow, sphere = fixture.load_model()
    return flow, sphere, fixture.load_geometry_set(FlowConfig().n_max)


@pytest.fixture(scope="module")
def pinned_fusion_set(pinned_models_and_records):
    """The pinned encoder and the geometry caches of its fusion set."""
    _, sphere, records = pinned_models_and_records
    caches = [GeometryCache.from_geometry(r.geometry(cutoff=sphere.config.cutoff), sphere.config)
              for r in records]
    return sphere, caches


def test_encode_batch_equals_the_onehot_encoder_bit_for_bit(pinned_fusion_set):
    pinned, caches = pinned_fusion_set
    cfg = pinned.config
    one_atom = GeometryCache.from_geometry(build_geometry(("O",), [[0.3, -0.2, 1.0]]), cfg)
    # two atoms beyond the cutoff: atoms but no edges
    apart = GeometryCache.from_geometry(
        build_geometry(("C", "N"), [[0.0, 0.0, 0.0], [2.0 * cfg.cutoff, 0.0, 0.0]]), cfg)
    assert one_atom.radial.shape[0] == apart.radial.shape[0] == 0
    batches = [caches[i:i + 8] for i in range(0, len(caches), 8)]
    batches.append(caches[:3] + [one_atom] + caches[3:5] + [apart])
    # the gradient sums into a block's input v differ between the first,
    # a middle and the last block
    for n_blocks in (1, 2, 3):
        sphere = (pinned if n_blocks == cfg.n_blocks
                  else init_spherenet(replace(cfg, n_blocks=n_blocks), SeededRng(93)))
        for k, batch in enumerate(batches):
            u, encode_backward = encode_batch(sphere, batch)
            assert np.array_equal(u, onehot_encode_batch(sphere, batch))
            targets = SeededRng(90).spawn(f"t{k}").normal((len(batch), cfg.out_dim))
            loss, loss_backward = fusion_loss(targets, u)
            losses, grads = [loss], [encode_backward(loss_backward(np.ones(())))]
            view, leaves = traced(sphere)
            tape_loss = tape_fusion_loss(targets, onehot_encode_batch(view, batch))
            losses.append(tape_loss.item())
            grads.append(ad.backward(tape_loss, leaves))
            assert losses[0] == losses[1]
            assert len(grads[0]) == len(sphere.named_params()) == 9 + 12 * n_blocks
            for (name, _), new, old in zip(sphere.named_params(), *grads):
                assert np.array_equal(new, old), (n_blocks, k, name)


def test_train_fusion_equals_the_onehot_encoder_run_bit_for_bit(pinned_models_and_records,
                                                                 monkeypatch):
    flow, sphere, records = pinned_models_and_records

    def run():
        params = init_spherenet(sphere.config, SeededRng(91))
        result = train_fusion(records[:24], flow, params, epochs=30, rng=SeededRng(92),
                              batch_size=8)
        return repr(result.epoch_losses), [a.tobytes() for _, a in params.named_params()]

    losses, arrays = run()
    monkeypatch.setattr(spherenet, "encode_batch", from_tape(onehot_encode_batch))
    assert run() == (losses, arrays)


def test_train_fusion_equals_the_per_array_adam_bit_for_bit(pinned_models_and_records,
                                                             monkeypatch):
    # 30 steps at the two group rates on one flat vector, then with a
    # per-array Adam update and per-array rates
    flow, sphere, records = pinned_models_and_records

    def run():
        params = init_spherenet(sphere.config, SeededRng(93))
        result = train_fusion(records[:8], flow, params, epochs=30, rng=SeededRng(94),
                              batch_size=8)
        return repr(result.epoch_losses), [a.tobytes() for _, a in params.named_params()]

    flat = run()
    monkeypatch.setattr(spherenet, "make_optimizer", reference_make_optimizer)
    monkeypatch.setattr(spherenet, "fit_step", reference_fit_step)
    assert run() == flat


def _reference_rows(sphere, caches):
    return np.stack([reference_encode(sphere, DenseGeometryCache.from_cache(c)) for c in caches])


def test_encode_batch_matches_per_molecule_reference_with_an_edge_free_molecule(
        pinned_fusion_set):
    sphere, caches = pinned_fusion_set
    single = GeometryCache.from_geometry(build_geometry(("O",), [[0.3, -0.2, 1.0]]),
                                         sphere.config)
    assert single.radial.shape[0] == 0
    nine = [c for c in caches if c.v0.shape[0] == 9][:5]
    assert len(nine) == 5
    batch = nine[:2] + [single] + nine[2:]
    out = encode_batch(sphere, batch)[0]
    assert out.shape == (len(batch), sphere.config.out_dim)
    assert np.abs(out - _reference_rows(sphere, batch)).max() < 1e-12
    # a batch of one is encode_geometry's path
    assert np.abs(encode_batch(sphere, [single])[0][0] - out[2]).max() < 1e-12


def test_encode_batch_rows_follow_a_permuted_batch(pinned_fusion_set):
    sphere, caches = pinned_fusion_set
    batch = caches[:16]
    out = encode_batch(sphere, batch)[0]
    ref = _reference_rows(sphere, batch)
    assert np.abs(out - ref).max() < 1e-12
    perm = [int(i) for i in SeededRng(76).permutation(len(batch))]
    moved = encode_batch(sphere, [batch[i] for i in perm])[0]
    assert np.abs(moved - ref[perm]).max() < 1e-12
    assert np.abs(moved - out[perm]).max() < 1e-12


def test_fusion_loss_of_a_batch_is_the_mean_row_distance():
    rng = SeededRng(77)
    z = rng.normal((4, 6))
    u = rng.normal((4, 6))
    rows = [fusion_loss(z[i], u[i])[0] for i in range(4)]
    assert fusion_loss(z, u)[0] == pytest.approx(np.mean(rows), rel=1e-14)
