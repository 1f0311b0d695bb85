import numpy as np
import pytest

import molflow.autodiff as ad
from molflow.autodiff import SeededRng, Tensor
from molflow.dataset import synthetic_corpus
from molflow.flow import FlowConfig, decode, init_flow
from molflow.geom3d import build_geometry
from molflow.spherenet import (
    SphereNetConfig,
    encode_geometry,
    fusion_loss,
    init_spherenet,
    mix_noise,
    train_fusion,
)
from oracles import random_rigid_motion


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
    assert fusion_loss(np.ones(4), np.ones(4)).item() == 0.0
    assert fusion_loss(np.zeros(2), np.array([3.0, 4.0])).item() == pytest.approx(5.0)


def test_fusion_loss_length_mismatch():
    with pytest.raises(ValueError):
        fusion_loss(np.zeros(3), np.zeros(4))


def test_fusion_loss_gradient_matches_finite_differences():
    from oracles import gradient_check

    rng = SeededRng(62)
    target = rng.normal((12,))
    assert gradient_check(lambda u: fusion_loss(target, u), rng.normal((12,))) < 1e-5


def test_dimension_contract_with_flow_decode():
    flow_cfg = FlowConfig()
    cfg = SphereNetConfig(out_dim=flow_cfg.d_total)
    sphere = init_spherenet(cfg, SeededRng(63))
    flow = init_flow(flow_cfg, SeededRng(64), zero_last=False)
    g = build_geometry(("C", "O"), [[0, 0, 0], [1.2, 0, 0]])
    u = encode_geometry(g, sphere)
    assert u.shape == (flow_cfg.d_total,)
    decode(flow, u, check_valency=False)  # no shape errors


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
