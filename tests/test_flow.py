import math

import numpy as np
import pytest

import molflow.autodiff as ad
from molflow.autodiff import SeededRng, Tensor
from molflow.chem import is_isomorphic, parse_smiles, to_tensors, valency_check
from molflow.dataset import synthetic_corpus, tensor_batches
from molflow.flow import (
    FlowConfig,
    LatentVector,
    atom_coupling,
    bond_coupling,
    decode,
    decode_batch,
    decode_continuous,
    dequantize,
    discretize_bonds,
    encode,
    encode_continuous,
    encode_tensors,
    init_flow,
    make_optimizer,
    sample_prior,
    train_step,
)


def small_config():
    return FlowConfig(n_max=2, n_atom_types=2, n_bond_types=2,
                      atom_layers=3, bond_layers=3, atom_hidden=8, bond_hidden=8)


# ---------------------------------------------------------------------------
# dequantization
# ---------------------------------------------------------------------------


def test_dequantize_ranges():
    rng = SeededRng(1)
    onehot = np.array([[1.0, 0.0]])
    for _ in range(200):
        x = dequantize(onehot, 0.4, rng)
        assert 0.6 <= x[0, 0] < 1.0
        assert 0.0 <= x[0, 1] < 0.4


def test_dequantize_argmax_recovers_onehot():
    rng = SeededRng(2)
    gen = SeededRng(3)
    for _ in range(100):
        onehot = np.zeros((100, 5))
        onehot[np.arange(100), gen.integers(0, 5, 100)] = 1.0
        x = dequantize(onehot, 0.4, rng)
        assert np.array_equal(x.argmax(axis=1), onehot.argmax(axis=1))


def test_dequantize_small_scale_approaches_identity():
    rng = SeededRng(4)
    onehot = np.eye(4)
    x = dequantize(onehot, 1e-9, rng)
    assert np.abs(x - onehot).max() < 1e-8


def test_dequantize_scale_domain():
    rng = SeededRng(5)
    # above 0.5 a cold channel can outgrow the hot one
    for bad in (0.0, 1.0, -0.1, 1.5, 0.5 + 1e-9, 0.7, 0.9):
        with pytest.raises(ValueError):
            dequantize(np.eye(2), bad, rng)
    x = dequantize(np.eye(2), 0.5, rng)
    assert np.array_equal(x.argmax(axis=1), [0, 1])


# ---------------------------------------------------------------------------
# coupling layers
# ---------------------------------------------------------------------------


def test_zero_initialized_coupling_halves_the_transformed_coordinates():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(6))  # zero_last: s == 0, t == 0
    rng = SeededRng(7)
    x = rng.uniform(0.0, 1.0, (3, 9, 9, 4))
    z, logdet = bond_coupling(x, params.bond[0], 0)
    kept = [0, 2]
    assert np.array_equal(z[..., kept], x[..., kept])        # identity half untouched
    assert np.allclose(z[..., [1, 3]], 0.5 * x[..., [1, 3]])  # sigma(0) = 0.5
    transformed = 9 * 9 * 2
    assert np.allclose(logdet, transformed * math.log(0.5))


def test_zero_initialized_inverse_doubles():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(8))
    rng = SeededRng(9)
    z = rng.normal((2, 9, 9, 4))
    x, _ = bond_coupling(z, params.bond[0], 0, inverse=True)
    assert np.allclose(x[..., [1, 3]], 2.0 * z[..., [1, 3]])
    assert np.array_equal(x[..., [0, 2]], z[..., [0, 2]])


def test_coupling_round_trip_random_layer():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(11), zero_last=False)
    rng = SeededRng(12)
    bond_disc = discretize_bonds(rng.uniform(0, 1, (4, 9, 9, 4)))
    x = rng.uniform(0, 1, (4, 9, 5))
    z, _ = atom_coupling(x, params.atom[2], 2, bond_disc)
    back, _ = atom_coupling(z, params.atom[2], 2, bond_disc, inverse=True)
    assert np.abs(back - x).max() < 1e-12


def test_full_stack_round_trip_thousand_points():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(13), zero_last=False)
    rng = SeededRng(14)
    xa = rng.uniform(0, 1, (1000, 9, 5))
    xb = rng.uniform(0, 1, (1000, 9, 9, 4))
    za, zb, _, _ = encode_continuous(params, xa, xb)
    xa2, xb2 = decode_continuous(params, za, zb)
    assert np.abs(xa2 - xa).max() < 1e-9
    assert np.abs(xb2 - xb).max() < 1e-9


def test_logdet_matches_numerical_jacobian_small_dims(tiny_flow):
    cfg, params = tiny_flow
    rng = SeededRng(15)

    def flat_map(v):
        xa = v[: cfg.d_atom].reshape(1, cfg.n_max, cfg.n_atom_types)
        xb = v[cfg.d_atom:].reshape(1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
        za, zb, ld_a, ld_b = encode_continuous(params, xa, xb)
        return np.concatenate([za.reshape(-1), zb.reshape(-1)]), float(ld_a[0] + ld_b[0])

    for _ in range(10):
        v0 = rng.uniform(0.05, 0.95, cfg.d_total)
        _, ld = flat_map(v0)
        eps = 1e-6
        jac = np.zeros((cfg.d_total, cfg.d_total))
        for i in range(cfg.d_total):
            hi = v0.copy(); hi[i] += eps
            lo = v0.copy(); lo[i] -= eps
            jac[:, i] = (flat_map(hi)[0] - flat_map(lo)[0]) / (2 * eps)
        _, logabs = np.linalg.slogdet(jac)
        assert abs(ld - logabs) / max(1.0, abs(ld)) < 1e-5


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_closed_form_for_zero_initialized_model():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(16))  # s == 0, t == 0 everywhere
    mol = parse_smiles("CC(=O)N")
    atom, bond = to_tensors(mol, cfg.n_max)
    rng = SeededRng(17)
    za, zb, loglik = encode_tensors(params, atom[None], bond[None], rng)
    # each coordinate is transformed three times by a 0.5 scale
    xa = np.asarray(za).reshape(-1) * 8.0
    xb = np.asarray(zb).reshape(-1) * 8.0
    z = np.concatenate([np.asarray(za).reshape(-1), np.asarray(zb).reshape(-1)])
    logdet = (3 * cfg.d_atom + 3 * cfg.d_bond) * math.log(0.5)
    expected = (-0.5 * float(z @ z)
                - 0.5 * cfg.d_total * math.log(2 * math.pi)
                + logdet)
    assert float(loglik[0]) == pytest.approx(expected, rel=1e-12)
    assert ((0 <= xa) & (xa <= 1)).all() and ((0 <= xb) & (xb <= 1)).all()


def test_decode_of_encode_reconstructs_molecule():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(18), zero_last=False)
    rng = SeededRng(19)
    corpus = synthetic_corpus(100, rng.spawn("mols"), with_geometry=False)
    for rec in corpus.records:
        lat, _ = encode(params, rec.molecule, rng)
        out = decode(params, lat, check_valency=False)
        assert is_isomorphic(out, rec.molecule)


def test_decode_is_deterministic():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(20), zero_last=False)
    z = np.zeros(cfg.d_total)
    first = decode(params, z, check_valency=False)
    second = decode(params, z, check_valency=False)
    assert first == second


def test_decode_rejects_invalid_when_checking():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(21), zero_last=False)
    rng = SeededRng(22)
    zs = sample_prior(rng, cfg, temperature=0.7, count=200)
    rejected = sum(decode(params, zs[i], check_valency=True) is None for i in range(200))
    raw = decode_batch(params, zs)
    invalid = sum(not valency_check(m) for m in raw)
    assert rejected == invalid
    assert rejected > 0  # untrained model at high temperature mostly invalid


def test_decoded_bond_tensor_symmetric_with_no_bond_diagonal():
    rng = SeededRng(23)
    xb = rng.normal((5, 9, 9, 4))
    disc = discretize_bonds(xb)
    assert np.array_equal(disc, disc.transpose(0, 2, 1, 3))
    assert (disc[:, np.arange(9), np.arange(9), 0] == 1.0).all()
    assert ((disc.sum(axis=3)) == 1.0).all()


def test_latent_vector_split_and_concat_order():
    cfg = FlowConfig()
    z = np.arange(cfg.d_total, dtype=float)
    lat = LatentVector.split(z, cfg)
    assert lat.z_atom.shape == (cfg.d_atom,)
    assert lat.z_bond.shape == (cfg.d_bond,)
    assert np.array_equal(lat.z, z)
    with pytest.raises(ValueError):
        LatentVector.split(z[:-1], cfg)


# ---------------------------------------------------------------------------
# prior sampling
# ---------------------------------------------------------------------------


def test_sample_prior_zero_temperature_limit():
    cfg = small_config()
    assert not sample_prior(SeededRng(24), cfg, temperature=0.0, count=3).any()


def test_sample_prior_moments():
    cfg = small_config()  # 12 dims keeps 1e5 draws cheap
    z = sample_prior(SeededRng(25), cfg, temperature=0.7, count=100_000)
    assert np.abs(z.mean(axis=0)).max() < 0.02
    assert np.allclose(z.var(axis=0), 0.49, rtol=0.05)


def test_sample_prior_rejects_negative_temperature():
    with pytest.raises(ValueError):
        sample_prior(SeededRng(26), small_config(), temperature=-0.1)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_step_decreases_smoothed_nll():
    cfg = FlowConfig(atom_hidden=32, bond_hidden=32)
    rng = SeededRng(27)
    corpus = synthetic_corpus(100, rng.spawn("corpus"), with_geometry=False)
    atoms, bonds = tensor_batches(corpus.records, cfg.n_max)
    params = init_flow(cfg, rng.spawn("init"))
    opt = make_optimizer(params, lr=1e-3)
    tr = rng.spawn("train")
    losses = [train_step(params, atoms, bonds, opt, tr) for _ in range(200)]
    smoothed = [float(np.mean(losses[i:i + 20])) for i in range(0, 181, 20)]
    assert all(b < a for a, b in zip(smoothed, smoothed[1:]))


def test_train_step_zero_learning_rate_keeps_params():
    cfg = small_config()
    rng = SeededRng(28)
    params = init_flow(cfg, rng.spawn("init"), zero_last=False)
    before = {n: a.copy() for n, a in params.named_params()}
    opt = make_optimizer(params, lr=0.0)
    atom = np.zeros((2, 2, 2)); atom[:, :, 0] = 1.0
    bond = np.zeros((2, 2, 2, 2)); bond[:, :, :, 0] = 1.0
    train_step(params, atom, bond, opt, rng.spawn("step"))
    for name, arr in params.named_params():
        assert np.array_equal(arr, before[name])


def test_train_step_deterministic_across_runs():
    def run():
        cfg = small_config()
        rng = SeededRng(29)
        params = init_flow(cfg, rng.spawn("init"))
        opt = make_optimizer(params, lr=1e-3)
        atom = np.zeros((4, 2, 2)); atom[:, :, 0] = 1.0
        bond = np.zeros((4, 2, 2, 2)); bond[:, :, :, 0] = 1.0
        tr = rng.spawn("train")
        return [train_step(params, atom, bond, opt, tr) for _ in range(100)]

    assert run() == run()


def test_train_step_rejects_empty_batch():
    cfg = small_config()
    params = init_flow(cfg, SeededRng(30))
    opt = make_optimizer(params)
    with pytest.raises(ValueError):
        train_step(params, np.zeros((0, 2, 2)), np.zeros((0, 2, 2, 2)), opt, SeededRng(31))


def test_gradient_check_full_coupling_layer():
    # tape gradients of a coupling layer against central differences
    from molflow.autodiff import gradient_check
    import molflow.autodiff as ad

    cfg = small_config()
    params = init_flow(cfg, SeededRng(32), zero_last=False)
    rng = SeededRng(33)
    bond_disc = discretize_bonds(rng.uniform(0, 1, (1, 2, 2, 2)))

    def f(x):
        z, logdet = atom_coupling(ad.reshape(x, (1, 2, 2)), params.atom[0], 0, bond_disc)
        return ad.tsum(z * z) + ad.tsum(logdet)

    for _ in range(10):
        assert gradient_check(f, rng.uniform(0.05, 0.95, (2, 2))) < 1e-5


# ---------------------------------------------------------------------------
# parameter trees
# ---------------------------------------------------------------------------


def _param_trees():
    from molflow.flow import mlp_init
    from molflow.pipeline import PropertyHead
    from molflow.spherenet import SphereNetConfig, init_spherenet

    rng = SeededRng(34)
    return [
        init_flow(small_config(), rng.spawn("flow")),
        init_spherenet(SphereNetConfig(hidden=6, n_blocks=2, n_radial=4, max_degree=1,
                                       out_dim=5), rng.spawn("sphere")),
        PropertyHead(mlp_init(rng.spawn("head"), 5, 6, 1, zero_last=False)),
    ]


def test_traced_leaves_follow_named_params():
    for params in _param_trees():
        view, leaves = ad.traced(params)
        named = params.named_params()
        assert type(view) is type(params)
        assert len(leaves) == len(named)
        for leaf, (name, arr) in zip(leaves, named):
            assert isinstance(leaf, Tensor), name
            assert leaf.data is arr, name


def test_set_param_copies_in_place_and_rejects_bad_input():
    for params in _param_trees():
        name, arr = params.named_params()[-1]
        value = np.arange(arr.size, dtype=np.float64).reshape(arr.shape)
        params.set_param(name, value)
        assert params.named_params()[-1][1] is arr
        assert np.array_equal(arr, value)
        with pytest.raises(ValueError):
            params.set_param(name, np.zeros(arr.shape + (1,)))
        with pytest.raises(ValueError):
            params.set_param(name + "x", value)
        assert np.array_equal(arr, value)
