import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import molflow.autodiff as ad
import molflow.flow as flow_module
from molflow.autodiff import SeededRng, Tensor
from molflow.chem import (PADDING_TYPE, from_tensors, parse_smiles, valence_prescreen,
                          valency_check)
from molflow.dataset import synthetic_corpus, tensor_batches
from molflow.flow import (
    FlowConfig,
    atom_condition,
    atom_coupling,
    bond_coupling,
    decode_batch,
    decode_continuous,
    decode_tensors,
    dequantize,
    discretize_bonds,
    encode_continuous,
    encode_molecules,
    init_flow,
    make_optimizer,
    mean_nll,
    sample_prior,
    train_step,
)
from oracles import (composed_atom_coupling, composed_bond_coupling, coupling_node, from_tape,
                     is_isomorphic, onehot_from_tensors, raw_decode_batch,
                     reference_decode_continuous, reference_encode_continuous,
                     reference_fit_step, reference_flow_encode, reference_make_optimizer,
                     reshape, running, scatter_discretize_bonds, tape_mean_nll, traced, tsum,
                     within_valence)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_pinned_model():
    spec = importlib.util.spec_from_file_location("perfbench_fixture", PERFBENCH / "fixture.py")
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    return fixture.load_model()[0]


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
    z, logdet, _ = bond_coupling(x, params.bond[0], 0)
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
    x, _, _ = bond_coupling(z, params.bond[0], 0, inverse=True)
    assert np.allclose(x[..., [1, 3]], 2.0 * z[..., [1, 3]])
    assert np.array_equal(x[..., [0, 2]], z[..., [0, 2]])


def test_coupling_round_trip_random_layer():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(11), zero_last=False)
    rng = SeededRng(12)
    cond = atom_condition(discretize_bonds(rng.uniform(0, 1, (4, 9, 9, 4))), 4)
    x = rng.uniform(0, 1, (4, 9, 5))
    z, _, _ = atom_coupling(x, params.atom[2], 2, cond)
    back, _, _ = atom_coupling(z, params.atom[2], 2, cond, inverse=True)
    assert np.abs(back - x).max() < 1e-12


def test_coupling_kernels_match_reference_stack():
    # the pinned model's shape with random (not zero) output layers
    cfg = FlowConfig(atom_hidden=128, bond_hidden=128, temperature=0.12)
    params = init_flow(cfg, SeededRng(40), zero_last=False)
    rng = SeededRng(41)
    for temperature in (0.12, 0.7):
        z = sample_prior(rng, cfg, temperature=temperature, count=256)
        za = z[:, : cfg.d_atom].reshape(-1, cfg.n_max, cfg.n_atom_types)
        zb = z[:, cfg.d_atom:].reshape(-1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
        xa, xb = decode_continuous(params, za, zb)
        ref_xa, ref_xb = reference_decode_continuous(params, za, zb)
        assert np.array_equal(xa, ref_xa) and np.array_equal(xb, ref_xb)

    # train_step's loss: forward latents, logdets and every parameter gradient
    corpus = synthetic_corpus(48, rng.spawn("corpus"), with_geometry=False)
    atoms, bonds = tensor_batches(corpus.records, cfg.n_max)

    def run(encode, nll):
        deq = SeededRng(42)
        xa = dequantize(atoms, cfg.noise_scale, deq)
        xb = dequantize(bonds, cfg.noise_scale, deq)
        return list(encode(params, xa, xb)) + nll(params, xa, xb)[1](np.ones(()))

    got = run(encode_continuous, mean_nll)
    want = run(reference_encode_continuous, from_tape(
        lambda view, xa, xb: tape_mean_nll(view, xa, xb, reference_encode_continuous)))
    names = ["za", "zb", "logdet_atom", "logdet_bond"] + [n for n, _ in params.named_params()]
    for name, a, b in zip(names, got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _coupling_case(name: str):
    """(config, x_atom, x_bond) of a fused-versus-composed coupling case."""
    if name == "n_max=2":
        cfg = small_config()
        rng = SeededRng(44)
        return (cfg, rng.uniform(0.0, 1.0, (5, 2, 2)), rng.uniform(0.0, 1.0, (5, 2, 2, 2)))
    cfg = FlowConfig(atom_hidden=128, bond_hidden=128)  # the train benchmark's model
    atoms, bonds = _benchmark_batch(cfg)
    batch = 100 if name == "batch 100" else 1
    rng = SeededRng(45)
    return (cfg, dequantize(atoms[:batch], cfg.noise_scale, rng),
            dequantize(bonds[:batch], cfg.noise_scale, rng))


def _benchmark_batch(cfg: FlowConfig):
    corpus = synthetic_corpus(100, SeededRng(45).spawn("corpus"), with_geometry=False)
    return tensor_batches(corpus.records, cfg.n_max)


@pytest.mark.parametrize("track", ["atom", "bond"])
@pytest.mark.parametrize("case", ["batch 100", "batch 1", "n_max=2"])
def test_fused_couplings_match_composed_tape_bit_for_bit(case, track):
    # layers 0 and 1 (both parities) of one track, fused against the
    # composed tape: outputs and every parameter and input gradient
    cfg, xa, xb = _coupling_case(case)
    params = init_flow(cfg, SeededRng(46), zero_last=False)
    mlps = (params.atom if track == "atom" else params.bond)[:2]
    x = xa if track == "atom" else xb
    cond = atom_condition(discretize_bonds(xb), cfg.n_bond_types)
    fused = {"atom": lambda x, mlp, i: coupling_node(atom_coupling, x, mlp, i, cond),
             "bond": lambda x, mlp, i: coupling_node(bond_coupling, x, mlp, i)}[track]
    composed = {"atom": lambda x, mlp, i: composed_atom_coupling(x, mlp, i, cond),
                "bond": lambda x, mlp, i: composed_bond_coupling(x, mlp, i)}[track]
    rng = SeededRng(47)
    weights = {"z": rng.normal(x.shape), "logdet": rng.normal((x.shape[0],))}

    def run(coupling, traced_input, reads):
        view, leaves = traced(mlps)
        z = Tensor(x) if traced_input else x
        leaves += [z] if traced_input else []
        logdet = None
        for i, mlp in enumerate(view):
            z, layer_logdet = coupling(z, mlp, i)
            logdet = running(logdet, layer_logdet)
        outputs = {"z": z, "logdet": logdet}
        loss = sum(tsum(outputs[r] * weights[r]) for r in reads)
        return [z.data, logdet.data] + ad.backward(loss, leaves)

    for traced_input in (True, False):
        for reads in (("z",), ("logdet",), ("z", "logdet")):
            got = run(fused, traced_input, reads)
            want = run(composed, traced_input, reads)
            assert len(got) == len(want) == 2 + 8 + traced_input
            for k, (a, b) in enumerate(zip(got, want)):
                assert _same_bits(a, b), (traced_input, reads, k)


def test_train_steps_match_composed_couplings_bit_for_bit(monkeypatch):
    # train_step through the fused couplings and the hand-written NLL and,
    # patched in, the NLL composed of tape nodes over the composed
    # couplings: the same losses and parameter bytes step after step
    cfg = FlowConfig(atom_hidden=128, bond_hidden=128)
    atoms, bonds = _benchmark_batch(cfg)

    def steps():
        params = init_flow(cfg, SeededRng(48))
        opt = make_optimizer(params)
        rng = SeededRng(49)
        losses = [train_step(params, atoms, bonds, opt, rng, clip_norm=10.0) for _ in range(3)]
        return losses, [arr.copy() for _, arr in params.named_params()]

    fused = steps()
    monkeypatch.setattr(flow_module, "mean_nll", from_tape(tape_mean_nll))
    composed = steps()
    assert fused[0] == composed[0]
    assert all(_same_bits(a, b) for a, b in zip(fused[1], composed[1]))


def test_clipped_train_steps_equal_the_per_array_adam_bit_for_bit(monkeypatch):
    # 30 clipped train_steps on one flat vector, then with a clip and an
    # Adam update per array; the clip fires on every step
    cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
    rng = SeededRng(132)
    atoms, bonds = tensor_batches(synthetic_corpus(40, rng.spawn("c"),
                                                   with_geometry=False).records, cfg.n_max)
    scales = []
    real_clip_scale = flow_module._clip_scale

    def recording_clip_scale(grads, max_norm):
        scales.append(real_clip_scale(grads, max_norm))
        return scales[-1]

    monkeypatch.setattr(flow_module, "_clip_scale", recording_clip_scale)

    def run(make_opt):
        params = init_flow(cfg, SeededRng(133))
        opt = make_opt(params, lr=1e-2)
        steps = SeededRng(134)
        losses = [train_step(params, atoms[k % 4 * 10:][:10], bonds[k % 4 * 10:][:10], opt,
                             steps, clip_norm=5.0) for k in range(30)]
        return losses, [a.tobytes() for _, a in params.named_params()]

    flat = run(make_optimizer)
    assert len(scales) == 30 and max(scales) < 1.0
    monkeypatch.setattr(flow_module, "fit_step", reference_fit_step)
    assert run(reference_make_optimizer) == flat


def test_fit_step_refuses_a_rebound_field_and_a_bad_clip_norm():
    cfg = small_config()
    rng = SeededRng(137)
    atom = np.zeros((2, 2, 2)); atom[:, :, 0] = 1.0
    bond = np.zeros((2, 2, 2, 2)); bond[:, :, :, 0] = 1.0
    params = init_flow(cfg, rng.spawn("init"))
    opt = make_optimizer(params)
    for clip in (0.0, -1.0):
        with pytest.raises(ValueError, match="clip norm"):
            train_step(params, atom, bond, opt, rng.spawn("step"), clip_norm=clip)
    # a field rebound after make_optimizer would never train: refused
    params.bond[1].b2 = params.bond[1].b2.copy()
    with pytest.raises(ValueError, match="view"):
        train_step(params, atom, bond, opt, rng.spawn("step"))


def test_fit_step_changes_nothing_on_a_non_finite_gradient():
    cfg = small_config()
    atom = np.zeros((2, 2, 2)); atom[:, :, 0] = 1.0
    bond = np.zeros((2, 2, 2, 2)); bond[:, :, :, 0] = 1.0
    params = init_flow(cfg, SeededRng(138), zero_last=False)
    opt = make_optimizer(params, lr=1e-2)
    for _ in range(2):
        train_step(params, atom, bond, opt, SeededRng(139))
    before = (opt.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.step)

    def nan_gradient_loss(p):
        # a finite loss whose gradient is NaN in the last array's last element
        def backward(g):
            grads = [np.zeros(a.shape) for _, a in p.named_params()]
            grads[-1].reshape(-1)[-1] = np.nan
            return grads

        return 1.0, backward

    for clip in (None, 1.0):
        with pytest.raises(ValueError, match="non-finite"):
            flow_module.fit_step(params, nan_gradient_loss, opt, clip_norm=clip)
        assert (opt.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.step) == before


def test_fit_steps_through_shuffled_slices_then_calls_the_epoch_hook():
    pool = [10, 11, 12, 13, 14, 15, 16]
    events = []

    def step(chunk):
        events.append(("step", chunk.copy()))
        return float(chunk[0])

    means = flow_module.fit(2, lambda: pool, SeededRng(142), 3, step,
                            lambda epoch: events.append(("epoch", epoch)))
    # each epoch is one permutation of the pool, drawn in turn from the stream
    stream = SeededRng(142)
    orders = [np.asarray(pool)[stream.permutation(7)] for _ in range(2)]
    assert [kind for kind, _ in events] == ["step"] * 3 + ["epoch"] + ["step"] * 3 + ["epoch"]
    for epoch, order in enumerate(orders):
        chunks = [chunk for _, chunk in events[4 * epoch:4 * epoch + 3]]
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(chunks), order)
        assert events[4 * epoch + 3] == ("epoch", epoch)
        assert means[epoch] == float(np.mean([chunk[0] for chunk in chunks]))
    assert flow_module.fit(0, lambda: pool, SeededRng(142), 3, step) == []


@pytest.mark.parametrize("batch_size", [0, -3])
def test_fit_refuses_a_batch_size_below_one(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        flow_module.fit(1, lambda: range(4), SeededRng(143), batch_size, lambda chunk: 0.0)


@pytest.mark.parametrize("malformed", ["one gradient short", "one gradient over",
                                       "a flattened gradient", "a missing gradient"])
def test_fit_step_refuses_a_malformed_backward(malformed):
    # without the check a missed array would get the tape's zero fill, and
    # a flattened one would join the flat gradient as if it fit
    cfg = small_config()
    atom = np.zeros((2, 2, 2)); atom[:, :, 0] = 1.0
    bond = np.zeros((2, 2, 2, 2)); bond[:, :, :, 0] = 1.0
    params = init_flow(cfg, SeededRng(140), zero_last=False)
    opt = make_optimizer(params, lr=1e-2)
    train_step(params, atom, bond, opt, SeededRng(141))
    before = (opt.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.step,
              opt.grad.tobytes())

    def malformed_loss(p):
        def backward(g):
            grads = [np.ones(a.shape) for _, a in p.named_params()]
            if malformed == "one gradient short":
                del grads[3]
            elif malformed == "one gradient over":
                grads.append(np.ones(1))
            elif malformed == "a flattened gradient":
                grads[0] = grads[0].reshape(-1)
            else:
                grads[0] = None
            return grads

        return 1.0, backward

    with pytest.raises(ValueError, match="backward gave gradients of shapes"):
        flow_module.fit_step(params, malformed_loss, opt)
    assert (opt.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.step,
            opt.grad.tobytes()) == before


def test_atom_network_x_rows_get_zero_gradient():
    # a transformed row's own atom features are masked, so the first
    # n_atom_types input rows of every atom network multiply only zeros
    cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
    rng = SeededRng(43)
    params = init_flow(cfg, rng.spawn("init"), zero_last=False)
    dead = [mlp.w1[: cfg.n_atom_types].copy() for mlp in params.atom]
    atoms, bonds = tensor_batches(synthetic_corpus(32, rng.spawn("corpus"),
                                                   with_geometry=False).records, cfg.n_max)
    opt = make_optimizer(params, lr=1e-2)
    train_step(params, atoms, bonds, opt, rng.spawn("step"))
    deq = rng.spawn("grad")
    _, backward = mean_nll(params, dequantize(atoms, cfg.noise_scale, deq),
                           dequantize(bonds, cfg.noise_scale, deq))
    grads = dict(zip([n for n, _ in params.named_params()], backward(np.ones(()))))
    for i, mlp in enumerate(params.atom):
        assert not grads[f"flow.atom.{i}.w1"][: cfg.n_atom_types].any()
        assert grads[f"flow.atom.{i}.w1"][cfg.n_atom_types:].any()
        assert np.array_equal(mlp.w1[: cfg.n_atom_types], dead[i])


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
    rng = SeededRng(17)
    (z,), loglik = encode_molecules(params, [mol], [rng])
    # each coordinate is transformed three times by a 0.5 scale
    xa = z[: cfg.d_atom] * 8.0
    xb = z[cfg.d_atom:] * 8.0
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
    z, _ = encode_molecules(params, [rec.molecule for rec in corpus.records],
                            [rng.spawn(f"m{i}") for i in range(len(corpus.records))])
    for out, rec in zip(raw_decode_batch(params, z), corpus.records, strict=True):
        assert is_isomorphic(out, rec.molecule)


def test_encode_molecules_matches_one_molecule_encode():
    # molecule k draws its dequantization from rngs[k] alone, so a batched
    # row is the batch-of-one encode up to BLAS summation order, and a
    # batch of one is that encode bit for bit
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(24), zero_last=False)
    mols = [rec.molecule for rec in synthetic_corpus(40, SeededRng(25), with_geometry=False).records]
    rng = SeededRng(26)
    z, loglik = encode_molecules(params, mols, [rng.spawn(f"m{i}") for i in range(len(mols))])
    assert z.shape == (len(mols), cfg.d_total) and loglik.shape == (len(mols),)
    for i, mol in enumerate(mols):
        ref_z, ref_ll = reference_flow_encode(params, mol, rng.spawn(f"m{i}"))
        assert np.allclose(z[i], ref_z, rtol=0.0, atol=1e-12)
        assert abs(loglik[i] - ref_ll) <= 1e-12
        (one,), one_ll = encode_molecules(params, [mol], [rng.spawn(f"m{i}")])
        assert np.array_equal(one, ref_z) and float(one_ll[0]) == ref_ll


def test_decode_is_deterministic():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(20), zero_last=False)
    z = np.zeros((1, cfg.d_total))
    (first,) = raw_decode_batch(params, z)
    (second,) = raw_decode_batch(params, z)
    assert first == second


def test_decode_rejects_invalid_when_checking():
    cfg = FlowConfig()
    params = init_flow(cfg, SeededRng(21), zero_last=False)
    rng = SeededRng(22)
    zs = sample_prior(rng, cfg, temperature=0.7, count=200)
    rejected = sum(not valency_check(raw_decode_batch(params, zs[i:i + 1])[0])
                   for i in range(200))
    raw = raw_decode_batch(params, zs)
    invalid = sum(not valency_check(m) for m in raw)
    assert rejected == invalid
    assert rejected > 0  # untrained model at high temperature mostly invalid


def test_decoded_bond_tensor_symmetric_with_no_bond_diagonal():
    rng = SeededRng(23)
    xb = rng.normal((5, 9, 9, 4))
    disc = discretize_bonds(xb)
    assert np.array_equal(disc, disc.transpose(0, 2, 1))
    assert (disc[:, np.arange(9), np.arange(9)] == 0).all()
    assert np.array_equal(disc, scatter_discretize_bonds(xb).argmax(axis=3))


def test_discretize_bonds_averages_asymmetric_logits():
    xb = np.zeros((1, 3, 3, 4))
    xb[..., 0] = 0.6
    xb[0, 0, 1, 2] = 2.0   # asymmetric logit; the (0,1)/(1,0) average still wins
    orders = discretize_bonds(xb)
    assert orders[0].tolist() == [[0, 2, 0], [2, 0, 0], [0, 0, 0]]
    assert from_tensors(np.array([0, 0, PADDING_TYPE]), orders[0]).bonds == ((0, 1, 2),)


def test_atom_condition_reads_bond_orders_as_the_onehot_tensor():
    # by_order and adj_sum from the bond orders equal the per-order
    # adjacency slices of the one-hot tensor, bit for bit
    rng = SeededRng(24)
    for m in (2, 3, 4):
        xb = rng.normal((3, 5, 5, m))
        onehot = scatter_discretize_bonds(xb)
        by_order = onehot[..., 1:].transpose(0, 1, 3, 2).reshape(3, 5 * (m - 1), 5)
        adj_sum = onehot[..., 1:].sum(axis=3)
        cond = atom_condition(discretize_bonds(xb), m)
        for p in (0, 1):
            assert np.array_equal(cond[p][0], by_order[:, :, p::2])
            assert np.array_equal(cond[p][1], adj_sum[:, 1 - p::2])


def test_decode_tensors_gives_the_onehot_molecules_on_pinned_model():
    # from_tensors on the decoded atom types and bond orders builds the same
    # molecules as the one-hot reference on the continuous decode
    flow = load_pinned_model()
    cfg = flow.config
    rng = SeededRng(25)
    for temperature in (0.12, 0.7):
        z = sample_prior(rng, cfg, temperature=temperature, count=2048)
        types, orders = decode_tensors(flow, z)
        za = z[:, : cfg.d_atom].reshape(-1, cfg.n_max, cfg.n_atom_types)
        zb = z[:, cfg.d_atom:].reshape(-1, cfg.n_max, cfg.n_max, cfg.n_bond_types)
        xa, xb = decode_continuous(flow, za, zb)
        onehot = scatter_discretize_bonds(xb)
        got = [from_tensors(types[i], orders[i]) for i in range(len(z))]
        want = [onehot_from_tensors(xa[i], onehot[i]) for i in range(len(z))]
        assert got == want
        valid = [valency_check(m) for m in got]
        assert decode_batch(flow, z) == [m if ok else None for m, ok in zip(got, valid)]
        assert 0 < sum(valid) < len(got)
        screen = valence_prescreen(types, orders)
        assert screen.tolist() == [within_valence(m) for m in got]
        assert all(s for s, ok in zip(screen, valid) if ok)


def test_decode_batch_screens_rows_and_builds_only_prescreened_ones(monkeypatch):
    # decode_batch is the raw decode with each invalid row as None, and it
    # calls from_tensors once per distinct row that passes valence_prescreen;
    # equal rows share one Molecule
    built = []
    monkeypatch.setattr(flow_module, "from_tensors",
                        lambda types, orders: built.append(1) or from_tensors(types, orders))
    pinned = load_pinned_model()
    untrained = init_flow(FlowConfig(), SeededRng(27), zero_last=False)
    rng = SeededRng(26)
    for flow, temperature in ((pinned, 0.12), (pinned, 0.7), (untrained, 0.7)):
        z = sample_prior(rng, flow.config, temperature=temperature, count=2048)
        raw = raw_decode_batch(flow, z)
        types, orders = decode_tensors(flow, z)
        screen = valence_prescreen(types, orders)
        rows = [types[i].tobytes() + orders[i].tobytes() for i in range(len(z))]
        distinct = {rows[i] for i in np.flatnonzero(screen)}
        valid = [m if valency_check(m) else None for m in raw]
        built.clear()
        got = decode_batch(flow, z)
        assert got == valid
        assert len(built) == len(distinct)
        assert 0 < sum(m is not None for m in valid) < len(distinct) <= int(screen.sum()) < len(z)
        first = {}
        for row, mol in zip(rows, got):
            if mol is not None:
                assert first.setdefault(row, mol) is mol
        if temperature == 0.12:
            assert len(distinct) < int(screen.sum())


def test_round_trip_with_odd_bond_type_count():
    # with an odd channel count the two mask parities keep different numbers
    # of channels, so each bond network is sized by its own layer's parity
    cfg = FlowConfig(n_max=3, n_atom_types=3, n_bond_types=3, atom_layers=2, bond_layers=2,
                     atom_hidden=8, bond_hidden=8)
    params = init_flow(cfg, SeededRng(26), zero_last=False)
    assert [mlp.w1.shape[0] for mlp in params.bond] == [18, 9]
    rng = SeededRng(27)
    xa = rng.uniform(0.0, 1.0, (4, 3, 3))
    xb = rng.uniform(0.0, 1.0, (4, 3, 3, 3))
    za, zb, _, _ = encode_continuous(params, xa, xb)
    ya, yb = decode_continuous(params, za, zb)
    assert max(np.abs(ya - xa).max(), np.abs(yb - xb).max()) < 1e-9


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
    from oracles import gradient_check
    import molflow.autodiff as ad

    cfg = small_config()
    params = init_flow(cfg, SeededRng(32), zero_last=False)
    rng = SeededRng(33)
    cond = atom_condition(discretize_bonds(rng.uniform(0, 1, (1, 2, 2, 2))), 2)

    def f(x):
        z, logdet = coupling_node(atom_coupling, reshape(x, (1, 2, 2)), params.atom[0], 0, cond)
        return tsum(z * z) + tsum(logdet)

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
        view, leaves = traced(params)
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
