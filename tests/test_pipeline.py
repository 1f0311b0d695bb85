import numpy as np
import pytest

from molflow.autodiff import SeededRng
from molflow.chem import (
    Molecule,
    is_isomorphic,
    parse_smiles,
    valency_check,
    write_smiles,
)
from molflow.dataset import DatasetRecord, synthetic_corpus
from molflow.flow import FlowConfig, init_flow
from molflow.pipeline import (
    CRIPPEN_CONTRIB,
    LinearHead,
    attach_fragment,
    compute_plogp,
    compute_qed_lite,
    crippen_logp,
    evaluate_similarity_baseline,
    excise_fragment,
    generate_random,
    generate_similar,
    novelty_pct,
    optimize_property,
    qed_descriptors,
    ring_penalty,
    sa_proxy,
    similarity_triple,
    train_flow,
    train_property_head,
    uniqueness_pct,
)
from molflow.spherenet import SphereNetConfig, init_spherenet

C = CRIPPEN_CONTRIB


# ---------------------------------------------------------------------------
# penalized logP
# ---------------------------------------------------------------------------


def test_plogp_methane_from_table():
    # aliphatic carbon plus four hydrocarbon hydrogens, minus the size term
    expected_logp = C["C_aliphatic"] + 4 * C["H_on_C"]
    assert crippen_logp(parse_smiles("C")) == pytest.approx(expected_logp)
    assert compute_plogp(parse_smiles("C")) == pytest.approx(expected_logp - 0.1)


def test_plogp_seven_ring_vs_six_ring_analogue():
    # same formula C7H14; only the large-ring penalty differs
    seven = parse_smiles("C1CCCCCC1")
    six = parse_smiles("CC1CCCCC1")
    assert crippen_logp(seven) == pytest.approx(crippen_logp(six))
    assert sa_proxy(seven) == pytest.approx(sa_proxy(six))
    assert ring_penalty(seven) == 1.0 and ring_penalty(six) == 0.0
    assert compute_plogp(seven) == pytest.approx(compute_plogp(six) - 1.0)


def test_logp_grows_with_chain_length():
    values = [crippen_logp(parse_smiles("C" * n)) for n in range(1, 7)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_plogp_permutation_invariant(rng):
    from molflow.dataset import random_molecule

    for _ in range(30):
        m = random_molecule(rng)
        perm = [int(i) for i in rng.permutation(m.num_atoms)]
        inv = {a: k for k, a in enumerate(perm)}
        from molflow.chem import Molecule

        pm = Molecule.build(tuple(m.elements[a] for a in perm),
                            [(inv[i], inv[j], o) for i, j, o in m.bonds])
        assert compute_plogp(pm) == pytest.approx(compute_plogp(m), abs=1e-12)
        assert compute_qed_lite(pm) == pytest.approx(compute_qed_lite(m), abs=1e-12)


# ---------------------------------------------------------------------------
# QED-lite
# ---------------------------------------------------------------------------


def test_qed_all_desirabilities_one():
    # cyclohexanol: every descriptor sits on its flat-top segment
    assert compute_qed_lite(parse_smiles("OC1CCCCC1")) == 1.0


def test_qed_zero_when_any_desirability_zero():
    # methane's weight (16.04) is below the 20 cutoff
    assert compute_qed_lite(parse_smiles("C")) == 0.0


def test_qed_hand_evaluated_product():
    # acetamide CC(N)=O: MW 59.068, logP from the table, everything else
    # on a flat segment; QED = (mw_tent * logp_tent)^(1/6)
    m = parse_smiles("CC(N)=O")
    desc = qed_descriptors(m)
    assert desc["mol_weight"] == pytest.approx(59.068)
    hand_logp = (C["C_aliphatic"] + C["C_hetero_multi"] + C["N_primary"]
                 + C["O_carbonyl"] + 3 * C["H_on_C"] + 2 * C["H_on_hetero"])
    assert desc["logp"] == pytest.approx(hand_logp)
    assert (desc["h_donors"], desc["h_acceptors"]) == (1.0, 2.0)
    assert (desc["rings"], desc["rotatable"]) == (0.0, 0.0)
    mw_tent = (59.068 - 20.0) / 40.0
    logp_tent = (hand_logp + 3.0) / 2.0
    assert compute_qed_lite(m) == pytest.approx((mw_tent * logp_tent) ** (1.0 / 6.0))


# ---------------------------------------------------------------------------
# set metrics
# ---------------------------------------------------------------------------


def test_uniqueness_definition():
    assert uniqueness_pct(["a", "a", "b"]) == pytest.approx(100 * 2 / 3)
    assert uniqueness_pct([]) == 0.0


def test_novelty_definition():
    assert novelty_pct(["m1", "m2"], {"m1"}) == pytest.approx(50.0)
    assert novelty_pct(["m1", "m1", "m2"], {"m1"}) == pytest.approx(50.0)
    assert novelty_pct(["x"], set()) == 100.0


def test_metrics_against_brute_force_oracle():
    generated = ["CC", "CC", "CCO", "C", "C1CC1"]
    training = {"C", "CC"}
    unique = set(generated)
    assert uniqueness_pct(generated) == pytest.approx(100 * len(unique) / len(generated), abs=1e-12)
    assert novelty_pct(generated, training) == pytest.approx(
        100 * len(unique - training) / len(unique), abs=1e-12)


# ---------------------------------------------------------------------------
# similarity baseline
# ---------------------------------------------------------------------------


def make_records(smiles):
    return [DatasetRecord(smiles=s, molecule=parse_smiles(s)) for s in smiles]


def test_baseline_identical_molecules_all_one():
    recs = make_records(["CCO"] * 6)
    result = evaluate_similarity_baseline(recs, SeededRng(90))
    assert result["mean_tanimoto"] == 1.0
    assert result["mean_fraggle"] == 1.0
    assert result["mean_maccs"] == 1.0


def test_baseline_matches_brute_force_on_fixed_split():
    recs = make_records(["CCO", "C1CC1", "CC(=O)N", "CCCC"])
    seed = 91
    result = evaluate_similarity_baseline(recs, SeededRng(seed))
    order = [int(i) for i in SeededRng(seed).permutation(4)]
    pairs = [(order[0], order[2]), (order[1], order[3])]
    triples = [similarity_triple(recs[a].molecule, recs[b].molecule) for a, b in pairs]
    assert result["mean_tanimoto"] == pytest.approx(np.mean([t[0] for t in triples]), abs=1e-12)
    assert result["mean_fraggle"] == pytest.approx(np.mean([t[1] for t in triples]), abs=1e-12)
    assert result["mean_maccs"] == pytest.approx(np.mean([t[2] for t in triples]), abs=1e-12)


def test_baseline_needs_two_molecules():
    with pytest.raises(ValueError):
        evaluate_similarity_baseline(make_records(["C"]), SeededRng(92))


# ---------------------------------------------------------------------------
# property head
# ---------------------------------------------------------------------------


def test_property_head_recovers_linear_function():
    rng = SeededRng(93)
    latents = rng.normal((300, 10))
    w = rng.normal((10,))
    values = latents @ w + 0.5
    head, r2 = train_property_head(latents, values, rng.spawn("head"), epochs=150)
    assert r2 > 0.99


def test_property_head_null_on_shuffled_targets():
    rng = SeededRng(94)
    latents = rng.normal((200, 8))
    values = latents @ rng.normal((8,))
    shuffled = values[rng.permutation(200)]
    _, r2 = train_property_head(latents, shuffled, rng.spawn("head"), epochs=60)
    assert r2 < 0.3


def test_property_head_deterministic():
    def run():
        rng = SeededRng(95)
        latents = rng.normal((80, 6))
        values = latents @ rng.normal((6,))
        head, _ = train_property_head(latents, values, rng.spawn("head"), epochs=30)
        return [a.copy() for _, a in head.named_params()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_property_head_rejects_degenerate_input():
    rng = SeededRng(96)
    with pytest.raises(ValueError):
        train_property_head(rng.normal((60, 4)), np.ones(60), rng)
    with pytest.raises(ValueError):
        train_property_head(rng.normal((10, 4)), np.arange(10.0), rng)


# ---------------------------------------------------------------------------
# latent ascent
# ---------------------------------------------------------------------------


def test_linear_head_ascent_closed_form():
    rng = SeededRng(97)
    for _ in range(20):
        c = rng.normal((12,))
        head = LinearHead(c)
        step = 0.1
        traj = optimize_property(rng.normal((12,)), head, steps=5, step_size=step)
        expected = step * float(c @ c)
        gains = [b.predicted - a.predicted for a, b in zip(traj.points, traj.points[1:])]
        assert gains == pytest.approx([expected] * 5, rel=1e-12)


def test_ascent_zero_step_is_constant():
    head = LinearHead(np.ones(4))
    traj = optimize_property(np.zeros(4), head, steps=4, step_size=0.0)
    assert all(p.predicted == 0.0 for p in traj.points)
    assert len(traj.points) == 5


def test_ascent_records_gaps_and_continues(rng):
    cfg = FlowConfig()
    flow = init_flow(cfg, SeededRng(98), zero_last=False)
    head = LinearHead(rng.normal((cfg.d_total,)))
    traj = optimize_property(rng.normal((cfg.d_total,)) * 0.7, head, steps=6,
                             step_size=0.05, flow_params=flow,
                             property_fn=compute_plogp)
    assert len(traj.points) == 7
    # with an untrained flow most decodes reject; predicted values still march
    gains = [b.predicted - a.predicted for a, b in zip(traj.points, traj.points[1:])]
    assert all(g > 0 for g in gains)


def test_ascent_validates_arguments():
    head = LinearHead(np.ones(2))
    with pytest.raises(ValueError):
        optimize_property(np.zeros(2), head, steps=0, step_size=0.1)
    with pytest.raises(ValueError):
        optimize_property(np.zeros(2), head, steps=1, step_size=-0.1)


# ---------------------------------------------------------------------------
# substructure replacement
# ---------------------------------------------------------------------------


def test_excise_validates_fragment():
    host = parse_smiles("CC(C)CO")
    with pytest.raises(ValueError):
        excise_fragment(host, set())
    with pytest.raises(ValueError):
        excise_fragment(host, set(range(host.num_atoms)))
    with pytest.raises(ValueError):
        excise_fragment(host, {0, 4})  # disconnected pair


def test_identity_replacement_reconstructs_host():
    host = parse_smiles("CC(C)CO")
    pieces = excise_fragment(host, {4})
    merged = attach_fragment(pieces.remainder, pieces.attachments, pieces.fragment)
    assert merged is not None and is_isomorphic(merged, host)


def test_attachment_matches_brute_force_fit_rule():
    # one attachment point, two candidate atoms with different free valence
    host = parse_smiles("CCO")
    pieces = excise_fragment(host, {2})
    candidate = parse_smiles("CN")
    merged = attach_fragment(pieces.remainder, pieces.attachments, candidate)
    # brute force: C has free 3 (slack 2), N has free 2 (slack 1) -> N wins
    assert merged is not None
    assert is_isomorphic(merged, parse_smiles("CCNC"))


def test_attachment_returns_none_when_nothing_fits():
    host = parse_smiles("C=CC")
    pieces = excise_fragment(host, {2})
    # attachment needs one free valence; F2-like candidate has none anywhere
    from molflow.chem import Molecule

    saturated = parse_smiles("FF") if False else Molecule.build(("F", "F"), [(0, 1, 1)])
    assert attach_fragment(pieces.remainder, pieces.attachments, saturated) is None


def test_replacement_output_always_valid(rng):
    from molflow.dataset import random_molecule

    count = 0
    while count < 25:
        host = random_molecule(rng)
        if host.num_atoms < 4 or not valency_check(host):
            continue
        fragment = {host.num_atoms - 1}
        try:
            pieces = excise_fragment(host, fragment)
        except ValueError:
            continue
        candidate = random_molecule(rng)
        merged = attach_fragment(pieces.remainder, pieces.attachments, candidate)
        if merged is not None:
            assert valency_check(merged)
        count += 1


# ---------------------------------------------------------------------------
# generation plumbing
# ---------------------------------------------------------------------------


def test_generate_random_without_check_counts_raw_validity():
    cfg = FlowConfig()
    flow = init_flow(cfg, SeededRng(99), zero_last=False)
    mols, report = generate_random(flow, 50, check=False, temperature=0.7,
                                   rng=SeededRng(100))
    assert report.returned == 50 and len(mols) == 50
    assert report.raw_attempts == 50
    assert report.validity_pct == pytest.approx(report.validity_wo_check_pct)
    # decoding in batches of 16 draws the same latents as one batch of 50
    _, chunked = generate_random(flow, 50, check=False, temperature=0.7,
                                 rng=SeededRng(100), batch_size=16)
    assert chunked == report


def test_generate_random_with_check_returns_only_valid():
    cfg = FlowConfig()
    flow = init_flow(cfg, SeededRng(101), zero_last=False)
    mols, report = generate_random(flow, 20, check=True, temperature=0.7,
                                   rng=SeededRng(102), max_attempts_per=50)
    assert all(valency_check(m) for m in mols)
    if report.returned:
        assert report.validity_pct == 100.0
    assert report.cap_exhausted == (report.returned < 20)


def test_generate_similar_canonicalizes_each_accepted_molecule_once(monkeypatch):
    import molflow.pipeline as pipeline_module

    cfg = FlowConfig(atom_hidden=8, bond_hidden=8, atom_layers=2, bond_layers=2)
    flow = init_flow(cfg, SeededRng(1))
    sphere = init_spherenet(SphereNetConfig(hidden=8, out_dim=cfg.d_total), SeededRng(2))
    seeds = synthetic_corpus(2, SeededRng(3), with_geometry=True).records
    over = Molecule.build(("C",) + ("F",) * 5, [(0, k, 1) for k in range(1, 6)])
    good = parse_smiles("CC(=O)N")
    # each decoded batch: one over-valent candidate, then accepted ones
    monkeypatch.setattr(pipeline_module, "decode_batch",
                        lambda params, zs: [over] + [good] * (len(zs) - 1))
    written = []
    real_write = pipeline_module.write_smiles
    monkeypatch.setattr(pipeline_module, "write_smiles",
                        lambda m: written.append(m) or real_write(m))
    out, report = generate_similar(flow, sphere, seeds, 0.2, SeededRng(4),
                                   per_seed=2, batch_size=4)
    assert out == [good] * 4 and report.failures == 0
    assert [row[1] for row in report.rows] == [real_write(good)] * 4
    assert written == [good] * 4


def test_moving_average_window():
    from oracles import moving_average

    assert moving_average([4.0, 2.0, 0.0], 1) == [4.0, 2.0, 0.0]
    assert moving_average([4.0, 2.0, 0.0], 2) == [3.0, 1.0]


def test_train_flow_rejects_weight_table_of_other_length():
    from molflow.docking import DockingRecord, compute_weights

    rng = SeededRng(104)
    records = synthetic_corpus(10, rng.spawn("c"), with_geometry=False).records
    flow = init_flow(FlowConfig(atom_hidden=8, bond_hidden=8), rng.spawn("i"))
    for n in (len(records) - 1, len(records) + 1):
        table = compute_weights([DockingRecord(str(i), -1.0 - i) for i in range(n)])
        with pytest.raises(ValueError, match="weight table"):
            train_flow(flow, records, epochs=1, rng=rng.spawn("t"), weight_table=table,
                       probe_count=4)


def test_train_flow_with_weight_table_is_deterministic():
    from molflow.docking import DockingRecord, compute_weights

    def run():
        rng = SeededRng(103)
        corpus = synthetic_corpus(30, rng.spawn("c"), with_geometry=False)
        cfg = FlowConfig(atom_hidden=16, bond_hidden=16)
        flow = init_flow(cfg, rng.spawn("i"))
        table = compute_weights(
            [DockingRecord(str(i), -(1.0 + i % 5)) for i in range(30)])
        result = train_flow(flow, corpus.records, epochs=3, rng=rng.spawn("t"),
                            batch_size=10, weight_table=table,
                            probe_every=2, probe_count=20)
        return result.epoch_nll

    assert run() == run()
