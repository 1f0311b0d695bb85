import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from molflow.autodiff import SeededRng, Tensor
from molflow.chem import (
    MORGAN_BITS,
    Molecule,
    morgan_fingerprint,
    parse_smiles,
    to_hex,
    valency_check,
    write_smiles,
)
from molflow.dataset import DatasetRecord, synthetic_corpus
from molflow.flow import FlowConfig, encode_molecules, init_flow
from molflow.pipeline import (
    CRIPPEN_CONTRIB,
    MAX_MIXES,
    MIX_BATCH,
    PropertyHead,
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
    optimize_substructure,
    qed_descriptors,
    ring_penalty,
    sa_proxy,
    safe_canonical,
    similarity_triple,
    train_flow,
    train_property_head,
    uniqueness_pct,
)
from molflow.spherenet import SphereNetConfig, init_spherenet, train_fusion
from oracles import (LinearHead, from_tape, is_isomorphic, pair_similarity_triple,
                     reference_fit_step, reference_generate_random, reference_generate_similar,
                     reference_make_optimizer,
                     reference_optimize_property, reference_optimize_substructure, tape_mse,
                     tape_value_and_grad)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

C = CRIPPEN_CONTRIB


def load_fixture():
    """perfbench's fixture module: the pinned model and its fusion set."""
    spec = importlib.util.spec_from_file_location("perfbench_fixture", PERFBENCH / "fixture.py")
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    return fixture


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
    triples = [pair_similarity_triple(recs[a].molecule, recs[b].molecule) for a, b in pairs]
    assert result["mean_tanimoto"] == pytest.approx(np.mean([t[0] for t in triples]), abs=1e-12)
    assert result["mean_fraggle"] == pytest.approx(np.mean([t[1] for t in triples]), abs=1e-12)
    assert result["mean_maccs"] == pytest.approx(np.mean([t[2] for t in triples]), abs=1e-12)


def test_similarity_scores_and_morgan_hex_are_pinned():
    # every similarity_triple, the baseline means and each Morgan hex of a
    # fixed corpus, hashed; the digest was recorded with set-based
    # fingerprints, before they became int bitsets
    corpus = synthetic_corpus(400, SeededRng(19).spawn("pinned-similarity"), with_geometry=False)
    mols = [r.molecule for r in corpus.records]
    digest = hashlib.sha256()
    for triple in similarity_triple(list(zip(mols[::2], mols[1::2]))):
        digest.update(repr(triple).encode())
    baseline = evaluate_similarity_baseline(corpus.records, SeededRng(19).spawn("baseline"))
    digest.update(repr(baseline).encode())
    for fp in morgan_fingerprint(mols):
        digest.update(to_hex(fp, MORGAN_BITS).encode())
    assert len(mols) == 400 and baseline["pairs"] == 200.0
    assert digest.hexdigest() == "a8cb1f32e1d75003e96bdbe401e7b896b4232598fc586324c09b8d32f289a532"


def test_similarity_triple_matches_per_pair_oracle():
    # one call over pairs that repeat molecules, pair a molecule with itself
    # and repeat whole pairs: each score is the per-pair oracle's
    mols = [r.molecule for r in synthetic_corpus(30, SeededRng(24).spawn("triples"),
                                                 with_geometry=False).records]
    rng = SeededRng(25)
    pairs = [(mols[int(a)], mols[int(b)]) for a, b in rng.integers(0, 12, (40, 2))]
    pairs += [(m, m) for m in mols[:5]] + pairs[:3]
    got = similarity_triple(pairs)
    assert got == [pair_similarity_triple(a, b) for a, b in pairs]
    assert got[40:45] == [(1.0, 1.0, 1.0)] * 5
    assert similarity_triple([]) == []


def test_similarity_report_and_baseline_are_pinned():
    # the full SimilarityReport of generate_similar on the pinned model (rows
    # with all three scores, the means and failures) and one baseline dict,
    # hashed; perfbench's similar digest covers the SMILES only. Both values
    # were recorded while each pair was still scored on its own
    fixture = load_fixture()
    flow, sphere = fixture.load_model()
    records = fixture.load_geometry_set(flow.config.n_max)
    seeds = [records[int(i)] for i in SeededRng(26).integers(0, len(records), 24)]
    _, report = generate_similar(flow, sphere, seeds, 0.2, SeededRng(27))
    assert len(report.rows) == 24 and report.failures == 0
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert digest == "a8a9e90b9490d21fdcb78b3f460d96147f709659fca00274d3273f7dac4d10a4"
    corpus = synthetic_corpus(300, SeededRng(28).spawn("pinned-baseline"), with_geometry=False)
    baseline = evaluate_similarity_baseline(corpus.records, SeededRng(29), sample_size=96)
    assert baseline["pairs"] == 48.0
    assert hashlib.sha256(repr(baseline).encode()).hexdigest() == (
        "9d9fee72f5e99a80abad71b64d7857ebe627687292b47dfe6e4c07840e9c5d77")


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


def test_property_head_equals_the_tape_bit_for_bit(monkeypatch):
    # value_and_grad, and a trained head's parameters, against the head
    # composed of tape nodes
    rng = SeededRng(98)
    latents = rng.normal((80, 6))
    values = latents @ rng.normal((6,))

    def run():
        head, r2 = train_property_head(latents, values, SeededRng(99), epochs=20)
        return head, r2, [a.tobytes() for _, a in head.named_params()]

    head, r2, arrays = run()
    for z in rng.normal((5, 6)):
        value, grad = head.value_and_grad(z)
        tape_value, tape_grad = tape_value_and_grad(head, z)
        assert value == tape_value and grad.tobytes() == tape_grad.tobytes()
    monkeypatch.setattr(PropertyHead, "mse", from_tape(tape_mse))
    assert run()[1:] == (r2, arrays)


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


def test_ascent_decodes_every_point_as_the_per_point_loop():
    # the trajectory is decoded in one batch after the ascent; each point's
    # molecule (or None for a valency rejection) and property value must be
    # those of decoding that point alone, on the pinned model
    fixture = load_fixture()
    flow, _ = fixture.load_model()
    mols = [rec.molecule for rec in fixture.load_geometry_set(flow.config.n_max)[:6]]
    rng = SeededRng(99)
    starts, _ = encode_molecules(flow, mols, [rng.spawn(f"m{i}") for i in range(len(mols))])
    head = LinearHead(rng.normal((flow.config.d_total,)))
    kinds = set()
    for z0 in starts:
        want = reference_optimize_property(z0, head, 12, 0.02, flow, compute_plogp)
        got = optimize_property(z0, head, steps=12, step_size=0.02, flow_params=flow,
                                property_fn=compute_plogp)
        assert len(got.points) == len(want.points) == 13
        for a, b in zip(got.points, want.points):
            assert np.array_equal(a.latent, b.latent) and a.predicted == b.predicted
            assert a.molecule == b.molecule and a.actual == b.actual
            kinds.add(a.molecule is None)
    assert kinds == {True, False}


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


def test_generate_random_equals_the_per_row_reference_on_pinned_model(monkeypatch):
    # every row built and checked on its own and every kept molecule
    # canonicalized on its own give the same molecules and report; the call
    # writes each distinct molecule once. At 0.7 the check exhausts its cap,
    # and without it no row is valid
    import molflow.pipeline as pipeline_module

    fixture = load_fixture()
    flow, _ = fixture.load_model()
    training = {write_smiles(r.molecule) for r in fixture.load_geometry_set(flow.config.n_max)}
    written = []
    monkeypatch.setattr(pipeline_module, "safe_canonical",
                        lambda m: written.append(m) or safe_canonical(m))
    for k, (temperature, check) in enumerate([(0.12, True), (0.12, False),
                                              (0.7, True), (0.7, False)]):
        want_mols, want = reference_generate_random(flow, 100, check, temperature,
                                                    SeededRng(60 + k), training)
        written.clear()
        mols, report = generate_random(flow, 100, check, temperature, SeededRng(60 + k), training)
        assert mols == want_mols
        assert report == want
        distinct = {m for m in mols if m is not None}
        assert len(written) == len(distinct) and set(written) == distinct
        assert report.cap_exhausted == (temperature == 0.7 and check)
        if temperature == 0.12:
            assert len(distinct) < report.returned and 0 < report.novelty_pct < 100.0


def test_generate_random_entries_are_pinned():
    # the decode -> molecule -> canonical SMILES path on the pinned model,
    # hashed; a byte moved anywhere on it fails here
    flow, _ = load_fixture().load_model()
    _, report = generate_random(flow, 300, check=True, temperature=0.12, rng=SeededRng(25))
    digest = hashlib.sha256("\n".join(map(repr, report.entries)).encode()).hexdigest()
    assert (report.returned, report.raw_attempts) == (300, 1024)
    assert digest == "8423f88c0c09746a9aff226696570a59642029b190bb04e3ea6c69ac5ea6274b"


def test_generate_similar_canonicalizes_each_accepted_molecule_once(monkeypatch):
    import molflow.pipeline as pipeline_module

    cfg = FlowConfig(atom_hidden=8, bond_hidden=8, atom_layers=2, bond_layers=2)
    flow = init_flow(cfg, SeededRng(1))
    sphere = init_spherenet(SphereNetConfig(hidden=8, out_dim=cfg.d_total), SeededRng(2))
    seeds = synthetic_corpus(2, SeededRng(3), with_geometry=True).records
    good = parse_smiles("CC(=O)N")
    # each decoded batch: one row that failed the valency check, then accepted ones
    monkeypatch.setattr(pipeline_module, "decode_batch",
                        lambda params, zs: [None] + [good] * (len(zs) - 1))
    written = []
    real_write = pipeline_module.write_smiles
    monkeypatch.setattr(pipeline_module, "write_smiles",
                        lambda m: written.append(m) or real_write(m))
    out, report = generate_similar(flow, sphere, seeds + seeds, 0.2, SeededRng(4))
    assert out == [good] * 4 and report.failures == 0
    assert [row[1] for row in report.rows] == [real_write(good)] * 4
    assert written == [good] * 4


def test_noise_mix_sampling_is_pinned():
    # values recorded before generate_similar and optimize_substructure were
    # merged onto one sampling loop: same spawn streams, same draw order
    cfg = FlowConfig(atom_hidden=8, bond_hidden=8, atom_layers=2, bond_layers=2)
    flow = init_flow(cfg, SeededRng(5), zero_last=False)
    sphere = init_spherenet(SphereNetConfig(hidden=8, out_dim=cfg.d_total), SeededRng(1005))
    seeds = synthetic_corpus(2, SeededRng(3), with_geometry=True).records
    _, report = generate_similar(flow, sphere, seeds, 0.5, SeededRng(3005))
    assert [row[1] for row in report.rows] == ["CCC", "CC"]
    host = parse_smiles("CC(C)CO")
    found = optimize_substructure(host, {3, 4}, flow, SeededRng(18), lam=0.5)
    # candidates_tried is the position of the mix that fits
    assert (write_smiles(found.molecule), found.candidates_tried) == ("CC(C)C#C", 41)
    # a flow that never fits draws all 100 mixes
    other = init_flow(cfg, SeededRng(2), zero_last=False)
    missed = optimize_substructure(host, {3, 4}, other, SeededRng(2002), lam=0.2)
    assert (missed.molecule, missed.candidates_tried, missed.replaced_ok) == (None, 100, False)


def test_optimize_substructure_matches_one_mix_at_a_time():
    # hits in the first round and in later ones, and misses: the molecule and
    # candidates_tried (the accepted mix's position) are the one-at-a-time ones
    cfg = FlowConfig(atom_hidden=8, bond_hidden=8, atom_layers=2, bond_layers=2)
    hosts = [("CC(C)CO", {3, 4}), ("CC(C)CO", {0}), ("NCC(=O)O", {2, 3, 4}), ("CC#N", {2})]
    tried = set()
    for flow_seed in (5, 7, 2):
        flow = init_flow(cfg, SeededRng(flow_seed), zero_last=False)
        for smiles, atoms in hosts:
            for lam in (0.2, 0.5):
                host = parse_smiles(smiles)
                got = optimize_substructure(host, atoms, flow, SeededRng(18 + flow_seed), lam)
                want = reference_optimize_substructure(host, atoms, flow,
                                                       SeededRng(18 + flow_seed), lam)
                assert got == want
                tried.add(got.candidates_tried)
    assert min(tried) <= MIX_BATCH and any(8 * MIX_BATCH < t < 100 for t in tried)
    assert 100 in tried


def _recording_decodes(monkeypatch):
    """Patch pipeline.decode_batch to record the size of every block."""
    import molflow.pipeline as pipeline_module

    sizes = []
    real = pipeline_module.decode_batch
    monkeypatch.setattr(pipeline_module, "decode_batch",
                        lambda params, zs: sizes.append(len(zs)) or real(params, zs))
    return sizes


def test_generate_similar_matches_per_seed_loop_on_pinned_model(monkeypatch):
    # 40 seeds drawn with replacement from the benchmark's pinned model and
    # fusion set, some of them repeated
    fixture = load_fixture()
    flow, sphere = fixture.load_model()
    records = fixture.load_geometry_set(flow.config.n_max)
    picks = SeededRng(40).integers(0, len(records), 40)
    seeds = [records[int(i)] for i in picks]
    assert len({id(r) for r in seeds}) < len(seeds)
    want_out, want = reference_generate_similar(flow, sphere, seeds, 0.2, SeededRng(41))
    sizes = _recording_decodes(monkeypatch)
    out, report = generate_similar(flow, sphere, seeds, 0.2, SeededRng(41))
    # one block per round (40 seeds times MIX_BATCH mixes is under 1024)
    assert [size // MIX_BATCH for size in sizes] == [40, 14, 12, 8, 7, 7, 2, 1]
    assert [size % MIX_BATCH for size in sizes] == [0] * len(sizes)
    assert report.failures == 0
    assert out == want_out
    assert report == want
    # blocks of 16 seeds split the first rounds: the rows stay the same
    import molflow.pipeline as pipeline_module

    monkeypatch.setattr(pipeline_module, "DECODE_BLOCK", 16 * MIX_BATCH)
    sizes.clear()
    out, report = generate_similar(flow, sphere, seeds, 0.2, SeededRng(41))
    assert [size // MIX_BATCH for size in sizes[:4]] == [16, 16, 8, 14]
    assert out == want_out
    assert report == want


def test_generate_similar_matches_per_seed_loop_over_rounds(monkeypatch):
    # an untrained flow: seeds accept over several rounds, and two draw all
    # 100 mixes and fail; the last two seeds repeat records. The reference
    # draws in rounds of 32, so the rows do not depend on the rounds
    cfg = FlowConfig(atom_hidden=8, bond_hidden=8, atom_layers=2, bond_layers=2)
    flow = init_flow(cfg, SeededRng(7), zero_last=False)
    sphere = init_spherenet(SphereNetConfig(hidden=8, out_dim=cfg.d_total), SeededRng(1007))
    records = synthetic_corpus(6, SeededRng(3), with_geometry=True).records
    seeds = records + records[:2]
    want_out, want = reference_generate_similar(flow, sphere, seeds, 0.5, SeededRng(7))
    sizes = _recording_decodes(monkeypatch)
    out, report = generate_similar(flow, sphere, seeds, 0.5, SeededRng(7))
    # a seed that never fits goes through every round, one block each
    assert len(sizes) == MAX_MIXES // MIX_BATCH
    pending = [size // MIX_BATCH for size in sizes]
    assert [size % MIX_BATCH for size in sizes] == [0] * len(sizes)
    assert pending[0] == len(seeds) and pending == sorted(pending, reverse=True)
    assert pending[0] > pending[-1] == report.failures > 0
    assert out == want_out
    assert report == want


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


def _calls_per_fit_step(monkeypatch, patch) -> dict[str, list[int]]:
    """For each trainer, the calls per fit_step of what ``patch(count)``
    patches in, where the patched function calls ``count()`` once a call."""
    from molflow import flow, pipeline, spherenet

    per_step = []
    real_fit_step = flow.fit_step

    def count():
        per_step[-1] += 1

    def counting_fit_step(*args, **kwargs):
        per_step.append(0)
        return real_fit_step(*args, **kwargs)

    patch(count)
    for module in (flow, spherenet, pipeline):
        monkeypatch.setattr(module, "fit_step", counting_fit_step)
    rng = SeededRng(106)
    corpus = synthetic_corpus(12, rng.spawn("c"), with_geometry=True)
    cfg = FlowConfig(atom_hidden=8, bond_hidden=8)
    params = init_flow(cfg, rng.spawn("f"))
    sphere = init_spherenet(SphereNetConfig(hidden=8, out_dim=cfg.d_total), rng.spawn("s"))
    trainers = {
        "train_flow": lambda: train_flow(params, corpus.records, epochs=2, rng=rng.spawn("t"),
                                         batch_size=4, probe_every=1, probe_count=4),
        "train_fusion": lambda: train_fusion(corpus.records[:6], params, sphere, epochs=2,
                                             rng=rng.spawn("u"), batch_size=4),
        "train_property_head": lambda: train_property_head(
            rng.normal((60, 4)), rng.normal((60,)), rng.spawn("h"), epochs=2),
    }
    counts = {}
    for name, train in trainers.items():
        per_step.clear()
        train()
        counts[name] = list(per_step)
    return counts


def test_every_fit_step_walks_the_tape_once(monkeypatch):
    # the benchmark counts training steps as Tensor.backward calls
    real_backward = Tensor.backward

    def patch(count):
        def counting_backward(self):
            count()
            real_backward(self)

        monkeypatch.setattr(Tensor, "backward", counting_backward)

    for name, per_step in _calls_per_fit_step(monkeypatch, patch).items():
        assert len(per_step) > 1 and set(per_step) == {1}, (name, per_step)


def test_every_fit_step_takes_one_adam_step(monkeypatch):
    # the benchmark's train workload shows the Adam step's calls, which it
    # traces where fit_step looks adam_step up: in flow's globals
    from molflow import flow

    real_adam_step = flow.adam_step

    def patch(count):
        def counting_adam_step(*args, **kwargs):
            count()
            return real_adam_step(*args, **kwargs)

        monkeypatch.setattr(flow, "adam_step", counting_adam_step)

    for name, per_step in _calls_per_fit_step(monkeypatch, patch).items():
        assert len(per_step) > 1 and set(per_step) == {1}, (name, per_step)


def test_property_head_fit_equals_the_per_array_adam_bit_for_bit(monkeypatch):
    # the head trained on one flat vector, then with a per-array Adam update
    # and no vector; the denormalizing fold writes into the same arrays
    from molflow import pipeline

    rng = SeededRng(135)
    latents = rng.normal((80, 6))
    values = latents @ rng.normal((6,))

    def run():
        head, r2 = train_property_head(latents, values, SeededRng(136), epochs=20)
        return r2, [a.tobytes() for _, a in head.named_params()]

    flat = run()
    monkeypatch.setattr(pipeline, "make_optimizer", reference_make_optimizer)
    monkeypatch.setattr(pipeline, "fit_step", reference_fit_step)
    assert run() == flat
