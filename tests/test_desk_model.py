"""Checks that need the session's desk-trained models."""

import numpy as np
import pytest

from molflow.autodiff import SeededRng
from molflow.chem import ELEMENTS, to_tensors, valency_check
from molflow.flow import dequantize, encode_tensors
from molflow.pipeline import excise_fragment, optimize_substructure
from molflow.spherenet import encode_geometry
from oracles import is_isomorphic, raw_decode_batch


def test_training_molecules_outscore_random_tensors(desk, corpus):
    """Encoded training molecules carry higher mean log-likelihood than
    uniform-random one-hot tensors after desk training."""
    params = desk["flow"]
    cfg = desk["config"]
    rng = SeededRng(301)
    records = corpus.records[:200]
    atoms = np.stack([to_tensors(r.molecule, cfg.n_max)[0] for r in records])
    bonds = np.stack([to_tensors(r.molecule, cfg.n_max)[1] for r in records])
    deq = rng.spawn("train")
    _, _, ll_train = encode_tensors(params, dequantize(atoms, cfg.noise_scale, deq),
                                    dequantize(bonds, cfg.noise_scale, deq))

    rand_atoms = np.zeros_like(atoms)
    rand_bonds = np.zeros_like(bonds)
    pick = rng.spawn("random")
    for b in range(len(records)):
        rand_atoms[b, np.arange(cfg.n_max), pick.integers(0, cfg.n_atom_types, cfg.n_max)] = 1.0
        q = pick.integers(0, cfg.n_bond_types, (cfg.n_max, cfg.n_max))
        q = np.triu(q, 1)
        q = q + q.T
        rand_bonds[b, np.arange(cfg.n_max)[:, None], np.arange(cfg.n_max)[None, :], q] = 1.0
    deq = rng.spawn("deq")
    _, _, ll_rand = encode_tensors(params, dequantize(rand_atoms, cfg.noise_scale, deq),
                                   dequantize(rand_bonds, cfg.noise_scale, deq))
    assert float(np.mean(ll_train)) > float(np.mean(ll_rand))


def test_noise_free_conditioning_frequently_reconstructs_seed(desk):
    """With no noise mixed in, decoding the geometry encoder's output gives
    back the seed molecule for a substantial fraction of the fusion set.
    The 40% floor is an empirically recorded margin for this fixture (the
    measured rate is well above it)."""
    hits = 0
    for rec in desk["fusion_set"]:
        g = rec.geometry(cutoff=desk["sphere_config"].cutoff)
        u_star = encode_geometry(g, desk["sphere"])
        (mol,) = raw_decode_batch(desk["flow"], u_star[None])
        if mol.num_atoms and is_isomorphic(mol, rec.molecule):
            hits += 1
    rate = hits / len(desk["fusion_set"])
    assert rate >= 0.40, f"reconstruction rate {rate:.2f}"


def test_substructure_replacement_on_desk_model(desk):
    seed_rec = desk["fusion_set"][0]
    host = seed_rec.molecule
    if host.num_atoms < 4:
        pytest.skip("fixture molecule too small")
    fragment = {host.num_atoms - 1}
    result = optimize_substructure(excise_fragment(host, fragment), desk["flow"],
                                   SeededRng(302), lam=0.2)
    if result.molecule is not None:
        assert valency_check(result.molecule)
    assert result.candidates_tried <= 100
