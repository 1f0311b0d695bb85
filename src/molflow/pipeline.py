"""End-to-end tasks: generation, evaluation, property and substructure
optimization, and desk-scale training orchestration.

Set metrics follow the canonical-SMILES set semantics: uniqueness is
|unique| / |valid| and novelty is |unique minus training| / |unique|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
# unused here, but perfbench's tracer patches pipeline.adam_step
from .autodiff import SeededRng, adam_step  # noqa: F401
from .chem import (
    Molecule,
    connected_components,
    fraggle_similarity,
    fusion_atoms,
    h_acceptor_count,
    h_donor_count,
    largest_ring_size,
    maccs_similarity,
    molecular_weight,
    morgan_fingerprint,
    canonical_rank,
    ring_count,
    rotatable_bond_count,
    subgraph,
    tanimoto,
    valency_check,
    write_smiles,
)
from .dataset import DatasetRecord, tensor_batches
from .docking import WeightTable, sample_epoch
from .flow import (
    FlowParams,
    Mlp,
    ParamTree,
    apply_mlp,
    decode_batch,
    encode_molecules,
    fit_step,
    make_optimizer,
    mlp_init,
    sample_prior,
    train_step,
)
from .spherenet import SphereNetParams, encode_geometry, mix_noise


def safe_canonical(m: Molecule) -> str | None:
    """Canonical SMILES, or None when the molecule falls outside the
    supported grammar (needs more than 9 simultaneously open rings)."""
    try:
        return write_smiles(m)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# property scores
# ---------------------------------------------------------------------------

# Reduced atomic-contribution table for octanol/water partition, after the
# Wildman-Crippen scheme (J Chem Inf Comput Sci 39, 868 (1999)); classes are
# collapsed to the C/N/O/F + implicit-H chemistry supported here.
CRIPPEN_CONTRIB = {
    "C_aliphatic": 0.1441,     # carbon with no heteroatom neighbor
    "C_hetero_single": -0.2035,  # single-bonded to at least one N/O/F
    "C_hetero_multi": -0.2783,   # double or triple bond to a heteroatom
    "N_primary": -1.0190,      # >= 2 implicit hydrogens
    "N_secondary": -0.7096,    # 1 implicit hydrogen
    "N_tertiary": -1.0270,     # no hydrogens
    "O_hydroxyl": -0.2893,     # oxygen carrying a hydrogen
    "O_ether": -0.0684,        # oxygen with single bonds only, no hydrogen
    "O_carbonyl": -0.3339,     # double-bonded oxygen
    "F": 0.4202,
    "H_on_C": 0.1230,
    "H_on_hetero": -0.2677,
}


def _crippen_class(m: Molecule, i: int) -> str:
    el = m.elements[i]
    if el == "C":
        hetero = [(j, o) for j, o in m.adjacency[i] if m.elements[j] != "C"]
        if not hetero:
            return "C_aliphatic"
        if any(o >= 2 for _, o in hetero):
            return "C_hetero_multi"
        return "C_hetero_single"
    if el == "N":
        h = m.implicit_hydrogens(i)
        return "N_primary" if h >= 2 else ("N_secondary" if h == 1 else "N_tertiary")
    if el == "O":
        if m.implicit_hydrogens(i) >= 1:
            return "O_hydroxyl"
        if any(o >= 2 for _, o in m.adjacency[i]):
            return "O_carbonyl"
        return "O_ether"
    return "F"


def crippen_logp(m: Molecule) -> float:
    total = 0.0
    for i, el in enumerate(m.elements):
        total += CRIPPEN_CONTRIB[_crippen_class(m, i)]
        h_kind = "H_on_C" if el == "C" else "H_on_hetero"
        total += m.implicit_hydrogens(i) * CRIPPEN_CONTRIB[h_kind]
    return total


def sa_proxy(m: Molecule) -> float:
    """Synthetic-accessibility stand-in: size, rings, and ring fusion."""
    return 0.1 * m.num_atoms + 0.3 * ring_count(m) + 0.5 * len(fusion_atoms(m))


def ring_penalty(m: Molecule) -> float:
    return float(max(0, largest_ring_size(m) - 6))


def compute_plogp(m: Molecule) -> float:
    """Penalized logP: partition estimate minus synthetic-accessibility and
    large-ring penalties."""
    return crippen_logp(m) - sa_proxy(m) - ring_penalty(m)


def _tent(x: float, a: float, b: float, c: float, d: float) -> float:
    """Trapezoid desirability: 0 outside (a, d), 1 on [b, c], linear ramps."""
    if x <= a or x >= d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    if x <= c:
        return 1.0
    return (d - x) / (d - c)


QED_TENTS = {
    "mol_weight": (20.0, 60.0, 350.0, 500.0),
    "logp": (-3.0, -1.0, 3.0, 5.0),
    "h_donors": (-1.0, 0.0, 3.0, 6.0),
    "h_acceptors": (-1.0, 0.0, 6.0, 10.0),
    "rings": (-1.0, 0.0, 3.0, 6.0),
    "rotatable": (-1.0, 0.0, 5.0, 9.0),
}


def qed_descriptors(m: Molecule) -> dict[str, float]:
    return {
        "mol_weight": molecular_weight(m),
        "logp": crippen_logp(m),
        "h_donors": float(h_donor_count(m)),
        "h_acceptors": float(h_acceptor_count(m)),
        "rings": float(ring_count(m)),
        "rotatable": float(rotatable_bond_count(m)),
    }


def compute_qed_lite(m: Molecule) -> float:
    """Drug-likeness in [0, 1]: geometric mean of the six tent
    desirabilities over weight, logP, donors, acceptors, rings, and
    rotatable bonds."""
    desc = qed_descriptors(m)
    values = [_tent(desc[k], *QED_TENTS[k]) for k in QED_TENTS]
    if any(v == 0.0 for v in values):
        return 0.0
    return float(np.prod(values) ** (1.0 / len(values)))


# ---------------------------------------------------------------------------
# generation metrics
# ---------------------------------------------------------------------------


def uniqueness_pct(valid_smiles: list[str]) -> float:
    if not valid_smiles:
        return 0.0
    return 100.0 * len(set(valid_smiles)) / len(valid_smiles)


def novelty_pct(valid_smiles: list[str], training: set[str]) -> float:
    unique = set(valid_smiles)
    if not unique:
        return 0.0
    return 100.0 * len(unique - training) / len(unique)


@dataclass
class GenerationReport:
    requested: int
    returned: int
    raw_attempts: int
    validity_pct: float
    validity_wo_check_pct: float
    novelty_pct: float
    uniqueness_pct: float
    cap_exhausted: bool
    entries: list[tuple[int, bool, str]]  # (index, valid, canonical smiles or "")


def generate_random(params: FlowParams, count: int, check: bool, temperature: float,
                    rng: SeededRng, training: set[str] | None = None,
                    max_attempts_per: int = 100, batch_size: int = 1024):
    """Sample the prior and decode `count` molecules with ``decode_batch``.

    With `check` on, invalid samples are rejected and resampled up to
    `max_attempts_per * count` total attempts, so every returned molecule
    passes the valency check; with it off, a sample that fails comes back
    as None. Validity-without-check is measured on all raw decodes either
    way.
    """
    training = training or set()
    cfg = params.config
    molecules: list[Molecule | None] = []
    raw_attempts = 0
    raw_valid = 0
    cap = count * max_attempts_per
    while len(molecules) < count:
        take = min(batch_size, cap - raw_attempts if check else count - len(molecules))
        if take <= 0:
            break
        decoded = decode_batch(params, sample_prior(rng, cfg, temperature=temperature, count=take))
        raw_attempts += take
        raw_valid += sum(mol is not None for mol in decoded)
        kept = [mol for mol in decoded if mol is not None or not check]
        molecules += kept[:count - len(molecules)]
    cap_exhausted = check and len(molecules) < count

    entries = []
    valid_smiles = []
    # each distinct molecule is written once per call; None stays None
    canonical: dict[Molecule | None, str | None] = {None: None}
    for idx, mol in enumerate(molecules):
        if mol not in canonical:
            canonical[mol] = safe_canonical(mol)
        smi = canonical[mol]
        if smi is not None:
            valid_smiles.append(smi)
        entries.append((idx, smi is not None, smi or ""))
    returned = len(molecules)
    report = GenerationReport(
        requested=count,
        returned=returned,
        raw_attempts=raw_attempts,
        validity_pct=100.0 * len(valid_smiles) / returned if returned else 0.0,
        validity_wo_check_pct=100.0 * raw_valid / raw_attempts if raw_attempts else 0.0,
        novelty_pct=novelty_pct(valid_smiles, training),
        uniqueness_pct=uniqueness_pct(valid_smiles),
        cap_exhausted=cap_exhausted,
        entries=entries,
    )
    return molecules, report


@dataclass
class SimilarityReport:
    seed_smiles: list[str]
    rows: list[tuple[int, str, float, float, float]]  # (idx, smiles, tanimoto, fraggle, maccs)
    mean_tanimoto: float
    mean_fraggle: float
    mean_maccs: float
    failures: int


def similarity_triple(pairs: list[tuple[Molecule, Molecule]]) -> list[tuple[float, float, float]]:
    """(tanimoto, fraggle, maccs) of each (molecule, seed) pair. The Morgan
    fingerprints of the call's distinct molecules come from one batch."""
    distinct = list(dict.fromkeys(m for pair in pairs for m in pair))
    morgan = dict(zip(distinct, morgan_fingerprint(distinct)))
    return [(tanimoto(morgan[a], morgan[b]), fraggle_similarity(a, b), maccs_similarity(a, b))
            for a, b in pairs]


# each round draws the next MIX_BATCH noise mixes of every pending latent, up
# to MAX_MIXES per latent (most latents fit within their first few); one
# decode_batch call takes at most DECODE_BLOCK latents, the mixes of
# DECODE_BLOCK // MIX_BATCH latents
MIX_BATCH = 4
MAX_MIXES = 100
DECODE_BLOCK = 1024


def _search_mixes(flow_params: FlowParams, u_stars: list[np.ndarray], lam: float,
                  rngs: list[SeededRng], accept) -> list[tuple[int, object] | None]:
    """For each latent ``u_stars[k]``, decode noise mixes of it
    (``mix_noise`` draws from ``rngs[k]``) in order until one decodes to a
    valid molecule and ``accept(molecule)`` returns something other than
    None. Returns, per latent, (the 1-based position of that mix, that
    value), or None once MAX_MIXES mixes have been drawn without one.

    The latents still pending after a round go on together, so one round
    costs one decode per DECODE_BLOCK latents, not one per latent."""
    found: list[tuple[int, object] | None] = [None] * len(u_stars)
    pending = list(range(len(u_stars)))
    per_block = DECODE_BLOCK // MIX_BATCH
    drawn = 0
    while pending and drawn < MAX_MIXES:
        n_draw = min(MIX_BATCH, MAX_MIXES - drawn)
        for start in range(0, len(pending), per_block):
            block = pending[start:start + per_block]
            zs = np.stack([mix_noise(u_stars[k], lam, rngs[k])
                           for k in block for _ in range(n_draw)])
            cands = decode_batch(flow_params, zs)
            for j, k in enumerate(block):
                for i, cand in enumerate(cands[j * n_draw:(j + 1) * n_draw]):
                    if cand is not None and (value := accept(cand)) is not None:
                        found[k] = (drawn + i + 1, value)
                        break
        drawn += n_draw
        pending = [k for k in pending if found[k] is None]
    return found


def generate_similar(flow_params: FlowParams, sphere_params: SphereNetParams,
                     seeds: list[DatasetRecord], lam: float,
                     rng: SeededRng) -> tuple[list[Molecule | None], SimilarityReport]:
    """Seed-conditioned generation, one molecule per seed: geometry ->
    joint representation -> noise mixing -> the first valency-checked,
    canonicalizable decode, scored against its seed (None and a failure
    when ``_search_mixes`` runs out). Seed `s_i` draws its mixes from
    ``rng.spawn(f"seed{s_i}")``, and each distinct seed record is encoded
    once."""
    encoded: dict[int, np.ndarray] = {}
    for rec in seeds:
        if id(rec) not in encoded:
            encoded[id(rec)] = encode_geometry(rec.geometry(cutoff=sphere_params.config.cutoff),
                                               sphere_params)
    found = _search_mixes(flow_params, [encoded[id(rec)] for rec in seeds], lam,
                          [rng.spawn(f"seed{s_i}") for s_i in range(len(seeds))],
                          lambda m: None if (smi := safe_canonical(m)) is None else (m, smi))
    out = [hit[1][0] if hit is not None else None for hit in found]
    # (molecule, smiles, seed molecule) of each seed that found one
    accepted = [(*hit[1], rec.molecule) for rec, hit in zip(seeds, found) if hit is not None]
    scores = similarity_triple([(mol, seed) for mol, _, seed in accepted])
    rows = [(k, smiles, *score) for k, ((_, smiles, _), score) in enumerate(zip(accepted, scores))]
    report = SimilarityReport(
        seed_smiles=[r.smiles for r in seeds],
        rows=rows,
        mean_tanimoto=float(np.mean([r[2] for r in rows])) if rows else 0.0,
        mean_fraggle=float(np.mean([r[3] for r in rows])) if rows else 0.0,
        mean_maccs=float(np.mean([r[4] for r in rows])) if rows else 0.0,
        failures=len(seeds) - len(rows),
    )
    return out, report


def evaluate_similarity_baseline(records: list[DatasetRecord], rng: SeededRng,
                                 sample_size: int = 2000) -> dict[str, float]:
    """Random-pair similarity floor: shuffle, split in half, pair the halves
    elementwise, and average the three metrics."""
    if len(records) < 2:
        raise ValueError("need at least two molecules")
    n = min(sample_size, len(records))
    n -= n % 2
    order = rng.permutation(len(records))[:n]
    half = n // 2
    ts, fs, ks = zip(*similarity_triple([(records[int(a)].molecule, records[int(b)].molecule)
                                         for a, b in zip(order[:half], order[half:])]))
    return {
        "mean_tanimoto": float(np.mean(ts)),
        "mean_fraggle": float(np.mean(fs)),
        "mean_maccs": float(np.mean(ks)),
        "pairs": float(half),
    }


# ---------------------------------------------------------------------------
# property heads and latent ascent
# ---------------------------------------------------------------------------


@dataclass
class PropertyHead(ParamTree):
    """Two-layer perceptron from the flow latent to one property value."""

    mlp: Mlp

    def value_and_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        p = self.mlp
        x = np.asarray(z, dtype=np.float64).reshape(1, -1)
        h, y = ad.mlp_forward(x, p.w1, p.b1, p.w2, p.b2)
        (grad,), *_ = ad.mlp_backward(np.ones((1, 1)), x, h, p.w1, p.w2, (True,) + (False,) * 4)
        return float(y[0, 0]), grad.reshape(-1)

    def mse(self, x: np.ndarray, target: np.ndarray):
        """Mean squared error of the head on the rows of `x` against
        `target`, and its backward: ``backward(g)`` gives the gradients of
        ``named_params()``."""
        w1, b1, w2, b2 = self.mlp.w1, self.mlp.b1, self.mlp.w2, self.mlp.b2
        h, y = ad.mlp_forward(x, w1, b1, w2, b2)
        diff = y.reshape(-1) - target
        scale = 1.0 / len(x)
        loss = (diff * diff).sum() * scale

        def backward(g):
            # diff*diff's two factors, summed
            half = (g * scale) * diff
            _, *grads = ad.mlp_backward((half + half).reshape(-1, 1), x, h, w1, w2,
                                        (False,) + (True,) * 4)
            return grads

        return loss, backward

    def named_params(self):
        return self.mlp.named("head")


# the property head: hidden width, Adam learning rate and minibatch size
HEAD_HIDDEN = 64
HEAD_LR = 3e-3
HEAD_BATCH = 32


def train_property_head(latents: np.ndarray, values: np.ndarray, rng: SeededRng,
                        epochs: int = 200):
    """MSE regression from latents to property values; returns the head and
    its R^2 on a holdout of a fifth of the pairs. The first layer starts
    small so the hidden tanh units operate near their linear range."""
    latents = np.asarray(latents, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(latents) < 50:
        raise ValueError("need at least 50 training pairs")
    if float(values.std()) == 0.0:
        raise ValueError("degenerate (constant) property targets")
    order = rng.permutation(len(latents))
    n_hold = max(1, int(len(latents) * 0.2))
    hold, train = order[:n_hold], order[n_hold:]
    head = PropertyHead(mlp_init(rng.spawn("head"), latents.shape[1], HEAD_HIDDEN, 1,
                                 zero_last=False, w1_scale=0.1))
    opt = make_optimizer(head, lr=HEAD_LR)
    mu, sd = float(values[train].mean()), float(values[train].std())
    sd = sd if sd > 0 else 1.0
    shuffle = rng.spawn("shuffle")
    for _ in range(epochs):
        perm = shuffle.permutation(len(train))
        for k in range(0, len(train), HEAD_BATCH):
            idx = train[perm[k:k + HEAD_BATCH]]
            target = (values[idx] - mu) / sd
            fit_step(head, lambda h: h.mse(latents[idx], target), opt)
    # denormalize into the head by folding mu/sd into the output layer
    head.mlp.w2 *= sd
    head.mlp.b2 *= sd
    head.mlp.b2 += mu
    preds = apply_mlp(head.mlp, latents[hold]).reshape(-1)
    truth = values[hold]
    ss_res = float(((preds - truth) ** 2).sum())
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return head, r2


@dataclass
class TrajectoryPoint:
    latent: np.ndarray
    predicted: float
    molecule: Molecule | None
    actual: float | None


@dataclass
class OptimizationTrajectory:
    points: list[TrajectoryPoint]

    @property
    def best(self) -> TrajectoryPoint | None:
        scored = [p for p in self.points if p.actual is not None]
        return max(scored, key=lambda p: p.actual) if scored else None


def optimize_property(z0: np.ndarray, head, steps: int, step_size: float,
                      flow_params: FlowParams | None = None,
                      property_fn=None) -> OptimizationTrajectory:
    """Gradient ascent in latent space: z <- z + step * grad head(z).

    When a flow is given, the visited latents are decoded in one batch once
    the ascent is done, and each decode is valency-checked; a rejected one
    leaves a gap (molecule None). The trajectory has steps + 1 points
    including the start.
    """
    if steps < 1:
        raise ValueError("need at least one ascent step")
    if step_size < 0:
        raise ValueError("step size must be non-negative")
    z = np.asarray(z0, dtype=np.float64).copy()
    points: list[TrajectoryPoint] = []
    for k in range(steps + 1):
        value, grad = head.value_and_grad(z)
        points.append(TrajectoryPoint(z, value, None, None))
        if k < steps:
            z = z + step_size * grad
    if flow_params is not None:
        mols = decode_batch(flow_params, np.stack([p.latent for p in points]))
        for point, mol in zip(points, mols):
            if mol is not None:
                point.molecule = mol
                if property_fn is not None:
                    point.actual = float(property_fn(mol))
    return OptimizationTrajectory(points)


# ---------------------------------------------------------------------------
# substructure replacement
# ---------------------------------------------------------------------------


@dataclass
class ExcisedFragment:
    remainder: Molecule
    fragment: Molecule
    attachments: list[tuple[int, int]]  # (remainder atom, bond order)


def excise_fragment(host: Molecule, fragment_atoms: set[int]) -> ExcisedFragment:
    """Split a host into (remainder, fragment, attachment bonds).

    The fragment atom set must be connected and a proper non-empty subset.
    """
    if not fragment_atoms or not fragment_atoms < set(range(host.num_atoms)):
        raise ValueError("fragment must be a proper non-empty atom subset")
    frag = subgraph(host, fragment_atoms)
    if len(connected_components(frag)) != 1:
        raise ValueError("fragment atoms must form a connected subgraph")
    rest_atoms = sorted(set(range(host.num_atoms)) - fragment_atoms)
    remap = {a: k for k, a in enumerate(rest_atoms)}
    remainder = subgraph(host, set(rest_atoms))
    attachments = [
        (remap[i] if i in remap else remap[j], o)
        for i, j, o in host.bonds
        if (i in fragment_atoms) != (j in fragment_atoms)
    ]
    if not attachments:
        raise ValueError("fragment has no attachment points")
    return ExcisedFragment(remainder, frag, attachments)


def attach_fragment(remainder: Molecule, attachments: list[tuple[int, int]],
                    candidate: Molecule) -> Molecule | None:
    """Bond the attachment points onto candidate atoms with free valence.

    Among feasible assignments the one with the tightest valence fit (least
    leftover free valence on the used atoms) wins; ties break on the
    candidate's canonical ranks. Returns None when nothing fits.
    """
    free = [candidate.implicit_hydrogens(a) for a in range(candidate.num_atoms)]
    ranks = canonical_rank(candidate)
    offset = remainder.num_atoms
    best = None
    for assign in itertools.product(range(candidate.num_atoms), repeat=len(attachments)):
        demand: dict[int, int] = {}
        for (_, order), atom in zip(attachments, assign):
            demand[atom] = demand.get(atom, 0) + order
        if any(demand[a] > free[a] for a in demand):
            continue
        slack = sum(free[a] - demand[a] for a in demand)
        key = (slack, tuple(ranks[a] for a in assign))
        if best is not None and key >= best[0]:
            continue
        bonds = list(remainder.bonds) + [
            (b + offset, c + offset, o) for b, c, o in candidate.bonds
        ]
        bonds += [
            (min(r_atom, atom + offset), max(r_atom, atom + offset), order)
            for (r_atom, order), atom in zip(attachments, assign)
        ]
        merged = Molecule.build(remainder.elements + candidate.elements, bonds)
        if valency_check(merged):
            best = (key, merged)
    return best[1] if best else None


@dataclass
class SubstructureResult:
    molecule: Molecule | None
    candidates_tried: int
    replaced_ok: bool


def optimize_substructure(host: Molecule, fragment_atoms: set[int], flow_params: FlowParams,
                          rng: SeededRng, lam: float = 0.2) -> SubstructureResult:
    """Replace a connected substructure with a structurally similar
    generated fragment.

    The excised fragment's flow latent seeds similar generation
    (``_search_mixes`` on a batch of one). Candidates are attached under
    the valence-fit rule until one yields a chemically valid molecule;
    `candidates_tried` counts the noise mixes tried, the accepted one
    included (MAX_MIXES when none fits).
    """
    pieces = excise_fragment(host, fragment_atoms)
    (u_star,), _ = encode_molecules(flow_params, [pieces.fragment], [rng.spawn("embed")])

    def merged_ok(cand: Molecule) -> Molecule | None:
        merged = attach_fragment(pieces.remainder, pieces.attachments, cand)
        return merged if merged is not None and safe_canonical(merged) is not None else None

    (hit,) = _search_mixes(flow_params, [u_star], lam, [rng.spawn("mix")], merged_ok)
    if hit is None:
        return SubstructureResult(None, MAX_MIXES, False)
    return SubstructureResult(hit[1], hit[0], True)


# ---------------------------------------------------------------------------
# desk-scale flow training with validity probes
# ---------------------------------------------------------------------------


@dataclass
class FlowTrainResult:
    epoch_nll: list[float]
    probe_history: list[tuple[int, float]]
    best_epoch: int
    best_validity: float


def train_flow(params: FlowParams, records: list[DatasetRecord], epochs: int,
               rng: SeededRng, lr: float = 2e-3, batch_size: int = 100,
               clip_norm: float | None = 500.0,
               weight_table: WeightTable | None = None,
               sampler_mode: str = "bernoulli",
               probe_every: int = 5, probe_count: int = 400,
               probe_temperature: float = 0.12) -> FlowTrainResult:
    """Epoch loop over the corpus with optional docking-weighted selection.

    Every `probe_every` epochs a fixed batch of prior samples is decoded and
    raw validity recorded; the parameters snapshot of the earliest probe
    with the highest validity is restored at the end, so when every probe
    reads 0.0 the first probed epoch is restored (sample quality and exact
    likelihood are not perfectly aligned for contractive couplings, so the
    probe guards against late-training drift).
    """
    if probe_every < 1:
        raise ValueError(f"probe_every must be at least 1, got {probe_every}")
    if weight_table is not None and len(weight_table.ids) != len(records):
        raise ValueError(f"weight table has {len(weight_table.ids)} entries "
                         f"for {len(records)} records")
    cfg = params.config
    atoms, bonds = tensor_batches(records, cfg.n_max)
    opt = make_optimizer(params, lr=lr)
    step_rng = rng.spawn("steps")
    order_rng = rng.spawn("order")
    sampler_rng = rng.spawn("sampler")
    probe_z = sample_prior(rng.spawn("probe"), cfg, temperature=probe_temperature,
                           count=probe_count)
    epoch_nll: list[float] = []
    probe_history: list[tuple[int, float]] = []
    best = (-1.0, -1, None)
    for epoch in range(epochs):
        if weight_table is not None:
            selected = sample_epoch(weight_table, sampler_rng, sampler_mode)
        else:
            selected = list(range(len(records)))
        idx = np.asarray(selected)[order_rng.permutation(len(selected))]
        losses = []
        for k in range(0, len(idx), batch_size):
            chunk = idx[k:k + batch_size]
            losses.append(train_step(params, atoms[chunk], bonds[chunk], opt,
                                     step_rng, clip_norm=clip_norm))
        epoch_nll.append(float(np.mean(losses)))
        if (epoch + 1) % probe_every == 0 or epoch == epochs - 1:
            v = sum(m is not None for m in decode_batch(params, probe_z)) / probe_count
            probe_history.append((epoch, v))
            if v > best[0]:
                best = (v, epoch, opt.flat.copy())
    if best[2] is not None:
        opt.flat[...] = best[2]
    return FlowTrainResult(
        epoch_nll=epoch_nll,
        probe_history=probe_history,
        best_epoch=best[1],
        best_validity=best[0],
    )
