"""The pinned sampling model used by the ``generate`` and ``similar``
workloads.

Flow training is chaotic: a rounding-level change in the arithmetic can
move the trained model's raw validity by a large factor, and with it the
decode work per valid molecule. So the sampling workloads never train; they
load this committed model.

File format (owned by the benchmark, independent of molflow's checkpoint
metadata): an 8-byte little-endian header length, a UTF-8 JSON header, then
every array as little-endian float64 in header order. The header holds the
``FlowConfig`` and ``SphereNetConfig`` fields, the recipe that produced the
model, and ``[name, shape]`` for each array. Arrays are named as molflow's
``named_params()`` names them and are loaded through ``init_flow`` /
``init_spherenet`` plus ``set_param``, the surface ``load_checkpoint`` uses.

Next to the model sits ``fusion_set.xyz``, the geometry records the
encoder was fusion-trained on, in molflow's extended-XYZ dataset format.
The ``similar`` workload draws its seeds from it, as ``generate-similar``
does from the data the model was trained with.

The sha256 of both files is recorded in ``fixture/SHA256SUMS`` and checked
on every load; a mismatch refuses the run. Regenerating the fixture
(``make_fixture.py``) is a benchmark change and needs a new baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"
MODEL_PATH = FIXTURE_DIR / "pinned_model.bin"
FUSION_SET_PATH = FIXTURE_DIR / "fusion_set.xyz"
HASH_PATH = FIXTURE_DIR / "SHA256SUMS"
FORMAT = "perfbench-pinned-model-1"


class FixtureError(RuntimeError):
    """The pinned model is missing, altered or malformed."""


def save_model(path: Path, flow_params, sphere_params, recipe: dict) -> None:
    arrays = list(flow_params.named_params()) + list(sphere_params.named_params())
    header = {
        "format": FORMAT,
        "flow_config": dataclasses.asdict(flow_params.config),
        "sphere_config": dataclasses.asdict(sphere_params.config),
        "recipe": recipe,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
    path.write_bytes(struct.pack("<Q", len(head)) + head + body)


def record_hashes() -> None:
    """Write SHA256SUMS for the fixture files as they are now."""
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
             for p in (MODEL_PATH, FUSION_SET_PATH)]
    HASH_PATH.write_text("".join(lines))


def _verified_bytes(path: Path) -> bytes:
    try:
        recorded = dict(line.split()[::-1] for line in HASH_PATH.read_text().splitlines())
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read {path} or its recorded hash: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    if digest != recorded.get(path.name):
        raise FixtureError(f"{path.name} sha256 {digest} != recorded {recorded.get(path.name)}")
    return blob


def verify() -> None:
    """Check both fixture files against SHA256SUMS."""
    for path in (MODEL_PATH, FUSION_SET_PATH):
        _verified_bytes(path)


def load_geometry_set(n_max: int):
    """The fusion-set records, after checking the file's sha256."""
    from molflow.dataset import ingest

    _verified_bytes(FUSION_SET_PATH)
    return ingest([FUSION_SET_PATH], n_max=n_max).records


def load_model():
    """Return ``(flow_params, sphere_params)`` after checking the file's
    sha256 against the recorded one."""
    from molflow.autodiff import SeededRng
    from molflow.flow import FlowConfig, init_flow
    from molflow.spherenet import SphereNetConfig, init_spherenet

    blob = _verified_bytes(MODEL_PATH)
    (head_len,) = struct.unpack_from("<Q", blob, 0)
    header = json.loads(blob[8:8 + head_len].decode("utf-8"))
    if header.get("format") != FORMAT:
        raise FixtureError(f"unknown pinned model format {header.get('format')!r}")
    flow = init_flow(FlowConfig(**header["flow_config"]), SeededRng(0))
    sphere = init_spherenet(SphereNetConfig(**header["sphere_config"]), SeededRng(0))
    stored = {}
    offset = 8 + head_len
    for name, shape in header["arrays"]:
        size = int(np.prod(shape, dtype=np.int64))
        stored[name] = np.frombuffer(blob, dtype="<f8", count=size,
                                     offset=offset).reshape(shape).astype(np.float64)
        offset += 8 * size
    if offset != len(blob):
        raise FixtureError("pinned model has trailing bytes")
    for params in (flow, sphere):
        for name, arr in params.named_params():
            if name not in stored or stored[name].shape != arr.shape:
                raise FixtureError(f"pinned model lacks {name} with shape {arr.shape}")
            params.set_param(name, stored[name])
    return flow, sphere
