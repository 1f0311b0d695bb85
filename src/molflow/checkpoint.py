"""Checkpoint files: one .npz with named float64 parameter arrays plus a
JSON metadata entry. The metadata holds the format version, the flow
architecture (`FlowConfig`) and, when there is one, the geometry encoder
architecture (`SphereNetConfig`), both taken from the parameters
themselves, and the run config echo as the caller passed it. Loading
builds every array shape from the stored architecture, never from the
echo, and returns the echo unchanged. Arrays are stored and restored
bit-exactly. A checkpoint is written to a temporary file next to the
target and renamed onto the exact path given (no ``.npz`` is appended), so
a reader never sees a half-written file."""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .autodiff import SeededRng
from .config import RunConfig
from .flow import FlowConfig, FlowParams, init_flow
from .spherenet import SphereNetConfig, SphereNetParams, init_spherenet

FORMAT_VERSION = 2
_META_KEY = "__meta__"


def save_checkpoint(path, config: RunConfig, flow_params: FlowParams,
                    sphere_params: SphereNetParams | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "flow": dataclasses.asdict(flow_params.config),
        "has_spherenet": sphere_params is not None,
    }
    arrays = {name: arr for name, arr in flow_params.named_params()}
    if sphere_params is not None:
        meta["sphere"] = dataclasses.asdict(sphere_params.config)
        arrays.update({name: arr for name, arr in sphere_params.named_params()})
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                      dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # a file handle keeps np.savez from appending .npz to the name
        with tmp.open("wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _restore(params, data):
    # the shapes already follow the stored architecture, so set_param's
    # shape error here means a corrupt or hand-edited file
    for name, _ in params.named_params():
        if name not in data:
            raise ValueError(f"checkpoint lacks array {name}")
        params.set_param(name, data[name])
    return params


def load_checkpoint(path) -> tuple[RunConfig, FlowParams, SphereNetParams | None]:
    """Read a checkpoint. A missing file raises FileNotFoundError; anything
    else that is not a readable checkpoint (a truncated archive, a bare
    ``.npy`` array, a directory, pickled arrays, missing or bad metadata or
    arrays) raises one ValueError naming `path`."""
    try:
        data = np.load(Path(path))
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            return _read(data)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a readable molflow checkpoint: {exc}") from None


def _read(data) -> tuple[RunConfig, FlowParams, SphereNetParams | None]:
    if _META_KEY not in data:
        raise ValueError("no metadata entry")
    meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {meta.get('format_version')}")
    config = RunConfig.from_dict(meta["config"])
    flow_params = _restore(init_flow(FlowConfig(**meta["flow"]), SeededRng(0)), data)
    sphere_params = None
    if meta["has_spherenet"]:
        sphere_params = _restore(
            init_spherenet(SphereNetConfig(**meta["sphere"]), SeededRng(0)), data)
    return config, flow_params, sphere_params
