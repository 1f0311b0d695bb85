"""Run configuration: one JSON file, flag overrides, verbatim echo.

Every tunable lives here with its documented default; commands echo the
effective config into reports and checkpoints so a run is reproducible from
its outputs alone. The generic sampling temperature of the prior is 0.7;
the desk-scale default below is lower because contractive couplings place
the trained latent mass close to the origin (see README).
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .flow import _FLOW_RANGES, NON_NEGATIVE, POSITIVE, FlowConfig
from .spherenet import _SPHERE_RANGES, SphereNetConfig


# fields older versions carried and nothing read; the configs echoed in
# their checkpoints and summaries still name them, so loading drops them
_RETIRED_KEYS = ("dataset_paths", "use_docking_weights")


@dataclass
class RunConfig:
    seed: int = 20240901
    n_max: int = 9

    # flow
    flow_layers: int = 6
    flow_hidden: int = 128
    noise_scale: float = 0.4
    temperature: float = 0.12

    # geometry encoder
    sphere_blocks: int = 2
    sphere_hidden: int = 64
    n_radial: int = 8
    max_degree: int = 3
    cutoff: float = 5.0
    noise_fraction: float = 0.2

    # optimization
    learning_rate: float = 2e-3
    batch_size: int = 100
    epochs: int = 150
    clip_norm: float = 500.0
    probe_every: int = 5
    probe_count: int = 400
    fusion_epochs: int = 100
    fusion_learning_rate: float = 2e-3
    fusion_batch_size: int = 8

    # docking
    scorer_command: list[str] = field(default_factory=list)
    scorer_timeout: float = 120.0
    scorer_retries: int = 2
    scorer_parallelism: int = 4
    weight_floor: float = 0.01
    sampler_mode: str = "bernoulli"

    # latent property ascent
    ascent_steps: int = 80
    ascent_step_size: float = 0.1

    def flow_config(self) -> FlowConfig:
        return FlowConfig(
            n_max=self.n_max,
            atom_layers=self.flow_layers,
            bond_layers=self.flow_layers,
            atom_hidden=self.flow_hidden,
            bond_hidden=self.flow_hidden,
            noise_scale=self.noise_scale,
            temperature=self.temperature,
        )

    def sphere_config(self) -> SphereNetConfig:
        return SphereNetConfig(
            hidden=self.sphere_hidden,
            n_blocks=self.sphere_blocks,
            n_radial=self.n_radial,
            max_degree=self.max_degree,
            cutoff=self.cutoff,
            out_dim=self.flow_config().d_total,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {type(data).__name__}")
        data = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data)
        config.validate()
        return config

    def validate(self) -> None:
        """Raise ValueError naming the first field whose value has the wrong
        type for its annotation (a bool is not an int; an int is accepted
        for a float; every float must be finite) or lies outside the range
        in ``_RANGES``."""
        for name, hint in typing.get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                raise ValueError(f"{name} must be of type {_type_name(hint)}, got {value!r}")
            if hint is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name in _RANGES and not _RANGES[name][0](value):
                raise ValueError(f"{name} must be {_RANGES[name][1]}, got {value!r}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls.from_dict(data)

    def with_overrides(self, overrides: dict) -> "RunConfig":
        data = self.to_dict()
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in data:
                raise ValueError(f"unknown config key {key!r}")
            data[key] = value
        return RunConfig.from_dict(data)


def _has_type(value, hint) -> bool:
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    return str(hint) if typing.get_origin(hint) else hint.__name__


# (check, description) per field; the checks run after the type check
_RANGES = {
    "n_max": POSITIVE,
    "flow_layers": POSITIVE,
    "flow_hidden": POSITIVE,
    "noise_scale": _FLOW_RANGES["noise_scale"],
    "temperature": NON_NEGATIVE,
    "sphere_blocks": POSITIVE,
    "sphere_hidden": POSITIVE,
    "n_radial": POSITIVE,
    "max_degree": NON_NEGATIVE,
    "cutoff": _SPHERE_RANGES["cutoff"],
    "noise_fraction": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "learning_rate": POSITIVE,
    "batch_size": POSITIVE,
    "epochs": POSITIVE,
    "clip_norm": POSITIVE,
    "probe_every": POSITIVE,
    "probe_count": POSITIVE,
    "fusion_epochs": POSITIVE,
    "fusion_learning_rate": POSITIVE,
    "fusion_batch_size": POSITIVE,
    "scorer_timeout": POSITIVE,
    "scorer_retries": NON_NEGATIVE,
    "scorer_parallelism": POSITIVE,
    "weight_floor": (lambda v: 0 <= v <= 0.1, "in [0, 0.1]"),
    "sampler_mode": (lambda v: v in ("bernoulli", "categorical"), "'bernoulli' or 'categorical'"),
    "ascent_steps": POSITIVE,
    "ascent_step_size": NON_NEGATIVE,
}
