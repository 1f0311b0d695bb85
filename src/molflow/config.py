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
from dataclasses import dataclass, field
from pathlib import Path

from .flow import FlowConfig
from .spherenet import SphereNetConfig


@dataclass
class RunConfig:
    seed: int = 20240901
    dataset_paths: list[str] = field(default_factory=list)
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
    use_docking_weights: bool = False

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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def with_overrides(self, overrides: dict) -> "RunConfig":
        data = self.to_dict()
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in data:
                raise ValueError(f"unknown config key {key!r}")
            data[key] = value
        return RunConfig.from_dict(data)
