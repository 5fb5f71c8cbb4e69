"""Training configuration: defaults, flat key=value files, derived seeding."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

# key -> (type, help) for the documented config file
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


@dataclass
class TrainingConfig:
    # embedding and encoder dims
    word_dim: int = 100
    type_dim: int = 20
    coref_dim: int = 20
    hidden_size: int = 512        # per-direction LSTM size; encoder output width is 2x
    gcn_dim: int = 1024           # graph width; encoder outputs are projected when different
    gcn_layers: int = 3
    classifier_hidden: int = 0    # 0 means "use the model width"
    # context selection
    topk: int = 4
    beta: float = 0.9
    # optimization
    batch_size: int = 32
    learning_rate: float = 0.001
    weight_decay: float = 0.0001
    dropout: float = 0.5
    neg_ratio: float = 0.25
    epochs: int = 50
    seed: int = 13
    loss_reduction: str = "sum"   # sum | mean
    eval_every: int = 5
    # corpus handling
    min_freq: int = 1
    allow_overlap: str = "reject"  # reject | first-wins
    # pair representation
    intra_average: str = "flat"   # flat | nested instance averaging
    # reasoning
    reasoning_layers: int = 1
    # decision rule
    threshold: float = 0.5        # used when no dev set is available
    # ablations
    no_reasoning: bool = False
    no_context: bool = False
    inter4intra: bool = False

    @property
    def encoder_width(self) -> int:
        return 2 * self.hidden_size

    @property
    def model_width(self) -> int:
        """Width of every vector downstream of the encoders (graph width)."""
        return self.gcn_dim

    @property
    def needs_projection(self) -> bool:
        return self.gcn_dim != self.encoder_width

    @property
    def classifier_width(self) -> int:
        return self.classifier_hidden if self.classifier_hidden > 0 else self.model_width

    def validate(self) -> None:
        positive = ("word_dim", "type_dim", "coref_dim", "hidden_size", "gcn_dim",
                    "gcn_layers", "topk", "batch_size", "reasoning_layers", "eval_every")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1: {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive: {self.learning_rate}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative: {self.weight_decay}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must lie in [0, 1): {self.dropout}")
        if not (0.0 < self.neg_ratio <= 1.0):
            raise ConfigError(f"neg_ratio must lie in (0, 1]: {self.neg_ratio}")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must lie in [0, 1]: {self.beta}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0: {self.epochs}")
        if self.min_freq < 1:
            raise ConfigError(f"min_freq must be >= 1: {self.min_freq}")
        if self.loss_reduction not in ("sum", "mean"):
            raise ConfigError(f"loss_reduction must be sum or mean: {self.loss_reduction!r}")
        if self.allow_overlap not in ("reject", "first-wins"):
            raise ConfigError(f"allow_overlap must be reject or first-wins: {self.allow_overlap!r}")
        if self.intra_average not in ("flat", "nested"):
            raise ConfigError(f"intra_average must be flat or nested: {self.intra_average!r}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold must lie in [0, 1]: {self.threshold}")
        if self.classifier_hidden < 0:
            raise ConfigError(f"classifier_hidden must be >= 0: {self.classifier_hidden}")

    def to_text(self) -> str:
        """Canonical key=value serialization; checkpoints digest this exact text."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TrainingConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            f = known.get(key)
            if f is None:
                raise ConfigError(f"unknown config key {key!r}")
            raw = str(raw).strip()
            try:
                if f.type in ("int", int):
                    kwargs[key] = int(raw)
                elif f.type in ("float", float):
                    kwargs[key] = float(raw)
                elif f.type in ("bool", bool):
                    low = raw.lower()
                    if low in _BOOL_TRUE:
                        kwargs[key] = True
                    elif low in _BOOL_FALSE:
                        kwargs[key] = False
                    else:
                        raise ValueError(raw)
                else:
                    kwargs[key] = raw
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from e
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "TrainingConfig":
        mapping = parse_config_file(path)
        return cls.from_mapping(mapping)


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    mapping = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Deterministic per-subsystem generator derived from the single run seed."""
    keys = [zlib.crc32(str(tag).encode("utf-8")) for tag in tags]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *keys]))
