"""Run configuration: one JSON document driving every experiment command.

Artifacts record the sha256 of the canonical config serialization so any
result table can be traced to the exact parameters that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .model import CostModel
from .profiles import CSV_FLOAT_FMT  # noqa: F401  (re-exported for result tables)
from .profiles import CorpusSpec, commercial_spec, residential_spec

DEFAULT_A = 0.00012
DEFAULT_B = -37.38
DEFAULT_RHO = 0.5
DEFAULT_K = {"residential": 30, "commercial": 24}


@dataclass(frozen=True)
class RunConfig:
    """Parameters for the experiment pipeline."""

    a: float = DEFAULT_A
    b: float = DEFAULT_B
    c: float = 0.0
    rho: float = DEFAULT_RHO
    theta_max: float = 0.2
    theta_step: float = 0.005
    k: int | None = None           # baseline cluster count; kind default if None
    metric: str = "sqeuclidean"
    seed: int = 42
    corpus_kind: str = "residential"
    n_users: int = 10_000
    corpus_overrides: dict = field(default_factory=dict)

    def cost_model(self) -> CostModel:
        try:
            return CostModel(self.a, self.b, self.c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def corpus_spec(self) -> CorpusSpec:
        maker = residential_spec if self.corpus_kind == "residential" else commercial_spec
        try:
            return maker(self.n_users, self.seed, **self.corpus_overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def baseline_k(self) -> int:
        return self.k if self.k is not None else DEFAULT_K[self.corpus_kind]

    def theta_grid(self) -> np.ndarray:
        n_steps = int(round(self.theta_max / self.theta_step))
        grid = np.round(np.arange(n_steps + 1) * self.theta_step, 12)
        return grid[grid <= self.theta_max]

    def validate(self) -> "RunConfig":
        self.cost_model()
        self.corpus_spec()
        if self.rho <= 0:
            raise ConfigError(f"rho must be > 0, got {self.rho}")
        if not 0 <= self.theta_max < 1:
            raise ConfigError(f"theta_max must be in [0, 1), got {self.theta_max}")
        if self.theta_step <= 0:
            raise ConfigError(f"theta_step must be > 0, got {self.theta_step}")
        if self.baseline_k() < 1:
            raise ConfigError("k must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        return self

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        return cfg.validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if "corpus_overrides" in doc and doc["corpus_overrides"] is not None:
            doc["corpus_overrides"] = {
                key: tuple(v) if isinstance(v, list) else v
                for key, v in doc["corpus_overrides"].items()
            }
        return cls.from_dict(doc)

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {key: v for key, v in kwargs.items() if v is not None}
        cfg = replace(self, **kwargs) if kwargs else self
        return cfg.validate()
