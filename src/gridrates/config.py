"""Run configuration: one JSON document driving every experiment command.

Artifacts record the sha256 of the canonical config serialization so any
result table can be traced to the exact parameters that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .model import CostModel
from .profiles import CSV_FLOAT_FMT  # noqa: F401  (re-exported for result tables)
from .profiles import CorpusSpec, commercial_spec, residential_spec
from .robust import _check_rho
from .tariff import ASSIGNMENT_METRICS, _require, _require_known

DEFAULT_A = 0.00012
DEFAULT_B = -37.38
DEFAULT_RHO = 0.5
DEFAULT_K = {"residential": 30, "commercial": 24}
# the most points a theta grid may have (a step of 1e-5 over [0, 1))
MAX_THETA_POINTS = 100_001
# what corpus_overrides may set, by default: the CorpusSpec fields that are no config key
CORPUS_FIELDS = {f.name: f.default for f in fields(CorpusSpec) if f.default is not MISSING}


def _check_overrides(overrides: dict) -> None:
    """Raise ValueError unless each override is a CorpusSpec field of its default's JSON type."""
    unknown = set(overrides) - set(CORPUS_FIELDS)
    if unknown:
        raise ValueError(f"unknown corpus_overrides keys: {sorted(unknown)}")
    types = {float: (int, float), int: (int,), tuple: (list,)}
    _require(overrides, {key: types[type(CORPUS_FIELDS[key])]   # CorpusSpec checks id_prefix
                         for key in overrides if key != "id_prefix"}, "corpus_overrides")
    for key, value in overrides.items():
        width = 2 if key == "total_range" else len(value) if type(value) is list else 0
        if width and (len(value) != width or not set(map(type, value)) <= {int, float}):
            raise ValueError(f"corpus_overrides's {key!r} must be a list of {width} numbers")


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
        return CostModel(self.a, self.b, self.c)

    def corpus_spec(self) -> CorpusSpec:
        _check_overrides(self.corpus_overrides)
        maker = residential_spec if self.corpus_kind == "residential" else commercial_spec
        return maker(self.n_users, self.seed, **self.corpus_overrides)

    def baseline_k(self) -> int:
        return self.k if self.k is not None else DEFAULT_K[self.corpus_kind]

    def theta_grid(self) -> np.ndarray:
        n_steps = int(round(self.theta_max / self.theta_step))
        grid = np.round(np.arange(n_steps + 1) * self.theta_step, 12)
        return grid[grid <= self.theta_max]

    def validate(self) -> "RunConfig":
        # each key takes its default's JSON type, a float key an integer too, k null too
        doc = vars(self)
        types = {key: (int, float) if type(value) is float else (type(value),)
                 for key, value in vars(RunConfig()).items()}
        try:
            _require(doc, {**types, "k": (int, type(None))}, "the config")
            _require_known(doc, {"corpus_kind": tuple(DEFAULT_K),
                                 "metric": ASSIGNMENT_METRICS}, "the config")
            self.cost_model()
            self.corpus_spec()
            self.canonical_json()   # an integer given for a float must fit one
            _check_rho(self.rho)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from None
        if not 0 <= self.theta_max < 1:
            raise ConfigError(f"theta_max must be in [0, 1), got {self.theta_max}")
        if not 0 < self.theta_step < math.inf:
            raise ConfigError(f"theta_step must be finite and > 0, got {self.theta_step}")
        # theta_grid's point count, checked before the grid is allocated; a
        # tiny step makes the quotient huge or inf
        steps = self.theta_max / self.theta_step
        if steps > MAX_THETA_POINTS or round(steps) + 1 > MAX_THETA_POINTS:
            raise ConfigError(
                f"theta_step={self.theta_step!r} with theta_max={self.theta_max!r} gives "
                f"{steps + 1:.4g} theta points, more than {MAX_THETA_POINTS}")
        if self.baseline_k() < 1:
            raise ConfigError("k must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        return self

    def canonical_json(self) -> str:
        # each float, a corpus override's too, written as one (1 as 1.0): equal configs hash alike
        doc = asdict(self)
        for values, defaults in ((doc, vars(RunConfig())), (doc["corpus_overrides"], CORPUS_FIELDS)):
            values.update({key: np.asarray(values[key], float).tolist() for key in values
                           if type(defaults.get(key)) in (float, tuple)})
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("the config is not a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc).validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(doc)

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {key: v for key, v in kwargs.items() if v is not None}
        cfg = replace(self, **kwargs) if kwargs else self
        return cfg.validate()
