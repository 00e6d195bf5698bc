"""Load-profile data model, normalization, CSV ingestion, synthetic corpora.

A population is an (N, T) matrix of non-negative per-slot consumption with
one opaque user id per row. Normalized profiles live on the T-simplex.
The synthetic generator mixes smooth circular bumps (morning / noon /
evening / night archetypes) and stands in for metered datasets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptyPopulation,
    InconsistentHorizon,
    MalformedRow,
    ZeroProfile,
)
from .model import SystemLoad

DEFAULT_HORIZON = 24
# every float cell of every CSV the package writes
CSV_FLOAT_FMT = "%.9g"


@dataclass(frozen=True)
class LoadProfile:
    """One user's raw per-slot consumption."""

    user_id: str
    consumption: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.consumption, dtype=float)
        if vec.ndim != 1 or vec.size < 1:
            raise ValueError("consumption must be a non-empty 1-D vector")
        if np.any(vec < 0):
            raise ValueError(f"user {self.user_id}: negative consumption")
        object.__setattr__(self, "consumption", vec)

    @property
    def total(self) -> float:
        return float(self.consumption.sum())


@dataclass(frozen=True)
class NormalizedProfile:
    """A profile divided by its total consumption; weights sum to 1."""

    user_id: str
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"user {self.user_id}: weights must be a distribution")
        object.__setattr__(self, "weights", w)


def normalize(profile: LoadProfile) -> NormalizedProfile:
    """Divide a profile by its total consumption."""
    total = profile.consumption.sum()
    if total <= 0:
        raise ZeroProfile(f"user {profile.user_id} has zero total consumption")
    return NormalizedProfile(profile.user_id, profile.consumption / total)


def normalize_matrix(consumption: np.ndarray) -> np.ndarray:
    """Row-normalize an (N, T) consumption matrix onto the simplex."""
    consumption = np.asarray(consumption, dtype=float)
    totals = consumption.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        bad = int(np.argmax(totals.ravel() <= 0))
        raise ZeroProfile(f"profile at row {bad} has zero total consumption")
    return consumption / totals


class Population:
    """N user profiles sharing one horizon, stored as an (N, T) matrix."""

    def __init__(self, user_ids, consumption):
        consumption = np.asarray(consumption, dtype=float)
        user_ids = list(user_ids)
        if consumption.ndim != 2:
            raise ValueError("consumption must be an (N, T) matrix")
        if len(user_ids) != consumption.shape[0]:
            raise ValueError("one user id per consumption row required")
        if len(set(user_ids)) != len(user_ids):
            raise ValueError("user ids must be unique")
        if np.any(consumption < 0):
            raise ValueError("consumption must be non-negative")
        self.user_ids = user_ids
        self.consumption = consumption

    @property
    def n_users(self) -> int:
        return self.consumption.shape[0]

    @property
    def horizon(self) -> int:
        return self.consumption.shape[1]

    def profiles(self):
        for uid, row in zip(self.user_ids, self.consumption):
            yield LoadProfile(uid, row)

    def rows_of(self, user_ids) -> np.ndarray:
        """Row index of each of the given user ids, in their order."""
        row_of = {uid: i for i, uid in enumerate(self.user_ids)}
        return np.array([row_of[uid] for uid in user_ids], dtype=int)

    def normalized(self) -> np.ndarray:
        """(N, T) matrix of simplex weights."""
        return normalize_matrix(self.consumption)

    def subset(self, n: int) -> "Population":
        """First n users, keeping row order."""
        return Population(self.user_ids[:n], self.consumption[:n])


def aggregate(pop: Population) -> SystemLoad:
    """Total per-slot consumption across the population."""
    if pop.n_users == 0:
        raise EmptyPopulation("cannot aggregate an empty population")
    return SystemLoad(pop.consumption.sum(axis=0))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# cells converted per bulk parse (256 rows at T=24): bounds the cell strings
# held at once, and the interpreter memory they leave behind once freed
_CHUNK_CELLS = 6144

# why a row is dropped, in the order each row is tested
_EXCLUSION_REASONS = (
    "non-numeric or empty cell",
    "missing value",
    "infinite value",
    "negative consumption",
    "zero total consumption",
)


@dataclass
class IngestResult:
    """A parsed population plus bookkeeping on dropped rows."""

    population: Population
    n_excluded: int
    excluded_rows: list  # (row_number, reason)


def _parse_chunk(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """Values of equal-length rows of cell strings, and each row's index
    into `_EXCLUSION_REASONS` (-1 keeps the row).

    `np.array(..., dtype=float)` converts each string with `float()`, so it
    accepts exactly the spellings `float()` accepts.
    """
    unparsed = np.zeros(len(cells), dtype=bool)
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        # only now convert row by row, to find the rows holding a bad cell
        values = np.zeros((len(cells), len(cells[0])))
        for i, row in enumerate(cells):
            try:
                values[i] = np.array(row, dtype=float)
            except ValueError:
                unparsed[i] = True
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf, overflow
        failed = np.vstack([
            unparsed,
            np.isnan(values).any(axis=1),
            np.isinf(values).any(axis=1),
            (values < 0).any(axis=1),
            values.sum(axis=1) <= 0,
        ])
    return values, np.where(failed.any(axis=0), failed.argmax(axis=0), -1)


def ingest_csv(path) -> IngestResult:
    """Read profiles from a CSV with header ``user_id,t0,...,t{T-1}``.

    Rows with empty, non-numeric, infinite or negative cells, and rows
    with zero total consumption, are dropped and counted. A row whose field
    count disagrees with the header raises InconsistentHorizon; a missing
    or duplicate user id raises MalformedRow. Rows are judged in order, so
    the first bad row in the file decides the error.
    """
    user_ids: list[str] = []
    blocks: list[np.ndarray] = []
    seen: set[str] = set()   # ids of kept rows only
    excluded: list[tuple[int, str]] = []

    def judge(rows):
        """Keep or exclude each (row_number, user_id, cells) of a chunk."""
        if not rows:
            return
        values, reasons = _parse_chunk([cells for _, _, cells in rows])
        for (row_number, uid, _), reason in zip(rows, reasons.tolist()):
            if uid in seen:
                raise MalformedRow(row_number, f"duplicate user_id {uid!r}")
            if reason >= 0:
                excluded.append((row_number, _EXCLUSION_REASONS[reason]))
            else:
                seen.add(uid)
                user_ids.append(uid)
        blocks.append(values[reasons < 0])

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InconsistentHorizon(f"{path}: empty file, no header") from None
        if len(header) < 2 or header[0] != "user_id":
            raise InconsistentHorizon(
                f"{path}: header must be user_id,t0,...  got {header[:3]}..."
            )
        horizon = len(header) - 1
        chunk_rows = max(1, _CHUNK_CELLS // horizon)

        pending: list[tuple[int, str, list]] = []
        try:
            for row_number, row in enumerate(reader, start=2):
                if len(row) != horizon + 1:
                    raise InconsistentHorizon(
                        f"{path} row {row_number}: {len(row) - 1} slots, header has {horizon}"
                    )
                uid = row[0].strip()
                if not uid:
                    raise MalformedRow(row_number, "missing user_id")
                pending.append((row_number, uid, row[1:]))
                if len(pending) == chunk_rows:
                    rows, pending = pending, []
                    judge(rows)
        finally:
            # the rows before a failing row are judged before its error
            # propagates, so a duplicate id among them still raises first
            judge(pending)

    if not user_ids:
        raise EmptyPopulation(f"{path}: no usable rows")
    pop = Population(user_ids, np.vstack(blocks))
    return IngestResult(pop, len(excluded), excluded)


def write_csv(pop: Population, path) -> None:
    """Write a population in the same CSV layout `ingest_csv` reads."""
    horizon = pop.horizon
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id"] + [f"t{t}" for t in range(horizon)])
        for uid, row in zip(pop.user_ids, pop.consumption):
            writer.writerow([uid] + [CSV_FLOAT_FMT % v for v in row])


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

RESIDENTIAL_PEAKS = (7.5, 12.5, 19.0, 1.0)   # morning, noon, evening, night
RESIDENTIAL_WIDTHS = (1.8, 2.2, 2.2, 2.5)
COMMERCIAL_PEAKS = (13.0, 18.5)              # business hours, early evening
COMMERCIAL_WIDTHS = (4.0, 2.0)

# archetype popularity is skewed toward the evening so the aggregate has a
# genuine peak; per-user totals are sized for ~10k users against the default
# cost coefficients (scale total_range by 10_000/n for other corpus sizes)
RESIDENTIAL_MIX = (0.4, 0.5, 0.9, 0.3)
DEFAULT_TOTAL_RANGE = (800.0, 1800.0)


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one synthetic population draw."""

    kind: str                      # "residential" | "commercial"
    n_users: int
    seed: int
    horizon: int = DEFAULT_HORIZON
    peak_locations: tuple = RESIDENTIAL_PEAKS
    peak_widths: tuple = RESIDENTIAL_WIDTHS
    base_level: float = 0.10
    noise_scale: float = 0.10
    mixture_concentration: tuple = RESIDENTIAL_MIX
    total_range: tuple = DEFAULT_TOTAL_RANGE
    id_prefix: str = "u"

    def __post_init__(self):
        if self.kind not in ("residential", "commercial"):
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be >= 0")
        if len(self.peak_locations) != len(self.peak_widths):
            raise ValueError("one width per peak location required")
        if len(self.mixture_concentration) != len(self.peak_locations):
            raise ValueError("one concentration per archetype required")
        if not (0 < self.total_range[0] <= self.total_range[1]):
            raise ValueError("total_range must satisfy 0 < lo <= hi")


def residential_spec(n_users: int, seed: int, **overrides) -> CorpusSpec:
    """Heterogeneous household-style corpus: many archetypes, spread mixtures."""
    spec = CorpusSpec(kind="residential", n_users=n_users, seed=seed)
    return replace(spec, **overrides) if overrides else spec


def commercial_spec(n_users: int, seed: int, **overrides) -> CorpusSpec:
    """Homogeneous building-style corpus: few archetypes, tight mixtures."""
    spec = CorpusSpec(
        kind="commercial",
        n_users=n_users,
        seed=seed,
        peak_locations=COMMERCIAL_PEAKS,
        peak_widths=COMMERCIAL_WIDTHS,
        base_level=0.55,
        noise_scale=0.03,
        mixture_concentration=(8.0, 2.0),
        id_prefix="b",
    )
    return replace(spec, **overrides) if overrides else spec


def _bump(horizon: int, center: float, width: float) -> np.ndarray:
    # smooth bump on the circular day: distance wraps at the horizon
    t = np.arange(horizon, dtype=float)
    d = np.abs(t - center)
    d = np.minimum(d, horizon - d)
    return np.exp(-0.5 * (d / width) ** 2)


def generate_corpus(spec: CorpusSpec) -> Population:
    """Draw a deterministic synthetic population for the given spec.

    Each user is a Dirichlet mixture of the archetype bumps plus a base
    level, multiplicative noise, and a random daily total. Bitwise
    reproducible for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    horizon = spec.horizon
    archetypes = np.vstack(
        [_bump(horizon, c, w) for c, w in zip(spec.peak_locations, spec.peak_widths)]
    )
    # draw order is fixed: mixtures, totals, then noise
    mix = rng.dirichlet(np.asarray(spec.mixture_concentration, float), size=spec.n_users)
    totals = rng.uniform(spec.total_range[0], spec.total_range[1], size=spec.n_users)
    shapes = spec.base_level + mix @ archetypes
    if spec.noise_scale > 0:
        shapes = shapes * (1.0 + spec.noise_scale * rng.standard_normal(shapes.shape))
    shapes = np.maximum(shapes, 1e-9)  # keep every slot strictly positive
    consumption = shapes / shapes.sum(axis=1, keepdims=True) * totals[:, None]

    width = max(4, len(str(spec.n_users)))
    user_ids = [f"{spec.id_prefix}{i:0{width}d}" for i in range(spec.n_users)]
    return Population(user_ids, consumption)


def mean_pairwise_l1(weights: np.ndarray, max_pairs: int = 200_000, seed: int = 0) -> float:
    """Mean l1 distance between normalized profiles, subsampling large corpora."""
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if n < 2:
        return 0.0
    n_pairs = n * (n - 1) // 2
    if n_pairs <= max_pairs:
        idx_a, idx_b = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        idx_a = rng.integers(0, n, size=max_pairs)
        idx_b = rng.integers(0, n, size=max_pairs)
        keep = idx_a != idx_b
        idx_a, idx_b = idx_a[keep], idx_b[keep]
    return float(np.abs(weights[idx_a] - weights[idx_b]).sum(axis=1).mean())
