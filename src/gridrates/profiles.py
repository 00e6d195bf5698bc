"""Load-profile data model, normalization, CSV ingestion, synthetic corpora.

A population is an (N, T) matrix of non-negative per-slot consumption with
one opaque user id per row. Normalized profiles live on the T-simplex.
The synthetic generator mixes smooth circular bumps (morning / noon /
evening / night archetypes) and stands in for metered datasets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, count, islice
from pathlib import Path

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

    @classmethod
    def _checked(cls, user_ids: list, consumption: np.ndarray) -> "Population":
        """A population from a list of unique ids and an (N, T) float matrix
        of non-negative rows, which the caller has already checked."""
        pop = cls.__new__(cls)
        pop.user_ids, pop.consumption = user_ids, consumption
        return pop

    @property
    def n_users(self) -> int:
        return self.consumption.shape[0]

    @property
    def horizon(self) -> int:
        return self.consumption.shape[1]

    @cached_property
    def _row_of(self) -> dict:
        """Each user id's row, built on first use; `user_ids` is never changed
        after construction."""
        return {uid: i for i, uid in enumerate(self.user_ids)}

    def rows_of(self, user_ids) -> np.ndarray:
        """Row index of each of the given user ids, in their order. An id
        array is read as a list once; an id the corpus lacks is refused."""
        if isinstance(user_ids, np.ndarray):
            user_ids = user_ids.tolist()
        row_of = self._row_of
        try:
            return np.array([row_of[uid] for uid in user_ids], dtype=int)
        except KeyError:
            missing = [uid for uid in user_ids if uid not in row_of]
            raise ValueError(f"{len(missing)} clustering user ids are not in the corpus (first: "
                             f"{missing[0]!r}); was it clustered from another corpus?") from None

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

# cells read per chunk of the body (256 rows at T=24): bounds the lines, and
# on the csv.reader path the cell strings, held at once. np.loadtxt's fixed
# cost of ~10 us a call is ~2% of a 256-row call
_CHUNK_CELLS = 6144

# a chunk holding any of these is read with csv.reader: a quote, and the four
# separators np.loadtxt strips around a number as whitespace but float() does
# not accept
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'

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
    csv_rows: int = 0    # body rows read by csv.reader, not np.loadtxt


def _parse_chunk(rows, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of a chunk's rows, and each row's index into
    `_EXCLUSION_REASONS` (-1 keeps the row).

    `rows` holds `horizon` cells per row: the array np.loadtxt read, or the
    lists of strings csv.reader read. One `np.array(rows, dtype=float)`
    converts either (strings with `float()`, so it accepts exactly the
    spellings `float()` accepts) into a new array.
    """
    unparsed = np.zeros(len(rows), dtype=bool)
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        # only now convert row by row, to find the rows holding a bad cell
        values = np.zeros((len(rows), horizon))
        for i, row in enumerate(rows):
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


def _id_problem(uid: str) -> str | None:
    """Why a stripped user id ends the body, or None. A NUL is refused
    because numpy str arrays drop trailing NULs, which would merge ids."""
    if not uid:
        return "missing user_id"
    if "\x00" in uid:
        return "user_id contains NUL"
    return None


def _body_chunks(fh, path, horizon: int):
    """The rows after the header, a chunk at a time: (number of the first
    row, each row's stripped user id, the rows' cells). The cells are rows
    of `horizon` cells, an array from np.loadtxt or lists of strings from
    csv.reader (see `_parse_chunk`). A row of the wrong length, without an
    id or with a NUL in its id ends the body: the generator yields the rows
    before it, then raises its error.

    Iterating `fh` (opened with newline="") ends a line at CR, LF or CRLF,
    where csv ends a record outside quotes. So in a chunk of lines with no
    character of `_CSV_ONLY`, each line split at its first comma is one
    row: np.loadtxt reads the tails after the ids, and as it raises on
    ragged tails and skips blank ones, a (lines, horizon) shape shows that
    every line had `horizon` cells. Where both accept a cell, np.loadtxt and
    float() give the same double; a cell np.loadtxt rejects (`1_0`,
    non-ASCII digits, a bad cell) sends its chunk to csv.reader, as does any
    other chunk. csv.reader reads on past the chunk's last line while a
    quoted field holds a line break, and stops at a ragged row. Either
    path's ids are then checked at once: a bad one before it ends the body.
    """
    chunk_rows = max(1, _CHUNK_CELLS // horizon)
    first_row = 2
    while lines := list(islice(fh, chunk_rows)):
        error = None
        cells = None
        text = "".join(lines)
        parts = [line.partition(",") for line in lines]
        tails = [tail for _, _, tail in parts]
        # np.loadtxt warns on a chunk of blank tails: csv.reader has those
        if not any(c in text for c in _CSV_ONLY) and any(map(str.strip, tails)):
            try:
                cells = np.loadtxt(tails, delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                pass   # a cell it rejects: csv.reader and float() decide
            if cells is not None and cells.shape != (len(lines), horizon):
                cells = None
        if cells is not None:
            ids = [uid.strip() for uid, _, _ in parts]
        else:
            ids, cells = [], []
            reader = csv.reader(chain(lines, fh))
            for row in reader:
                if len(row) != horizon + 1:
                    problem = f"{len(row) - 1} slots, header has {horizon}" if row else "blank line"
                    error = InconsistentHorizon(f"{path} row {first_row + len(ids)}: {problem}")
                    break
                ids.append(row[0].strip())
                cells.append(row[1:])
                if reader.line_num >= len(lines):
                    break
            text += "".join(ids)   # a quoted id may run past the chunk's lines
        if not all(ids) or "\x00" in text:
            bad = next((i for i, uid in enumerate(ids) if _id_problem(uid)), None)
            if bad is not None:
                error = MalformedRow(first_row + bad, _id_problem(ids[bad]))
                ids, cells = ids[:bad], cells[:bad]
        yield first_row, ids, cells
        if error is not None:
            raise error
        first_row += len(ids)


def _undecodable(path) -> str:
    """Where a file's first byte that is not UTF-8 lies, for an error message."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return (f"{path} line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                f"({exc.reason})")
    return f"{path}: not UTF-8"


def ingest_csv(path) -> IngestResult:
    """Read profiles from a CSV with header ``user_id,t0,...,t{T-1}``.

    Rows with empty, non-numeric, infinite or negative cells, and rows
    with zero total consumption, are dropped and counted. A row whose field
    count disagrees with the header raises InconsistentHorizon; a missing
    or duplicate user id, or one holding a NUL, raises MalformedRow. Rows
    are judged in order, so the first bad row in the file decides the
    error. A byte that is not UTF-8 raises ValueError naming its line, once
    reading reaches it.

    The body is read in chunks of about `_CHUNK_CELLS` cells. np.loadtxt
    reads a chunk whose lines hold no quote and exactly one field per header
    column; any other chunk (a quoted field, a blank or ragged line, a cell
    np.loadtxt rejects) is read with csv.reader and its cells converted by
    one numpy call. Either way a chunk's rows are judged at once, and its ids
    are checked at once unless one repeats. `csv_rows` counts the rows
    csv.reader read.
    """
    user_ids: list[str] = []
    blocks: list[np.ndarray] = []
    seen: set[str] = set()   # ids of kept rows only
    excluded: list[tuple[int, str]] = []
    csv_rows = 0

    def judge(first_row, ids, cells):
        """Keep or exclude each row of a chunk."""
        if not ids:
            return
        values, reasons = _parse_chunk(cells, horizon)
        keep = reasons < 0
        if len(set(ids)) < len(ids) or not seen.isdisjoint(ids):
            # an id repeats: walk the rows, so the first row that repeats
            # the id of a kept row raises
            for row_number, uid, kept in zip(count(first_row), ids, keep.tolist()):
                if uid in seen:
                    raise MalformedRow(row_number, f"duplicate user_id {uid!r}")
                if kept:
                    seen.add(uid)
        if not keep.all():
            ids = list(compress(ids, keep.tolist()))
            excluded.extend((first_row + i, _EXCLUSION_REASONS[reasons[i]])
                            for i in np.flatnonzero(~keep).tolist())
            values = values[keep]
        seen.update(ids)
        user_ids.extend(ids)
        blocks.append(values)

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise InconsistentHorizon(f"{path}: empty file, no header") from None
            if len(header) < 2 or header[0] != "user_id":
                raise InconsistentHorizon(
                    f"{path}: header must be user_id,t0,...  got {header[:3]}..."
                )
            horizon = len(header) - 1
            # the rows before a failing row are judged before its error
            # propagates, so a duplicate id among them still raises first
            for first_row, ids, cells in _body_chunks(fh, path, horizon):
                judge(first_row, ids, cells)
                if isinstance(cells, list):
                    csv_rows += len(ids)
    except UnicodeDecodeError:
        raise ValueError(_undecodable(path)) from None

    if not user_ids:
        raise EmptyPopulation(f"{path}: no usable rows")
    # the ids are unique and the rows non-negative: judge() checked both
    pop = Population._checked(user_ids, np.vstack(blocks))
    return IngestResult(pop, len(excluded), excluded, csv_rows)


def write_csv(pop: Population, path) -> None:
    """Write a population in the same CSV layout `ingest_csv` reads.

    A chunk of rows is formatted at once, unless one of its ids is not a
    str or is one csv.writer quotes (it holds , " CR or LF).
    """
    horizon = pop.horizon
    row_fmt = "%s," + ",".join([CSV_FLOAT_FMT] * horizon) + "\r\n"
    chunk_rows = max(1, _CHUNK_CELLS // horizon)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id"] + [f"t{t}" for t in range(horizon)])
        for start in range(0, pop.n_users, chunk_rows):
            ids = pop.user_ids[start:start + chunk_rows]
            rows = pop.consumption[start:start + chunk_rows].tolist()
            if all(isinstance(uid, str) for uid in ids) and not any(
                    c in "".join(ids) for c in ',"\r\n'):
                fh.write("".join([row_fmt % (uid, *row) for uid, row in zip(ids, rows)]))
            else:
                writer.writerows([uid] + [CSV_FLOAT_FMT % v for v in row]
                                 for uid, row in zip(ids, rows))


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
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon!r}")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be >= 0")
        if len(self.peak_locations) != len(self.peak_widths):
            raise ValueError("one width per peak location required")
        if len(self.mixture_concentration) != len(self.peak_locations):
            raise ValueError("one concentration per archetype required")
        if not self.peak_locations:
            raise ValueError("peak_locations must hold at least one archetype")
        for key in ("peak_widths", "mixture_concentration"):
            if not all(v > 0 for v in getattr(self, key)):
                raise ValueError(f"every value of {key} must be > 0, got {getattr(self, key)!r}")
        if not (0 < self.total_range[0] <= self.total_range[1]):
            raise ValueError("total_range must satisfy 0 < lo <= hi")
        # ingest_csv refuses a NUL in an id and strips the whitespace around it
        prefix = self.id_prefix
        if not isinstance(prefix, str) or "\0" in prefix or prefix != prefix.lstrip():
            raise ValueError("id_prefix must be a string with no NUL and no leading "
                             f"whitespace, which a written corpus cannot keep; got {prefix!r}")


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
