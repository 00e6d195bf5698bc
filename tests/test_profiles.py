import csv
import io
import math
import warnings

import numpy as np
import pytest

from gridrates import (
    EmptyPopulation,
    IngestResult,
    InconsistentHorizon,
    MalformedRow,
    Population,
    ZeroProfile,
    aggregate,
    commercial_spec,
    generate_corpus,
    ingest_csv,
    normalize_matrix,
    residential_spec,
    write_csv,
)
from gridrates import profiles


def test_normalize_symmetric():
    np.testing.assert_allclose(normalize_matrix([[2, 2]]), [[0.5, 0.5]])


def test_normalize_direct_division():
    np.testing.assert_allclose(normalize_matrix([[0, 3, 1]]), [[0, 0.75, 0.25]])


def test_normalize_sums_to_one_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(100):
        vec = rng.uniform(0, 5, size=(1, 24))
        vec[0, rng.integers(24)] += 0.1  # ensure nonzero
        once = normalize_matrix(vec)
        assert abs(once.sum() - 1.0) <= 1e-12
        twice = normalize_matrix(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)


def test_normalize_zero_profile():
    with pytest.raises(ZeroProfile):
        normalize_matrix([[0.0, 0.0]])


def test_aggregate_direct_sum():
    pop = Population(["a", "b"], [[1, 2], [3, 4]])
    np.testing.assert_allclose(aggregate(pop).loads, [4, 6])


def test_aggregate_empty_population():
    pop = Population([], np.empty((0, 24)))
    with pytest.raises(EmptyPopulation):
        aggregate(pop)


def test_aggregate_matches_fsum_oracle_exactly():
    # dyadic-valued profiles make every float sum exact, so the pairwise
    # numpy reduction and the compensated per-column fsum must agree bitwise
    rng = np.random.default_rng(1)
    mat = rng.integers(0, 4096, size=(100, 24)).astype(float) / 64.0
    pop = Population([f"u{i}" for i in range(100)], mat)
    got = aggregate(pop).loads
    expected = [math.fsum(mat[:, t]) for t in range(24)]
    assert got.tolist() == expected


def test_aggregate_total_equals_sum_of_user_totals():
    rng = np.random.default_rng(2)
    mat = rng.uniform(0, 3, size=(50, 24))
    pop = Population([f"u{i}" for i in range(50)], mat)
    assert aggregate(pop).loads.sum() == pytest.approx(mat.sum(axis=1).sum(), rel=1e-12)


def test_population_validation():
    with pytest.raises(ValueError):
        Population(["a", "a"], [[1, 2], [3, 4]])  # duplicate ids
    with pytest.raises(ValueError):
        Population(["a"], [[1, -2]])  # negative load
    with pytest.raises(ValueError, match=r"must be an \(N, T\) matrix"):
        Population(["a"], [1, 2])
    with pytest.raises(ValueError, match="one user id per consumption row"):
        Population(["a", "b"], [[1, 2]])


def test_ingest_population_equals_checked_population(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\n b ,1,2.5\na,0,3\nc,-1,1\n")
    got = ingest_csv(path).population
    expected = Population(["b", "a"], np.array([[1, 2.5], [0, 3]]))
    assert type(got) is Population and vars(got).keys() == vars(expected).keys()
    assert type(got.user_ids) is list and got.user_ids == expected.user_ids
    assert got.consumption.dtype == expected.consumption.dtype
    assert got.consumption.tobytes() == expected.consumption.tobytes()
    assert got.consumption.shape == expected.consumption.shape


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_ingest_well_formed(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(
        "user_id,t0,t1,t2\n"
        "a,1,2,3\n"
        "b,4,5,6\n"
        "c,7,8,9\n"
    )
    result = ingest_csv(path)
    assert result.population.n_users == 3
    assert result.n_excluded == 0
    assert result.population.horizon == 3


def test_ingest_drops_row_with_empty_cell(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\na,1,\nb,3,4\n")
    result = ingest_csv(path)
    assert result.population.n_users == 1
    assert result.n_excluded == 1
    assert result.excluded_rows[0][0] == 2


def test_ingest_drops_negative_and_zero_rows(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\na,1,-2\nb,0,0\nc,3,4\n")
    result = ingest_csv(path)
    assert result.population.user_ids == ["c"]
    assert result.n_excluded == 2


def test_ingest_drops_rows_with_infinite_cells(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\na,1,inf\nb,-inf,2\nc,1e400,1\nd,3,4\ne,nan,inf\n")
    result = ingest_csv(path)
    assert result.population.user_ids == ["d"]
    assert result.n_excluded == 4
    assert result.excluded_rows == [(2, "infinite value"), (3, "infinite value"),
                                    (4, "infinite value"), (6, "missing value")]


def test_ingest_mixed_horizons_rejected(tmp_path):
    path = tmp_path / "pop.csv"
    rows24 = ",".join(["1"] * 24)
    rows48 = ",".join(["1"] * 48)
    path.write_text(
        "user_id," + ",".join(f"t{t}" for t in range(24)) + "\n"
        f"a,{rows24}\nb,{rows48}\n"
    )
    with pytest.raises(InconsistentHorizon):
        ingest_csv(path)


def test_ingest_duplicate_id_rejected(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\na,1,2\na,3,4\n")
    with pytest.raises(MalformedRow):
        ingest_csv(path)


@pytest.mark.parametrize("text, message", [
    ("", "empty file, no header"),
    ("id,t0,t1\na,1,2\n", "header must be user_id,t0,..."),
    ("user_id\na\n", "header must be user_id,t0,..."),
])
def test_ingest_header_errors(tmp_path, text, message):
    path = tmp_path / "pop.csv"
    path.write_text(text)
    with pytest.raises(InconsistentHorizon) as info:
        ingest_csv(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_ingest_missing_file():
    with pytest.raises(OSError):
        ingest_csv("/nonexistent/pop.csv")


def test_csv_round_trip(tmp_path):
    spec = residential_spec(n_users=20, seed=5)
    pop = generate_corpus(spec)
    path = tmp_path / "out.csv"
    write_csv(pop, path)
    back = ingest_csv(path)
    assert back.population.user_ids == pop.user_ids
    np.testing.assert_allclose(back.population.consumption, pop.consumption, rtol=1e-8)


def _reference_ingest_csv(path) -> IngestResult:
    """The row-by-row `ingest_csv` that the bulk parse replaced, kept as
    the oracle for the differential test below; its one later rule refuses
    an id holding a NUL."""
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

        user_ids: list[str] = []
        rows: list[np.ndarray] = []
        seen: set[str] = set()
        excluded: list[tuple[int, str]] = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                raise InconsistentHorizon(f"{path} row {row_number}: blank line")
            if len(row) != horizon + 1:
                raise InconsistentHorizon(
                    f"{path} row {row_number}: {len(row) - 1} slots, header has {horizon}"
                )
            uid = row[0].strip()
            if not uid:
                raise MalformedRow(row_number, "missing user_id")
            if "\x00" in uid:
                raise MalformedRow(row_number, "user_id contains NUL")
            if uid in seen:
                raise MalformedRow(row_number, f"duplicate user_id {uid!r}")
            try:
                values = np.array([float(cell) for cell in row[1:]])
            except ValueError:
                excluded.append((row_number, "non-numeric or empty cell"))
                continue
            if not np.isfinite(values).all():
                reason = "missing value" if np.isnan(values).any() else "infinite value"
                excluded.append((row_number, reason))
                continue
            if np.any(values < 0):
                excluded.append((row_number, "negative consumption"))
                continue
            if values.sum() <= 0:
                excluded.append((row_number, "zero total consumption"))
                continue
            seen.add(uid)
            user_ids.append(uid)
            rows.append(values)

    if not rows:
        raise EmptyPopulation(f"{path}: no usable rows")
    pop = Population(user_ids, np.vstack(rows))
    return IngestResult(pop, len(excluded), excluded)


def _outcome(ingest, path):
    """Everything a caller can observe of one ingest: result or error."""
    try:
        result = ingest(path)
    except (InconsistentHorizon, MalformedRow, EmptyPopulation) as exc:
        return type(exc), str(exc)
    pop = result.population
    return (pop.user_ids, pop.consumption.tobytes(), result.n_excluded,
            result.excluded_rows)


_GOOD_CELLS = ["1", "0", "2.5", "0.0", "-0", "3e2", " 3", "1_0", "7 "]
_BAD_CELLS = ["", "abc", "nan", "-nan", "inf", "-inf", "Infinity", "1e400",
              "-1", "-2.5e-3", "1e308", "0x10"]
_IDS = ["a", "b", "c", "d", " a", "e,f", "g h", "", " "]


def _random_csv(rng, path):
    horizon = int(rng.integers(1, 5))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["user_id"] + [f"t{t}" for t in range(horizon)])
    for i in range(int(rng.integers(0, 30))):
        # mostly distinct ids; a few from a small pool to force duplicates
        uid = _IDS[rng.integers(len(_IDS))] if rng.random() < 0.3 else f"u{i}"
        width = horizon
        if rng.random() < 0.03:
            width += int(rng.choice([-1, 1]))   # ragged row
        cells = [_GOOD_CELLS[rng.integers(len(_GOOD_CELLS))]
                 if rng.random() < 0.9 else _BAD_CELLS[rng.integers(len(_BAD_CELLS))]
                 for _ in range(width)]
        if rng.random() < 0.05:
            cells = ["0"] * width                # zero row
        writer.writerow([uid] + cells)
    path.write_text(out.getvalue(), encoding="utf-8")


@pytest.mark.parametrize("chunk_cells", [1, 7, 6144])
def test_ingest_matches_row_by_row_reference(tmp_path, monkeypatch, chunk_cells):
    monkeypatch.setattr(profiles, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(20_000 + chunk_cells)
    kinds = set()
    for case in range(200):
        path = tmp_path / f"case{case}.csv"
        _random_csv(rng, path)
        with np.errstate(all="ignore"):
            expected = _outcome(_reference_ingest_csv, path)
        assert _outcome(ingest_csv, path) == expected, path.read_text()
        kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
    # the seeded cases reach every outcome
    assert kinds == {"ok", InconsistentHorizon, MalformedRow, EmptyPopulation}


# cells and ids csv keeps whole that a line splitter could break: form
# feed, the line and paragraph separators, NEL, NUL, a stray quote
_ODD_CELLS = ["1\x0c", "\u20282", "3\u2029", "\x854", "1\x00", '1"2', '"5"']
_ODD_IDS = ['"two\nlines"', '"cr\rin id"', '"q, ""x"""', 'a"b', "\x0cc", "d\x00"]
_LINE_ENDS = ["\n", "\r\n", "\r"]


def _random_raw_csv(rng, path):
    """A CSV written line by line, with the lines `_random_csv` never makes:
    CR-only and mixed line ends, blank lines, quoted ids holding a line
    break, stray quotes, odd whitespace and NUL in cells, no final line end,
    and a line with one comma too many beside one with one too few."""
    horizon = int(rng.integers(1, 5))
    lines = ["user_id," + ",".join(f"t{t}" for t in range(horizon))]
    for i in range(int(rng.integers(0, 30))):
        if rng.random() < 0.02:
            lines.append("")                     # blank line
            continue
        roll = rng.random()
        uid = (_ODD_IDS[rng.integers(len(_ODD_IDS))] if roll < 0.1 else
               _IDS[rng.integers(len(_IDS))] if roll < 0.25 else f"u{i}")
        cells = [_GOOD_CELLS[rng.integers(len(_GOOD_CELLS))] if rng.random() < 0.9
                 else _ODD_CELLS[rng.integers(len(_ODD_CELLS))] for _ in range(horizon)]
        lines.append(",".join([uid] + cells))
    if len(lines) > 2 and rng.random() < 0.2:
        # neighbours, so that often one chunk holds both and its comma count
        # is right in total
        i = int(rng.integers(1, len(lines) - 1))
        lines[i] += ",1"
        lines[i + 1] = lines[i + 1].rpartition(",")[0]
    mixed = rng.random() < 0.5
    end = _LINE_ENDS[rng.integers(len(_LINE_ENDS))]
    ends = [_LINE_ENDS[rng.integers(len(_LINE_ENDS))] if mixed else end for _ in lines]
    if rng.random() < 0.3:
        ends[-1] = ""                            # no final line end
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))


@pytest.mark.parametrize("chunk_cells", [1, 7, 6144])
def test_ingest_matches_reference_on_raw_lines(tmp_path, monkeypatch, chunk_cells):
    monkeypatch.setattr(profiles, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(30_000 + chunk_cells)
    kinds = set()
    for case in range(300):
        path = tmp_path / f"case{case}.csv"
        _random_raw_csv(rng, path)
        with np.errstate(all="ignore"):
            expected = _outcome(_reference_ingest_csv, path)
        assert _outcome(ingest_csv, path) == expected, path.read_bytes()
        kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert kinds == {"ok", InconsistentHorizon, MalformedRow, EmptyPopulation}


def test_clean_corpus_reads_only_its_header_with_csv(tmp_path, monkeypatch):
    pop = generate_corpus(residential_spec(n_users=600, seed=4))
    path = tmp_path / "corpus.csv"
    write_csv(pop, path)
    readers = []

    def counting_reader(lines, *args, **kwargs):
        readers.append(real_reader(lines, *args, **kwargs))
        return readers[-1]

    real_reader = profiles.csv.reader
    monkeypatch.setattr(profiles.csv, "reader", counting_reader)
    result = ingest_csv(path)
    assert result.population.user_ids == pop.user_ids
    # one reader, and it read one line: the header. np.loadtxt read every
    # chunk of the body
    assert [reader.line_num for reader in readers] == [1]
    assert result.csv_rows == 0

    # a quoted id sends its chunk, and only that chunk, to csv
    chunk_rows = profiles._CHUNK_CELLS // 24
    assert pop.n_users > chunk_rows
    ids = list(pop.user_ids)
    ids[100] = "Smith, J"
    write_csv(Population(ids, pop.consumption), path)
    readers.clear()
    result = ingest_csv(path)
    assert result.population.user_ids == ids
    assert [reader.line_num for reader in readers] == [1, chunk_rows]
    assert result.csv_rows == chunk_rows


# every whitespace character around a cell, and cells float() accepts in
# spellings np.loadtxt rejects
_SPACED_CELLS = [cell for c in map(chr, range(0x110000)) if c.isspace()
                 for cell in (c + "2", "2" + c)] + ["1_0", "\uff11", "\u0663", "1\x00"]


def test_ingest_takes_float_spellings_around_loadtxt(tmp_path):
    assert len(_SPACED_CELLS) > 50
    for case, cell in enumerate(_SPACED_CELLS):
        path = tmp_path / f"case{case}.csv"
        path.write_text(f"user_id,t0,t1\na,1,{cell}\nb,{cell},3\nc,4,5\n",
                        encoding="utf-8", newline="")
        assert _outcome(ingest_csv, path) == _outcome(_reference_ingest_csv, path), repr(cell)


def test_ingest_across_chunk_boundaries(tmp_path, monkeypatch):
    monkeypatch.setattr(profiles, "_CHUNK_CELLS", 8)   # 4 rows of 2 slots
    path = tmp_path / "pop.csv"
    rows = [f"u{i},{i + 1},1" for i in range(10)]
    rows[3] = "u3,abc,1"    # last row of chunk 1
    rows[4] = "u4,-1,1"     # first row of chunk 2
    rows[8] = "u8,0,0"      # first row of chunk 3
    path.write_text("user_id,t0,t1\n" + "\n".join(rows) + "\n")
    result = ingest_csv(path)
    assert result.population.user_ids == [f"u{i}" for i in (0, 1, 2, 5, 6, 7, 9)]
    assert result.population.consumption[:, 0].tolist() == [1, 2, 3, 6, 7, 8, 10]
    assert result.excluded_rows == [(5, "non-numeric or empty cell"),
                                    (6, "negative consumption"),
                                    (10, "zero total consumption")]

    # a duplicate of a kept id in a later chunk; one of an excluded id is fine
    rows[6] = "u4,1,1"
    rows[7] = "u1,1,1"
    path.write_text("user_id,t0,t1\n" + "\n".join(rows) + "\n")
    with pytest.raises(MalformedRow, match="row 9: duplicate user_id 'u1'"):
        ingest_csv(path)


@pytest.mark.parametrize("body", [
    "a,1\nb,\n\n",                 # a chunk of one blank line, after a full one
    "a,\nb,\n",                    # chunks of empty cells: the tails are blank
    "a\nb\n",                      # no comma at all
    "a,1\nb, \n",                  # a tail of whitespace
    "a,1,2\nb,3,4\n",              # ragged in the same way on every line
    "a,1\nb,1,2\nc\nd,4\n",        # the commas add up, the lines do not
])
def test_ingest_reads_odd_tails_as_csv_without_a_warning(tmp_path, monkeypatch, body):
    # np.loadtxt skips blank tails, warns when a chunk has only those and
    # raises on ragged ones; csv.reader decides all of these
    monkeypatch.setattr(profiles, "_CHUNK_CELLS", 2)
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(ingest_csv, path) == _outcome(_reference_ingest_csv, path)


@pytest.mark.parametrize("bad_row", ["x,1,2,3", ",1,2"])
def test_ingest_duplicate_before_row_error_raises_first(tmp_path, bad_row):
    path = tmp_path / "pop.csv"
    path.write_text(f"user_id,t0,t1\na,1,2\na,3,4\n{bad_row}\n")
    with pytest.raises(MalformedRow, match="row 3: duplicate user_id 'a'"):
        ingest_csv(path)
    path.write_text(f"user_id,t0,t1\na,1,2\nb,3,4\n{bad_row}\nb,5,6\n")
    with pytest.raises((InconsistentHorizon, MalformedRow), match="row 4"):
        ingest_csv(path)


@pytest.mark.parametrize("chunk_cells", [1, 7])
def test_ingest_refuses_nul_in_quoted_id_past_its_chunk(tmp_path, monkeypatch, chunk_cells):
    # 2 slots: chunks of 1 and 3 lines; the third row's quoted id starts on
    # a chunk's last line and holds its NUL on the line after it
    monkeypatch.setattr(profiles, "_CHUNK_CELLS", chunk_cells)
    path = tmp_path / "pop.csv"
    path.write_text('user_id,t0,t1\na,1,2\nb,3,4\n"x\ny\x00z",5,6\nd,7,8\n', newline="")
    expected = _outcome(_reference_ingest_csv, path)
    assert expected == (MalformedRow, "row 4: user_id contains NUL")
    assert _outcome(ingest_csv, path) == expected


@pytest.mark.parametrize("body, error", [
    ('"a",1,2\n,3,4\nc,5\n', (MalformedRow, "row 3: missing user_id")),
    ('"a",1,2\nb\x00,3,4\nc,5\n', (MalformedRow, "row 3: user_id contains NUL")),
    ('"a",1,2\nb,3\n,5,6\n', (InconsistentHorizon, "row 3: 1 slots, header has 2")),
    ('"a",1,2\nb,3\nc\x00,5,6\n', (InconsistentHorizon, "row 3: 1 slots, header has 2")),
], ids=["missing-id-then-ragged", "nul-id-then-ragged", "ragged-then-missing-id",
        "ragged-then-nul-id"])
def test_ingest_first_of_bad_id_and_ragged_row_decides(tmp_path, body, error):
    # one chunk, read by csv.reader (a quoted id); its loop stops at the
    # ragged row and the ids are checked after it
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\n" + body, newline="")
    expected = _outcome(_reference_ingest_csv, path)
    assert expected[0] is error[0] and expected[1].endswith(error[1])
    assert _outcome(ingest_csv, path) == expected


def test_ingest_quoted_id_with_comma(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text('user_id,t0,t1\n"Smith, J",1,2\n" b ",3,4\n')
    result = ingest_csv(path)
    assert result.population.user_ids == ["Smith, J", "b"]
    assert result.population.consumption.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("body, ids", [('"a",1,2\n"b c",3,4\n', ["a", "b c"]),
                                       ('a,1,2\nb,"3",4\n', ["a", "b"])])
def test_ingest_unquotes_fields_without_commas(tmp_path, body, ids):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\n" + body)
    result = ingest_csv(path)
    assert result.population.user_ids == ids
    assert result.population.consumption.tolist() == [[1, 2], [3, 4]]
    assert result.csv_rows == 2


def test_ingest_accepts_float_spellings(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("user_id,t0,t1\na, 3,1_0\nb,Infinity,1\nc,1e400,1\n"
                    "d,2.5e0 ,4\ne,1__0,1\n")
    result = ingest_csv(path)
    assert result.population.user_ids == ["a", "d"]
    assert result.population.consumption.tolist() == [[3.0, 10.0], [2.5, 4.0]]
    assert result.excluded_rows == [(3, "infinite value"), (4, "infinite value"),
                                    (6, "non-numeric or empty cell")]


def _reference_write_csv(pop: Population, path) -> None:
    """The row-by-row `write_csv` that the bulk writer replaced, kept
    verbatim as the oracle for its bytes."""
    horizon = pop.horizon
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id"] + [f"t{t}" for t in range(horizon)])
        for uid, row in zip(pop.user_ids, pop.consumption):
            writer.writerow([uid] + [profiles.CSV_FLOAT_FMT % v for v in row])


def _assert_same(got, expected):
    """Equal texts or bytes; a mismatch names its first differing position
    (pytest's own diff of two large files takes minutes)."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        pytest.fail(f"first difference at {at}: {got[at - 60:at + 60]!r} "
                    f"!= {expected[at - 60:at + 60]!r}")


@pytest.mark.parametrize("chunk_cells", [1, 50, 6144])
def test_write_csv_matches_csv_writer_bytes(tmp_path, monkeypatch, chunk_cells):
    monkeypatch.setattr(profiles, "_CHUNK_CELLS", chunk_cells)
    pop = generate_corpus(residential_spec(n_users=300, seed=9))
    ids = list(pop.user_ids)
    # ids csv.writer quotes, in the first, a middle and the last chunk
    for i, uid in zip((0, 130, 299), ("Smith, J", 'say "hi"', "two\nlines")):
        ids[i] = uid
    ids[7], ids[200] = "cr\rhere", "caf\u00e9 \u65e5\u672c"
    pop = Population(ids, pop.consumption * np.linspace(1e-3, 1e6, 300)[:, None])
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    write_csv(pop, got)
    _reference_write_csv(pop, expected)
    _assert_same(got.read_bytes(), expected.read_bytes())


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

def test_generate_corpus_deterministic():
    spec = residential_spec(n_users=50, seed=42)
    one = generate_corpus(spec)
    two = generate_corpus(spec)
    assert one.user_ids == two.user_ids
    assert np.array_equal(one.consumption, two.consumption)


def test_generate_corpus_degenerate_is_uniform():
    spec = residential_spec(
        n_users=10,
        seed=0,
        peak_locations=(19.0,),
        peak_widths=(2.5,),
        mixture_concentration=(1.0,),
        noise_scale=0.0,
        total_range=(1000.0, 1000.0),
    )
    pop = generate_corpus(spec)
    spread = np.abs(pop.consumption - pop.consumption[0]).max()
    assert spread <= 1e-12 * pop.consumption.max()


def test_generate_corpus_nonnegative_and_usable():
    for spec in (residential_spec(200, seed=1), commercial_spec(200, seed=1)):
        pop = generate_corpus(spec)
        assert np.all(pop.consumption >= 0)
        assert np.all(pop.consumption.sum(axis=1) > 0)
        assert pop.horizon == 24


def _mean_pairwise_l1(weights: np.ndarray) -> float:
    """Mean l1 distance over every pair of normalized profiles."""
    idx_a, idx_b = np.triu_indices(len(weights), k=1)
    return float(np.abs(weights[idx_a] - weights[idx_b]).sum(axis=1).mean())


def test_residential_more_heterogeneous_than_commercial():
    res = generate_corpus(residential_spec(400, seed=9))
    com = generate_corpus(commercial_spec(400, seed=9))
    res_spread = _mean_pairwise_l1(res.normalized())
    com_spread = _mean_pairwise_l1(com.normalized())
    assert res_spread > com_spread


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        residential_spec(n_users=0, seed=1)
    with pytest.raises(ValueError):
        residential_spec(n_users=5, seed=1, noise_scale=-0.1)
    with pytest.raises(ValueError):
        residential_spec(n_users=5, seed=1, kind="industrial")
    with pytest.raises(ValueError, match="one width per peak location"):
        residential_spec(n_users=5, seed=1, peak_widths=(1.0,))
    with pytest.raises(ValueError, match="one concentration per archetype"):
        residential_spec(n_users=5, seed=1, mixture_concentration=(1.0, 1.0))
    for total_range in ((0.0, 10.0), (20.0, 10.0)):
        with pytest.raises(ValueError, match="total_range must satisfy"):
            residential_spec(n_users=5, seed=1, total_range=total_range)
    # ingest_csv refuses a NUL in an id and strips leading whitespace
    for prefix in ("u\0", " u", "\tu", 5):
        with pytest.raises(ValueError, match="id_prefix"):
            residential_spec(n_users=5, seed=1, id_prefix=prefix)
    assert residential_spec(n_users=5, seed=1, id_prefix="u ").id_prefix == "u "
