import math

import numpy as np
import pytest

from gridrates import (
    EmptyPopulation,
    InconsistentHorizon,
    LoadProfile,
    MalformedRow,
    Population,
    ZeroProfile,
    aggregate,
    commercial_spec,
    generate_corpus,
    ingest_csv,
    mean_pairwise_l1,
    normalize,
    residential_spec,
    write_csv,
)


def test_normalize_symmetric():
    out = normalize(LoadProfile("u", [2, 2]))
    np.testing.assert_allclose(out.weights, [0.5, 0.5])


def test_normalize_direct_division():
    out = normalize(LoadProfile("u", [0, 3, 1]))
    np.testing.assert_allclose(out.weights, [0, 0.75, 0.25])


def test_normalize_sums_to_one_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(100):
        vec = rng.uniform(0, 5, size=24)
        vec[rng.integers(24)] += 0.1  # ensure nonzero
        once = normalize(LoadProfile("u", vec))
        assert abs(once.weights.sum() - 1.0) <= 1e-12
        twice = normalize(LoadProfile("u", once.weights))
        np.testing.assert_allclose(twice.weights, once.weights, atol=1e-12)


def test_normalize_zero_profile():
    with pytest.raises(ZeroProfile):
        normalize(LoadProfile("u", [0.0, 0.0]))


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


def test_residential_more_heterogeneous_than_commercial():
    res = generate_corpus(residential_spec(400, seed=9))
    com = generate_corpus(commercial_spec(400, seed=9))
    res_spread = mean_pairwise_l1(res.normalized())
    com_spread = mean_pairwise_l1(com.normalized())
    assert res_spread > com_spread


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        residential_spec(n_users=0, seed=1)
    with pytest.raises(ValueError):
        residential_spec(n_users=5, seed=1, noise_scale=-0.1)
    with pytest.raises(ValueError):
        residential_spec(n_users=5, seed=1, kind="industrial")
