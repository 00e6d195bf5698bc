import itertools

import numpy as np
import pytest

from gridrates import (
    CostModel,
    InstanceTooLarge,
    MciTable,
    Tariff,
    aggregate,
    criterion_check,
    generate_corpus,
    gkc,
    kmeans_profiles,
    mci_table,
    minimal_clusters_oracle,
    price_curve,
    residential_spec,
    skc,
)
from gridrates.model import mci_matrix
from gridrates.profiles import Population


def _table(values, ids=None):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    if ids is None:
        ids = [f"u{i}" for i in range(values.size)]
    return MciTable(
        user_ids=np.asarray(ids, dtype=str)[order], mcis=values[order]
    )


def _enumerate_min_clusters(values, rho):
    """Brute force over all contiguous partitions of the sorted values."""
    values = sorted(values)
    n = len(values)
    best = n
    for cuts in itertools.product([0, 1], repeat=n - 1):
        start = 0
        count = 0
        ok = True
        for i in range(n):
            if i == n - 1 or cuts[i] == 1:
                if values[i] - values[start] > 2 * rho:
                    ok = False
                    break
                count += 1
                start = i + 1
        if ok:
            best = min(best, count)
    return best


def _pipeline(n=300, seed=0):
    # keep the aggregate near the fitted coefficients' positive-price range
    scale = 10_000 / n
    spec = residential_spec(n, seed=seed, total_range=(800.0 * scale, 1800.0 * scale))
    pop = generate_corpus(spec)
    prices = price_curve(CostModel(0.00012, -37.38), aggregate(pop))
    return pop, prices


# ---------------------------------------------------------------------------
# rate table
# ---------------------------------------------------------------------------

def test_mci_table_single_user():
    pop = Population(["solo"], [[1.0, 2.0]])
    table = mci_table(pop, price_curve(CostModel(1.0, 0.0), aggregate(pop)))
    assert table.n_users == 1
    assert table.user_ids[0] == "solo"


@pytest.mark.parametrize("ids, mcis, message", [
    (["a", "b"], [1.0], "one rate per user id"),
    (["a", "b"], [1.0, np.nan], "rates must be finite"),
    (["a", "b"], [2.0, 1.0], "rates must be sorted ascending"),
])
def test_mci_table_validation(ids, mcis, message):
    with pytest.raises(ValueError, match=message):
        MciTable(user_ids=np.asarray(ids), mcis=np.asarray(mcis))


def test_mci_table_ties_ordered_by_user_id():
    pop = Population(["z", "a"], [[1.0, 1.0], [2.0, 2.0]])  # equal rates
    table = mci_table(pop, price_curve(CostModel(1.0, 0.0), aggregate(pop)))
    assert table.user_ids.tolist() == ["a", "z"]


def test_mci_table_sorted_on_random_population():
    pop, prices = _pipeline(n=1000, seed=3)
    table = mci_table(pop, prices)
    diffs = np.diff(table.mcis)
    assert np.all(diffs >= 0)


# ---------------------------------------------------------------------------
# greedy covering
# ---------------------------------------------------------------------------

def test_gkc_hand_trace():
    table = _table([1.0, 1.5, 2.1, 4.0])
    out = gkc(table, rho=0.5)
    assert out.k == 3
    assert out.labels.tolist() == [0, 0, 1, 2]
    np.testing.assert_allclose(out.prices, [1.25, 2.1, 4.0])


def test_gkc_all_equal_rates_single_cluster():
    table = _table([3.3] * 7)
    out = gkc(table, rho=0.1)
    assert out.k == 1
    assert out.prices[0] == 3.3


def test_gkc_large_rho_single_cluster():
    table = _table([1.0, 2.0, 5.0])
    out = gkc(table, rho=2.0)  # rho >= span/2
    assert out.k == 1
    assert out.prices[0] == 3.0


def test_gkc_singleton_tail_is_clustered():
    table = _table([0.0, 0.1, 9.9])
    out = gkc(table, rho=0.5)
    assert out.k == 2
    assert out.labels.tolist() == [0, 0, 1]


def test_gkc_clusters_are_contiguous_and_exhaustive():
    rng = np.random.default_rng(4)
    table = _table(rng.uniform(0, 30, size=500))
    out = gkc(table, rho=0.7)
    assert np.all(np.diff(out.labels) >= 0)  # contiguous over sorted axis
    assert np.all(np.diff(out.labels) <= 1)  # no skipped cluster index
    assert set(out.labels.tolist()) == set(range(out.k))


def test_gkc_never_splits_equal_rates():
    table = _table([1.0, 1.0, 1.0, 1.5, 2.2, 2.2])
    out = gkc(table, rho=0.3)
    labels = dict(zip(table.mcis.tolist(), out.labels.tolist()))
    for value in (1.0, 2.2):
        members = [l for v, l in zip(table.mcis, out.labels) if v == value]
        assert len(set(members)) == 1


def test_gkc_count_non_increasing_in_rho():
    rng = np.random.default_rng(5)
    table = _table(rng.uniform(0, 20, size=400))
    counts = [gkc(table, rho).k for rho in (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 50.0)]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 1


def test_gkc_rejects_bad_rho():
    with pytest.raises(ValueError):
        gkc(_table([1.0, 2.0]), rho=0.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
def test_rate_bands_need_a_finite_positive_rho(rho):
    pop, prices = _pipeline(n=50, seed=9)
    base = kmeans_profiles(pop, k=2, prices=prices, seed=0)
    table = mci_table(pop, prices)
    for build in (lambda: gkc(table, rho), lambda: skc(pop, prices, rho, base),
                  lambda: minimal_clusters_oracle(table, rho)):
        with pytest.raises(ValueError, match=rf"^rho must be finite and > 0, got {rho}$"):
            build()


# ---------------------------------------------------------------------------
# optimality oracle
# ---------------------------------------------------------------------------

def test_oracle_hand_trace():
    assert minimal_clusters_oracle(_table([1.0, 1.5, 2.1, 4.0]), rho=0.5) == 3
    assert _enumerate_min_clusters([1.0, 1.5, 2.1, 4.0], 0.5) == 3


def test_oracle_all_equal():
    assert minimal_clusters_oracle(_table([2.0] * 9), rho=0.01) == 1


def test_oracle_matches_enumeration_on_small_instances():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        values = rng.uniform(0, 5, size=n)
        rho = float(rng.uniform(0.05, 2.0))
        table = _table(values)
        assert minimal_clusters_oracle(table, rho) == _enumerate_min_clusters(values, rho)


def test_gkc_is_optimal_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        values = rng.uniform(0, 40, size=n)
        rho = float(rng.uniform(0.1, 5.0))
        table = _table(values)
        assert gkc(table, rho).k == minimal_clusters_oracle(table, rho)


def _reference_gkc(mcis, rho):
    """The per-band loop `gkc` replaced, kept as its oracle: (labels, prices)."""
    n = mcis.size
    labels = np.empty(n, dtype=int)
    prices = []
    i = 0
    j = 0
    while i < n:
        hi = np.searchsorted(mcis, mcis[i] + 2.0 * rho, side="right")
        labels[i:hi] = j
        prices.append((mcis[i] + mcis[hi - 1]) / 2.0)
        i = int(hi)
        j += 1
    return labels, np.asarray(prices, dtype=float)


def test_gkc_matches_per_band_loop():
    # rates rounded to 0, 1 or 2 decimals repeat, and land exactly on band
    # ends 2*rho past a band's first rate
    rng = np.random.default_rng(18)
    for _ in range(60):
        n = int(rng.integers(1, 400))
        values = np.round(rng.uniform(-3.0, 12.0, n), int(rng.integers(0, 3)))
        rho = float(rng.choice([0.05, 0.25, 0.5, 3.0]))
        table = _table(values)
        got = gkc(table, rho)
        labels, prices = _reference_gkc(table.mcis, rho)
        np.testing.assert_array_equal(got.labels, labels)
        assert got.labels.dtype == labels.dtype
        assert got.prices.tobytes() == prices.tobytes()
        assert got.user_ids.tolist() == table.user_ids.tolist()


def test_oracle_instance_cap():
    rng = np.random.default_rng(8)
    table = _table(rng.uniform(0, 1, size=50))
    with pytest.raises(InstanceTooLarge):
        minimal_clusters_oracle(table, rho=0.1, cap=10)


# ---------------------------------------------------------------------------
# bisecting refinement
# ---------------------------------------------------------------------------

def test_skc_keeps_narrow_base_cluster():
    pop, prices = _pipeline(n=50, seed=9)
    base = kmeans_profiles(pop, k=1, prices=prices, seed=0)
    table = mci_table(pop, prices)
    span = table.mcis.max() - table.mcis.min()
    out = skc(pop, prices, rho=span, base_clustering=base)  # range < 2*rho
    assert out.k == 1


def test_skc_one_bisection_for_two_extremes():
    pop = Population(["lo", "hi"], [[1.0, 0.0], [0.0, 1.0]])
    prices = price_curve(CostModel(1.0, 0.0), aggregate(pop))  # p = [2, 2]... equal
    # use an explicit asymmetric price curve instead
    from gridrates import PriceCurve
    prices = PriceCurve(np.array([0.0, 10.0]))
    base = kmeans_profiles(pop, k=1, prices=prices, seed=0)
    out = skc(pop, prices, rho=1.0, base_clustering=base)
    assert out.k == 2
    assert sorted(np.bincount(out.labels).tolist()) == [1, 1]


def test_skc_meets_band_criterion_across_seeds():
    for seed in range(5):
        pop, prices = _pipeline(n=200, seed=seed)
        base = kmeans_profiles(pop, k=6, prices=prices, seed=seed)
        out = skc(pop, prices, rho=0.5, base_clustering=base)
        ok, worst = criterion_check(out)
        assert ok, f"seed {seed}: worst gap {worst}"


def test_skc_recursion_depth_guard():
    from gridrates.errors import RecursionDepthExceeded
    from gridrates.robust import _bisect_ranges

    mcis = np.array([0.0, 10.0])
    with pytest.raises(RecursionDepthExceeded):
        _bisect_ranges(mcis, np.array([0, 1]), rho=1.0, depth=65)


@pytest.mark.parametrize("mcis, depth", [
    ([0.0, 1.0], 0),          # fits 2*rho: no split
    ([0.0, 1.0, 10.0], 1),    # one split; both halves fit
    ([0.0, 3.0, 10.0], 2),    # the low half {0, 3} is split again
    ([0.0, 2.0], 0),          # a span of exactly 2*rho is kept whole
    ([0.0, 2.0, 5.0], 1),     # and so is such a half: {0, 2} is not split again
])
def test_skc_bisection_reports_its_depth(mcis, depth):
    from gridrates.robust import _bisect_ranges

    pieces, deepest = _bisect_ranges(np.array(mcis), np.arange(len(mcis)), rho=1.0)
    assert deepest == depth
    assert sorted(np.concatenate(pieces).tolist()) == list(range(len(mcis)))


def test_skc_count_at_least_gkc_count():
    pop, prices = _pipeline(n=500, seed=10)
    base = kmeans_profiles(pop, k=8, prices=prices, seed=1)
    refined = skc(pop, prices, rho=0.25, base_clustering=base)
    greedy = gkc(mci_table(pop, prices), rho=0.25)
    assert refined.k >= greedy.k


# ---------------------------------------------------------------------------
# band criterion
# ---------------------------------------------------------------------------

def test_criterion_holds_for_gkc_by_construction():
    rng = np.random.default_rng(11)
    table = _table(rng.uniform(0, 25, size=300))
    out = gkc(table, rho=0.4)
    ok, worst = criterion_check(out)
    assert ok
    assert worst <= 0.4 + 1e-12


def test_criterion_fails_for_min_priced_full_width_cluster():
    tariff = Tariff(
        user_ids=["a", "b"],
        labels=np.array([0, 0]),
        prices=np.array([0.0]),  # cluster-min pricing: worst gap 2*rho
        method="gkc",
        rates=np.array([0.0, 1.0]),  # range exactly 2*rho with rho=0.5
        rho=0.5,
    )
    ok, worst = criterion_check(tariff)
    assert not ok
    assert worst == pytest.approx(1.0)


def test_criterion_check_against_explicit_table():
    # the tariff carries its table's rates and its rho, so the check needs nothing else
    pop, prices = _pipeline(n=100, seed=12)
    table = mci_table(pop, prices)
    out = gkc(table, rho=0.3)
    assert np.array_equal(out.rates, table.mcis)
    ok, worst = criterion_check(out)
    assert ok
    assert worst <= 0.3 + 1e-12
