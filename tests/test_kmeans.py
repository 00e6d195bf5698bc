import numpy as np
import pytest

from gridrates import (
    CostModel,
    KTooLarge,
    Population,
    aggregate,
    generate_corpus,
    kmeans_profiles,
    mci,
    price_curve,
    residential_spec,
    sigma,
)


def _random_population(n, t=24, seed=0):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.01, 2.0, size=(n, t))
    return Population([f"u{i:04d}" for i in range(n)], mat)


def test_every_user_its_own_cluster_at_k_equals_n():
    pop = _random_population(12)
    out = kmeans_profiles(pop, k=12, seed=1)
    assert out.k == 12
    assert len(set(out.labels.tolist())) == 12
    assert out.inertia == pytest.approx(0.0, abs=1e-24)


def test_single_cluster_center_is_mean():
    pop = _random_population(40, seed=2)
    out = kmeans_profiles(pop, k=1, seed=0)
    np.testing.assert_allclose(out.centers[0], pop.normalized().mean(axis=0), rtol=1e-12)


def test_recovers_planted_archetypes_exactly():
    morning = generate_corpus(residential_spec(
        25, seed=3, peak_locations=(7.0,), peak_widths=(2.0,),
        mixture_concentration=(1.0,), noise_scale=0.0))
    evening = generate_corpus(residential_spec(
        25, seed=4, peak_locations=(19.0,), peak_widths=(2.0,),
        mixture_concentration=(1.0,), noise_scale=0.0, id_prefix="v"))
    pop = Population(
        morning.user_ids + evening.user_ids,
        np.vstack([morning.consumption, evening.consumption]),
    )
    out = kmeans_profiles(pop, k=2, seed=0)
    groups = {uid[0] for uid in out.user_ids}
    assert groups == {"u", "v"}
    by_prefix = {}
    for uid, label in out.assignments.items():
        by_prefix.setdefault(uid[0], set()).add(label)
    assert by_prefix["u"] != by_prefix["v"]
    assert all(len(v) == 1 for v in by_prefix.values())


def test_objective_non_increasing():
    pop = _random_population(300, seed=5)
    out = kmeans_profiles(pop, k=8, seed=7)
    trace = np.array(out.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9 * (1 + trace[:-1]))


def test_deterministic_for_fixed_seed():
    pop = _random_population(100, seed=6)
    a = kmeans_profiles(pop, k=5, seed=11)
    b = kmeans_profiles(pop, k=5, seed=11)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)


def test_invariant_to_input_row_order():
    pop = _random_population(80, seed=8)
    rng = np.random.default_rng(9)
    perm = rng.permutation(pop.n_users)
    shuffled = Population(
        [pop.user_ids[i] for i in perm], pop.consumption[perm]
    )
    a = kmeans_profiles(pop, k=6, seed=13)
    b = kmeans_profiles(shuffled, k=6, seed=13)
    assert a.assignments == b.assignments
    assert np.array_equal(a.centers, b.centers)


def test_centers_stay_on_simplex():
    pop = _random_population(200, seed=10)
    out = kmeans_profiles(pop, k=7, seed=3)
    np.testing.assert_allclose(out.centers.sum(axis=1), np.ones(7), atol=1e-9)
    assert np.all(out.centers >= -1e-15)


def test_cluster_prices_are_center_rates():
    pop = _random_population(60, seed=11)
    prices = price_curve(CostModel(0.01, 0.5), aggregate(pop))
    out = kmeans_profiles(pop, k=4, prices=prices, seed=1)
    for j in range(4):
        assert out.prices[j] == pytest.approx(mci(prices, out.centers[j]), rel=1e-12)


def test_k_too_large_rejected():
    pop = _random_population(5)
    with pytest.raises(KTooLarge):
        kmeans_profiles(pop, k=6)


def test_duplicate_points_keep_k_clusters_nonempty():
    # more clusters than distinct points forces the empty-cluster repair path
    mat = np.vstack([np.full((6, 4), 0.25), np.tile([0.7, 0.1, 0.1, 0.1], (6, 1))])
    pop = Population([f"u{i}" for i in range(12)], mat)
    out = kmeans_profiles(pop, k=3, seed=0)
    counts = np.bincount(out.labels, minlength=3)
    assert np.all(counts > 0)
    assert out.empty_cluster_repairs >= 1
    # the repair repeats itself from the second iteration on: it stops there
    # with what 100 repaired iterations gave, not at the iteration cap
    assert out.labels.tolist() == [2, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]
    assert out.centers.tolist() == [[0.7000000000000001] + [0.10000000000000002] * 3,
                                    [0.25] * 4, [0.25] * 4]
    assert out.n_iter <= 4 and out.empty_cluster_repairs <= 4
    assert not out.label_fixpoint


def test_sigma_zero_when_members_equal_center():
    pop = Population(["a", "b"], [[1.0, 1.0], [1.0, 1.0]])
    out = kmeans_profiles(pop, k=1, seed=0)
    np.testing.assert_allclose(sigma(out, pop), [0.0], atol=1e-15)


def test_sigma_hand_case():
    pop = Population(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    out = kmeans_profiles(pop, k=1, seed=0)
    np.testing.assert_allclose(out.centers[0], [0.5, 0.5])
    np.testing.assert_allclose(sigma(out, pop), [1.0])


def test_sigma_matches_member_loop_oracle():
    pop = _random_population(150, seed=12)
    out = kmeans_profiles(pop, k=6, seed=5)
    got = sigma(out, pop)
    weights = pop.normalized()
    row_of = {uid: i for i, uid in enumerate(pop.user_ids)}
    for j in range(out.k):
        dists = []
        for uid, label in out.assignments.items():
            if label == j:
                w = weights[row_of[uid]]
                dists.append(float(np.abs(w - out.centers[j]).sum()))
        expected = sum(dists) / len(dists)
        assert got[j] == pytest.approx(expected, rel=1e-12)
    assert np.all(got >= 0) and np.all(got <= 2.0)
