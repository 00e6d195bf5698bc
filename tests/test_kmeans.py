import tracemalloc

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
from gridrates import kmeans
from gridrates.errors import EmptyClusterRepairFailed


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


@pytest.mark.parametrize("seed", range(12))
def test_centers_equal_mask_means_bitwise(seed):
    # the bincount sums add members slot by slot in row order, as the mask
    # mean does, so the centers keep every bit of the member means
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20_000))
    k = int(rng.integers(1, min(n, 40) + 1))
    points = rng.dirichlet(np.ones(int(rng.integers(1, 30))), size=n)
    labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    expected = np.vstack([points[labels == j].mean(axis=0) for j in range(k)])
    sums, counts = kmeans._member_sums(np.ascontiguousarray(points.T), labels, k)
    got = sums / counts[:, None]
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


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


# ---------------------------------------------------------------------------
# the plain Lloyd loop: a full distance matrix and its argmin every iteration
# ---------------------------------------------------------------------------

def _reference_distances(points, centers, metric):
    if metric == "sqeuclidean":
        d = (
            (points**2).sum(axis=1)[:, None]
            + (centers**2).sum(axis=1)[None, :]
            - 2.0 * points @ centers.T
        )
        return np.maximum(d, 0.0)
    if metric == "l1":
        return np.abs(points[:, None, :] - centers[None, :, :]).sum(axis=2)
    raise ValueError(f"unknown metric {metric!r}")


def _reference_centers(points, labels, k):
    sums = [np.bincount(labels, weights=column, minlength=k) for column in points.T]
    return np.stack(sums, axis=1) / np.bincount(labels, minlength=k)[:, None]


def _reference_repair_empty(labels, dist, centers, points, empty_clusters):
    taken = set()
    assigned_dist = dist[np.arange(points.shape[0]), labels]
    order = np.argsort(-assigned_dist, kind="stable")
    for j in empty_clusters:
        for idx in order:
            if int(idx) not in taken and np.sum(labels == labels[idx]) > 1:
                taken.add(int(idx))
                centers[j] = points[idx]
                labels[idx] = j
                break
        else:
            raise EmptyClusterRepairFailed(f"no donor point for empty cluster {j}")
    return labels, centers


def _reference_kmeans(pop, k, seed=0, metric="sqeuclidean"):
    """(labels, centers, n_iter, label_fixpoint, empty_cluster_repairs,
    inertia) of the loop `kmeans_profiles` ran before its Hamerly bounds."""
    order = sorted(range(pop.n_users), key=lambda i: pop.user_ids[i])
    points = pop.normalized()[order]

    rng = np.random.default_rng(seed)
    centers = kmeans._plusplus_seed(points, k, rng)

    labels = None
    repairs = 0
    for n_iter in range(1, kmeans.MAX_ITERS + 1):
        dist = _reference_distances(points, centers, metric)
        new_labels = dist.argmin(axis=1)
        empty = [j for j in range(k) if not np.any(new_labels == j)]
        repaired = bool(empty)
        if repaired:
            new_labels, centers = _reference_repair_empty(new_labels, dist, centers, points, empty)
            repairs += len(empty)
        same = labels is not None and np.array_equal(new_labels, labels)
        stable = same and not repaired
        labels = new_labels
        if stable:
            break
        centers = _reference_centers(points, labels, k)
        if repaired and same:
            break
    else:
        centers = _reference_centers(points, labels, k)
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, centers, n_iter, stable, repairs, inertia


def _corpus(n, seed):
    return generate_corpus(residential_spec(n, seed=seed, total_range=(8e6 / n, 1.8e7 / n)))


def _duplicates():
    mat = np.vstack([np.full((6, 4), 0.25), np.tile([0.7, 0.1, 0.1, 0.1], (6, 1))])
    return Population([f"u{i}" for i in range(12)], mat)


def _clumps(seed):
    """Users at a few shared profiles, some pushed off them: more clusters
    than distinct places, so k-means reseeds empty clusters mid-run."""
    rng = np.random.default_rng(seed)
    places = rng.dirichlet(np.ones(6), size=int(rng.integers(2, 5)))
    n = int(rng.integers(20, 60))
    mat = places[rng.integers(0, len(places), n)]
    pushed = rng.random(n) < 0.4
    mat[pushed] += rng.uniform(0, 0.3, (pushed.sum(), 6))
    return Population([f"u{i:03d}" for i in range(n)], mat)


def _quantized(seed):
    """Profiles of small whole numbers: users tie exactly between centers."""
    rng = np.random.default_rng(seed)
    t, n = int(rng.integers(3, 12)), int(rng.integers(50, 300))
    mat = rng.integers(0, 4, size=(n, t)).astype(float)
    mat[mat.sum(axis=1) == 0, 0] = 1.0
    return Population([f"u{i:04d}" for i in range(n)], mat)


KMEANS_CASES = {
    **{f"2500-k30-seed{s}": (lambda s=s: _corpus(2500, s), 30, s, "sqeuclidean")
       for s in range(1, 5)},
    "100-k8": (lambda: _corpus(100, 5), 8, 5, "sqeuclidean"),
    "duplicates-repair": (_duplicates, 3, 0, "sqeuclidean"),
    "repair-every-iteration-l1": (lambda: _clumps(150), 10, 150, "l1"),
    "quantized-ties": (lambda: _quantized(2000), 18, 0, "sqeuclidean"),
    "quantized-ties-l1": (lambda: _quantized(2000), 18, 0, "l1"),
    "l1-600-k12": (lambda: _corpus(600, 6), 12, 6, "l1"),
    "l1-200-k5": (lambda: _corpus(200, 3), 5, 3, "l1"),
    "k1": (lambda: _corpus(300, 7), 1, 7, "sqeuclidean"),
    "k1-l1": (lambda: _corpus(300, 7), 1, 7, "l1"),
    "k-equals-n": (lambda: _random_population(40, seed=8), 40, 2, "sqeuclidean"),
    "k-equals-n-l1": (lambda: _random_population(40, seed=8), 40, 2, "l1"),
}


@pytest.mark.parametrize("case", sorted(KMEANS_CASES))
def test_bounded_loop_equals_plain_loop_bitwise(case):
    make, k, seed, metric = KMEANS_CASES[case]
    pop = make()
    out = kmeans_profiles(pop, k=k, seed=seed, metric=metric)
    labels, centers, n_iter, fixpoint, repairs, inertia = _reference_kmeans(
        pop, k, seed=seed, metric=metric)
    assert np.array_equal(out.labels, labels)
    assert out.centers.view(np.uint64).tolist() == centers.view(np.uint64).tolist()
    assert (out.n_iter, out.label_fixpoint, out.empty_cluster_repairs) == (n_iter, fixpoint, repairs)
    assert out.inertia == inertia


@pytest.mark.parametrize("budget", [1, 5 * 7 * 24, kmeans._L1_BLOCK_FLOATS])
def test_l1_distances_by_blocks_equal_the_whole_matrix_bitwise(monkeypatch, budget):
    # one user per block, blocks of 5 with a ragged last one, and one block
    points = _random_population(103, seed=9).normalized()
    centers = points[[3, 50, 50, 77, 90, 1, 2]]
    monkeypatch.setattr(kmeans, "_L1_BLOCK_FLOATS", budget)
    got = kmeans._distances(points, centers, "l1")
    expected = _reference_distances(points, centers, "l1")
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_l1_distances_keep_memory_flat():
    points = _random_population(4000, seed=10).normalized()
    centers = points[:30]
    tracemalloc.start()
    kmeans._distances(points, centers, "l1")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the whole (n, k, T) difference would be 23 MB; the result is 1 MB
    assert peak < 6e6


def test_default_config_reaches_its_label_fixpoint():
    pop = generate_corpus(residential_spec(10_000, seed=42))
    out = kmeans_profiles(pop, k=30, seed=42)
    assert out.label_fixpoint and out.n_iter < kmeans.MAX_ITERS


def test_repairs_mid_run_are_covered():
    out = kmeans_profiles(_clumps(150), k=10, seed=150, metric="l1")
    assert out.empty_cluster_repairs == out.n_iter == kmeans.MAX_ITERS


@pytest.mark.parametrize("metric", kmeans.ASSIGNMENT_METRICS)
def test_bounds_skip_distance_rows(monkeypatch, metric):
    # a fall-back to a full row for every user every iteration fails here
    counted = []
    assign = kmeans._Bounds.assign

    def counting(self, rows, centers):
        counted.append(rows.size)
        return assign(self, rows, centers)

    monkeypatch.setattr(kmeans._Bounds, "assign", counting)
    pop = _corpus(2500, 1)
    out = kmeans_profiles(pop, k=30, seed=1, metric=metric)
    assert len(counted) == out.n_iter > 10
    assert counted[0] == pop.n_users
    assert sum(counted) < 0.6 * pop.n_users * out.n_iter


def test_near_ties_are_ranked_as_the_full_distances_rank_them():
    # users on the bisector of two centers: the cross term alone ranks some
    # of them unlike the full squared distance; the bounds must not
    rng = np.random.default_rng(0)
    centers = rng.dirichlet(np.ones(24), size=3)
    normal = centers[1] - centers[0]
    mid = 0.5 * (centers[0] + centers[1])
    points = rng.dirichlet(np.ones(24), size=4000)
    points -= ((points - mid) @ normal)[:, None] * normal / (normal @ normal)
    expected = _reference_distances(points, centers, "sqeuclidean").argmin(axis=1)
    cross = ((centers**2).sum(axis=1) - 2.0 * points @ centers.T).argmin(axis=1)
    assert (cross != expected).any()
    bounds = kmeans._Bounds(points, "sqeuclidean")
    rows = np.arange(len(points))
    assert np.array_equal(bounds.assign(rows, centers), expected)
    # a user whose two nearest centers tie gets no lower bound
    assert np.all(bounds.lower[cross != expected] == 0.0)
    assert set(np.flatnonzero(cross != expected)) <= set(bounds.unsure(centers))


def test_exact_ties_in_a_run_are_ranked_by_the_full_distances(monkeypatch):
    rows = []
    distances = kmeans._distances

    def counting(points, centers, metric):
        rows.append(len(points))
        return distances(points, centers, metric)

    monkeypatch.setattr(kmeans, "_distances", counting)
    pop = _quantized(2000)
    out = kmeans_profiles(pop, k=18, seed=0)
    # no repair ran, so every full distance matrix served a near tie
    assert out.empty_cluster_repairs == 0
    assert pop.n_users in rows


def _exact_distances(points, centers, metric):
    """Distances in extended precision, far finer than the bounds' slack."""
    step = points.astype(np.longdouble)[:, None, :] - centers.astype(np.longdouble)[None]
    if metric == "sqeuclidean":
        return np.sqrt((step**2).sum(axis=2))
    return np.abs(step).sum(axis=2)


@pytest.mark.parametrize("metric", kmeans.ASSIGNMENT_METRICS)
def test_bounds_hold_after_center_moves(metric):
    rng = np.random.default_rng(4)
    points = rng.dirichlet(np.ones(24), size=500)
    centers = rng.dirichlet(np.ones(24), size=9)
    bounds = kmeans._Bounds(points, metric)
    labels = bounds.assign(np.arange(len(points)), centers)
    for _ in range(5):
        exact = _exact_distances(points, centers, metric)
        own = exact[np.arange(len(points)), labels]
        exact[np.arange(len(points)), labels] = np.inf
        assert np.all(bounds.upper >= own)
        assert np.all(bounds.lower <= exact.min(axis=1))
        moved = np.abs(centers + rng.normal(0.0, 0.01, centers.shape))
        moved /= moved.sum(axis=1, keepdims=True)
        bounds.move(centers, moved, labels)
        centers = moved
