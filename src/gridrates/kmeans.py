"""Profile-based k-means clustering with per-cluster rates.

Lloyd iteration with k-means++ seeding over normalized profiles. Users are
processed in a canonical id order so results do not depend on input row
order. Assignment distance is squared Euclidean by default; the disguise
analysis uses l1 geometry, so an l1 assignment metric is available as an
option.

An iteration does not build the (users x k) distance matrix:

- Squared Euclidean rows rank the centers by the cross term
  ``||c||^2 - 2 p.c``, one matrix product with no per-user constant.
- Every user keeps Hamerly bounds (SDM 2010) in the metric's own distance
  (Euclidean or l1): an upper bound on the distance to its center and a
  lower bound on the distance to every other center, moved each iteration
  by how far the centers moved. Only users whose bounds overlap get a
  distance row; after an empty-cluster repair every user gets one.
- The member sums (`tariff._member_sums`), one ``np.bincount`` per slot
  over a contiguous copy of the slot's column, give the new centers.

The labels are those of the plain loop that takes the argmin of
``_distances`` every iteration, bit for bit. The bound test and the
cross-term ranking keep a slack of many times the rounding of either
computation, and a user whose two nearest centers lie within that slack
is ranked by ``_distances`` itself; l1 rows are ``_distances`` rows. So
centers, iteration count, fixpoint flag, repairs and inertia are that
loop's too.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyClusterRepairFailed, KTooLarge
from .model import PriceCurve
from .profiles import Population
from .tariff import ASSIGNMENT_METRICS, Tariff, _member_sums


# `Clustering` is the old name of `Tariff`, kept while bench/ still imports it
Clustering = Tariff
# the most Lloyd iterations of one run; a run that reaches it has no fixpoint
MAX_ITERS = 300
# floats in one (users, k, T) block of the l1 distances' temporary, 2 MB
_L1_BLOCK_FLOATS = 262_144


def _distances(points: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    if metric == "sqeuclidean":
        d = (
            (points**2).sum(axis=1)[:, None]
            + (centers**2).sum(axis=1)[None, :]
            - 2.0 * points @ centers.T
        )
        return np.maximum(d, 0.0)
    if metric == "l1":
        # by blocks of users: each cell is the same contiguous sum over T
        dist = np.empty((len(points), len(centers)))
        step = max(1, _L1_BLOCK_FLOATS // centers.size)
        for start in range(0, len(points), step):
            block = points[start:start + step, None, :] - centers[None, :, :]
            dist[start:start + step] = np.abs(block, out=block).sum(axis=2)
        return dist
    raise ValueError(f"unknown metric {metric!r}")


class _Bounds:
    """Hamerly bounds of each user, in the metric's own distance: `upper`
    is at least the distance to its center, `lower` at most the distance
    to every other center.

    Each bound keeps a relative slack `rel`, many times the rounding of a
    length-T dot product, sum or norm, here or in `_distances`; so the
    squared distances `_distances` computes are off by less than
    `_rounding`, and its l1 distances by less than rel times themselves.
    Where the bounds are further apart than that, the argmin of the user's
    `_distances` row is provably its own center.
    """

    def __init__(self, points: np.ndarray, metric: str):
        self.points, self.metric = points, metric
        self.sq = metric == "sqeuclidean"
        self.norms = (points**2).sum(axis=1)
        self.norm_max = self.norms.max()
        self.rel = 8.0 * (points.shape[1] + 4) * np.finfo(float).eps
        self.upper = np.empty(len(points))
        self.lower = np.empty(len(points))

    def _rounding(self, sq_centers: np.ndarray) -> float:
        """A bound on the rounding of any squared distance; 0 for l1."""
        return self.rel * (self.norm_max + sq_centers.max()) if self.sq else 0.0

    def assign(self, rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Label `rows` as `_distances(points, centers).argmin(axis=1)` does,
        and set their bounds."""
        # (k, rows) values, so the reductions over centers run along rows
        sq_centers = (centers**2).sum(axis=1)
        if self.sq:
            # ||c||^2 - 2 c.p: the squared distance less the row's ||p||^2
            values = (-2.0 * centers) @ self.points[rows].T
            values += sq_centers[:, None]
        else:
            values = np.ascontiguousarray(_distances(self.points[rows], centers, self.metric).T)
        first = values.min(axis=0)
        best = (values == first).argmax(axis=0)   # the first nearest, as argmin
        values[best, np.arange(rows.size)] = np.inf
        second = values.min(axis=0)                # inf at k = 1
        if self.sq:
            err = self._rounding(sq_centers)
            near = second - first <= 4.0 * err
            if near.any():
                # rounding may rank these centers unlike `_distances`: ask it,
                # and leave the users no lower bound
                full = _distances(self.points, centers, self.metric)
                best[near] = full[rows[near]].argmin(axis=1)
                second[near] = -np.inf
            norms = self.norms[rows]
            first = np.sqrt(np.maximum(first + norms + err, 0.0))
            second = np.sqrt(np.maximum(second + norms - err, 0.0))
        self.upper[rows] = first * (1.0 + self.rel)
        self.lower[rows] = second * (1.0 - self.rel)
        return best

    def move(self, old: np.ndarray, new: np.ndarray, labels: np.ndarray) -> None:
        """Loosen the bounds by how far each center moved from old to new."""
        step = new - old
        if self.sq:
            drift = np.sqrt((step**2).sum(axis=1))
        else:
            drift = np.abs(step).sum(axis=1)
        drift *= 1.0 + self.rel
        self.upper += drift[labels]
        self.upper *= 1.0 + self.rel
        self.lower -= drift.max()
        self.lower *= 1.0 - self.rel

    def unsure(self, centers: np.ndarray) -> np.ndarray:
        """The users whose own center the bounds do not prove nearest.

        With lower - upper > sqrt(2 * rounding), the squared distances
        differ by more than (lower - upper)^2 > 2 * rounding.
        """
        margin = np.sqrt(2.0 * self._rounding((centers**2).sum(axis=1)))
        gap = self.lower * (1.0 - self.rel) - self.upper * (1.0 + self.rel)
        return np.flatnonzero(gap <= margin)


def _plusplus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # remaining points coincide with chosen centers; any pick works
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _repair_empty(labels, dist, centers, points, empty_clusters):
    # move each empty center onto the point farthest from its current center;
    # deterministic and keeps k fixed
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


def kmeans_profiles(
    pop: Population,
    k: int,
    prices: PriceCurve | None = None,
    seed: int = 0,
    metric: str = "sqeuclidean",
) -> Tariff:
    """Cluster normalized profiles; optionally rate each cluster center.

    Deterministic for a fixed seed, and invariant to input row order: users
    are handled in sorted-id order throughout. Cluster rates, when a price
    curve is given, are the marginal cost impact of each center profile.
    The loop stops at a label fixpoint (`label_fixpoint`), when an empty-cluster
    repair repeats itself, or after `MAX_ITERS` iterations.
    """
    if metric not in ASSIGNMENT_METRICS:
        raise ValueError(f"metric must be one of {ASSIGNMENT_METRICS}")
    if k < 1 or k > pop.n_users:
        raise KTooLarge(f"k={k} outside [1, {pop.n_users}]")

    order = sorted(range(pop.n_users), key=lambda i: pop.user_ids[i])
    ids = [pop.user_ids[i] for i in order]
    points = pop.normalized()[order]

    rng = np.random.default_rng(seed)
    centers = _plusplus_seed(points, k, rng)

    n = points.shape[0]
    bounds = _Bounds(points, metric)
    columns = np.ascontiguousarray(points.T)

    labels = None
    repairs = 0
    every_row = True   # no bounds yet, or a repair moved labels they do not follow
    for n_iter in range(1, MAX_ITERS + 1):
        if every_row:
            rows, new_labels = np.arange(n), np.empty(n, dtype=np.intp)
        else:
            rows, new_labels = bounds.unsure(centers), labels.copy()
        new_labels[rows] = bounds.assign(rows, centers)
        sums, counts = _member_sums(columns, new_labels, k)
        repaired = not counts.all()
        if repaired:
            empty = np.flatnonzero(counts == 0).tolist()
            dist = _distances(points, centers, metric)
            new_labels, centers = _repair_empty(new_labels, dist, centers, points, empty)
            repairs += len(empty)
            sums, counts = _member_sums(columns, new_labels, k)
        same = labels is not None and np.array_equal(new_labels, labels)
        stable = same and not repaired
        labels = new_labels
        # at a label fixpoint the entering centers are exactly the member
        # means of the (unchanged) labels, so centers and labels agree
        if stable:
            break
        new_centers = sums / counts[:, None]
        bounds.move(centers, new_centers, labels)
        every_row = repaired
        centers = new_centers
        if repaired and same:
            # the entering centers were the member means of these labels too,
            # so every later iteration would repeat this repair
            break
    inertia = float(((points - centers[labels]) ** 2).sum())

    # the loop's centers are the member means of its labels, as the tariff's are
    return Tariff.of_profiles(ids, points, labels, prices, metric=metric, n_iter=n_iter,
                              inertia=inertia, label_fixpoint=stable,
                              empty_cluster_repairs=repairs)


def sigma(tariff: Tariff, pop: Population) -> np.ndarray:
    """Per-cluster mean l1 distance of member profiles to the cluster center.

    Rate-band tariffs, which store no center profiles, get the member mean
    as center. Values lie in [0, 2], the l1 diameter of the simplex.
    """
    weights = pop.normalized()[pop.rows_of(tariff.user_ids)]
    out = np.zeros(tariff.k)
    for j in range(tariff.k):
        pts = weights[tariff.members(j)]
        center = pts.mean(axis=0) if tariff.centers is None else tariff.centers[j]
        out[j] = float(np.abs(pts - center).sum(axis=1).mean())
    return out
