"""Profile-based k-means clustering with per-cluster rates.

Standard Lloyd iteration with k-means++ seeding over normalized profiles.
Users are processed in a canonical id order so results do not depend on
input row order. Assignment distance is squared Euclidean by default; the
disguise analysis uses l1 geometry, so an l1 assignment metric is
available as an option.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyClusterRepairFailed, KTooLarge
from .model import PriceCurve
from .profiles import Population
from .tariff import Tariff, center_prices

ASSIGNMENT_METRICS = ("sqeuclidean", "l1")


# `Clustering` is the old name of `Tariff`, kept while bench/ still imports it
Clustering = Tariff
# centers that move less than this (max abs coordinate) count as converged
CENTER_TOL = 1e-9


def _distances(points: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
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


def _centers(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Member mean of each of k non-empty clusters, summed slot by slot in
    row order: the same bits as points[labels == j].mean(axis=0)."""
    sums = [np.bincount(labels, weights=column, minlength=k) for column in points.T]
    return np.stack(sums, axis=1) / np.bincount(labels, minlength=k)[:, None]


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
    max_iters: int = 100,
    metric: str = "sqeuclidean",
) -> Tariff:
    """Cluster normalized profiles; optionally rate each cluster center.

    Deterministic for a fixed seed, and invariant to input row order: users
    are handled in sorted-id order throughout. Cluster rates, when a price
    curve is given, are the marginal cost impact of each center profile.
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

    labels = None
    trace = []
    converged = False
    fixpoint = False
    n_iter = 0
    repairs = 0
    for n_iter in range(1, max_iters + 1):
        dist = _distances(points, centers, metric)
        new_labels = dist.argmin(axis=1)
        empty = [j for j in range(k) if not np.any(new_labels == j)]
        repaired = bool(empty)
        if repaired:
            new_labels, centers = _repair_empty(new_labels, dist, centers, points, empty)
            repairs += len(empty)
        trace.append(float(((points - centers[new_labels]) ** 2).sum()))
        same = labels is not None and np.array_equal(new_labels, labels)
        stable = same and not repaired
        labels = new_labels
        # at a label fixpoint the entering centers are exactly the member
        # means of the (unchanged) labels, so centers and labels agree
        if stable or (converged and not repaired):
            fixpoint = stable
            break
        new_centers = _centers(points, labels, k)
        converged = np.abs(new_centers - centers).max() < CENTER_TOL
        centers = new_centers
        if repaired and same:
            # the entering centers were the member means of these labels too,
            # so every later iteration would repeat this repair
            break
    else:
        centers = _centers(points, labels, k)
    inertia = float(((points - centers[labels]) ** 2).sum())

    return Tariff(
        user_ids=ids,
        labels=labels,
        prices=None if prices is None else center_prices(prices, centers),
        method="profile",
        centers=centers,
        metric=metric,
        n_iter=n_iter,
        inertia=inertia,
        label_fixpoint=fixpoint,
        objective_trace=trace,
        empty_cluster_repairs=repairs,
    )


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
