"""Rate-band clustering: every user's rate lands within rho of its cluster price.

Two constructions are provided. The bisecting refinement splits each
profile-based cluster on the rate axis until every piece spans at most
2*rho. The greedy covering sorts users by rate and cuts maximal 2*rho
windows left to right; it provably uses the fewest clusters of any
partition meeting the band criterion. Cluster prices are midpoints of the
covered rate range, which makes the band criterion hold by construction.

An exact dynamic program over contiguous partitions is included as an
independent optimality oracle for desk-scale instances.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPopulation, InstanceTooLarge, RecursionDepthExceeded
from .model import PriceCurve, mci_matrix
from .profiles import Population

SKC_MAX_DEPTH = 64


@dataclass(frozen=True)
class MciTable:
    """Users sorted ascending by rate (ties broken by user id)."""

    user_ids: np.ndarray   # (N,) unicode
    mcis: np.ndarray       # (N,) float, ascending

    def __post_init__(self):
        if self.user_ids.shape != self.mcis.shape:
            raise ValueError("one rate per user id required")
        if not np.all(np.isfinite(self.mcis)):
            raise ValueError("rates must be finite")
        if np.any(np.diff(self.mcis) < 0):
            raise ValueError("rates must be sorted ascending")

    @property
    def n_users(self) -> int:
        return self.mcis.size


def mci_table(pop: Population, prices: PriceCurve) -> MciTable:
    """Rate every user and sort ascending, ties in user-id order."""
    if pop.n_users == 0:
        raise EmptyPopulation("cannot rate an empty population")
    mcis = mci_matrix(prices, pop.consumption)
    ids = np.asarray(pop.user_ids, dtype=str)
    order = np.lexsort((ids, mcis))
    return MciTable(user_ids=ids[order], mcis=mcis[order])


@dataclass
class RateClustering:
    """A partition of users into rate bands with a price per band.

    `contiguous` is true when the bands are disjoint intervals over the
    sorted rate axis (greedy covering output); the bisecting refinement can
    produce bands that overlap on the rate axis across different source
    clusters.
    """

    user_ids: np.ndarray    # (N,)
    mcis: np.ndarray        # (N,) rate per user, aligned with user_ids
    labels: np.ndarray      # (N,) cluster index per user
    bounds: np.ndarray      # (k, 2) [min rate, max rate] per cluster
    prices: np.ndarray      # (k,)
    rho: float
    contiguous: bool
    method: str = "gkc"

    def __post_init__(self):
        if np.any(self.labels < 0) or np.any(self.labels >= self.k):
            raise ValueError("labels out of range")
        counts = np.bincount(self.labels, minlength=self.k)
        if np.any(counts == 0):
            raise ValueError("every cluster must be nonempty")

    @property
    def k(self) -> int:
        return self.prices.size

    @property
    def n_users(self) -> int:
        return self.user_ids.size

    @property
    def assignments(self) -> dict:
        return dict(zip(self.user_ids.tolist(), (int(j) for j in self.labels)))

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.labels == j)

    def member_ids(self, j: int) -> list:
        return [str(self.user_ids[i]) for i in self.members(j)]

    def user_prices(self) -> np.ndarray:
        return self.prices[self.labels]

    def to_json(self) -> str:
        clusters = []
        for j in range(self.k):
            clusters.append({
                "rate_range": [float(self.bounds[j, 0]), float(self.bounds[j, 1])],
                "price": float(self.prices[j]),
                "members": self.member_ids(j),
            })
        return json.dumps(
            {
                "kind": "rate",
                "method": self.method,
                "rho": self.rho,
                "k": self.k,
                "clusters": clusters,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, mcis_by_user: dict | None = None) -> "RateClustering":
        """Rebuild from JSON; per-user rates are re-supplied or interpolated.

        Serialized clusters carry member ids, ranges, and prices. When the
        caller has the rate table, pass `mcis_by_user` to restore exact
        per-user rates; otherwise users get their cluster price as rate
        (enough for pricing, not for re-running the band criterion).
        """
        doc = json.loads(text)
        if doc.get("kind") != "rate":
            raise ValueError(f"not a rate clustering: kind={doc.get('kind')!r}")
        ids, labels, mcis = [], [], []
        bounds, prices = [], []
        for j, cluster in enumerate(doc["clusters"]):
            bounds.append(cluster["rate_range"])
            prices.append(cluster["price"])
            for uid in cluster["members"]:
                ids.append(uid)
                labels.append(j)
                if mcis_by_user is not None:
                    mcis.append(mcis_by_user[uid])
                else:
                    mcis.append(cluster["price"])
        return cls(
            user_ids=np.asarray(ids, dtype=str),
            mcis=np.asarray(mcis, dtype=float),
            labels=np.asarray(labels, dtype=int),
            bounds=np.asarray(bounds, dtype=float),
            prices=np.asarray(prices, dtype=float),
            rho=float(doc["rho"]),
            contiguous=bool(doc["method"] == "gkc"),
            method=doc["method"],
        )


def gkc(table: MciTable, rho: float) -> RateClustering:
    """Greedy covering of the sorted rate axis by width-2*rho bands.

    Starting at the lowest unclustered rate r, the next cluster takes every
    remaining user with rate <= r + 2*rho, then repeats until all users are
    assigned. Deterministic, O(n log n) including the sort, and minimal in
    cluster count among all partitions meeting the band criterion.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    mcis = table.mcis
    n = mcis.size
    labels = np.empty(n, dtype=int)
    bounds, prices = [], []
    i = 0
    j = 0
    while i < n:
        hi = np.searchsorted(mcis, mcis[i] + 2.0 * rho, side="right")
        labels[i:hi] = j
        lo_val, hi_val = mcis[i], mcis[hi - 1]
        bounds.append((lo_val, hi_val))
        prices.append((lo_val + hi_val) / 2.0)
        i = int(hi)
        j += 1
    return RateClustering(
        user_ids=table.user_ids.copy(),
        mcis=mcis.copy(),
        labels=labels,
        bounds=np.asarray(bounds, dtype=float),
        prices=np.asarray(prices, dtype=float),
        rho=float(rho),
        contiguous=True,
        method="gkc",
    )


def _bisect_ranges(mcis: np.ndarray, idx: np.ndarray, rho: float, depth: int = 0):
    """Recursively split an index set until its rate range fits within 2*rho."""
    if depth > SKC_MAX_DEPTH:
        raise RecursionDepthExceeded(f"bisection deeper than {SKC_MAX_DEPTH}")
    values = mcis[idx]
    m, big_m = values.min(), values.max()
    if big_m - m < 2.0 * rho:
        return [idx]
    # nearer endpoint wins; ties go with the minimum side
    to_low = np.abs(values - m) <= np.abs(values - big_m)
    low, high = idx[to_low], idx[~to_low]
    pieces = []
    for half in (low, high):
        r = mcis[half]
        if r.max() - r.min() > 2.0 * rho:
            pieces.extend(_bisect_ranges(mcis, half, rho, depth + 1))
        else:
            pieces.append(half)
    return pieces


def skc(
    pop: Population,
    prices: PriceCurve,
    rho: float,
    base_clustering,
) -> RateClustering:
    """Bisecting refinement of a profile clustering to meet the band criterion.

    Each profile-based cluster is split on the rate axis (nearer of the
    subset's min / max rate, recursively) until every piece spans at most
    2*rho; piece prices are range midpoints.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    mcis_all = mci_matrix(prices, pop.consumption)
    row_of = {uid: i for i, uid in enumerate(pop.user_ids)}

    pieces = []
    for j in range(base_clustering.k):
        rows = np.array([row_of[uid] for uid in base_clustering.member_ids(j)])
        pieces.extend(_bisect_ranges(mcis_all, rows, rho))

    n = pop.n_users
    labels = np.empty(n, dtype=int)
    bounds = np.empty((len(pieces), 2))
    out_prices = np.empty(len(pieces))
    for j, rows in enumerate(pieces):
        labels[rows] = j
        vals = mcis_all[rows]
        bounds[j] = (vals.min(), vals.max())
        out_prices[j] = (bounds[j, 0] + bounds[j, 1]) / 2.0
    return RateClustering(
        user_ids=np.asarray(pop.user_ids, dtype=str),
        mcis=mcis_all,
        labels=labels,
        bounds=bounds,
        prices=out_prices,
        rho=float(rho),
        contiguous=False,
        method="skc",
    )


def minimal_clusters_oracle(table: MciTable, rho: float, cap: int = 2000) -> int:
    """Exact minimum number of rate bands meeting the band criterion.

    Dynamic program over contiguous partitions of the sorted rate list:
    f[j] = fewest clusters covering the first j users, where a cluster may
    cover users i..j-1 only if mcis[j-1] - mcis[i] <= 2*rho. Optimal
    partitions are contiguous (any band meeting the criterion spans at most
    2*rho on the rate axis), so this search space is exhaustive.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    n = table.n_users
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds oracle cap {cap}")
    mcis = table.mcis.tolist()
    inf = float("inf")
    f = [0.0] + [inf] * n
    for j in range(1, n + 1):
        lo = bisect_left(mcis, mcis[j - 1] - 2.0 * rho, 0, j)
        best = min(f[lo:j])
        f[j] = best + 1.0 if best < inf else inf
    return int(f[n])


def criterion_check(clustering: RateClustering, table: MciTable | None = None,
                    rho: float | None = None, atol: float = 1e-12):
    """Verify |rate_i - price of i's cluster| <= rho for every user.

    Returns (ok, worst_gap). Uses the clustering's own rates and rho unless
    overridden. `atol` absorbs the half-ulp rounding of midpoint prices.
    """
    rho = clustering.rho if rho is None else rho
    if table is None:
        mcis = clustering.mcis
        gaps = np.abs(mcis - clustering.user_prices())
    else:
        price_of = dict(zip(clustering.user_ids.tolist(), clustering.user_prices()))
        gaps = np.abs(table.mcis - np.array([price_of[u] for u in table.user_ids.tolist()]))
    worst = float(gaps.max())
    return bool(worst <= rho + atol), worst

