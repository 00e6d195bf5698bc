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

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPopulation, InstanceTooLarge
from .model import PriceCurve, mci_matrix
from .profiles import Population
from .tariff import Tariff

# slack of the band criterion check: absorbs the half-ulp rounding of
# midpoint prices
CRITERION_ATOL = 1e-12


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


# `RateClustering` is the old name of `Tariff`, kept while bench/ still imports it
RateClustering = Tariff


def _check_rho(rho: float) -> None:
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be finite and > 0, got {rho}")


def gkc(table: MciTable, rho: float) -> Tariff:
    """Greedy covering of the sorted rate axis by width-2*rho bands.

    Starting at the lowest unclustered rate r, the next cluster takes every
    remaining user with rate <= r + 2*rho, then repeats until all users are
    assigned. Deterministic, O(n log n) including the sort, and minimal in
    cluster count among all partitions meeting the band criterion.
    """
    _check_rho(rho)
    mcis = table.mcis
    width = 2.0 * rho
    # one search per band (Gronlund et al. 2017): each band ends past the
    # last rate within 2*rho of its first, where the next band starts
    stops = []
    stop = 0
    while stop < mcis.size:
        stop = int(mcis.searchsorted(mcis[stop] + width, side="right"))
        stops.append(stop)
    stops = np.array(stops, dtype=int)
    sizes = np.diff(stops, prepend=0)
    starts = stops - sizes
    labels = np.repeat(np.arange(stops.size), sizes)
    prices = (mcis[starts] + mcis[stops - 1]) / 2.0
    return Tariff(
        user_ids=table.user_ids.copy(),
        labels=labels,
        prices=prices,
        method="gkc",
        rates=mcis.copy(),
        rho=float(rho),
    )


def _bisect_ranges(mcis: np.ndarray, idx: np.ndarray, rho: float):
    """Split an index set until every piece's rate range spans at most 2*rho.

    Returns the pieces, lower halves first, and the most splits any of them
    went through. A split leaves both halves smaller, so the splitting ends.
    """
    pieces, deepest, todo = [], 0, [(idx, 0)]
    while todo:
        part, depth = todo.pop()
        values = mcis[part]
        m, big_m = values.min(), values.max()
        if big_m - m <= 2.0 * rho:
            pieces.append(part)
            deepest = max(deepest, depth)
            continue
        # nearer endpoint wins; ties go with the minimum side
        to_low = np.abs(values - m) <= np.abs(values - big_m)
        # the upper half is pushed first, so the lower half is split first
        todo += [(part[~to_low], depth + 1), (part[to_low], depth + 1)]
    return pieces, deepest


def skc(
    pop: Population,
    prices: PriceCurve,
    rho: float,
    base_clustering: Tariff,
) -> Tariff:
    """Bisecting refinement of a profile clustering to meet the band criterion.

    Each profile-based cluster is split on the rate axis (nearer of the
    subset's min / max rate), and each half again, until every piece spans
    at most 2*rho; piece prices are range midpoints.
    """
    _check_rho(rho)
    mcis_all = mci_matrix(prices, pop.consumption)
    base_rows = pop.rows_of(base_clustering.user_ids)

    pieces, depth = [], 0
    for j in range(base_clustering.k):
        sub, sub_depth = _bisect_ranges(mcis_all, base_rows[base_clustering.members(j)], rho)
        pieces.extend(sub)
        depth = max(depth, sub_depth)

    labels = np.empty(pop.n_users, dtype=int)
    out_prices = np.empty(len(pieces))
    for j, rows in enumerate(pieces):
        labels[rows] = j
        vals = mcis_all[rows]
        out_prices[j] = (vals.min() + vals.max()) / 2.0
    return Tariff(
        user_ids=pop.user_ids,
        labels=labels,
        prices=out_prices,
        method="skc",
        rates=mcis_all,
        rho=float(rho),
        split_depth=depth,
    )


def minimal_clusters_oracle(table: MciTable, rho: float, cap: int = 2000) -> int:
    """Exact minimum number of rate bands meeting the band criterion.

    Dynamic program over contiguous partitions of the sorted rate list:
    f[j] = fewest clusters covering the first j users, where a cluster may
    cover users i..j-1 only if mcis[j-1] - mcis[i] <= 2*rho. Optimal
    partitions are contiguous (any band meeting the criterion spans at most
    2*rho on the rate axis), so this search space is exhaustive.
    """
    _check_rho(rho)
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


def criterion_check(tariff: Tariff):
    """Verify |rate_i - price of i's cluster| <= rho + CRITERION_ATOL for every
    user, at the tariff's own rho. Returns (ok, worst_gap).
    """
    worst = float(np.abs(tariff.rates - tariff.prices[tariff.labels]).max())
    return bool(worst <= tariff.rho + CRITERION_ATOL), worst
