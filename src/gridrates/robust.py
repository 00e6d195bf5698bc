"""Rate-band clustering: every user's rate lands within rho of its cluster price.

One band rule, `_fits`, decides in floating point whether rates lo <= hi
may share a band: hi <= lo + 2*rho, the sum rounded as floats round it
(`_top`). Every band test reads it. The bisecting refinement splits each
profile-based cluster on the rate axis until every piece fits. The greedy
covering sorts users by rate and cuts maximal bands left to right; since
the rule is monotone in both rates, it provably uses the fewest clusters
of any partition meeting it, and `minimal_certified` checks that proof on
a tariff's band starts. Cluster prices are midpoints of the covered rate
range, which makes the band criterion hold up to rounding.

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


def _top(lo, rho):
    """The highest rate that may share a band with rate `lo`."""
    return lo + 2.0 * rho


def _fits(lo, hi, rho):
    """The band rule: whether rates lo <= hi may share a band. It is
    monotone: true for every hi below a fitting one, and, since rounding
    keeps `_top` non-decreasing, for every lo above a fitting one."""
    return hi <= _top(lo, rho)


def gkc(table: MciTable, rho: float) -> Tariff:
    """Greedy covering of the sorted rate axis by width-2*rho bands.

    Starting at the lowest unclustered rate r, the next cluster takes every
    remaining user whose rate fits with r (`_fits`), then repeats until all
    users are assigned. Deterministic, O(n log n) including the sort, and
    minimal in cluster count among all partitions meeting the band rule.
    """
    _check_rho(rho)
    mcis = table.mcis
    # one search per band (Gronlund et al. 2017): each band ends past the
    # last rate that fits with its first, where the next band starts
    stops = []
    stop = 0
    while stop < mcis.size:
        stop = int(mcis.searchsorted(_top(mcis[stop], rho), side="right"))
        stops.append(stop)
    stops = np.array(stops, dtype=int)
    sizes = np.diff(stops, prepend=0)
    labels = np.repeat(np.arange(stops.size), sizes)
    return Tariff.of_rates(table.user_ids.copy(), mcis.copy(), labels, "gkc", rho)


def _bisect_ranges(mcis: np.ndarray, idx: np.ndarray, rho: float):
    """Split an index set until every piece's rate range fits one band.

    Returns the pieces, lower halves first, and the most splits any of them
    went through. A split leaves both halves smaller, so the splitting ends.
    """
    pieces, deepest, todo = [], 0, [(idx, 0)]
    while todo:
        part, depth = todo.pop()
        values = mcis[part]
        m, big_m = values.min(), values.max()
        if _fits(m, big_m, rho):
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
    subset's min / max rate), and each half again, until every piece's
    range fits one band (`_fits`); piece prices are range midpoints.
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
    for j, rows in enumerate(pieces):
        labels[rows] = j
    return Tariff.of_rates(pop.user_ids, mcis_all, labels, "skc", rho, split_depth=depth)


def minimal_clusters_oracle(table: MciTable, rho: float, cap: int = 2000) -> int:
    """Exact minimum number of rate bands meeting the band rule.

    Dynamic program over contiguous partitions of the sorted rate list:
    f[j] = fewest clusters covering the first j users, where a cluster may
    cover users i..j-1 only if `_fits(mcis[i], mcis[j-1], rho)`. The rule
    is monotone in mcis[i], so the first such i is found by bisection, and
    a one-rate band always fits. Optimal partitions are contiguous (a band
    that fits holds every rate between its ends), so this search space is
    exhaustive.
    """
    _check_rho(rho)
    n = table.n_users
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds oracle cap {cap}")
    mcis = table.mcis.tolist()
    f = [0] * (n + 1)
    for j in range(1, n + 1):
        last = mcis[j - 1]
        lo = bisect_left(mcis, True, 0, j, key=lambda r: _fits(r, last, rho))
        f[j] = min(f[lo:j]) + 1
    return f[n]


def minimal_certified(tariff: Tariff) -> bool:
    """Whether no partition meeting the band rule has fewer bands than `tariff`.

    The proof is a packing: sort the bands' lowest member rates s_1 < ... <
    s_k and require that no adjacent pair fits (`_fits`). Then for i < j,
    s_j >= s_{i+1} > `_top(s_i)`, so by monotonicity no band can hold two
    of the starts, and any partition needs k bands. It compares k - 1
    pairs at any n, where the oracle stops at its cap.
    """
    starts = np.sort(tariff.rate_ranges()[:, 0])
    return not np.any(_fits(starts[:-1], starts[1:], tariff.rho))


def criterion_check(tariff: Tariff):
    """Verify |rate_i - price of i's cluster| <= rho + slack for every user,
    at the tariff's own rho. Returns (ok, worst_gap).

    The slack is 4*eps*(M + 2*rho), M = max |rate|, eps the float64
    machine epsilon and u = eps/2 its unit roundoff. It covers every band
    that meets the band rule and is priced at its midpoint, away from
    underflow: a band lo..hi with hi <= fl(lo + 2*rho) spans at most
    2*rho + u*(M + 2*rho); its price, the rounded midpoint, lies within u*M
    of the exact midpoint; so a member r lies within rho + u*(1.5*M + rho)
    of its price, and the computed |r - price| is at most rho + eps*(M +
    2*rho) + O(u^2). The computed right-hand side rho + slack loses at most
    u*(rho + slack), which the factor 4 absorbs.
    """
    rates = tariff.rates
    worst = float(np.abs(rates - tariff.prices[tariff.labels]).max())
    slack = 4.0 * np.finfo(float).eps * _top(float(np.abs(rates).max()), tariff.rho)
    return bool(worst <= tariff.rho + slack), worst
