"""A published tariff: one cluster per user and one price per cluster.

Both tariff schemes publish this. A profile tariff (k-means on load
shapes) also keeps its center profiles and the k-means run's convergence
facts; a rate-band tariff (`gkc`, `skc`) keeps each user's rate and the
band tolerance rho. This module owns both JSON layouts, in one table that
`to_json` and `from_json` read: `"kind": "profile"` clusters carry a center,
`"kind": "rate"` clusters a rate range. The clusterings build a tariff, and
`from_json` rebuilds a file's, through one constructor per kind:
`Tariff.of_profiles` and `Tariff.of_rates`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import PriceCurve, mci, mci_matrix
from .profiles import Population

# the distances a profile tariff's users may be assigned by
ASSIGNMENT_METRICS = ("sqeuclidean", "l1")


def _member_sums(columns: np.ndarray, labels: np.ndarray, k: int):
    """(k, T) member sums and (k,) member counts of the clusters.

    `columns` is the (T, n) transpose of the points, C-contiguous, so each
    slot's bincount reads its weights in place. Each sum adds its members
    in row order, so sums / counts has the bits of the mask means
    points[labels == j].mean(axis=0).
    """
    sums = np.empty((k, columns.shape[0]))
    for slot, column in enumerate(columns):
        sums[:, slot] = np.bincount(labels, weights=column, minlength=k)
    return sums, np.bincount(labels, minlength=k)


# each kind's JSON layout: its top-level keys besides "kind", "k" and
# "clusters", with their JSON types; the values those keys may take; and
# the key of each cluster's shape
_LAYOUTS = {
    "profile": ({"metric": (str,)}, {"metric": ASSIGNMENT_METRICS}, "center"),
    "rate": ({"method": (str,), "rho": (int, float)}, {"method": ("gkc", "skc")}, "rate_range"),
}

# what json.loads makes of each JSON type, by name; a bool is no number
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _require(doc, keys: dict, name: str) -> None:
    """Raise ValueError unless a JSON doc is an object holding every key of
    `keys`, each with a value of one of the key's types."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} is not a JSON object")
    for key, types in keys.items():
        if key not in doc:
            raise ValueError(f"{name} has no {key!r} key")
        if type(doc[key]) not in types:
            names = {**_JSON_TYPES, int: "a number" if float in types else "an integer"}
            allowed = " or ".join(dict.fromkeys(names[t] for t in types))
            raise ValueError(f"{name}'s {key!r} must be {allowed}, not "
                             f"{_JSON_TYPES[type(doc[key])]}")


def check_rebuilt(stored: np.ndarray, rebuilt: np.ndarray, message: str) -> None:
    """Raise ValueError unless a stored array equals, value for value, the
    one its corpus and config rebuild. `message` is formatted with the count `n` of
    rows that differ, the row count `k`, and the first such row `j` with its
    `stored` and `rebuilt` values."""
    bad = np.flatnonzero((stored != rebuilt).reshape(len(stored), -1).any(axis=1))
    if bad.size:
        j = int(bad[0])
        raise ValueError(message.format(n=bad.size, k=len(stored), j=j,
                                        stored=stored[j].tolist(), rebuilt=rebuilt[j].tolist()))


def _require_known(doc: dict, known: dict, name: str) -> None:
    """Raise ValueError unless each key of `known` holds one of its values."""
    for key, values in known.items():
        if doc[key] not in values:
            raise ValueError(f"{name}'s {key!r} must be "
                             f"{' or '.join(map(repr, values))}, not {doc[key]!r}")


@dataclass
class Tariff:
    """Users partitioned into clusters, with a price per cluster.

    `centers is None` tells the two kinds apart: rate-band tariffs admit a
    user by billed rate, profile tariffs by distance to the centers.
    """

    user_ids: np.ndarray                 # (N,) str; any sequence is converted
    labels: np.ndarray                   # (N,) cluster index per user
    prices: np.ndarray | None            # (k,) rate per cluster
    method: str                          # "profile", "gkc" or "skc"
    # profile tariffs: center profiles and the k-means run's facts
    centers: np.ndarray | None = None    # (k, T) simplex points
    metric: str = "sqeuclidean"          # assignment metric
    n_iter: int = 0
    inertia: float = 0.0
    label_fixpoint: bool = False         # stopped with labels == argmin(centers)
    empty_cluster_repairs: int = 0       # empty clusters reseeded on a far point
    # rate-band tariffs
    rates: np.ndarray | None = None      # (N,) each user's rate
    rho: float | None = None             # band tolerance
    split_depth: int = 0                 # skc: most bisections any band went through

    def __post_init__(self):
        self.user_ids = np.asarray(self.user_ids, dtype=str)
        if np.any(self.labels < 0) or np.any(self.labels >= self.k):
            raise ValueError("labels out of range")
        if np.any(np.bincount(self.labels, minlength=self.k) == 0):
            raise ValueError("every cluster must be nonempty")

    @classmethod
    def of_profiles(cls, user_ids, points: np.ndarray, labels: np.ndarray,
                    curve: PriceCurve | None = None, **facts) -> "Tariff":
        """A profile tariff: each center is its members' mean profile, summed
        in row order (`_member_sums`), and priced at its MCI under `curve`;
        no prices without one. `points` are the users' normalized profiles in
        `user_ids` order, and every cluster index below the largest label
        must have a member. `facts` are further fields, such as the metric."""
        k = int(labels.max()) + 1
        sums, counts = _member_sums(np.ascontiguousarray(points.T), labels, k)
        centers = sums / counts[:, None]
        prices = None if curve is None else np.array([mci(curve, c) for c in centers])
        return cls(user_ids, labels, prices, "profile", centers=centers, **facts)

    @classmethod
    def of_rates(cls, user_ids, rates: np.ndarray, labels: np.ndarray, method: str,
                 rho: float, **facts) -> "Tariff":
        """A rate-band tariff: each band is priced at the midpoint of its
        members' rate range (`rate_ranges`)."""
        tariff = cls(user_ids, labels, np.empty(int(labels.max()) + 1), method,
                     rates=rates, rho=float(rho), **facts)
        lo, hi = tariff.rate_ranges().T
        tariff.prices = (lo + hi) / 2.0
        return tariff

    @property
    def k(self) -> int:
        return len(self.prices if self.centers is None else self.centers)

    @property
    def assignments(self) -> dict:
        return dict(zip(self.user_ids.tolist(), self.labels.tolist()))

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.labels == j)

    def member_ids(self, j: int) -> list:
        return self.user_ids[self.members(j)].tolist()

    def rate_ranges(self) -> np.ndarray:
        """(k, 2) lowest and highest member rate of each band: on ties (such as
        -0.0 and 0.0) the rates a stable ascending sort of the members puts
        first and last. A ufunc's `at` keeps the last of equal values, so the
        minimum runs over the members in reverse."""
        ranges = np.empty((self.k, 2))
        ranges[:, 0], ranges[:, 1] = np.inf, -np.inf
        np.minimum.at(ranges[:, 0], self.labels[::-1], self.rates[::-1])
        np.maximum.at(ranges[:, 1], self.labels, self.rates)
        return ranges

    def to_json(self) -> str:
        kind = "rate" if self.centers is None else "profile"
        keys, _, shape = _LAYOUTS[kind]
        values = self.rate_ranges() if self.centers is None else self.centers
        clusters = [{"price": None if self.prices is None else float(self.prices[j]),
                     "members": self.member_ids(j), shape: values[j].tolist()}
                    for j in range(self.k)]
        return json.dumps({"kind": kind, "k": self.k, "clusters": clusters,
                           **{key: getattr(self, key) for key in keys}}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, pop: Population | None = None,
                  curve: PriceCurve | None = None, rho: float | None = None) -> "Tariff":
        """Rebuild a tariff of either kind from its JSON, if it may be trusted.

        Without a corpus a profile tariff loads as stored; a rate tariff is
        refused. Given the corpus `pop`, price curve and rho it is applied
        to, the file's partition is rebuilt (`of_profiles`, `of_rates`) and
        returned if the file matches it. Both kinds compare, in this order:
        the centers or rate ranges (`check_rebuilt`); every price finite; a
        rate tariff's `rho`; the prices; a rate tariff's members against its
        rho (`robust.criterion_check`). Each member id must be in `pop` and
        listed once. A document that is not an object, lacks a key its kind
        reads or holds one as another JSON type (see `_require`), is refused,
        as is a `k` other than the number of clusters, an empty cluster, or
        an unknown `metric` or `method`.
        """
        from .robust import criterion_check   # robust imports this module
        doc = json.loads(text)
        _require(doc, {}, "the tariff")
        kind = doc.get("kind")
        if kind not in _LAYOUTS:
            raise ValueError(f"unknown clustering kind {kind!r}")
        profile = kind == "profile"
        keys, known, shape = _LAYOUTS[kind]
        _require(doc, {"clusters": (list,), **keys}, "the tariff")
        clusters = doc["clusters"]
        if not clusters:
            raise ValueError("the tariff's 'clusters' is empty")
        for j, cluster in enumerate(clusters):
            _require(cluster, {"members": (list,), "price": (int, float, type(None)),
                               shape: (list,)}, f"cluster {j}")
            width = len(clusters[0][shape]) if profile else 2   # every center's length
            if not set(map(type, cluster["members"])) <= {str}:
                raise ValueError(f"cluster {j}'s 'members' must hold strings only")
            if len(cluster[shape]) != width or not set(map(type, cluster[shape])) <= {int, float}:
                raise ValueError(f"cluster {j}'s {shape!r} must be a list of {width} numbers")
        _require(doc, {"k": (int, float)}, "the tariff")
        _require_known(doc, {"k": (len(clusters),), **known}, "the tariff")
        user_ids = [uid for cluster in clusters for uid in cluster["members"]]
        labels = np.repeat(np.arange(len(clusters)),
                           [len(cluster["members"]) for cluster in clusters])
        if len(set(user_ids)) != len(user_ids):
            uid, n = next((uid, n) for uid, n in Counter(user_ids).items() if n > 1)
            listed = sorted({int(j) for u, j in zip(user_ids, labels) if u == uid})
            raise ValueError(f"user id {uid!r} is listed {n} times, by clusters {listed}")
        prices = [cluster["price"] for cluster in clusters]
        values = np.array([cluster[shape] for cluster in clusters], dtype=float)
        rows = None if pop is None else pop.rows_of(user_ids)
        if not all(cluster["members"] for cluster in clusters):
            raise ValueError("every cluster must be nonempty")
        if pop is None:
            if profile:
                return cls(user_ids, labels, None if None in prices else np.array(prices, float),
                           "profile", centers=values, metric=doc["metric"])
            raise ValueError("a rate tariff needs its members' rates to load")
        if profile:
            rebuilt = cls.of_profiles(user_ids, pop.normalized()[rows], labels, curve,
                                      metric=doc["metric"])
            check_rebuilt(values, rebuilt.centers, "{n} of {k} cluster centers are not their "
                          "members' mean profiles (first: cluster {j})")
        else:
            rebuilt = cls.of_rates(user_ids, mci_matrix(curve, pop.consumption)[rows], labels,
                                   doc["method"], rho)
            check_rebuilt(values, rebuilt.rate_ranges(),
                          "{n} of {k} bands have a rate_range other than their members' rates "
                          "(first: band {j}, stored {stored}, rates span {rebuilt}); was the "
                          "tariff made from another corpus or cost model?")
        prices = np.array(prices, float)   # a null price reads nan
        if not np.isfinite(prices).all():
            raise ValueError("the tariff needs a finite price for every cluster")
        if not profile and float(doc["rho"]) != rho:
            raise ValueError(f"tariff has rho={float(doc['rho'])!r}, the config rho={rho!r}")
        check_rebuilt(prices, rebuilt.prices, (
            "{n} of {k} cluster prices are not the MCI of their centers under this config "
            "(first: cluster {j}, price {stored!r}, MCI {rebuilt!r}); was the tariff made "
            "from another corpus or cost model?") if profile else (
            "{n} of {k} band prices are not the midpoints of their rate ranges "
            "(first: band {j}, price {stored!r}, midpoint {rebuilt!r})"))
        if not profile:
            ok, worst = criterion_check(rebuilt)
            if not ok:
                raise ValueError(f"a member's rate lies {worst!r} from its band's price, "
                                 f"more than the tariff's rho={rebuilt.rho!r}")
        return rebuilt
