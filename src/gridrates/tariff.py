"""A published tariff: one cluster per user and one price per cluster.

Both tariff schemes publish this. A profile tariff (k-means on load
shapes) also keeps its center profiles and the k-means run's convergence
facts; a rate-band tariff (`gkc`, `skc`) keeps each user's rate and the
band tolerance rho. This module owns both JSON layouts: `"kind": "profile"`
clusters carry a center, `"kind": "rate"` clusters a rate range.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import PriceCurve, mci

# the distances a profile tariff's users may be assigned by
ASSIGNMENT_METRICS = ("sqeuclidean", "l1")


def center_prices(curve: PriceCurve, centers: np.ndarray) -> np.ndarray:
    """A profile tariff's prices: the marginal cost impact of each center."""
    return np.array([mci(curve, c) for c in centers])


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
        """(k, 2) lowest and highest member rate of each band."""
        ranges = np.empty((self.k, 2))
        ranges[:, 0], ranges[:, 1] = np.inf, -np.inf
        np.minimum.at(ranges[:, 0], self.labels, self.rates)
        np.maximum.at(ranges[:, 1], self.labels, self.rates)
        return ranges

    def check_config(self, curve: PriceCurve, rho: float) -> None:
        """Raise ValueError unless the tariff was made with this price curve and rho.

        Every cluster must have a finite price. A rate tariff must carry
        `rho` (its band ranges are checked against the rates by `from_json`);
        a profile tariff's prices must be the MCI of its centers under
        `curve`, bit for bit.
        """
        if self.prices is None or not np.isfinite(self.prices).all():
            raise ValueError("the tariff needs a finite price for every cluster")
        if self.centers is None:
            if self.rho != rho:
                raise ValueError(f"tariff has rho={self.rho!r}, the config rho={rho!r}")
            return
        expected = center_prices(curve, self.centers)
        bad = np.flatnonzero(self.prices != expected)
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"{bad.size} of {self.k} cluster prices are not the MCI of their "
                f"centers under this config (first: cluster {j}, price "
                f"{float(self.prices[j])!r}, MCI {float(expected[j])!r}); was the "
                f"tariff made from another corpus or cost model?")

    def to_json(self) -> str:
        profile = self.centers is not None
        ranges = None if profile else self.rate_ranges()
        clusters = []
        for j in range(self.k):
            cluster = {
                "price": None if self.prices is None else float(self.prices[j]),
                "members": self.member_ids(j),
            }
            if profile:
                cluster["center"] = [float(v) for v in self.centers[j]]
            else:
                cluster["rate_range"] = [float(v) for v in ranges[j]]
            clusters.append(cluster)
        if profile:
            doc = {"kind": "profile", "k": self.k, "metric": self.metric}
        else:
            doc = {"kind": "rate", "method": self.method, "rho": self.rho, "k": self.k}
        return json.dumps({**doc, "clusters": clusters}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, rates: dict | None = None) -> "Tariff":
        """Rebuild a tariff of either kind from its JSON.

        `rates` maps user id to rate in the corpus the tariff is applied
        to. A rate tariff needs it; each band's stored `rate_range` must then
        be the exact range of its members' rates. When given, every member
        id must have a rate. Each member id must be listed once. A document
        that is not an object, lacks a key its kind reads or holds one as
        another JSON type (see `_require`), is refused, as is a `k` other
        than the number of clusters, or an unknown `metric` or `method`.
        """
        doc = json.loads(text)
        _require(doc, {}, "the tariff")
        kind = doc.get("kind")
        if kind not in ("profile", "rate"):
            raise ValueError(f"unknown clustering kind {kind!r}")
        profile = kind == "profile"
        _require(doc, {"clusters": (list,), "metric": (str,)} if profile else
                 {"clusters": (list,), "method": (str,), "rho": (int, float)}, "the tariff")
        clusters = doc["clusters"]
        if not clusters:
            raise ValueError("the tariff's 'clusters' is empty")
        shape = "center" if profile else "rate_range"
        for j, cluster in enumerate(clusters):
            _require(cluster, {"members": (list,), "price": (int, float, type(None)),
                               shape: (list,)}, f"cluster {j}")
            width = len(clusters[0][shape]) if profile else 2   # every center's length
            if not set(map(type, cluster["members"])) <= {str}:
                raise ValueError(f"cluster {j}'s 'members' must hold strings only")
            if len(cluster[shape]) != width or not set(map(type, cluster[shape])) <= {int, float}:
                raise ValueError(f"cluster {j}'s {shape!r} must be a list of {width} numbers")
        _require(doc, {"k": (int, float)}, "the tariff")
        known = {"k": (len(clusters),), **({"metric": ASSIGNMENT_METRICS} if profile else
                                           {"method": ("gkc", "skc")})}
        _require_known(doc, known, "the tariff")
        user_ids = [uid for cluster in clusters for uid in cluster["members"]]
        labels = np.repeat(np.arange(len(clusters)),
                           [len(cluster["members"]) for cluster in clusters])
        if len(set(user_ids)) != len(user_ids):
            uid, n = next((uid, n) for uid, n in Counter(user_ids).items() if n > 1)
            listed = sorted({int(j) for u, j in zip(user_ids, labels) if u == uid})
            raise ValueError(f"user id {uid!r} is listed {n} times, by clusters {listed}")
        prices = [cluster["price"] for cluster in clusters]
        if rates is not None:
            member_rates = [rates.get(uid) for uid in user_ids]
            if None in member_rates:
                missing = [uid for uid, rate in zip(user_ids, member_rates) if rate is None]
                raise ValueError(
                    f"{len(missing)} clustering user ids are not in the corpus "
                    f"(first: {missing[0]!r}); was it clustered from another corpus?")
        if profile:
            return cls(
                user_ids=user_ids,
                labels=labels,
                prices=None if None in prices else np.array(prices, dtype=float),
                method="profile",
                centers=np.array([cluster["center"] for cluster in clusters], dtype=float),
                metric=doc["metric"],
            )
        if rates is None:
            raise ValueError("a rate tariff needs its members' rates to load")
        tariff = cls(
            user_ids=user_ids,
            labels=labels,
            prices=np.array(prices, dtype=float),
            method=doc["method"],
            rates=np.array(member_rates, dtype=float),
            rho=float(doc["rho"]),
        )
        stored = np.array([cluster["rate_range"] for cluster in clusters], dtype=float)
        ranges = tariff.rate_ranges()
        bad = np.flatnonzero(np.any(stored != ranges, axis=1))
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"{bad.size} of {tariff.k} bands have a rate_range other than their "
                f"members' rates (first: band {j}, stored {stored[j].tolist()}, rates "
                f"span {ranges[j].tolist()}); was the tariff made from another corpus "
                f"or cost model?")
        return tariff
