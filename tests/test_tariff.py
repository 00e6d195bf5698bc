"""One tariff type for both schemes: each kind's JSON round trip, its
rebuild on the corpus, and the load checks."""

import json
import re

import numpy as np
import pytest

from gridrates import (
    Audit,
    CostModel,
    Population,
    PriceCurve,
    Tariff,
    aggregate,
    criterion_check,
    generate_corpus,
    gkc,
    kmeans_profiles,
    mci_table,
    price_curve,
    residential_spec,
    sigma,
    skc,
)


def _pipeline(n=300, seed=4):
    spec = residential_spec(n, seed=seed, total_range=(26_000.0, 60_000.0))
    pop = generate_corpus(spec)
    return pop, price_curve(CostModel(0.00012, -37.38), aggregate(pop))


def _tariff(method, pop, prices, rho=0.5):
    if method == "gkc":
        return gkc(mci_table(pop, prices), rho=rho)
    base = kmeans_profiles(pop, k=8, prices=prices, seed=2)
    if method == "drill":   # a sub-tariff of cluster 0's members, as `diversity --drill` makes
        members = base.member_ids(0)
        sub = Population(members, pop.consumption[pop.rows_of(members)])
        return kmeans_profiles(sub, k=3, prices=prices, seed=2)
    return base if method == "profile" else skc(pop, prices, rho, base)


@pytest.mark.parametrize("method", ["profile", "gkc", "skc"])
def test_json_round_trip(method):
    pop, prices = _pipeline()
    tariff = _tariff(method, pop, prices)
    text = tariff.to_json()
    back = Tariff.from_json(text, pop, prices, 0.5)
    assert back.to_json() == text
    assert back.assignments == tariff.assignments
    assert back.method == method
    if method == "profile":
        assert Tariff.from_json(text).to_json() == text   # no corpus needed
        np.testing.assert_array_equal(back.centers, tariff.centers)
        np.testing.assert_array_equal(back.prices, tariff.prices)
    else:
        ok, _ = criterion_check(back)
        assert ok


@pytest.mark.parametrize("method", ["profile", "gkc", "skc", "drill"])
def test_loading_rebuilds_every_array_bit_for_bit(method):
    pop, prices = _pipeline()
    tariff = _tariff(method, pop, prices)
    back = Tariff.from_json(tariff.to_json(), pop, prices, 0.5)
    # the file lists users cluster by cluster: compare per-user arrays by id
    mine, theirs = np.argsort(tariff.user_ids), np.argsort(back.user_ids)
    assert back.user_ids[theirs].tolist() == tariff.user_ids[mine].tolist()
    assert back.labels[theirs].tobytes() == tariff.labels[mine].tobytes()
    assert back.prices.tobytes() == tariff.prices.tobytes()
    if method in ("gkc", "skc"):
        assert back.rates[theirs].tobytes() == tariff.rates[mine].tobytes()
        assert back.rho == tariff.rho
    else:
        assert back.centers.tobytes() == tariff.centers.tobytes()
        assert back.metric == tariff.metric


def test_rate_ranges_take_tied_zero_ends_in_stable_sort_order():
    rates = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0, -0.0, 0.0])
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3, 3])
    tariff = Tariff([f"u{i}" for i in range(10)], labels, np.zeros(4), "gkc",
                    rates=rates, rho=1.0)
    for j, (lo, hi) in enumerate(tariff.rate_ranges()):
        band = np.sort(rates[labels == j], kind="stable")
        assert np.array([lo, hi]).tobytes() == band[[0, -1]].tobytes(), j


def test_rate_tariff_needs_rates_and_matching_ranges():
    pop, prices = _pipeline()
    text = gkc(mci_table(pop, prices), rho=0.5).to_json()
    with pytest.raises(ValueError, match="needs its members' rates"):
        Tariff.from_json(text)
    shifted = PriceCurve(prices.prices + 1e-9)   # every member's rate moves
    with pytest.raises(ValueError, match="rate_range other than their members' rates"):
        Tariff.from_json(text, pop, shifted, 0.5)


@pytest.mark.parametrize("method", ["gkc", "skc"])
@pytest.mark.parametrize("rho", [0.05, 0.5, 3.0])
def test_band_prices_are_their_range_midpoints_and_an_edit_is_refused(method, rho):
    pop, prices = _pipeline(n=400, seed=9)
    doc = json.loads(_tariff(method, pop, prices, rho).to_json())
    Tariff.from_json(json.dumps(doc), pop, prices, rho)   # every band tariff the program writes loads
    doc["clusters"][1]["price"] = float(np.nextafter(doc["clusters"][1]["price"], np.inf))
    with pytest.raises(ValueError, match=r"^1 of \d+ band prices are not the midpoints of "
                                         r"their rate ranges \(first: band 1, price "):
        Tariff.from_json(json.dumps(doc), pop, prices, rho)


@pytest.mark.parametrize("use, method", [
    ("from_json", "profile"), ("from_json", "gkc"), ("Audit", "profile"),
    ("sigma", "profile"), ("sigma", "gkc")])
def test_a_corpus_without_the_tariffs_users_is_refused(use, method):
    pop, prices = _pipeline()
    tariff = _tariff(method, pop, prices)
    small = generate_corpus(residential_spec(10, seed=4, total_range=(26_000.0, 60_000.0)))
    n = sum(uid not in small.user_ids for uid in tariff.user_ids.tolist())
    apply = {"from_json": lambda: Tariff.from_json(tariff.to_json(), small, prices, 0.5),
             "Audit": lambda: Audit(tariff, small),
             "sigma": lambda: sigma(tariff, small)}[use]
    with pytest.raises(ValueError, match=rf"^{n} clustering user ids are not in the corpus "
                                         r"\(first: '[^']+'\); was it clustered from "
                                         r"another corpus\?$"):
        apply()


@pytest.mark.parametrize("method", ["profile", "gkc", "skc"])
def test_loading_on_a_corpus_builds_one_tariff(method, monkeypatch):
    pop, prices = _pipeline()
    text = _tariff(method, pop, prices).to_json()
    built = []
    post_init = Tariff.__post_init__
    monkeypatch.setattr(Tariff, "__post_init__", lambda self: built.append(post_init(self)))
    Tariff.from_json(text, pop, prices, 0.5)
    assert len(built) == 1


def test_from_json_refuses_bands_wider_than_their_rho():
    pop, prices = _pipeline()
    doc = json.loads(gkc(mci_table(pop, prices), rho=1.0).to_json())
    doc["rho"] = 0.5   # every band still spans up to 2.0
    worst = max(abs(v - c["price"]) for c in doc["clusters"] for v in c["rate_range"])
    assert worst > 0.5
    with pytest.raises(ValueError, match="^" + re.escape(
            f"a member's rate lies {worst!r} from its band's price, "
            f"more than the tariff's rho=0.5") + "$"):
        Tariff.from_json(json.dumps(doc), pop, prices, 0.5)
