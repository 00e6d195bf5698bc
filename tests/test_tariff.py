"""One tariff type for both schemes: each kind's JSON round trip and load checks."""

import numpy as np
import pytest

from gridrates import (
    CostModel,
    Tariff,
    aggregate,
    criterion_check,
    generate_corpus,
    gkc,
    kmeans_profiles,
    mci_table,
    price_curve,
    residential_spec,
    skc,
)
from gridrates.model import mci_matrix


def _pipeline(n=300, seed=4):
    spec = residential_spec(n, seed=seed, total_range=(26_000.0, 60_000.0))
    pop = generate_corpus(spec)
    prices = price_curve(CostModel(0.00012, -37.38), aggregate(pop))
    rates = dict(zip(pop.user_ids, mci_matrix(prices, pop.consumption).tolist()))
    return pop, prices, rates


def _tariff(method, pop, prices, rho=0.5):
    if method == "gkc":
        return gkc(mci_table(pop, prices), rho=rho)
    base = kmeans_profiles(pop, k=8, prices=prices, seed=2)
    return base if method == "profile" else skc(pop, prices, rho, base)


@pytest.mark.parametrize("method", ["profile", "gkc", "skc"])
def test_json_round_trip(method):
    pop, prices, rates = _pipeline()
    tariff = _tariff(method, pop, prices)
    text = tariff.to_json()
    back = Tariff.from_json(text, rates)
    assert back.to_json() == text
    assert back.assignments == tariff.assignments
    assert back.method == method
    if method == "profile":
        assert Tariff.from_json(text).to_json() == text   # no rates needed
        np.testing.assert_array_equal(back.centers, tariff.centers)
        np.testing.assert_array_equal(back.prices, tariff.prices)
    else:
        ok, _ = criterion_check(back)
        assert ok


def test_rate_tariff_needs_rates_and_matching_ranges():
    pop, prices, rates = _pipeline()
    text = gkc(mci_table(pop, prices), rho=0.5).to_json()
    with pytest.raises(ValueError, match="needs its members' rates"):
        Tariff.from_json(text)
    shifted = {uid: rate + 1e-9 for uid, rate in rates.items()}
    with pytest.raises(ValueError, match="rate_range other than their members' rates"):
        Tariff.from_json(text, shifted)


@pytest.mark.parametrize("method", ["gkc", "skc"])
@pytest.mark.parametrize("rho", [0.05, 0.5, 3.0])
def test_band_prices_are_their_range_midpoints_and_an_edit_is_refused(method, rho):
    pop, prices, rates = _pipeline(n=400, seed=9)
    back = Tariff.from_json(_tariff(method, pop, prices, rho).to_json(), rates)
    back.check_config(prices, rho)   # every band tariff the program writes loads
    back.prices[1] = np.nextafter(back.prices[1], np.inf)
    with pytest.raises(ValueError, match=r"^1 of \d+ band prices are not the midpoints of "
                                         r"their rate ranges \(first: band 1, price "):
        back.check_config(prices, rho)
