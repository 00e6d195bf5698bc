import math
import re

import numpy as np
import pytest

from gridrates import (
    CostModel,
    EmptyPopulation,
    Population,
    PriceCurve,
    PriceWarning,
    SystemLoad,
    Tariff,
    ZeroProfile,
    billing_identity_check,
    disguised_profile,
    kmeans_profiles,
    mci,
    mci_matrix,
    mci_table,
    price_curve,
    total_cost,
)
from gridrates.vulnerability import effort_rows

# fitted real-time price coefficients used across the experiment defaults
A_FIT, B_FIT = 0.00012, -37.38


def test_total_cost_direct():
    assert total_cost(CostModel(a=2, b=0, c=0), SystemLoad([1, 2])) == 5.0


def test_total_cost_zero_load_keeps_fixed_cost():
    assert total_cost(CostModel(a=1, b=1, c=1), SystemLoad([0])) == 1.0


def test_total_cost_matches_termwise_fsum():
    # independent re-evaluation: per-slot terms accumulated with math.fsum
    rng = np.random.default_rng(7)
    loads = rng.uniform(3.5e5, 6.0e5, size=24)
    model = CostModel(a=A_FIT, b=B_FIT, c=0.0)
    expected = math.fsum(0.5 * model.a * L * L + model.b * L + model.c for L in loads)
    got = total_cost(model, SystemLoad(loads))
    assert got == pytest.approx(expected, rel=1e-12)


def test_price_curve_identity_map():
    pc = price_curve(CostModel(a=1, b=0), SystemLoad([3, 5]))
    np.testing.assert_allclose(pc.prices, [3, 5])


def test_price_curve_fitted_coefficients():
    pc = price_curve(CostModel(A_FIT, B_FIT), SystemLoad([400000, 500000]))
    np.testing.assert_allclose(pc.prices, [10.62, 22.62], rtol=1e-9)


def test_price_curve_constant_load():
    pc = price_curve(CostModel(a=2, b=1), SystemLoad([0, 0, 0]))
    np.testing.assert_allclose(pc.prices, [1, 1, 1])


def test_price_curve_warns_on_nonpositive_price():
    with pytest.warns(PriceWarning):
        pc = price_curve(CostModel(A_FIT, B_FIT), SystemLoad([100.0, 5e5]))
    assert pc.prices[0] < 0  # kept, not clamped


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(a=0, b=1)
    with pytest.raises(ValueError):
        CostModel(a=1, b=1, c=-1)
    with pytest.raises(ValueError):
        SystemLoad([-1.0, 2.0])


def test_mci_uniform_profile_is_mean_price():
    assert mci(PriceCurve([10, 20]), [1, 1]) == 15.0


def test_mci_single_slot_profile_picks_that_price():
    assert mci(PriceCurve([10, 20]), [0, 4]) == 20.0


def test_mci_matches_fsum_dot_oracle():
    rng = np.random.default_rng(11)
    loads = rng.uniform(3.5e5, 6.0e5, size=24)
    prices = price_curve(CostModel(A_FIT, B_FIT), SystemLoad(loads))
    # evening-peaked profile
    profile = 0.2 + np.exp(-0.5 * ((np.arange(24) - 19) / 2.0) ** 2)
    expected = math.fsum(p * l for p, l in zip(prices.prices, profile)) / math.fsum(profile)
    assert mci(prices, profile) == pytest.approx(expected, rel=1e-12)


def test_mci_zero_profile_rejected():
    with pytest.raises(ZeroProfile):
        mci(PriceCurve([1.0, 2.0]), [0.0, 0.0])
    with pytest.raises(ZeroProfile):
        mci_matrix(PriceCurve([1.0, 2.0]), [[1.0, 1.0], [0.0, 0.0]])


def test_mci_scale_invariance():
    rng = np.random.default_rng(3)
    prices = PriceCurve(rng.uniform(5, 60, size=24))
    profile = rng.uniform(0, 2, size=24)
    base = mci(prices, profile)
    for alpha in (1e-6, 0.5, 3.0, 1e6):
        assert mci(prices, alpha * profile) == pytest.approx(base, rel=1e-12)


def test_mci_bounded_by_price_range():
    rng = np.random.default_rng(4)
    prices = PriceCurve(rng.uniform(-5, 60, size=24))
    for _ in range(200):
        profile = rng.uniform(0, 1, size=24)
        if profile.sum() == 0:
            continue
        value = mci(prices, profile)
        assert prices.prices.min() - 1e-12 <= value <= prices.prices.max() + 1e-12


def test_mci_matrix_matches_scalar():
    rng = np.random.default_rng(5)
    prices = PriceCurve(rng.uniform(5, 60, size=24))
    mat = rng.uniform(0.01, 2, size=(50, 24))
    vec = mci_matrix(prices, mat)
    for i in range(50):
        assert vec[i] == pytest.approx(mci(prices, mat[i]), rel=1e-12)


def test_billing_identity_hand_case():
    assert billing_identity_check(PriceCurve([10, 20]), [2, 2])
    # both sides equal 60
    assert float(np.dot([10, 20], [2, 2])) == 60.0


def test_billing_identity_random_population():
    rng = np.random.default_rng(6)
    loads = rng.uniform(3.5e5, 6.0e5, size=24)
    prices = price_curve(CostModel(A_FIT, B_FIT), SystemLoad(loads))
    for _ in range(1000):
        profile = rng.uniform(0, 3, size=24)
        if profile.sum() <= 0:
            continue
        assert billing_identity_check(prices, profile)


def test_price_curve_is_affine_in_load():
    rng = np.random.default_rng(8)
    l1, l2 = rng.uniform(0, 10, size=(2, 24))
    a, b = 1.7, -0.3
    combined = price_curve(CostModel(a, b), SystemLoad(l1 + l2)).prices
    part = price_curve(CostModel(a, b), SystemLoad(l1)).prices
    part_zero_b = CostModel(a, b).a * l2  # second term enters without the offset
    np.testing.assert_allclose(combined, part + part_zero_b, rtol=1e-12)


def test_adding_a_user_never_lowers_prices():
    rng = np.random.default_rng(9)
    base = rng.uniform(1, 10, size=24)
    extra = rng.uniform(0, 2, size=24)
    before = price_curve(CostModel(0.5, 0.1), SystemLoad(base)).prices
    after = price_curve(CostModel(0.5, 0.1), SystemLoad(base + extra)).prices
    assert np.all(after >= before)


_POINTS = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])   # three users' normalized profiles
_POP = Population(["a", "b", "c"], _POINTS)
_RATE_TARIFF = Tariff(["a", "b"], np.array([0, 1]), np.array([1.0, 2.0]), "gkc",
                      rates=np.array([1.0, 2.0]), rho=0.5)


def _profile_tariff(curve=None):
    return Tariff.of_profiles(_POP.user_ids, _POINTS, np.array([0, 1, 1]), curve)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: disguised_profile([0.5, 0.5], [0.2, 0.8], 1.5), ValueError,
                 "mu must be in [0, 1], got 1.5", id="disguise-mu"),
    pytest.param(lambda: effort_rows(_RATE_TARIFF), ValueError,
                 "rate-band tariffs have no effort rows; `Audit` reads their reports off the "
                 "sorted prices", id="efforts-rate-tariff"),
    pytest.param(lambda: effort_rows(_profile_tariff(PriceCurve([1.0, 2.0]))), ValueError,
                 "profile tariffs need the population for efforts", id="efforts-no-pop"),
    pytest.param(lambda: effort_rows(_profile_tariff(), _POP), ValueError,
                 "tariff has no cluster rates; cluster with a price curve", id="efforts-unpriced"),
    pytest.param(lambda: Tariff(["a", "b"], np.array([0, 2]), np.zeros(2), "gkc"), ValueError,
                 "labels out of range", id="tariff-labels"),
    pytest.param(lambda: kmeans_profiles(_POP, k=2, metric="cosine"), ValueError,
                 "metric must be one of ('sqeuclidean', 'l1')", id="kmeans-metric"),
    pytest.param(lambda: SystemLoad(np.ones((2, 3))), ValueError,
                 "loads must be a non-empty 1-D vector", id="load-shape"),
    pytest.param(lambda: PriceCurve([]), ValueError,
                 "prices must be a non-empty 1-D vector", id="curve-shape"),
    pytest.param(lambda: mci(PriceCurve([1.0, 2.0]), [1.0, 1.0, 1.0]), ValueError,
                 "profile has 3 slots, price curve has 2", id="mci-slots"),
    pytest.param(lambda: mci_table(Population([], np.zeros((0, 2))), PriceCurve([1.0, 2.0])),
                 EmptyPopulation, "cannot rate an empty population", id="mci-table-empty"),
])
def test_public_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
