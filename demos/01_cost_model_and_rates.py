"""System cost, marginal prices, and per-user rates.

The operator buys energy at quadratic cost, so the marginal price is
affine in the total load. Each user's fair uniform rate is the
price-weighted average of its normalized profile; billing at that single
rate reproduces the user's marginal-cost bill exactly.
"""

import numpy as np

from gridrates import (
    CostModel,
    aggregate,
    billing_identity_check,
    generate_corpus,
    mci,
    price_curve,
    residential_spec,
    total_cost,
)

# a small neighborhood; totals scaled so the fitted coefficients give
# realistic positive prices (defaults are sized for ~10k users)
spec = residential_spec(n_users=500, seed=1, total_range=(16_000.0, 36_000.0))
pop = generate_corpus(spec)
load = aggregate(pop)
model = CostModel(a=0.00012, b=-37.38)

print(f"{pop.n_users} users, {pop.horizon} hourly slots")
print(f"operator's total daily cost: {total_cost(model, load):,.0f}")

prices = price_curve(model, load)
print("\nhour  load        price")
for t in range(0, 24, 3):
    print(f"{t:4d}  {load.loads[t]:>10,.0f}  {prices.prices[t]:8.2f}")
print(f"\nprice range: {prices.prices.min():.2f} .. {prices.prices.max():.2f}")

# the affine map preserves the peak hour
assert load.loads.argmax() == prices.prices.argmax()

# rate three contrasting users
for user_id, profile in zip(pop.user_ids[:3], pop.consumption):
    rate = mci(prices, profile)
    weights = profile / profile.sum()
    peak_hour = int(weights.argmax())
    print(f"user {user_id}: rate {rate:6.2f}  (busiest hour {peak_hour:2d}, "
          f"daily total {profile.sum():,.0f})")
    assert billing_identity_check(prices, profile)

# a user's rate never leaves the price range, and scaling consumption
# up or down does not change it
some = pop.consumption[0]
assert prices.prices.min() <= mci(prices, some) <= prices.prices.max()
assert np.isclose(mci(prices, 3.0 * some), mci(prices, some))
print("\nbilling identity and rate bounds hold for every user checked")
