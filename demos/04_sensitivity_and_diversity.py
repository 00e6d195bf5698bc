"""How band count responds to tolerance and cost curvature; band diversity.

Wider bands (larger rho) mean fewer clusters; steeper marginal cost
(larger a) spreads user rates apart and needs more. Within one rate band
the profile shapes can still be diverse, which a per-band mean distance
statistic exposes; sub-clustering a diverse band recovers its shapes.
"""

import numpy as np

from gridrates import (
    CostModel,
    Population,
    SystemLoad,
    aggregate,
    generate_corpus,
    gkc,
    kmeans_profiles,
    mci_table,
    price_curve,
    residential_spec,
    sigma,
)

spec = residential_spec(n_users=2000, seed=7, total_range=(4000.0, 9000.0))
pop = generate_corpus(spec)
loads = aggregate(pop)
a_default = 0.00012

# band count over a tolerance grid, for three curvatures
rho_grid = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
print("bands by (rho, a):")
print("rho     a/2     a    2a")
for rho in rho_grid:
    row = []
    for a in (a_default / 2, a_default, a_default * 2):
        prices = price_curve(CostModel(a, -37.38), loads)
        row.append(gkc(mci_table(pop, prices), rho).k)
    print(f"{rho:4.2f} {row[0]:6d} {row[1]:5d} {row[2]:5d}")
print("fewer bands as rho grows; roughly twice as many when a doubles\n")

# diversity inside each band of the default tariff
prices = price_curve(CostModel(a_default, -37.38), loads)
bands = gkc(mci_table(pop, prices), 0.5)
spread = sigma(bands, pop)
sizes = np.array([len(bands.member_ids(j)) for j in range(bands.k)])
print(f"default tariff: {bands.k} bands, sizes {sizes.min()}..{sizes.max()}")
print("most users sit in mid-rate bands; shape diversity peaks off-center:")
print("band  price   size  mean l1 distance to band mean")
show = sorted(range(bands.k), key=lambda j: -spread[j])[:3]
for j in sorted(show):
    print(f"{j:4d}  {bands.prices[j]:6.2f} {sizes[j]:6d}  {spread[j]:.3f}")

# drill into the most diverse band: its shapes separate cleanly
j = int(np.argmax(spread))
member_ids = bands.member_ids(j)
sub = Population(member_ids, pop.consumption[pop.rows_of(member_ids)])
inner = kmeans_profiles(sub, k=min(4, sub.n_users), prices=prices, seed=7)
print(f"\nband {j} drill-down into {inner.k} shape groups:")
for g in range(inner.k):
    center = inner.centers[g]
    peak = int(center.argmax())
    n_members = len(inner.member_ids(g))
    print(f"  group {g}: {n_members:4d} users, busiest hour {peak:2d}, "
          f"rate of mean shape {inner.prices[g]:.2f}")
