"""Rate-band tariffs: cluster on the rate itself, not on profile shape.

Sort users by their marginal cost impact and cover the rate axis with
bands of width 2*rho, pricing each band at its midpoint. Every user then
pays within rho of its true rate, disguising can never move a bill by
more than rho*(1 + 1/(1-theta)), and the greedy covering provably uses
the fewest bands possible. A bisecting refinement of the profile-based
clustering reaches the same guarantee with far more clusters.
"""

import numpy as np

from gridrates import (
    CostModel,
    aggregate,
    criterion_check,
    generate_corpus,
    gkc,
    kmeans_profiles,
    mci_table,
    measure_smoothness,
    minimal_clusters_oracle,
    price_curve,
    residential_spec,
    skc,
    smoothness_bound,
)

spec = residential_spec(n_users=2000, seed=7, total_range=(4000.0, 9000.0))
pop = generate_corpus(spec)
prices = price_curve(CostModel(0.00012, -37.38), aggregate(pop))
table = mci_table(pop, prices)
rho = 0.5

print(f"user rates span {table.mcis.min():.2f} .. {table.mcis.max():.2f}")

# greedy covering
greedy = gkc(table, rho)
ok, worst = criterion_check(greedy)
print(f"\ngreedy covering: {greedy.k} bands")
print(f"  per-user gap to band rate <= rho: {ok} (worst {worst:.4f}, rho {rho})")
print(f"  band count is provably minimal: "
      f"{greedy.k == minimal_clusters_oracle(table, rho)}")

# bisecting refinement of the profile clustering
base = kmeans_profiles(pop, k=24, prices=prices, seed=7)
refined = skc(pop, prices, rho, base)
ok_r, worst_r = criterion_check(refined)
print(f"\nbisecting refinement: {refined.k} bands "
      f"(refining a {base.k}-cluster profile clustering)")
print(f"  same guarantee ({ok_r}, worst {worst_r:.4f}) at "
      f"{refined.k / greedy.k:.1f}x the cluster count")

# first bands of the published tariff
print("\nband  rate range          price  users")
ranges = greedy.rate_ranges()
for j in range(min(6, greedy.k)):
    lo, hi = ranges[j]
    size = len(greedy.member_ids(j))
    print(f"{j:4d}  [{lo:6.2f}, {hi:6.2f}]   {greedy.prices[j]:6.2f}  {size:5d}")

# the disguising audit now comes back clean
for theta in (0.05, 0.2, 0.5):
    audit = measure_smoothness(greedy, theta=theta)
    bound = smoothness_bound(rho, theta)
    print(f"theta {theta:4.2f}: worst reachable gap {audit.delta_observed:.3f} "
          f"<= guarantee {bound:.3f}")
