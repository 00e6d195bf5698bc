"""Why tariffs clustered on raw profiles invite strategic disguising.

Group users by profile shape, price each group at its center's rate, and
boundary users can blend a little of a cheaper group's shape into their
reported profile to switch groups. This script measures how cheap those
switches are and how much money they move.
"""

import numpy as np

from gridrates import (
    Audit,
    CostModel,
    aggregate,
    generate_corpus,
    kmeans_profiles,
    price_curve,
    residential_spec,
    smoothness_bound,
)

spec = residential_spec(n_users=2000, seed=7, total_range=(4000.0, 9000.0))
pop = generate_corpus(spec)
prices = price_curve(CostModel(0.00012, -37.38), aggregate(pop))

clustering = kmeans_profiles(pop, k=24, prices=prices, seed=7)
order = np.argsort(clustering.prices)
print(f"profile-based tariff, k={clustering.k}")
print(f"cluster rates: {clustering.prices[order[0]]:.2f} .. {clustering.prices[order[-1]]:.2f}")

# one audit of every user: each effort into every cluster is computed once,
# and read by the reports, the theta sweep and the smoothness audit alike
theta = 0.05  # willing to alter 5% of the reported shape
thetas = (0.01, 0.02, 0.05, 0.10, 0.20)
audit = Audit(clustering, pop, thetas=thetas, theta=theta)
reports = audit.add(audit.by_id)   # every user, in id order
sweep = audit.sweep_rows()

# survey every user's cheapest admissible switch
movable = [r for r in reports if r.cr <= theta]
best = max(movable, key=lambda r: r.benefit)
print(f"\nat effort threshold {theta:.0%}:")
print(f"  {len(movable)} of {pop.n_users} users can switch to a cheaper cluster")
print(f"  largest per-unit saving: {best.benefit:.2f} "
      f"(user {best.user_id}, effort {best.cr:.3f})")

_, pct, counts = sweep[thetas.index(theta)]
print(f"  strategic users: {pct:.1f}% of the population")
print(f"  per-cluster counts: {counts.tolist()}")

# sweep the effort threshold: more tolerance, more strategic users
print("\ntheta   strategic %")
for sweep_theta, pct, _ in sweep:
    print(f"{sweep_theta:5.2f}   {pct:6.2f}")

# the gap a disguiser can reach vs what a rate-band scheme would certify
rho = 0.5
bound = smoothness_bound(rho, theta)
print(f"\nworst reachable rate gap: {audit.delta_observed:.2f}")
print(f"rate-band guarantee at rho={rho}: {bound:.2f}")
print(f"loophole factor: {audit.delta_observed / bound:.1f}x")
