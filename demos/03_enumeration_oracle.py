"""Ground truth by brute force: enumeration validates every closed form.

On small instances we can walk every coloring of a profile, so the law of
the homophilic-count vector is known exactly. This script does that for a
random 7-vertex graph, compares exact moments with the closed forms, checks
a Cantelli bound against an exact tail, and cross-checks with seeded Monte
Carlo sampling.

Run:  python3 demos/03_enumeration_oracle.py
"""

import numpy as np

import nethom as nh

rng = np.random.default_rng(42)

# a random connected-ish graph on 7 vertices
edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.45]
graph = nh.Graph.from_edges(7, edges)
summary = nh.summarize(graph)
profile = nh.Profile((3, 2, 2))
print(f"graph: n = 7, m = {graph.m}; profile {profile.sizes}")
print(f"colorings of this profile: {profile.coloring_count()}")

# --- enumerate the full distribution ----------------------------------------
dist = nh.enumerate_colorings(graph, profile)
print(f"distinct outcomes: {len(dist.support)}; masses sum to {sum(dist.support.values())}")

mean, cov = nh.exact_moments(dist)
cs = nh.covariance_structure(summary, profile)
print("\nenumerated mean :", [str(x) for x in mean])
print("closed-form mean:", [str(x) for x in cs.mbar])
assert mean == cs.mbar
assert cov == cs.exact()
print("closed forms match enumeration exactly (rational equality)")

gamma = nh.gamma_invariant(summary)
print(f"\ngamma = {gamma}; off-diagonal covariances are gamma * c_i^(2) * c_j^(2):")
print(f"  cov(M1, M2) = {cov[0][1]} = {gamma} * 6 * 2")

# --- an exact tail against its Cantelli bound --------------------------------
observed = max(dist.support, key=lambda o: sum(o))  # most homophilic outcome
total_dev = sum(observed) - float(sum(cs.mbar))
tail = nh.exact_tail(dist, lambda o: sum(o), sum(observed), "ge")
spread = cs.var_total  # Var(total count) = 1'Sigma 1, as index r uses it
bound = spread / (total_dev**2 + spread)
print(f"\nmost homophilic outcome in the support: {observed}")
print(f"exact P(total >= {sum(observed)}) = {tail} = {float(tail):.4f}")
print(f"Cantelli bound                    = {bound:.4f}  (tail never exceeds it)")
assert float(tail) <= bound + 1e-12

# --- Monte Carlo agrees with the exact tail ----------------------------------
est = nh.mc_tail(
    graph, profile, lambda o: sum(o), sum(observed), "ge", samples=20000, seed=1
)
print(f"\nMonte Carlo estimate over {est.samples} seeded samples:")
print(f"  {est.estimate:.4f} +- {est.half_width:.4f} (99% interval {est.bounds})")
assert abs(est.estimate - float(tail)) <= max(est.half_width, 0.01)

# --- tree extremes of gamma ---------------------------------------------------
print("\ngamma extremes over labeled trees (paths on top, stars at the bottom):")
for n in (5, 6, 7):
    rep = nh.tree_gamma_scan(n)
    print(
        f"  n={n}: max {rep.gamma_max} ({rep.max_count} trees, all paths: "
        f"{rep.max_all_paths}); min {rep.gamma_min} ({rep.min_count} trees, "
        f"all stars: {rep.min_all_stars})"
    )
