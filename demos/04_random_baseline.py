"""Observed labeling vs random relabelings: the baseline workflow.

A practical sanity check for any homophily claim: recompute every index on a
few uniform random colorings with the same class sizes. The observed
labeling should stand far outside the spread of the baselines if the signal
is real. This mirrors `nethom baseline` (the CLI defaults to 5 samples).

Run:  python3 demos/04_random_baseline.py
"""

import numpy as np

import nethom as nh

rng = np.random.default_rng(3)

# three planted groups of 8 with strong internal wiring
n, groups = 24, 3
edges = []
for i in range(n):
    for j in range(i + 1, n):
        same = (i // 8) == (j // 8)
        if rng.random() < (0.55 if same else 0.04):
            edges.append((i, j))
graph = nh.Graph.from_edges(n, edges)
coloring = nh.Coloring(
    assignment=np.array([i // 8 for i in range(n)], dtype=np.int32),
    class_labels=("alpha", "beta", "gamma"),
)

summary = nh.summarize(graph)
profile = coloring.profile
cs = nh.covariance_structure(summary, profile)

observed = nh.homophilic_counts(graph, coloring)
obs_report = nh.build_index_report(graph, coloring, observed, cs)
print(f"graph: n = {n}, m = {graph.m}; profile {profile.sizes}")
print(f"observed counts {observed.counts}: a = {obs_report.a:.4f}, "
      f"r = {obs_report.r:.4f}, ratio = {obs_report.descriptive_ratio:.3f}, "
      f"q = {obs_report.newman_q:.3f}")

# the moment structure depends only on the profile, so one evaluator serves
# every sample; sample_counts keeps only the counts of each seed's coloring
print("\nbaseline on 5 uniform random colorings (seeds 0..4):")
print("  seed   counts          a         r     ratio        q")
evaluator = nh.IndexEvaluator(graph, profile, cs, coloring.class_labels)
seeds = range(5)
counts, mass = nh.sample_counts(graph, profile, seeds)
acc = {"a": [], "r": [], "ratio": [], "q": []}
for seed, row, row_mass in zip(seeds, counts.tolist(), mass.tolist()):
    rep = evaluator.report(row, row_mass)
    acc["a"].append(rep.a)
    acc["r"].append(rep.r)
    acc["ratio"].append(rep.descriptive_ratio)
    acc["q"].append(rep.newman_q)
    print(f"  {seed:4d}   {str(rep.observed):12s} {rep.a:8.4f} {rep.r:9.4f} "
          f"{rep.descriptive_ratio:9.3f} {rep.newman_q:8.3f}")

print("\nbaseline means:")
for key, vals in acc.items():
    print(f"  {key:6s} {sum(vals) / len(vals):8.4f}")
print("\nrandom relabelings hover near zero on every index; the observed")
print("labeling sits at the far end of the scale. Same thing via the CLI:")
print("  nethom baseline --graph g.edges --coloring f.tsv --samples 5 --seed 0")
