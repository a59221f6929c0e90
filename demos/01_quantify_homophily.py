"""Walkthrough: how homophilic is a labeled network, and is it significant?

We build a small synthetic friendship network with two planted communities,
label the vertices by community, and ask how far the observed within-class
edge counts sit from what uniformly random labelings of the same class sizes
would produce.

Run:  python3 demos/01_quantify_homophily.py
"""

import numpy as np

import nethom as nh

rng = np.random.default_rng(7)

# --- build a planted two-community graph ------------------------------------
# 30 vertices: "left" community 0..14, "right" community 15..29.
# Edges inside a community appear with probability 0.4, across with 0.06.
edges = []
for i in range(30):
    for j in range(i + 1, 30):
        same = (i < 15) == (j < 15)
        if rng.random() < (0.4 if same else 0.06):
            edges.append((i, j))
graph = nh.Graph.from_edges(30, edges)
print(f"graph: n = {graph.n}, m = {graph.m}")

summary = nh.summarize(graph)
print(f"density = {summary.rho:.3f}, degree dispersion = {summary.upsilon:.3f}")

# gamma is the common scale of every between-class covariance. Its sign is
# a property of the graph alone: over-dispersed degrees force gamma <= 0.
gamma = nh.gamma_invariant(summary)
print(f"gamma = {float(gamma):.3e}  (negative: counts are anti-correlated)")

# --- the observed labeling ---------------------------------------------------
assignment = np.array([0] * 15 + [1] * 15, dtype=np.int32)
coloring = nh.Coloring(assignment=assignment, class_labels=("left", "right"))
observed = nh.homophilic_counts(graph, coloring)
print(f"\nobserved homophilic counts: {observed.counts} of {graph.m} edges")

# --- moments under the random coloring null ----------------------------------
profile = coloring.profile
cs = nh.covariance_structure(summary, profile)
print(f"expected counts:  ({float(cs.mbar[0]):.2f}, {float(cs.mbar[1]):.2f})")
print(f"std deviations:   ({float(cs.var[0]) ** 0.5:.2f}, {float(cs.var[1]) ** 0.5:.2f})")

# --- the index family ----------------------------------------------------------
# Every index couples a monotone score with a tail bound and lands in [-1, 1]:
# values near +1 mean "a random labeling almost never scores this high".
report = nh.build_index_report(graph, coloring, observed, cs)
print(f"\nindex a (mean z-score):        {report.a:.4f}")
print(f"index r (homophily ratio):     {report.r:.4f}")
print(f"index h (Mahalanobis, [0,1]):  {report.h:.4f}")
for name, value in report.j_theta.items():
    print(f"index j[{name}]: {value:.4f}")

# Classical descriptive numbers for comparison. They say *how many* edges
# are internal, not whether that count is surprising.
print(f"\ndescriptive ratio: {report.descriptive_ratio:.4f}")
print(f"Newman modularity: {report.newman_q:.4f}")

# Significance-style readings, as complements:
print(f"\n1 - a = {1 - report.a:.2e}  (tail bound on seeing a higher mean z-score)")
print(f"1 - r = {1 - report.r:.2e}  (tail bound on seeing a higher homophily ratio)")
