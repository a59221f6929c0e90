"""The disjoint-edges graph: where linear indices are blind, tails are not.

Take 500 disjoint edges (1000 vertices) and color half the vertices red and
half blue. Every coloring produces the same number k of red and blue
homophilic edges, so every index reduces to a function of k alone. The
descriptive ratio and modularity are straight lines in k; they cannot say
which k are *unlikely*. The exact tail law shows outcomes outside a narrow
window around the mean (about 125) are essentially impossible, and the
tail-bound index tracks that phase transition.

Run:  python3 demos/02_matching_phase_transition.py
"""

import nethom as nh
from nethom import reports

M = 500

graph = nh.matching_graph(M)
summary = nh.summarize(graph)
profile = nh.Profile((M, M))
cs = nh.covariance_structure(summary, profile)

mean = cs.mbar[0]
print(f"mean homophilic count per color: {mean} = {float(mean):.3f}")
print(f"mean per-edge fraction exactly:  {mean / M}")

# exact tails P(count >= k), all at once
tails = nh.matching_tail_table(M)

# the curve `nethom toy-curve --edges 500` writes: k, P(M < k), ratio, modularity, index a
csv, _ = reports.toy_curve(M)
rows = [[float(x) for x in line.split(",")] for line in csv.splitlines()[1:]]

print("\n  k    P(M < k)      ratio   modularity   index a")
for k in (0, 50, 100, 110, 120, 125, 130, 140, 141, 150, 200, 250):
    _, F, ratio, q, a = rows[k]
    print(f"{k:4d}   {F:11.4e}   {ratio:5.2f}   {q:9.2f}   {a:8.4f}")

lo, hi = 110, 140
print(f"\nP(M < {lo})  = {float(1 - tails[lo]):.4f}   (left tail: anti-homophily)")
print(f"P(M > {hi})  = {float(tails[hi + 1]):.4f}   (right tail: homophily)")
print("outcomes outside that window are extremely unlikely, yet the ratio and")
print("modularity columns move through it linearly, indifferent to the cliff.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ks, F, ratio, q, a = zip(*rows)
    fig, ax = plt.subplots(figsize=(8, 5))
    ax.plot(ks, F, label="P(M < k)", color="tab:red")
    ax.plot(ks, ratio, label="homophily ratio", color="black")
    ax.plot(ks, q, label="modularity", color="tab:blue")
    ax.plot(ks, a, label="index a", color="tab:green")
    ax.set_xlabel("k (homophilic edges per color)")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("matching_curves.png", dpi=120)
    print("\nwrote matching_curves.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
