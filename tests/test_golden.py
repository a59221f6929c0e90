"""Outputs pinned across versions, byte for byte.

The files under ``tests/data/`` were written by nethom 0.1.0 before the
resampling engine existed, and record, for fixed seeds: a ``baseline``
report, the assignments ``random_coloring`` draws, and one ``mc_tail``
estimate. A change that alters the coloring of a seed or the rounding of an
index fails here, even where it is self-consistent.
"""

import json
from pathlib import Path

import nethom as nh
from nethom.cli import main

DATA = Path(__file__).resolve().parent / "data"


def test_baseline_report_is_unchanged(tmp_path):
    out = tmp_path / "baseline.json"
    code = main(["baseline", "--graph", str(DATA / "golden_graph.edges"),
                 "--coloring", str(DATA / "golden_coloring.tsv"),
                 "--samples", "20", "--seed", "7", "--preset", "all", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_baseline.json").read_bytes()


def test_random_coloring_draws_are_unchanged():
    cases = json.loads((DATA / "golden_random_coloring.json").read_text())
    assert len(cases) == 4
    for case in cases:
        f = nh.random_coloring(nh.Profile(tuple(case["profile"])), case["seed"])
        assert f.assignment.tolist() == case["assignment"]


def test_mc_tail_estimate_is_unchanged():
    want = json.loads((DATA / "golden_mc_tail.json").read_text())
    g = nh.Graph.from_edges(201, [(i, i + 1) for i in range(200)])
    est = nh.mc_tail(g, nh.Profile((67, 67, 67)), lambda o: sum(o), 70, side="ge",
                     samples=3000, seed=5)
    got = {"estimate": est.estimate, "half_width": est.half_width,
           "samples": est.samples, "seed": est.seed}
    assert got == want
