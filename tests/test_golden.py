"""Outputs pinned across versions, byte for byte.

The files under ``tests/data/`` were written by nethom 0.1.0 before the
resampling engine existed, and record, for fixed seeds: a ``baseline``
report, the assignments ``random_coloring`` draws, and one ``mc_tail``
estimate. A change that alters the coloring of a seed or the rounding of an
index fails here, even where it is self-consistent.

The ``analyze`` report (JSON and TSV, both without the ``timing`` block,
which varies run to run) and the ``toy-curve --edges 40`` CSV were written
before the CLI's reports shared one header and one writer. ``oracle-check``
is not pinned: its ``sherman_morrison`` detail prints a rounding-level gap
that can differ between numpy builds.
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


def _analyze(tmp_path, fmt):
    out = tmp_path / f"analyze.{fmt}"
    code = main(["analyze", "--graph", str(DATA / "golden_graph.edges"),
                 "--coloring", str(DATA / "golden_coloring.tsv"),
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    return out.read_bytes().decode("utf-8")


def test_analyze_json_is_unchanged_outside_timing(tmp_path):
    report = json.loads(_analyze(tmp_path, "json"))
    assert set(report.pop("timing")) == {"parse_seconds", "compute_seconds"}
    got = json.dumps(report, indent=2) + "\n"
    assert got == (DATA / "golden_analyze.json").read_bytes().decode("utf-8")


def test_analyze_tsv_is_unchanged_outside_timing(tmp_path):
    lines = _analyze(tmp_path, "tsv").splitlines(keepends=True)
    assert [ln.split("\t")[0] for ln in lines[-2:]] == [
        "timing.parse_seconds", "timing.compute_seconds"]
    got = "".join(ln for ln in lines if not ln.startswith("timing."))
    assert got == (DATA / "golden_analyze.tsv").read_bytes().decode("utf-8")


def test_toy_curve_csv_is_unchanged(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["toy-curve", "--edges", "40", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_toy_curve.csv").read_bytes()


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
