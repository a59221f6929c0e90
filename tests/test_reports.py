"""The report builders of ``nethom.reports``, called without the CLI.

Each builder's body, made JSON-safe as the CLI makes it, must be the
report ``main`` writes, outside the header and the timing; and each
command must report the first of several bad inputs in the same order.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import nethom as nh
from nethom import cli, reports
from nethom.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = (str(DATA / "golden_graph.edges"), str(DATA / "golden_coloring.tsv"))
P4_EDGES = "a b\nb c\nc d\n"
P4_COLORING = "a\tred\nb\tred\nc\tblue\nd\tblue\n"


@pytest.fixture
def p4(tmp_path):
    graph, coloring = tmp_path / "p4.edges", tmp_path / "p4.tsv"
    graph.write_text(P4_EDGES)
    coloring.write_text(P4_COLORING)
    return str(graph), str(coloring)


def _main_body(argv, capsys) -> str:
    """The JSON of ``main``'s report without its header and timing, key order kept."""
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("tool", "command", "seed", "timing"):
        report.pop(key, None)
    return json.dumps(report)


def _body(body: dict) -> str:
    return json.dumps(cli._jsonable(body))


@pytest.mark.parametrize("pair", ["golden", "p4"])
def test_analyze_body_is_the_report(pair, p4, capsys):
    graph, coloring = GOLDEN if pair == "golden" else p4
    body = reports.analyze(*reports.load_pair(graph, coloring))
    assert _body(body) == _main_body(["analyze", "--graph", graph, "--coloring", coloring], capsys)
    body = reports.analyze(*reports.load_pair(graph, coloring), preset="dyadicity")
    argv = ["analyze", "--graph", graph, "--coloring", coloring, "--preset", "dyadicity"]
    assert _body(body) == _main_body(argv, capsys)


def test_baseline_rows_are_the_one_row_reports_at_many_classes(tmp_path):
    """Each ``baseline`` row on 20 classes is, exactly, ``build_index_report`` of its seed's coloring.

    The golden coloring has at most 4 classes; from 8 on, numpy adds a row's
    values in another order than one by one, so an evaluation of all rows
    at once could change an index in its last bits.
    """
    rng = np.random.default_rng(1)
    n, s = 400, 20
    pairs = {tuple(sorted(pair)) for pair in rng.integers(0, n, (1600, 2)).tolist() if pair[0] != pair[1]}
    graph, coloring = tmp_path / "g.edges", tmp_path / "f.tsv"
    graph.write_text("".join(f"v {v}\n" for v in range(n)) + "".join(f"{u} {v}\n" for u, v in sorted(pairs)))
    classes = rng.permutation(np.arange(n) % s)
    coloring.write_text("".join(f"{v}\tc{k}\n" for v, k in enumerate(classes.tolist())))
    body = reports.baseline(str(graph), str(coloring), samples=12, seed=1)
    g, f = reports.load_pair(str(graph), str(coloring))
    assert f.s == s
    cs = nh.covariance_structure(nh.summarize(g), f.profile)
    for row in body["per_sample"]:
        sample = nh.random_coloring(f.profile, row["seed"])
        want = nh.build_index_report(g, sample, nh.homophilic_counts(g, sample), cs)
        assert (row["observed"], row["indices"]) == (want.observed, want.index_fields()), row["seed"]


@pytest.mark.parametrize("pair", ["golden", "p4"])
def test_baseline_body_is_the_report(pair, p4, capsys):
    graph, coloring = GOLDEN if pair == "golden" else p4
    body = reports.baseline(graph, coloring, samples=20, seed=7)
    argv = ["baseline", "--graph", graph, "--coloring", coloring, "--samples", "20", "--seed", "7"]
    assert _body(body) == _main_body(argv, capsys)


def test_oracle_check_body_is_the_report(p4, capsys):
    body = reports.oracle_check(p4[0], " 2, 2 ")
    assert body["instance"]["profile"] == (2, 2)
    assert _body(body) == _main_body(["oracle-check", "--graph", p4[0], "--profile", "2,2"], capsys)


@pytest.mark.parametrize("m", [2, 5, 40])
def test_toy_curve_text_is_the_report(m, capsys):
    text, notes = reports.toy_curve(m)
    assert main(["toy-curve", "--edges", str(m)]) == 0
    out = capsys.readouterr()
    assert out.out == text
    assert out.err == "".join(f"note: {note}\n" for note in notes)
    assert bool(notes) is bool(m % 2)


# argv (with {missing} a path that does not exist, {p4} the P4 edge list and
# {loop} an edge list whose first line is a self-loop), then the exit code and
# the stderr of the first error
PRECEDENCE = [
    (["baseline", "--graph", "{missing}", "--coloring", "{missing}", "--samples", "0"],
     2, "error: --samples must be >= 1\n"),
    (["baseline", "--graph", "{missing}", "--coloring", "{missing}", "--samples", "0", "--seed", "-1"],
     2, "error: --samples must be >= 1\n"),
    (["baseline", "--graph", "{missing}", "--coloring", "{missing}", "--seed", "-1"],
     2, "error: --seed must be >= 0\n"),
    (["baseline", "--graph", "{missing}", "--coloring", "{missing}"],
     2, "error: [Errno 2] No such file or directory: '{missing}'\n"),
    (["oracle-check", "--graph", "{missing}", "--profile", "2,2", "--limit", "-1"],
     2, "error: --limit must be >= 0\n"),
    (["oracle-check", "--graph", "{missing}", "--profile", "2,x", "--limit", "-1"],
     2, "error: --limit must be >= 0\n"),
    (["oracle-check", "--graph", "{missing}", "--profile", "2,x"],
     2, "error: [Errno 2] No such file or directory: '{missing}'\n"),
    (["oracle-check", "--graph", "{loop}", "--profile", "2,x"],
     2, "error: line 1: self-loop at vertex 'a'\n"),
    (["oracle-check", "--graph", "{p4}", "--profile", "2,x", "--limit", "0"],
     2, "error: --profile must be comma-separated sizes in digits 0-9, got 'x'\n"),
    (["oracle-check", "--graph", "{p4}", "--profile", "2,3", "--limit", "0"],
     2, "error: profile sums to 5 but the graph has 4 vertices\n"),
    (["oracle-check", "--graph", "{p4}", "--profile", "2,2", "--limit", "0"],
     3, "error: 6 colorings exceed the enumeration limit 0\n"),
    (["analyze", "--graph", "{missing}", "--coloring", "{missing}.tsv"],
     2, "error: [Errno 2] No such file or directory: '{missing}'\n"),
    (["analyze", "--graph", "{loop}", "--coloring", "{missing}.tsv"],
     2, "error: line 1: self-loop at vertex 'a'\n"),
    (["analyze", "--graph", "{p4}", "--coloring", "{missing}.tsv"],
     2, "error: [Errno 2] No such file or directory: '{missing}.tsv'\n"),
    (["toy-curve", "--edges", "1", "--out", "{missing}/curve.csv"],
     2, "error: --edges must be >= 2\n"),
]


@pytest.mark.parametrize("argv,code,err", PRECEDENCE, ids=[" ".join(argv) for argv, _, _ in PRECEDENCE])
def test_first_error_is_reported(tmp_path, capsys, argv, code, err):
    names = {"missing": str(tmp_path / "missing"), "p4": str(tmp_path / "p4.edges"), "loop": str(tmp_path / "loop.edges")}
    (tmp_path / "p4.edges").write_text(P4_EDGES)
    (tmp_path / "loop.edges").write_text("a a\nb c\n")
    assert main([a.format(**names) for a in argv]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err.format(**names))
