"""End-to-end CLI behavior: reports, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nethom as nh
from nethom import oracle, reports
from nethom.cli import main

P4_EDGES = "a b\nb c\nc d\n"
P4_COLORING = "a\tred\nb\tred\nc\tblue\nd\tblue\n"
K4_EDGES = "a b\na c\na d\nb c\nb d\nc d\n"
M2_EDGES = "a b\nc d\n"
M2_COLORING = "a\tr\nb\tr\nc\tb\nd\tb\n"

# every key the analyze report must expose, pinned (golden schema)
ANALYZE_FIELDS = {
    "tool.name",
    "tool.version",
    "command",
    "seed",
    "graph.n",
    "graph.m",
    "graph.density",
    "graph.delta1",
    "graph.delta2",
    "graph.dispersion",
    "graph.pi3",
    "graph.gamma",
    "profile.classes",
    "profile.sizes",
    "observed",
    "expected",
    "variance",
    "z",
    "indices.a",
    "indices.one_minus_a",
    "indices.one_minus_a_x1e6",
    "indices.r",
    "indices.one_minus_r",
    "indices.h",
    "indices.j_theta.ratio",
    "indices.j_theta.avg_internal_degree",
    "indices.j_theta.dyadicity",
    "indices.newman_q",
    "indices.descriptive_ratio",
    "degeneracy.degenerate",
    "degeneracy.active_classes",
    "degeneracy.notes",
    "timing.parse_seconds",
    "timing.compute_seconds",
}


def _flatten_keys(d, prefix=""):
    keys = set()
    for k, v in d.items():
        path = f"{prefix}{k}"
        if isinstance(v, dict):
            keys |= _flatten_keys(v, path + ".")
        else:
            keys.add(path)
    return keys


@pytest.fixture
def p4_files(tmp_path):
    graph = tmp_path / "p4.edges"
    coloring = tmp_path / "p4.tsv"
    graph.write_text(P4_EDGES)
    coloring.write_text(P4_COLORING)
    return str(graph), str(coloring)


class TestAnalyze:
    def test_p4_report_values(self, p4_files, capsys):
        code = main(["analyze", "--graph", p4_files[0], "--coloring", p4_files[1]])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["observed"] == [1, 1]
        assert report["indices"]["a"] == pytest.approx(0.6)
        assert report["indices"]["h"] == 0.0
        assert report["indices"]["descriptive_ratio"] == pytest.approx(2 / 3)
        assert report["indices"]["one_minus_a"] == pytest.approx(0.4)
        assert report["indices"]["one_minus_a_x1e6"] == pytest.approx(0.4e6)
        assert report["graph"]["gamma"] == pytest.approx(1 / 48)

    def test_golden_field_set(self, p4_files, capsys):
        main(["analyze", "--graph", p4_files[0], "--coloring", p4_files[1]])
        report = json.loads(capsys.readouterr().out)
        assert _flatten_keys(report) == ANALYZE_FIELDS

    def test_k4_degenerate_reports_undefined(self, tmp_path, capsys):
        graph = tmp_path / "k4.edges"
        coloring = tmp_path / "k4.tsv"
        graph.write_text(K4_EDGES)
        coloring.write_text(P4_COLORING)
        code = main(["analyze", "--graph", str(graph), "--coloring", str(coloring)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["indices"]["a"] == "undefined"
        assert report["indices"]["h"] == "undefined"
        assert report["degeneracy"]["degenerate"] is True
        assert any("degenerate" in n for n in report["degeneracy"]["notes"])

    def test_missing_coloring_entry_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        coloring = tmp_path / "c.tsv"
        graph.write_text(P4_EDGES)
        coloring.write_text("a\tred\nb\tred\nc\tblue\n")  # d missing
        code = main(["analyze", "--graph", str(graph), "--coloring", str(coloring)])
        assert code == 2
        assert "'d'" in capsys.readouterr().err

    def test_bad_graph_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        coloring = tmp_path / "c.tsv"
        graph.write_text("a a\n")
        coloring.write_text("a\tred\n")
        assert main(["analyze", "--graph", str(graph), "--coloring", str(coloring)]) == 2

    def test_byte_that_is_not_utf8_exits_2_naming_its_line(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        coloring = tmp_path / "c.tsv"
        graph.write_bytes(b"0 1\n1 2\n2 \xe9\n")
        coloring.write_text("0\tred\n")
        assert main(["analyze", "--graph", str(graph), "--coloring", str(coloring)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: byte 0xe9 is not UTF-8")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", "--graph", str(tmp_path / "nope"), "--coloring",
                     str(tmp_path / "nope2")]) == 2

    def test_out_file_and_tsv(self, p4_files, tmp_path):
        out = tmp_path / "report.tsv"
        code = main(["analyze", "--graph", p4_files[0], "--coloring", p4_files[1],
                     "--format", "tsv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        keys = {line.split("\t")[0] for line in lines}
        assert "indices.a" in keys
        assert "graph.gamma" in keys

    def test_dedupe_flag(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        coloring = tmp_path / "c.tsv"
        graph.write_text("a b\na b\nb c\nc d\n")
        coloring.write_text(P4_COLORING)
        assert main(["analyze", "--graph", str(graph), "--coloring", str(coloring)]) == 2
        capsys.readouterr()
        assert main(["analyze", "--graph", str(graph), "--coloring", str(coloring),
                     "--dedupe"]) == 0

    def test_preset_selection(self, p4_files, capsys):
        main(["analyze", "--graph", p4_files[0], "--coloring", p4_files[1],
              "--preset", "ratio"])
        report = json.loads(capsys.readouterr().out)
        assert list(report["indices"]["j_theta"]) == ["ratio"]

    def test_nu_flag_is_a_usage_error(self, p4_files, capsys):
        # j_theta ignores the scale of its weights, so there is no scale to choose
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--graph", p4_files[0], "--coloring", p4_files[1],
                  "--nu", "maxdeg"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: nethom ")
        assert "unrecognized arguments: --nu maxdeg" in err


class TestBaseline:
    def test_reports_are_byte_identical_for_fixed_seed(self, p4_files, tmp_path):
        out1 = tmp_path / "b1.json"
        out2 = tmp_path / "b2.json"
        args = ["baseline", "--graph", p4_files[0], "--coloring", p4_files[1],
                "--samples", "4", "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_default_sample_count_is_five(self, p4_files, capsys):
        main(["baseline", "--graph", p4_files[0], "--coloring", p4_files[1]])
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 5
        assert len(report["per_sample"]) == 5
        assert report["seeds"] == list(range(0, 5))

    def test_negative_seed_names_the_flag(self, p4_files, capsys):
        code = main(["baseline", "--graph", p4_files[0], "--coloring", p4_files[1],
                     "--seed", "-1"])
        assert code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_p3_mean_ratio_converges(self, tmp_path, capsys):
        graph = tmp_path / "p3.edges"
        coloring = tmp_path / "p3.tsv"
        graph.write_text("a b\nb c\n")
        coloring.write_text("a\tred\nb\tred\nc\tblue\n")
        main(["baseline", "--graph", str(graph), "--coloring", str(coloring),
              "--samples", "5000", "--seed", "0"])
        report = json.loads(capsys.readouterr().out)
        # E[homophilic total] = 2/3 over m = 2 edges
        assert abs(report["means"]["descriptive_ratio"] - 1 / 3) < 0.01

    def test_k4_every_sample_identical(self, tmp_path, capsys):
        graph = tmp_path / "k4.edges"
        coloring = tmp_path / "k4.tsv"
        graph.write_text(K4_EDGES)
        coloring.write_text(P4_COLORING)
        main(["baseline", "--graph", str(graph), "--coloring", str(coloring),
              "--samples", "6", "--seed", "3"])
        report = json.loads(capsys.readouterr().out)
        outcomes = {tuple(row["observed"]) for row in report["per_sample"]}
        assert outcomes == {(1, 1)}


class TestOracleCheck:
    def test_p4_all_pass(self, p4_files, capsys):
        code = main(["oracle-check", "--graph", p4_files[0], "--profile", "2,2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses == {
            "moments": "PASS",
            "cantelli_index_a": "PASS",
            "cantelli_index_r": "PASS",
            "chebyshev_index_h": "PASS",
            "sign_structure": "PASS",
            "sherman_morrison": "PASS",
        }

    def test_disjoint_edges_skips_inverse_checks(self, tmp_path, capsys):
        graph = tmp_path / "m2.edges"
        graph.write_text(M2_EDGES)
        code = main(["oracle-check", "--graph", str(graph), "--profile", "2,2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["moments"] == "PASS"
        # the structure withholds the inverse, and the enumerated covariance has none
        assert statuses["sherman_morrison"] == "PASS"
        assert statuses["chebyshev_index_h"] == "SKIPPED"

    # Every SKIPPED branch and the zero-entry rule of sign_structure. Statuses
    # in check order: moments, cantelli_index_a, cantelli_index_r,
    # chebyshev_index_h, sign_structure, sherman_morrison.
    @pytest.mark.parametrize(
        "edges,profile,statuses",
        [
            ("v a\n", "1", "PSPSSS"),  # single vertex
            ("v a\nv b\nv c\nv d\n", "2,2", "PSPSPS"),  # edgeless: gamma = 0, zero covariances
            ("v a\nv b\nv c\nv d\n", "4", "PSPSSS"),
            (P4_EDGES, "4", "PSPSSS"),  # one class
            ("a b\nb c\n", "1,2", "PPPPPP"),  # n < 4: gamma = -(m / n^(2))^2
            ("a b\nb c\n", "1,1,1", "PSPSPS"),
            (K4_EDGES, "2,2", "PSPSPS"),  # constant counts
            ("a b\nb c\nc d\nd a\n", "1,1,1,1", "PSPSPS"),  # C4, singleton classes
        ],
    )
    def test_degenerate_instances(self, tmp_path, capsys, edges, profile, statuses):
        graph = tmp_path / "g.edges"
        graph.write_text(edges)
        assert main(["oracle-check", "--graph", str(graph), "--profile", profile]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert "".join(c["status"][0] for c in checks) == statuses

    # The prism C6 x K2: 12 vertices, 3-regular, gamma > 0. A class of more
    # than 6 has q = var - gamma * vec**2 < 0, which Sherman-Morrison inverts
    # as it does q > 0; a class of exactly 6 has q = 0, which the structure
    # solves on its own. For two classes on a regular graph M_1 - M_2 is
    # constant, so that covariance is singular and h stays withheld.
    @pytest.mark.parametrize(
        "sizes, h",
        [((7, 3, 2), 0.4528), ((6, 3, 3), 0.5460), ((6, 4, 2), 0.5122), ((8, 4), None), ((6, 6), None)],
        ids=["7,3,2", "6,3,3", "6,4,2", "8,4", "6,6"],
    )
    def test_prism_withholds_h_only_on_a_singular_covariance(self, tmp_path, capsys, sizes, h):
        edges = "".join(f"{i} {(i + 1) % 6}\n{i + 6} {(i + 1) % 6 + 6}\n{i} {i + 6}\n" for i in range(6))
        classes = [c for c, size in enumerate(sizes) for _ in range(size)]
        graph, coloring = tmp_path / "prism.edges", tmp_path / "prism.tsv"
        graph.write_text(edges)
        coloring.write_text("".join(f"{v}\tc{c}\n" for v, c in enumerate(classes)))
        g = nh.load_edge_list(edges)
        cs = nh.covariance_structure(nh.summarize(g), nh.Profile(sizes))
        degenerate = h is None
        assert (g.n, g.m, cs.gamma > 0, min(cs.q) <= 0) == (12, 18, True, True)
        assert (oracle._inverse(cs.exact()) is None) is degenerate
        assert main(["analyze", "--graph", str(graph), "--coloring", str(coloring)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degeneracy"]["degenerate"] is degenerate
        if degenerate:
            assert report["indices"]["h"] == "undefined"
        else:
            assert report["indices"]["h"] == pytest.approx(h, abs=5e-5)
        profile = ",".join(map(str, sizes))
        assert main(["oracle-check", "--graph", str(graph), "--profile", profile]) == 0
        statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert statuses["chebyshev_index_h"] == ("SKIPPED" if degenerate else "PASS")
        assert statuses["sherman_morrison"] == "PASS"
        assert set(statuses.values()) <= {"PASS", "SKIPPED"}

    def test_empty_graph_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "empty.edges"
        graph.write_text("")
        assert main(["oracle-check", "--graph", str(graph), "--profile", "1"]) == 2
        assert "profile sums to 1 but the graph has 0 vertices" in capsys.readouterr().err

    def test_random_n8_within_a_second(self, tmp_path, capsys):
        import time

        import numpy as np

        rng = np.random.default_rng(8)
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.4]
        graph = tmp_path / "r8.edges"
        graph.write_text("".join(f"{u} {v}\n" for u, v in edges) +
                         "".join(f"v {i}\n" for i in range(8)))
        t0 = time.perf_counter()
        code = main(["oracle-check", "--graph", str(graph), "--profile", "4,4"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["status"] != "FAIL" for c in report["checks"])
        assert elapsed < 1.0

    def test_limit_exceeded_exits_3(self, p4_files, capsys):
        code = main(["oracle-check", "--graph", p4_files[0], "--profile", "2,2",
                     "--limit", "2"])
        assert code == 3
        assert "exceed" in capsys.readouterr().err

    def test_count_too_long_to_print_exits_3(self, tmp_path, capsys):
        # 2000 singleton classes: 2000! colorings, 5736 digits, too many for str()
        graph = tmp_path / "path2000.edges"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(1999)))
        code = main(["oracle-check", "--graph", str(graph), "--profile", ",".join(["1"] * 2000)])
        assert code == 3
        assert "exceed" in capsys.readouterr().err

    def test_profile_mismatch_exits_2(self, p4_files, capsys):
        assert main(["oracle-check", "--graph", p4_files[0], "--profile", "2,3"]) == 2
        assert "profile sums to 5 but the graph has 4 vertices" in capsys.readouterr().err

    def test_non_integer_profile_names_the_flag(self, p4_files, capsys):
        assert main(["oracle-check", "--graph", p4_files[0], "--profile", "2,x"]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err and "'x'" in err

    @pytest.mark.parametrize("profile", ["2,,2", ",2,2,", "2,2,", ","])
    def test_empty_profile_token_names_the_flag(self, p4_files, capsys, profile):
        assert main(["oracle-check", "--graph", p4_files[0], "--profile", profile]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err and "''" in err

    @pytest.mark.parametrize(
        "profile,token", [("2_2", "2_2"), ("+2,2", "+2"), ("\u0662,2", "\u0662"), ("-2,6", "-2")]
    )
    def test_profile_sizes_are_ascii_digits(self, p4_files, capsys, profile, token):
        assert main(["oracle-check", "--graph", p4_files[0], f"--profile={profile}"]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err and repr(token) in err

    def test_blanks_around_profile_sizes_are_allowed(self, p4_files, capsys):
        assert main(["oracle-check", "--graph", p4_files[0], "--profile", " 2, 2 "]) == 0
        assert json.loads(capsys.readouterr().out)["instance"]["profile"] == [2, 2]

    @pytest.mark.parametrize(
        "limit,code,message",
        [("-1", 2, "--limit must be >= 0"), ("0", 3, "6 colorings exceed the enumeration limit 0")],
    )
    def test_limit_must_be_nonnegative(self, p4_files, capsys, limit, code, message):
        assert main(["oracle-check", "--graph", p4_files[0], "--profile", "2,2", "--limit", limit]) == code
        assert message in capsys.readouterr().err

    def test_failed_check_exits_1(self, p4_files, monkeypatch, capsys):
        failed = [{"name": "moments", "status": "FAIL", "detail": "forced"}]
        monkeypatch.setattr(reports, "validate", lambda *args: failed)
        assert main(["oracle-check", "--graph", p4_files[0], "--profile", "2,2"]) == 1
        assert json.loads(capsys.readouterr().out)["checks"] == failed


class TestToyCurve:
    def test_m2_rows(self, capsys):
        code = main(["toy-curve", "--edges", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,F,ratio,modularity,index_a"
        row0 = lines[1].split(",")
        row1 = lines[2].split(",")
        assert float(row0[1]) == 0.0
        assert float(row1[1]) == pytest.approx(2 / 3)

    def test_modularity_column_is_the_line(self, capsys):
        # each cell is its exact value correctly rounded: (8k - 2m) / 4m and 2k / m
        for m in range(2, 121):
            assert main(["toy-curve", "--edges", str(m)]) == 0
            lines = capsys.readouterr().out.strip().split("\n")[1:]
            for line in lines:
                k, _, ratio, q, _ = line.split(",")
                k = int(k)
                assert float(q) == float(Fraction(8 * k - 2 * m, 4 * m))
                assert float(ratio) == float(Fraction(2 * k, m))
        # q crosses zero exactly at k = m/4
        main(["toy-curve", "--edges", "8"])
        assert float(capsys.readouterr().out.split("\n")[3].split(",")[3]) == 0.0

    def test_csv_written_with_lf_endings(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["toy-curve", "--edges", "6", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode().startswith("k,F,ratio,modularity,index_a\n")

    def test_odd_edge_count_supported(self, capsys):
        assert main(["toy-curve", "--edges", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 5 // 2 + 1  # header + k = 0..2

    def test_rejects_tiny_m(self, capsys):
        assert main(["toy-curve", "--edges", "1"]) == 2


class TestVersionEmbedding:
    def test_reports_carry_tool_version(self, p4_files, capsys):
        main(["analyze", "--graph", p4_files[0], "--coloring", p4_files[1]])
        report = json.loads(capsys.readouterr().out)
        assert report["tool"]["version"] == nh.__version__


SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"


def _run_python(args, threads):
    """``python ARGS`` in a fresh interpreter on this checkout's sources, with
    OPENBLAS_NUM_THREADS set to ``threads`` or, for None, removed."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestEntryPoint:
    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        # more than 10,000 classes: OpenBLAS splits a dot product that long over its threads,
        # so the CLI's floats would follow the host's core count unless it runs one thread
        n = 20_004
        pairs = np.random.default_rng(1).integers(0, n, size=(30_000, 2))
        pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        graph = tmp_path / "g.edges"
        coloring = tmp_path / "c.tsv"
        graph.write_text("".join(f"v {i}\n" for i in range(n))
                         + "".join(f"{u} {v}\n" for u, v in pairs.tolist()))
        coloring.write_text("".join(f"{i}\t{i // 2}\n" for i in range(n)))
        argv = ["-m", "nethom", "analyze", "--graph", str(graph), "--coloring", str(coloring),
                "--format", "tsv"]
        reports = []
        for threads in (None, "1"):
            proc = _run_python(argv, threads)
            assert proc.returncode == 0, proc.stderr[-2000:]
            reports.append([line for line in proc.stdout.splitlines()
                            if not line.startswith("timing.")])
        assert f"profile.sizes\t{json.dumps([2] * (n // 2))}" in reports[0]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
    def test_main_module_sets_one_blas_thread_unless_the_user_did(self, preset, want):
        code = "import os, nethom.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = _run_python(["-c", code], preset)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == want + "\n"

    def test_python_m_nethom_version(self):
        proc = _run_python(["-m", "nethom", "--version"], None)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == f"nethom {nh.__version__}\n"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["toy-curve", "--edges", "4", "--out", os.devnull], "0"),
            (["toy-curve", "--edges", "1"], "2"),
            (["oracle-check", "--graph", str(DATA / "golden_graph.edges"), "--profile", "15,15",
              "--limit", "1"], "3"),
            (["--version"], "SystemExit(0)"),
            (["no-such-command"], "SystemExit(2)"),
        ],
        ids=["exit-0", "exit-2", "exit-3", "version", "usage-error"],
    )
    def test_main_returns_the_cli_code_then_freezes_the_collector(self, argv, want):
        # a fresh interpreter, so that the test process itself is never frozen
        code = (
            "import gc, sys\n"
            "from nethom import cli, __main__ as entry\n"
            "def run(main):\n"
            "    try:\n"
            "        return str(main(sys.argv[1:]))\n"
            "    except SystemExit as exc:\n"
            "        return f'SystemExit({exc.code})'\n"
            "library = run(cli.main)\n"
            "frozen_by_library = gc.get_freeze_count()\n"
            "entry_point = run(entry.main)\n"
            "print(library, frozen_by_library, entry_point, gc.get_freeze_count() > 0)\n"
        )
        proc = _run_python(["-c", code, *argv], None)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == f"{want} 0 {want} True"

    def test_atexit_handlers_run_after_the_report(self, capsys):
        assert main(["toy-curve", "--edges", "4"]) == 0
        report = capsys.readouterr().out
        code = (
            "import atexit, sys\n"
            "from nethom.__main__ import main\n"
            "atexit.register(print, 'atexit handler ran')\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = _run_python(["-c", code, "toy-curve", "--edges", "4"], None)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == report + "atexit handler ran\n"

    def test_piped_report_matches_out_file(self, tmp_path):
        argv = ["-m", "nethom", "analyze", "--graph", str(DATA / "golden_graph.edges"),
                "--coloring", str(DATA / "golden_coloring.tsv"), "--format", "tsv"]
        out = tmp_path / "report.tsv"
        piped = _run_python(argv, None)
        written = _run_python([*argv, "--out", str(out)], None)
        assert piped.returncode == written.returncode == 0, piped.stderr + written.stderr
        assert written.stdout == ""

        def without_timing(text):
            return [line for line in text.splitlines(True) if not line.startswith("timing.")]

        assert without_timing(piped.stdout) == without_timing(out.read_text(encoding="utf-8"))
        golden = (DATA / "golden_analyze.tsv").read_text(encoding="utf-8")
        assert without_timing(piped.stdout) == golden.splitlines(True)
