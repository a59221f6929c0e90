"""The report body of every CLI command, built from the library's own values.

Each builder checks its arguments first, with the messages the CLI prints,
then reads its files and returns the command's fields in report order, None
where a value is undefined; ``nethom.cli`` adds the header and timing.
"""

from __future__ import annotations

from .colorings import Coloring, ObservedOutcome, Profile, homophilic_counts, load_coloring, sample_counts
from .graphs import Graph, GraphSummary, load_edge_list, summarize
from .indices import PRESET_NAMES, IndexEvaluator, _mean_indices, _modularity, build_index_report, z_scores
from .indices import descriptive_ratio, index_a
from .moments import CovarianceStructure, covariance_structure
from .oracle import DEFAULT_ENUMERATION_LIMIT, enumerate_colorings, matching_graph, matching_tail_table, validate

__all__ = ["PRESET_FLAGS", "load_pair", "analyze", "baseline", "oracle_check", "toy_curve"]

# --preset value -> the score presets it selects
PRESET_FLAGS = {"ratio": ("ratio",), "avgdeg": ("avg_internal_degree",), "dyadicity": ("dyadicity",),
                "all": PRESET_NAMES}


def load_pair(graph_path: str, coloring_path: str, dedupe: bool = False) -> tuple[Graph, Coloring]:
    """Read an edge-list file, then a coloring file of its vertices."""
    with open(graph_path, "rb") as fh:
        graph = load_edge_list(fh, dedupe=dedupe)
    with open(coloring_path, "rb") as fh:
        coloring = load_coloring(fh, graph)
    return graph, coloring


def _graph_block(s: GraphSummary, cs: CovarianceStructure) -> dict:
    return {"n": s.n, "m": s.m, "density": s.rho, "delta1": s.delta1, "delta2": s.delta2,
            "dispersion": s.upsilon, "pi3": s.pi3, "gamma": float(cs.gamma)}


def _profile_block(coloring: Coloring) -> dict:
    return {"classes": coloring.class_labels, "sizes": coloring.profile.sizes}


def analyze(graph: Graph, coloring: Coloring, preset: str = "all") -> dict:
    """The ``analyze`` report: graph, profile, moments, z-scores, indices and degeneracy."""
    summary = summarize(graph)
    cs = covariance_structure(summary, coloring.profile)
    outcome = homophilic_counts(graph, coloring)
    report = build_index_report(graph, coloring, outcome, cs, presets=PRESET_FLAGS[preset])
    return {
        "graph": _graph_block(summary, cs),
        "profile": _profile_block(coloring),
        "observed": report.observed,
        "expected": report.mbar,
        "variance": cs.var_f.tolist(),
        "z": report.z,
        "indices": report.index_fields(),
        "degeneracy": {
            "degenerate": cs.degenerate,
            "active_classes": [coloring.class_labels[i] for i in cs.active],
            "notes": report.notes,
        },
    }


def baseline(graph_path: str, coloring_path: str, samples: int = 5, seed: int = 0, preset: str = "all",
             dedupe: bool = False) -> dict:
    """The ``baseline`` report: the indices on the colorings of seeds ``seed`` to ``seed + samples - 1``."""
    if samples < 1:
        raise ValueError("--samples must be >= 1")
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    graph, coloring = load_pair(graph_path, coloring_path, dedupe)
    profile = coloring.profile
    cs = covariance_structure(summarize(graph), profile)
    seeds = list(range(seed, seed + samples))
    evaluator = IndexEvaluator(graph, profile, cs, coloring.class_labels, presets=PRESET_FLAGS[preset])
    counts, mass = sample_counts(graph, profile, seeds)
    reports = [evaluator.report(row, row_mass) for row, row_mass in zip(counts.tolist(), mass.tolist())]
    return {
        "seeds": seeds,
        "samples": samples,
        "profile": _profile_block(coloring),
        "observed_input": homophilic_counts(graph, coloring).counts,
        "per_sample": [
            {"seed": k, "observed": r.observed, "indices": r.index_fields()} for k, r in zip(seeds, reports)
        ],
        "means": _mean_indices(reports),
    }


def oracle_check(graph_path: str, profile: str, limit: int = DEFAULT_ENUMERATION_LIMIT,
                 dedupe: bool = False) -> dict:
    """The ``oracle-check`` report: every :func:`~nethom.oracle.validate` check of one instance.

    ``profile`` holds the class sizes as the flag does; it is parsed after the graph is read.
    """
    if limit < 0:
        raise ValueError("--limit must be >= 0")
    with open(graph_path, "rb") as fh:
        graph = load_edge_list(fh, dedupe=dedupe)
    sizes = []
    for tok in map(str.strip, profile.split(",")):  # blanks around a size are allowed
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"--profile must be comma-separated sizes in digits 0-9, got {tok!r}")
        sizes.append(int(tok))
    p = Profile(tuple(sizes))
    dist = enumerate_colorings(graph, p, limit=limit)
    summary = summarize(graph)
    cs = covariance_structure(summary, p)
    return {
        "instance": {"graph": _graph_block(summary, cs), "profile": p.sizes, "colorings": dist.total},
        "checks": validate(dist, cs),
    }


def toy_curve(m: int) -> tuple[str, tuple[str, ...]]:
    """The ``toy-curve`` CSV on m disjoint edges and its notes: for k = 0..floor(m/2), the outcome
    (k, k) of profile (m, m), its exact F = P(M_1 < k) and its ratio, modularity and index a."""
    if m < 2:
        raise ValueError("--edges must be >= 2")
    notes = (f"odd edge count {m}: support capped at floor(m/2)",) if m % 2 else ()
    cs = covariance_structure(summarize(matching_graph(m)), Profile((m, m)))
    tails = matching_tail_table(m)
    lines = ["k,F,ratio,modularity,index_a"]
    for k in range(m // 2 + 1):
        o = ObservedOutcome((k, k))
        row = (k, float(1 - tails[k]), descriptive_ratio(o, m), _modularity(2 * k, (m, m), m),
               index_a(z_scores(o, cs), cs))
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n", notes
