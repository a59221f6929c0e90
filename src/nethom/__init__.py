"""nethom: network homophily quantification under the random coloring null model.

Given a simple undirected graph and a labeling of its vertices into classes,
the library treats the observed vector of within-class ("homophilic") edge
counts as a draw from the uniform distribution over all labelings with the
same class sizes. Exact closed-form moments of that distribution, its
rank-one-structured covariance matrix, and one-sided tail inequalities
combine into a family of homophily indices on a universal [-1, 1] scale,
validated against an exact enumeration oracle on small instances.

Public names load on first use (PEP 562): ``import nethom`` imports no
submodule, and so no numpy, until one of the names in ``__all__`` is read.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Graph", "GraphSummary", "EdgeListError", "SelfLoopError", "DuplicateEdgeError",
        "MalformedLineError", "load_edge_list", "summarize", "gamma_invariant",
        "dispersion_margin",
    ), "graphs"),
    **dict.fromkeys((
        "Profile", "Coloring", "ObservedOutcome", "ColoringError", "MissingVertexError",
        "UnknownVertexError", "DuplicateVertexError", "falling_factorial", "load_coloring",
        "homophilic_counts", "random_coloring", "sample_counts",
    ), "colorings"),
    **dict.fromkeys((
        "MomentSummary", "CovarianceStructure", "moment_summary", "covariance_exact",
        "covariance_structure",
    ), "moments"),
    **dict.fromkeys((
        "WeightVector", "IndexReport", "IndexEvaluator", "UndefinedQuantityError", "z_scores",
        "index_a", "index_r", "index_h", "index_j_theta", "weight_preset", "newman_modularity",
        "descriptive_ratio", "build_index_report",
    ), "indices"),
    **dict.fromkeys((
        "ExactDistribution", "TailEstimate", "TreeGammaReport", "EnumerationLimitError",
        "enumerate_colorings", "exact_moments", "exact_tail", "mc_tail", "matching_graph",
        "matching_tail_table", "tree_gamma_scan",
    ), "oracle"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
