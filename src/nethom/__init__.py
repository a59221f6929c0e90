"""nethom: network homophily quantification under the random coloring null model.

Given a simple undirected graph and a labeling of its vertices into classes,
the library treats the observed vector of within-class ("homophilic") edge
counts as a draw from the uniform distribution over all labelings with the
same class sizes. Exact closed-form moments of that distribution, its
rank-one-structured covariance matrix, and one-sided tail inequalities
combine into a family of homophily indices on a universal [-1, 1] scale,
validated against an exact enumeration oracle on small instances.

The public names are ``__version__`` and then the ``__all__`` of each
submodule in ``_SUBMODULES``, in that order. They load on first use
(PEP 562): ``import nethom`` imports no submodule, and so no numpy, until a
public name or ``__all__`` is read; then the submodules load in order and
bind their names here. Reading any other dunder name loads nothing.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("graphs", "colorings", "moments", "indices", "oracle")


def _load():
    names = ["__version__"]
    for sub in _SUBMODULES:
        module = importlib.import_module(f".{sub}", __name__)
        names += module.__all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
    globals()["__all__"] = names


def __getattr__(name):
    if name == "__all__" or not name.startswith("__"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load()
    return sorted(globals())
