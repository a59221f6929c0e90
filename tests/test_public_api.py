"""Every public name, and every function the traced benchmark wraps, still exists;
the package namespace loads its names on first use."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nethom as nh

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "perfbench" / "trace.py"
SUBMODULES = [
    importlib.import_module(f"nethom.{name}")
    for name in ("graphs", "colorings", "moments", "indices", "oracle")
]


# The names each module imports from the private text layer, nethom._text: only the
# two loaders' modules read it, so a new reader or a new name is added here on purpose.
TEXT_IMPORTS = {
    "colorings": ["TextSource", "_CHUNK", "_load", "_token_coloring"],
    "graphs": ["TextSource", "_CHUNK", "_edge_at", "_load", "_token_edges"],
}


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("name", nh.__all__)
def test_public_name_resolves(name):
    assert hasattr(nh, name)


@pytest.mark.parametrize("name", nh.__all__[1:])
def test_public_name_is_the_object_its_submodule_defines(name):
    obj = getattr(nh, name)
    (module,) = [module for module in SUBMODULES if name in module.__all__]
    if hasattr(obj, "__module__"):  # a class or function, not a constant
        assert obj.__module__ == module.__name__
    assert vars(module)[name] is obj


def test_all_is_the_submodule_lists_in_order():
    assert nh.__all__ == ["__version__", *(name for module in SUBMODULES for name in module.__all__)]


def test_only_the_loaders_import_the_text_layer():
    found = {}
    for path in sorted((ROOT / "src" / "nethom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("_text", "nethom._text"):
                names = [alias.name for alias in node.names]  # from ._text import ...
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "nethom"):
                names = [alias.name for alias in node.names if alias.name == "_text"]  # from . import _text
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name == "nethom._text"]
            else:
                continue
            if names:
                found.setdefault(path.stem, []).extend(names)
    assert {module: sorted(names) for module, names in found.items()} == TEXT_IMPORTS


@pytest.mark.parametrize(
    "name,module", [("validate", "oracle"), ("REL_TOL", "moments"), ("PRESET_NAMES", "indices")]
)
def test_submodule_name_resolves_at_the_package(name, module):
    assert getattr(nh, name) is vars(importlib.import_module(f"nethom.{module}"))[name]


def _loads_numpy(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = f"import sys, nethom; {code}; sys.exit('numpy' in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_import_loads_no_numpy():
    assert not _loads_numpy("pass")


def test_version_and_dunder_probes_load_no_numpy():
    assert not _loads_numpy("nethom.__version__; assert not hasattr(nethom, '__wrapped__')")


def test_dir_covers_all():
    assert set(nh.__all__) <= set(dir(nh))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from nethom import *", namespace)
    assert all(name in namespace for name in nh.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nh.no_such_name


@pytest.mark.parametrize("entry", _traced_functions())
def test_traced_function_resolves(entry):
    layer, func = entry.split(".")
    assert callable(getattr(importlib.import_module(f"nethom.{layer}"), func))
