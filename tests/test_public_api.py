"""Every public name, and every function the traced benchmark wraps, still exists;
the package namespace loads its names on first use."""

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
    assert obj.__module__ == f"nethom.{nh._EXPORTS[name]}"
    assert vars(importlib.import_module(obj.__module__))[name] is obj


def test_import_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, nethom; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
