"""Every public name, and every function the traced benchmark wraps, still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import nethom as nh

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("name", nh.__all__)
def test_public_name_resolves(name):
    assert hasattr(nh, name)


@pytest.mark.parametrize("entry", _traced_functions())
def test_traced_function_resolves(entry):
    layer, func = entry.split(".")
    assert callable(getattr(importlib.import_module(f"nethom.{layer}"), func))
