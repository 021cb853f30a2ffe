"""The names the benchmark tracer wraps or counts must exist in fibpoly.

``perfbench/tracing.py`` names fibpoly functions and methods as strings;
a renamed or deleted one would silently drop its span or counter from
``--trace 1``.  The module is only imported here, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
NAMES = sorted(
    set(_tracing.COUNTERS)
    | {f"{module}.{path}" for module, paths in _tracing.METHODS.items() for path in paths}
)


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_exists(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"fibpoly.{module_name}")
    obj = module
    for attr in path:
        obj = getattr(obj, attr)
    assert inspect.isfunction(obj)
    if len(path) == 1:
        # the tracer wraps only public functions defined in the module itself
        assert obj.__module__ == module.__name__
        assert not path[0].startswith("_")
