"""The library names that the benchmark's tracer wraps all exist.

``perfbench/tracer.py`` lists in ``LAYERS`` the functions of each
``censor_lab`` module that ``Tracer.install`` wraps by ``getattr``.  A
name missing from the library would crash every traced benchmark run, so
the list is read from the tracer's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no LAYERS")


def test_every_traced_function_exists():
    layers = _layers()
    missing = [f"censor_lab.{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"censor_lab.{module}"),
                                       name, None))]
    assert layers and not missing
