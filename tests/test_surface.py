"""The names the benchmark harness reads from the package must resolve.

`benchmarks/tracing.LAYERS` patches each (module, name) where its caller
looks it up, and `benchmarks/workloads.py` reads `P.<name>` from the top
level.  Both files are parsed here, not imported or changed, so removing
such a name fails this suite as well as the benchmark's own tests.
"""

import ast
import importlib
from pathlib import Path

import prevision

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _tree(name):
    return ast.parse((BENCHMARKS / name).read_text(encoding="utf-8"))


def test_every_traced_layer_resolves():
    (layers,) = (
        ast.literal_eval(node.value)
        for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    assert layers
    for module, name, _ in layers:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_every_workload_name_is_exported():
    names = {
        node.attr
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "P"
    }
    assert names
    assert names <= set(prevision.__all__)
    for name in prevision.__all__:
        assert hasattr(prevision, name), name
