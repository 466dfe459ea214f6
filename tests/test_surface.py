"""The names the benchmark harness reads from the package must resolve, and
every name a source module imports must be read.

`benchmarks/tracing.LAYERS` patches each (module, name) where its caller
looks it up, and `benchmarks/workloads.py` reads `P.<name>` from the top
level.  Both files are parsed here, not imported or changed, so removing
such a name fails this suite as well as the benchmark's own tests.  The
import check parses each module under `src/prevision` with `ast`: an
imported name must be read in the module or listed in its `__all__`, unless
its import line carries `# noqa: F401`, which marks the names `LAYERS`
patches; every name on such a line must be one of `LAYERS`' (module, name)
pairs, so the mark cannot keep a dead import.  Since the package and the CLI
load their modules lazily, `LAYERS` is also replayed in a fresh interpreter,
to show that each traced call is still counted, and counted once.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import prevision

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SOURCE = Path(prevision.__file__).resolve().parent


def _tree(name):
    return ast.parse((BENCHMARKS / name).read_text(encoding="utf-8"))


def _assigned(tree, name):
    """The literal values a module assigns to `name` at its top level."""
    return [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == [name]
    ]


def test_every_traced_layer_resolves():
    (layers,) = _assigned(_tree("tracing.py"), "LAYERS")
    assert layers
    for module, name, _ in layers:
        assert hasattr(importlib.import_module(module), name), (module, name)


# LAYERS replayed as the tracer installs it: in order, through getattr and
# setattr, and only in modules already loaded; then one `check` through the CLI.
REPLAY = """
counts = {}
def counted(layer, fn):
    def call(*args, **kwargs):
        counts[layer] = counts.get(layer, 0) + 1
        return fn(*args, **kwargs)
    return call
for module, name, layer in ast.literal_eval(sys.argv[2]):
    if module in sys.modules:
        module = sys.modules[module]
        setattr(module, name, counted(layer, getattr(module, name)))
import prevision.cli
code = prevision.cli.main(["check", "--problem", sys.argv[3]])
print(code, sorted(counts.items()))
"""


@pytest.mark.parametrize(
    "setup",
    # as the cli workload's traced child, and as the in-process workloads,
    # whose setup reads one package name
    ["import prevision.cli", "import prevision; prevision.build_world_space"],
)
def test_traced_layers_count_each_call_once(tmp_path, setup):
    # A package that loaded one submodule per name read would leave
    # `prevision.coherence` unloaded, so unpatched, when its entries come up;
    # a cli that bound `check_coherence` after `coherence` was patched would
    # be wrapped twice and count each check twice.
    (layers,) = _assigned(_tree("tracing.py"), "LAYERS")
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "atoms": ["A", "H", "K"],
        "conditionals": [
            {"name": "X", "consequent": "A", "antecedent": "H"},
            {"name": "Y", "consequent": "A", "antecedent": "K"},
        ],
        "assessment": {"X": "7/20", "Y": "9/20"},
    }), encoding="utf-8")
    script = f"import ast, sys; sys.path.insert(0, sys.argv[1]); {setup}\n{REPLAY}"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script, str(SOURCE.parent), repr(layers), str(problem)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    code, counts = result.stdout.splitlines()[-1].split(" ", 1)
    counts = dict(ast.literal_eval(counts))
    assert code == "0"
    assert counts.get("coherence.check") == 1
    assert counts.get("geometry.build_sigma", 0) >= 1
    assert counts.get("lp.feasibility", 0) >= 1


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


def _imports(path):
    """(tree, [(name, line, marked)]) of a source module: each name it
    imports, leaving out `__future__`, marked when its import line carries
    `# noqa: F401`."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            found.append(((alias.asname or alias.name).partition(".")[0], node.lineno, marked))
    return tree, found


def _unread_imports(path):
    """The names a module imports but never reads, leaving out its `__all__`
    and the import lines marked `# noqa: F401`."""
    tree, found = _imports(path)
    imported = {name: line for name, line, marked in found if not marked}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set().union(*_assigned(tree, "__all__"))
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def test_every_import_is_read():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    unread = {path.name: _unread_imports(path) for path in modules}
    assert {name: found for name, found in unread.items() if found} == {}


def test_every_marked_import_is_a_traced_layer():
    (layers,) = _assigned(_tree("tracing.py"), "LAYERS")
    traced = {(module, name) for module, name, _ in layers}
    marked = set()
    for path in sorted(SOURCE.glob("*.py")):
        module = "prevision" if path.stem == "__init__" else f"prevision.{path.stem}"
        marked |= {(module, name) for name, _, mark in _imports(path)[1] if mark}
    assert marked
    assert marked - traced == set()
