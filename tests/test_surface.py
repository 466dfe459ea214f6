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

Code that only the tests call stays out of `src/`: every top-level function
and class of a source module, and every method of a class off the package's
`__all__`, must be referenced somewhere in `src/` outside its own body.

Inputs the engine cannot use are refused where they enter, with the library's
own error: an empty family, compound or assessment, events of two spaces, a
compound prevision keyed by a member that does not exist, and an LP objective
or index set that does not fit its system.
"""

import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import prevision
from prevision import lp
from prevision.errors import OutOfRange
from prevision.geometry import build_sigma

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


# In a fresh interpreter: an undocumented name read, then a star import.
SURFACE = """
import prevision
try:
    prevision.build_sigma
except AttributeError:
    loaded = sorted(m for m in sys.modules if m.startswith("prevision."))
names = {}
exec("from prevision import *", names)
bound = sorted(set(names) - {"__builtins__"})
foreign = [n for n in bound if getattr(sys.modules[names[n].__module__], n) is not names[n]]
print(loaded, bound == sorted(prevision.__all__), foreign)
"""


def test_star_import_binds_the_documented_surface_and_nothing_else():
    # the package binds each name of `__all__` from its home module, the same
    # object, and a name outside `__all__` fails before any module loads
    script = f"import sys; sys.path.insert(0, sys.argv[1])\n{SURFACE}"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script, str(SOURCE.parent)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[] True []"


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


def _references(node):
    """The names a subtree refers to, with their counts: each `ast.Name` id,
    `ast.Attribute` attr, import alias, and string constant (which covers
    `__all__` and the CLI's table of engine groups)."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found.update(filter(None, (child.name, child.asname)))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found[child.value] += 1
    return found


def _unreferenced_definitions(source):
    """The top-level functions and classes of the modules under `source`, and
    the methods of classes off `prevision.__all__`, that nothing in those
    modules refers to outside the definition itself; dunders are left out."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))]
    everywhere = sum(map(_references, trees), Counter())
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
            if isinstance(node, ast.ClassDef) and node.name not in prevision.__all__:
                definitions += [
                    (f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                ]
    unreferenced = []
    for qualified, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if everywhere[name] == _references(node)[name]:
            unreferenced.append(qualified)
    return unreferenced


def test_every_definition_is_referenced_in_the_source():
    assert _unreferenced_definitions(SOURCE) == []


def _one_member_system():
    space = prevision.build_world_space(["A", "B"])
    x = prevision.indicator(prevision.ConditionalEvent(space.event("A"), space.event("B")))
    return build_sigma(prevision.Assessment((x,), (Fraction(1, 2),)))


def _two_space_conjunction():
    first, second = (prevision.build_world_space(["A", "B"]) for _ in range(2))
    return first.event("A") & second.event("A")


def _two_events():
    space = prevision.build_world_space(["A", "B", "H"])
    return [prevision.ConditionalEvent(space.event(a), space.event("H")) for a in "AB"]


def _quantity_on_a(codes):
    # beside indicator(B|A), such codes failed deep in build_sigma or keyed_partition
    space = prevision.build_world_space(["A", "B"])
    return prevision.ConditionalQuantity(space.event("A"), (Fraction(1), Fraction(0)), codes)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: prevision.make_conjunction([], {}), ValueError, "family must be non-empty"),
        (lambda: _quantity_on_a(bytes([0, 5, 2, 2])), ValueError, "each 0..2, the void code"),
        (lambda: _quantity_on_a((0, -1, 2, 2)), ValueError, "each 0..2, the void code"),
        (lambda: _quantity_on_a(bytes([0, 1])), ValueError, "need 4 codes, one per world"),
        (lambda: prevision.Assessment((), ()), ValueError, "family must be non-empty"),
        (_two_space_conjunction, ValueError, "different world spaces"),
        (lambda: prevision.CompoundPrevisionMap({(0,): 1}), ValueError, "bad member subset"),
        # an x_S naming a member outside the family is refused, not dropped
        (
            lambda: prevision.make_conjunction(
                _two_events(), {(1,): "1/2", (2,): "1/3", (1, 2, 3): "1/5"}
            ),
            ValueError,
            "bad member subset",
        ),
        (
            lambda: prevision.make_disjunction(_two_events(), {(7,): "9/10"}),
            ValueError,
            "bad member subset",
        ),
        (lambda: prevision.lambda_solution_TL([]), OutOfRange, "at least one member"),
        (lambda: prevision.lambda_solution_TM([]), OutOfRange, "at least one member"),
        (
            lambda: lp.maximize_linear(_one_member_system(), [1]),
            ValueError,
            "objective length must match",
        ),
        (
            lambda: lp.maximize_component_sum(_one_member_system(), [2]),
            ValueError,
            "index out of range",
        ),
    ],
    ids=[
        "conjunction", "code-past-void", "tuple-code-below-0", "codes-short", "assessment",
        "spaces", "subset", "conjunction-subset",
        "disjunction-subset", "TL", "TM", "objective", "index",
    ],
)
def test_malformed_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
