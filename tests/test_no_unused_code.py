"""Every function, class and method of the package has a caller outside the tests.

The package's modules are parsed with `ast`.  Each module-level function and
class, and each method other than a dunder, must be named somewhere in the
package (its `__init__` re-exports aside), in the benchmark (`perfbench/`)
or in the tools (`tools/`): as a bare name (`f(...)`, a base class, a value
put in a table) or as an attribute (`module.f`, `self.f`).

The check is by name only.  It cannot see a method that shares its name
with a used one: a `DiscreteOperator.apply` that nothing calls would pass,
because `FluxStencil.apply` is called.  A definition that only names itself
(a recursive function) would pass as well.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "almpde"

# names kept without a caller in the program, each with its reason
EXEMPT = {
    "dump_space_slice": "writes the single-slice format of problem.y0_file and "
                        "problem.yd_file, for a user who makes such files",
    "load_boundary_field": "reads back the v_final.csv that `almpde run` dumps",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(qualified name, name) of every checked definition in the package."""
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        found.append((f"{path.stem}.{node.name}.{item.name}", item.name))
    return found


def _used_names():
    """Every bare name and attribute name in the package, benchmark and tools."""
    paths = [p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((_ROOT / "perfbench").rglob("*.py")) + sorted((_ROOT / "tools").rglob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_definition_is_used_outside_the_tests():
    used = _used_names()
    unused = [qualified for qualified, name in _definitions()
              if name not in used and name not in EXEMPT]
    assert not unused, f"defined but used only by tests, if at all: {unused}"


def test_every_exemption_is_still_needed():
    defined = {name for _, name in _definitions()}
    used = _used_names()
    assert all(name in defined and name not in used for name in EXEMPT)
