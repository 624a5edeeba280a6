"""Every function, class and method of the package has a caller outside the
tests, and every default of theirs is overridden by one.

The package's modules are parsed with `ast`.  Each module-level function and
class, and each method other than a dunder, must be named somewhere in the
package (its `__init__` re-exports aside), in the benchmark (`perfbench/`)
or in the tools (`tools/`): as a bare name (`f(...)`, a base class, a value
put in a table) or as an attribute (`module.f`, `self.f`).

Each parameter with a default, of a module-level function or of a method
(`__init__` standing for its class), must be passed in such a call there:
by keyword, or by position past the parameters without a default.  A
default no caller overrides is a constant with a parameter's name.  The
module `oracles` is skipped here: the tests set the tuning parameters of
its reference routes, and nothing else calls them.

The checks are by name only.  They cannot see a method that shares its
name with a used one: a `DiscreteOperator.apply` that nothing calls would
pass, because `FluxStencil.apply` is called; likewise a parameter passed
to a namesake.  A definition that only names itself (a recursive function)
would pass as well.
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

# defaulted parameters kept without a caller that passes them, each with its
# reason
EXEMPT_PARAMETERS = {
    "cli.main.argv": "the console script calls main() and takes sys.argv; "
                     "an embedding program passes its own argument list",
}
# modules whose defaulted parameters are not checked
PARAMETERS_SKIPPED = {"oracles"}


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


def _program_paths():
    paths = [p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return paths + sorted((_ROOT / "perfbench").rglob("*.py")) + sorted((_ROOT / "tools").rglob("*.py"))


def _used_names():
    """Every bare name and attribute name in the package, benchmark and tools."""
    used = set()
    for path in _program_paths():
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


def _defaulted_parameters():
    """(qualified name, called name, position, name) of every checked
    parameter with a default.  The called name is the function's, or the
    class's for `__init__`; position is the parameter's index among a
    call's positional arguments, None for a keyword-only one."""
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem in PARAMETERS_SKIPPED:
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += _defaults(f"{path.stem}.{node.name}", node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        called = node.name if item.name == "__init__" else item.name
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        found += _defaults(f"{path.stem}.{node.name}.{item.name}", called,
                                           item, 0 if static else 1)
    return found


def _defaults(qualified, called, fn, bound):
    """The defaulted parameters of fn, whose first `bound` parameters
    (self, cls) a call does not pass."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(f"{qualified}.{a.arg}", called, i - bound, a.arg)
             for i, a in enumerate(positional) if i >= first]
            + [(f"{qualified}.{a.arg}", called, None, a.arg)
               for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _unpassed():
    """The defaulted parameters that no call in the package, benchmark or
    tools passes, by keyword or by position, to a function of their name."""
    keywords, most = set(), {}
    for path in _program_paths():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                keywords.update((called, k.arg) for k in node.keywords)
                most[called] = max(most.get(called, 0), len(node.args))
    return [qualified for qualified, called, position, name in _defaulted_parameters()
            if (called, name) not in keywords
            and (position is None or most.get(called, 0) <= position)]


def test_every_default_is_overridden_outside_the_tests():
    unpassed = [name for name in _unpassed() if name not in EXEMPT_PARAMETERS]
    assert not unpassed, f"defaulted parameters no program call passes: {unpassed}"


def test_every_parameter_exemption_is_still_needed():
    unpassed = _unpassed()
    assert all(name in unpassed for name in EXEMPT_PARAMETERS)
