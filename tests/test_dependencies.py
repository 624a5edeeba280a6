"""numpy is the package's one runtime dependency.

The imports of `src/almpde/*.py` are read with `ast`: every imported top-level
module that is neither in the standard library nor the package itself must
be declared in `pyproject.toml`'s `[project] dependencies`, and every declared
package must be imported.  A subprocess then checks that the dense oracle,
which takes A whole and solves with it densely, loads no scipy module.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _imported_packages():
    """Top-level modules the package imports, less the stdlib and itself."""
    names = set()
    for path in (_ROOT / "src" / "almpde").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"almpde"}


def _declared_packages():
    """The distribution names in `[project] dependencies`, without versions."""
    text = (_ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the one list of quoted strings
        block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
        specs = re.findall(r'"([^"]+)"', block)
    else:
        specs = tomllib.loads(text)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", s).group(0) for s in specs}


def test_declared_dependencies_are_the_imported_ones():
    assert _imported_packages() == _declared_packages() == {"numpy"}


def test_the_oracles_run_without_scipy():
    # the dense oracle takes A whole (`DiscreteOperator.matrix`) and inverts
    # M + dt A with numpy, so importing the package, its command line and
    # its oracles and running the dense oracle loads no scipy module
    code = ("import sys\n"
            "import almpde\n"
            "import almpde.cli\n"
            "from almpde.oracles import run_checks\n"
            "[report] = run_checks(['msa_vs_gradient_oracle'])\n"
            "assert report.passed\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
