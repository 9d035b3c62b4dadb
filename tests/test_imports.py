"""Every module-level import of a pipeflow module is used in it."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "pipeflow")
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def _unused_imports(source):
    """The names that module-level imports bind and the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_finds_an_unused_import():
    assert _unused_imports("import os\nimport numpy as np\nfrom a import b, c\n"
                           "np.zeros(c)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert _unused_imports(fh.read()) == []
