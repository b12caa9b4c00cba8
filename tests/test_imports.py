"""Every name a ``flatlink`` module imports is used in that module.

No linter ships with the toolchain, so the check reads the source with
``ast``.  ``__init__`` is skipped: its imports are the package's exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "flatlink")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source, filename="<source>"):
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source, filename)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nos.sep, loads\n") == \
        ["dumps"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    path = os.path.join(SRC, module)
    with open(path, "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read(), path) == []
