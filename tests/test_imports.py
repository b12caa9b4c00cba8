"""Every name a ``flatlink`` module or a test module imports is used in it,
and every module-level private function or class of ``flatlink`` is used
somewhere in ``flatlink``.

No linter ships with the toolchain, so the checks read the source with
``ast``.  ``__init__`` is skipped by the import check: its imports are the
package's exports.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src", "flatlink")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")
TEST_MODULES = sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))


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


def unreferenced_privates(sources):
    """Module-level ``_private`` functions and classes of {filename: source}
    that no name or attribute in any of the sources reads."""
    defined = set()
    used = set()
    for filename, source in sources.items():
        tree = ast.parse(source, filename)
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name.startswith("_") and not node.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nos.sep, loads\n") == \
        ["dumps"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    path = os.path.join(SRC, module)
    with open(path, "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read(), path) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_imports_in_tests(module):
    path = os.path.join(TESTS, module)
    with open(path, "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read(), path) == []


def test_the_check_finds_an_unreferenced_private_function():
    sources = {"a.py": "def _dense(a):\n    return a\n\ndef _kept():\n    pass\n",
               "b.py": "from .a import _kept\n_kept()\n"}
    assert unreferenced_privates(sources) == ["_dense"]


def test_every_private_function_and_class_is_referenced():
    sources = {}
    for name in os.listdir(SRC):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "r", encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert unreferenced_privates(sources) == []
