"""Every name a ``flatlink`` module or a test module imports is used in it,
every module-level private function or class of ``flatlink`` is used
somewhere in ``flatlink``, each command loads only the modules it runs,
and every lazy package export resolves.

No linter ships with the toolchain, so the checks read the source with
``ast``.  ``__init__`` imports no export, so the import check covers it
too.  The modules a command loads are read from ``sys.modules`` in a fresh
interpreter after ``cli.main`` returns.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import flatlink

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src", "flatlink")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
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


def _loaded_modules(code, *args):
    """The ``flatlink`` modules in ``sys.modules`` after ``code`` runs in a
    fresh interpreter; ``code`` sees ``args`` as ``sys.argv[1:]``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.abspath(SRC)), env.get("PYTHONPATH")]))
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'flatlink')))")
    proc = subprocess.run([sys.executable, "-c", code] + list(args), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert _loaded_modules("import flatlink") == ["flatlink"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["--version"], 0, []),
    (["verify"], 2, []),
    (["davis", "{c4}", "-n", "1"], 0, ["complexes", "coxeter"]),
    (["pk", "{c4}", "--homology"], 0, ["complexes", "cubes", "homology"]),
    (["verify", "{c4}"], 1, ["complexes", "homology"]),
    (["obstruct", "{c4}"], 1, ["complexes", "homology", "links"]),
    (["lk", "simplicial", "{c4}", "{link}"], 1, ["complexes", "homology", "links"]),
    (["lk", "diagram", "{diagram}"], 0, ["complexes", "homology", "links"]),
    (["fixture", "c4"], 0, ["complexes", "fixtures"]),
], ids=["--version", "usage error", "davis", "pk --homology", "verify", "obstruct", "lk simplicial",
        "lk diagram", "fixture"])
def test_each_command_loads_only_the_modules_it_runs(argv, code, loaded, tmp_path):
    files = {"c4": {"vertices": 4, "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
             "link": {"components": [[0, 1, 2, 3]], "orientations": [1]},
             "diagram": {"m": 2, "crossings": [{"over": 0, "under": 1, "sign": 1},
                                               {"over": 1, "under": 0, "sign": 1}],
                         "order": [[0, 1], [0, 1]]}}
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    runner = ("import contextlib, io, sys\nfrom flatlink import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "assert code == %d, code" % code)
    modules = _loaded_modules(runner, *[a.format(**paths) for a in argv])
    assert modules == sorted(["flatlink"] + ["flatlink." + m for m in ["cli"] + loaded])


def test_every_export_is_its_module_object():
    # a name or module misspelt in the export table fails only here
    assert flatlink.__all__
    for name in flatlink.__all__:
        module = importlib.import_module("flatlink." + flatlink._EXPORTS[name])
        assert getattr(flatlink, name) is getattr(module, name), name


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'flatlink' has no attribute 'nope'"):
        flatlink.nope


@pytest.mark.parametrize("module, owner, name", [
    ("homology", "IntegerMatrix", "from_dense"), ("homology", "IntegerMatrix", "to_dense"),
    ("coxeter", "Racg", "commutes"), ("links", None, "simplicial_linking_number"),
    ("links", None, "_edge_link_cycle"),
])
def test_test_only_helpers_live_in_the_oracles(module, owner, name):
    # only the tests use them: they are in tests/oracles.py, not exported; the
    # edge-link walk is the second-subdivision oracle's own meridian
    holder = importlib.import_module("flatlink." + module)
    assert not hasattr(getattr(holder, owner) if owner else holder, name)
    assert name not in flatlink.__all__
    assert callable(getattr(importlib.import_module("oracles"), name))


def test_a_complex_holds_three_lazy_tables_and_no_vertex_stars():
    # the manifold check reads its triangle table, and vertex_link scans the facets
    from flatlink.complexes import SimplicialComplex
    assert not hasattr(SimplicialComplex, "star")
    assert SimplicialComplex.__slots__ == (
        "vertex_count", "facets", "_small_table", "_adj_table", "_mask_table")


def test_no_export_is_named_like_a_submodule():
    # the import system binds a loaded submodule over a package attribute
    assert set(flatlink.__all__).isdisjoint(flatlink._EXPORTS.values())
