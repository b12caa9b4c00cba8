"""Every input file, however malformed, ends in exit 0, 1 or 2 without a
traceback: generated and mutated complex JSON fed to ``cli.main``, and
generated and mutated link and diagram JSON.  Files nested
past the recursion limit exit 2, and so does a ``pk`` ground set past the
bound, before any work.

Inputs stay at 8 vertices or fewer, well under the ``pk`` ground bound.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatlink.cli import main
from flatlink.complexes import SimplicialComplex, clique_complex
from flatlink.fixtures import fixture, hopf_pair, split_pair

from oracles import hopf_diagram, solomon_diagram, three_chain_133_diagram, whitehead_diagram

SMALL_FIXTURES = ("boundary-3-simplex", "boundary-4-simplex", "c4", "octahedron",
                  "boundary-16-cell", "suspension-3-points", "suspension-edge-point",
                  "two-squares-disjoint", "projective-plane-6", "torus-7")

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 9),
                 st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
                 st.lists(st.integers(-1, 9), max_size=4),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def flag_complexes(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return clique_complex(n, edges).to_json()


@st.composite
def raw_complexes(draw):
    facets = draw(st.lists(st.lists(st.integers(-1, 9), max_size=5), max_size=10))
    if draw(st.booleans()):
        facets = [sorted(set(f)) for f in facets]
    return {"vertices": draw(st.integers(-1, 8)), "facets": facets}


def _mutate(draw, data):
    kind = draw(st.sampled_from(("entry", "add", "drop", "reverse", "vertices",
                                 "facets", "key", "top")))
    facets = data.get("facets") if isinstance(data, dict) else None
    if kind in ("entry", "drop", "reverse") and isinstance(facets, list) and facets:
        i = draw(st.integers(0, len(facets) - 1))
        if kind == "drop":
            del facets[i]
        elif not isinstance(facets[i], list) or not facets[i]:
            facets[i] = draw(JUNK)
        elif kind == "reverse":
            facets[i] = facets[i][::-1]
        else:
            facets[i][draw(st.integers(0, len(facets[i]) - 1))] = draw(JUNK)
    elif kind == "add" and isinstance(facets, list):
        facets.append(draw(st.one_of(st.lists(st.integers(-1, 9), max_size=5), JUNK)))
    elif kind in ("vertices", "facets") and isinstance(data, dict):
        data[kind] = draw(st.one_of(st.integers(-2, 8), JUNK))
    elif kind == "key" and isinstance(data, dict) and data:
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "top":
        data = draw(st.one_of(JUNK, st.lists(JUNK, max_size=3)))
    return data


@st.composite
def complex_texts(draw):
    data = draw(st.one_of(
        st.sampled_from(SMALL_FIXTURES).map(lambda name: fixture(name).to_json()),
        flag_complexes(), raw_complexes()))
    for _ in range(draw(st.integers(0, 3))):
        data = _mutate(draw, data)
    text = json.dumps(data)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _run(argv):
    """Exit code and stderr of ``cli.main``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("command", [["verify"], ["obstruct"], ["pk"], ["davis", "-n", "1"],
                                     ["pk", "--homology"], ["pk", "--cells-out", "{cells}"]],
                         ids=["verify", "obstruct", "pk", "davis", "pk --homology",
                              "pk --cells-out"])
@settings(max_examples=60)
@given(text=complex_texts())
@example(text="[" * 100000 + "]" * 100000)  # nesting past the recursion limit
def test_cli_exits_0_1_or_2_without_traceback(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cells = os.path.join(tmp, "cells.json")
        rc, err = _run(command[:1] + [path] + [arg.format(cells=cells) for arg in command[1:]])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


def test_pk_homology_past_the_ground_bound_exits_2_before_any_work(tmp_path, monkeypatch):
    def visited(*args):
        raise AssertionError("pk did work past the ground bound")

    for name in ("pk_homology", "pk_f_vector", "build_pk"):
        monkeypatch.setattr("flatlink.cubes." + name, visited)
    path = str(tmp_path / "points.json")
    SimplicialComplex(25, [(i,) for i in range(25)]).dump(path)
    rc, err = _run(["pk", path, "--homology"])
    assert rc == 2
    assert err == ("error: ground set has 25 vertices; 2^25 cube vertices exceeds "
                   "the bound 24\n")


def _tree_paths(data, path=()):
    yield path
    if isinstance(data, dict):
        for key in sorted(data):
            yield from _tree_paths(data[key], path + (key,))
    elif isinstance(data, list):
        for i, item in enumerate(data):
            yield from _tree_paths(item, path + (i,))


def _mutate_tree(draw, data):
    """Replace, delete or duplicate one node anywhere in a JSON tree."""
    # the root last: Hypothesis favours early choices, and a junk root is the dullest
    path = draw(st.sampled_from(list(_tree_paths(data))[::-1]))
    if not path:
        return draw(JUNK)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(("replace", "delete", "duplicate")))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(path[-1], json.loads(json.dumps(parent[path[-1]])))
    else:
        parent[path[-1]] = draw(JUNK)
    return data


@st.composite
def link_data(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from((hopf_pair, split_pair)))()[1].to_json()
    data = {"components": draw(st.lists(st.lists(st.integers(-1, 8), max_size=5),
                                        max_size=3))}
    if draw(st.booleans()):
        data["orientations"] = draw(st.lists(st.sampled_from((1, -1)), max_size=3))
    return data


@st.composite
def diagram_data(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from((hopf_diagram, solomon_diagram, whitehead_diagram,
                                     three_chain_133_diagram)))().to_json()
    crossing = st.fixed_dictionaries({"over": st.integers(-1, 3), "under": st.integers(-1, 3),
                                      "sign": st.sampled_from((1, -1, 0, 2))})
    return {"m": draw(st.integers(-1, 3)),
            "crossings": draw(st.lists(crossing, max_size=4)),
            "order": draw(st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=3))}


@st.composite
def json_texts(draw, base):
    data = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        data = _mutate_tree(draw, data)
    text = json.dumps(data)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


FILE_COMMANDS = {
    "lk simplicial": (["lk", "simplicial", "{ambient}", "{file}"], link_data()),
    "lk diagram": (["lk", "diagram", "{file}"], diagram_data()),
}


@pytest.mark.parametrize("name", sorted(FILE_COMMANDS))
@settings(max_examples=60)
@given(data=st.data())
def test_link_diagram_and_target_files_exit_0_1_or_2_without_traceback(name, data):
    command, base = FILE_COMMANDS[name]
    text = data.draw(json_texts(base), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"ambient": os.path.join(tmp, "ambient.json"),
                 "file": os.path.join(tmp, "input.json")}
        fixture("boundary-16-cell").dump(paths["ambient"])
        with open(paths["file"], "w", encoding="utf-8") as fh:
            fh.write(text)
        rc, err = _run([arg.format(**paths) for arg in command])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["lk", "simplicial", "{c4}", "{deep}"],
                                     ["lk", "diagram", "{deep}"]],
                         ids=lambda c: " ".join(w for w in c if "{" not in w))
def test_deeply_nested_link_diagram_and_target_files_exit_2(command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"c4": os.path.join(tmp, "c4.json"), "deep": os.path.join(tmp, "deep.json")}
        fixture("c4").dump(paths["c4"])
        with open(paths["deep"], "w", encoding="utf-8") as fh:
            fh.write("[" * 100000 + "]" * 100000)
        rc, err = _run([arg.format(**paths) for arg in command])
    assert rc == 2
    assert err.startswith("error: bad ")
    assert "Traceback" not in err
