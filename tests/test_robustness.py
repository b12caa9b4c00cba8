"""Every complex file, however malformed, ends in exit 0, 1 or 2 without a
traceback: generated and mutated complex JSON fed to ``cli.main``.  Link,
diagram and build-target files nested past the recursion limit exit 2.

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
from flatlink.complexes import clique_complex
from flatlink.fixtures import fixture

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


@pytest.mark.parametrize("command", [["verify"], ["obstruct"], ["pk"], ["davis", "-n", "1"]],
                         ids=lambda c: c[0])
@settings(max_examples=60)
@given(text=complex_texts())
@example(text="[" * 100000 + "]" * 100000)  # nesting past the recursion limit
def test_cli_exits_0_1_or_2_without_traceback(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(command[:1] + [path] + command[1:])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", [["lk", "simplicial", "{c4}", "{deep}"],
                                     ["lk", "diagram", "{deep}"], ["build", "{deep}"]],
                         ids=lambda c: " ".join(w for w in c if "{" not in w))
def test_deeply_nested_link_diagram_and_target_files_exit_2(command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"c4": os.path.join(tmp, "c4.json"), "deep": os.path.join(tmp, "deep.json")}
        fixture("c4").dump(paths["c4"])
        with open(paths["deep"], "w", encoding="utf-8") as fh:
            fh.write("[" * 100000 + "]" * 100000)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([arg.format(**paths) for arg in command])
    assert rc == 2
    assert err.getvalue().startswith("error: bad ")
    assert "Traceback" not in err.getvalue()
