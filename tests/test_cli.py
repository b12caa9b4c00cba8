"""End-to-end command-line flows: exit codes, report shape, determinism."""

import argparse
import importlib
import json
import os
import re
import sys
from pathlib import Path

import pytest

from flatlink import cli
from flatlink.cli import _parser, main
from flatlink.complexes import (SimplicialComplex, barycentric_subdivision, disjoint_union,
                                find_squares, join)
from flatlink.coxeter import Racg
from flatlink.fixtures import _cycle, fixture, fixture_names, verify_type_l
from flatlink.homology import is_closed_orientable_3manifold
from flatlink.links import EdgeCycleLink, LinkingMatrix

from oracles import pinched_3_complexes, twisted_s2_bundle, validate_square
from test_fixtures import corpus_properties


@pytest.fixture()
def write_fixture(tmp_path):
    def _write(name):
        path = tmp_path / (name + ".json")
        assert main(["fixture", name, str(path)]) == 0
        return str(path)
    return _write


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    with open(out, "r", encoding="utf-8") as fh:
        return rc, json.load(fh)


def test_verify_16_cell_fails_isolated_squares(write_fixture, tmp_path):
    path = write_fixture("boundary-16-cell")
    rc, report = run_json(["verify", path], tmp_path)
    assert rc == 1
    assert report["checks"]["is_flag"] is True
    assert report["checks"]["has_isolated_squares"] is False
    assert report["checks"]["isolated_offending_vertex"] == 0
    assert report["checks"]["is_homology_3sphere"] is True
    assert report["verdicts"]["all_checks_pass"] is False


def test_verify_boundary_4_simplex_fails_flag(write_fixture, tmp_path):
    path = write_fixture("boundary-4-simplex")
    rc, report = run_json(["verify", path], tmp_path)
    assert rc == 1
    assert report["checks"]["is_flag"] is False
    assert report["checks"]["flag_witness"] == [0, 1, 2, 3, 4]


def test_verify_600_cell_passes(write_fixture, tmp_path):
    path = write_fixture("600-cell")
    rc, report = run_json(["verify", path], tmp_path)
    assert rc == 0
    assert report["verdicts"]["all_checks_pass"] is True


def test_verify_truncated_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "facets": [[0')
    assert main(["verify", str(bad)]) == 2


def test_verify_rejects_malformed_facet(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "facets": [[0, 1], [2, 1]]}')
    assert main(["verify", str(bad)]) == 2


def test_obstruct_16_cell_prerequisites_fail(write_fixture, tmp_path):
    path = write_fixture("boundary-16-cell")
    rc, report = run_json(["obstruct", path], tmp_path)
    assert rc == 1
    assert report["verdicts"]["prerequisites"] == "failed"


def test_obstruct_600_cell_no_squares(write_fixture, tmp_path):
    path = write_fixture("600-cell")
    rc, report = run_json(["obstruct", path], tmp_path)
    assert rc == 0
    assert report["verdicts"]["obstruction"] == "NoObstructionDetected"
    assert "empty" in report["verdicts"]["explanation"]
    assert report["checks"]["component_count"] == 0


def test_pk_c4_f_vector(write_fixture, tmp_path):
    path = write_fixture("c4")
    rc, report = run_json(["pk", path, "--homology"], tmp_path)
    assert rc == 0
    assert report["checks"]["f_vector"] == [16, 32, 16]
    assert report["checks"]["euler_characteristic"] == 0
    assert report["checks"]["homology"]["H"][1] == {"rank": 2, "torsion": []}


def test_pk_reports_its_pieces_under_homology(tmp_path):
    path = str(tmp_path / "c4c6.json")
    join(_cycle(4), _cycle(6)).dump(path)
    rc, report = run_json(["pk", path, "--homology"], tmp_path)
    assert rc == 0
    assert report["checks"]["homology_pieces"] == [1, 1, 1, 1, 6]
    assert report["checks"]["homology"]["H"][2] == {"rank": 70, "torsion": []}
    rc, report = run_json(["pk", path], tmp_path)
    assert rc == 0
    assert "homology_pieces" not in report["checks"]


def test_pk_homology_of_one_facet_of_18_vertices(tmp_path):
    # the flag test behind the cone prune finds one maximal clique, the facet;
    # growing cliques face by face took about 10 s here
    path = tmp_path / "simplex17.json"
    path.write_text(json.dumps({"vertices": 18, "facets": [list(range(18))]}))
    rc, report = run_json(["pk", str(path), "--homology"], tmp_path)
    assert rc == 0
    assert report["checks"]["homology"]["H"] == (
        [{"rank": 1, "torsion": []}] + [{"rank": 0, "torsion": []}] * 18)


def test_pk_ground_bound_env_override(write_fixture, tmp_path):
    path = write_fixture("octahedron")
    os.environ["FLATLINK_MAX_GROUND"] = "4"
    try:
        assert main(["pk", path, "--out", str(tmp_path / "r.json")]) == 2
    finally:
        del os.environ["FLATLINK_MAX_GROUND"]
    assert main(["pk", path, "--out", str(tmp_path / "r.json")]) == 0


def test_pk_builds_cells_only_for_cells_out(write_fixture, tmp_path, monkeypatch):
    cubes_module = importlib.import_module("flatlink.cubes")
    calls = (_count_calls(monkeypatch, cubes_module, "build_pk"),
             _count_calls(monkeypatch, cubes_module, "cubical_chain_complex"))
    path = write_fixture("octahedron")
    cells = str(tmp_path / "cells.json")
    for extra, expected in (([], [0, 0]), (["--homology"], [0, 0]),
                            (["--homology", "--cells-out", cells], [1, 0])):
        for c in calls:
            c.clear()
        rc, report = run_json(["pk", path] + extra, tmp_path)
        assert rc == 0
        assert report["checks"]["f_vector"] == [64, 192, 192, 64]
        assert [len(c) for c in calls] == expected, extra


def test_davis_radius_zero(write_fixture, tmp_path):
    path = write_fixture("c4")
    rc, report = run_json(["davis", path, "-n", "0"], tmp_path)
    assert rc == 0
    assert report["checks"]["vertices"] == 1
    assert report["checks"]["f_vector"] == [1]


def test_davis_sphere_sizes_end_at_the_first_empty_sphere(tmp_path):
    point = tmp_path / "point.json"
    point.write_text('{"vertices": 1, "facets": [[0]]}')
    out = tmp_path / "report.json"
    assert main(["davis", str(point), "-n", "199999", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]["sphere_sizes"] == [1, 1, 0]
    assert out.stat().st_size < 2048


def test_davis_cells_out(write_fixture, tmp_path):
    path = write_fixture("c4")
    cells = tmp_path / "ball.json"
    rc, report = run_json(["davis", path, "-n", "2", "--cells-out", str(cells)],
                          tmp_path)
    assert rc == 0
    data = json.loads(cells.read_text())
    assert data["radius"] == 2
    assert len(data["vertex_words"]) == 13


def test_lk_diagram_solomon(tmp_path):
    diagram = {"m": 2,
               "crossings": [{"over": 0, "under": 1, "sign": 1},
                             {"over": 1, "under": 0, "sign": 1},
                             {"over": 0, "under": 1, "sign": 1},
                             {"over": 1, "under": 0, "sign": 1}],
               "order": [[0, 1, 2, 3], [0, 1, 2, 3]]}
    path = tmp_path / "solomon.json"
    path.write_text(json.dumps(diagram))
    rc, report = run_json(["lk", "diagram", str(path)], tmp_path)
    assert rc == 0
    assert report["checks"]["linking_matrix"]["entries"] == [[0, 2], [2, 0]]
    assert report["verdicts"]["obstruction"] == "LinkingObstruction"


def test_lk_simplicial_hopf(write_fixture, tmp_path):
    cpath = write_fixture("boundary-16-cell")
    lpath = tmp_path / "hopf-link.json"
    lpath.write_text(json.dumps(
        {"components": [[0, 2, 1, 3], [4, 6, 5, 7]], "orientations": [1, 1]}))
    rc, report = run_json(["lk", "simplicial", cpath, str(lpath)], tmp_path)
    assert rc == 0
    entries = report["checks"]["linking_matrix"]["entries"]
    assert abs(entries[0][1]) == 1
    assert report["verdicts"]["obstruction"] == "NoObstructionDetected"


def test_lk_simplicial_bad_ambient_exit_1(write_fixture, tmp_path):
    cpath = write_fixture("s2-x-s1")
    lpath = tmp_path / "link.json"
    lpath.write_text(json.dumps({"components": [[0, 1, 2], [3, 4, 5]]}))
    rc, report = run_json(["lk", "simplicial", cpath, str(lpath)], tmp_path)
    assert rc == 1
    assert report["verdicts"]["prerequisites"] == "failed"


@pytest.mark.parametrize("link, message", [
    ({"components": [["0", "2", "1", "3"], ["4", "6", "5", "7"]]},
     "'0', not a vertex id"),
    ({"components": [[True, 2, 4], [5, 3, 7]]}, "True, not a vertex id"),
    ({"components": [[0, 2, 1.0], [4, 6, 5]]}, "1.0, not a vertex id"),
    ({"components": [[0, 2, 16], [4, 6, 5]]}, "16, not a vertex id in range\\(8\\)"),
    ({"components": [5]}, "list of vertex-id lists"),
    ({"components": [[0, 2, 4]], "orientations": [True]}, "orientations"),
    (5, "needs 'components'"),
])
def test_lk_simplicial_malformed_link_is_input_error(write_fixture, tmp_path, capsys,
                                                      link, message):
    cpath = write_fixture("boundary-16-cell")
    lpath = tmp_path / "link.json"
    lpath.write_text(json.dumps(link))
    assert main(["lk", "simplicial", cpath, str(lpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad link:")
    assert re.search(message, err)
    assert "Traceback" not in err


_DIAGRAM = {"m": 2, "crossings": [{"over": 0, "under": 1, "sign": 1},
                                  {"over": 1, "under": 0, "sign": 1}],
            "order": [[0, 1], [0, 1]]}


def _diagram_with(**changes):
    data = json.loads(json.dumps(_DIAGRAM))
    for key, value in changes.items():
        if key in ("over", "under", "sign"):
            data["crossings"][0][key] = value
        else:
            data[key] = value
    return data


@pytest.mark.parametrize("command, data, message", [
    ("lk diagram", _diagram_with(sign=True), "integer"),
    ("lk diagram", _diagram_with(over=False), "integer"),
    ("lk diagram", _diagram_with(under=1.0), "integer"),
    ("lk diagram", _diagram_with(m=True), "integer"),
    ("lk diagram", _diagram_with(order=[[0, True], [0, 1]]), "integer"),
    ("lk diagram", _diagram_with(crossings=[5]), "list of objects"),
    ("lk diagram", 5, "must be an object"),
])
def test_malformed_diagram_or_target_is_input_error(tmp_path, capsys, command, data,
                                                     message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(command.split() + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"vertices": 2, "facets": [[0, true]]}', "not a list of integers"),
    ('{"vertices": true, "facets": [[0]]}', "non-negative integer"),
    ('{"vertices": 1000000000000, "facets": [[0, 1]]}', "vertex 2 appears in no facet"),
])
def test_verify_malformed_complex_is_input_error(tmp_path, capsys, text, message):
    # 10^12 declared vertices is rejected by counting, before any allocation
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` through every flatlink binding of it."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    modules = [m for n, m in sys.modules.items() if n.startswith("flatlink.")]
    for target in [owner] + modules:
        if vars(target).get(name) is original:
            monkeypatch.setattr(target, name, counting)
    return calls


def test_one_manifold_check_per_verify_and_obstruct(write_fixture, tmp_path, monkeypatch):
    # the 600-cell passes every prerequisite, so obstruct reaches linking_matrix
    homology_module = importlib.import_module("flatlink.homology")
    complexes_module = importlib.import_module("flatlink.complexes")
    calls = (_count_calls(monkeypatch, homology_module, "is_closed_orientable_3manifold"),
             _count_calls(monkeypatch, complexes_module, "scan_nonadjacent_pairs"))
    path = write_fixture("600-cell")
    for command in ("verify", "obstruct"):
        for c in calls:
            c.clear()
        assert run_json([command, path], tmp_path)[0] == 0
        assert [len(c) for c in calls] == [1, 1]


@pytest.mark.parametrize("name", fixture_names())
def test_verify_type_l_and_corpus_properties_agree_with_verify(name, write_fixture,
                                                               tmp_path):
    checks = run_json(["verify", write_fixture(name)], tmp_path)[1]["checks"]
    flags = verify_type_l(fixture(name), LinkingMatrix([])).flags
    profile = corpus_properties(name)
    for key in ("is_flag", "has_isolated_squares", "is_homology_3sphere"):
        assert flags[key] == checks[key], key
    renamed = {"squares": "square_count", "caprace_passes": "caprace_criterion",
               "closed_orientable_3manifold": "is_closed_orientable_3manifold",
               "homology_3sphere": "is_homology_3sphere"}
    for key in profile.keys() - {"vertices", "facets", "dim"}:
        assert profile[key] == checks[renamed.get(key, key)], key


def test_one_coxeter_bfs_per_davis(write_fixture, tmp_path, monkeypatch):
    calls = (_count_calls(monkeypatch, Racg, "ball"),
             _count_calls(monkeypatch, Racg, "ball_sizes"),
             _count_calls(monkeypatch, Racg, "normal_form"))
    rc, report = run_json(["davis", write_fixture("c4"), "-n", "3"], tmp_path)
    assert rc == 0
    assert report["checks"]["sphere_sizes"] == [1, 4, 8, 12]
    # each word is extended by its non-descents only: 4 + 4*3 + (4*2 + 4*3)
    assert [len(c) for c in calls] == [1, 0, 36]


@pytest.mark.parametrize("argv", [
    ["fixture", "c4", "{missing}"],
    ["verify", "{c4}", "--out", "{missing}"],
    ["pk", "{c4}", "--cells-out", "{missing}"],
    ["davis", "{c4}", "-n", "1", "--cells-out", "{missing}"],
])
def test_unwritable_output_path_is_input_error(argv, write_fixture, tmp_path, capsys):
    paths = {"c4": write_fixture("c4"), "missing": str(tmp_path / "no-dir" / "x.json")}
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-dir" in err and "Traceback" not in err


def test_fixture_unknown_name_is_input_error():
    assert main(["fixture", "klein-bottle"]) == 2


def test_fixture_help_lists_every_fixture(capsys):
    assert main(["fixture", "--help"]) == 0
    listed = capsys.readouterr().out.split("one of:", 1)[1].split("target", 1)[0]
    # argparse wraps the help text, at spaces and after hyphens
    assert "".join(listed.split()) == ",".join(fixture_names())


def test_fixture_without_target_writes_to_out(tmp_path, capsys):
    out = tmp_path / "c4.json"
    assert main(["fixture", "c4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["fixture", "c4"]) == 0
    assert out.read_text("utf-8") == capsys.readouterr().out
    assert SimplicialComplex.load(str(out)) == fixture("c4")


_MISSING = "[Errno 2] No such file or directory: '{missing}'"


@pytest.mark.parametrize("argv, env, line", [
    (["verify", "{missing}"], None, _MISSING),
    (["verify", "{truncated}"], None,
     "malformed complex JSON: Expecting ',' delimiter: line 1 column 30 (char 29)"),
    (["pk", "{oct}"], "x", "FLATLINK_MAX_GROUND='x' is not an integer"),
    (["pk", "{oct}", "--homology"], "4",
     "ground set has 6 vertices; 2^6 cube vertices exceeds the bound 4"),
    (["davis", "{c4}", "-n", "-1"], None, "radius must be non-negative"),
    (["davis", "{point}", "-n", "200000"], None,
     "radius 200000 is not below the bound of 200000 vertices"),
    (["davis", "{points450}", "-n", "2"], None,
     "ball of radius 2 exceeds the bound of 200000 vertices"),
    (["fixture", "klein-bottle"], None,
     "unknown fixture 'klein-bottle'; known: %s" % ", ".join(fixture_names())),
    (["lk", "simplicial", "{c4}", "{missing}"], None, "bad link: " + _MISSING),
    (["lk", "diagram", "{missing}"], None, "bad diagram: " + _MISSING),
    (["verify", "{simplex4}"], None,
     "complex has dimension 4; the hypothesis checks need dimension at most 3"),
    (["obstruct", "{simplex25}"], None,
     "complex has dimension 25; the hypothesis checks need dimension at most 3"),
], ids=["missing complex", "truncated complex", "FLATLINK_MAX_GROUND=x", "ground bound",
        "davis -n -1", "davis -n 200000", "davis ball bound", "unknown fixture", "missing link",
        "missing diagram", "verify dimension 4", "obstruct dimension 25"])
def test_input_error_is_one_stderr_line_and_exit_2(argv, env, line, write_fixture,
                                                   tmp_path, capsys, monkeypatch):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"vertices": 3, "facets": [[0')
    point = tmp_path / "point.json"
    point.write_text('{"vertices": 1, "facets": [[0]]}')
    # 450 generators: 1 + 450 + 450 * 449 = 202,501 words of length at most 2
    points = tmp_path / "points450.json"
    points.write_text(json.dumps({"vertices": 450, "facets": [[v] for v in range(450)]}))
    paths = {"c4": write_fixture("c4"), "oct": write_fixture("octahedron"),
             "missing": str(tmp_path / "missing.json"), "truncated": str(truncated),
             "point": str(point), "points450": str(points)}
    for n in (5, 26):
        simplex = tmp_path / ("simplex%d.json" % (n - 1))
        simplex.write_text(json.dumps({"vertices": n, "facets": [list(range(n))]}))
        paths[simplex.stem] = str(simplex)
    # every refusal comes before any check: the flag check must not start
    monkeypatch.setattr(importlib.import_module("flatlink.homology"), "is_flag",
                        lambda complex_: pytest.fail("the flag check ran"))
    if env is not None:
        monkeypatch.setenv("FLATLINK_MAX_GROUND", env)
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + line.format(**paths) + "\n"


_B4 = fixture("boundary-4-simplex")
_PINCHED = pinched_3_complexes()


@pytest.mark.parametrize("complex_, failures, error", [
    # two 3-spheres wedged at vertex 4: connected, but its dual graph is not
    (SimplicialComplex(9, list(_B4.facets) + [tuple(v + 4 for v in f) for f in _B4.facets]),
     ["link of vertex 4 is not a 2-sphere"], None),
    # pinched vertex links: connected, and the walk misses no facet
    *[(k, ["link of vertex 0 is not a 2-sphere"], None) for k in _PINCHED.values()],
    (disjoint_union(_B4, _B4), None, "complex is not connected"),
    # every link a 2-sphere, but the walk meets a mismatch: not orientable
    (twisted_s2_bundle(), ["orientation mismatch across triangle (5, 8, 11)"], None),
], ids=["wedge", *_PINCHED, "disjoint union", "twisted bundle"])
def test_manifold_check_names_a_bad_link_before_disconnection(complex_, failures, error,
                                                              tmp_path):
    if error is None:
        assert list(is_closed_orientable_3manifold(complex_).failures) == failures
    else:
        with pytest.raises(ValueError, match=error):
            is_closed_orientable_3manifold(complex_)
    path = str(tmp_path / "complex.json")
    complex_.dump(path)
    rc, report = run_json(["verify", path], tmp_path)
    assert rc == 1
    assert report["checks"]["is_closed_orientable_3manifold"] is False
    assert report["checks"].get("manifold_failures") == failures
    assert report["checks"].get("manifold_error") == error


def _subcommands(parser, prefix=()):
    """Every leaf command path of the parser, e.g. ("lk", "diagram")."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out |= _subcommands(sub, prefix + (name,)) or {prefix + (name,)}
    return out


def test_readme_command_lines_name_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = _subcommands(_parser())
    documented, unknown = set(), []
    for line in block.splitlines():
        words = line.split("#")[0].split()
        if not words or words[0] != "flatlink":
            continue
        named = [c for c in commands if tuple(words[1:1 + len(c)]) == c]
        documented.update(named)
        if not named:
            unknown.append(line)
    assert unknown == []
    assert documented == commands


def test_report_determinism_modulo_timing(write_fixture, tmp_path):
    path = write_fixture("boundary-16-cell")
    _, a = run_json(["verify", path], tmp_path, "a.json")
    _, b = run_json(["verify", path], tmp_path, "b.json")
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_human_mode_writes_lines(write_fixture, tmp_path, capsys):
    path = write_fixture("c4")
    rc = main(["verify", path, "--human"])
    out = capsys.readouterr().out
    assert rc == 1  # not a 3-manifold: checks fail
    assert "is_flag" in out and "pass" in out


def test_usage_error_exit_code(capsys):
    assert main(["verify"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["build", "x.json"]) == 2  # removed: no constructor backs it
    err = capsys.readouterr().err
    assert "invalid choice: 'build'" in err and "Traceback" not in err
    assert main(["fixture", "c4", "--json"]) == 2  # removed: JSON is the default
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_davis_resource_bound_is_input_error(write_fixture, tmp_path):
    # the RACG over the 16-cell skeleton grows fast: a tight internal bound
    # must surface as a diagnosed input error, not a traceback
    from flatlink.coxeter import ResourceLimitError, davis_ball, racg_from_skeleton
    from flatlink.fixtures import fixture
    k = fixture("boundary-16-cell")
    with pytest.raises(ResourceLimitError, match="bound"):
        davis_ball(racg_from_skeleton(k), k, 3, max_vertices=10)


# -- the report writer --------------------------------------------------------

def _indented(value):
    """json's own indented text of ``value``, with the report writer's settings."""
    return json.dumps(value, sort_keys=True, indent=2, default=str)


@pytest.mark.parametrize("name", fixture_names())
def test_registry_reports_are_written_as_the_indented_json_encoder(name, write_fixture,
                                                                    tmp_path, monkeypatch):
    path = write_fixture(name)
    reports = []

    def recorded(*args):
        reports.append(report_(*args))
        return reports[-1]

    report_ = cli._report
    monkeypatch.setattr(cli, "_report", recorded)
    for argv in (["verify", path], ["obstruct", path], ["davis", path, "-n", "1"]):
        out = tmp_path / "report.json"
        main(argv + ["--out", str(out)])
        assert out.read_text(encoding="utf-8") == _indented(reports[-1]) + "\n"
    assert len(reports) == 3


def test_large_verify_writes_one_witness_without_sorting_lookups(tmp_path, monkeypatch):
    """Verify on a second subdivision stays off ``has_face``, which sorts its
    argument, and reports one Caprace witness and the count of all 20,160,
    in under 2 KB; a lapse fails here."""
    path = str(tmp_path / "sd-sd-boundary-4-simplex.json")
    barycentric_subdivision(fixture("sd-boundary-4-simplex")).dump(path)
    rc, report = run_json(["verify", path], tmp_path, "before.json")

    def refuse(*args, **kwargs):
        raise AssertionError("slow path taken")

    monkeypatch.setattr(SimplicialComplex, "has_face", refuse)
    out = tmp_path / "after.json"
    assert main(["verify", path, "--out", str(out)]) == rc == 1
    text = out.read_text(encoding="utf-8")
    # the link edge test asks the adjacency sets too, as the square oracle does
    k = SimplicialComplex.load(path)
    squares = find_squares(k)
    for square in squares:
        validate_square(square, k)
    assert len(EdgeCycleLink(k, [squares[0].cycle])) == 1
    monkeypatch.undo()
    after = json.loads(text)
    assert text == _indented(after) + "\n"
    assert len(text.encode("utf-8")) < 2048
    report.pop("timing_ms")
    after.pop("timing_ms")
    assert after == report
    assert report["checks"]["is_flag"] is True
    assert report["checks"]["caprace_witness_count"] == 20160
    assert report["checks"]["caprace_witness"]["type"] in ("3-points", "edge-point")
