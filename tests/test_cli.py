"""End-to-end command-line flows: exit codes, report shape, determinism."""

import importlib
import json
import os
import re
import sys

import pytest

from flatlink.cli import main
from flatlink.coxeter import Racg


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


def test_pk_ground_bound_env_override(write_fixture, tmp_path):
    path = write_fixture("octahedron")
    os.environ["FLATLINK_MAX_GROUND"] = "4"
    try:
        assert main(["pk", path, "--out", str(tmp_path / "r.json")]) == 2
    finally:
        del os.environ["FLATLINK_MAX_GROUND"]
    assert main(["pk", path, "--out", str(tmp_path / "r.json")]) == 0


def test_davis_radius_zero(write_fixture, tmp_path):
    path = write_fixture("c4")
    rc, report = run_json(["davis", path, "-n", "0"], tmp_path)
    assert rc == 0
    assert report["checks"]["vertices"] == 1
    assert report["checks"]["f_vector"] == [1]


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


def test_build_non_integer_entries_is_input_error(tmp_path, capsys):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"entries": [[0, "1"], ["1", 0]]}))
    assert main(["build", str(target)]) == 2
    assert "integers" in capsys.readouterr().err


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
    ("build", 5, "must be an object"),
    ("build", "entries", "must be an object"),
    ("build", _diagram_with(sign=True), "integer"),
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
    calls = _count_calls(monkeypatch, homology_module, "is_closed_orientable_3manifold")
    path = write_fixture("600-cell")
    for command in ("verify", "obstruct"):
        calls.clear()
        assert run_json([command, path], tmp_path)[0] == 0
        assert len(calls) == 1


def test_one_coxeter_bfs_per_davis(write_fixture, tmp_path, monkeypatch):
    calls = (_count_calls(monkeypatch, Racg, "ball"),
             _count_calls(monkeypatch, Racg, "ball_sizes"))
    rc, report = run_json(["davis", write_fixture("c4"), "-n", "3"], tmp_path)
    assert rc == 0
    assert report["checks"]["sphere_sizes"] == [1, 4, 8, 12]
    assert [len(c) for c in calls] == [1, 0]


def test_fixture_unknown_name_is_input_error():
    assert main(["fixture", "klein-bottle"]) == 2


def test_build_empty_target(tmp_path):
    target = tmp_path / "empty.json"
    target.write_text(json.dumps({"entries": []}))
    out_complex = tmp_path / "found.json"
    rc, report = run_json(
        ["build", str(target), "--complex-out", str(out_complex)], tmp_path)
    assert rc == 0
    assert report["verdicts"]["found"] is True
    assert report["seed"] == 0
    assert main(["verify", str(out_complex)]) == 0


def test_build_hopf_target_not_found(tmp_path):
    target = tmp_path / "hopf.json"
    target.write_text(json.dumps({"entries": [[0, 1], [1, 0]]}))
    rc, report = run_json(["build", str(target), "--budget", "4"], tmp_path)
    assert rc == 1
    assert report["verdicts"]["found"] is False


def test_build_malformed_target_is_input_error(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"entries": [[0, 1], [2, 0]]}))
    assert main(["build", str(target)]) == 2


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


def test_usage_error_exit_code():
    assert main(["verify"]) == 2
    assert main(["no-such-command"]) == 2


def test_davis_resource_bound_is_input_error(write_fixture, tmp_path):
    # the RACG over the 16-cell skeleton grows fast: a tight internal bound
    # must surface as a diagnosed input error, not a traceback
    from flatlink.coxeter import ResourceLimitError, davis_ball, racg_from_skeleton
    from flatlink.fixtures import fixture
    k = fixture("boundary-16-cell")
    with pytest.raises(ResourceLimitError, match="bound"):
        davis_ball(racg_from_skeleton(k), k, 3, max_vertices=10)
