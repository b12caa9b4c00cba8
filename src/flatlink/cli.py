"""Command-line surface for the toolkit.

Subcommands: verify, obstruct, pk, davis, lk, fixture.  Each ``cmd_*``
returns its data; ``main`` alone times the command, builds the RunReport
and writes it with ``json.dumps`` (sorted keys, two-space indents) to
stdout or --out, or with --human, the only output switch, a line-per-check
summary.  Exit codes: 0 success, 1 failed checks, 2 usage or input errors
(``main`` prints ``error: ...`` for every ValueError, KeyError or OSError,
never a traceback).  Verdicts are report data, not errors: an obstruction
found is a successful analysis.  This module imports no flatlink submodule
at load time: each command imports what it runs, and the ``fixture``
help reads the registry only when it is printed.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _report(command, inputs, checks, verdicts, started, extra):
    checksums = {}
    for path in inputs:
        try:
            with open(path, "rb") as fh:
                checksums[path] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            checksums[path] = None
    rep = {
        "command": command,
        "inputs": checksums,
        "checks": checks,
        "verdicts": verdicts,
        "timing_ms": int((time.time() - started) * 1000),
        "version": __version__,
    }
    if extra:
        rep.update(extra)
    return rep


def _emit(report, opts):
    if opts.human:
        lines = []
        for name, result in report.get("checks", {}).items():
            if isinstance(result, bool):
                shown = "pass" if result else "FAIL"
            else:
                shown = json.dumps(result, sort_keys=True, default=str)
            lines.append("%-32s %s" % (name, shown))
        for name, verdict in report.get("verdicts", {}).items():
            lines.append("%-32s %s" % (name, verdict))
        text = "\n".join(lines) if lines else "(no checks)"
    else:
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
    _put(text, opts.out)


def _put(text, out):
    """``text`` and a newline to the file ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_json(path, what, parse):
    """``parse`` of the JSON in a file; an unreadable, malformed or too
    deeply nested file, or data ``parse`` rejects, is "bad <what>"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise ValueError("bad %s: %s" % (what, exc))


def _obstruction(matrix, opts):
    from .links import obstruction_report
    verdict = obstruction_report(matrix, nontrivial_certificate=opts.certify_nontrivial)
    return {"obstruction": verdict.verdict.value, "explanation": verdict.explanation}


# Each command returns (command, inputs, checks, verdicts, exit code, extra);
# main times it, builds and emits the report.  ``fixture NAME`` returns the
# complex's JSON text instead, which main writes as it is.  Each command
# imports the modules it runs, so a call loads only those: ``--version`` and
# a usage error load nothing past this module, and only ``fixture`` and its
# help load the registry.

def cmd_verify(opts):
    from .complexes import SimplicialComplex
    from .homology import check_hypotheses
    report = check_hypotheses(SimplicialComplex.load(opts.complex))
    return ("verify", [opts.complex], report.checks, {"all_checks_pass": report.passed},
            EXIT_OK if report.passed else EXIT_CHECK_FAILED, None)


def cmd_obstruct(opts):
    from .complexes import SimplicialComplex
    from .homology import check_hypotheses
    from .links import EdgeCycleLink, linking_matrix
    complex_ = SimplicialComplex.load(opts.complex)
    report = check_hypotheses(complex_)
    checks = report.checks
    if not report.passed:
        return ("obstruct", [opts.complex], checks, {"prerequisites": "failed"},
                EXIT_CHECK_FAILED, None)
    link = EdgeCycleLink(complex_, [s.cycle for s in report.squares])
    matrix = linking_matrix(link)
    checks["component_count"] = len(link)
    checks["linking_matrix"] = matrix.to_json()
    verdicts = _obstruction(matrix, opts)
    if not len(link):
        verdicts["explanation"] += " (no squares: empty link, empty matrix)"
    return ("obstruct", [opts.complex], checks, verdicts, EXIT_OK,
            {"nontrivial_certificate": bool(opts.certify_nontrivial)})


def cmd_pk(opts):
    from .complexes import SimplicialComplex
    from .cubes import (DEFAULT_MAX_GROUND, check_ground, facet_cells, piece_sizes, pk_f_vector,
                        pk_homology, pk_pieces)
    complex_ = SimplicialComplex.load(opts.complex)
    bound = DEFAULT_MAX_GROUND
    env = os.environ.get("FLATLINK_MAX_GROUND")
    if env is not None:
        try:
            bound = int(env)
        except ValueError:
            raise ValueError("FLATLINK_MAX_GROUND=%r is not an integer" % env)
        if bound < 0:
            raise ValueError("FLATLINK_MAX_GROUND=%r is negative" % env)
    check_ground(complex_, bound)
    pieces = pk_pieces(complex_)
    f_vector = pk_f_vector(complex_, pieces)
    checks = {
        "ground": complex_.vertex_count,
        "f_vector": list(f_vector),
        "euler_characteristic": sum((-1) ** k * f for k, f in enumerate(f_vector)),
    }
    if opts.homology:
        checks["homology"] = pk_homology(complex_, pieces).to_json()
        checks["homology_pieces"] = piece_sizes(pieces)
    extra = None
    if opts.cells_out:
        # json.dumps of {"cells": [...], "ground": n}, sorted keys, a cell at a time
        cells = map(json.JSONEncoder(sort_keys=True).encode, facet_cells(complex_))
        with open(opts.cells_out, "w", encoding="utf-8") as fh:
            fh.write('{"cells": [' + next(cells))
            fh.writelines(map(", ".__add__, cells))
            fh.write('], "ground": %d}\n' % complex_.vertex_count)
        extra = {"cells_out": opts.cells_out}
    return ("pk", [opts.complex], checks, {}, EXIT_OK, extra)


def cmd_davis(opts):
    from .complexes import SimplicialComplex
    from .coxeter import davis_ball, sphere_sizes
    complex_ = SimplicialComplex.load(opts.complex)
    ball = davis_ball(complex_, opts.radius)
    checks = {
        "radius": opts.radius,
        "sphere_sizes": sphere_sizes(ball.vertices, opts.radius),
        "vertices": len(ball.vertices),
        "f_vector": list(ball.f_vector()),
        "interior_vertices": len(ball.interior_vertices()),
    }
    extra = None
    if opts.cells_out:
        _put(json.dumps(ball.to_json(), sort_keys=True), opts.cells_out)
        extra = {"cells_out": opts.cells_out}
    return ("davis", [opts.complex], checks, {}, EXIT_OK, extra)


def cmd_lk_diagram(opts):
    from .links import PlanarDiagram, diagram_linking_matrix
    diagram = _read_json(opts.diagram, "diagram", PlanarDiagram.from_json)
    matrix = diagram_linking_matrix(diagram)
    return ("lk diagram", [opts.diagram], {"m": diagram.m, "linking_matrix": matrix.to_json()},
            _obstruction(matrix, opts), EXIT_OK, None)


def cmd_lk_simplicial(opts):
    from .complexes import SimplicialComplex
    from .links import EdgeCycleLink, linking_matrix
    complex_ = SimplicialComplex.load(opts.complex)
    link = _read_json(opts.link, "link",
                      lambda data: EdgeCycleLink.from_json(complex_, data))
    inputs = [opts.complex, opts.link]
    try:
        matrix = linking_matrix(link)
    except ValueError as exc:
        return ("lk simplicial", inputs, {"error": str(exc)}, {"prerequisites": "failed"},
                EXIT_CHECK_FAILED, None)
    return ("lk simplicial", inputs, {"m": len(link), "linking_matrix": matrix.to_json()},
            _obstruction(matrix, opts), EXIT_OK, None)


def cmd_fixture(opts):
    from .fixtures import fixture
    complex_ = fixture(opts.name)
    if not opts.target:
        return json.dumps(complex_.to_json(), sort_keys=True)
    complex_.dump(opts.target)
    return ("fixture", [], {"name": opts.name, "written": opts.target}, {}, EXIT_OK, None)


class _FixtureNames(str):
    """A help string that ``%`` fills with the registry's names.  argparse
    expands a help string with ``%`` only when it formats the help, so the
    registry is loaded then and not by every call that builds the parser."""

    def __mod__(self, params):
        from .fixtures import fixture_names
        return str.__mod__(self, ", ".join(fixture_names()))


def _parser():
    parser = argparse.ArgumentParser(
        prog="flatlink",
        description="Flag triangulations of S^3, mirror cubulations, Coxeter "
                    "balls and linking-number obstruction reports.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--human", action="store_true",
                       help="line-per-check text instead of the JSON report")
        p.add_argument("--out", default=None, help="write the report here")

    p = sub.add_parser("verify", help="run the triangulation hypothesis checks")
    p.add_argument("complex")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("obstruct", help="squares -> link -> matrix -> verdict")
    p.add_argument("complex")
    p.add_argument("--certify-nontrivial", action="store_true",
                   help="treat the square-link as certified non-trivial")
    common(p)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("pk", help="build the mirror cubical complex")
    p.add_argument("complex")
    p.add_argument("--homology", action="store_true")
    p.add_argument("--cells-out", default=None, help="write the cell JSON here")
    common(p)
    p.set_defaults(func=cmd_pk)

    p = sub.add_parser("davis", help="finite ball in the Davis complex")
    p.add_argument("complex")
    p.add_argument("-n", "--radius", type=int, required=True)
    p.add_argument("--cells-out", default=None)
    common(p)
    p.set_defaults(func=cmd_davis)

    p = sub.add_parser("lk", help="linking matrices")
    modes = p.add_subparsers(dest="mode", required=True)
    ps = modes.add_parser("simplicial")
    ps.add_argument("complex")
    ps.add_argument("link")
    ps.add_argument("--certify-nontrivial", action="store_true")
    common(ps)
    ps.set_defaults(func=cmd_lk_simplicial)
    pd = modes.add_parser("diagram")
    pd.add_argument("diagram")
    pd.add_argument("--certify-nontrivial", action="store_true")
    common(pd)
    pd.set_defaults(func=cmd_lk_diagram)

    p = sub.add_parser("fixture", help="emit a registry complex as JSON")
    p.add_argument("name", help=_FixtureNames("one of: %s"))
    p.add_argument("target", nargs="?", default=None,
                   help="write the complex here instead of stdout")
    common(p)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None):
    try:
        opts = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    started = time.time()
    try:
        result = opts.func(opts)
        if isinstance(result, str):
            _put(result, opts.out)
            return EXIT_OK
        command, inputs, checks, verdicts, code, extra = result
        _emit(_report(command, inputs, checks, verdicts, started, extra), opts)
        return code
    except (ValueError, KeyError, OSError) as exc:
        # bad input, resource bounds, unwritable output paths: never a traceback
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]  # str() of a KeyError is the repr of its message
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
