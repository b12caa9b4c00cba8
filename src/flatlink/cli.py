"""Command-line surface for the toolkit.

Subcommands: verify, obstruct, pk, davis, lk, fixture.  Every
command writes a RunReport as JSON (sorted keys) to stdout or --out;
--human prints a line-per-check summary instead.  Exit codes: 0 success,
1 failed checks, 2 usage or input errors.  Verdicts are report data, not
errors: an obstruction found is a successful analysis.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .complexes import InvalidComplexError, SimplicialComplex
from .coxeter import davis_ball, racg_from_skeleton, sphere_sizes
from .cubes import DEFAULT_MAX_GROUND, build_pk, check_ground, pk_f_vector, pk_homology
from .fixtures import check_hypotheses, fixture, fixture_names
from .links import (EdgeCycleLink, PlanarDiagram, diagram_linking_matrix, linking_matrix,
                    obstruction_report)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _checksum(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report(command, args, checks, verdicts, started, extra=None):
    checksums = {}
    for path in args or ():
        try:
            checksums[path] = _checksum(path)
        except OSError:
            checksums[path] = None
    rep = {
        "command": command,
        "inputs": checksums,
        "checks": checks,
        "verdicts": verdicts,
        "timing_ms": int((time.time() - started) * 1000),
        "version": __version__,
        "seed": None,
    }
    if extra:
        rep.update(extra)
    return rep


def _emit(report, opts):
    text = None
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
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_complex(path):
    try:
        return SimplicialComplex.load(path)
    except (OSError, InvalidComplexError) as exc:
        raise SystemExit2(str(exc))


class SystemExit2(Exception):
    """Bad input or usage: exit code 2 with a diagnostic."""


def _read_json(path, what, parse):
    """``parse`` of the JSON in a file; an unreadable, malformed or too
    deeply nested file, or data ``parse`` rejects, is "bad <what>"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise SystemExit2("bad %s: %s" % (what, exc))


def cmd_verify(opts):
    started = time.time()
    report = check_hypotheses(_load_complex(opts.complex))
    _emit(_report("verify", [opts.complex], report.checks,
                  {"all_checks_pass": report.passed}, started), opts)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_obstruct(opts):
    started = time.time()
    complex_ = _load_complex(opts.complex)
    report = check_hypotheses(complex_)
    checks = report.checks
    if not report.passed:
        _emit(_report("obstruct", [opts.complex], checks,
                      {"prerequisites": "failed"}, started), opts)
        return EXIT_CHECK_FAILED
    link = EdgeCycleLink(complex_, [s.cycle for s in report.squares])
    matrix = linking_matrix(complex_, link, orientation=report.orientation)
    verdict = obstruction_report(matrix, nontrivial_certificate=opts.certify_nontrivial)
    checks["component_count"] = len(link)
    checks["linking_matrix"] = matrix.to_json()
    note = verdict.explanation
    if not len(link):
        note += " (no squares: empty link, empty matrix)"
    report = _report("obstruct", [opts.complex], checks,
                     {"obstruction": verdict.verdict.value, "explanation": note},
                     started,
                     extra={"nontrivial_certificate": bool(opts.certify_nontrivial)})
    _emit(report, opts)
    return EXIT_OK


def cmd_pk(opts):
    started = time.time()
    complex_ = _load_complex(opts.complex)
    bound = DEFAULT_MAX_GROUND
    env = os.environ.get("FLATLINK_MAX_GROUND")
    if env is not None:
        try:
            bound = int(env)
        except ValueError:
            raise SystemExit2("FLATLINK_MAX_GROUND=%r is not an integer" % env)
    try:
        check_ground(complex_, bound)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    f_vector = pk_f_vector(complex_)
    checks = {
        "ground": complex_.vertex_count,
        "f_vector": list(f_vector),
        "euler_characteristic": sum((-1) ** k * f for k, f in enumerate(f_vector)),
    }
    if opts.homology:
        checks["homology"] = pk_homology(complex_).to_json()
    extra = None
    if opts.cells_out:
        cubical = build_pk(complex_, max_ground=bound)
        with open(opts.cells_out, "w", encoding="utf-8") as fh:
            json.dump(cubical.to_json(), fh, sort_keys=True)
            fh.write("\n")
        extra = {"cells_out": opts.cells_out}
    report = _report("pk", [opts.complex], checks, {}, started, extra=extra)
    _emit(report, opts)
    return EXIT_OK


def cmd_davis(opts):
    started = time.time()
    complex_ = _load_complex(opts.complex)
    if opts.radius < 0:
        raise SystemExit2("radius must be non-negative")
    group = racg_from_skeleton(complex_)
    ball = davis_ball(group, complex_, opts.radius)
    checks = {
        "radius": opts.radius,
        "sphere_sizes": sphere_sizes(ball.vertices, opts.radius),
        "vertices": len(ball.vertices),
        "f_vector": list(ball.f_vector()),
        "interior_vertices": len(ball.interior_vertices()),
    }
    extra = None
    if opts.cells_out:
        with open(opts.cells_out, "w", encoding="utf-8") as fh:
            json.dump(ball.to_json(), fh, sort_keys=True)
            fh.write("\n")
        extra = {"cells_out": opts.cells_out}
    report = _report("davis", [opts.complex], checks, {}, started, extra=extra)
    _emit(report, opts)
    return EXIT_OK


def cmd_lk(opts):
    started = time.time()
    if opts.mode == "diagram":
        diagram = _read_json(opts.diagram, "diagram", PlanarDiagram.from_json)
        matrix = diagram_linking_matrix(diagram)
        verdict = obstruction_report(matrix,
                                     nontrivial_certificate=opts.certify_nontrivial)
        report = _report("lk diagram", [opts.diagram],
                         {"m": diagram.m, "linking_matrix": matrix.to_json()},
                         {"obstruction": verdict.verdict.value,
                          "explanation": verdict.explanation}, started)
        _emit(report, opts)
        return EXIT_OK
    complex_ = _load_complex(opts.complex)
    link = _read_json(opts.link, "link",
                      lambda data: EdgeCycleLink.from_json(complex_, data))
    try:
        matrix = linking_matrix(complex_, link)
    except ValueError as exc:
        report = _report("lk simplicial", [opts.complex, opts.link],
                         {"error": str(exc)}, {"prerequisites": "failed"}, started)
        _emit(report, opts)
        return EXIT_CHECK_FAILED
    verdict = obstruction_report(matrix, nontrivial_certificate=opts.certify_nontrivial)
    report = _report("lk simplicial", [opts.complex, opts.link],
                     {"m": len(link), "linking_matrix": matrix.to_json()},
                     {"obstruction": verdict.verdict.value,
                      "explanation": verdict.explanation}, started)
    _emit(report, opts)
    return EXIT_OK


def cmd_fixture(opts):
    started = time.time()
    try:
        complex_ = fixture(opts.name)
    except KeyError as exc:
        raise SystemExit2(str(exc))
    data = complex_.to_json()
    if opts.target:
        with open(opts.target, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")
        report = _report("fixture", [], {"name": opts.name, "written": opts.target},
                         {}, started)
        _emit(report, opts)
    else:
        print(json.dumps(data, sort_keys=True))
    return EXIT_OK


def _parser():
    parser = argparse.ArgumentParser(
        prog="flatlink",
        description="Flag triangulations of S^3, mirror cubulations, Coxeter "
                    "balls and linking-number obstruction reports.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", dest="human", action="store_false",
                          default=False, help="JSON report (default)")
        mode.add_argument("--human", dest="human", action="store_true",
                          help="line-per-check text output")
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
    ps.set_defaults(func=cmd_lk, mode="simplicial")
    pd = modes.add_parser("diagram")
    pd.add_argument("diagram")
    pd.add_argument("--certify-nontrivial", action="store_true")
    common(pd)
    pd.set_defaults(func=cmd_lk, mode="diagram")

    p = sub.add_parser("fixture", help="emit a registry complex as JSON")
    p.add_argument("name", help="one of: " + ", ".join(fixture_names()))
    p.add_argument("target", nargs="?", default=None,
                   help="write the complex here instead of stdout")
    common(p)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None):
    parser = _parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return opts.func(opts)
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, KeyError, OSError) as exc:
        # bad user data (resource bounds, unwritable output paths), never a traceback
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
