"""Seeded inputs, call lists and pinned expected values of the four workloads.

Every input is built through flatlink's public constructors, then its
vertices are relabelled by a permutation drawn from the seed and the start
vertex of each link cycle is rotated.  The program under test only ever sees
the written JSON files.  Every expected value pinned here is invariant under
that relabelling, so one table serves every seed.

One seed gives a sequence of labellings, one per pass of a run: the cost of
a call depends on the labelling (the pivot order of the Smith normal form
follows the vertex numbers), so a run measures several.

Run as a script, this module writes one labelling of one workload's inputs:

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <seed> <labelling> <outdir>

The harness imports it only for the call tables; flatlink is imported
lazily, inside ``write_inputs``.
"""

import json
import os
import random
import sys
from typing import NamedTuple


class Call(NamedTuple):
    """One CLI call: ``argv`` names inputs as ``{name}`` placeholders.

    ``expect`` maps a dotted path into the JSON report to its value;
    ``matrix`` is a linking matrix checked up to one global sign, because
    relabelling can flip the normalized ambient orientation.
    """
    label: str
    argv: tuple
    exit: int
    expect: dict
    matrix: tuple = None
    cells_out: bool = False


def _h(*groups):
    """Homology JSON as reports print it; a group is a rank or (rank, torsion)."""
    return {"H": [{"rank": g, "torsion": []} if isinstance(g, int)
                  else {"rank": g[0], "torsion": list(g[1])} for g in groups]}


S3 = _h(1, 0, 0, 1)


def _lk(amb, link, exp_matrix, label):
    return Call(label, ("lk", "simplicial", "{%s}" % amb, "{%s}" % link), 0,
                {"checks.m": len(exp_matrix)}, matrix=exp_matrix)


def _matrix(m, value):
    return tuple(tuple(0 if i == j else value for j in range(m)) for i in range(m))


# Why each workload, and the layer it isolates, is recorded in BENCHMARK.json.
# Each list names its small call first and marks its large call.  No call
# takes much more than 3 s, so that a run holds several passes and the
# reference program (see run.py) runs often enough to follow the host's
# speed.  Each pass of a run is on its own labelling: the cost of the
# cubical Smith normal forms varies with the labelling (join(C4,C6) by about
# a fifth), and the passes average it out.
WORKLOADS = {
    "verify-sd": {
        "small": "verify boundary-16-cell",
        "large": "verify sd(sd-boundary-4-simplex)",
        "calls": [
            Call("verify boundary-16-cell", ("verify", "{b16}"), 1,
                 {"checks.is_flag": True, "checks.square_count": 6,
                  "checks.has_isolated_squares": False,
                  "checks.is_closed_orientable_3manifold": True,
                  "checks.is_homology_3sphere": True,
                  "checks.homology_profile": S3,
                  "checks.caprace_criterion": True,
                  "verdicts.all_checks_pass": False}),
            Call("verify s2-x-s1", ("verify", "{s2s1}"), 1,
                 {"checks.is_closed_orientable_3manifold": True,
                  "checks.is_homology_3sphere": False,
                  "checks.homology_profile": _h(1, 1, 1, 1),
                  "verdicts.all_checks_pass": False}),
            Call("verify 600-cell", ("verify", "{c600}"), 0,
                 {"checks.is_flag": True, "checks.square_count": 0,
                  "checks.is_homology_3sphere": True,
                  "checks.homology_profile": S3,
                  "checks.caprace_criterion": True,
                  "verdicts.all_checks_pass": True}),
            Call("obstruct 600-cell", ("obstruct", "{c600}"), 0,
                 {"checks.component_count": 0, "checks.linking_matrix": {"entries": [], "m": 0},
                  "verdicts.obstruction": "NoObstructionDetected"}),
            Call("verify sd(join-c10-c10)", ("verify", "{sd_j1010}"), 1,
                 {"checks.is_flag": True, "checks.square_count": 6600,
                  "checks.has_isolated_squares": False,
                  "checks.is_homology_3sphere": True,
                  "checks.homology_profile": S3,
                  "verdicts.all_checks_pass": False}),
            Call("verify sd(sd-boundary-4-simplex)", ("verify", "{sd_sd5}"), 1,
                 {"checks.is_flag": True, "checks.square_count": 6480,
                  "checks.has_isolated_squares": False,
                  "checks.is_homology_3sphere": True,
                  "checks.homology_profile": S3,
                  "verdicts.all_checks_pass": False}),
        ],
    },
    "link-solve": {
        "small": "lk hopf",
        "large": "lk solomon",
        "calls": [
            _lk("hopf", "hopf_link", _matrix(2, 1), "lk hopf"),
            _lk("split", "split_link", _matrix(2, 0), "lk split"),
            _lk("solomon", "solomon_link", _matrix(2, 2), "lk solomon"),
            _lk("zz_a", "zz_a_link", _matrix(2, 3), "lk zigzag a"),
            _lk("zz_b", "zz_b_link", _matrix(2, 4), "lk zigzag b"),
            _lk("zz_c", "zz_c_link", _matrix(2, 0), "lk zigzag c"),
            _lk("fibers", "fibers_link", _matrix(3, 1), "lk c6*c6 fibers"),
        ],
    },
    "davis-ball": {
        "small": "davis c4 -n 6",
        "large": "davis boundary-16-cell -n 4 --cells-out",
        "calls": [
            Call("davis c4 -n 6", ("davis", "{c4}", "-n", "6"), 0,
                 {"checks.sphere_sizes": [1, 4, 8, 12, 16, 20, 24],
                  "checks.f_vector": [85, 144, 60],
                  "checks.interior_vertices": 41}),
            Call("davis octahedron -n 4", ("davis", "{oct}", "-n", "4"), 0,
                 {"checks.f_vector": [129, 264, 168, 32],
                  "checks.interior_vertices": 7}),
            Call("davis suspension-3-points -n 4", ("davis", "{susp3}", "-n", "4"), 0,
                 {"checks.f_vector": [120, 185, 66],
                  "checks.interior_vertices": 20}),
            Call("davis boundary-16-cell -n 4 --cells-out",
                 ("davis", "{b16}", "-n", "4", "--cells-out", "{cells}"), 0,
                 {"checks.f_vector": [321, 768, 624, 192, 16],
                  "checks.interior_vertices": 1}, cells_out=True),
            Call("davis sd-boundary-4-simplex -n 1", ("davis", "{sd5}", "-n", "1"), 0,
                 {"checks.f_vector": [31, 30]}),
            Call("davis join-c6-c6 -n 2", ("davis", "{c66}", "-n", "2"), 0,
                 {"checks.f_vector": [97, 144, 48]}),
        ],
    },
    "pk-homology": {
        "small": "pk c4",
        "large": "pk join(C4,C6)",
        "calls": [
            Call("pk c4", ("pk", "{c4}", "--homology"), 0,
                 {"checks.f_vector": [16, 32, 16], "checks.homology": _h(1, 2, 1)}),
            Call("pk octahedron", ("pk", "{oct}", "--homology"), 0,
                 {"checks.f_vector": [64, 192, 192, 64], "checks.homology": _h(1, 3, 3, 1)}),
            Call("pk projective-plane-6", ("pk", "{rp2}", "--homology"), 0,
                 {"checks.f_vector": [64, 192, 240, 80],
                  "checks.homology": _h(1, 0, (31, [2]), 0)}),
            Call("pk torus-7", ("pk", "{t7}", "--homology"), 0,
                 {"checks.f_vector": [128, 448, 672, 224],
                  "checks.homology": _h(1, 0, 128, 1)}),
            Call("pk boundary-16-cell", ("pk", "{b16}", "--homology"), 0,
                 {"checks.homology": _h(1, 4, 6, 4, 1)}),
            Call("pk join(C4,C6)", ("pk", "{c4c6}", "--homology"), 0,
                 {"checks.homology": _h(1, 36, 70, 36, 1)}),
        ],
    },
}


def _cycle(fl, k):
    return fl.SimplicialComplex(k, [tuple(sorted((i, (i + 1) % k))) for i in range(k)])


def _sources(fl, workload):
    """name -> complex, or name -> (ambient, link), before relabelling."""
    fx = fl.fixture
    sd = fl.barycentric_subdivision
    if workload == "verify-sd":
        return {
            "b16": fx("boundary-16-cell"),
            "s2s1": fx("s2-x-s1"),
            "c600": fx("600-cell"),
            "sd_j1010": sd(fx("join-c10-c10")),
            "sd_sd5": sd(fx("sd-boundary-4-simplex")),
        }
    if workload == "link-solve":
        c1010 = fx("join-c10-c10")
        zz = fl.zigzag_cycle
        one_two = zz(10, 10, 0, 0, 2, 4, 5)
        one_one = zz(10, 10, 0, 0, 2, 2, 5)
        c66 = fx("join-c6-c6")
        fibers = [(k, 6 + k, k + 3, 6 + k + 3) for k in range(3)]
        return {
            "hopf": fl.hopf_pair(),
            "split": fl.split_pair(),
            "solomon": fl.solomon_pair(),
            "zz_a": (c1010, fl.EdgeCycleLink(
                c1010, [one_two, zz(10, 10, 1, 1, 2, 4, 5)])),
            "zz_b": (c1010, fl.EdgeCycleLink(
                c1010, [one_one, zz(10, 10, 1, 1, 2, 2, 5)])),
            "zz_c": (c1010, fl.EdgeCycleLink(
                c1010, [one_one, zz(10, 10, 1, 1, 2, 4, 5)])),
            "fibers": (c66, fl.EdgeCycleLink(c66, fibers)),
        }
    if workload == "davis-ball":
        return {
            "c4": fx("c4"),
            "oct": fx("octahedron"),
            "susp3": fx("suspension-3-points"),
            "b16": fx("boundary-16-cell"),
            "sd5": fx("sd-boundary-4-simplex"),
            "c66": fx("join-c6-c6"),
        }
    if workload == "pk-homology":
        return {
            "c4": fx("c4"),
            "oct": fx("octahedron"),
            "rp2": fx("projective-plane-6"),
            "t7": fx("torus-7"),
            "b16": fx("boundary-16-cell"),
            "c4c6": fl.join(_cycle(fl, 4), _cycle(fl, 6)),
        }
    raise KeyError("unknown workload %r" % workload)


def _relabel(fl, complex_, perm):
    facets = [sorted(perm[v] for v in f) for f in complex_.facets]
    return fl.SimplicialComplex(complex_.vertex_count, facets)


def write_inputs(workload, seed, labelling, outdir):
    """Build, relabel and write every input file of one workload."""
    import flatlink as fl

    for name, source in sorted(_sources(fl, workload).items()):
        rng = random.Random("%s/%d/%d/%s" % (workload, seed, labelling, name))
        ambient = source[0] if isinstance(source, tuple) else source
        perm = list(range(ambient.vertex_count))
        rng.shuffle(perm)
        relabelled = _relabel(fl, ambient, perm)
        relabelled.dump(os.path.join(outdir, name + ".json"))
        if isinstance(source, tuple):
            link = source[1]
            comps = []
            for comp in link.components:
                turn = rng.randrange(len(comp))
                comps.append([perm[v] for v in comp[turn:] + comp[:turn]])
            moved = fl.EdgeCycleLink(relabelled, comps, link.orientations)
            with open(os.path.join(outdir, name + "_link.json"), "w", encoding="utf-8") as fh:
                json.dump(moved.to_json(), fh, sort_keys=True)
                fh.write("\n")


def main(argv):
    if len(argv) not in (4, 5):
        print("usage: workloads.py <workload> <seed> <labelling> <outdir> [trace.jsonl]",
              file=sys.stderr)
        return 2
    workload, seed, labelling, outdir = argv[0], int(argv[1]), int(argv[2]), argv[3]
    if len(argv) == 5:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            write_inputs(workload, seed, labelling, outdir)
        finally:
            tracer.dump(argv[4])
    else:
        write_inputs(workload, seed, labelling, outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
