"""The benchmark tracer's span targets and the names the workloads build
their inputs with still name flatlink functions, and the tracer's work
counters still read what those functions return.

``perfbench/tracer.py`` patches its targets by module and attribute name,
counts work from their arguments and results, and ``perfbench/workloads.py``
builds its inputs through ``fl.<name>``; a renamed or deleted name, or a
result without the attribute a counter reads, would only fail a benchmark
run.  The tracer's source is read and executed here, never imported as a
module; the workloads' source is only parsed.
"""

import ast
import importlib
import os

import flatlink

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")
WORKLOADS = os.path.join(os.path.dirname(TRACER), "workloads.py")


def _tracer_namespace():
    with open(TRACER, "r", encoding="utf-8") as fh:
        source = fh.read()
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(source, TRACER, "exec"), namespace)
    return namespace


def _tracer_targets():
    return _tracer_namespace()["TARGETS"]


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer patches the method found in the class's own __dict__
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert cls is not None, "%s has no class %s" % (module_name, cls_name)
            target = vars(cls).get(method)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), "%s.%s is gone" % (module_name, attr)


def test_every_workload_package_name_resolves():
    with open(WORKLOADS, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), WORKLOADS)
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "fl"}
    assert {"fixture", "EdgeCycleLink", "SimplicialComplex"} <= names
    assert sorted(n for n in names if not hasattr(flatlink, n)) == []


def test_every_tracer_counter_reads_a_real_result_of_its_target():
    # (args, kwargs, result) of one real call per counted span, as the
    # tracer's wrapper hands them over; DavisBall.__init__ returns None and
    # its counter reads the ball, args[0]
    namespace = _tracer_namespace()
    c4 = flatlink.fixture("c4")
    chains = importlib.import_module("flatlink.homology").simplicial_chain_complex(
        flatlink.fixture("boundary-16-cell"))
    _, link = flatlink.hopf_pair()
    ball = flatlink.davis_ball(c4, 2)
    calls = {
        "cubes.build_pk": ((c4,), {}, flatlink.build_pk(c4)),
        "homology.smith_normal_form": ((chains.boundary(1),), {},
                                       flatlink.smith_normal_form(chains.boundary(1))),
        "links.linking_matrix": ((link,), {}, flatlink.linking_matrix(link)),
        "coxeter.DavisBall.init": ((ball, c4, 2, 200000), {}, None),
    }
    assert sorted(calls) == sorted(namespace["COUNTERS"])
    counters = dict.fromkeys(namespace["COUNTER_NAMES"], 0)
    for name, (args, kwargs, result) in calls.items():
        namespace["COUNTERS"][name](counters, args, kwargs, result)
    assert counters == {
        "cubes.cells": 16 + 32 + 16,  # the torus
        "homology.smith_normal_form.nnz_in": 2 * 24,  # d_1: two vertices per edge
        "homology.smith_normal_form.rank_out": 8 - 1,
        "homology.smith_normal_form.transform_calls": 0,
        "homology.smith_normal_form.transform_cells_in": 0,
        "links.linking_matrix.pairs": 1,
        "coxeter.davis.cells": 16 + 4,  # edges and squares of the ball
    }
