"""The benchmark tracer's span targets and the names the workloads build
their inputs with still name flatlink functions.

``perfbench/tracer.py`` patches its targets by module and attribute name,
and ``perfbench/workloads.py`` builds its inputs through ``fl.<name>``; a
renamed or deleted name would only fail a benchmark run.  The tracer's
source is read and executed here, never imported as a module; the
workloads' source is only parsed.
"""

import ast
import importlib
import os

import flatlink

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")
WORKLOADS = os.path.join(os.path.dirname(TRACER), "workloads.py")


def _tracer_targets():
    with open(TRACER, "r", encoding="utf-8") as fh:
        source = fh.read()
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(source, TRACER, "exec"), namespace)
    return namespace["TARGETS"]


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
