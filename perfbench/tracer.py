"""Outside-in span tracer for flatlink, wrapping public functions from here.

Nothing under ``src/`` knows about it.  ``Tracer.install`` rebinds every
flatlink module-namespace alias of each traced function (for example
``smith_normal_form`` is bound in both ``homology`` and ``links``) and
patches the traced class methods.  Spans stay in memory and are written as
JSON lines by ``Tracer.dump``.

Hot leaves (``Racg.normal_form``, ``Racg.min_coset_rep``) run about 4e5
times in one large ``davis`` call, so they are aggregated: one node per
(parent node, name) that counts calls and sums durations, instead of one
span per call.  Every other traced call gets a span of its own.

Run as a script it is the traced child process of one CLI call:

    PYTHONPATH=src python3 perfbench/tracer.py <trace.jsonl> <flatlink argv...>
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name, aggregate per parent instead of one span per call)
TARGETS = (
    ("flatlink.cli", "main", "cli.main", False),
    ("flatlink.complexes", "SimplicialComplex.__init__",
     "complexes.SimplicialComplex.init", False),
    ("flatlink.complexes", "vertex_link", "complexes.vertex_link", False),
    ("flatlink.complexes", "is_flag", "complexes.is_flag", False),
    ("flatlink.complexes", "find_squares", "complexes.find_squares", False),
    ("flatlink.complexes", "barycentric_subdivision",
     "complexes.barycentric_subdivision", False),
    ("flatlink.homology", "is_closed_orientable_3manifold",
     "homology.is_closed_orientable_3manifold", False),
    ("flatlink.homology", "is_homology_3sphere", "homology.is_homology_3sphere", False),
    ("flatlink.homology", "simplicial_chain_complex",
     "homology.simplicial_chain_complex", False),
    ("flatlink.homology", "smith_normal_form", "homology.smith_normal_form", False),
    ("flatlink.links", "linking_matrix", "links.linking_matrix", False),
    ("flatlink.coxeter", "Racg.normal_form", "coxeter.Racg.normal_form", True),
    ("flatlink.coxeter", "Racg.min_coset_rep", "coxeter.Racg.min_coset_rep", True),
    ("flatlink.coxeter", "Racg.ball", "coxeter.bfs", False),
    ("flatlink.coxeter", "Racg.ball_sizes", "coxeter.bfs", False),
    ("flatlink.coxeter", "DavisBall.__init__", "coxeter.DavisBall.init", False),
    ("flatlink.coxeter", "DavisBall.interior_vertices",
     "coxeter.DavisBall.interior_vertices", False),
    ("flatlink.coxeter", "caprace_criterion", "coxeter.caprace_criterion", False),
    ("flatlink.cubes", "build_pk", "cubes.build_pk", False),
    ("flatlink.cubes", "cubical_chain_complex", "cubes.cubical_chain_complex", False),
)


def _count_snf(counters, args, kwargs, result):
    matrix = args[0]
    counters["homology.smith_normal_form.nnz_in"] += len(matrix.entries)
    counters["homology.smith_normal_form.rank_out"] += result.rank()
    if kwargs.get("want_transforms", args[1] if len(args) > 1 else False):
        counters["homology.smith_normal_form.transform_calls"] += 1
        counters["homology.smith_normal_form.transform_cells_in"] += (
            matrix.rows * matrix.cols)


def _count_pairs(counters, args, kwargs, result):
    m = len(result.entries)
    counters["links.linking_matrix.pairs"] += m * (m - 1) // 2


def _count_davis_cells(counters, args, kwargs, result):
    counters["coxeter.davis.cells"] += len(args[0].cells)


def _count_pk_cells(counters, args, kwargs, result):
    counters["cubes.cells"] += sum(len(cs) for cs in result.cells.values())


# work counters read from the arguments and result of a traced call
COUNTERS = {
    "homology.smith_normal_form": _count_snf,
    "links.linking_matrix": _count_pairs,
    "coxeter.DavisBall.init": _count_davis_cells,
    "cubes.build_pk": _count_pk_cells,
}
COUNTER_NAMES = (
    "homology.smith_normal_form.nnz_in", "homology.smith_normal_form.rank_out",
    "homology.smith_normal_form.transform_calls",
    "homology.smith_normal_form.transform_cells_in",
    "links.linking_matrix.pairs", "coxeter.davis.cells", "cubes.cells",
)


class Tracer:
    """Span recorder for one process.

    A node is ``[id, name, parent id, calls, total ns, first start ns,
    last end ns]``; a plain span is a node with one call.
    """

    def __init__(self):
        self.nodes = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []
        self._hot = {}  # (parent id, name) -> node

    def _enter(self, name, hot):
        parent = self._stack[-1][0] if self._stack else None
        if hot:
            node = self._hot.get((parent, name))
            if node is None:
                node = [len(self.nodes), name, parent, 0, 0, None, None]
                self.nodes.append(node)
                self._hot[(parent, name)] = node
        else:
            node = [len(self.nodes), name, parent, 0, 0, None, None]
            self.nodes.append(node)
        self._stack.append(node)
        return node

    def _exit(self, node, start, end):
        self._stack.pop()
        node[3] += 1
        node[4] += end - start
        if node[5] is None:
            node[5] = start
        node[6] = end

    def wrap(self, name, fn, hot):
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = self._enter(name, hot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(node, start, clock())
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in place."""
        owners = [importlib.import_module(t[0]) for t in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flatlink" or n.startswith("flatlink.")]
        for owner, (_, attr, name, hot) in zip(owners, TARGETS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], hot))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hot)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapped)

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            for node in self.nodes:
                fh.write(json.dumps({"id": node[0], "name": node[1], "parent": node[2],
                                     "calls": node[3], "total_ns": node[4],
                                     "start_ns": node[5], "end_ns": node[6]}) + "\n")
            fh.write(json.dumps({"counters": self.counters, **(extra or {})}) + "\n")


def self_times(nodes):
    """name -> [calls, self ns]: each node's duration minus its children's."""
    child = {}
    for n in nodes:
        if n["parent"] is not None:
            child[n["parent"]] = child.get(n["parent"], 0) + n["total_ns"]
    out = {}
    for n in nodes:
        acc = out.setdefault(n["name"], [0, 0])
        acc[0] += n["calls"]
        acc[1] += n["total_ns"] - child.get(n["id"], 0)
    return out


def read_trace(path):
    """(nodes, summary) from a file written by ``Tracer.dump``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return lines[:-1], lines[-1]


def main(argv):
    trace_path, cli_argv = argv[0], argv[1:]
    started = time.perf_counter_ns()
    cli = importlib.import_module("flatlink.cli")
    import_ns = time.perf_counter_ns() - started
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, {"import_ns": import_ns})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
