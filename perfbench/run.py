"""Closed-loop CLI benchmark of flatlink.

From the root of a checkout:

    python3 perfbench/run.py --workload verify-sd --seed 0 --seconds 30 --trace 0

One caller, one call at a time.  Every call is a fresh
``python -m flatlink.cli ...`` process with ``PYTHONPATH=src`` prepended,
as a user runs the tool, so each call pays interpreter start and import and
no module-level cache survives between calls.  Calls are started by the
small process in ``launcher.py``, which reads each child's rusage.  A run:

1. warms the bytecode cache with one untimed ``--version`` call;
2. generates ``LABELLINGS`` labellings of the seeded inputs, each in a
   fresh interpreter, and takes the median generation time for ``setup_s``;
3. makes closed-loop passes over the workload's call list, pass k on
   labelling k mod ``LABELLINGS``, until another pass would overrun
   ``--seconds`` (at least one).  After each call other than the small one,
   a pass runs the small call once more as a probe, so the
   ``small_call_ms`` samples spread over the whole run; probes are not part
   of ``batch_s``, which sums the times of the pass's own calls;
4. checks the exit code and the pinned report fields of every call and
   probe.

Every timed metric is given at the reference host speed.  The harness runs
``reference.py``, a fixed program that imports nothing from flatlink, the
same way as the calls: before the first generation, then after every
generation and after every call with its probe.  Each child's wall time is
multiplied by ``REFERENCE_S`` over the mean wall time of the two
references around it (CPU times likewise, with ``REFERENCE_CPU_S``), and
the metrics are medians and sums of these products.  The reference cannot
move when the program changes, so a program that gets 10% slower reads 10%
slower; a host that slows down for a while slows the reference as well,
and the figure stays put.  The raw figures and the reference's medians are
printed on the ``meta`` line.

With ``--trace 1`` the run makes one untraced and one traced pass, both on
labelling 0, and prints the per-layer metrics (raw: they are not gated);
the traced child is ``tracer.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit, the failed and attempted call counts
(``failed_calls`` of ``attempted_calls``), and the run metadata (seed,
Python version, CPU count, commit, ``src/`` lines, raw figures).

Noise, as observed on a shared two-core Xeon VM with Python 3.11: the host's
speed changes under the VM by up to half, in spells of seconds to tens of
minutes, and CPU time moves with wall time, so raw figures of ten runs
spread by 0.1 to 0.3 of their median (quartile distance over median).
Scaled by the reference they spread by 0.02 to 0.08, with two exceptions.
``large_call_s`` is a median of two or three calls a run on davis-ball and
once spread by 0.17 there.  pk-homology's cost follows the labelling (the
Smith normal form's pivot order follows the vertex numbers), so its
``batch_s`` and ``large_call_s`` spread by up to 0.15 across seeds.  The
calls do not all slow down by the same share as the reference (over 20 s
windows their times went with the reference's to the power 0.5 to 1.1), so
a spell of a fast or slow host can still leave a trace.  Compare commits
with interleaved runs on the same seeds.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

LABELLINGS = 5
MISSING = "<missing>"

# In an untraced run reference.py runs before the first group of children
# and after every group (a call and its probe, or one generation).
# REFERENCE_S (REFERENCE_CPU_S) over the mean wall (CPU) time of the two
# references around a group is the speed factor of its children: about
# what the reference takes on a 2-core Xeon VM with Python 3.11.
REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_S = 0.1
REFERENCE_CPU_S = 0.1

# (name, unit); the values are medians over the passes of one run
END_TO_END = (
    ("batch_s", "s"), ("batch_cpu_s", "s"), ("large_call_s", "s"),
    ("small_call_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

# totals over one traced pass, except cli.import_ms (median per call) and
# complexes.barycentric_subdivision.self_ms (traced set-up plus traced pass)
SPANS_CALLS = (
    "complexes.SimplicialComplex.init", "complexes.vertex_link",
    "homology.is_closed_orientable_3manifold", "homology.is_homology_3sphere",
    "homology.smith_normal_form", "links.linking_matrix",
    "coxeter.Racg.normal_form", "coxeter.Racg.min_coset_rep", "coxeter.bfs",
)
SPANS_SELF = (
    "cli.main", "complexes.SimplicialComplex.init", "complexes.vertex_link",
    "complexes.is_flag", "complexes.find_squares", "complexes.barycentric_subdivision",
    "homology.is_closed_orientable_3manifold", "homology.simplicial_chain_complex",
    "homology.smith_normal_form", "links.linking_matrix", "coxeter.Racg.normal_form",
    "coxeter.Racg.min_coset_rep", "coxeter.bfs", "coxeter.DavisBall.init",
    "coxeter.DavisBall.interior_vertices", "coxeter.caprace_criterion",
    "cubes.build_pk", "cubes.cubical_chain_complex",
)


PER_LAYER_UNITS = {"cli.import_ms": "ms", "cli.output_bytes": "bytes"}
PER_LAYER_UNITS.update({s + ".calls": "count" for s in SPANS_CALLS})
PER_LAYER_UNITS.update({s + ".self_ms": "ms" for s in SPANS_SELF})
PER_LAYER_UNITS.update({c: "count" for c in tracer.COUNTER_NAMES})
PER_LAYER_UNITS["coxeter.davis.cell_yield"] = "ratio"
PER_LAYER_UNITS["trace.overhead_ratio"] = "ratio"


class Timing(NamedTuple):
    """One child: exit code, wall and CPU seconds, peak RSS and speed factors.

    ``wall * speed`` and ``cpu * cpu_speed`` are its times at the reference
    host speed; both factors are 1 where no reference was run.
    """
    code: int
    wall: float
    cpu: float
    rss_mb: float
    speed: float = 1.0
    cpu_speed: float = 1.0


class Launcher:
    """The small parent of every timed child process (see launcher.py)."""

    def __init__(self):
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        self.sample_reference = False
        self.reference_times = []  # (wall s, cpu s) per run of reference.py

    def _ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process ended early")
        return json.loads(answer)

    def _reference(self):
        code, wall, cpu, _ = self._ask(
            {"argv": [sys.executable, REFERENCE], "out": os.devnull, "err": None})
        if code != 0:
            raise RuntimeError("the reference program failed (exit %d)" % code)
        self.reference_times.append((wall, cpu))

    def run_group(self, requests):
        """Run (argv, stdout path, stderr path or None) children one by one.

        Returns their Timings.  While ``sample_reference`` is set, the
        reference program runs right before the group (unless it ran right
        after the previous group) and right after it, and the mean of the two
        sets the speed factors of every child in the group.
        """
        if self.sample_reference and not self.reference_times:
            self._reference()
        timings = [Timing(*self._ask({"argv": argv, "out": out, "err": err}))
                   for argv, out, err in requests]
        if not self.sample_reference:
            return timings
        self._reference()
        (wall0, cpu0), (wall1, cpu1) = self.reference_times[-2:]
        return [t._replace(speed=2 * REFERENCE_S / (wall0 + wall1),
                           cpu_speed=2 * REFERENCE_CPU_S / (cpu0 + cpu1)) for t in timings]

    def run(self, argv, out_path, err_path=None):
        """Run one child as a group of its own and return its Timing."""
        return self.run_group([(argv, out_path, err_path)])[0]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.terminate()
        self.close()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _dig(report, path):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return MISSING
        node = node[key]
    return node


def check_call(call, code, out_path, err_path, cells_path):
    """Every way this call's output differs from its pinned expectations."""
    problems = []
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        if "Traceback (most recent call last)" in fh.read():
            problems.append("traceback on stderr")
    if code != call.exit:
        problems.append("exit %d, expected %d" % (code, call.exit))
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + ["report is not JSON: %s" % exc]
    for path, want in sorted(call.expect.items()):
        got = _dig(report, path)
        if got != want:
            problems.append("%s = %r, expected %r" % (path, got, want))
    if call.matrix is not None:
        got = _dig(report, "checks.linking_matrix.entries")
        want = [list(row) for row in call.matrix]
        if got not in (want, [[-x for x in row] for row in want]):
            problems.append("linking matrix %r, expected +-%r" % (got, want))
    if call.cells_out:
        try:
            with open(cells_path, "r", encoding="utf-8") as fh:
                cells = json.load(fh)
            f_vector = report["checks"]["f_vector"]
            if (len(cells["vertex_words"]) != f_vector[0]
                    or len(cells["cells"]) != sum(f_vector[1:])):
                problems.append("cells file disagrees with f_vector %r" % (f_vector,))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append("cells file unreadable: %s" % exc)
    return problems


def call_argv(call, inputs, workdir, traced_to=None):
    names = {"cells": os.path.join(workdir, "cells.json")}
    args = []
    for arg in call.argv:
        if arg.startswith("{"):
            key = arg[1:-1]
            arg = names.get(key) or os.path.join(inputs, key + ".json")
        args.append(arg)
    if traced_to is None:
        return [sys.executable, "-m", "flatlink.cli"] + args
    return [sys.executable, os.path.join(HERE, "tracer.py"), traced_to] + args


def run_pass(spec, inputs, workdir, launcher, traced=False):
    """One closed-loop pass, with small-call probes unless traced.

    Every call and probe is checked after the pass has ended.
    """
    calls = spec["calls"]
    small = next(c for c in calls if c.label == spec["small"])
    cells_path = os.path.join(workdir, "cells.json")
    if os.path.exists(cells_path):
        os.remove(cells_path)
    runs = []  # (call, Timing, stdout, stderr, trace, part of the pass)
    for k, call in enumerate(calls):
        def path(pattern):
            return os.path.join(workdir, pattern % k)
        # the call and, unless traced, a small-call probe share one reference group
        group = [(call, path("out%d.json"), path("err%d.txt"),
                  path("trace%d.jsonl") if traced else None, True)]
        if not traced and call is not small:
            group.append((small, path("probe%d.json"), path("probe%d.txt"), None, False))
        timings = launcher.run_group([(call_argv(c, inputs, workdir, trace), out, err)
                                      for c, out, err, trace, _ in group])
        runs += [entry[:1] + (t,) + entry[1:] for entry, t in zip(group, timings)]
    own = [r for r in runs if r[5]]
    large = next(r[1] for r in own if r[0].label == spec["large"])
    result = {"wall": sum(r[1].wall * r[1].speed for r in own),
              "cpu": sum(r[1].cpu * r[1].cpu_speed for r in own),
              "rss": max(r[1].rss_mb for r in own), "large": large.wall * large.speed,
              "smalls": [r[1].wall * r[1].speed for r in runs if r[0] is small],
              "raw": {"wall": sum(r[1].wall for r in own), "cpu": sum(r[1].cpu for r in own),
                      "large": large.wall,
                      "smalls": [r[1].wall for r in runs if r[0] is small]},
              "bytes": sum(os.path.getsize(r[2]) for r in own), "traces": [r[4] for r in own],
              "attempted": len(runs), "failed": 0, "failures": []}
    if os.path.exists(cells_path):
        result["bytes"] += os.path.getsize(cells_path)
    for call, timing, out_path, err_path, _, _ in runs:
        problems = check_call(call, timing.code, out_path, err_path, cells_path)
        result["failed"] += bool(problems)
        result["failures"] += [(call.label, p) for p in problems]
    return result


def generate(workload, seed, labelling, dest, launcher, trace_path=None):
    """Write one labelling of the seeded inputs in a fresh interpreter.

    Returns the Timing of that interpreter.
    """
    os.makedirs(dest)
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed),
            str(labelling), dest]
    if trace_path:
        argv.append(trace_path)
    log = dest + ".log"
    timing = launcher.run(argv, log)
    if timing.code != 0:
        with open(log, "r", encoding="utf-8", errors="replace") as fh:
            raise RuntimeError("input generation failed:\n" + fh.read())
    return timing


def layer_metrics(traced, untraced_wall, setup_trace):
    """Per-layer metrics from the trace files of one traced pass."""
    totals = {}
    counters = dict.fromkeys(tracer.COUNTER_NAMES, 0)
    imports = []
    yield_attempts = 0
    for path in traced["traces"] + [setup_trace]:
        nodes, summary = tracer.read_trace(path)
        for name, (calls, self_ns) in tracer.self_times(nodes).items():
            if path == setup_trace and name != "complexes.barycentric_subdivision":
                continue
            acc = totals.setdefault(name, [0, 0])
            acc[0] += calls
            acc[1] += self_ns
        if path == setup_trace:
            continue
        for name, value in summary["counters"].items():
            counters[name] += value
        imports.append(summary["import_ns"] / 1e6)
        names = {n["id"]: n["name"] for n in nodes}
        yield_attempts += sum(n["calls"] for n in nodes
                              if n["name"] == "coxeter.Racg.min_coset_rep"
                              and names.get(n["parent"]) == "coxeter.DavisBall.init")
    values = {"cli.import_ms": statistics.median(imports),
              "cli.output_bytes": traced["bytes"]}
    for span in SPANS_CALLS:
        values[span + ".calls"] = totals.get(span, [0, 0])[0]
    for span in SPANS_SELF:
        values[span + ".self_ms"] = totals.get(span, [0, 0])[1] / 1e6
    values.update(counters)
    cells = counters["coxeter.davis.cells"]
    values["coxeter.davis.cell_yield"] = cells / yield_attempts if yield_attempts else 0.0
    values["trace.overhead_ratio"] = traced["wall"] / untraced_wall
    return values


def metadata(workload, seed, seconds, trace, passes):
    lines = 0
    for path in glob.glob(os.path.join(SRC, "flatlink", "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, capture_output=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "passes": passes, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit, "src_lines": lines,
            "loop": "closed, one caller, one call at a time",
            "waited_ms": "none: the program is single-threaded with no queues"}


def run(opts, workdir, launcher):
    spec = WORKLOADS[opts.workload]
    warm = os.path.join(workdir, "warm.log")
    code = launcher.run([sys.executable, "-m", "flatlink.cli", "--version"], warm).code
    if code != 0:
        raise RuntimeError("flatlink.cli does not start (exit %d)" % code)

    launcher.sample_reference = not opts.trace
    dirs = [os.path.join(workdir, "in%d" % k) for k in range(LABELLINGS)]
    setups = [generate(opts.workload, opts.seed, k, d, launcher) for k, d in enumerate(dirs)]

    passes = []
    if opts.trace:
        setup_trace = os.path.join(workdir, "setup_trace.jsonl")
        generate(opts.workload, opts.seed, 0, os.path.join(workdir, "in_traced"), launcher,
                 setup_trace)
        passes.append(run_pass(spec, dirs[0], workdir, launcher))
        passes.append(run_pass(spec, dirs[0], workdir, launcher, traced=True))
        metrics = layer_metrics(passes[1], passes[0]["wall"], setup_trace)
        units = PER_LAYER_UNITS
    else:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(spec, dirs[len(passes) % LABELLINGS], workdir, launcher))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > opts.seconds:
                break
        median = statistics.median
        metrics = {
            "batch_s": median(p["wall"] for p in passes),
            "batch_cpu_s": median(p["cpu"] for p in passes),
            "large_call_s": median(p["large"] for p in passes),
            "small_call_ms": median(s for p in passes for s in p["smalls"]) * 1e3,
            "peak_rss_mb": median(p["rss"] for p in passes),
            "setup_s": median(t.wall * t.speed for t in setups),
        }
        raw = {
            "batch_s": median(p["raw"]["wall"] for p in passes),
            "batch_cpu_s": median(p["raw"]["cpu"] for p in passes),
            "large_call_s": median(p["raw"]["large"] for p in passes),
            "small_call_ms": median(s for p in passes for s in p["raw"]["smalls"]) * 1e3,
            "setup_s": median(t.wall for t in setups),
        }
        units = dict(END_TO_END)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for label, problem in (f for p in passes for f in p["failures"]):
        print("FAILED %s: %s" % (label, problem))
    meta = metadata(opts.workload, opts.seed, opts.seconds, opts.trace, len(passes))
    meta["setup_s_samples"] = [t.wall * t.speed for t in setups]
    if not opts.trace:
        times = launcher.reference_times
        meta["reference"] = {"runs": len(times),
                             "median_s": statistics.median(t[0] for t in times),
                             "median_cpu_s": statistics.median(t[1] for t in times)}
        meta["raw"] = raw
    print("meta " + json.dumps(meta, sort_keys=True))
    shown = dict(metrics, failed_calls=failed, attempted_calls=attempted)
    units = dict(units, failed_calls="count", attempted_calls="count")
    for name, value in shown.items():
        print("%-48s %16s %s" % (name, value if isinstance(value, int) else "%.6f" % value,
                                 units[name]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flatlink", "cli.py")):
        print("error: no flatlink sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)  # so the launcher and work files go too
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (opts.workload, opts.seed), dir=WORK)
    try:
        with Launcher() as launcher:
            result = run(opts, workdir, launcher)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
