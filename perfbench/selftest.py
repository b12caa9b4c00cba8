"""Self-tests of the benchmark harness (not part of the flatlink test suite).

From the root of a checkout:

    python3 perfbench/selftest.py

They run the real CLI, so they take a few minutes: every workload at two
seeds, and two traced runs of two workloads.  They also check that a child
started through the launcher does not inherit the harness's peak memory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
from workloads import WORKLOADS


def tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def bench(*args):
    """Run run.py; (exit code, parsed last stdout line or None, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")] + list(args),
                          cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last, proc.stdout + proc.stderr


class HarnessTest(unittest.TestCase):

    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        self.launcher = run.Launcher()

    def tearDown(self):
        self.launcher.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_benchmark_json_names_what_run_py_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            bench_json = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in bench_json["workloads"]), sorted(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench_json["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in bench_json["per_layer"]},
                         run.PER_LAYER_UNITS)

    def test_generator_is_deterministic_per_seed(self):
        for workload in sorted(WORKLOADS):
            a, b, c, d = (os.path.join(self.tmp, workload + s) for s in "abcd")
            run.generate(workload, 7, 0, a, self.launcher)
            run.generate(workload, 7, 0, b, self.launcher)
            run.generate(workload, 7, 1, c, self.launcher)
            run.generate(workload, 8, 0, d, self.launcher)
            self.assertEqual(tree_bytes(a), tree_bytes(b), workload)
            self.assertNotEqual(tree_bytes(a), tree_bytes(c), workload)
            self.assertNotEqual(tree_bytes(a), tree_bytes(d), workload)

    def test_seeds_0_and_1_meet_the_expected_values(self):
        for workload in sorted(WORKLOADS):
            for seed in ("0", "1"):
                code, result, out = bench("--workload", workload, "--seed", seed,
                                          "--seconds", "0", "--trace", "0")
                self.assertEqual(code, 0, out)
                self.assertEqual(result["failed"], 0, out)
                self.assertTrue(result["correct"], out)
                # one pass: its calls plus a small-call probe after each other call
                self.assertEqual(result["attempted"],
                                 2 * len(WORKLOADS[workload]["calls"]) - 1)
                self.assertEqual(sorted(result["metrics"]), sorted(dict(run.END_TO_END)))

    def test_two_traced_runs_give_identical_counters(self):
        for workload in ("davis-ball", "link-solve"):
            counts = []
            for _ in range(2):
                code, result, out = bench("--workload", workload, "--seed", "3",
                                          "--seconds", "0", "--trace", "1")
                self.assertEqual(code, 0, out)
                self.assertEqual(result["failed"], 0, out)
                self.assertEqual(sorted(result["metrics"]), sorted(run.PER_LAYER_UNITS))
                # cli.output_bytes is left out: timing_ms in each report varies
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
            self.assertEqual(counts[0], counts[1], workload)
            self.assertGreater(counts[0]["coxeter.Racg.normal_form.calls"
                                        if workload == "davis-ball"
                                        else "links.linking_matrix.pairs"], 0)

    def test_corrupted_expected_value_counts_as_failed_call(self):
        spec = dict(WORKLOADS["verify-sd"])
        small = next(c for c in spec["calls"] if c.label == spec["small"])
        wrong = dict(small.expect, **{"checks.square_count": 7})
        spec["calls"] = [small._replace(label="corrupted", expect=wrong), small]
        spec["large"] = small.label
        inputs = os.path.join(self.tmp, "in")
        run.generate("verify-sd", 0, 0, inputs, self.launcher)
        result = run.run_pass(spec, inputs, self.tmp, self.launcher)
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))
        self.assertEqual([label for label, _ in result["failures"]], ["corrupted"])
        self.assertIn("checks.square_count = 6, expected 7", result["failures"][0][1])

    def test_child_peak_rss_excludes_the_harness(self):
        ballast = bytearray(128 * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])
        log = os.path.join(self.tmp, "rss.log")
        timing = self.launcher.run([sys.executable, "-c", "pass"], log)
        self.assertEqual(timing.code, 0)
        self.assertLess(timing.rss_mb, 64)
        del ballast

    def test_a_group_shares_the_references_around_it(self):
        log = os.path.join(self.tmp, "group.log")
        self.launcher.sample_reference = True
        first = self.launcher.run([sys.executable, "-c", "pass"], log)
        group = self.launcher.run_group([([sys.executable, "-c", "pass"], log, None)] * 2)
        refs = self.launcher.reference_times
        self.assertEqual(len(refs), 3)  # before the first group, then after each group
        self.assertAlmostEqual(first.speed, 2 * run.REFERENCE_S / (refs[0][0] + refs[1][0]))
        self.assertEqual(group[0].speed, group[1].speed)
        self.assertAlmostEqual(group[0].speed, 2 * run.REFERENCE_S / (refs[1][0] + refs[2][0]))
        self.assertAlmostEqual(group[0].cpu_speed,
                               2 * run.REFERENCE_CPU_S / (refs[1][1] + refs[2][1]))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(self.tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "davis-ball",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
