"""Tests of the benchmark's own logic that need its built programs.

    CARGO_TARGET_DIR=.bench_build python3 -m unittest discover -s perfbench/tests

The percentile rule, the latency histogram and the failed_ratio tally have
unit tests in src/selftest.cpp; these cover the generator, the end-to-end
accounting of a planted wrong answer, and the compare tool.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

sys.path.insert(0, PERFBENCH)
import compare  # noqa: E402


def generate(path, seed, workload="serve", seconds=3):
    subprocess.run([os.path.join(BUILD, "perfbench_gen"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--out", path],
                   check=True)
    with open(path, "rb") as f:
        return f.read()


def run_bench(*extra):
    p = subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py"),
                        "--workload", "serve", "--seed", "5", "--seconds", "3",
                        "--trace", "0", *extra],
                       stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        with tempfile.TemporaryDirectory() as d:
            for workload in ("kernels", "serve_sharded"):
                a = generate(os.path.join(d, "a"), 9, workload)
                b = generate(os.path.join(d, "b"), 9, workload)
                self.assertEqual(a, b, workload)

    def test_other_seed_gives_other_inputs(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertNotEqual(generate(os.path.join(d, "a"), 1),
                                generate(os.path.join(d, "b"), 2))


class FailedRatioTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        r = run_bench()
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)

    def test_planted_wrong_answer_fails_the_run(self):
        # One corrupted kernel-cell answer and one corrupted serving sample.
        r = run_bench("--plant-wrong", "1")
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 2)


class CompareTest(unittest.TestCase):
    BENCH = {
        "workloads": [{"name": "kernels", "why": ""}],
        "end_to_end": [{"name": "count_ms", "unit": "ms", "better": "lower",
                        "bound": 0.1},
                       {"name": "qps", "unit": "1/s", "better": "higher",
                        "bound": 0.1}],
        "per_layer": [],
    }

    @staticmethod
    def records(count_ms, qps):
        return [{"workload": "kernels", "traced": 0,
                 "metrics": {"count_ms": c, "qps": q}}
                for c, q in zip(count_ms, qps)]

    def verdicts(self, old, new):
        class Sink:
            lines = []

            def write(self, s):
                self.lines.append(s)

        sink = Sink()
        n = compare.compare(old, new, self.BENCH, out=sink)
        return n, "".join(sink.lines)

    def test_flags_a_twenty_percent_slowdown(self):
        base = [100, 101, 99, 100, 102]
        n, text = self.verdicts(self.records(base, base),
                                self.records([1.2 * x for x in base], base))
        self.assertEqual(n, 1)
        self.assertIn("count_ms", text.split("REGRESSION")[0].splitlines()[-1])

    def test_lower_throughput_is_a_regression(self):
        base = [100, 101, 99, 100, 102]
        n, _ = self.verdicts(self.records(base, base),
                             self.records(base, [0.8 * x for x in base]))
        self.assertEqual(n, 1)

    def test_quiet_on_reruns_within_noise(self):
        n, text = self.verdicts(self.records([100, 101, 99], [5, 5, 5]),
                                self.records([101, 99, 100], [5, 5, 5]))
        self.assertEqual(n, 0)
        self.assertNotIn("REGRESSION", text)

    def test_wide_spread_is_unresolved(self):
        n, text = self.verdicts(self.records([60, 100, 140, 80, 120], [5] * 5),
                                self.records([62, 100, 141, 82, 119], [5] * 5))
        self.assertEqual(n, 0)
        self.assertIn("unresolved", text)


if __name__ == "__main__":
    unittest.main()
