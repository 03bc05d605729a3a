"""Tests of run.py's result checks and of the agreement between the
driver's metric names and BENCHMARK.json. Run them with
`python3 perfbench/run.py --selftest`, which builds the driver first."""
import json
import os
import subprocess
import unittest

import run

SPEC = run.load_spec()


def result_line(metrics, correct=True, attempted=3, failed=0):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {n: {"value": 1.5, "unit": u} for n, u in metrics.items()}})


class ValidateResultTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_metrics(SPEC, trace=0)

    def test_matching_result_passes(self):
        res = run.validate_result(result_line(self.expected), self.expected)
        self.assertEqual(res["attempted"], 3)

    def test_missing_metric_fails(self):
        partial = dict(self.expected)
        partial.pop("setup_s")
        with self.assertRaisesRegex(ValueError, "missing"):
            run.validate_result(result_line(partial), self.expected)

    def test_unexpected_metric_fails(self):
        more = dict(self.expected, bogus_ms="ms")
        with self.assertRaisesRegex(ValueError, "unexpected"):
            run.validate_result(result_line(more), self.expected)

    def test_wrong_unit_fails(self):
        wrong = dict(self.expected, setup_s="ms")
        with self.assertRaisesRegex(ValueError, "unit"):
            run.validate_result(result_line(wrong), self.expected)

    def test_incorrect_or_empty_result_fails(self):
        with self.assertRaises(ValueError):
            run.validate_result(result_line(self.expected, correct=False), self.expected)
        with self.assertRaises(ValueError):
            run.validate_result(result_line(self.expected, attempted=0), self.expected)

    def test_setup_metric_is_declared(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


@unittest.skipUnless(os.path.isfile(os.environ.get("PERFBENCH_DRIVER", "")),
                     "driver not built")
class DriverNamesTest(unittest.TestCase):
    def test_driver_prints_exactly_the_declared_metrics(self):
        out = subprocess.run([os.environ["PERFBENCH_DRIVER"], "--list-metrics"],
                             check=True, capture_output=True, text=True).stdout
        lines = out.splitlines()
        self.assertEqual(lines[0].split()[1:], [w["name"] for w in SPEC["workloads"]])
        for line, trace in zip(lines[1:], (0, 1)):
            got = dict(item.split("=", 1) for item in line.split()[1:])
            self.assertEqual(got, run.expected_metrics(SPEC, trace))

if __name__ == "__main__":
    unittest.main()
