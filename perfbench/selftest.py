"""Self-tests of the benchmark: the oracle must be able to fail, and every
workload must run end to end at a tiny size.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import oracle
import run

cli = run.import_cli()


def machine(report) -> str:
    return cli.render_machine(report)


def edit(text: str, match, change) -> str:
    """Apply change() to every record for which match() holds; keep other lines."""
    lines = []
    for line in text.splitlines():
        record = json.loads(line)
        if match(record):
            change(record)
            line = json.dumps(record, sort_keys=True)
        lines.append(line)
    return "\n".join(lines) + "\n"


def failed_ops(problems: list[str]) -> int:
    tally = run.Tally()
    tally.record(("op",), problems, ())
    return tally.failed


class GenuineReportsPass(unittest.TestCase):
    def test_verify(self):
        text = machine(cli.cmd_verify("all", 3, 5))
        self.assertEqual(oracle.check_verify(text, 0, 3, 5), [])

    def test_searches(self):
        for scope in ("paper", "blackboard", "ip3"):
            text = machine(cli.cmd_search(scope, 1, 9))
            self.assertEqual(oracle.check_search(text, 0, scope, 9), [], scope)

    def test_replay(self):
        self.assertEqual(oracle.check_replay(machine(cli.cmd_replay(None)), 0), [])

    def test_demo(self):
        for seed in range(20):
            text = machine(cli.cmd_demo(32, seed))
            self.assertEqual(oracle.check_demo(text, 0, 32, seed), [], seed)


class ForgedReportsFail(unittest.TestCase):
    def test_failed_check(self):
        text = edit(machine(cli.cmd_verify("all", 3, 5)),
                    lambda r: r.get("name") == "classical_count_n2",
                    lambda r: r.update(passed=False))
        self.assertEqual(failed_ops(oracle.check_verify(text, 0, 3, 5)), 1)

    def test_missing_check(self):
        text = machine(cli.cmd_verify("all", 3, 5))
        text = "".join(line + "\n" for line in text.splitlines()
                       if '"quantum_exhaustive_n3"' not in line)
        text = edit(text, lambda r: r.get("type") == "summary",
                    lambda r: r.update(checks=r["checks"] - 1))
        self.assertEqual(failed_ops(oracle.check_verify(text, 0, 3, 5)), 1)

    def test_wrong_feasible_count(self):
        # A lying report: the count is wrong but every check still says passed.
        text = edit(machine(cli.cmd_search("paper", 1, 9)),
                    lambda r: "feasible" in r,
                    lambda r: r.update(feasible=3))
        self.assertEqual(failed_ops(oracle.check_search(text, 0, "paper", 9)), 1)

    def test_wrong_breakdown(self):
        text = edit(machine(cli.cmd_search("blackboard", 1, 9)),
                    lambda r: "breakdown" in r,
                    lambda r: r["breakdown"].update({"B-C/C": 1}))
        self.assertEqual(failed_ops(oracle.check_search(text, 0, "blackboard", 9)), 1)

    def test_wrong_cover_split(self):
        text = edit(machine(cli.cmd_replay(None)),
                    lambda r: r.get("name") == "case_cover",
                    lambda r: r["counts"].update({"1": 9, "2.1.1": 63}))
        self.assertEqual(failed_ops(oracle.check_replay(text, 0)), 1)

    def test_wrong_demo_output(self):
        text = machine(cli.cmd_demo(32, 4))
        text = edit(text, lambda r: r.get("protocol") == "quantum_two_bit",
                    lambda r: r.update(output=1 - r["output"]))
        self.assertEqual(failed_ops(oracle.check_demo(text, 0, 32, 4)), 1)

    def test_wrong_direct_value(self):
        text = edit(machine(cli.cmd_demo(32, 4)), lambda r: r.get("kind") in ("input", "run"),
                    lambda r: r.update({k: 1 - r[k] for k in ("direct_value", "output") if k in r}))
        self.assertEqual(failed_ops(oracle.check_demo(text, 0, 32, 4)), 1)

    def test_nonzero_exit(self):
        text = machine(cli.cmd_replay(None))
        self.assertEqual(failed_ops(oracle.check_replay(text, 1)), 1)

    def test_nondeterministic_repeat(self):
        tally = run.Tally()
        tally.record(("demo", 1), [], ("a", "b"))
        tally.record(("demo", 1), [], ("a", "c"))
        self.assertEqual((tally.attempted, tally.failed, tally.pairs), (2, 1, 1))

    def test_timing_line_is_not_compared(self):
        first = machine(cli.cmd_demo(32, 4))
        second = machine(cli.cmd_demo(32, 4))
        self.assertEqual(oracle.non_timing_lines(first), oracle.non_timing_lines(second))
        self.assertFalse(any('"timing"' in line for line in oracle.non_timing_lines(first)))


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        value, percentile, samples = run.tail([float(i) for i in range(100)])
        self.assertEqual((value, samples), (89.0, 100))
        self.assertAlmostEqual(percentile, 100 * 89 / 99)

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_unit_percentile_sums_each_commands_own(self):
        # Command 0's slow sample and command 1's fast one come from the
        # same unit; a percentile of unit sums would mix them.
        by_command = {0: [1.0, 2.0, 9.0], 1: [5.0, 0.5, 6.0]}
        self.assertEqual(run.unit_percentile(by_command, statistics.median), 2.0 + 5.0)


class Contract(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metric_lists_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         run.per_layer_names())
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["search_suite", "demo_stream"])
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *self.spec["command"][1:], "--workload", "demo_stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Smoke(unittest.TestCase):
    """Every workload, untraced and traced, at a tiny size."""

    def test_untraced(self):
        for workload in run.WORKLOADS:
            metrics, tally, detail = run.measure(workload, 3, 0.05, verify_n=3, setup_repeats=1)
            self.assertEqual(tally.failed, 0, tally.problems)
            if workload == "demo_stream":
                self.assertGreater(detail["determinism_pairs"], 0)
            self.assertEqual(list(metrics), [name for name, _ in run.END_TO_END])
            for name, metric in metrics.items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_traced(self):
        metrics, tally, detail = run.trace_pass(3, 0.3, verify_n=3)
        self.assertEqual(tally.failed, 0, tally.problems)
        self.assertGreater(detail["determinism_pairs"], 0)
        self.assertEqual(list(metrics), [name for name, _ in run.per_layer_names()])
        self.assertEqual(metrics["verify_sweep.bitcore.enumerate_promise.triples"]["value"],
                         sum(4**k for k in range(1, 4)) * 2)
        self.assertEqual(metrics["demo_stream.qsim.sample_outcome.calls"]["value"], 32)
        self.assertEqual(metrics["search_suite.lowerbound.replay_case.calls"]["value"], 7)
        for name in ("verify_sweep.trace_overhead", "search_suite.trace_overhead",
                     "demo_stream.trace_overhead",
                     "search_suite.lowerbound.search_blackboard_two_bit.cold_s"):
            self.assertGreater(metrics[name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
